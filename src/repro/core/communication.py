"""The paper's novel scheduling commands (Table II, bold entries):
explicit communication, synchronization, and memory-hierarchy mapping.

Every command returns an :class:`~repro.core.computation.Operation` — "a
special type of computation that does not return any value" — which can
be scheduled (ordered, distributed) like any other computation.

``allocate_at`` / ``copy_at`` / ``barrier_at`` / ``cache_shared_at``
compute their iteration domains automatically from the anchor
computation's schedule, which is the point the paper emphasises: the
user never derives copy extents or sync placement by hand.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.expr import Const, Expr, IterVar, wrap
from repro.isl import IN, OUT, BasicSet, LinExpr, Map, Set, Space
from repro.isl.fourier_motzkin import bounds_on_dim, eliminate_dims

from .buffer import ArgKind, Buffer, MemSpace
from .computation import Computation, Operation, _linexpr_to_expr
from .access import element
from .deps import DependenceSummary, access_map
from .errors import ScheduleError
from .schedule import Tag, level_index
from .var import Var

ASYNC = "async"
SYNC = "sync"
BLOCKING = "blocking"
NONBLOCKING = "nonblocking"

_op_counter = [0]


def _fresh_op_name(kind: str) -> str:
    _op_counter[0] += 1
    return f"_{kind}_{_op_counter[0]}"


# -- point-to-point communication (paper Figure 3-c) -------------------------


def send(iterators: Sequence[Var], src_buffer: Buffer, offset,
         size, dest, props: Sequence[str] = (ASYNC,), fn=None) -> Operation:
    """Create a send operation.

    ``iterators``: the iteration domain of the send (typically node ids);
    ``src_buffer`` + ``offset``: where the data starts; ``size``: number
    of contiguous elements; ``dest``: destination rank (an expression over
    the iterators); ``props``: {ASYNC|SYNC, ...}.
    """
    op = Operation(_fresh_op_name("send"), list(iterators), "send", {
        "buffer": src_buffer,
        "offset": wrap(offset),
        "size": wrap(size),
        "peer": wrap(dest),
        "props": tuple(props),
    }, fn=fn)
    return op


def receive(iterators: Sequence[Var], dst_buffer: Buffer, offset,
            size, source, props: Sequence[str] = (SYNC,),
            matching_send: Optional[Operation] = None, fn=None) -> Operation:
    """Create a receive operation (arguments mirror :func:`send`)."""
    op = Operation(_fresh_op_name("recv"), list(iterators), "recv", {
        "buffer": dst_buffer,
        "offset": wrap(offset),
        "size": wrap(size),
        "peer": wrap(source),
        "props": tuple(props),
        "matching_send": matching_send,
    }, fn=fn)
    return op


# -- anchored operations: domains computed from the schedule ------------------


def _prefix_domain(comp: Computation, level: int) -> Tuple[Set, List[str]]:
    """The set of values taken by comp's loop dims 0..level (inclusive).

    This is how Tiramisu "automatically computes iteration domains" for
    copies, allocations and barriers: by projecting the anchor's
    scheduled instances.
    """
    names = [f"{comp.name}_{comp.time_names[k]}" for k in range(level + 1)]
    pieces = []
    for piece in comp.instances.pieces:
        drop = list(range(level + 1, len(comp.time_names)))
        proj = piece.project_onto_divs(OUT, drop)
        sp = Space.set_space(tuple(names), None, proj.space.params)
        pieces.append(BasicSet(sp, proj.constraints, proj.n_div))
    return Set(pieces), names


def _anchored_operation(kind: str, payload: dict, anchor: Computation,
                        level, before_anchor: bool = True) -> Operation:
    """Create an operation nested in the anchor's loops at ``level``
    (or at the root for level=None), ordered before/after the anchor."""
    fn = anchor.function
    if level is None or level == "root":
        unit = Var(_fresh_op_name("u"), 0, 1)
        op = Operation(_fresh_op_name(kind), [unit], kind, payload, fn=fn)
        if before_anchor:
            fn.order_before(op, anchor, -1)
        else:
            fn.order_after(op, anchor, -1)
        return op
    l = level_index(anchor, level)
    dom, names = _prefix_domain(anchor, l)
    op = Operation.__new__(Operation)
    # Build the operation with the prefix domain as its iteration space.
    unit_vars = [Var(nm, 0, 1) for nm in names]  # ranges replaced below
    Operation.__init__(op, _fresh_op_name(kind), unit_vars, kind, payload,
                       fn=fn)
    op.domain = dom
    op.instances = dom
    op.time_names = list(names)
    op.var_names = list(names)
    op.rev = {nm: LinExpr.dim(OUT, k) for k, nm in enumerate(names)}
    op.tags = {k: anchor.tags[k] for k in range(l + 1)
               if k in anchor.tags}
    if before_anchor:
        fn.order_before(op, anchor, l)
    else:
        fn.order_after(op, anchor, l)
    return op


def allocate_at(buffer: Buffer, comp: Computation, level=None) -> Operation:
    """b.allocate_at(C, i): allocate ``buffer`` inside C's loop nest."""
    return _anchored_operation("allocate", {"buffer": buffer}, comp, level)


def barrier_at(comp: Computation, level=None) -> Operation:
    """Insert a synchronization barrier in C's nest at the given level."""
    return _anchored_operation("barrier", {}, comp, level)


def copy_at(comp: Computation, level, src: Buffer, dst: Buffer) -> Operation:
    """Copy buffer ``src`` to ``dst`` at the given loop level of comp."""
    return _anchored_operation("copy", {"src": src, "dst": dst}, comp, level)


# -- host/device transfers ------------------------------------------------------


def _host_twin(buf: Buffer, name: str, kind) -> Buffer:
    """The host-side mirror of a device buffer (shared between the h2d
    and d2h directions so in-out buffers round-trip through one array)."""
    twin = getattr(buf, "_host_twin_buffer", None)
    if twin is None:
        twin = Buffer(name, list(buf.sizes), buf.dtype, kind)
        buf._host_twin_buffer = twin
    return twin


def host_to_device(comp: Computation) -> Operation:
    """Return an operation copying comp's buffer from host to device.

    The computation's buffer becomes the device-resident array; a host
    twin (named ``<buffer>_host``) becomes the function argument.
    """
    buf = comp.get_buffer()
    host = _host_twin(buf, f"{buf.name}_host", buf.kind)
    buf.kind = ArgKind.TEMPORARY
    if buf.mem_space == MemSpace.HOST:
        buf.mem_space = MemSpace.GPU_GLOBAL
    unit = Var(_fresh_op_name("u"), 0, 1)
    op = Operation(_fresh_op_name("h2d"), [unit], "copy",
                   {"src": host, "dst": buf, "direction": "h2d"},
                   fn=comp.function)
    return op


def device_to_host(comp: Computation) -> Operation:
    """Return an operation copying comp's buffer from device to host."""
    buf = comp.get_buffer()
    host_name = (f"{comp.name}_host" if buf.name == f"_{comp.name}_b"
                 else f"{buf.name}_host")
    host = _host_twin(buf, host_name,
                      ArgKind.OUTPUT if buf.kind in (ArgKind.OUTPUT,
                                                     ArgKind.TEMPORARY)
                      else buf.kind)
    if host.kind == ArgKind.INPUT and buf.kind == ArgKind.INOUT:
        host.kind = ArgKind.INOUT
    buf.kind = ArgKind.TEMPORARY
    if buf.mem_space == MemSpace.HOST:
        buf.mem_space = MemSpace.GPU_GLOBAL
    unit = Var(_fresh_op_name("u"), 0, 1)
    op = Operation(_fresh_op_name("d2h"), [unit], "copy",
                   {"src": buf, "dst": host, "direction": "d2h"},
                   fn=comp.function)
    return op


# -- GPU shared/local caches (cache_shared_at / cache_local_at) -----------------


def cache_at(producer: Computation, consumer: Computation, level,
             space: MemSpace = MemSpace.GPU_SHARED) -> Operation:
    """cache_shared_at/cache_local_at: stage producer's buffer tile into
    a fast memory, automatically computing the footprint, emitting the
    copy, and redirecting the consumer's reads (paper Section III-C).
    """
    from .schedule import _needed_relation
    fn = consumer.function
    l = level_index(consumer, level)
    needed = _needed_relation(consumer, producer, l)
    if needed is None or needed.is_empty():
        raise ScheduleError(
            f"{consumer.name} does not read {producer.name}")
    # Footprint on the producer's *buffer*: compose with where its values
    # live (an input stores nothing, so this is not its write map).
    origins, extents = bounding_box(
        needed.apply_range(access_map(producer, element(producer))), l + 1)
    shared = Buffer(f"_{producer.name}_{space.value}",
                    [Const(e) for e in extents], producer.dtype,
                    ArgKind.TEMPORARY)
    shared.mem_space = space
    produced_in_tile = (producer.anchor is not None
                        and producer.anchor[0] is consumer
                        and producer.anchor[1] <= l)
    if produced_in_tile:
        # The producer is computed inside the consumer's tile
        # (compute_at): it writes straight into the cache — the paper's
        # "store the results of the bx computation in shared memory" —
        # which takes the place of its tile window.
        # Only a barrier separates the produce and consume phases.
        producer.cached_store = (shared, origins)
        op = barrier_at(consumer, level)
        # Order the barrier between the produce and consume phases.
        fn.order_after(op, producer, l)
    else:
        # Staging an externally produced buffer (e.g. convolution
        # weights): copy the footprint box from global memory.
        op = _anchored_operation("cache_copy", {
            "src": producer.get_buffer(),
            "dst": shared,
            "origins": origins,          # LinExpr over prefix dims (OUT,k)
            "extents": extents,
        }, consumer, l)
    # Redirect the consumer's reads of producer through the cache.
    consumer.cached_reads[producer.name] = (shared, origins, l + 1)
    return op


def bounding_box(footprint, n_prefix: int
                 ) -> Tuple[List[LinExpr], List[int]]:
    """Per output dimension of ``footprint`` (a map from the loops
    ``0..n_prefix - 1`` to buffer elements): the origin of its bounding
    box, a LinExpr over those loops (``(OUT, k)``) and the parameters,
    and its constant extent; ScheduleError if there is none."""
    n_buf = len(footprint.space.out_dims)
    origins: List[LinExpr] = []
    extents: List[int] = []
    for k in range(n_buf):
        # Bounding box across ALL footprint pieces (one per access).
        lo: Optional[LinExpr] = None
        hi: Optional[LinExpr] = None
        for piece in footprint.pieces:
            flat = piece.to_set()  # dims: prefix ++ buffer dims
            others = [d for d in range(n_prefix, n_prefix + n_buf)
                      if d != n_prefix + k]
            cons = eliminate_dims(flat.constraints,
                                  [(OUT, d) for d in others])
            cons = eliminate_dims(cons,
                                  [("d", d) for d in range(flat.n_div)])
            lowers, uppers = bounds_on_dim(cons, (OUT, n_prefix + k))
            p_lo = _pick_affine_bound(lowers, n_prefix, is_lower=True)
            p_hi = _pick_affine_bound(uppers, n_prefix, is_lower=False)
            if p_lo is None or p_hi is None:
                raise ScheduleError(
                    f"cache_at: cannot bound footprint dim {k} affinely")
            lo = p_lo if lo is None else _combine(lo, p_lo, is_lower=True)
            hi = p_hi if hi is None else _combine(hi, p_hi, is_lower=False)
        extent = hi - lo
        if not extent.is_constant():
            # Allow parameter-free extents only (fixed tile sizes).
            raise ScheduleError(
                "cache_at requires constant tile footprints; got extent "
                f"{extent!r}")
        origins.append(lo)
        extents.append(int(extent.const) + 1)
    return origins, extents


# -- tile windows (compute_at) --------------------------------------------------


def tile_window(producer: Computation
                ) -> Optional[Tuple[Buffer, List[LinExpr]]]:
    """``(window, origins)``: where ``producer`` stores when
    ``compute_at`` nests it in its consumer's loops ``0..l``
    (``producer.anchor``) — a buffer of the constant box one iteration
    of those loops computes (:func:`window_box`), private to that
    iteration (paper Section III-C, overlapped tiling), the producer's
    stores and the consumer's reads rebased onto it.  None, and the
    producer keeps its function-wide buffer, unless that buffer is its
    own temporary (not an argument, not set by ``store_in``) that no
    computation other than the consumer's expression reads and no
    operation names, no ``cache_shared_at`` cache took its place, and
    the box is constant."""
    if producer.anchor is None or producer.cached_store is not None:
        return None
    buf = producer.get_buffer()
    if buf.owner is not producer or buf.kind is not ArgKind.TEMPORARY \
            or not _read_by_consumer_alone(producer):
        return None
    return window_box(producer)


def window_box(producer: Computation
               ) -> Optional[Tuple[Buffer, List[LinExpr]]]:
    """The window of ``producer``'s buffer that one iteration of its
    loops ``0..l`` (``producer.anchor``) computes — its bounding box
    (:func:`bounding_box`) as a buffer, with the origins — or None
    without a constant one.  Worked out by ``compute_at`` and again
    whenever the producer's schedule or store indices have been
    replaced since."""
    l, memo = producer.anchor[1], producer.window_memo
    rev = tuple(producer.rev[nm] for nm in producer.var_names)
    if memo is not None and memo[0] == l and memo[1] is producer.instances \
            and memo[2] is producer.store_exprs and memo[3] == rev:
        return memo[4]
    # each computed instance -> the element it stores, per prefix
    held = producer.forward_schedule().reverse().apply_range(
        access_map(producer, element(producer)))
    drop = list(range(l + 1, len(producer.time_names)))
    window = None
    if held.pieces:
        try:
            origins, extents = bounding_box(Map(
                [p.project_onto_divs(IN, drop) for p in held.pieces]), l + 1)
            window = (Buffer(f"_{producer.name}_w",
                             [Const(e) for e in extents], producer.dtype,
                             ArgKind.TEMPORARY), origins)
        except ScheduleError:               # no constant box
            pass
    producer.window_memo = (l, producer.instances, producer.store_exprs,
                            rev, window)
    return window


def _read_by_consumer_alone(producer: Computation) -> bool:
    """Is the expression of the consumer ``compute_at`` nests
    ``producer`` in the only place that reads it — directly: no other
    expression or predicate accesses it, and no other statement or
    operation touches its buffer (an inlined consumer's readers do)?"""
    from repro.ir.expr import accesses_in
    fn, consumer, buf = producer.function, producer.anchor[0], producer.buffer
    summary = DependenceSummary.of(fn)
    for c in fn.computations:
        if isinstance(c, Operation):
            if any(c.payload.get(k) is buf for k in ("buffer", "src", "dst")):
                return False
            continue
        for e in (c.expr if c is not consumer else None, c.predicate):
            if e is not None and any(a.computation is producer
                                     for a in accesses_in(e)):
                return False
    for c in fn.active_computations():
        if c is producer or c is consumer or isinstance(c, Operation):
            continue
        form = summary.form(c)
        if any(r.buffer is buf for r in form.reads + (form.store,) if r):
            return False
    return True


def _pick_affine_bound(bounds, n_prefix: int, is_lower: bool
                       ) -> Optional[LinExpr]:
    """Choose a per-piece bound over prefix dims/params.

    Any single bound is sound (the piece satisfies all of them), so we
    select for *usefulness*: prefer tile-relative bounds (involving a
    prefix dim — they yield constant footprint extents) and, among
    comparable candidates, the tightest one (smallest staging buffer).
    """
    candidates: List[LinExpr] = []
    for coeff, expr in bounds:
        if coeff != 1:
            continue
        if any(kind == OUT and idx >= n_prefix
               for (kind, idx) in expr.dims()):
            continue
        if any(kind == "d" for (kind, idx) in expr.dims()):
            continue
        candidates.append(expr)
    preferred = [e for e in candidates
                 if any(kind == OUT for kind, __ in e.dims())]
    pool = preferred or candidates
    best: Optional[LinExpr] = None
    for expr in pool:
        best = expr if best is None else _tighten(best, expr, is_lower)
    return best


def _tighten(a: LinExpr, b: LinExpr, is_lower: bool) -> LinExpr:
    """The tighter of two comparable bounds (first one if incomparable)."""
    diff = a - b
    if diff.is_constant():
        c = int(diff.const)
        if is_lower:
            return a if c > 0 else b   # larger lower bound is tighter
        return a if c < 0 else b       # smaller upper bound is tighter
    return a


def _combine(a: LinExpr, b: LinExpr, is_lower: bool) -> LinExpr:
    """The looser of two comparable bounds (box union across pieces)."""
    diff = a - b
    if diff.is_constant():
        c = int(diff.const)
        if is_lower:
            return b if c > 0 else a
        return b if c < 0 else a
    return a
