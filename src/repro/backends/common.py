"""Backend-neutral helpers shared by every compile target.

Historically these lived in :mod:`repro.backends.cpu` and the C, GPU and
distributed backends (and the compile driver) imported them from there —
a cross-backend dependency on one concrete target.  They are target
independent: argument-kind inference and buffer collection read only
Layer I/III information, and Python-source binding is shared by every
exec-based backend.  ``repro.backends.cpu`` re-exports them for
backwards compatibility.
"""

from __future__ import annotations

from typing import Collection, Dict, FrozenSet, List, Optional

import numpy as np

from repro import settings
from repro.core.buffer import ArgKind, Buffer
from repro.core.communication import tile_window
from repro.core.computation import Input, Operation
from repro.core.errors import ExecutionError
from repro.core.function import Function
from repro.isl import Set

#: Per-use defaults when neither the ``timeout`` option nor the
#: ``timeout`` knob is set: a blocking receive and the whole-run thread
#: join.
DEFAULT_RECV_TIMEOUT = 30.0
DEFAULT_JOIN_TIMEOUT = 120.0


def resolve_timeout(value: Optional[float] = None,
                    default: Optional[float] = None) -> Optional[float]:
    """One timeout, three priorities: the ``timeout`` compile or call
    option, then the ``timeout`` knob of :mod:`repro.settings` (which
    lets CI tighten or loosen every deadline without touching compile
    options), then ``default`` (which may be None — "no deadline").
    Zero, negative, boolean and non-numeric values raise ValueError
    naming the option or the environment variable."""
    resolved = settings.resolve("timeout", value)
    if resolved is None and default is not None:
        return float(default)
    return resolved


def infer_argument_kinds(fn: Function) -> None:
    """Mark buffers: inputs keep INPUT; computations nobody consumes
    become OUTPUT arguments (named after the computation)."""
    from repro.ir.expr import accesses_in
    consumed = set()
    consumed_buffers = set()
    for c in fn.computations:
        if isinstance(c, Operation):
            src = c.payload.get("src")
            if src is not None:
                consumed_buffers.add(id(src))
            continue
        if c.expr is None:
            continue
        for acc in accesses_in(c.expr):
            producer = acc.computation
            if producer is c:
                continue
            if producer.get_buffer() is c.get_buffer():
                # Same-buffer access (reduction clones, separated
                # partial tiles): not a real consumption.
                continue
            consumed.add(producer.name)
    for c in fn.active_computations():
        if isinstance(c, (Input, Operation)):
            continue
        buf = c.get_buffer()
        if c.name not in consumed and id(buf) not in consumed_buffers \
                and buf.kind == ArgKind.TEMPORARY:
            buf.kind = ArgKind.OUTPUT
            if buf.name == f"_{c.name}_b":
                buf.name = c.name


def collect_buffers(fn: Function) -> List[Buffer]:
    """Every buffer the generated code touches, in first-use order."""
    seen: Dict[int, Buffer] = {}
    order: List[Buffer] = []
    for c in fn.computations:
        if isinstance(c, Operation):
            for key in ("buffer", "src", "dst"):
                b = c.payload.get(key)
                if isinstance(b, Buffer) and id(b) not in seen:
                    seen[id(b)] = b
                    order.append(b)
            continue
        if c.inlined:
            continue
        # a producer in a tile window keeps none: each iteration makes one
        candidates = [] if tile_window(c) else [c.get_buffer()]
        for shared, *_ in c.cached_reads.values():
            candidates.append(shared)
        if c.cached_store is not None:
            candidates.append(c.cached_store[0])
        for b in candidates:
            if id(b) not in seen:
                seen[id(b)] = b
                order.append(b)
    return order


def unfilled_buffers(fn: Function, buffers: List[Buffer],
                     legal: bool) -> FrozenSet[str]:
    """The buffers of ``buffers`` that a call allocates and that nothing
    can see before a statement stores into them, by name: those are
    allocated with ``np.empty``, every other one with ``np.zeros``.

    A buffer qualifies when it is an OUTPUT or a TEMPORARY that no
    :class:`Operation` and no ``compute_at`` statement touches, and

    (a) every read of it reads an element an earlier instance stored:
        each read instance is the sink of a flow dependence
        (:meth:`~repro.core.deps.DependenceSummary.dependences`, sources
        before sinks in the original order) whose source stores exactly
        there; ``legal`` (the compile checked that the schedule keeps
        every dependence) must hold if anything reads it at all;
    (b) for an OUTPUT, those exact stores cover its whole extent.

    A store is exact when its statement runs on its whole domain (no
    predicate, not split by ``separate``) and every index is affine; a
    read counts only when every index is affine (a clamped or
    data-dependent index may read elsewhere than the dependence says)."""
    from repro.core.deps import DependenceSummary, write_map
    from repro.ir.affine import try_expr_to_linexpr
    from repro.isl import IN, OUT, PARAM, BasicSet, Constraint, LinExpr
    params = {p: (PARAM, i) for i, p in enumerate(fn.param_names)}
    left = {id(b): b for b in buffers
            if b.kind in (ArgKind.OUTPUT, ArgKind.TEMPORARY)}
    comps = fn.active_computations()
    summary = DependenceSummary.of(fn)
    forms = {c: summary.form(c) for c in comps
             if not isinstance(c, Operation)}
    split = {id(c.domain) for c in forms
             if sum(d.domain is c.domain for d in forms) > 1}

    def affine(comp, element) -> bool:
        dims = dict(params, **{nm: (IN, k)
                               for k, nm in enumerate(comp.var_names)})
        return all(try_expr_to_linexpr(e, dims) is not None
                   for e in element.indices)

    exact = {c for c, f in forms.items()
             if f.store is not None and f.predicate is None
             and id(c.domain) not in split and affine(c, f.store)}
    for c in comps:
        if isinstance(c, Operation):
            touched = [c.payload.get(k) for k in ("buffer", "src", "dst")]
        elif c.anchor is not None:
            touched = [r.buffer for r in forms[c].reads] + [
                forms[c].store and forms[c].store.buffer]
        else:
            continue
        for b in touched:
            left.pop(id(b), None)
    reads = [(c, read) for c, f in forms.items() for read in f.reads
             if id(read.buffer) in left]
    if not legal:       # nothing read can be proven written first
        for __, read in reads:
            left.pop(id(read.buffer), None)
        reads = []
    flows: Dict[int, list] = {id(read): [] for __, read in reads}
    if flows:
        for dep in summary.dependences():
            if dep.kind == "flow" and id(dep.read) in flows \
                    and dep.source in exact:
                flows[id(dep.read)].append(dep.relation.range())
    for c, read in reads:
        if id(read.buffer) in left and not (
                affine(c, read) and _covers(flows[id(read)], c.domain)):
            left.pop(id(read.buffer))
    for b in list(left.values()):
        if b.kind != ArgKind.OUTPUT:
            continue
        sizes = [try_expr_to_linexpr(e, params) for e in b.sizes]
        stores = [write_map(c, forms[c]).range() for c in exact
                  if forms[c].store.buffer is b]
        if None in sizes or not stores:
            left.pop(id(b))
            continue
        box = BasicSet(stores[0].space, [
            bound for k, size in enumerate(sizes)
            for bound in (Constraint.ge(LinExpr.dim(OUT, k)),
                          Constraint.ge(size - 1 - LinExpr.dim(OUT, k)))])
        if not _covers(stores, Set([box])):
            left.pop(id(b))
    return frozenset(b.name for b in left.values())


def _covers(parts, whole) -> bool:
    """Does the union of the sets ``parts`` hold all of ``whole``?  A
    piece with existential dims is left out (no exact difference)."""
    for part in parts:
        whole = whole.subtract(Set([p for p in part.pieces if not p.n_div],
                                   part.space))
    return not whole.pieces


def bind_arguments(buffers: List[Buffer], param_names, kwargs,
                   unfilled: Collection[str] = ()):
    """Sort a kernel call's keyword arguments into ``(params, arrays,
    outputs)``: every parameter as an int, an array for every buffer
    (the caller's for an input, an inout and an output it passed;
    allocated for the rest, zero-filled unless its name is in
    ``unfilled``, :func:`unfilled_buffers`), and the subset a call
    returns.  A missing parameter or input and an argument the kernel
    does not take raise :class:`ExecutionError` naming it.  ``kwargs``
    is consumed."""
    params = {}
    for p in param_names:
        if p not in kwargs:
            raise ExecutionError(f"missing parameter {p!r}")
        params[p] = int(kwargs.pop(p))
    arrays: Dict[str, np.ndarray] = {}
    outputs: Dict[str, np.ndarray] = {}
    for buf in buffers:
        if buf.kind in (ArgKind.INPUT, ArgKind.INOUT):
            if buf.name not in kwargs:
                raise ExecutionError(
                    f"missing {buf.kind.value} buffer {buf.name!r}")
            arr = np.asarray(kwargs.pop(buf.name))
        else:
            arr = kwargs.pop(buf.name, None) \
                if buf.kind == ArgKind.OUTPUT else None
            if arr is None:
                arr = buf.allocate(params, fill=buf.name not in unfilled)
        arrays[buf.name] = arr
        if buf.kind in (ArgKind.INOUT, ArgKind.OUTPUT):
            outputs[buf.name] = arr
    if kwargs:
        raise ExecutionError(f"unknown arguments: {sorted(kwargs)}")
    return params, arrays, outputs


def bind_python_kernel(fn: Function, source: str, tag: str):
    """exec() emitted Python source and return its ``_kernel`` entry."""
    namespace: Dict[str, object] = {}
    code = compile(source, f"<{tag}:{fn.name}>", "exec")
    exec(code, namespace)
    return namespace["_kernel"]
