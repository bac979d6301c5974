"""Computations: the statements of a Tiramisu program (paper Section III-B).

A :class:`Computation` couples an iteration domain (Layer I) with an
expression to compute.  Scheduling commands (Table II of the paper) are
methods; they rewrite the computation's time representation (see
:mod:`repro.core.schedule`).  :class:`Input` is a computation with no
expression whose values come from an argument buffer; :class:`Operation`
is the paper's special computation that returns no value (allocation,
copies, sends/receives, barriers).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir import types as T
from repro.ir.affine import NonAffineError, expr_to_linexpr
from repro.ir.expr import Access, Expr, wrap
from repro.isl import (IN, OUT, PARAM, BasicMap, BasicSet, Constraint,
                       LinExpr, Map, Set, Space)

from . import schedule as S
from .buffer import ArgKind, Buffer
from .errors import ScheduleError, TiramisuError
from .var import Param, Var


class Computation:
    """A statement defined over an iteration domain."""

    def __init__(self, name: str, variables: Sequence[Var], expr=None,
                 dtype=T.float32, fn=None):
        from .function import current_function
        self.function = fn if fn is not None else current_function()
        if self.function is None:
            raise TiramisuError(
                f"computation {name!r} declared outside a Function; "
                "use 'with Function(...):' or pass fn=")
        self.name = name
        self.vars: List[Var] = list(variables)
        for v in self.vars:
            if not v.has_range:
                raise TiramisuError(
                    f"{name}: iteration variable {v.name} needs a range")
        self.var_names: List[str] = [v.name for v in self.vars]
        self.dtype = dtype
        self.expr: Optional[Expr] = wrap(expr) if expr is not None else None
        self.predicate: Optional[Expr] = None

        self.function._register(self)
        self.domain: Set = self._build_domain()

        # -- schedule state (see repro.core.schedule) -------------------
        self.time_names: List[str] = list(self.var_names)
        self.instances: Set = self.domain
        self.rev: Dict[str, LinExpr] = {
            nm: LinExpr.dim(OUT, k) for k, nm in enumerate(self.var_names)}
        self.tags: Dict[int, S.Tag] = {}
        self.anchor: Optional[Tuple["Computation", int]] = None
        self.inlined = False

        # -- data mapping (Layer III) ------------------------------------
        self.buffer: Optional[Buffer] = None
        self.store_exprs: Optional[List[Expr]] = None  # over orig var names
        # producer name -> (shared buffer, origin LinExprs, n_prefix dims),
        # set by cache_shared_at / cache_local_at.
        self.cached_reads: Dict[str, Tuple] = {}
        # (shared buffer, origin LinExprs) when this computation stores
        # directly into a shared/local cache (cache_shared_at on a
        # compute_at-nested producer).
        self.cached_store: Optional[Tuple] = None
        # what repro.core.communication.window_box last worked out, and
        # from which schedule state
        self.window_memo: Optional[Tuple] = None

    # -- algorithm-level API ---------------------------------------------

    def __call__(self, *indices) -> Access:
        """Access this computation at the given indices (producer-consumer
        relationship; no memory semantics at Layer I)."""
        return Access(self, [wrap(i) for i in indices])

    def set_expression(self, expr) -> "Computation":
        self.expr = wrap(expr)
        return self

    def add_predicate(self, predicate) -> "Computation":
        """Attach a (possibly non-affine) guard, per paper Section V-B."""
        self.predicate = wrap(predicate)
        return self

    def _build_domain(self) -> Set:
        params = self.function.param_names
        space = Space.set_space(tuple(self.var_names), self.name, params)
        dim_table = {p: (PARAM, i) for i, p in enumerate(params)}
        dim_table.update({nm: (OUT, k)
                          for k, nm in enumerate(self.var_names)})
        cons: List[Constraint] = []
        for k, v in enumerate(self.vars):
            try:
                lo = expr_to_linexpr(v.lo, dim_table)
                hi = expr_to_linexpr(v.hi, dim_table)
            except NonAffineError as err:
                raise TiramisuError(
                    f"{self.name}: non-affine bound on {v.name}: {err}"
                ) from None
            cons.append(Constraint.ge(LinExpr.dim(OUT, k) - lo))
            cons.append(Constraint.ge(hi - LinExpr.dim(OUT, k) - 1))
        return Set([BasicSet(space, cons)])

    # -- loop-nest transformation commands (paper Table II) ----------------

    def tile(self, i, j, t1: int, t2: int, *names) -> "Computation":
        name_list = [n.name if isinstance(n, Var) else n for n in names] \
            if names else None
        S.apply_tile(self, i, j, t1, t2, name_list)
        return self

    def split(self, i, s: int, i0=None, i1=None) -> "Computation":
        base = i.name if isinstance(i, Var) else str(i)
        outer = (i0.name if isinstance(i0, Var) else i0) or f"{base}0"
        inner = (i1.name if isinstance(i1, Var) else i1) or f"{base}1"
        S.apply_split(self, i, s, outer, inner)
        return self

    def interchange(self, i, j) -> "Computation":
        S.apply_interchange(self, i, j)
        return self

    def shift(self, i, s: int) -> "Computation":
        S.apply_shift(self, i, s)
        return self

    def skew(self, i, j, factor: int) -> "Computation":
        S.apply_skew(self, i, j, factor)
        return self

    def unroll(self, i, factor: int) -> "Computation":
        l = S.level_index(self, i)
        self.tags[l] = S.Tag("unroll", factor)
        return self

    def set_schedule(self, isl_map_str: str) -> "Computation":
        S.apply_set_schedule(self, isl_map_str)
        return self

    def compute_at(self, consumer: "Computation", level) -> "Computation":
        S.apply_compute_at(self, consumer, level)
        return self

    def after(self, other: "Computation", level=None) -> "Computation":
        """Order this computation after ``other`` at the given loop level
        (sharing loop structure above it); root level if omitted."""
        l = -1 if level is None or level == "root" \
            else S.level_index(other, level)
        self.function.order_after(self, other, l)
        return self

    def before(self, other: "Computation", level=None) -> "Computation":
        l = -1 if level is None or level == "root" \
            else S.level_index(other, level)
        self.function.order_before(self, other, l)
        return self

    def then(self, other: "Computation", level=None) -> "Computation":
        """Fluent ordering: self then other (returns ``other``)."""
        other.after(self, level)
        return other

    def inline(self) -> "Computation":
        """Inline this computation into all of its consumers."""
        self.inlined = True
        return self

    def separate(self, level) -> Optional["Computation"]:
        """Full/partial tile separation at ``level``: split off the
        boundary iterations into a scalar epilogue computation so the
        full tiles vectorize without guards (paper Sections V-A, VI-A).
        Returns the epilogue computation, or None if nothing separates."""
        from .separate import separate as _separate
        return _separate(self, level)

    def separate_all(self, *levels) -> List["Computation"]:
        """Separate full from partial tiles at every given level,
        recursively covering the partial clones (so e.g. a 2-D GPU tile
        ends with uniform bounds in every launch — no divergence)."""
        comps: List["Computation"] = [self]
        partials: List["Computation"] = []
        for level in levels:
            new_partials = []
            for comp in comps:
                p = comp.separate(level)
                if p is not None:
                    new_partials.append(p)
            comps.extend(new_partials)
            partials.extend(new_partials)
        return partials

    # -- hardware mapping commands ------------------------------------------

    def parallelize(self, i) -> "Computation":
        self.tags[S.level_index(self, i)] = S.Tag("parallel")
        return self

    def vectorize(self, i, length: int) -> "Computation":
        self.tags[S.level_index(self, i)] = S.Tag("vector", length)
        return self

    def distribute(self, i) -> "Computation":
        self.tags[S.level_index(self, i)] = S.Tag("distributed")
        return self

    def gpu(self, i0, i1, i2, i3) -> "Computation":
        """Map (i0, i1) to GPU block dims and (i2, i3) to thread dims."""
        self.tags[S.level_index(self, i0)] = S.Tag("gpu_block")
        self.tags[S.level_index(self, i1)] = S.Tag("gpu_block")
        self.tags[S.level_index(self, i2)] = S.Tag("gpu_thread")
        self.tags[S.level_index(self, i3)] = S.Tag("gpu_thread")
        return self

    def tile_gpu(self, i, j, t1: int, t2: int, *names) -> "Computation":
        """tile + map the resulting loops onto the GPU grid."""
        self.tile(i, j, t1, t2, *names)
        l = S.level_index(self, _nm(names[0]) if names else f"{_nm(i)}0")
        self.tags[l] = S.Tag("gpu_block")
        self.tags[l + 1] = S.Tag("gpu_block")
        self.tags[l + 2] = S.Tag("gpu_thread")
        self.tags[l + 3] = S.Tag("gpu_thread")
        return self

    # -- communication / memory-hierarchy commands (paper's novel set) ----

    def cache_shared_at(self, consumer: "Computation", level) -> "Operation":
        """Stage this computation's buffer tile into GPU shared memory at
        the consumer's loop level (footprint/copy/sync automatic)."""
        from .buffer import MemSpace
        from .communication import cache_at
        return cache_at(self, consumer, level, MemSpace.GPU_SHARED)

    def cache_local_at(self, consumer: "Computation", level) -> "Operation":
        from .buffer import MemSpace
        from .communication import cache_at
        return cache_at(self, consumer, level, MemSpace.GPU_LOCAL)

    def host_to_device(self) -> "Operation":
        from .communication import host_to_device
        return host_to_device(self)

    def device_to_host(self) -> "Operation":
        from .communication import device_to_host
        return device_to_host(self)

    # -- data mapping commands (Layer III) ------------------------------------

    def store_in(self, buffer_or_dims, dims: Optional[Sequence] = None
                 ) -> "Computation":
        """store_in(b, {i, j}): store C(i, j, ...) into b[i, j].

        Accepts either a :class:`Buffer` plus index list, or just a list
        of dims/exprs (storing into the computation's default buffer with
        a permuted/contracted layout).
        """
        if isinstance(buffer_or_dims, Buffer):
            self.buffer = buffer_or_dims
            idx = dims
        else:
            idx = buffer_or_dims
        if idx is not None:
            self.store_exprs = [wrap(i.expr() if isinstance(i, Var) else i)
                                for i in idx]
        return self

    def store_in_isl(self, isl_map_str: str,
                     buffer: Optional[Buffer] = None) -> "Computation":
        """Set the data mapping from an affine relation in ISL syntax
        (paper Section IV-3: "Tiramisu allows any data-layout mapping
        expressible as an affine relation"), e.g.
        ``c.store_in_isl("{ c[i,j] -> b[j, i % 2] }")``."""
        from repro.isl.parser import parse_map
        from repro.isl.linexpr import IN as ISL_IN, OUT as ISL_OUT
        m = parse_map(isl_map_str)
        if len(m.pieces) != 1:
            raise ScheduleError("store_in_isl needs a single-piece map")
        bmap = m.pieces[0]
        if len(bmap.space.in_dims) != len(self.var_names):
            raise ScheduleError(
                f"store_in_isl: map has {len(bmap.space.in_dims)} input "
                f"dims, domain has {len(self.var_names)}")
        exprs: List[Expr] = []
        n_out = len(bmap.space.out_dims)
        for k in range(n_out):
            found = None
            for c in bmap.constraints:
                if c.kind != "eq":
                    continue
                coeff = int(c.expr.coeff((ISL_OUT, k)))
                if abs(coeff) != 1:
                    continue
                if any(d[0] == ISL_OUT and d != (ISL_OUT, k)
                       for d in c.expr.dims()):
                    continue
                rest = (c.expr - LinExpr.dim(ISL_OUT, k, coeff)) * (-coeff)
                found = rest
                break
            if found is None:
                raise ScheduleError(
                    f"store_in_isl: output dim {k} is not an affine "
                    "function of the domain dims")
            expr: Expr = wrap(int(found.const))
            from repro.ir.expr import BinOp, Const, IterVar
            for (kind, idx), coeff in found.coeffs.items():
                if kind == ISL_IN:
                    term: Expr = IterVar(self.var_names[idx])
                elif kind == "p":
                    from repro.ir.expr import ParamRef
                    term = ParamRef(bmap.space.params[idx])
                elif kind == "d":
                    raise ScheduleError(
                        "store_in_isl: modulo layouts need the % operator"
                        " form of store_in")
                else:
                    raise ScheduleError(f"unsupported dim kind {kind}")
                if int(coeff) != 1:
                    term = BinOp("*", Const(int(coeff)), term)
                expr = BinOp("+", expr, term)
            exprs.append(expr)
        if buffer is not None:
            self.buffer = buffer
        self.store_exprs = exprs
        return self

    def get_buffer(self) -> Buffer:
        """The buffer associated with this computation (auto-created on
        first use, like the paper's C.buffer(); its extents are derived
        when first read)."""
        if self.buffer is None:
            self.buffer = Buffer(f"_{self.name}_b", (), self.dtype,
                                 ArgKind.TEMPORARY, owner=self)
        return self.buffer

    def _extent_exprs(self) -> List[Expr]:
        """Per-dimension sizes of the default buffer: parameter-only upper
        bounds on each *stored* index (handles non-rectangular domains and
        permuted/contracted store_in layouts)."""
        from repro.isl.fourier_motzkin import bounds_on_dim, eliminate_dims
        store = self.store_indices()
        params = self.function.param_names
        n = len(self.var_names)
        table = {p: (PARAM, i) for i, p in enumerate(params)}
        table.update({nm: (OUT, k) for k, nm in enumerate(self.var_names)})
        store_les = []
        for e in store:
            try:
                store_les.append(expr_to_linexpr(e, table))
            except NonAffineError:
                raise TiramisuError(
                    f"{self.name}: cannot infer a buffer size for the "
                    f"non-affine store index {e!r}; pass an explicit "
                    "Buffer to store_in") from None
        sizes: List[Expr] = []
        for k, le in enumerate(store_les):
            candidates: List[Expr] = []
            for piece in self.domain.pieces:
                # Introduce the stored index as a fresh trailing dim and
                # project the domain dims away.
                aug = piece.insert_dims(OUT, n, [f"_st{k}"])
                aug = aug.add_constraint(
                    Constraint.eq(LinExpr.dim(OUT, n) - le))
                cons = eliminate_dims(aug.constraints,
                                      [(OUT, d) for d in range(n)])
                __, uppers = bounds_on_dim(cons, (OUT, n))
                piece_sizes = []
                for b, f in uppers:
                    if f.involves_kind(OUT) or f.involves_kind(IN) \
                            or f.involves_kind("d"):
                        continue
                    piece_sizes.append(_linexpr_to_expr(f, params, b, plus=1))
                if piece_sizes:
                    candidates.append(_min_expr(piece_sizes))
            if not candidates:
                raise TiramisuError(
                    f"{self.name}: cannot infer buffer extent for store "
                    f"index {store[k]!r}; call store_in with an explicit "
                    "Buffer")
            sizes.append(_max_expr(candidates))
        return sizes

    def store_indices(self) -> List[Expr]:
        """Store index expressions over the original var names."""
        if self.store_exprs is not None:
            return list(self.store_exprs)
        return [v.expr() for v in self.vars]

    def cache_of(self, buffer, store: bool = False) -> Optional[Tuple]:
        """``(staging buffer, origins)`` when this computation reaches
        ``buffer`` through one, else None: its store (``store``) through
        ``cache_shared_at``'s cache or its tile window, a read through a
        cache (``cache_shared_at`` / ``cache_local_at``) or through the
        tile window of a producer ``compute_at`` nests in this
        computation (:func:`repro.core.communication.tile_window`)."""
        from .communication import tile_window
        if store:
            return self.cached_store or tile_window(self)
        for name, (shared, origins, __) in self.cached_reads.items():
            if self.function.find(name).get_buffer() is buffer:
                return shared, origins
        producer = buffer.owner
        if producer is not None and producer.anchor is not None \
                and producer.anchor[0] is self:
            return tile_window(producer)
        return None

    # -- schedule plumbing ---------------------------------------------------

    def schedule_snapshot(self) -> Dict[str, object]:
        """Copy of this computation's schedule state (time representation,
        tags, anchor).  Scheduling commands replace ``instances`` and the
        ``rev`` expressions wholesale but mutate the ``tags`` dict and
        ``time_names`` list in place, so those are copied; the ISL sets
        and LinExprs themselves are never mutated and ride by reference.
        Feed the result to :meth:`restore_schedule` for an exact rollback
        (the primitive under :class:`repro.autosched.plan.SchedulePlan`)."""
        return {
            "time_names": list(self.time_names),
            "instances": self.instances,
            "rev": dict(self.rev),
            "tags": dict(self.tags),
            "anchor": self.anchor,
        }

    def restore_schedule(self, snapshot: Dict[str, object]) -> None:
        """Restore schedule state captured by :meth:`schedule_snapshot`."""
        self.time_names = list(snapshot["time_names"])
        self.instances = snapshot["instances"]
        self.rev = dict(snapshot["rev"])
        self.tags = dict(snapshot["tags"])
        self.anchor = snapshot["anchor"]

    def forward_schedule(self) -> Map:
        """Map: original domain -> current time dims (a relation; it is
        the inverse of ``rev`` restricted to scheduled instances)."""
        n_time = len(self.time_names)
        space = Space.map_space(tuple(self.var_names),
                                tuple(self.time_names),
                                self.name, self.name,
                                self.function.param_names)
        cons = []
        for k, nm in enumerate(self.var_names):
            cons.append(Constraint.eq(LinExpr.dim(IN, k) - self.rev[nm]))
        bm = BasicMap(space, cons)
        return Map.from_basic(bm).intersect_range(self.instances)

    def scheduled_domain(self) -> Set:
        return self.instances

    def __repr__(self):
        return f"<Computation {self.name}[{', '.join(self.var_names)}]>"


def _nm(x) -> str:
    return x.name if isinstance(x, Var) else str(x)


def _linexpr_to_expr(le, params, divisor: int = 1, plus: int = 0) -> Expr:
    """floor(le / divisor) + plus as an expression over parameters."""
    from repro.ir.expr import BinOp, Const, ParamRef
    result: Expr = Const(int(le.const))
    for (kind, idx), coeff in le.coeffs.items():
        term: Expr = ParamRef(params[idx])
        if int(coeff) != 1:
            term = BinOp("*", Const(int(coeff)), term)
        result = BinOp("+", result, term)
    if divisor != 1:
        result = BinOp("//", result, Const(divisor))
    if plus:
        result = BinOp("+", result, Const(plus))
    return result


def _min_expr(exprs: List[Expr]) -> Expr:
    from repro.ir.expr import Call
    out = exprs[0]
    for e in exprs[1:]:
        out = Call("min", [out, e])
    return out


def _max_expr(exprs: List[Expr]) -> Expr:
    from repro.ir.expr import Call
    out = exprs[0]
    for e in exprs[1:]:
        out = Call("max", [out, e])
    return out


class Input(Computation):
    """An input: a computation whose values are read from an argument
    buffer rather than computed."""

    def __init__(self, name: str, variables: Sequence[Var], dtype=T.float32,
                 fn=None):
        super().__init__(name, variables, expr=None, dtype=dtype, fn=fn)
        buf = self.get_buffer()
        buf.kind = ArgKind.INPUT
        buf.name = name


class ConstantScalar(Computation):
    """An invariant scalar computed once before the loop nests (the
    paper's `Constant`)."""

    def __init__(self, name: str, expr, dtype=T.float32, fn=None):
        unit = Var(f"_{name}_u", 0, 1)
        super().__init__(name, [unit], expr=expr, dtype=dtype, fn=fn)
        self.store_exprs = [wrap(0)]
        self.get_buffer().set_size([1])

    def ref(self):
        return self(0)


class Operation(Computation):
    """A computation that returns no value: allocation, copy, send,
    receive, barrier (paper Section III-C).  Operations are scheduled
    like any other computation."""

    def __init__(self, name: str, variables: Sequence[Var], kind: str,
                 payload: dict, fn=None):
        super().__init__(name, variables, expr=None, fn=fn)
        self.op_kind = kind
        self.payload = payload

    def __repr__(self):
        return f"<Operation {self.op_kind} {self.name}>"
