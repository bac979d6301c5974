"""Basic sets and basic maps: conjunctions of affine constraints.

A :class:`BasicMap` is the set of pairs of integer tuples satisfying a
conjunction of affine constraints, possibly involving existentially
quantified *division* dimensions.  A :class:`BasicSet` is a basic map with
no input tuple.  Unions of basic sets/maps live in :mod:`repro.isl.union`.

The constraints are rows of integers over the map's columns: its divs,
inputs, outputs and parameters, then the constant
(:mod:`repro.isl.constraint`).  An operation that moves dims between
tuples moves columns (:meth:`BasicMap._relayout`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from operator import itemgetter
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from .constraint import (EQ, GE, Constraint, Rows, columns, normal,
                         rows_over)
from .fourier_motzkin import combine, prune
from .linexpr import DIV, IN, OUT, PARAM, Dim, LinExpr
from .space import Space


_row = itemgetter(1)

#: A move of dims between layouts: ``(kind, first, count, to_kind,
#: to_first)`` sends ``count`` dims from ``(kind, first)`` on to
#: ``(to_kind, to_first)`` on; a dim no move names keeps its reference.
Move = Tuple[str, int, int, str, int]


@lru_cache(maxsize=4096)
def _gather(src: Tuple[Optional[int], ...], width: int):
    """How to take a row of ``width`` columns (the constant last) to
    another layout whose column ``t`` is old column ``src[t]``, or 0
    where that is None: ``(get, pad, in_order)``, or None when that
    leaves every row as it is."""
    if src == tuple(range(width - 1)):
        return None
    pad = None in src
    idx = [width if s is None else s for s in src] + [width - 1]
    get = itemgetter(*idx) if len(idx) > 1 else (lambda r: (r[-1],))
    kept = [s for s in src if s is not None]
    return get, pad, kept == sorted(kept)


@lru_cache(maxsize=4096)
def _plan(old_shape: Tuple[int, int, int, int],
          shape: Tuple[int, int, int, int], moves: Tuple[Move, ...]):
    old, _ = columns(*old_shape)
    new, index = columns(*shape)
    mapping = {(kind, first + k): (to_kind, to_first + k)
               for kind, first, count, to_kind, to_first in moves
               for k in range(count)}
    src: List[Optional[int]] = [None] * len(new)
    for j, d in enumerate(old):
        src[index[mapping.get(d, d)]] = j
    return _gather(tuple(src), len(old) + 1)


def _moved(rows: Rows, plan) -> Rows:
    """The rows taken to another layout by a :func:`_gather` plan.  An
    equality whose first nonzero coefficient moved behind a negative
    one changes sign (its normal form)."""
    if plan is None:
        return list(rows)
    get, pad, in_order = plan
    out = []
    for is_eq, row in rows:
        row = get(row + (0,) if pad else row)
        if is_eq and not in_order and next(filter(None, row[:-1]), 0) < 0:
            row = tuple([-v for v in row])
        out.append((is_eq, row))
    return out


class BasicMap:
    """A conjunction of affine constraints relating an input tuple to an
    output tuple, over shared symbolic parameters, with ``n_div``
    existentially quantified dimensions."""

    __slots__ = ("space", "n_div", "rows", "_hash", "_constraints")

    def __init__(self, space: Space, constraints: Iterable[Constraint] = (),
                 n_div: int = 0):
        self.space = space
        self.n_div = n_div
        self.rows: Tuple = tuple(self._rows_of(constraints))
        self._hash = self._constraints = None

    def _shape(self) -> Tuple[int, int, int, int]:
        sp = self.space
        return (self.n_div, len(sp.in_dims or ()), len(sp.out_dims),
                len(sp.params))

    def _rows_of(self, constraints: Iterable[Constraint]) -> Rows:
        cols, index = columns(*self._shape())
        return rows_over(cols, index, list(constraints))

    @classmethod
    def _of(cls, space: Space, rows: Rows, n_div: int) -> "BasicMap":
        """A basic map of these rows, as they are but for a width check."""
        obj = cls.__new__(cls)
        obj.space, obj.n_div, obj.rows = space, n_div, tuple(rows)
        obj._hash = obj._constraints = None
        obj._validate()
        return obj

    def _with(self, rows: Rows, space: Optional[Space] = None,
              n_div: Optional[int] = None) -> "BasicMap":
        return self._of(self.space if space is None else space, rows,
                        self.n_div if n_div is None else n_div)

    def _validate(self) -> None:
        width = sum(self._shape()) + 1
        if self.rows and set(map(len, map(_row, self.rows))) != {width}:
            raise ValueError(f"rows of {self.rows} are not all {width} "
                             f"wide over {self.space!r} with "
                             f"{self.n_div} divs")

    def _relayout(self, shape: Tuple[int, int, int, int],
                  moves: Tuple[Move, ...] = ()) -> Rows:
        """The rows over the layout of a basic map of ``shape`` (divs,
        inputs, outputs, parameters), dims moved by ``moves``."""
        return _moved(self.rows, _plan(self._shape(), shape, moves))

    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        """The rows as :class:`Constraint` objects (made on first read)."""
        if self._constraints is None:
            cols, _ = columns(*self._shape())
            self._constraints = tuple(Constraint._of(EQ if e else GE, r, cols)
                                      for e, r in self.rows)
        return self._constraints

    def __getstate__(self):
        return self.space, self.n_div, self.rows

    def __setstate__(self, state) -> None:
        self.space, self.n_div, self.rows = state
        self._hash = self._constraints = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def universe(cls, space: Space) -> "BasicMap":
        return cls(space, ())

    @classmethod
    def empty(cls, space: Space) -> "BasicMap":
        return cls(space, (Constraint.ge(LinExpr.constant(-1)),))

    @classmethod
    def identity(cls, space: Space) -> "BasicMap":
        if not space.is_map or len(space.in_dims) != len(space.out_dims):
            raise ValueError("identity requires a square map space")
        cons = [Constraint.eq(LinExpr.dim(OUT, k) - LinExpr.dim(IN, k))
                for k in range(len(space.out_dims))]
        return cls(space, cons)

    @classmethod
    def from_affine_exprs(cls, space: Space,
                          exprs: Sequence[LinExpr]) -> "BasicMap":
        """The map whose k-th output equals ``exprs[k]`` (an affine
        expression over the input dims and params)."""
        if len(exprs) != len(space.out_dims):
            raise ValueError("one expression per output dim required")
        cons = [Constraint.eq(LinExpr.dim(OUT, k) - e)
                for k, e in enumerate(exprs)]
        return cls(space, cons)

    # -- basic structure ---------------------------------------------------

    def copy_with(self, space: Optional[Space] = None,
                  constraints: Optional[Iterable[Constraint]] = None,
                  n_div: Optional[int] = None) -> "BasicMap":
        if constraints is None:
            return self._with(self.rows, space, n_div)
        obj = self._with((), space, n_div)
        obj.rows = tuple(obj._rows_of(constraints))
        return obj

    def add_constraint(self, c: Constraint) -> "BasicMap":
        return self.add_constraints((c,))

    def add_constraints(self, cs: Iterable[Constraint]) -> "BasicMap":
        return self._with(self.rows + tuple(self._rows_of(cs)))

    def involves(self, kind: str, idx: int) -> bool:
        j = columns(*self._shape())[1].get((kind, idx))
        return j is not None and any(r[j] for _, r in self.rows)

    def drop_defined_divs(self) -> "BasicMap":
        """The same integer set without the divs that equalities define.

        A div ``d`` with a ±1 coefficient in an equality ``±d + e = 0``
        equals the integer expression ``∓e``, so substituting it into
        the other constraints is exact.  Duplicate and looser parallel
        constraints are then dropped and the surviving divs renumbered
        in order.  Deterministic: equal inputs give equal outputs, which
        the composition memo relies on."""
        n = self.n_div
        if not n:
            return self
        rows: List = list(self.rows)
        progress = True
        while progress:
            progress = False
            for k in range(n):
                # the first equality left that defines div k
                for t, con in enumerate(rows):
                    if con is not None and con[0] and con[1][k] in (1, -1):
                        break
                else:
                    continue
                defining = rows[t][1]
                rows[t] = None
                sign = defining[k]
                for i, con in enumerate(rows):
                    if con is not None and con[1][k]:
                        is_eq, old = con
                        rows[i] = is_eq, normal(is_eq, combine(
                            1, old, -old[k] * sign, defining))
                progress = True
        kept = prune([con for con in rows if con is not None])
        alive = [k for k, col in zip(range(n), zip(*[r for _, r in kept]))
                 if any(col)]
        if len(alive) < n:
            width = sum(self._shape())
            kept = _moved(kept, _gather(tuple(alive) + tuple(range(n, width)),
                                        width + 1))
        return self._with(kept, n_div=len(alive))

    # -- parameter alignment ----------------------------------------------

    def align_params(self, params: Tuple[str, ...]) -> "BasicMap":
        """Reindex parameter dims to match the given parameter list (which
        must contain all of this map's parameters)."""
        params = tuple(params)
        if self.space.params == params:
            return self
        moves = tuple((PARAM, i, 1, PARAM, params.index(p))
                      for i, p in enumerate(self.space.params))
        shape = self._shape()[:3] + (len(params),)
        return self._with(self._relayout(shape, moves),
                          space=self.space.with_params(params))

    def _aligned_pair(self, other: "BasicMap"):
        params = self.space.aligned_params(other.space)
        return self.align_params(params), other.align_params(params)

    # -- set operations ------------------------------------------------

    def intersect(self, other: "BasicMap") -> "BasicMap":
        from .cache import composed
        return composed("intersect", self, other,
                        lambda: self._intersect_uncached(other))

    def _intersect_uncached(self, other: "BasicMap") -> "BasicMap":
        a, b = self._aligned_pair(other)
        if not a.space.compatible_with(b.space):
            raise ValueError(f"incompatible spaces: {a.space!r} vs {b.space!r}")
        return a._conjoin(b)

    def _conjoin(self, b: "BasicMap", moves: Tuple[Move, ...] = ()
                 ) -> "BasicMap":
        """This map and ``b``'s constraints, its dims moved by
        ``moves`` and its divs placed after ours."""
        shape = (self.n_div + b.n_div,) + self._shape()[1:]
        moves += ((DIV, 0, b.n_div, DIV, self.n_div),)
        return self._with(self._relayout(shape) + b._relayout(shape, moves),
                          n_div=shape[0])

    def fix(self, kind: str, idx: int, value: int) -> "BasicMap":
        c = Constraint.eq(LinExpr.dim(kind, idx) - LinExpr.constant(value))
        return self.add_constraint(c)

    def lower_bound(self, kind: str, idx: int, value: int) -> "BasicMap":
        return self.add_constraint(
            Constraint.ge(LinExpr.dim(kind, idx) - LinExpr.constant(value)))

    def upper_bound(self, kind: str, idx: int, value: int) -> "BasicMap":
        return self.add_constraint(
            Constraint.ge(LinExpr.constant(value) - LinExpr.dim(kind, idx)))

    def equate(self, kind1: str, idx1: int, kind2: str, idx2: int) -> "BasicMap":
        c = Constraint.eq(LinExpr.dim(kind1, idx1) - LinExpr.dim(kind2, idx2))
        return self.add_constraint(c)

    # -- dimension manipulation ------------------------------------------

    def project_onto_divs(self, kind: str,
                          indices: Sequence[int]) -> "BasicMap":
        """Existentially quantify the given dims (exact projection).

        The dims are removed from the space; remaining dims of the same
        kind shift down.
        """
        indices = sorted(set(indices))
        keep = [i for i in range(self.space.n(kind)) if i not in indices]
        moves = tuple((kind, old_i, 1, kind, new_i)
                      for new_i, old_i in enumerate(keep))
        moves += tuple((kind, old_i, 1, DIV, self.n_div + off)
                       for off, old_i in enumerate(indices))
        space = self._space_without(kind, indices)
        shape = (self.n_div + len(indices), len(space.in_dims or ()),
                 len(space.out_dims), len(space.params))
        return self._with(self._relayout(shape, moves), space=space,
                          n_div=shape[0]).drop_defined_divs()

    def _space_without(self, kind: str, indices: Sequence[int]) -> Space:
        sp = self.space
        if kind == OUT:
            dims = tuple(d for i, d in enumerate(sp.out_dims)
                         if i not in indices)
            return Space(sp.params, sp.in_dims, dims, sp.in_name, sp.out_name)
        if kind == IN:
            dims = tuple(d for i, d in enumerate(sp.in_dims)
                         if i not in indices)
            return Space(sp.params, dims, sp.out_dims, sp.in_name, sp.out_name)
        if kind == PARAM:
            dims = tuple(d for i, d in enumerate(sp.params)
                         if i not in indices)
            return Space(dims, sp.in_dims, sp.out_dims, sp.in_name,
                         sp.out_name)
        raise ValueError(kind)

    def insert_dims(self, kind: str, pos: int, names: Sequence[str]) -> "BasicMap":
        """Insert new unconstrained dims of ``kind`` at position ``pos``."""
        moves = ((kind, pos, self.space.n(kind) - pos, kind,
                  pos + len(names)),)
        sp = self.space
        if kind == OUT:
            dims = sp.out_dims[:pos] + tuple(names) + sp.out_dims[pos:]
            space = Space(sp.params, sp.in_dims, dims, sp.in_name, sp.out_name)
        elif kind == IN:
            dims = sp.in_dims[:pos] + tuple(names) + sp.in_dims[pos:]
            space = Space(sp.params, dims, sp.out_dims, sp.in_name, sp.out_name)
        elif kind == PARAM:
            dims = sp.params[:pos] + tuple(names) + sp.params[pos:]
            space = Space(dims, sp.in_dims, sp.out_dims, sp.in_name,
                          sp.out_name)
        else:
            raise ValueError(kind)
        shape = (self.n_div, len(space.in_dims or ()), len(space.out_dims),
                 len(space.params))
        return self._with(self._relayout(shape, moves), space=space)

    def rename_tuple(self, in_name=None, out_name=None,
                     keep_in=True, keep_out=True) -> "BasicMap":
        sp = self.space
        space = Space(sp.params, sp.in_dims, sp.out_dims,
                      in_name if not keep_in else sp.in_name,
                      out_name if not keep_out else sp.out_name)
        return self._with(self.rows, space=space)

    # -- map structure -----------------------------------------------------

    def reverse(self) -> "BasicMap":
        if not self.space.is_map:
            raise ValueError("reverse() requires a map")
        nd, n_in, n_out, n_par = self._shape()
        moves = ((IN, 0, n_in, OUT, 0), (OUT, 0, n_out, IN, 0))
        return self._with(self._relayout((nd, n_out, n_in, n_par), moves),
                          space=self.space.reverse())

    def domain(self) -> "BasicSet":
        """Project onto the input tuple (outputs become divs)."""
        if not self.space.is_map:
            raise ValueError("domain() requires a map")
        nd, n_in, n_out, n_par = self._shape()
        moves = ((OUT, 0, n_out, DIV, nd), (IN, 0, n_in, OUT, 0))
        rows = self._relayout((nd + n_out, 0, n_in, n_par), moves)
        return BasicSet._of(self.space.domain(), rows,
                            nd + n_out).drop_defined_divs()

    def range(self) -> "BasicSet":
        if not self.space.is_map:
            raise ValueError("range() requires a map")
        nd, n_in, n_out, n_par = self._shape()
        rows = self._relayout((nd + n_in, 0, n_out, n_par),
                              ((IN, 0, n_in, DIV, nd),))
        return BasicSet._of(self.space.range(), rows,
                            nd + n_in).drop_defined_divs()

    def wrap_domain(self, bset: "BasicSet") -> "BasicMap":
        """Constrain the input tuple to lie in ``bset``."""
        a, b = self._aligned_pair(bset)
        return a._conjoin(b, ((OUT, 0, len(b.space.out_dims), IN, 0),))

    intersect_domain = wrap_domain

    def intersect_range(self, bset: "BasicSet") -> "BasicMap":
        a, b = self._aligned_pair(bset)
        return a._conjoin(b)

    def apply(self, bset: "BasicSet") -> "BasicSet":
        """The image of ``bset`` under this map (exact)."""
        return self.wrap_domain(bset).range()

    def apply_range(self, other: "BasicMap") -> "BasicMap":
        """Composition: ``other`` applied after ``self`` (A->B, B->C: A->C)."""
        from .cache import composed
        return composed("apply_range", self, other,
                        lambda: self._apply_range_uncached(other))

    def _apply_range_uncached(self, other: "BasicMap") -> "BasicMap":
        a, b = self._aligned_pair(other)
        if len(a.space.out_dims) != len(b.space.in_dims):
            raise ValueError("composition arity mismatch")
        n_mid = len(a.space.out_dims)
        base = a.n_div + b.n_div
        # a's OUT and b's IN both become the shared mid dims (new divs).
        shape = (base + n_mid, len(a.space.in_dims), len(b.space.out_dims),
                 len(a.space.params))
        space = Space(a.space.params, a.space.in_dims, b.space.out_dims,
                      a.space.in_name, b.space.out_name)
        rows = (a._relayout(shape, ((OUT, 0, n_mid, DIV, base),))
                + b._relayout(shape, ((IN, 0, n_mid, DIV, base),
                                      (DIV, 0, b.n_div, DIV, a.n_div))))
        return BasicMap._of(space, rows, shape[0]).drop_defined_divs()

    def to_set(self) -> "BasicSet":
        """Flatten a map into a set over (in_dims ++ out_dims)."""
        if not self.space.is_map:
            raise ValueError("to_set() requires a map")
        nd, n_in, n_out, n_par = self._shape()
        rows = self._relayout((nd, 0, n_in + n_out, n_par),
                              ((IN, 0, n_in, OUT, 0), (OUT, 0, n_out, OUT, n_in)))
        names = tuple(self.space.in_dims) + tuple(self.space.out_dims)
        # Disambiguate duplicated names across the two tuples.
        seen: Dict[str, int] = {}
        uniq = []
        for nm in names:
            if nm in seen:
                seen[nm] += 1
                uniq.append(f"{nm}_{seen[nm]}")
            else:
                seen[nm] = 0
                uniq.append(nm)
        space = Space.set_space(tuple(uniq), None, self.space.params)
        return BasicSet._of(space, rows, nd)

    # -- feasibility -------------------------------------------------------

    def canonical_fingerprint(self) -> Tuple:
        """Order- and duplicate-insensitive normal form of the constraint
        system: the dims it involves and the set of its rows over those
        dims.  Two basic maps with equal fingerprints describe the
        same solution set over their free variables (rows are in normal
        form), which is exactly the invariant the process-wide emptiness
        memo (:mod:`repro.isl.cache`) keys on; an unused dim or a
        different space does not change it."""
        rows = self.rows
        if not rows:
            return ()
        cols, _ = columns(*self._shape())
        used = list(compress(range(len(cols)),
                             map(any, zip(*map(_row, rows)))))
        if len(used) < len(cols):
            get = itemgetter(*used, len(cols)) if used \
                else (lambda r: (r[-1],))
            rows = [(e, get(r)) for e, r in rows]
        return tuple(map(cols.__getitem__, used)), frozenset(rows)

    def is_empty(self) -> bool:
        from .cache import is_empty_cached
        return is_empty_cached(self)

    def is_rational_empty(self) -> bool:
        from .fourier_motzkin import feasible
        return not feasible(list(self.rows))

    def contains_point(self, in_vals: Sequence[int],
                       out_vals: Sequence[int] = (),
                       param_vals: Mapping[str, int] = ()) -> bool:
        """Membership test; existential divs are searched exactly."""
        values: Dict[Dim, int] = {}
        pv = dict(param_vals)
        for i, p in enumerate(self.space.params):
            if p in pv:
                values[(PARAM, i)] = pv[p]
        if self.space.is_map:
            for i, v in enumerate(in_vals):
                values[(IN, i)] = v
            for i, v in enumerate(out_vals):
                values[(OUT, i)] = v
        else:
            for i, v in enumerate(in_vals):
                values[(OUT, i)] = v
        fixed = self
        for dim, v in values.items():
            fixed = fixed.fix(dim[0], dim[1], v)
        return not fixed.is_empty()

    def __repr__(self) -> str:
        from .printer import to_str
        return to_str(self)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BasicMap)
                and self.space == other.space
                and self.n_div == other.n_div
                and set(self.rows) == set(other.rows))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.space, self.n_div, frozenset(self.rows)))
        return self._hash


class BasicSet(BasicMap):
    """A basic map with no input tuple: a plain integer set."""

    def __init__(self, space: Space, constraints: Iterable[Constraint] = (),
                 n_div: int = 0):
        if space.is_map:
            raise ValueError("BasicSet requires a set space")
        super().__init__(space, constraints, n_div)

    @classmethod
    def from_box(cls, names: Sequence[str],
                 bounds: Sequence[Tuple[int, int]],
                 name: Optional[str] = None) -> "BasicSet":
        """A rectangular set: ``bounds[k] = (lo, hi)`` inclusive."""
        space = Space.set_space(tuple(names), name)
        cons: List[Constraint] = []
        for k, (lo, hi) in enumerate(bounds):
            cons.append(Constraint.ge(LinExpr.dim(OUT, k) - lo))
            cons.append(Constraint.ge(LinExpr.constant(hi) - LinExpr.dim(OUT, k)))
        return cls(space, cons)

    def identity_map(self) -> BasicMap:
        """The identity map on this set's space, restricted to this set."""
        sp = self.space
        mspace = Space.map_space(sp.out_dims, sp.out_dims, sp.out_name,
                                 sp.out_name, sp.params)
        ident = BasicMap.identity(mspace)
        return ident.wrap_domain(self)
