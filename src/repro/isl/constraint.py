"""Affine constraints as integer rows over a column layout.

A constraint is ``(is_eq, row)``: ``row`` is a tuple of Python ints, one
coefficient per column of a *layout* followed by the constant, meaning
``row . (x, 1) = 0`` for an equality and ``>= 0`` for an inequality.  A
basic map's layout is its divs, inputs, outputs and parameters in that
order (:func:`columns`), which is the sort order of the ``(kind, index)``
dim references, so the first nonzero coefficient of a row is the first
dim of the constraint in that order too.

:class:`Constraint` is how one row is written and read back:
``Constraint.eq/ge/le`` take a :class:`~repro.isl.linexpr.LinExpr`,
and ``expr`` gives one back.  Inside :mod:`repro.isl` the operations
work on the rows of a :class:`~repro.isl.basic.BasicMap` directly.
"""

from __future__ import annotations

from itertools import compress
from math import gcd
from typing import Dict, List, Mapping, Sequence, Tuple

from .linexpr import DIV, IN, OUT, PARAM, Dim, LinExpr

EQ = "eq"
GE = "ge"

Row = Tuple[int, ...]
Rows = List[Tuple[bool, Row]]


def normal(is_eq: bool, row: Row) -> Row:
    """The normal form of a row.  The coefficient gcd ``g`` is divided
    out: an inequality ``sum c_i x_i + k >= 0`` is *tightened* to
    ``sum (c_i/g) x_i + floor(k/g) >= 0`` (the same integer points), an
    equality is divided through, or, when ``g`` does not divide ``k``
    (no integer solution), by the gcd of everything, which keeps it
    detectably infeasible while scaled copies (``4i = 6`` and ``2i =
    3``) share one form.  An equality's first nonzero coefficient is
    positive."""
    coeffs = row[:-1]
    g = gcd(*coeffs)
    if g > 1:
        if is_eq and row[-1] % g:
            g = gcd(g, row[-1])
        if g > 1:
            row = tuple([v // g for v in row])
    if is_eq and next(filter(None, coeffs), 0) < 0:
        row = tuple([-v for v in row])
    return row


def trivially_true(is_eq: bool, row: Row) -> bool:
    return not any(row[:-1]) and (row[-1] == 0 if is_eq else row[-1] >= 0)


def trivially_false(is_eq: bool, row: Row) -> bool:
    g = gcd(*row[:-1])
    if not g:
        return row[-1] != 0 if is_eq else row[-1] < 0
    return is_eq and g > 1 and row[-1] % g != 0


_LAYOUTS: Dict[Tuple[int, int, int, int],
               Tuple[Tuple[Dim, ...], Dict[Dim, int]]] = {}


def columns(n_div: int, n_in: int, n_out: int, n_param: int
            ) -> Tuple[Tuple[Dim, ...], Dict[Dim, int]]:
    """The column layout of a basic map of this shape, and the column
    of each dim."""
    key = (n_div, n_in, n_out, n_param)
    layout = _LAYOUTS.get(key)
    if layout is None:
        cols = tuple((kind, k) for kind, n in zip((DIV, IN, OUT, PARAM), key)
                     for k in range(n))
        layout = _LAYOUTS.setdefault(
            key, (cols, {d: j for j, d in enumerate(cols)}))
    return layout


def to_expr(cols: Sequence[Dim], row: Row) -> LinExpr:
    return LinExpr._of(dict(compress(zip(cols, row), row)), row[-1], True)


class Constraint:
    """One row with the dims its columns stand for (``cols``).  A
    constraint built from an expression has the expression's own dims
    as columns; one read off a basic map (``BasicMap.constraints``)
    shares the map's layout, so the functions that take a list of them
    (:mod:`repro.isl.fourier_motzkin`) use their rows as they are.

    ``kind == EQ`` means ``expr == 0``; ``kind == GE`` means ``expr >=
    0``; the row is in :func:`normal` form."""

    __slots__ = ("kind", "row", "cols", "_expr")

    def __init__(self, kind: str, expr: LinExpr):
        if kind not in (EQ, GE):
            raise ValueError(f"bad constraint kind {kind!r}")
        expr = expr.scaled_to_int()
        self.kind = kind
        self.cols: Tuple[Dim, ...] = tuple(expr.coeffs)
        self.row: Row = normal(kind == EQ, (*expr.coeffs.values(),
                                            int(expr.const)))
        self._expr = None

    @classmethod
    def _of(cls, kind: str, row: Row, cols: Tuple[Dim, ...]
            ) -> "Constraint":
        c = cls.__new__(cls)
        c.kind, c.row, c.cols = kind, row, cols
        c._expr = None
        return c

    # -- constructors ------------------------------------------------------

    @classmethod
    def eq(cls, expr: LinExpr) -> "Constraint":
        return cls(EQ, expr)

    @classmethod
    def ge(cls, expr: LinExpr) -> "Constraint":
        return cls(GE, expr)

    @classmethod
    def le(cls, expr: LinExpr) -> "Constraint":
        """expr <= 0, stored as -expr >= 0."""
        return cls(GE, -expr)

    # -- queries -----------------------------------------------------------

    @property
    def expr(self) -> LinExpr:
        if self._expr is None:
            self._expr = to_expr(self.cols, self.row)
        return self._expr

    def coeff(self, dim: Dim):
        return self.expr.coeff(dim)

    def involves(self, dim: Dim) -> bool:
        return self.expr.involves(dim)

    def is_trivially_true(self) -> bool:
        return trivially_true(self.kind == EQ, self.row)

    def is_trivially_false(self) -> bool:
        return trivially_false(self.kind == EQ, self.row)

    def satisfied_by(self, values: Mapping[Dim, int]) -> bool:
        v = self.expr.evaluate(values)
        return v == 0 if self.kind == EQ else v >= 0

    def substitute(self, dim: Dim, repl: LinExpr) -> "Constraint":
        return Constraint(self.kind, self.expr.substitute(dim, repl))

    def remap(self, mapping: Mapping[Dim, Dim]) -> "Constraint":
        return Constraint(self.kind, self.expr.remap(mapping))

    def __getstate__(self):
        return self.kind, self.row, self.cols

    def __setstate__(self, state) -> None:
        self.kind, self.row, self.cols = state
        self._expr = None

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Constraint) and self.kind == other.kind
                and self.expr == other.expr)

    def __hash__(self) -> int:
        return hash((self.kind, self.expr))

    def __repr__(self) -> str:
        op = "=" if self.kind == EQ else ">="
        return f"{self.expr!r} {op} 0"


def rows_over(cols: Tuple[Dim, ...], index: Mapping[Dim, int],
              constraints: Sequence[Constraint]) -> Rows:
    """The rows of ``constraints`` over the layout ``cols``: taken as
    they are when they share it, else spread out by dim.  A nonzero
    coefficient on a dim the layout lacks is a ValueError."""
    width = len(cols)
    out: Rows = []
    for c in constraints:
        row = c.row
        if c.cols is not cols:
            spread = [0] * width + [row[-1]]
            for d, v in zip(c.cols, row):
                if v:
                    j = index.get(d)
                    if j is None:
                        raise ValueError(
                            f"constraint {c!r} references {d} outside "
                            f"the columns {cols}")
                    spread[j] = v
            row = tuple(spread)
        out.append((c.kind == EQ, row))
    return out


def system(constraints: Sequence[Constraint]
           ) -> Tuple[Tuple[Dim, ...], Rows]:
    """One layout for a list of constraints and their rows over it: the
    widest of their layouts when it holds every dim they name (a basic
    map's, next to constraints built over its dims), else the sorted
    union of their dims."""
    constraints = list(constraints)
    cols = max((c.cols for c in constraints), key=len, default=())
    others = {id(c.cols): c.cols for c in constraints if c.cols is not cols}
    if others:
        have = set(cols)
        if not all(have.issuperset(o) for o in others.values()):
            cols = tuple(sorted(have.union(*others.values())))
    return cols, rows_over(cols, {d: j for j, d in enumerate(cols)},
                           constraints)


def constraints_of(cols: Tuple[Dim, ...], rows: Rows) -> List[Constraint]:
    return [Constraint._of(EQ if e else GE, r, cols) for e, r in rows]
