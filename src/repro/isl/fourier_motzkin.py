"""Fourier-Motzkin elimination over constraint rows.

FM is exact for *rational* feasibility and yields the rational shadow of a
projection.  The integer-exact counterpart (dark shadows and splinters)
lives in :mod:`repro.isl.omega`; codegen uses the rational shadow because
loop bounds are emitted with explicit ceil/floor divisions, which restores
integer exactness at execution time.

The work is done on rows of one layout (:mod:`repro.isl.constraint`):
``prune``, ``eliminate``, ``next_col``, ``feasible`` and ``bounds``.
``eliminate_dim(s)``, ``rational_feasible`` and ``bounds_on_dim`` are
the same over a list of :class:`Constraint`, naming dims by
``(kind, index)``, for the layers above.
"""

from __future__ import annotations

from math import gcd
from operator import add, neg, sub
from typing import Iterable, List, Optional, Sequence, Tuple

from .constraint import (Constraint, Row, Rows, constraints_of, normal,
                         system, to_expr)
from .linexpr import Dim, LinExpr


def combine(p: int, r: Row, q: int, s: Row) -> Row:
    """``p*r + q*s``."""
    if p == 1 and q in (1, -1):
        return tuple(map(add if q == 1 else sub, r, s))
    return tuple([p * x + q * y for x, y in zip(r, s)])


def prune(rows: Rows) -> Rows:
    """Drop tautologies and duplicates; keep the tightest of parallel
    inequalities (same coefficients, different constants).

    Rows are in normal form (gcd reduction with integer tightening), so
    scaled duplicates like ``2i >= 2`` vs ``i >= 1`` arrive already
    keyed identically.  Two *contradictory* parallel equalities (``i =
    1`` and ``i = 2``), or opposed parallel inequalities with a negative
    gap (``i >= 4`` and ``-i + 2 >= 0``), short-circuit to the
    trivially-false system ``-1 >= 0`` immediately instead of surviving
    into the elimination loop.
    """
    out: Rows = []
    eq: dict = {}   # coefficients -> place in out
    ge: dict = {}   # direction -> places of its two sides in out
    for con in rows:
        is_eq, row = con
        coeffs = row[:-1]
        if is_eq:
            if not any(coeffs) and row[-1] == 0:
                continue
            j = eq.get(coeffs)
            if j is None:
                eq[coeffs] = len(out)
                out.append(con)
            elif out[j][1][-1] != row[-1]:
                return false_rows(len(coeffs))
            continue
        # e + a >= 0 and -e + b >= 0 share the direction of e: they bound
        # -a <= e <= b, which is empty exactly when a + b < 0 (a
        # constant row is its own opposite).
        up = next(filter(None, coeffs), 0) > 0
        if not up and not any(coeffs):
            if row[-1] >= 0:
                continue
            return false_rows(len(coeffs))
        sides = ge.setdefault(coeffs if up else tuple(map(neg, coeffs)),
                              [None, None])
        j = sides[up]
        if j is None:
            sides[up] = len(out)
            out.append(con)
        # sum c_i x_i + k >= 0: smaller k is the tighter constraint.
        elif row[-1] < out[j][1][-1]:
            out[j] = con
        else:
            continue
        k = sides[not up]
        if k is not None and row[-1] + out[k][1][-1] < 0:
            return false_rows(len(coeffs))
    return out


def false_rows(width: int) -> Rows:
    return [(False, (0,) * width + (-1,))]


def eliminate(rows: Rows, col: int) -> Rows:
    """Eliminate one column, returning the rational shadow.  An
    equality involving it is substituted into the others, keeping
    rational exactness by cross-multiplying: ``c*x + f (op) 0`` with
    ``a*x + e = 0`` becomes ``|a|*f - sign(a)*c*e (op) 0``."""
    for i, (is_eq, eq) in enumerate(rows):
        if is_eq and eq[col]:
            a = eq[col]
            out = []
            for j, (e, r) in enumerate(rows):
                c = r[col]
                if j != i:
                    out.append((e, normal(e, combine(abs(a), r,
                                                     -c if a > 0 else c, eq))
                                if c else r))
            return out
    lowers: List[Row] = []
    uppers: List[Row] = []
    out = []
    for e, r in rows:
        c = r[col]
        if not c:
            out.append((e, r))
        elif c > 0:
            lowers.append(r)
        else:
            uppers.append(r)
    for lo in lowers:
        for up in uppers:
            # a*x + l >= 0 and -b*x + u >= 0  =>  b*l + a*u >= 0
            out.append((False, normal(False, combine(-up[col], lo,
                                                     lo[col], up))))
    return prune(out)


def next_col(rows: Rows, keep: int = -1) -> Optional[int]:
    """The column full elimination removes next, other than ``keep``:
    one an equality substitutes away if any, else any, and of those the
    one in fewest rows (min-degree); None when only ``keep`` is left."""
    if not rows:
        return None
    cols = list(zip(*[r for _, r in rows]))
    cols.pop()
    eqs = [r for e, r in rows if e]
    live = [j for j, c in zip(range(len(cols)), zip(*eqs))
            if j != keep and any(c)] if eqs else []
    live = live or [j for j, c in enumerate(cols) if j != keep and any(c)]
    return min(live, key=lambda j: len(cols[j]) - cols[j].count(0),
               default=None)


def feasible(rows: Rows) -> bool:
    """Exact rational (LP) feasibility via full FM elimination.  Columns
    of inequalities bounded on one side only take their rows along at
    once: whatever the other columns are, they can be chosen far enough
    out to meet them all."""
    rows = prune(rows)
    while rows:
        for is_eq, row in rows:
            if is_eq:
                g = gcd(*row[:-1])
                if (row[-1] % g) if g else row[-1]:
                    return False
            elif row[-1] < 0 and not any(row[:-1]):
                return False
        if not any(e for e, _ in rows):
            cols = list(zip(*[r for _, r in rows]))[:-1]
            one_sided = [j for j, c in enumerate(cols)
                         if any(c) and (min(c) >= 0 or max(c) <= 0)]
            if one_sided:
                rows = [(e, r) for e, r in rows
                        if not any([r[j] for j in one_sided])]
                continue
        col = next_col(rows)
        if col is None:
            return True
        rows = eliminate(rows, col)
    return True


def bounds(rows: Rows, col: int) -> Tuple[List[Tuple[int, Row]],
                                          List[Tuple[int, Row]]]:
    """Lower and upper bounds on one column: ``(a, e)`` with ``a > 0``
    means ``a*x >= e`` for a lower bound, ``a*x <= e`` for an upper;
    ``e`` is a row whose ``col`` entry is 0.  Equalities bound both
    sides."""
    lowers: List[Tuple[int, Row]] = []
    uppers: List[Tuple[int, Row]] = []
    for is_eq, row in rows:
        c = row[col]
        if not c:
            continue
        rest = list(row)
        rest[col] = 0
        if c > 0:
            rest = tuple([-v for v in rest])
            lowers.append((c, rest))
            if is_eq:
                uppers.append((c, rest))
        else:
            rest = tuple(rest)
            uppers.append((-c, rest))
            if is_eq:
                lowers.append((-c, rest))
    return lowers, uppers


# -- the same over constraint lists -----------------------------------------


def eliminate_dim(constraints: Sequence[Constraint],
                  dim: Dim) -> List[Constraint]:
    """Eliminate one dimension, returning the rational shadow."""
    return eliminate_dims(constraints, (dim,))


def eliminate_dims(constraints: Sequence[Constraint],
                   dims: Iterable[Dim]) -> List[Constraint]:
    cols, rows = system(constraints)
    for dim in dims:
        rows = eliminate(rows, cols.index(dim)) if dim in cols \
            else prune(rows)
    return constraints_of(cols, rows)


def rational_feasible(constraints: Sequence[Constraint]) -> bool:
    """Exact rational (LP) feasibility via full FM elimination."""
    return feasible(system(constraints)[1])


def bounds_on_dim(constraints: Sequence[Constraint], dim: Dim
                  ) -> Tuple[List[Tuple[int, LinExpr]],
                             List[Tuple[int, LinExpr]]]:
    """Extract lower/upper bounds on ``dim``.

    Returns ``(lowers, uppers)`` where each lower is ``(a, e)`` meaning
    ``a*dim >= e`` (``a > 0``) and each upper is ``(b, f)`` meaning
    ``b*dim <= f``.  Equalities contribute to both sides.
    """
    cols, rows = system(constraints)
    if dim not in cols:
        return [], []
    lowers, uppers = bounds(rows, cols.index(dim))
    return ([(a, to_expr(cols, e)) for a, e in lowers],
            [(b, to_expr(cols, f)) for b, f in uppers])
