"""Constraint-system simplification: redundancy removal, gist and the
simple hull of a union."""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import ceil
from typing import List, Optional, Sequence

from .basic import BasicMap, BasicSet
from .constraint import (Constraint, Row, Rows, normal, system,
                         trivially_true)
from .fourier_motzkin import bounds, eliminate, feasible, next_col
from .linexpr import DIV


def implied(rows: Rows, con) -> bool:
    """True if the row ``con`` is rationally implied by ``rows`` (safe
    direction: a rationally-implied constraint is integer-implied as
    well)."""
    is_eq, row = con
    if is_eq:
        return (implied(rows, (False, normal(False, row)))
                and implied(rows, (False, normal(False, _neg(row)))))
    # rows and not(e >= 0), i.e. rows and -e - 1 >= 0 infeasible?
    neg = _neg(row)
    return not feasible(rows + [(False, normal(False, neg[:-1]
                                               + (neg[-1] - 1,)))])


def _neg(row: Row) -> Row:
    return tuple([-v for v in row])


def _implied(system_: Sequence[Constraint], c: Constraint) -> bool:
    """:func:`implied` over constraints."""
    rows = system(list(system_) + [c])[1]
    return implied(rows[:-1], rows[-1])


def remove_redundant(bmap: BasicMap) -> BasicMap:
    """Drop constraints implied by the remaining ones.

    Deterministic on the input structure, so the result is memoized in
    the process-wide composition cache (codegen calls this on the same
    iteration domains every compile)."""
    from .cache import composed
    return composed("remove_redundant", bmap, None,
                    lambda: _remove_redundant_uncached(bmap))


def _remove_redundant_uncached(bmap: BasicMap) -> BasicMap:
    kept: Rows = []
    # De-duplicate first.
    uniq: Rows = []
    for c in bmap.rows:
        if not trivially_true(*c) and c not in uniq:
            uniq.append(c)
    # On a feasible system only the rows linked to c through shared
    # columns can imply it: the others hold whatever c's columns are.
    linked = _linked if feasible(uniq) else lambda rest, c: rest
    for i, c in enumerate(uniq):
        if not implied(linked(kept + uniq[i + 1:], c), c):
            kept.append(c)
    return bmap._with(kept)


def _mask(row: Row) -> int:
    """The columns a row involves, as bits."""
    coeffs = row[:-1]
    while len(_BITS) < len(coeffs):
        _BITS.append(1 << len(_BITS))
    return sum(compress(_BITS, coeffs))


_BITS = [1 << j for j in range(64)]


def _linked(rows: Rows, c) -> Rows:
    """The rows reached from ``c`` through shared columns."""
    reach = _mask(c[1])
    rest = [(_mask(r), (e, r)) for e, r in rows]
    out: Rows = []
    while True:
        hit = [(m, o) for m, o in rest if m & reach]
        if not hit:
            return out
        rest = [(m, o) for m, o in rest if not m & reach]
        for m, o in hit:
            reach |= m
            out.append(o)


def gist(bmap: BasicMap, context: BasicMap) -> BasicMap:
    """Simplify ``bmap`` under the assumption that ``context`` holds:
    drop constraints of ``bmap`` implied by ``context`` + the rest.
    Memoized like :func:`remove_redundant`."""
    from .cache import composed
    return composed("gist", bmap, context,
                    lambda: _gist_uncached(bmap, context))


def _gist_uncached(bmap: BasicMap, context: BasicMap) -> BasicMap:
    params = bmap.space.aligned_params(context.space)
    bmap = bmap.align_params(params)
    context = context.align_params(params)
    # Shift context divs clear of bmap's so the combined system is sound.
    shape = (bmap.n_div + context.n_div,) + bmap._shape()[1:]
    own = bmap._relayout(shape)
    ctx = context._relayout(shape, ((DIV, 0, context.n_div, DIV,
                                     bmap.n_div),))
    kept: List[int] = []
    for i, c in enumerate(own):
        if not implied([own[j] for j in kept] + own[i + 1:] + ctx, c):
            kept.append(i)
    return bmap._with([bmap.rows[i] for i in kept])


def simple_hull(pieces: Sequence[BasicSet]) -> Optional[BasicSet]:
    """One basic set holding every piece, bounded only in the constraint
    directions the pieces use (an equality is two opposed inequalities):
    per direction the loosest constant valid on every piece, i.e. the
    least rational minimum of the linear form over them.  A direction
    unbounded on some piece is dropped; so are rationally empty pieces.
    The hull may hold points no piece does: it can stand for the union
    only once ``hull <= union`` is shown.  None for no pieces or for
    pieces with divs."""
    if not pieces or any(p.n_div for p in pieces):
        return None
    params = tuple(dict.fromkeys(q for p in pieces for q in p.space.params))
    pieces = [p.align_params(params) for p in pieces]
    live = [list(p.rows) for p in pieces if feasible(list(p.rows))]
    if not live:
        return pieces[0]
    directions = {}
    for rows in live:
        for is_eq, row in rows:
            directions.setdefault(row[:-1])
            if is_eq:
                directions.setdefault(_neg(row[:-1]))
    kept: Rows = []
    for form in directions:
        least: Optional[Fraction] = None
        for rows in live:
            low = _rational_min(rows, form)
            if low is None:
                break
            least = low if least is None else min(least, low)
        else:
            kept.append((False, normal(False, form + (-ceil(least),))))
    return pieces[0]._with(kept)


def _rational_min(rows: Rows, form: Row) -> Optional[Fraction]:
    """The least value ``form`` (coefficients, no constant) takes on the
    rational points of feasible div-free ``rows``; None if it is
    unbounded below.  FM on the rows plus ``t = form`` for a fresh first
    column ``t``, eliminating every other column, leaves the bounds on
    ``t``.  Only the rows linked to ``t`` through shared columns take
    part: the system being feasible, the others leave every value of
    ``t`` open."""
    define = (True, normal(True, (-1,) + form + (0,)))
    rows = [define] + _linked([(e, (0,) + r) for e, r in rows], define)
    while (col := next_col(rows, 0)) is not None:
        rows = eliminate(rows, col)
    lowers, __ = bounds(rows, 0)
    if not lowers:
        return None
    return max(Fraction(e[-1], a) for a, e in lowers)
