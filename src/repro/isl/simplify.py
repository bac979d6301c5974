"""Constraint-system simplification: redundancy removal, gist and the
simple hull of a union."""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from typing import Dict, List, Optional, Sequence

from .basic import BasicMap, BasicSet
from .constraint import EQ, GE, Constraint
from .fourier_motzkin import (bounds_on_dim, eliminate_dim, next_dim,
                              rational_feasible)
from .linexpr import DIV, LinExpr


def _implied(system: Sequence[Constraint], c: Constraint) -> bool:
    """True if ``c`` is rationally implied by ``system`` (safe direction:
    a rationally-implied constraint is integer-implied as well)."""
    if c.kind == EQ:
        return (_implied(system, Constraint.ge(c.expr))
                and _implied(system, Constraint.ge(-c.expr)))
    # system and not(e >= 0), i.e. system and -e - 1 >= 0 infeasible?
    return not rational_feasible(list(system) + [Constraint.ge(-c.expr - 1)])


def remove_redundant(bmap: BasicMap) -> BasicMap:
    """Drop constraints implied by the remaining ones.

    Deterministic on the input structure, so the result is memoized in
    the process-wide composition cache (codegen calls this on the same
    iteration domains every compile)."""
    from .cache import composed
    return composed("remove_redundant", bmap, None,
                    lambda: _remove_redundant_uncached(bmap))


def _remove_redundant_uncached(bmap: BasicMap) -> BasicMap:
    kept: List[Constraint] = []
    cons = list(bmap.constraints)
    # De-duplicate first.
    uniq: List[Constraint] = []
    for c in cons:
        if c.is_trivially_true():
            continue
        if c not in uniq:
            uniq.append(c)
    # On a feasible system only the constraints linked to c through
    # shared dims can imply it: the others hold whatever c's dims are.
    linked = _linked if rational_feasible(uniq) else lambda rest, c: rest
    for i, c in enumerate(uniq):
        rest = kept + uniq[i + 1:]
        if not _implied(linked(rest, c), c):
            kept.append(c)
    return bmap.copy_with(constraints=kept)


def _linked(system: Sequence[Constraint], c: Constraint) -> List[Constraint]:
    """The constraints of ``system`` reached from ``c`` through shared
    dims."""
    reach, rest, out = set(c.expr.dims()), list(system), []
    while True:
        hit = [o for o in rest if not reach.isdisjoint(o.expr.dims())]
        if not hit:
            return out
        rest = [o for o in rest if reach.isdisjoint(o.expr.dims())]
        out += hit
        reach.update(d for o in hit for d in o.expr.dims())


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
    kept: List[Constraint] = []
    own = list(bmap.constraints)
    # Shift context divs clear of bmap's so the combined system is sound.
    shift = {("d", k): ("d", k + bmap.n_div) for k in range(context.n_div)}
    ctx = [c.remap(shift) for c in context.constraints]
    for i, c in enumerate(own):
        rest = kept + own[i + 1:] + ctx
        if not _implied(rest, c):
            kept.append(c)
    return bmap.copy_with(constraints=kept)


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
    live = [p for p in pieces if rational_feasible(p.constraints)]
    if not live:
        return pieces[0]
    directions: Dict[tuple, LinExpr] = {}
    for p in live:
        for c in p.constraints:
            forms = [c.expr, -c.expr] if c.kind == EQ else [c.expr]
            for form in forms:
                form = LinExpr._of(form.coeffs, 0, True)
                directions.setdefault(tuple(form.coeffs.items()), form)
    kept: List[Constraint] = []
    for form in directions.values():
        least: Optional[Fraction] = None
        for p in live:
            low = _rational_min(p.constraints, form)
            if low is None:
                break
            least = low if least is None else min(least, low)
        else:
            kept.append(Constraint.ge(form - ceil(least)))
    return pieces[0].copy_with(constraints=kept)


def _rational_min(system: Sequence[Constraint],
                  form: LinExpr) -> Optional[Fraction]:
    """The least value ``form`` takes on the rational points of a
    feasible div-free ``system``; None if it is unbounded below.  FM on
    ``system`` plus ``t = form`` for a fresh dim ``t`` (the first div),
    eliminating every other dim, leaves the bounds on ``t``.  Only the
    constraints linked to ``t`` through shared dims take part: the
    system being feasible, the others leave every value of ``t`` open."""
    t = (DIV, 0)
    define = Constraint.eq(form - LinExpr.dim(*t))
    cons = [define] + _linked(system, define)
    while (dim := next_dim(cons, (t,))) is not None:
        cons = eliminate_dim(cons, dim)
    lowers, __ = bounds_on_dim(cons, t)
    if not lowers:
        return None
    return max(Fraction(int(e.const), a) for a, e in lowers)
