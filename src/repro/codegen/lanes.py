"""Lane safety of ``vector``-tagged loops: one predicate, three callers.

A loop may execute its iterations as SIMD lanes only if it carries no
dependence (paper Table II).  :func:`slab_verdict` decides that level by
level for a ``vector`` loop and the loops around it, and says *why* where
the answer is no; the Python emitter (:mod:`repro.codegen.pyemit`) asks
it about the whole nest, the C emitter and the CPU cost model
(:mod:`repro.machine.cpu_model`) about the ``vector`` loop alone
(:func:`lane_verdict`), so what is priced as vectorized is what is
emitted as vectorized.

What a lane loop it accepted may then be split into is decided here
too, from the same time-space indices: :func:`clamp_free`, the part of
its range where no clamped index clamps (the lanes load contiguously
there).
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.access import Resolved
from repro.core.deps import DependenceSummary
from repro.ir.affine import try_expr_to_linexpr
from repro.ir.expr import Call, Expr, IterVar
from repro.isl import BasicSet, Constraint, Space
from repro.isl.linexpr import IN, OUT, PARAM, LinExpr

from .ast import Bound, Loop, Stmt

#: One buffer access in time-space: an index vector, with None for an
#: index that is not affine in the loop variables and parameters.
Index = Tuple[Optional[LinExpr], ...]


def time_index(comp, exprs: Sequence[Expr]) -> Index:
    """Index expressions over ``comp``'s original variables as LinExprs
    over its time dims ``(OUT, k)`` and the function parameters."""
    dims = {p: (PARAM, i) for i, p in enumerate(comp.function.param_names)}
    dims.update({nm: (IN, k) for k, nm in enumerate(comp.var_names)})
    out: List[Optional[LinExpr]] = []
    for e in exprs:
        if isinstance(e, IterVar) and e.name in comp.rev:
            out.append(comp.rev[e.name])    # the common case, no algebra
            continue
        le = try_expr_to_linexpr(e, dims)
        if le is not None:
            for k, nm in enumerate(comp.var_names):
                le = le.substitute((IN, k), comp.rev[nm])
        out.append(le)
    return tuple(out)


#: A loop dim of the time space, ``(OUT, level)``.
Lane = Tuple[str, int]


def slab_axes(store: Index, lanes: Sequence[Lane]
              ) -> Optional[Tuple[Lane, ...]]:
    """``lanes`` in the order their indices stand in ``store``, if each
    is the sole mover among them of one affine index, with coefficient
    >= 1 (a basic slice, no element touched twice); None otherwise."""
    at: Dict[Lane, int] = {}
    for lane in lanes:
        hit = [k for k, le in enumerate(store)
               if le is None or le.coeff(lane)]
        if len(hit) != 1 or store[hit[0]] is None \
                or store[hit[0]].coeff(lane) < 1 or hit[0] in at.values():
            return None
        at[lane] = hit[0]
    return tuple(sorted(lanes, key=at.get))


def _one_index_per_buffer(stmts: Sequence[Stmt], forms: Sequence[Resolved],
                          stores: Sequence[Index]) -> bool:
    """Does every access in the body to a buffer the body stores use one
    and the same affine index vector?"""
    stored: Dict[int, Index] = {}
    for form, store in zip(forms, stores):
        if None in store or stored.setdefault(
                id(form.store.buffer), store) != store:
            return False
    return all(stored[id(read.buffer)] == time_index(stmt.comp, read.indices)
               for stmt, form in zip(stmts, forms) for read in form.reads
               if id(read.buffer) in stored)


#: Folded strip-mined pairs of a slab: the level of the slab variable
#: ``b`` -> ``(levels of the a's, lowers, uppers)``, the range of ``s*a +
#: b`` (nested: ``s2*a2 + s*a + b``) that ``b``'s axis runs over instead of
#: its own (:func:`strip_mined`).  A head that runs part of its own range
#: (a chunk, a tile) is read in these at its first value in the lowers
#: and at its last in the uppers.
Folds = Dict[int, Tuple[Tuple[int, ...], List[List[Bound]],
                        List[List[Bound]]]]


def strip_mined(fn, a: Loop, b: Loop, s: int) -> Optional[
        Tuple[List[List[Bound]], List[List[Bound]]]]:
    """Do ``a`` and ``b``, a loop inside it, enumerate ``u = s*a + b``
    over one interval, each ``u`` exactly once, whatever the other loop
    variables and the parameters?  That interval, as :class:`Loop` bound
    groups over those, or None.  Its ends are the bounds ``u`` inherits
    (``b >= b0, a >= g``: ``u >= s*g + b0``; ``b <= e - s*a``: ``u <= e``;
    ``b <= e, a <= f``: ``u <= s*f + e``), and the isl layer proves the
    rest from the two loops' bounds: ``b`` stays below ``b0 + s`` (so
    ``u`` determines ``a``), every point lies within the interval, and
    every ``u`` of it is a point (``a = floor((u - b0) / s)``).  An ``a``
    of one trip (a tile as large as its extent) stands in ``b``'s bounds
    as its value."""
    if a.lowers == a.uppers and [len(g) for g in a.lowers] == [1] \
            and a.lowers[0][0][0] == 1:
        at = a.lowers[0][0][1]
        b = replace(b, **{side: [[(d, e.substitute((OUT, a.level), at))
                                  for d, e in g] for g in getattr(b, side)]
                          for side in ("lowers", "uppers")})
    groups = (a.lowers, a.uppers, b.lowers, b.uppers)
    if any(len(g) != 1 for g in groups) or len(b.lowers[0]) != 1 or any(
            kind not in (OUT, PARAM) for g in groups for __, e in g[0]
            for kind, __ in e.dims()):
        return None
    ta, tb = LinExpr.dim(OUT, a.level), LinExpr.dim(OUT, b.level)
    (d, b0), = b.lowers[0]
    if d != 1 or b0.coeff((OUT, a.level)):
        return None
    lows = [b0 + g * s for d, g in a.lowers[0] if d == 1]
    highs: List[LinExpr] = []
    for d, e in b.uppers[0]:
        at = e.coeff((OUT, a.level)) if d == 1 else None
        if at == -s:
            highs.append(e + ta * s)
        elif at == 0:
            highs += [e + f * s for d2, f in a.uppers[0] if d2 == 1]
    if not (lows and highs):
        return None
    u = LinExpr.dim(OUT, b.level + 1)
    space = Space.set_space(tuple(f"t{i}" for i in range(b.level + 2)),
                            None, tuple(fn.param_names))

    def empty(*exprs, eq=()) -> bool:
        bset = BasicSet(space, [Constraint.ge(e) for e in exprs]
                        + [Constraint.eq(e) for e in eq])
        return bset.is_rational_empty() or bset.is_empty()

    pair = ([t * d - e for t, loop in ((ta, a), (tb, b))
             for d, e in loop.lowers[0]]
            + [e - t * d for t, loop in ((ta, a), (tb, b))
               for d, e in loop.uppers[0]])
    on = dict(eq=[u - ta * s - tb])
    if not (empty(*pair, tb - b0 - s, **on)
            and all(empty(*pair, lo - u - 1, **on) for lo in lows)
            and all(empty(*pair, u - hi - 1, **on) for hi in highs)):
        return None
    span = ([u - lo for lo in lows] + [hi - u for hi in highs]
            + [u - b0 - ta * s, ta * s + s - 1 - u + b0])
    if not all(empty(*span, -c - 1, eq=[tb - u + ta * s]) for c in pair):
        return None
    return ([list(dict.fromkeys((1, lo) for lo in lows))],
            [list(dict.fromkeys((1, hi) for hi in highs))])


def _fold(fn, stmts: Sequence[Stmt], a: Loop, slab: Sequence[Loop],
          axes: Tuple[Lane, ...], folds: Folds):
    """``(level of b, lowers, uppers, window)`` if every statement uses
    ``a`` only as ``s*a + b``, ``b`` a slab axis (or the axis an inner
    pair folded into already, over that pair's range), and the two are
    :func:`strip_mined`; ``window`` the bounds ``s*a + b0 .. s*a + b0 + s
    - 1`` of ``u`` at one ``a``.  Else None."""
    if any(s.comp.cached_reads or s.comp.cached_store is not None
           for s in stmts):
        return None
    revs = [le for s in stmts for le in s.comp.rev.values()]
    for loop in slab:
        lane = (OUT, loop.level)
        if lane not in axes:
            continue
        # s*a + b wherever a stands: one ratio of the two coefficients
        ratios = {Fraction(le.coeff((OUT, a.level))) / le.coeff(lane)
                  if le.coeff(lane) else None
                  for le in revs if le.coeff((OUT, a.level)) or le.coeff(lane)}
        if len(ratios) != 1 or None in ratios:
            continue
        s, = ratios
        if s >= 1 and s.denominator == 1:
            if loop.level in folds:
                loop = replace(loop, lowers=folds[loop.level][1],
                               uppers=folds[loop.level][2])
            rng = strip_mined(fn, a, loop, int(s))
            if rng is not None:
                u0 = LinExpr.dim(OUT, a.level) * int(s) + loop.lowers[0][0][1]
                return (loop.level, *rng, ([(1, u0)], [(1, u0 + int(s) - 1)]))
    return None


def _bounds(loops: Sequence[Loop], folds: Folds) -> List[LinExpr]:
    """Every bound of ``loops`` as the slab runs them: a folded ``a`` has
    none of its own, its ``b`` runs over the pair's range."""
    gone = {a for levels, __, ___ in folds.values() for a in levels}
    return [e for loop in loops if loop.level not in gone
            for groups in (folds[loop.level][1:] if loop.level in folds
                           else (loop.lowers, loop.uppers))
            for group in groups for __, e in group]


def slab_verdict(fn, chain: Sequence[Loop], verified: bool = False,
                 own_head: bool = True
                 ) -> Tuple[int, Optional[str], Tuple[Lane, ...], Folds,
                            Optional[int]]:
    """``(k, why, axes, folds, hoist)`` for ``chain``, a perfect nest of
    loops that ends in a ``vector``-tagged one: ``chain[k:]`` is its
    longest suffix that may run as one whole-range statement per
    computation, ``axes`` the dims of those loops in the order every
    statement stores them, and ``why`` what kept ``chain[k - 1]`` out
    (None when ``k`` is 0) -- the body (``nested-loop``, ``operation``,
    ``guard``, ``predicate``), a bound of a loop inside that mentions it
    (``non-rectangular``), a store that does not move with it
    (``store-not-driven``) or not as an axis of its own
    (``store-not-separable``, :func:`slab_axes`), or ``carried <kind>
    <src>-><sink> on <buf>``.  A loop ``a`` that the body uses only as
    ``s*a + b``, ``b`` an axis, joins without an axis of its own when
    the two are :func:`strip_mined` (``folds``; ``own_head``: ``chain[0]``
    runs its own range, else part of it): a tile's strip-mined pair is
    one slice axis.

    ``hoist``: the index in ``chain`` of a ``store-not-driven`` loop (a
    reduction) that leaves the slab as the loop around it.  It moves
    only over loops that fold, and only when every one up to
    ``chain[0]`` does; otherwise it stops the chain as before.  Every
    level it moves over passes the per-level rule below, so the band
    carries no dependence but at the reduction, and every element still
    sums in the reduction's order.

    The rule per level is "no dependence carried at this level".  A
    structural fast path settles the common case from LinExpr
    coefficients alone: if every access in the body to a buffer the body
    stores uses one and the same affine index vector, which moves with
    the level's variable, two iterations never touch the same element.
    Anything else (heat reading another row of the buffer it stores) is
    decided exactly by the function's
    :class:`~repro.core.deps.DependenceSummary`.  ``verified``: the race
    check already proved every ``vector``-tagged level clean.
    """
    from repro.core.computation import Operation
    stmts = chain[-1].body.children
    if not stmts or not all(isinstance(s, Stmt) for s in stmts):
        return len(chain), "nested-loop", (), {}, None
    for stmt in stmts:
        if isinstance(stmt.comp, Operation):
            return len(chain), "operation", (), {}, None
        if stmt.guards:
            return len(chain), "guard", (), {}, None
        if stmt.comp.predicate is not None:
            return len(chain), "predicate", (), {}, None
    summary = DependenceSummary.of(fn)
    forms = [summary.form(s.comp) for s in stmts]
    stores = [time_index(s.comp, form.store.indices)
              for s, form in zip(stmts, forms)]
    structural: Optional[bool] = None
    axes: Tuple[Lane, ...] = ()
    folds: Folds = {}
    hoist, held = None, None    # the reduction; the verdict if it stays
    for k in range(len(chain) - 1, -1, -1):
        level = chain[k].level
        lane = (OUT, level)
        fold = _fold(fn, stmts, chain[k], chain[k + 1:], axes, folds)
        if held and fold is None:
            return held
        joined = dict(folds)
        if fold is not None:
            joined[fold[0]] = (folds.get(fold[0], ((),))[0] + (level,),
                               *fold[1:3])
        if any(e.coeff(lane) for e in _bounds(chain[k + 1:], joined)):
            return held or (k + 1, "non-rectangular", axes, folds, None)
        if not all(any(le is not None and le.coeff(lane) for le in store)
                   for store in stores):
            if held is None and axes and k:
                hoist, held = k, (k + 1, "store-not-driven", axes, folds, None)
                continue
            return held or (k + 1, "store-not-driven", axes, folds, None)
        order = (lane,)     # alone, it may store through an index vector
        if axes and fold is None:
            orders = {slab_axes(store, (lane,) + axes) for store in stores}
            if len(orders) > 1 or None in orders:
                return k + 1, "store-not-separable", axes, folds, None
            order, = orders
        tagged = all(getattr(s.comp.tags.get(level), "kind", None) == "vector"
                     for s in stmts)
        if not (verified and tagged):
            if structural is None:
                structural = _one_index_per_buffer(stmts, forms, stores)
            if not structural:
                for stmt in stmts:
                    for dep in summary.carried(stmt.comp, level):
                        return held or (k + 1, (
                            f"carried {dep.kind} {dep.source.name}->"
                            f"{dep.sink.name} on {dep.buffer.name}"), axes,
                            folds, None)
        if fold is None:
            axes = order
        elif not (k or own_head):   # the chunk's a, read at its ends
            levels, __, (highs,) = joined[fold[0]]
            joined[fold[0]] = (levels, [fold[3][0]], [highs + fold[3][1]])
        folds = joined
    return 0, None, axes, folds, hoist


def lane_verdict(fn, loop: Loop, verified: bool = False) -> Optional[str]:
    """:func:`slab_verdict` of the ``vector`` loop alone: None when it can
    run lane-parallel, else the reason it cannot."""
    return slab_verdict(fn, [loop], verified)[1]


def clamp_free(fn, loop: Loop) -> Optional[Tuple[
        List[List[Bound]], List[List[Bound]], List[Expr]]]:
    """Where in the range of ``loop``, a ``vector`` loop
    :func:`lane_verdict` accepted, is every ``clamp(x, lo, hi)`` that
    moves with the loop variable just ``x``?  ``(lowers, uppers,
    values)``: that sub-range as a :class:`Loop` holds bounds -- it lies
    within the loop's own and may be empty, so it and the iterations
    outside it (before, after, or all of them) partition the loop's
    range -- and each statement's right-hand side with those clamps
    dropped.  None if no clamp moves with the loop: one on outer
    variables is loop-invariant, one whose arguments are not affine
    cannot be solved for.

    ``lo <= x`` with ``x - lo = c*t + r`` reads ``c*t >= -r``: a lower
    bound on ``t`` if ``c > 0``, an upper one otherwise; ``x <= hi``
    alike.  The sub-range is the loop's bounds and these, over all
    clamps."""
    lane = (OUT, loop.level)
    lowers: List[Bound] = []
    uppers: List[Bound] = []
    summary = DependenceSummary.of(fn)
    values = []
    for stmt in loop.body.children:
        def strip(e: Expr) -> Expr:
            if isinstance(e, Call) and e.fn == "clamp":
                x, lo, hi = time_index(stmt.comp, e.args)
                sides = () if None in (x, lo, hi) else (x - lo, hi - x)
                if sides and all(s.is_integral() and s.coeff(lane)
                                 for s in sides):
                    for s in sides:
                        c = int(s.coeff(lane))
                        rest = s - LinExpr.dim(*lane, c)
                        if c > 0:
                            lowers.append((c, -rest))
                        else:
                            uppers.append((-c, rest))
                    return e.args[0]
            return e.map_children(strip)
        values.append(strip(summary.form(stmt.comp).value))
    if not (lowers or uppers):
        return None
    return ([_tightest(group + lowers, 1) for group in loop.lowers],
            [_tightest(group + uppers, -1) for group in loop.uppers],
            values)


def _tightest(group: List[Bound], sign: int) -> List[Bound]:
    """``group``, the lower (``sign`` 1) or upper (-1) bounds one loop
    holds all of, less each bound that another of the same divisor,
    differing from it by a constant, is at least as tight as: of ``0, 1,
    -1`` only ``1`` is left, of ``M - 1, M + 1, M - 3`` only ``M - 3``."""
    kept: List[Bound] = []
    for d, e in group:
        for k, (d2, e2) in enumerate(kept):
            gap = e - e2
            if d == d2 and gap.is_constant():
                if gap.const * sign > 0:
                    kept[k] = (d, e)
                break
        else:
            kept.append((d, e))
    return kept
