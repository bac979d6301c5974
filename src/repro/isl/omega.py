"""Exact integer feasibility of affine constraint conjunctions.

This is the Omega test of Pugh (1991) with one substitution: instead of
the "mod-hat" trick for non-unit equality coefficients, equalities are
eliminated exactly via a Hermite-normal-form lattice solve
(:mod:`repro.isl.intlinalg`), after which a pure inequality system is
decided with real-shadow / dark-shadow elimination plus splinter
enumeration.  The result is an *exact* integer emptiness test for the
conjunctions that arise in polyhedral compilation (all dimensions,
including parameters and existential divs, are treated as free integer
variables, matching ISL's unconstrained-parameter semantics).

It takes a basic map's rows as they are (:mod:`repro.isl.constraint`):
tuples of ints over the map's columns, the constant last; every row of
a system has one width, and the lattice solve drops the columns no row
involves.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import compress
from math import gcd
from operator import itemgetter, mul, neg
from typing import Dict, List, Optional, Tuple

from .constraint import Row
from .fourier_motzkin import combine, feasible
from .intlinalg import solve_integer_system

_MAX_INEQS = 4000  # blowup guard; beyond this we fall back conservatively


class OmegaBudgetExceeded(Exception):
    """Raised when the inequality system grows past the safety budget."""


#: Decide rational feasibility (real-shadow-only FM on the reduced row
#: system, no lattice solve, no splinters) before the expensive integer
#: machinery and short-circuit when the rational relaxation is already
#: empty (rational-empty implies integer-empty).  Module-level so the
#: property tests can compare both paths.
USE_RATIONAL_FASTPATH = True

#: Gate the syntactic pre-filters (:func:`_prefilter_empty`) and the
#: unit-coefficient Gaussian elimination; with all three flags off the
#: module runs the original HNF-for-every-equality algorithm.  Kept
#: reachable so property tests and the perf gate
#: (benchmarks/test_isl_cache_perf.py) can compare old and new paths on
#: the machine they run on.
USE_PREFILTERS = True
USE_UNIT_ELIMINATION = True


@contextmanager
def legacy_mode():
    """Run a block with every hot-path shortcut off (pre-filters, unit
    elimination, rational fast-path) — the pre-optimization algorithm."""
    global USE_RATIONAL_FASTPATH, USE_PREFILTERS, USE_UNIT_ELIMINATION
    saved = (USE_RATIONAL_FASTPATH, USE_PREFILTERS, USE_UNIT_ELIMINATION)
    USE_RATIONAL_FASTPATH = USE_PREFILTERS = USE_UNIT_ELIMINATION = False
    try:
        yield
    finally:
        USE_RATIONAL_FASTPATH, USE_PREFILTERS, USE_UNIT_ELIMINATION = saved


def _prefilter_empty(rows) -> bool:
    """Cheap syntactic emptiness checks run before the full Omega test.

    Detects (a) any single trivially-false constraint, (b) contradictory
    parallel equalities (``i = 1`` and ``i = 2`` share one coefficient
    vector), and (c) an empty intersection of single-variable bounds
    (``i >= 4`` and ``i <= 2``).  Sound both ways: a ``True`` here means
    the integer set is certainly empty; ``False`` decides nothing.
    """
    from repro.obs.metrics import metrics
    eq_consts: Dict[Row, int] = {}
    lo: Dict[int, int] = {}
    hi: Dict[int, int] = {}
    for is_eq, row in rows:
        const = row[-1]
        nonzero = len(row) - row.count(0) - (const != 0)
        if nonzero > 1 and not is_eq:
            continue        # none of the three can hold
        coeffs = row[:-1]
        if (const != 0 if is_eq else const < 0) if not nonzero else \
                is_eq and const % gcd(*coeffs):
            metrics.counter("isl.empty.prefilter_trivial").inc()
            return True
        if is_eq and eq_consts.setdefault(coeffs, const) != const:
            metrics.counter("isl.empty.prefilter_eq_clash").inc()
            return True
        if nonzero != 1:
            continue
        coeff = next(filter(None, coeffs))
        dim = coeffs.index(coeff)
        if is_eq:
            if abs(coeff) != 1:
                continue  # non-divisible const was already caught above
            val = -const * coeff
            lo[dim] = max(lo.get(dim, val), val)
            hi[dim] = min(hi.get(dim, val), val)
        elif coeff > 0:
            # coeff*d + const >= 0  =>  d >= ceil(-const/coeff)
            bound = -(const // coeff)
            lo[dim] = max(lo.get(dim, bound), bound)
        else:
            # d <= floor(const/(-coeff))
            bound = const // (-coeff)
            hi[dim] = min(hi.get(dim, bound), bound)
        if dim in lo and dim in hi and lo[dim] > hi[dim]:
            metrics.counter("isl.empty.prefilter_bounds").inc()
            return True
    return False


def conjunction_is_empty(bmap) -> bool:
    """True iff the basic map has no integer points (exact)."""
    if USE_PREFILTERS and _prefilter_empty(bmap.rows):
        return True
    try:
        return not _feasible([r for e, r in bmap.rows if e],
                             [r for e, r in bmap.rows if not e])
    except OmegaBudgetExceeded:
        # Conservative fallback: rational feasibility (never claims empty
        # when the integer set is nonempty only risks the safe direction:
        # a rationally-feasible report of "nonempty" may be wrong for
        # integers, which makes legality checks conservative, not unsound).
        return not feasible(list(bmap.rows))


def _compact(eqs: List[Row], ineqs: List[Row]
             ) -> Tuple[List[Row], List[Row]]:
    """Both lists without the columns no row of either involves."""
    cols = list(zip(*eqs, *ineqs))
    used = [c for c in cols[:-1] if any(c)]
    if len(used) + 1 >= len(cols):
        return eqs, ineqs
    rows = list(zip(*used, cols[-1]))
    return rows[:len(eqs)], rows[len(eqs):]


def _feasible(eqs: List[Row], ineqs: List[Row]) -> bool:
    if eqs and USE_UNIT_ELIMINATION:
        reduced = _eliminate_unit_equalities(eqs, ineqs)
        if reduced is None:
            return False
        eqs, ineqs = reduced
    if eqs:
        # Only equalities whose every coefficient is >= 2 in magnitude are
        # left; those need the full Hermite-normal-form lattice solve —
        # unless even the rational relaxation is already empty.
        if USE_RATIONAL_FASTPATH and not _rational_rows_feasible(eqs, ineqs):
            from repro.obs.metrics import metrics
            metrics.counter("isl.empty.rational_fastpath").inc()
            return False
        ineqs = _eliminate_equalities(*_compact(eqs, ineqs))
        if ineqs is None:
            return False
    return _ineq_feasible(ineqs)


def _rational_rows_feasible(eqs: List[Row], ineqs: List[Row]) -> bool:
    """Feasibility of the real relaxation of the row system.

    Equalities are substituted exactly by cross-multiplication, then the
    pure inequality system runs Fourier-Motzkin with the real shadow
    only (no dark shadow, no splinter enumeration, no lattice solve).
    One-sided: a ``False`` here proves the *integer* system empty too;
    ``True`` decides nothing about integer feasibility.
    """
    work = list(eqs)
    while work:
        eq = work.pop()
        coeffs = eq[:-1]
        if not any(coeffs):
            if eq[-1] != 0:
                return False
            continue
        var = min((j for j, c in enumerate(coeffs) if c),
                  key=lambda j: abs(coeffs[j]))
        a = eq[var]

        def subst(row: Row) -> Row:
            # a*var + e = 0 and c*var + f (op) 0:
            # scale by |a| > 0 and substitute: |a|*f - sign(a)*c*e (op) 0.
            c = row[var]
            return combine(abs(a), row, -c if a > 0 else c, eq) if c else row

        work = [subst(r) for r in work]
        ineqs = [subst(r) for r in ineqs]
    try:
        return _ineq_feasible(ineqs, rational=True)
    except OmegaBudgetExceeded:
        return True  # undecided: fall through to the integer machinery


def _eliminate_unit_equalities(eqs: List[Row], ineqs: List[Row]
                               ) -> Optional[Tuple[List[Row], List[Row]]]:
    """Gaussian elimination of equalities with a +-1 coefficient.

    The schedule and access relations of polyhedral compilation are almost
    entirely unit-coefficient equalities (``o_k - i_k = 0``), so exact
    back-substitution resolves them at a fraction of the cost of the
    Hermite-normal-form lattice solve, which stays as the fallback for
    genuinely non-unit systems.  Returns ``(remaining_eqs, ineqs)`` or
    ``None`` when a contradiction (constant or divisibility) surfaces.
    """
    rows = eqs + ineqs
    n_eq = len(eqs)
    gone = (0,) * len(rows[0])      # a row substituted away
    pending = list(range(n_eq))
    while pending:
        t = pending.pop()
        row = rows[t]
        if row is gone:
            continue
        coeffs = row[:-1]
        g = gcd(*coeffs)
        if not g:
            if row[-1] != 0:
                return None
            rows[t] = gone
            continue
        if g > 1:
            if row[-1] % g != 0:
                return None
            rows[t] = row = tuple([v // g for v in row])
            coeffs = row[:-1]
        units = [coeffs.index(u) for u in (1, -1) if u in coeffs]
        if not units:
            continue  # stays as residual unless a later subst touches it
        var = min(units)
        c = row[var]
        rows[t] = gone
        # c*var + rest = 0  =>  var = -c*rest  (c = +-1)
        for o in list(compress(range(len(rows)),
                               map(itemgetter(var), rows))):
            old = rows[o]
            rows[o] = new = combine(1, old, -old[var] * c, row)
            if o < n_eq:
                pending.append(o)
            elif new[-1] < 0 and not any(new[:-1]):
                return None         # an inequality that reads -k >= 0
    return ([r for r in rows[:n_eq] if r is not gone],
            [r for r in rows[n_eq:] if r is not gone])


def _eliminate_equalities(eqs: List[Row], ineqs: List[Row]
                          ) -> Optional[List[Row]]:
    """Solve the equality lattice, substitute into the inequalities.

    Returns the inequality system over the lattice's free coordinates, or
    ``None`` when the equalities alone are integer-infeasible.
    """
    solved = solve_integer_system([list(r[:-1]) for r in eqs],
                                  [-r[-1] for r in eqs])
    if solved is None:
        return None
    x0, basis = solved
    return [tuple([sum(map(mul, row, b)) for b in basis])
            + (row[-1] + sum(map(mul, row, x0)),) for row in ineqs]


def _ineq_feasible(ineqs: List[Row], depth: int = 0,
                   rational: bool = False) -> bool:
    # Normalize, dedupe, keep the tightest of parallel rows; e + a >= 0
    # and -e + b >= 0 share the direction of e and are empty together
    # when a + b < 0.
    sides: Dict[Row, list] = {}   # direction -> [down, up, down row]
    for row in ineqs:
        coeffs, const = row[:-1], row[-1]
        g = gcd(*coeffs)
        if not g:
            if const < 0:
                return False
            continue
        if g > 1:
            coeffs, const = tuple([v // g for v in coeffs]), const // g
        up = next(filter(None, coeffs)) > 0
        key = coeffs if up else tuple(map(neg, coeffs))
        side = sides.get(key)
        if side is None:
            side = sides[key] = [None, None, None]
        if side[up] is None or const < side[up]:
            side[up] = const
            if not up:
                side[2] = coeffs
    system: List[Row] = []
    for coeffs, (down, up, neg_coeffs) in sides.items():
        if up is not None:
            if down is not None and up + down < 0:
                return False
            system.append(coeffs + (up,))
        if down is not None:
            system.append(neg_coeffs + (down,))
    if len(system) > _MAX_INEQS:
        raise OmegaBudgetExceeded()

    # Remove variables bounded on only one side (exact elimination).
    while system:
        cols = list(zip(*system))[:-1]
        one_sided = [j for j, col in enumerate(cols)
                     if (max(col) > 0) != (min(col) < 0)]
        if not one_sided:
            break
        system = [r for r in system if not any(r[j] for j in one_sided)]
    if not system:
        return True

    # Choose elimination variable: prefer an exact one (all unit
    # coefficients on one side); otherwise minimize combination count.
    def cost(j: int) -> Tuple[int, int]:
        pos = [c for c in cols[j] if c > 0]
        neg = [c for c in cols[j] if c < 0]
        exact = 0 if max(pos) == 1 or min(neg) == -1 else 1
        return (exact, len(pos) * len(neg))

    var = min((j for j, col in enumerate(cols) if any(col)), key=cost)
    lowers = [r for r in system if r[var] > 0]   # a*var + l >= 0
    uppers = [r for r in system if r[var] < 0]   # -b*var + u >= 0
    rest = [r for r in system if not r[var]]

    exact = (all(r[var] == 1 for r in lowers)
             or all(r[var] == -1 for r in uppers))

    def combine_all(scale_shift: int) -> List[Row]:
        # a*var + l >= 0 and -b*var + u >= 0
        # => b*l + a*u >= 0 (real); >= (a-1)(b-1) for dark shadow.
        rows = list(rest)
        for lo in lowers:
            a = lo[var]
            for up in uppers:
                b = -up[var]
                row = combine(b, lo, a, up)
                if scale_shift:
                    row = row[:-1] + (row[-1] - (a - 1) * (b - 1),)
                rows.append(row)
        return rows

    if exact or rational:
        # Unit-coefficient elimination is integer-exact; in rational mode
        # the real shadow alone is the answer by definition.
        return _ineq_feasible(combine_all(0), depth + 1, rational)

    if not _ineq_feasible(combine_all(0), depth + 1):
        return False  # real shadow empty => no rational point at all
    if _ineq_feasible(combine_all(1), depth + 1):
        return True   # dark shadow nonempty => integer point exists
    # Splinter: any integer solution outside the dark shadow satisfies
    # a*var = -l + k with 0 <= k <= (a*b_max - a - b_max)/b_max for some
    # lower bound (a, l).
    b_max = max(-r[var] for r in uppers)
    for lo in lowers:
        a = lo[var]
        top = (a * b_max - a - b_max) // b_max
        for k in range(top + 1):
            # Equality: a*var + l - k = 0.
            if _feasible([lo[:-1] + (lo[-1] - k,)], system):
                return True
    return False
