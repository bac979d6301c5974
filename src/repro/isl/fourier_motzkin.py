"""Fourier-Motzkin elimination over affine constraints.

FM is exact for *rational* feasibility and yields the rational shadow of a
projection.  The integer-exact counterpart (dark shadows and splinters)
lives in :mod:`repro.isl.omega`; codegen uses the rational shadow because
loop bounds are emitted with explicit ceil/floor divisions, which restores
integer exactness at execution time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .constraint import EQ, GE, Constraint
from .linexpr import Dim, LinExpr


def _substitute_equality(constraints: Sequence[Constraint], dim: Dim,
                         eq: Constraint) -> List[Constraint]:
    """Use equality ``a*dim + e = 0`` to remove ``dim`` everywhere else.

    Keeps rational exactness by cross-multiplying: a constraint
    ``c*dim + f (op) 0`` becomes ``|a|*f - sign(a)*c*e (op) 0``.
    """
    a = int(eq.expr.coeff(dim))
    e = eq.expr - LinExpr.dim(dim[0], dim[1], a)
    out: List[Constraint] = []
    for c in constraints:
        if c is eq:
            continue
        coeff = int(c.expr.coeff(dim))
        if coeff == 0:
            out.append(c)
            continue
        rest = c.expr - LinExpr.dim(dim[0], dim[1], coeff)
        # c.expr = coeff*dim + rest ; dim = -e/a
        new_expr = rest * abs(a) - e * coeff * (1 if a > 0 else -1)
        out.append(Constraint(c.kind, new_expr))
    return out


def eliminate_dim(constraints: Sequence[Constraint],
                  dim: Dim) -> List[Constraint]:
    """Eliminate one dimension, returning the rational shadow."""
    involved_eqs = [c for c in constraints
                    if c.kind == EQ and c.involves(dim)]
    if involved_eqs:
        return _substitute_equality(constraints, dim, involved_eqs[0])
    lowers: List[Tuple[int, LinExpr]] = []   # a*dim >= -e  (a > 0)
    uppers: List[Tuple[int, LinExpr]] = []   # b*dim <= f   (b > 0)
    others: List[Constraint] = []
    for c in constraints:
        coeff = int(c.expr.coeff(dim))
        if coeff == 0:
            others.append(c)
        elif coeff > 0:
            # coeff*dim + rest >= 0  =>  coeff*dim >= -rest
            rest = c.expr - LinExpr.dim(dim[0], dim[1], coeff)
            lowers.append((coeff, -rest))
        else:
            rest = c.expr - LinExpr.dim(dim[0], dim[1], coeff)
            uppers.append((-coeff, rest))
    for a, lo in lowers:
        for b, up in uppers:
            # a*dim >= lo and b*dim <= up  =>  a*up - b*lo >= 0
            others.append(Constraint.ge(up * a - lo * b))
    return _prune(others)


def eliminate_dims(constraints: Sequence[Constraint],
                   dims: Iterable[Dim]) -> List[Constraint]:
    cons = list(constraints)
    for dim in dims:
        cons = eliminate_dim(cons, dim)
    return cons


#: The canonical trivially-false system ``-1 >= 0``; ``_prune`` returns
#: it whenever it proves the input infeasible outright.
_FALSE_SYSTEM = [Constraint.ge(LinExpr.constant(-1))]


def _prune(constraints: Sequence[Constraint]) -> List[Constraint]:
    """Drop tautologies and duplicates; keep the tightest of parallel
    inequalities (same coefficients, different constants).

    Constraints normalise at construction (gcd reduction with integer
    tightening), so scaled duplicates like ``2i >= 2`` vs ``i >= 1``
    arrive already keyed identically.  Two *contradictory* parallel
    equalities (``i = 1`` and ``i = 2``), or opposed parallel
    inequalities with a negative gap (``i >= 4`` and ``-i + 2 >= 0``),
    short-circuit to the trivially-false system immediately instead of
    surviving into the elimination loop.
    """
    best: Dict[Tuple, Constraint] = {}
    for c in constraints:
        if c.is_trivially_true():
            continue
        coeff_key = tuple(c.expr.coeffs.items())
        if c.kind == EQ:
            key = (EQ, coeff_key)
            prev = best.get(key)
            if prev is not None and prev.expr.const != c.expr.const:
                return list(_FALSE_SYSTEM)
            if prev is None:
                best[key] = c
            continue
        key = (GE, coeff_key)
        prev = best.get(key)
        # sum c_i x_i + k >= 0: smaller k is the tighter constraint.
        if prev is None or c.expr.const < prev.expr.const:
            best[key] = c
    # Opposed parallel inequalities: e + a >= 0 and -e + b >= 0 bound
    # -a <= e <= b, which is empty exactly when a + b < 0.
    for (kind, coeff_key), c in best.items():
        if kind != GE:
            continue
        neg_key = (GE, tuple((d, -v) for d, v in coeff_key))
        other = best.get(neg_key)
        if other is not None and c.expr.const + other.expr.const < 0:
            return list(_FALSE_SYSTEM)
    return list(best.values())


def rational_feasible(constraints: Sequence[Constraint]) -> bool:
    """Exact rational (LP) feasibility via full FM elimination."""
    cons = _prune(constraints)
    while True:
        for c in cons:
            if c.is_trivially_false():
                return False
        dim = next_dim(cons)
        if dim is None:
            return True
        cons = eliminate_dim(cons, dim)


def next_dim(constraints: Sequence[Constraint],
             keep: Tuple[Dim, ...] = ()) -> Optional[Dim]:
    """The dim full elimination removes next, other than ``keep``: one an
    equality substitutes away if any, else the one in fewest constraints
    (min-degree); None when only ``keep`` is left.  One pass builds the
    involvement counts and the equality dims, which is linear instead of
    a quadratic lower x upper product."""
    counts: Dict[Dim, int] = {}
    eq_dims = set()
    for c in constraints:
        for d in c.expr.dims():
            if d not in keep:
                counts[d] = counts.get(d, 0) + 1
                if c.kind == EQ:
                    eq_dims.add(d)
    if not counts:
        return None
    return min(eq_dims or counts, key=lambda d: counts[d])


def bounds_on_dim(constraints: Sequence[Constraint], dim: Dim
                  ) -> Tuple[List[Tuple[int, LinExpr]],
                             List[Tuple[int, LinExpr]]]:
    """Extract lower/upper bounds on ``dim``.

    Returns ``(lowers, uppers)`` where each lower is ``(a, e)`` meaning
    ``a*dim >= e`` (``a > 0``) and each upper is ``(b, f)`` meaning
    ``b*dim <= f``.  Equalities contribute to both sides.
    """
    lowers: List[Tuple[int, LinExpr]] = []
    uppers: List[Tuple[int, LinExpr]] = []
    for c in constraints:
        coeff = int(c.expr.coeff(dim))
        if coeff == 0:
            continue
        rest = c.expr - LinExpr.dim(dim[0], dim[1], coeff)
        if c.kind == EQ:
            if coeff > 0:
                lowers.append((coeff, -rest))
                uppers.append((coeff, -rest))
            else:
                lowers.append((-coeff, rest))
                uppers.append((-coeff, rest))
        elif coeff > 0:
            lowers.append((coeff, -rest))
        else:
            uppers.append((-coeff, rest))
    return lowers, uppers
