"""Sampling and lexicographic extrema of integer sets.

``sample`` returns one integer point of a (possibly unbounded) basic
set; ``lexmin``/``lexmax`` return the lexicographically extreme point of
a *bounded* set.  Parametric sets are not supported (that would require
a PIP solver); callers substitute parameter values first — which is all
the dependence-distance analysis needs.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .basic import BasicSet
from .enumerate_ import bind_params, value
from .fourier_motzkin import bounds, eliminate
from .linexpr import OUT

_SEARCH_SPAN = 10_000   # guard for strided gaps beyond rational bounds


def _extreme(bset: BasicSet, param_vals: Dict[str, int],
             maximize: bool) -> Optional[Tuple[int, ...]]:
    work = bind_params(bset, param_vals)
    if work.is_empty():
        return None
    n_div, n_in, n, _ = work._shape()
    base = n_div + n_in
    vals = [0] * sum(work._shape()) + [1]
    point = []
    for k in range(n):
        # Rational bound for dim k after eliminating deeper dims + divs.
        rows = list(work.rows)
        for col in [base + d for d in range(k + 1, n)] + list(range(n_div)):
            rows = eliminate(rows, col)
        lowers, uppers = bounds(rows, base + k)
        if maximize:
            if not uppers:
                raise ValueError(f"dim {k} unbounded above")
            start = min(value(f, vals) // b for b, f in uppers)
            step = -1
        else:
            if not lowers:
                raise ValueError(f"dim {k} unbounded below")
            start = max(-(-value(e, vals) // a) for a, e in lowers)
            step = 1
        found = None
        for off in range(_SEARCH_SPAN):
            v = start + step * off
            if not work.fix(OUT, k, v).is_empty():
                found = v
                break
        if found is None:
            raise ValueError(
                f"no integer value for dim {k} within the search span")
        point.append(found)
        vals[base + k] = found
        work = work.fix(OUT, k, found)
    return tuple(point)


def lexmin(bset: BasicSet, param_vals: Dict[str, int] = ()) -> Optional[
        Tuple[int, ...]]:
    """Lexicographically smallest point, or None when empty."""
    return _extreme(bset, dict(param_vals), maximize=False)


def lexmax(bset: BasicSet, param_vals: Dict[str, int] = ()) -> Optional[
        Tuple[int, ...]]:
    """Lexicographically largest point, or None when empty."""
    return _extreme(bset, dict(param_vals), maximize=True)


def sample(bset: BasicSet, param_vals: Dict[str, int] = ()) -> Optional[
        Tuple[int, ...]]:
    """Any integer point of the set (lexmin of the bounded case; for
    unbounded dims, a greedy feasible value near zero)."""
    work = bind_params(bset, dict(param_vals))
    if work.is_empty():
        return None
    n = len(bset.space.out_dims)
    point: List[int] = []
    for k in range(n):
        found = None
        for magnitude in range(_SEARCH_SPAN):
            for v in ({0} if magnitude == 0 else {magnitude, -magnitude}):
                if not work.fix(OUT, k, v).is_empty():
                    found = v
                    break
            if found is not None:
                break
        if found is None:
            raise ValueError(f"no sample for dim {k} within search span")
        point.append(found)
        work = work.fix(OUT, k, found)
    return tuple(point)
