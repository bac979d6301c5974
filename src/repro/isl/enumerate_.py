"""Enumeration of the integer points of bounded sets.

Used by tests (codegen visits each point exactly once), by the executor's
reference interpreter, and by counting helpers.  Enumeration is recursive:
for each dimension the rational bounds given the outer dims are computed
by Fourier-Motzkin elimination of the inner dims; rational slack is
filtered at the leaves by re-checking the original constraints.
"""

from __future__ import annotations

from operator import mul
from typing import Iterator, List, Mapping, Optional, Tuple

from .basic import BasicMap
from .constraint import normal, trivially_false
from .fourier_motzkin import bounds, eliminate


def bind_params(bset: BasicMap, param_vals: Mapping[str, int]) -> BasicMap:
    """``bset`` with the given parameter values folded into the
    constants (their columns become 0); a parameter without a value must
    not be involved."""
    base = sum(bset._shape()[:3])
    rows = [list(r) for _, r in bset.rows]
    for i, p in enumerate(bset.space.params):
        j = base + i
        if p not in param_vals:
            if any(r[j] for r in rows):
                raise ValueError(f"parameter {p} needs a value")
            continue
        for r in rows:
            r[-1] += r[j] * param_vals[p]
            r[j] = 0
    return bset._with([(e, normal(e, tuple(r)))
                       for (e, _), r in zip(bset.rows, rows)])


def value(row, vals: List[int]) -> int:
    """``row`` at the point ``vals`` (one value per column, then 1)."""
    return sum(map(mul, row, vals))


class _Enumerator:
    def __init__(self, bset: BasicMap, param_vals: Mapping[str, int]):
        work = bind_params(bset, param_vals)
        n_div, n_in, self.n_out, _ = work._shape()
        self.vals = [0] * sum(work._shape()) + [1]
        self.original = list(work.rows)
        # The set dims, then the divs.
        self.order = [n_div + n_in + k for k in range(self.n_out)]
        self.order += list(range(n_div))
        # systems[k] has only columns order[:k]; bounds for order[k] come
        # from systems[k+1].
        current = self.original
        systems = [current]
        for col in reversed(self.order):
            current = eliminate(current, col)
            systems.append(current)
        systems.reverse()
        self.systems = systems

    def feasible_globally(self) -> bool:
        return not any(trivially_false(e, r) for e, r in self.systems[0])

    def points(self) -> Iterator[Tuple[int, ...]]:
        if not self.feasible_globally():
            return
        seen = set()
        for full in self._rec(0):
            pt = full[:self.n_out]
            if pt not in seen:
                seen.add(pt)
                yield pt

    def _rec(self, level: int) -> Iterator[Tuple[int, ...]]:
        vals = self.vals
        if level == len(self.order):
            if all((value(r, vals) == 0) if e else (value(r, vals) >= 0)
                   for e, r in self.original):
                yield tuple(vals[c] for c in self.order)
            return
        col = self.order[level]
        lowers, uppers = bounds(self.systems[level + 1], col)
        lo: Optional[int] = None
        hi: Optional[int] = None
        for a, e in lowers:
            val = -(-value(e, vals) // a)
            lo = val if lo is None else max(lo, val)
        for b, f in uppers:
            val = value(f, vals) // b
            hi = val if hi is None else min(hi, val)
        if lo is None or hi is None:
            raise ValueError(
                f"dimension {col} is unbounded; cannot enumerate")
        for v in range(lo, hi + 1):
            vals[col] = v
            yield from self._rec(level + 1)
        vals[col] = 0


def points(bset, param_vals: Mapping[str, int] = ()) -> Iterator[Tuple[int, ...]]:
    """Iterate over the integer points of a (union of) basic set(s)."""
    param_vals = dict(param_vals)
    pieces = bset.pieces if hasattr(bset, "pieces") else [bset]
    seen = set()
    for piece in pieces:
        for pt in _Enumerator(piece, param_vals).points():
            if pt not in seen:
                seen.add(pt)
                yield pt


def count(bset, param_vals: Mapping[str, int] = ()) -> int:
    """Number of integer points (bounded sets only)."""
    return sum(1 for __ in points(bset, param_vals))
