"""A process-safe metrics registry: counters, gauges, histograms.

The registry lives in the parent (compiling) process and is guarded by
one lock, so any thread may record.  The threads running a region's
chunks hand their measurements (chunk wall time, chunk sizes) back with
the chunk result, and the calling thread records them after the join
(see :meth:`repro.backends.parallel.ParallelRuntime.run`); batch
compile workers in other processes never touch it.

A decision site calls :func:`repro.obs.events.emit`, which bumps the
counter of the event's name; only amounts, gauges and histograms are
recorded here directly.  The inventory of names is
docs/observability.md (kept in step with ``src/`` by
tests/test_events.py::TestDocDrift).
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class MetricNameError(ValueError):
    """One name, two metric kinds: a counter, gauge and histogram live
    in separate maps, so a shared name would silently overwrite in
    ``snapshot()``'s flat dict.  Registering a name under a second kind
    raises this instead."""


@dataclass
class Counter:
    """A monotonically increasing total."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        self.value += amount

    def zero(self) -> None:
        self.value = 0.0


@dataclass
class Gauge:
    """A last-written value."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def zero(self) -> None:
        self.value = 0.0


def _default_buckets() -> Tuple[float, ...]:
    """The fixed bucket ladder: a 1-2.5-5 geometric sweep from 1e-9 to
    5e8.  Wide enough that one ladder serves seconds, iteration counts
    and byte volumes; coarse enough (54 buckets) that every histogram
    stays a few hundred bytes."""
    bounds: List[float] = []
    for exp in range(-9, 9):
        for mantissa in (1.0, 2.5, 5.0):
            bounds.append(mantissa * (10.0 ** exp))
    return tuple(bounds)


#: Shared upper bounds of the fixed histogram buckets (le semantics;
#: observations above the last bound land in the +Inf overflow bucket).
DEFAULT_BUCKETS: Tuple[float, ...] = _default_buckets()


@dataclass
class Histogram:
    """Streaming summary of observations: count/total/min/max/mean plus
    fixed-bucket counts good for p50/p90/p99 estimates.

    Buckets are upper bounds (``value <= bound``), shared process-wide
    (:data:`DEFAULT_BUCKETS`) so histograms merge and export uniformly;
    quantiles are estimated by linear interpolation inside the bucket
    holding the target rank, clamped to the exact observed min/max."""

    name: str
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    buckets: Tuple[float, ...] = DEFAULT_BUCKETS
    bucket_counts: List[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.bucket_counts:
            # one slot per bound plus the +Inf overflow slot
            self.bucket_counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def spread(self) -> float:
        """max/min ratio — the worker-imbalance number (1.0 = balanced).

        With a non-positive minimum the ratio is undefined; identical
        observations still answer 1.0 (perfectly balanced), anything
        else answers ``inf`` — a zero-or-negative floor under a larger
        maximum is the *most* imbalanced a distribution gets, and the
        old answer of 1.0 hid exactly that."""
        if not self.count:
            return 1.0
        if self.min <= 0:
            return 1.0 if self.max == self.min else math.inf
        return self.max / self.min

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0 <= q <= 1) from the bucket counts:
        linear interpolation inside the target bucket, clamped to the
        observed [min, max].  0.0 with no observations."""
        if not self.count:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        rank = q * self.count
        seen = 0.0
        for idx, n in enumerate(self.bucket_counts):
            if not n:
                continue
            if seen + n >= rank:
                lo = self.buckets[idx - 1] if idx > 0 else self.min
                hi = self.buckets[idx] if idx < len(self.buckets) \
                    else self.max
                frac = (rank - seen) / n
                est = lo + (hi - lo) * frac
                return min(max(est, self.min), self.max)
            seen += n
        return self.max

    def zero(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.bucket_counts = [0] * (len(self.buckets) + 1)

    def summary(self) -> Dict[str, float]:
        return {"count": self.count, "total": self.total,
                "min": self.min if self.count else 0.0,
                "max": self.max if self.count else 0.0,
                "mean": self.mean,
                "p50": self.quantile(0.50),
                "p90": self.quantile(0.90),
                "p99": self.quantile(0.99)}


class MetricsRegistry:
    """Named metrics behind one lock; create-on-first-use accessors.

    A name belongs to exactly one kind: asking for ``counter("x")``
    after ``gauge("x")`` exists raises :class:`MetricNameError` instead
    of letting the two overwrite each other in :meth:`snapshot`."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_kind(self, name: str, kind: str) -> None:
        """Reject a name already registered under a different kind
        (caller holds the lock)."""
        for other_kind, table in (("counter", self._counters),
                                  ("gauge", self._gauges),
                                  ("histogram", self._histograms)):
            if other_kind != kind and name in table:
                raise MetricNameError(
                    f"metric name {name!r} is already a {other_kind}; "
                    f"refusing to also register it as a {kind} (the "
                    f"two would collide in snapshot())")

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._check_kind(name, "counter")
                self._counters[name] = Counter(name)
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            if name not in self._gauges:
                self._check_kind(name, "gauge")
                self._gauges[name] = Gauge(name)
            return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._check_kind(name, "histogram")
                self._histograms[name] = Histogram(name)
            return self._histograms[name]

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time copy of every metric as plain values.
        Collision-free by construction: a name registers under exactly
        one kind (see :class:`MetricNameError`)."""
        with self._lock:
            out: Dict[str, object] = {}
            for name, c in self._counters.items():
                out[name] = c.value
            for name, g in self._gauges.items():
                out[name] = g.value
            for name, h in self._histograms.items():
                out[name] = h.summary()
            return out

    def typed_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Point-in-time copy keyed by metric kind — what the
        OpenMetrics/JSON exporters (:mod:`repro.obs.export`) consume,
        since the exposition format needs each name's type."""
        with self._lock:
            return {
                "counters": {n: c.value
                             for n, c in self._counters.items()},
                "gauges": {n: g.value for n, g in self._gauges.items()},
                "histograms": {n: h.summary()
                               for n, h in self._histograms.items()},
            }

    def reset(self) -> None:
        """Zero every metric **in place**.

        Dropping the instances (the old behavior) silently orphaned any
        handle a caller was still holding: a module-level
        ``metrics.counter("x")`` kept incrementing an object no longer
        in the registry, and its counts vanished from every subsequent
        snapshot.  Zeroing in place keeps every outstanding handle
        live — its next ``inc``/``set``/``observe`` is visible again."""
        with self._lock:
            for c in self._counters.values():
                c.zero()
            for g in self._gauges.values():
                g.zero()
            for h in self._histograms.values():
                h.zero()


#: The process-global registry the parallel backend feeds.
metrics = MetricsRegistry()
