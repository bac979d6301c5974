"""Per-stage compile profiling: stage timings, cache counters, trace.

Every compiled kernel carries a :class:`CompileReport` (``kernel.report``)
recording wall time per pipeline stage, whether the compile was served
from the content-addressed cache, the emitted source size, and a
snapshot of the cache counters.  With the ``trace`` knob of
:mod:`repro.settings` on, the stage table is printed to stderr after
every compile — the autoscheduler's and benchmark harness's way of
seeing where compile time goes.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import settings

from .stats import CacheStats, CacheStatsGroup


@dataclass
class StageTiming:
    """Wall time of one named pipeline stage.

    ``start`` is the ``time.perf_counter()`` value at stage entry, which
    places the stage on the observability tracer's timeline
    (:meth:`repro.obs.tracer.Tracer.record_compile`)."""

    name: str
    seconds: float
    start: float = 0.0


@dataclass
class CompileReport:
    """What one ``compile()`` call did and what it cost."""

    function: str
    target: str
    fingerprint: str = ""
    #: The correlation id tying this compile's events
    #: (:mod:`repro.obs.events`), tracer spans and report together —
    #: issued by the pipeline, or inherited from an ambient
    #: :func:`repro.obs.events.compile_context` (the batch front end
    #: issues ids at submit time).
    compile_id: str = ""
    cache_hit: bool = False
    #: Served from the durable on-disk artifact tier (the compile
    #: skipped every lowering stage and re-bound stored source); see
    #: :mod:`repro.driver.diskcache`.
    disk_hit: bool = False
    stages: List[StageTiming] = field(default_factory=list)
    source_size: int = 0
    deps_checked: Optional[int] = None
    races_checked: Optional[int] = None
    #: What the function's DependenceSummary did for this compile (None:
    #: never consulted): dependences it holds, emptiness questions its
    #: level walks asked, and level profiles found again rather than
    #: rebuilt (an earlier check of the same function object).
    deps_count: Optional[int] = None
    level_tests: Optional[int] = None
    profiles_reused: Optional[int] = None
    parallel_regions: int = 0
    #: ``vector``-tagged loops lowered to whole-range NumPy statements,
    #: and ``"<loop>: <reason>"`` for each one left scalar (read off
    #: the emitted source, see repro.codegen.pyemit.vector_summary).
    vector_loops: int = 0
    vector_declines: List[str] = field(default_factory=list)
    parallel_workers: Optional[int] = None
    #: In-memory kernel-registry counters at finish time — a
    #: :class:`~repro.driver.stats.CacheStats` (tier ``memory``).
    cache_stats: Dict[str, int] = field(default_factory=dict)
    #: Point-in-time counters of the process-wide ISL memo caches
    #: (:mod:`repro.isl.cache`): emptiness and composition hits/misses
    #: and current sizes.  Cumulative across compiles, like cache_stats.
    #: Tiers ``isl.empty`` / ``isl.compose``.
    isl_cache_stats: CacheStatsGroup = field(
        default_factory=CacheStatsGroup)
    #: Disk-tier counters and ``max_bytes`` at finish time (tier
    #: ``disk``, from memory: the directory scan of ``size`` and the
    #: byte totals is ``DiskCache.stats()``'s); empty when inactive.
    disk_cache_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def caches(self) -> Dict[str, CacheStats]:
        """Every cache tier this compile saw, by tier name, in the
        unified :class:`~repro.driver.stats.CacheStats` vocabulary:
        ``memory``, ``disk`` (when active), ``isl.empty`` and
        ``isl.compose``."""
        out: Dict[str, CacheStats] = {}
        if self.cache_stats:
            out["memory"] = self.cache_stats
        if self.disk_cache_stats:
            out["disk"] = self.disk_cache_stats
        out.update(self.isl_cache_stats.tiers)
        return out

    @property
    def total_seconds(self) -> float:
        return sum(s.seconds for s in self.stages)

    @property
    def verdict(self) -> str:
        """Which tier served the compile: ``hit`` (memory), ``disk`` or
        ``miss`` — the one word the trace table, the ``compile.end``
        event and the tracer's compile spans all carry."""
        return "hit" if self.cache_hit else "disk" if self.disk_hit \
            else "miss"

    def stage_seconds(self, name: str) -> Optional[float]:
        for s in self.stages:
            if s.name == name:
                return s.seconds
        return None

    def stage_names(self) -> List[str]:
        return [s.name for s in self.stages]

    def analysis(self) -> Dict[str, Optional[int]]:
        """The dependence-analysis counters (what a batch worker ships
        back beside its stage timings)."""
        return {name: getattr(self, name) for name in (
            "deps_checked", "races_checked", "deps_count", "level_tests",
            "profiles_reused")}

    @contextmanager
    def timed(self, name: str):
        """Time a pipeline stage and append it to the report."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stages.append(
                StageTiming(name, time.perf_counter() - start, start))

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (consumed by the trace exporter and
        harness dumps)."""
        return {
            "function": self.function,
            "target": self.target,
            "fingerprint": self.fingerprint,
            "compile_id": self.compile_id,
            "cache_hit": self.cache_hit,
            "disk_hit": self.disk_hit,
            "stages": [{"name": s.name, "seconds": s.seconds,
                        "start": s.start} for s in self.stages],
            "total_seconds": self.total_seconds,
            "source_size": self.source_size,
            **self.analysis(),
            "parallel_regions": self.parallel_regions,
            "vector_loops": self.vector_loops,
            "vector_declines": list(self.vector_declines),
            "parallel_workers": self.parallel_workers,
            "cache_stats": dict(self.cache_stats),
            "isl_cache_stats": {
                tier: dict(stats)
                for tier, stats in self.isl_cache_stats.tiers.items()},
            "disk_cache_stats": dict(self.disk_cache_stats),
        }

    def format_table(self) -> str:
        lines = [f"== tiramisu compile: {self.function} -> {self.target} "
                 f"[cache {self.verdict}] =="]
        # Size the stage column to the longest name so long stage names
        # (e.g. race-check descendants) keep the ms column aligned.
        width = max([16] + [len(s.name) for s in self.stages])
        lines.append(f"  {'stage':<{width}} {'ms':>10}")
        for s in self.stages:
            lines.append(f"  {s.name:<{width}} {s.seconds * 1e3:>10.3f}")
        lines.append(
            f"  {'total':<{width}} {self.total_seconds * 1e3:>10.3f}")
        if self.source_size:
            lines.append(f"  source: {self.source_size} bytes")
        if self.deps_checked is not None:
            lines.append(f"  legality: {self.deps_checked} dependences "
                         "checked")
        if self.races_checked is not None:
            lines.append(f"  race-check: {self.races_checked} tagged "
                         "levels race-free")
        if self.deps_count is not None:
            lines.append(f"  deps: {self.deps_count} dependences, "
                         f"{self.level_tests} level tests, "
                         f"{self.profiles_reused} profiles reused")
        if self.parallel_regions:
            workers = self.parallel_workers or 1
            lines.append(f"  parallel: {self.parallel_regions} region(s) "
                         f"x {workers} worker(s)")
        if self.vector_loops or self.vector_declines:
            lines.append(
                f"  vector: {self.vector_loops} loop(s) vectorized"
                + "".join(f"; {d}" for d in self.vector_declines))
        for tier, stats in self.caches.items():
            label = "cache" if tier == "memory" else tier
            lines.append(f"  {label}: {stats.format_line()}")
        lines.append(f"  key: {self.fingerprint[:16]}")
        if self.compile_id:
            lines.append(f"  compile id: {self.compile_id}")
        return "\n".join(lines)


def emit_trace(report: CompileReport, stream=None) -> None:
    """Print the stage table when the ``trace`` knob is on."""
    if not settings.get("trace"):
        return
    print(report.format_table(), file=stream if stream is not None
          else sys.stderr)
