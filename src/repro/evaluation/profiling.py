"""Compile-driver profiling for the evaluation harness.

The autoscheduler and the benchmark harness recompile the same pipeline
over and over (a schedule search compiles thousands of near-identical
variants); this module measures what the staged driver's
content-addressed cache buys on that loop and turns per-stage
:class:`~repro.driver.trace.CompileReport` data into rows for the
harness's tables.  Ablation runs set ``TIRAMISU_TRACE=1`` so every
compile also prints its stage table (see docs/compiler_driver.md).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro import settings
from repro.driver import kernel_registry


def compile_profile(bundle_builder: Callable, schedule_fn: Optional[
        Callable] = None, target: str = "cpu", warm_runs: int = 3) -> Dict:
    """Cold-vs-warm compile profile for one kernel bundle.

    Clears the kernel registry, compiles once cold (every pipeline stage
    runs) and ``warm_runs`` times warm (served by the cache), and
    returns both reports plus the measured speedup — the number the
    schedule-search hot loop cares about.
    """
    kernel_registry.clear()
    bundle = bundle_builder()
    if schedule_fn is not None:
        schedule_fn(bundle)
    fn = bundle.function
    cold = fn.compile(target).report
    warm = cold
    for __ in range(max(1, warm_runs)):
        warm = fn.compile(target).report
    return {
        "cold_report": cold,
        "warm_report": warm,
        "cold_seconds": cold.total_seconds,
        "warm_seconds": warm.total_seconds,
        "speedup": cold.total_seconds / max(warm.total_seconds, 1e-12),
        "cache": kernel_registry.stats(),
        "traced": settings.get("trace"),
    }


def stage_rows(report, prefix: str = "") -> Dict[str, float]:
    """CompileReport -> ``{stage: milliseconds}`` rows for print_table."""
    rows = {f"{prefix}{s.name} (ms)": round(s.seconds * 1e3, 3)
            for s in report.stages}
    rows[f"{prefix}total (ms)"] = round(report.total_seconds * 1e3, 3)
    return rows
