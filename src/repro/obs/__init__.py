"""Runtime observability (docs/observability.md): per-computation run
profiles (:mod:`.runreport`, ``kernel.last_run`` of ``profile=True``
kernels), a span timeline exported as Chrome-trace JSON
(:mod:`.tracer`, the ``trace_file`` knob), a counters / gauges /
histograms registry (:mod:`.metrics`) with OpenMetrics and JSON writers
(:mod:`.export`, the ``metrics_file`` knob), and ``emit``, the one call
at a decision site, which bumps the counter of the event's name and
appends to the JSONL journal with the compile's correlation id
(:mod:`.events`, the ``event_log`` knob).
A compile imports :mod:`.export` only while ``metrics_file`` is set.
"""

from .events import (EventJournal, compile_context, current_compile_id,
                     emit, new_compile_id, read_events)
from .metrics import (Counter, Gauge, Histogram, MetricNameError,
                      MetricsRegistry, metrics)
from .runreport import (CompRecord, RunCollector, RunReport,
                        build_run_report)
from .tracer import (CAT_COMPILE, CAT_FAULT, CAT_LOOP, CAT_PARALLEL,
                     CAT_WORKER, Span, Tracer, get_tracer,
                     write_trace_file)

__all__ = [
    "CAT_COMPILE",
    "CAT_FAULT",
    "CAT_LOOP",
    "CAT_PARALLEL",
    "CAT_WORKER",
    "CompRecord",
    "Counter",
    "EventJournal",
    "Gauge",
    "Histogram",
    "MetricNameError",
    "MetricsRegistry",
    "RunCollector",
    "RunReport",
    "Span",
    "Tracer",
    "build_run_report",
    "compile_context",
    "current_compile_id",
    "emit",
    "get_tracer",
    "metrics",
    "new_compile_id",
    "read_events",
    "write_trace_file",
]
