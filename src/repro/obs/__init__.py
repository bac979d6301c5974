"""Runtime observability: per-computation profiles, span tracing,
worker metrics.

Three cooperating pieces (see docs/observability.md):

* :mod:`repro.obs.runreport` — ``profile=True`` kernels attach a
  :class:`RunReport` (iterations / wall ns / bytes written per
  computation) to ``kernel.last_run`` after every call;
* :mod:`repro.obs.tracer` — a span timeline joining compile stages,
  runtime loop nests and parallel-worker chunks, exported as
  Chrome-trace/Perfetto JSON (the ``trace_file`` knob);
* :mod:`repro.obs.metrics` — a process-safe counters/gauges/histograms
  registry the parallel runtime feeds (chunk timings and sizes),
  recorded by the calling thread;
* :mod:`repro.obs.events` — ``emit``, the one call at a decision site:
  it bumps the counter of the event's name and appends to an
  append-only structured JSONL event journal (the ``event_log`` knob),
  with a per-compile correlation id threaded through the driver, cache
  tiers, batch front end, fault paths and autoscheduler search;
* :mod:`repro.obs.export` — OpenMetrics/Prometheus text and JSON
  snapshot writers over the registry (the ``metrics_file`` knob).

Every knob is a row of :mod:`repro.settings`.
"""

from .events import (EventJournal, compile_context, current_compile_id,
                     emit, new_compile_id, read_events)
from .export import (parse_openmetrics, render_json, render_openmetrics,
                     write_metrics_file)
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
    "parse_openmetrics",
    "read_events",
    "render_json",
    "render_openmetrics",
    "write_metrics_file",
    "write_trace_file",
]
