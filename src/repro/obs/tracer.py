"""Span-based tracing across compile and run (one timeline).

The tracer collects :class:`Span` records from three producers —
compile-pipeline stages (re-using :class:`repro.driver.trace.
CompileReport` timings), runtime loop-nest spans emitted by profiled
kernels, and parallel-worker chunk spans reported back by the worker
threads — and exports them in the Chrome-trace (Perfetto) JSON event
format, so ``chrome://tracing`` or https://ui.perfetto.dev can render
compile and execution on one timeline.

Collection is on exactly when the ``trace_file`` knob of
:mod:`repro.settings` names a destination (written at interpreter exit,
or eagerly via :func:`write_trace_file`).

All timestamps are ``time.perf_counter_ns`` values: one monotonic clock
shared by the compile pipeline, the kernel wrapper and its worker
threads, which is what makes the single timeline line up.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import settings
from repro.atomicio import atomic_write

#: Span categories used by the built-in producers.
CAT_COMPILE = "compile-stage"
CAT_LOOP = "loop-nest"
CAT_PARALLEL = "parallel"
CAT_WORKER = "worker"
CAT_FAULT = "fault"  # retries, pool restarts, fallbacks, injected faults


@dataclass
class Span:
    """One closed interval on the timeline."""

    name: str
    cat: str
    start_ns: int
    dur_ns: int
    pid: int
    tid: object = "main"
    args: Dict[str, object] = field(default_factory=dict)

    def to_event(self) -> Dict[str, object]:
        """The Chrome-trace "complete event" (``ph: "X"``) form;
        timestamps are microseconds."""
        return {
            "name": self.name,
            "cat": self.cat,
            "ph": "X",
            "ts": self.start_ns / 1e3,
            "dur": self.dur_ns / 1e3,
            "pid": self.pid,
            "tid": self.tid,
            "args": dict(self.args),
        }


class Tracer:
    """A thread-safe append-only span log with Chrome-trace export."""

    def __init__(self):
        self._spans: List[Span] = []
        self._lock = threading.Lock()

    def enabled(self) -> bool:
        """Should producers record spans?  (The ``trace_file`` knob.)"""
        return settings.get("trace_file") is not None

    # -- recording --------------------------------------------------------

    def add(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def add_span(self, name: str, cat: str, start_ns: int, end_ns: int,
                 tid: object = "main", **args) -> None:
        self.add(Span(name=name, cat=cat, start_ns=int(start_ns),
                      dur_ns=max(0, int(end_ns) - int(start_ns)),
                      pid=os.getpid(), tid=tid, args=args))

    @contextmanager
    def span(self, name: str, cat: str = "span", **args):
        """Time a ``with`` block into one span (no-op when disabled)."""
        if not self.enabled():
            yield
            return
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.add_span(name, cat, start, time.perf_counter_ns(), **args)

    def record_compile(self, report) -> None:
        """Convert a :class:`~repro.driver.trace.CompileReport`'s stage
        timings into compile-stage spans on this timeline.  Spans carry
        the report's ``compile_id``, so the trace joins against the
        event journal (:mod:`repro.obs.events`) on one correlation
        key."""
        extra = {}
        compile_id = getattr(report, "compile_id", "")
        if compile_id:
            extra["compile_id"] = compile_id
        for stage in report.stages:
            start_ns = int(stage.start * 1e9)
            self.add_span(
                f"compile:{stage.name}", CAT_COMPILE, start_ns,
                start_ns + int(stage.seconds * 1e9),
                tid=f"compile {report.function}->{report.target}",
                function=report.function, target=report.target,
                cache=report.verdict, key=report.fingerprint[:16], **extra)

    def record_run(self, run_report) -> None:
        """Append a profiled run's loop-nest and worker spans."""
        for span in run_report.spans:
            self.add(span)

    # -- consumption ------------------------------------------------------

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # -- export -----------------------------------------------------------

    def to_chrome_trace(self) -> Dict[str, object]:
        return {
            "traceEvents": [s.to_event() for s in self.spans()],
            "displayTimeUnit": "ms",
        }

    def export(self, path: str) -> str:
        """Write the Chrome-trace JSON to ``path``; returns the path.

        Atomic (temp file + ``os.replace``): exporting while other
        threads are still emitting spans — the eager-flush path for
        fault-injected runs — always leaves a complete, parseable
        document on disk, never a torn one.  The span list itself is
        copied under the tracer lock, so a concurrent ``add`` is either
        wholly in this export or wholly in the next."""
        atomic_write(path, json.dumps(self.to_chrome_trace(),
                                      indent=1).encode())
        return path


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer instance."""
    return _TRACER


def write_trace_file(path: Optional[str] = None) -> Optional[str]:
    """Export the global tracer to ``path`` (default: the ``trace_file``
    knob).  Returns the written path, or None when there is no
    destination or nothing was recorded."""
    path = path or settings.get("trace_file")
    if not path or len(_TRACER) == 0:
        return None
    return _TRACER.export(path)


@atexit.register
def _flush_at_exit() -> None:  # pragma: no cover - exercised at exit
    try:
        write_trace_file()
    except OSError:
        pass
