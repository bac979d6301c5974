"""The benchmark's own span recorder.

Spans are recorded from the benchmark's files, around the calls into
each layer's public functions; nothing inside ``src/`` is instrumented.
A span has a name (``<layer>.<stage>``), start and end in nanoseconds,
the span that caused it, and the id of the operation (one compile, one
call, one search) it belongs to.  Spans stay in memory and are dumped
when the scenario ends.  A layer's *self time* is its span's duration
minus the part its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class Recorder:
    """In-memory span recorder; ``enabled=False`` makes ``span`` a
    no-op so the same replay code measures the recorder's own cost."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._op: Optional[str] = None

    @contextmanager
    def op(self, op_id: str):
        """All spans recorded inside share ``op_id``."""
        saved, self._op = self._op, op_id
        try:
            yield
        finally:
            self._op = saved

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {"name": name, "op": self._op,
                  "parent": self._stack[-1] if self._stack else None,
                  "start_ns": time.perf_counter_ns(), "end_ns": 0}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def timed(self, name: str, sink: List[float]):
        """A span whose wall time (ms) is also appended to ``sink``;
        with the recorder off it is just the stopwatch."""
        start = time.perf_counter()
        try:
            with self.span(name):
                yield
        finally:
            sink.append((time.perf_counter() - start) * 1e3)

    # -- reading ------------------------------------------------------------

    def self_times_ms(self) -> Dict[str, List[float]]:
        """Per span name, the self time of every span (ms)."""
        child_ns = [0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_ns[rec["parent"]] += rec["end_ns"] - rec["start_ns"]
        out: Dict[str, List[float]] = {}
        for index, rec in enumerate(self.spans):
            own = rec["end_ns"] - rec["start_ns"] - child_ns[index]
            out.setdefault(rec["name"], []).append(own / 1e6)
        return out

    def durations_ms(self, name: str, op_prefix: str = "") -> List[float]:
        return [(r["end_ns"] - r["start_ns"]) / 1e6 for r in self.spans
                if r["name"] == name
                and (r["op"] or "").startswith(op_prefix)]

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"unit": "ns", "clock": "perf_counter_ns",
                       "spans": self.spans}, handle)


#: The recorder that records nothing: the untraced pass, and the "off"
#: side of every trace-overhead measurement.
OFF = Recorder(enabled=False)
