"""Metrics export: OpenMetrics text exposition and JSON snapshots.

The :mod:`repro.obs.metrics` registry is in-process state; a service
needs it *outside* the process, in a format scrapers understand.  Two
writers:

* **OpenMetrics / Prometheus text** — :func:`render_openmetrics`
  serializes the registry: counters as ``<name>_total``, gauges as
  ``<name>``, histograms as Prometheus *summaries* (``{quantile="0.5"
  |0.9|0.99}`` series from the fixed-bucket estimates, plus ``_count``
  / ``_sum``).  Dots in metric names become underscores (``parallel.
  chunks`` -> ``parallel_chunks_total``); the text ends with ``# EOF``
  per the OpenMetrics spec.
* **JSON snapshot** — the registry's ``typed_snapshot()`` plus a
  timestamp, for harness dumps.

:func:`write_metrics_file` picks the format from the extension
(``*.json`` -> JSON, anything else -> OpenMetrics text) and writes
atomically (temp file + ``os.replace``), so a scraper never reads a
half-written exposition.

The ``metrics_file`` knob of :mod:`repro.settings` names the
destination: the file is written after every compile
(:func:`autoflush`), at interpreter exit, and on demand via
:func:`write_metrics_file`.  With no destination all of it is a no-op.
"""

from __future__ import annotations

import atexit
import json
import re
import time
from typing import Dict, Optional

from repro import settings
from repro.atomicio import atomic_write

from .metrics import MetricsRegistry, metrics

#: The summary quantiles exposed per histogram.
QUANTILES = (0.50, 0.90, 0.99)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_name(name: str) -> str:
    """A registry name as a legal Prometheus metric name (dots and any
    other punctuation become underscores; a leading digit is
    prefixed)."""
    out = _NAME_RE.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _fmt(value: float) -> str:
    """A float in exposition form (integers without the trailing .0,
    which keeps counters readable)."""
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_openmetrics(registry: Optional[MetricsRegistry] = None) -> str:
    """The registry as OpenMetrics text exposition (ending ``# EOF``)."""
    reg = metrics if registry is None else registry
    typed = reg.typed_snapshot()
    lines = []
    for name in sorted(typed["counters"]):
        metric = sanitize_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total {_fmt(typed['counters'][name])}")
    for name in sorted(typed["gauges"]):
        metric = sanitize_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(typed['gauges'][name])}")
    for name in sorted(typed["histograms"]):
        metric = sanitize_name(name)
        summary = typed["histograms"][name]
        lines.append(f"# TYPE {metric} summary")
        for q in QUANTILES:
            key = f"p{int(q * 100)}"
            lines.append(
                f'{metric}{{quantile="{q:g}"}} {_fmt(summary[key])}')
        lines.append(f"{metric}_count {_fmt(summary['count'])}")
        lines.append(f"{metric}_sum {_fmt(summary['total'])}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def parse_openmetrics(text: str) -> Dict[str, float]:
    """Parse an exposition back into ``{series: value}`` (labeled
    series keep their ``name{quantile="0.5"}`` spelling).  Raises
    ValueError on a malformed line or a missing ``# EOF`` terminator —
    the exporters-write-atomically guarantee makes anything else a real
    bug, and the acceptance tests lean on that."""
    out: Dict[str, float] = {}
    saw_eof = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) < 4 or parts[1] != "TYPE":
                raise ValueError(f"line {lineno}: malformed comment "
                                 f"{line!r}")
            continue
        try:
            series, value = line.rsplit(None, 1)
            out[series] = float(value)
        except ValueError:
            raise ValueError(
                f"line {lineno}: malformed sample {line!r}") from None
    if not saw_eof:
        raise ValueError("exposition is missing the # EOF terminator")
    return out


def render_json(registry: Optional[MetricsRegistry] = None) -> str:
    """The registry's typed snapshot as a JSON document with a
    timestamp."""
    reg = metrics if registry is None else registry
    return json.dumps({"wall": time.time(), "metrics":
                       reg.typed_snapshot()}, indent=1, sort_keys=True)


def write_metrics_file(path: Optional[str] = None,
                       registry: Optional[MetricsRegistry] = None
                       ) -> Optional[str]:
    """Write the registry to ``path`` (default: the ``metrics_file``
    knob) — JSON when the name ends ``.json``, OpenMetrics text
    otherwise.  Atomic: a scraper racing the writer sees the old
    complete file or the new complete file, never a torn one.  Returns
    the written path, or None when there is no destination or it is
    unwritable (telemetry must never take the compile down)."""
    path = path or settings.get("metrics_file")
    if not path:
        return None
    if path.endswith(".json"):
        text = render_json(registry)
    else:
        text = render_openmetrics(registry)
    try:
        atomic_write(path, text.encode())
    except OSError:
        return None
    return path


def autoflush() -> None:
    """The compile pipeline's per-compile hook: rewrite the metrics
    file if one is named.  One knob read when telemetry is off."""
    path = settings.get("metrics_file")
    if path is not None:
        write_metrics_file(path)


@atexit.register
def _flush_at_exit() -> None:  # pragma: no cover - exercised at exit
    try:
        write_metrics_file()
    except Exception:  # noqa: BLE001 - never fail interpreter exit
        pass
