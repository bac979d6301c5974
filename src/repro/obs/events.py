"""The structured event journal: an append-only JSONL record of what
the compile service *did*.

Metrics aggregate and spans time; neither answers "what happened to
request X, in order, across processes".  The journal does: every
producer — the compile pipeline (begin/end, per-tier cache outcomes),
the batch front end (submit/dedup/retry/fallback), the parallel
runtime (worker failure, retry, pool restart), fault injection, and
the autoscheduler search (round/candidate/prune/measure) — appends one
JSON object per line to the file named by the ``event_log`` knob of
:mod:`repro.settings`; with none named, ``emit`` is a cheap no-op.

Each line carries:

* ``name`` — dotted event name (``compile.begin``, ``batch.retry``, ...);
* ``cat`` — producer category (``compile`` / ``cache`` / ``batch`` /
  ``parallel`` / ``fault`` / ``search``);
* ``wall`` — ``time.time()`` (epoch seconds, for humans and log joins);
* ``mono_ns`` — ``time.perf_counter_ns()`` (the tracer's clock, so
  journal lines interleave correctly with trace spans);
* ``pid`` — the emitting process;
* ``compile_id`` — the correlation id (below), or null;
* ``fields`` — free-form producer payload.

**Correlation.**  Every compile gets a ``compile_id`` (also stored on
its :class:`~repro.driver.trace.CompileReport` and stamped onto its
tracer spans).  The id is *ambient*: :func:`compile_context` installs
it in a :class:`contextvars.ContextVar`, and every ``emit`` without an
explicit id picks it up — so the batch front end can issue the id at
``submit`` time and the pipeline, cache tiers, and fault paths that
serve that request all journal under it.  One
``grep <id> events.jsonl`` reconstructs the request's full story.

**Process safety.**  The journal file is opened ``O_APPEND`` and every
event is a single ``os.write`` of one complete line, which POSIX
appends atomically — concurrent writers (batch pool workers inherit
the environment and append to the same file) interleave whole lines,
never partial ones.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro import settings

#: Event categories used by the built-in producers.
EVT_COMPILE = "compile"
EVT_CACHE = "cache"
EVT_BATCH = "batch"
EVT_PARALLEL = "parallel"
EVT_FAULT = "fault"
EVT_SEARCH = "search"
EVT_RESILIENCE = "resilience"


# -- correlation --------------------------------------------------------------

_COMPILE_ID: "contextvars.ContextVar[Optional[str]]" = \
    contextvars.ContextVar("tiramisu_compile_id", default=None)


def new_compile_id() -> str:
    """A fresh correlation id: short enough to grep, unique across
    processes (16 hex digits of ``os.urandom``)."""
    return os.urandom(8).hex()


def current_compile_id() -> Optional[str]:
    """The ambient correlation id installed by :func:`compile_context`,
    or None."""
    return _COMPILE_ID.get()


@contextmanager
def compile_context(compile_id: Optional[str]):
    """Install ``compile_id`` as the ambient correlation id for the
    block.  Every ``emit`` without an explicit id inherits it, as does
    the compile pipeline's ``_begin`` — which is how a batch job's
    submit-time id ends up on the compile's report, spans and events."""
    token = _COMPILE_ID.set(compile_id)
    try:
        yield compile_id
    finally:
        _COMPILE_ID.reset(token)


# -- the journal --------------------------------------------------------------

class EventJournal:
    """One append-only JSONL destination.

    Keeps a single ``O_APPEND`` file descriptor; every event is one
    ``write`` call of one complete line, so concurrent processes
    appending to the same path never interleave partial records."""

    def __init__(self, path: str):
        self.path = str(path)
        self._fd: Optional[int] = None
        self._lock = threading.Lock()

    def _ensure_fd(self) -> Optional[int]:
        if self._fd is None:
            try:
                self._fd = os.open(
                    self.path,
                    os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            except OSError:
                return None
        return self._fd

    def write(self, record: Dict[str, object]) -> bool:
        """Serialize ``record`` and append it as one line; returns False
        when the destination is unusable (telemetry must never take the
        compile down)."""
        try:
            line = json.dumps(record, default=repr,
                              separators=(",", ":")) + "\n"
        except (TypeError, ValueError):
            return False
        data = line.encode("utf-8", errors="replace")
        with self._lock:
            fd = self._ensure_fd()
            if fd is None:
                return False
            try:
                os.write(fd, data)
            except OSError:
                return False
        return True

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                try:
                    os.close(self._fd)
                except OSError:
                    pass
                self._fd = None


# -- process-wide activation --------------------------------------------------

_journal: Optional[EventJournal] = None


def _active_journal() -> Optional[EventJournal]:
    """The journal for the ``event_log`` knob's current value;
    re-resolved on every call so tests (and long-lived services) can
    repoint the log without restarting."""
    global _journal
    path = settings.get("event_log")
    if _journal is not None and _journal.path != path:
        _journal.close()
        _journal = None
    if _journal is None and path is not None:
        _journal = EventJournal(path)
    return _journal


def emit(name: str, cat: str, compile_id: Optional[str] = None,
         **fields) -> bool:
    """Append one event; a no-op (returning False) when no journal is
    active.  ``compile_id=None`` inherits the ambient
    :func:`compile_context` id."""
    journal = _active_journal()
    if journal is None:
        return False
    if compile_id is None:
        compile_id = _COMPILE_ID.get()
    return journal.write({
        "name": name,
        "cat": cat,
        "wall": time.time(),
        "mono_ns": time.perf_counter_ns(),
        "pid": os.getpid(),
        "compile_id": compile_id,
        "fields": fields,
    })


def read_journal(path: str):
    """Parse a journal file into ``(records, torn_tail)``.

    The append discipline (one ``O_APPEND`` write per complete line)
    means the only damage a crash can leave is a *torn tail*: a final
    line cut short, with no trailing newline.  Such a fragment is
    returned as ``torn_tail`` (the raw text, or None) instead of
    failing the whole read — every complete record before it is still
    served.  An *interior* malformed line can never come from a crash
    and still raises ValueError naming it: that is a real bug.
    """
    out: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    # A file ending in "\n" splits to a trailing "" — complete file.
    # Anything else in the final slot is an unterminated fragment.
    fragment = lines.pop() if lines else ""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise ValueError(
                f"{path}:{lineno}: malformed journal line: {err}"
                ) from None
        if not isinstance(record, dict):
            raise ValueError(
                f"{path}:{lineno}: journal line is not an object")
        out.append(record)
    torn: Optional[str] = None
    if fragment.strip():
        # The write was cut mid-record; if what landed happens to
        # parse, the only thing missing was the newline — keep it.
        try:
            record = json.loads(fragment)
        except json.JSONDecodeError:
            torn = fragment
        else:
            if isinstance(record, dict):
                out.append(record)
            else:
                torn = fragment
    return out, torn


def read_events(path: str) -> List[Dict[str, object]]:
    """Parse a journal file back into event dicts.

    A torn trailing line (a crash mid-append) is tolerated: every
    complete record is returned and the fragment is dropped — use
    :func:`read_journal` to see the torn tail itself, or
    :func:`repair_journal` to truncate it away.  Interior malformed
    lines still raise ValueError naming the line: the journal's append
    discipline means those are real bugs, not expected races."""
    records, _ = read_journal(path)
    return records


def repair_journal(path: str) -> int:
    """Truncate a torn trailing record (anything after the last
    newline) off the journal; returns the number of bytes removed (0
    when the file was already clean or absent)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return 0
    if not data or data.endswith(b"\n"):
        return 0
    cut = data.rfind(b"\n") + 1  # 0 when no newline at all: empty file
    removed = len(data) - cut
    with open(path, "r+b") as fh:
        fh.truncate(cut)
    return removed
