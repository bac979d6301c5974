"""The one settings table: every process-wide knob, how it is spelled in
the environment, how its value is parsed, and what it defaults to.

A knob's value is resolved *at call time* by :func:`get`, lowest
priority first: the table's default, the environment variable (so a
forked pool worker and a fresh interpreter inherit the disk-tier
directory and the event log, and ``monkeypatch.setenv`` or a long-lived
service can repoint a sink without restarting), an explicit override
installed with :func:`set` or the :func:`override` context manager.  An
explicit ``None`` means "the default, whatever the environment says" —
for the sinks (``event_log``, ``cache_dir``, ...) that is *off*.  A
constructor or compile argument (``CircuitBreaker(threshold=)``,
``BatchCompiler(max_pending=)``, ``timeout=``) still beats the table
for that one object: :func:`resolve`.

Every malformed value, from either source, fails the same way:
``ValueError("<ENV or argument> must be <kind>, got <value>")``, at the
first read.

This is a leaf module — it imports nothing from ``repro`` — so any
layer can read its knob without reaching upward.  ``python -m
repro.settings`` prints the resolved table (``--markdown``: the table
in docs/compiler_driver.md).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, NamedTuple


# -- kinds: one label + one converter per value shape -------------------------

class Kind(NamedTuple):
    """``convert`` turns an environment string or an explicit value
    into the knob's value, raising ValueError/TypeError when it
    cannot; ``label`` completes "must be ..." in the error."""

    label: str
    convert: Callable[[object], object]


_FLAG_WORDS = {"1": True, "true": True, "on": True, "yes": True,
               "0": False, "false": False, "off": False, "no": False}


def _flag(value):
    return _FLAG_WORDS[str(value).strip().lower()]


def _int(value) -> int:
    if isinstance(value, (bool, float)):
        raise ValueError(value)      # 2.7 is an error, not a 2
    return int(value)


def _float(value) -> float:
    if isinstance(value, bool):
        raise ValueError(value)
    return float(value)


def _number(parse: Callable, in_range: Callable) -> Callable:
    def convert(value):
        n = parse(value)
        if not in_range(n):
            raise ValueError(value)
        return n
    return convert


def _path(value) -> str:
    text = os.fspath(value).strip()
    if not text:
        raise ValueError(value)
    return text


flag = Kind("a flag (1/0, true/false, on/off, yes/no)", _flag)
positive_int = Kind("a positive int", _number(_int, lambda n: n >= 1))
non_negative_int = Kind("a non-negative int",
                        _number(_int, lambda n: n >= 0))
positive_float = Kind("a positive number",
                      _number(_float, lambda x: x > 0))
path = Kind("a path", _path)


def choice(*allowed: str) -> Kind:
    def convert(value):
        if value not in allowed:
            raise ValueError(value)
        return value
    return Kind(f"one of {', '.join(allowed)}", convert)


# -- the table ----------------------------------------------------------------

class Knob(NamedTuple):
    env: str
    kind: Kind
    default: object
    help: str


KNOBS: Dict[str, Knob] = {
    "trace": Knob(
        "TIRAMISU_TRACE", flag, False,
        "print each compile's stage table to stderr"),
    "trace_file": Knob(
        "TIRAMISU_TRACE_FILE", path, None,
        "collect tracer spans and write them here as Chrome-trace JSON "
        "(at exit, and eagerly on fault paths)"),
    "event_log": Knob(
        "TIRAMISU_EVENT_LOG", path, None,
        "append the structured JSONL event journal here"),
    "metrics_file": Knob(
        "TIRAMISU_METRICS_FILE", path, None,
        "write the metrics registry here after each compile and at "
        "exit (`*.json`: JSON snapshot, else OpenMetrics text)"),
    "isl_cache": Knob(
        "TIRAMISU_ISL_CACHE", flag, True,
        "memoize isl emptiness tests and compositions"),
    "timeout": Knob(
        "TIRAMISU_TIMEOUT", positive_float, None,
        "seconds: the request budget of a compile and the per-receive "
        "deadline of a distributed run, under the `timeout=` option"),
    "breaker_threshold": Knob(
        "TIRAMISU_BREAKER_THRESHOLD", positive_int, 3,
        "consecutive pool failures that trip the circuit breaker open"),
    "breaker_cooldown": Knob(
        "TIRAMISU_BREAKER_COOLDOWN", positive_float, 30.0,
        "seconds the breaker stays open before its half-open probe"),
    "cache_dir": Knob(
        "TIRAMISU_CACHE_DIR", path, None,
        "directory of the durable disk artifact tier"),
    "cache_max_bytes": Knob(
        "TIRAMISU_CACHE_MAX_BYTES", positive_int, 256 * 1024 * 1024,
        "byte bound of the disk tier (LRU eviction by mtime)"),
    "cache_max_quarantine": Knob(
        "TIRAMISU_CACHE_MAX_QUARANTINE", non_negative_int, 8,
        "quarantined corrupt artifacts kept as evidence"),
    "max_pending": Knob(
        "TIRAMISU_MAX_PENDING", positive_int, None,
        "distinct in-flight jobs a `BatchCompiler` admits "
        "(unset: unbounded)"),
    "max_queued_bytes": Knob(
        "TIRAMISU_MAX_QUEUED_BYTES", positive_int, None,
        "estimated bytes those jobs may hold (unset: unbounded)"),
    "admission_policy": Knob(
        "TIRAMISU_ADMISSION_POLICY",
        choice("reject", "block", "shed-oldest"), "reject",
        "what a submit over capacity does"),
}

_overrides: Dict[str, object] = {}


def _convert(name: str, spelled: str, value):
    """``value`` as knob ``name``'s kind; ``spelled`` is what the user
    wrote (the environment variable or the argument) for the error."""
    kind = KNOBS[name].kind
    try:
        return kind.convert(value)
    except (KeyError, TypeError, ValueError):
        raise ValueError(
            f"{spelled} must be {kind.label}, got {value!r}") from None


# -- reading ------------------------------------------------------------------

def get(name: str):
    """The knob's value now: override, else environment, else default."""
    if name in _overrides:
        return _overrides[name]
    knob = KNOBS[name]
    raw = os.environ.get(knob.env)
    if raw is not None:
        raw = raw.strip()
        if raw:
            return _convert(name, knob.env, raw)
    return knob.default


def resolve(name: str, explicit=None):
    """A constructor or call argument beats the table for that one
    object: ``explicit`` (validated like the knob, the error naming the
    argument) unless it is None, else :func:`get`."""
    if explicit is None:
        return get(name)
    return _convert(name, name, explicit)


def source(name: str) -> str:
    """Where :func:`get` finds the value: override / env / default."""
    if name in _overrides:
        return "override"
    return "env" if os.environ.get(KNOBS[name].env, "").strip() \
        else "default"


# -- explicit overrides (process-global, not thread-scoped) -------------------

def set(**values) -> None:  # noqa: A001 - settings.set(...) reads right
    """Pin knobs for the process until :func:`reset`; ``None`` pins the
    default (the environment is ignored either way)."""
    unknown = sorted(values.keys() - KNOBS.keys())
    if unknown:
        raise KeyError(f"unknown setting(s): {', '.join(unknown)}")
    _overrides.update({
        name: KNOBS[name].default if value is None
        else _convert(name, name, value)
        for name, value in values.items()})


def reset(*names: str) -> None:
    """Forget the overrides of ``names`` (all of them when none is
    given): the environment decides again."""
    for name in names or tuple(_overrides):
        _overrides.pop(name, None)


@contextmanager
def override(**values) -> Iterator[None]:
    """:func:`set` for a ``with`` block; nests, and restores what was
    pinned before on the way out, exception or not."""
    saved = {name: _overrides[name] for name in values
             if name in _overrides}
    set(**values)
    try:
        yield
    finally:
        for name in values:
            _overrides.pop(name, None)
        _overrides.update(saved)


# -- the resolved table -------------------------------------------------------

def markdown_table() -> str:
    lines = ["| knob | environment variable | value | default | meaning |",
             "|---|---|---|---|---|"]
    for name, knob in KNOBS.items():
        default = "unset" if knob.default is None else f"`{knob.default}`"
        lines.append(f"| `{name}` | `{knob.env}` | {knob.kind.label} "
                     f"| {default} | {knob.help} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    import sys
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--markdown"]:
        print(markdown_table())
        return 0
    if argv:
        print("usage: python -m repro.settings [--markdown]",
              file=sys.stderr)
        return 2
    rows = [("knob", "env var", "kind", "default", "value", "from")]
    for name, knob in KNOBS.items():
        try:
            value = get(name)
        except ValueError as err:   # do not hide the other rows
            value = f"error: {err}"
        rows.append((name, knob.env, knob.kind.label, str(knob.default),
                     str(value), source(name)))
    widths = [max(len(row[col]) for row in rows) for col in range(6)]
    for row in rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
