"""Per-run kernel profiles: what a ``profile=True`` kernel measured.

Compiling with ``profile=True`` makes the CPU backend emit lightweight
counters around every computation's loop nest (see
:mod:`repro.codegen.pyemit`): statement-instance counts, bytes written,
and wall nanoseconds per top-level loop nest.  The kernel wrapper
gathers them through a :class:`RunCollector` and attaches a
:class:`RunReport` to the kernel after every call (``kernel.last_run``).
The default path (``profile=False``) emits byte-identical source to an
unprofiled build — zero overhead when off.

Threads executing parallel chunks each build their own collector and
return its snapshot with the chunk result, and the calling thread
merges it — so iteration counts stay exact under multicore execution.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .tracer import CAT_LOOP, CAT_PARALLEL, CAT_WORKER, Span


@dataclass
class CompRecord:
    """Measured per-computation counters for one kernel run.

    ``wall_ns`` is the time of the top-level loop nest(s) the
    computation ran in; fused computations sharing a nest are each
    attributed the full nest time.
    """

    name: str
    iterations: int = 0
    wall_ns: int = 0
    bytes_written: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "iterations": self.iterations,
                "wall_ns": self.wall_ns,
                "bytes_written": self.bytes_written}


class RunCollector:
    """The object profiled kernel source reports into (``_obs``).

    Emitted code calls :meth:`count` once per flushed counter set and
    :meth:`span` once per top-level loop nest; the parallel runtime
    calls :meth:`worker_span` / :meth:`merge` for chunks run on
    threads.  Collectors are cheap to build per call and per chunk.
    """

    __slots__ = ("counts", "spans")

    def __init__(self):
        # name -> [iterations, bytes_written]
        self.counts: Dict[str, List[int]] = {}
        self.spans: List[Span] = []

    # -- called from emitted kernel source --------------------------------

    def count(self, name: str, iterations: int, nbytes: int) -> None:
        rec = self.counts.get(name)
        if rec is None:
            self.counts[name] = [int(iterations), int(nbytes)]
        else:
            rec[0] += int(iterations)
            rec[1] += int(nbytes)

    def span(self, var: str, comps: Tuple[str, ...], start_ns: int,
             end_ns: int, cat: str = CAT_LOOP) -> None:
        self.spans.append(Span(
            name=f"loop:{var}", cat=cat, start_ns=int(start_ns),
            dur_ns=max(0, int(end_ns) - int(start_ns)),
            pid=os.getpid(), tid="run",
            args={"comps": list(comps)}))

    # -- called from the parallel runtime ---------------------------------

    def worker_span(self, body: str, lo: int, hi: int, start_ns: int,
                    end_ns: int, thread: int) -> None:
        """One chunk, on the lane of the thread that ran it."""
        self.spans.append(Span(
            name=f"{body}[{lo}:{hi}]", cat=CAT_WORKER,
            start_ns=int(start_ns),
            dur_ns=max(0, int(end_ns) - int(start_ns)),
            pid=os.getpid(), tid=f"thread-{thread}",
            args={"lo": int(lo), "hi": int(hi), "worker_pid": os.getpid(),
                  "thread_id": int(thread)}))

    def merge(self, snapshot: Optional[Dict[str, object]]) -> None:
        """Fold a worker collector's :meth:`snapshot` into this one."""
        if not snapshot:
            return
        for name, (iters, nbytes) in snapshot.get("counts", {}).items():
            self.count(name, iters, nbytes)

    def snapshot(self) -> Dict[str, object]:
        """A plain copy of the counts, for :meth:`merge`."""
        return {"counts": {k: list(v) for k, v in self.counts.items()}}


@dataclass
class RunReport:
    """What one profiled kernel call did and what it cost."""

    function: str
    target: str = "cpu"
    wall_seconds: float = 0.0
    computations: Dict[str, CompRecord] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)
    parallel: Dict[str, object] = field(default_factory=dict)

    @property
    def total_iterations(self) -> int:
        return sum(r.iterations for r in self.computations.values())

    @property
    def total_bytes_written(self) -> int:
        return sum(r.bytes_written for r in self.computations.values())

    def comp(self, name: str) -> CompRecord:
        return self.computations[name]

    def to_dict(self) -> Dict[str, object]:
        return {
            "function": self.function,
            "target": self.target,
            "wall_seconds": self.wall_seconds,
            "computations": {name: rec.to_dict()
                             for name, rec in self.computations.items()},
            "spans": [s.to_event() for s in self.spans],
            "parallel": dict(self.parallel),
        }

    def format_table(self) -> str:
        lines = [f"== tiramisu run: {self.function} "
                 f"[{self.wall_seconds * 1e3:.3f} ms] =="]
        width = max([len("computation")]
                    + [len(n) for n in self.computations])
        lines.append(f"  {'computation':<{width}} {'iterations':>12} "
                     f"{'ms':>10} {'bytes':>12}")
        for name in sorted(self.computations):
            rec = self.computations[name]
            lines.append(
                f"  {name:<{width}} {rec.iterations:>12} "
                f"{rec.wall_ns / 1e6:>10.3f} {rec.bytes_written:>12}")
        if self.parallel:
            p = self.parallel
            lines.append(
                f"  parallel: {p.get('regions', 0)} region(s), "
                f"{p.get('chunks', 0)} chunk(s), "
                f"{p.get('workers', 0)} worker(s)")
        return "\n".join(lines)


def build_run_report(function: str, target: str, wall_ns: int,
                     collector: RunCollector,
                     comp_names: List[str],
                     parallel: Optional[Dict[str, object]] = None
                     ) -> RunReport:
    """Assemble the :class:`RunReport` for one finished kernel call.

    Every name in ``comp_names`` gets a record (zero-iteration
    computations — empty domains — still show up); nest wall time is
    attributed to each computation the nest contains.
    """
    records = {name: CompRecord(name) for name in comp_names}
    for name, (iters, nbytes) in collector.counts.items():
        rec = records.setdefault(name, CompRecord(name))
        rec.iterations = iters
        rec.bytes_written = nbytes
    for span in collector.spans:
        if span.cat not in (CAT_LOOP, CAT_PARALLEL):
            continue
        for name in span.args.get("comps", ()):
            if name in records:
                records[name].wall_ns += span.dur_ns
    return RunReport(function=function, target=target,
                     wall_seconds=wall_ns / 1e9,
                     computations=records,
                     spans=list(collector.spans),
                     parallel=dict(parallel or {}))
