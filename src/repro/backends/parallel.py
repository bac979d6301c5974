"""Multicore execution of ``parallelize``-tagged loops, in the caller's
process.

The CPU backend emits each safe top-level parallel loop as a chunked
worker function ``_par_body_k(_bufs, _params, _lo, _hi)`` (see
:mod:`repro.codegen.pyemit`).  This module's runtime splits the range
``[lo, hi]`` into at most ``num_threads`` contiguous chunks and decides,
per region and per call (one :class:`DispatchPlan`, with its reason),
what runs them:

* **threads** over the caller's own arrays, for a *slab region* — a body
  with no Python ``for`` in it: a bounds guard plus whole-slab NumPy
  statements, which release the GIL.  Nothing is copied;
* **inline** otherwise: a *loop region* (a Python ``for`` nest holds the
  GIL, so its chunks would only take turns), a slab region of a call
  below :data:`THREAD_FLOOR_BYTES`, a region of one iteration, and any
  region of a one-worker runtime (``parallel=False``, ``num_threads=1``).

A slab region of a call at or above the floor also runs in *strips*:
each chunk — or, inline, the whole range — runs as consecutive pieces
whose share of the call's largest array is about :data:`STRIP_BYTES`,
so that an operand slice and the NumPy temporaries of one statement
stay in the L2 cache instead of streaming past it.  A strip is the
whole-range slab cut along its outermost axis and the strips run in
that axis's order, so a legal slab is a legal strip sequence: inside a
strip every read and write pair runs as it does in the whole slab,
across strips the source runs before the sink, as in the original
loop.

Like the native backend's OpenMP team, every thread shares the one
address space: no worker process, no staging copy.  A thread writing
the caller's arrays can be neither killed nor abandoned, so chunks have
no timeout and no retry: every chunk is joined before an error is
raised.  Exceptions raised *by* the loop body are deterministic
application errors and surface as one :class:`ExecutionError`.
"""

from __future__ import annotations

import hashlib
import os
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from repro.core.errors import ExecutionError
from repro.obs.events import emit
from repro.obs.metrics import metrics

if TYPE_CHECKING:
    # imported where a thread is dispatched: a one-worker runtime (a
    # sequential kernel's strips) never loads concurrent.futures
    from concurrent.futures import Future, ThreadPoolExecutor

#: A slab region runs on threads when the largest array its call binds
#: has at least this many bytes, inline below: the hand-off costs
#: ~0.1 ms, which slabs of under a MiB do not win back (measured per
#: program in EXPERIMENTS.md, "cpu backend: thread dispatch").
THREAD_FLOOR_BYTES = 1 << 20

#: A slab region of a call at or above the floor runs its range in
#: strips whose share of the call's largest array is about this many
#: bytes: a quarter of a 2 MiB L2 (256 KiB, 512 KiB and 1 MiB measured
#: in EXPERIMENTS.md, "Cache strips").
STRIP_BYTES = 512 << 10


@dataclass(frozen=True)
class DispatchPlan:
    """Where one region runs on one call, and why."""
    kind: str    # "inline" | "threads"
    reason: str  # slab | strips | python-loop | below-floor | single-iteration
    strips: int = 0  # pieces the range ran as; 0: each chunk ran whole


BELOW_FLOOR = DispatchPlan("inline", "below-floor")
PYTHON_LOOP = DispatchPlan("inline", "python-loop")


def _largest(arrays: Dict[str, np.ndarray]) -> int:
    return max((a.nbytes for a in arrays.values()), default=0)


def strip_rows(trip: int, largest: int) -> int:
    """Rows of one strip of a ``trip``-row slab region whose call binds
    a largest array of ``largest`` bytes: the range's share of that
    array is about :data:`STRIP_BYTES` per strip."""
    return max(1, trip * STRIP_BYTES // max(1, largest))


def striped(body, rows: int):
    """``body`` over ``[lo, hi]`` as consecutive strips of ``rows``
    rows (the last one ragged), in order, on the calling thread."""
    def strips(bufs, params, lo, hi, *obs):
        for start in range(lo, hi + 1, rows):
            body(bufs, params, start, min(start + rows - 1, hi), *obs)
    return strips


def region_kinds(source: str) -> Dict[str, bool]:
    """The chunk bodies of an emitted source (``def name(_bufs, _params,
    _lo, _hi``) -> whether each holds a Python ``for`` (a ``# parallel
    chunk`` loop, an ``outside slab`` loop): True is a GIL-bound *loop
    region*, False a *slab region*.  Read at every bind: string splits,
    a few microseconds."""
    kinds = {}
    for text in ("\n" + source).split("\ndef ")[1:]:
        name, __, rest = text.partition("(")
        if rest.startswith("_bufs, _params, _lo, _hi"):
            kinds[name] = re.search(r"\n\s+for ", rest) is not None
    return kinds


def resolve_num_threads(value) -> int:
    """The ``num_threads`` compile option resolved to a worker count:
    ``None`` (or 0) means every core the machine has."""
    if isinstance(value, bool):
        raise ValueError(f"num_threads must be a positive int, got {value!r}")
    if value is None or value == 0:
        return os.cpu_count() or 1
    n = int(value)
    if n < 1 or n != value:
        raise ValueError(f"num_threads must be a positive int, got {value!r}")
    return n


def chunk_ranges(lo: int, hi: int, n: int) -> List[Tuple[int, int]]:
    """Split the inclusive range [lo, hi] into <= n balanced contiguous
    chunks (the larger chunks first).  An empty range (hi < lo) yields
    no chunks; n < 1 degrades to a single chunk."""
    trip = hi - lo + 1
    if trip <= 0:
        return []
    n = max(1, min(n, trip))
    base, extra = divmod(trip, n)
    out: List[Tuple[int, int]] = []
    start = lo
    for k in range(n):
        size = base + (1 if k < extra else 0)
        out.append((start, start + size - 1))
        start += size
    return out


_THREAD_POOLS: Dict[int, ThreadPoolExecutor] = {}


def get_thread_pool(workers: int) -> ThreadPoolExecutor:
    """The cached thread pool serving ``workers``-wide regions (and task
    graphs): ``workers - 1`` threads, because the calling thread runs a
    chunk (or a tile) itself.  Threads start at the first submit, not
    here, and are joined at interpreter exit."""
    pool = _THREAD_POOLS.get(workers)
    if pool is None:
        from concurrent.futures import ThreadPoolExecutor
        pool = _THREAD_POOLS.setdefault(workers, ThreadPoolExecutor(
            max_workers=max(1, workers - 1),
            thread_name_prefix="tiramisu-par"))
    return pool


def run_chunk(body, bufs, params: Dict[str, int], args: tuple,
              profiled: bool = False) -> tuple:
    """Time ``body(bufs, params, *args)`` on whichever thread runs it:
    one chunk of a region (``args = (lo, hi)``) or one tile (``args`` =
    the flat per-dim bounds).

    Returns ``(thread_id, start_ns, end_ns, obs_snapshot)`` — the wall
    clock of the body (for the imbalance metrics) and, when
    ``profiled``, the counter snapshot of a collector of the chunk's
    own, so per-computation iteration counts stay exact under
    multicore execution."""
    snapshot = None
    start_ns = time.perf_counter_ns()
    if profiled:
        from repro.obs import RunCollector
        collector = RunCollector()
        body(bufs, params, *args, collector)
        snapshot = collector.snapshot()
    else:
        body(bufs, params, *args)
    return (threading.get_ident(), start_ns, time.perf_counter_ns(),
            snapshot)


def run_here(*args) -> Future:
    """:func:`run_chunk` on the calling thread, its result or exception
    held in a done future like those of the thread pool."""
    from concurrent.futures import Future
    fut = Future()
    try:
        fut.set_result(run_chunk(*args))
    except Exception as exc:  # noqa: BLE001 - joined, then raised
        fut.set_exception(exc)
    return fut


# -- the runtime -------------------------------------------------------------

@dataclass
class ParallelStats:
    """What the runtime actually did, for reports and tests."""
    regions: int = 0         # parallel loop executions run on threads
    declined: int = 0        # regions the plan ran inline instead
    chunks: int = 0          # total chunks run on threads
    max_workers: int = 0     # widest single dispatch
    strips: int = 0          # strips run, inline or inside chunks
    # bench/scenario_run.py reads these two: nothing in the process is
    # retried or degraded any more, so both stay 0.
    retries: int = 0
    sequential_fallbacks: int = 0


class ParallelRuntime:
    """Runs chunked parallel loop bodies on threads or inline, in
    strips where the plan says so.

    The kernel wrapper binds its arrays through ``sharing(arrays)`` for
    the duration of a call; the emitted kernel probes ``offload(trip)``
    per parallel loop and calls ``run(body, params, lo, hi)`` when it
    answers True, and ``run`` follows the region's :meth:`plan`.  A
    one-worker runtime (``num_threads=1``) never starts a thread: it is
    attached for its strips alone.
    """

    def __init__(self, source: str, num_threads: int,
                 profiled: bool = False):
        self.source = source
        self.digest = hashlib.sha256(source.encode()).hexdigest()
        self.num_threads = int(num_threads)
        self.profiled = bool(profiled)
        self.stats = ParallelStats()
        kinds = region_kinds(source)
        self.loop_regions = frozenset(r for r, loop in kinds.items() if loop)
        self.slab_regions = tuple(r for r, loop in kinds.items() if not loop)
        self.plans: Dict[str, DispatchPlan] = {}  # region -> latest plan
        self._arrays = None  # buffer name -> ndarray the bodies run on
        # bound once: ``metrics.reset()`` zeroes a counter in place
        self._declines = metrics.counter("parallel.declined")
        self._regions = metrics.counter("parallel.regions")
        self._chunks = metrics.counter("parallel.chunks")
        self._chunk_seconds = metrics.histogram("parallel.chunk_seconds")
        self._chunk_iters = metrics.histogram("parallel.chunk_iters")
        self._imbalance = metrics.gauge("parallel.last_imbalance")

    def takes(self, arrays: Dict[str, np.ndarray]) -> bool:
        """Can any region of a call on ``arrays`` leave the calling
        thread?  Only a slab region of a call at or above the floor.
        Otherwise every region is declined here, once for the call, and
        the kernel runs as if no runtime were attached — a 20 us call
        cannot pay for a plan per region."""
        if self.slab_regions and _largest(arrays) >= THREAD_FLOOR_BYTES:
            return True
        for region in self.slab_regions:
            self._decide(region, BELOW_FLOOR)
        for region in self.loop_regions:
            self._decide(region, PYTHON_LOOP)
        self._declined(len(self.slab_regions) + len(self.loop_regions))
        return False

    def offload(self, trip: int) -> bool:
        """Does the runtime take this region?  True while a call's
        arrays are bound (:meth:`sharing`); where it then runs — inline
        included — is :meth:`plan`'s decision, made in :meth:`run`."""
        return self._arrays is not None

    def plan(self, region: str, trip: int) -> DispatchPlan:
        """The executor for one region of the bound call: a slab region
        at or above the floor runs on threads (inline on one worker),
        in strips when :func:`strip_rows` cuts its chunks."""
        largest = _largest(self._arrays)
        if trip < 2:
            plan = DispatchPlan("inline", "single-iteration")
        elif region in self.loop_regions:
            plan = PYTHON_LOOP
        elif largest < THREAD_FLOOR_BYTES:
            plan = BELOW_FLOOR
        else:
            kind = "threads" if self.num_threads >= 2 else "inline"
            rows = strip_rows(trip, largest)
            chunks = chunk_ranges(0, trip - 1, self.num_threads)
            strips = sum(-(-(hi - lo + 1) // rows) for lo, hi in chunks)
            plan = DispatchPlan(kind, "strips", strips) \
                if strips > len(chunks) else DispatchPlan(kind, "slab")
        return self._decide(region, plan)

    def _decide(self, region: str, plan: DispatchPlan) -> DispatchPlan:
        """File ``plan`` as the region's latest; the journal hears of it
        (``parallel.dispatch``) when it changed, not once per call."""
        if self.plans.get(region) != plan:
            self.plans[region] = plan
            emit("parallel.dispatch", kernel=self.digest[:12],
                 region=region, kind=plan.kind, reason=plan.reason,
                 strips=plan.strips)
        return plan

    def _declined(self, count: int = 1) -> None:
        self.stats.declined += count
        self._declines.inc(count)

    @contextmanager
    def sharing(self, arrays: Dict[str, np.ndarray]):
        """Bind one call's arrays: the regions run on them in place."""
        self._arrays = arrays
        try:
            yield arrays
        finally:
            self._arrays = None

    def run(self, body, params: Dict[str, int], lo: int, hi: int,
            obs=None) -> None:
        """Execute one parallel loop where its :meth:`plan` says, and
        return (or raise) only once every chunk has finished."""
        if self._arrays is None:  # raced the end of the call
            raise ExecutionError(
                f"parallel region {body.__name__} has no bound arrays")
        plan = self.plan(body.__name__, hi - lo + 1)
        runner = body
        if plan.strips:
            self.stats.strips += plan.strips
            runner = striped(body, strip_rows(hi - lo + 1,
                                              _largest(self._arrays)))
        if plan.kind == "inline":
            self._declined()
            if self.profiled and obs is not None:
                runner(self._arrays, params, lo, hi, obs)
            else:
                runner(self._arrays, params, lo, hi)
            return
        self.stats.regions += 1
        self._regions.inc()
        self._run_threads(body, runner, params, lo, hi, obs)

    def _run_threads(self, body, runner, params: Dict[str, int], lo: int,
                     hi: int, obs) -> None:
        """A slab region: the calling thread runs the first chunk, the
        cached thread pool the others, all on the bound arrays, each
        through ``runner`` (``body`` itself, or its strips).  Every
        chunk is joined whatever any of them raised: no thread still
        writes the caller's arrays once this returns.  The ambient
        Deadline is charged first."""
        from concurrent.futures import wait
        from repro.driver.resilience import current_deadline
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("parallel-dispatch")
        bounds = chunk_ranges(lo, hi, self.num_threads)
        args = (runner, self._arrays, params)
        pool = get_thread_pool(self.num_threads)
        futures = [pool.submit(run_chunk, *args, b, self.profiled)
                   for b in bounds[1:]]
        try:
            self._gather(body, bounds, [run_here(*args, bounds[0],
                                                 self.profiled)] + futures,
                         obs)
        finally:
            wait(futures)

    def _gather(self, body, bounds, futures, obs) -> None:
        """Collect every chunk of one region and account it: each
        result carries its wall clock and, when profiling, its counter
        snapshot for ``obs``.  The first exception a body raised
        surfaces once all are in."""
        self.stats.chunks += len(bounds)
        self.stats.max_workers = max(self.stats.max_workers, len(bounds))
        errors: List[BaseException] = []
        chunk_seconds: List[float] = []
        for fut, (clo, chi) in zip(futures, bounds):
            try:
                thread, start_ns, end_ns, snapshot = fut.result()
            except BaseException as exc:  # noqa: BLE001 - app error
                errors.append(exc)
                continue
            seconds = (end_ns - start_ns) / 1e9
            chunk_seconds.append(seconds)
            self._chunk_seconds.observe(seconds)
            self._chunk_iters.observe(chi - clo + 1)
            if obs is not None:
                obs.merge(snapshot)
                obs.worker_span(body.__name__, clo, chi, start_ns,
                                end_ns, thread)
        self._chunks.inc(len(bounds))
        if chunk_seconds and min(chunk_seconds) > 0:
            self._imbalance.set(max(chunk_seconds) / min(chunk_seconds))
        if errors:
            raise ExecutionError(
                f"parallel region {body.__name__} failed in a worker: "
                f"{errors[0]}") from errors[0]
