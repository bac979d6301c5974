"""Multicore execution runtime for ``parallelize``-tagged loops.

The CPU backend emits each safe top-level parallel loop as a chunked
worker function ``_par_body_k(_bufs, _params, _lo, _hi)`` (see
:mod:`repro.codegen.pyemit`).  This module's runtime splits the range
``[lo, hi]`` into at most ``num_threads`` contiguous chunks and decides,
per region and per call (one :class:`DispatchPlan`, with its reason),
what runs them:

* **threads** over the caller's own arrays, for a *slab region* — a body
  with no Python ``for`` in it: a bounds guard plus whole-slab NumPy
  statements, which release the GIL.  Nothing is staged or pickled;
* **inline**, for a slab region of a call below
  :data:`THREAD_FLOOR_BYTES`, a region of one iteration, or a loop
  region whose pool is refused;
* **processes**, for a *loop region* (a Python ``for`` nest, GIL-bound):
  the arrays are staged into ``multiprocessing.shared_memory`` segments
  for the duration of the call, workers write the same pages and the
  parent copies results back.  Only a kernel with a loop region stages.

The pools, the chunk entry point and the failure policy around a
process dispatch are shared with the tile-DAG runtime and the batch
compile front end and live in :mod:`repro.backends.pool`.

Fault tolerance (docs/robustness.md): a process dispatch runs under
:func:`repro.backends.pool.supervise`; this module's own part is the
snapshot of the shared buffers taken before the first attempt and
restored before each retry, so reductions stay bit-identical, and the
inline fallback.  A thread writing the caller's arrays can be neither
killed nor abandoned, so thread chunks have no timeout and no retry:
they are always joined.  Exceptions raised *by* the loop body are
deterministic application errors and are never retried.
"""

from __future__ import annotations

import hashlib
import os
import re
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures import wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import ExecutionError, WorkerFailureError
from repro.obs.events import EVT_PARALLEL
from repro.obs.events import emit as emit_event

from .common import resolve_timeout
from .pool import (PARALLEL, Site, book, exec_in_worker, get_pool,
                   get_thread_pool, refusal, run_chunk, supervise,
                   worker_fault)

#: A slab region runs on threads when the largest array its call binds
#: has at least this many bytes, inline below: the hand-off costs
#: ~0.1 ms, which slabs of under a MiB do not win back (measured per
#: program in EXPERIMENTS.md, "cpu backend: thread dispatch").
THREAD_FLOOR_BYTES = 1 << 20


@dataclass(frozen=True)
class DispatchPlan:
    """Where one region runs on one call, and why."""
    kind: str    # "inline" | "threads" | "processes"
    reason: str  # slab | python-loop | below-floor | single-iteration
    #              | breaker-open | pool-unavailable


BELOW_FLOOR = DispatchPlan("inline", "below-floor")


def _largest(arrays: Dict[str, np.ndarray]) -> int:
    return max((a.nbytes for a in arrays.values()), default=0)


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


# -- the runtime -------------------------------------------------------------

@dataclass
class ParallelStats:
    """What the runtime actually did, for reports and tests."""
    regions: int = 0         # parallel loop executions dispatched
    thread_regions: int = 0  # ... of which ran on threads (slab regions)
    declined: int = 0        # regions the plan ran inline instead
    chunks: int = 0          # total chunk futures submitted
    max_workers: int = 0     # widest single dispatch
    worker_pids: tuple = ()  # distinct worker processes that ran chunks
    retries: int = 0         # region dispatches repeated after a failure
    pool_restarts: int = 0   # broken pools discarded and rebuilt
    chunk_timeouts: int = 0  # chunks that missed their deadline
    sequential_fallbacks: int = 0  # regions degraded to inline execution
    breaker_blocks: int = 0  # offloads refused by the open circuit breaker


class ParallelRuntime:
    """Runs chunked parallel loop bodies on threads or worker processes.

    The kernel wrapper binds its arrays through ``sharing(arrays)`` for
    the duration of a call; the emitted kernel probes ``offload(trip)``
    per parallel loop and calls ``run(body, params, lo, hi)`` when it
    answers True, and ``run`` follows the region's :meth:`plan`.
    """

    def __init__(self, source: str, num_threads: int,
                 profiled: bool = False, max_retries: int = 2,
                 timeout: Optional[float] = None,
                 on_worker_failure: str = "fallback"):
        self.source = source
        self.digest = hashlib.sha256(source.encode()).hexdigest()
        self.num_threads = int(num_threads)
        self.profiled = bool(profiled)
        self.max_retries = int(max_retries)
        # Per-chunk deadline in seconds (process chunks only); None (and
        # no ``timeout`` knob) means wait forever.
        self.timeout = resolve_timeout(timeout, default=None)
        if on_worker_failure not in ("retry", "fallback", "raise"):
            raise ValueError(
                f"on_worker_failure must be 'retry', 'fallback' or "
                f"'raise', got {on_worker_failure!r}")
        self.on_worker_failure = on_worker_failure
        self.stats = ParallelStats()
        kinds = region_kinds(source)
        self.loop_regions = frozenset(r for r, loop in kinds.items() if loop)
        self.slab_regions = tuple(r for r, loop in kinds.items() if not loop)
        self.stages = bool(self.loop_regions)  # shared memory + workers
        self.plans: Dict[str, DispatchPlan] = {}  # region -> latest plan
        self._arrays = None  # buffer name -> ndarray the bodies run on
        self._specs = None   # buffer name -> (shm name, shape, dtype str)

    def takes(self, arrays: Dict[str, np.ndarray]) -> bool:
        """Will any region of a call on ``arrays`` leave the calling
        thread?  No, for a kernel of slab regions only called below the
        floor: its regions are declined here, once for the call, and it
        runs as if no runtime were attached — a 20 us call cannot pay
        for a plan per region."""
        if self.stages or _largest(arrays) >= THREAD_FLOOR_BYTES:
            return True
        for region in self.slab_regions:
            self._decide(region, BELOW_FLOOR)
        book(PARALLEL, "inline", (self.stats,), count=len(self.slab_regions))
        return False

    def offload(self, trip: int) -> bool:
        """Does the runtime take this region?  True while a call's
        arrays are bound (:meth:`sharing`); where it then runs — inline
        included — is :meth:`plan`'s decision, made in :meth:`run`."""
        return self._arrays is not None

    def plan(self, region: str, trip: int) -> DispatchPlan:
        """The executor for one region of the bound call.  Only a loop
        region asks the pool's circuit breaker (and builds the pool):
        while it is open those silently run sequentially — same bits, a
        pool that keeps dying stops being hammered."""
        if trip < 2:
            plan = DispatchPlan("inline", "single-iteration")
        elif region in self.loop_regions:
            why = "pool-unavailable" if self._specs is None else refusal(
                PARALLEL, (self.stats,), self.num_threads)
            plan = DispatchPlan("inline", why) if why else \
                DispatchPlan("processes", "python-loop")
        elif _largest(self._arrays) < THREAD_FLOOR_BYTES:
            plan = BELOW_FLOOR
        else:
            plan = DispatchPlan("threads", "slab")
        return self._decide(region, plan)

    def _decide(self, region: str, plan: DispatchPlan) -> DispatchPlan:
        """File ``plan`` as the region's latest; the journal hears of it
        (``parallel.dispatch``) when it changed, not once per call."""
        if self.plans.get(region) != plan:
            self.plans[region] = plan
            emit_event("parallel.dispatch", EVT_PARALLEL,
                       kernel=self.digest[:12], region=region,
                       kind=plan.kind, reason=plan.reason)
        return plan

    @contextmanager
    def sharing(self, arrays: Dict[str, np.ndarray]):
        """Bind one call's arrays.  A kernel that has a loop region
        stages them into shared memory, copies results back on normal
        exit and always releases the segments; any other kernel's
        regions run on ``arrays`` themselves."""
        if not self.stages or get_pool(self.num_threads) is None:
            self._arrays = arrays
            try:
                yield arrays
            finally:
                self._arrays = None
            return
        from multiprocessing import shared_memory

        from repro.obs.metrics import metrics
        shms: List[Tuple[str, shared_memory.SharedMemory]] = []
        views: Dict[str, np.ndarray] = {}
        specs: Dict[str, Tuple[str, tuple, str]] = {}
        try:
            copy_start = time.perf_counter()
            bytes_in = 0
            for name, arr in arrays.items():
                arr = np.ascontiguousarray(arr)
                shm = shared_memory.SharedMemory(
                    create=True, size=max(1, arr.nbytes))
                shms.append((name, shm))
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
                view[...] = arr
                views[name] = view
                specs[name] = (shm.name, arr.shape, arr.dtype.str)
                bytes_in += arr.nbytes
            metrics.histogram("parallel.shm_copy_seconds").observe(
                time.perf_counter() - copy_start)
            metrics.counter("parallel.shm_bytes_in").inc(bytes_in)
            self._specs, self._arrays = specs, views
            yield views
            back_start = time.perf_counter()
            bytes_out = 0
            for name, _ in shms:
                dst = np.asarray(arrays[name])
                if dst.flags.writeable:
                    np.copyto(dst, views[name])
                    bytes_out += dst.nbytes
            metrics.histogram("parallel.shm_copyback_seconds").observe(
                time.perf_counter() - back_start)
            metrics.counter("parallel.shm_bytes_out").inc(bytes_out)
        finally:
            self._specs = self._arrays = None
            views.clear()
            for _, shm in shms:
                try:
                    shm.close()
                except BufferError:
                    pass
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass

    def run(self, body, params: Dict[str, int], lo: int, hi: int,
            obs=None) -> None:
        """Execute one parallel loop where its :meth:`plan` says, and
        return (or raise) only once every chunk has finished.  Worker
        *failures* of a process dispatch (a crash breaking the pool, a
        chunk missing its ``timeout``) are supervised
        (:meth:`_supervise`); exceptions raised by the body are
        application errors and surface, from either executor, as the
        same :class:`ExecutionError`."""
        from repro.obs.metrics import metrics
        if self._arrays is None:  # raced the end of the call
            raise ExecutionError(
                f"parallel region {body.__name__} has no bound arrays")
        plan = self.plan(body.__name__, hi - lo + 1)
        if plan.kind != "processes":
            book(PARALLEL, plan.kind, (self.stats,))
        if plan.kind == "inline":
            return self._run_inline(body, params, lo, hi, obs)
        region = self.stats.regions
        self.stats.regions += 1
        metrics.counter("parallel.regions").inc()
        if plan.kind == "threads":
            self._run_threads(body, params, lo, hi, obs)
        elif not self._supervise(
                lambda pool, attempt: self._dispatch(
                    pool, body, params, lo, hi, obs, region, attempt),
                body.__name__, region):
            self._run_inline(body, params, lo, hi, obs)

    def _run_threads(self, body, params: Dict[str, int], lo: int, hi: int,
                     obs) -> None:
        """A slab region: the calling thread runs the first chunk, the
        cached thread pool the others, all on the bound arrays.  Every
        chunk is joined whatever any of them raised: no thread still
        writes the caller's arrays once this returns.  The ambient
        Deadline is charged first, as before a process attempt."""
        from repro.driver.resilience import current_deadline
        deadline = current_deadline()
        if deadline is not None:
            deadline.check(PARALLEL.stage)
        bounds = chunk_ranges(lo, hi, self.num_threads)
        args = (body, self._arrays, params)
        pool = get_thread_pool(self.num_threads)
        futures = [pool.submit(run_chunk, *args, b, self.profiled)
                   for b in bounds[1:]]
        first = Future()
        try:
            try:
                first.set_result(run_chunk(*args, bounds[0], self.profiled))
            except Exception as exc:  # noqa: BLE001 - joined, then raised
                first.set_exception(exc)
            self._gather(body, bounds, [first] + futures, obs)
        finally:
            wait(futures)

    def _supervise(self, attempt: Callable, label: str, region: int,
                   site: Site = PARALLEL,
                   stats: Optional[tuple] = None) -> bool:
        """One supervised dispatch of a unit of work (a region's chunks;
        a whole tile DAG in the subclass); False means it fell back.
        Workers may have partially applied writes (reductions!) when one
        dies mid-flight; the snapshot taken here lets every retry — and
        the inline fallback — start from clean buffers, keeping the
        output bit-identical."""
        views = self._arrays
        snapshot = {} if self.on_worker_failure == "raise" else {
            name: np.array(view, copy=True) for name, view in views.items()}

        def restore():
            for name, saved in snapshot.items():
                views[name][...] = saved

        return bool(supervise(
            attempt, site=site, stats=stats or (self.stats,), label=label,
            workers=self.num_threads, max_retries=self.max_retries,
            on_worker_failure=self.on_worker_failure, restore=restore,
            region=region))

    def _dispatch(self, pool, body, params: Dict[str, int], lo: int,
                  hi: int, obs, region: int, attempt: int) -> bool:
        """One attempt on the process pool: submit every chunk, gather
        every result.

        Infrastructure failures leave as ``BrokenProcessPool`` or
        :class:`WorkerFailureError` (a chunk deadline) for
        :func:`supervise` to handle; exceptions the body raised become
        plain :class:`ExecutionError`."""
        bounds = chunk_ranges(lo, hi, self.num_threads)
        futures = []
        try:
            # Submitting is inside the try: an earlier chunk's crash can
            # break the pool while later chunks are still going out.
            for k, (clo, chi) in enumerate(bounds):
                futures.append(pool.submit(
                    exec_in_worker, self.digest, self.source,
                    body.__name__, self._specs, params, (clo, chi),
                    self.profiled, worker_fault(region, k, attempt)))
            self._gather(body, bounds, futures, obs, region, self.timeout)
        finally:
            for fut in futures:
                fut.cancel()
        return True

    def _gather(self, body, bounds, futures, obs, region=None,
                timeout: Optional[float] = None) -> None:
        """Collect every chunk of one dispatch, from either pool
        (process chunks — ``region`` given — within ``timeout``), and
        account them here in the parent: each result carries its wall
        clock and, when profiling, its counter snapshot for ``obs``.
        The first exception a body raised surfaces once all are in."""
        from repro.obs.metrics import metrics
        self.stats.chunks += len(bounds)
        self.stats.max_workers = max(self.stats.max_workers, len(bounds))
        pids = set(self.stats.worker_pids)
        errors: List[BaseException] = []
        chunk_seconds: List[float] = []
        deadline = time.monotonic() + timeout if timeout is not None else None
        for fut, (clo, chi) in zip(futures, bounds):
            try:
                remaining = (None if deadline is None else
                             max(0.0, deadline - time.monotonic()))
                pid, thread, start_ns, end_ns, snapshot = fut.result(
                    timeout=remaining)
            except FuturesTimeoutError:
                book(PARALLEL, "chunk_timeout", (self.stats,),
                     region=region, chunk_lo=clo, chunk_hi=chi,
                     timeout_seconds=timeout)
                raise WorkerFailureError(
                    f"parallel region {body.__name__}: chunk "
                    f"[{clo}, {chi}] exceeded the {timeout:g}s "
                    f"timeout (hung worker?)") from None
            except BrokenProcessPool:
                raise
            except BaseException as exc:  # noqa: BLE001 - app error
                errors.append(exc)
                continue
            if region is not None:
                pids.add(pid)
            seconds = (end_ns - start_ns) / 1e9
            chunk_seconds.append(seconds)
            metrics.histogram("parallel.chunk_seconds").observe(seconds)
            metrics.histogram("parallel.chunk_iters").observe(
                chi - clo + 1)
            if obs is not None:
                obs.merge(snapshot)
                obs.worker_span(body.__name__, clo, chi, start_ns,
                                end_ns, pid, thread)
        self.stats.worker_pids = tuple(sorted(pids))
        metrics.counter("parallel.chunks").inc(len(bounds))
        if chunk_seconds and min(chunk_seconds) > 0:
            metrics.gauge("parallel.last_imbalance").set(
                max(chunk_seconds) / min(chunk_seconds))
        if errors:
            raise ExecutionError(
                f"parallel region {body.__name__} failed in a worker: "
                f"{errors[0]}") from errors[0]

    def _run_inline(self, body, params: Dict[str, int], lo: int, hi: int,
                    obs) -> None:
        """The whole region sequentially in the calling thread, on the
        arrays the chunks would have written: the plan's decline, and
        the graceful degradation of a failed process dispatch."""
        if self.profiled and obs is not None:
            body(self._arrays, params, lo, hi, obs)
        else:
            body(self._arrays, params, lo, hi)
