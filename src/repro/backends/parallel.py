"""Multicore execution runtime for ``parallelize``-tagged loops.

The CPU backend emits each safe top-level parallel loop as a chunked
worker function ``_par_body_k(_bufs, _params, _lo, _hi)`` (see
:mod:`repro.codegen.pyemit`).  This module supplies the runtime that
dispatches those chunks onto real cores:

* shared output buffers — the kernel's arrays are staged into
  ``multiprocessing.shared_memory`` segments for the duration of a
  call, so every worker writes the same pages and the parent copies
  results back out;
* per-worker chunk scheduling — the iteration range ``[lo, hi]`` is
  split into at most ``num_threads`` contiguous chunks, one future per
  chunk;
* graceful sequential fallback — when the machine has one core, the
  pool cannot be created, the range is trivial, or no shared staging is
  active, ``offload`` answers ``False`` and the emitted code calls the
  body inline.

The process pool itself (fork start method when available so workers
inherit the warm interpreter), the worker-side entry point and the
failure policy around a dispatch are shared with the tile-DAG runtime
and the batch compile front end and live in :mod:`repro.backends.pool`.

Fault tolerance (docs/robustness.md): a region dispatch runs under
:func:`repro.backends.pool.supervise`.  This module's own part is the
snapshot of the shared buffers taken before the first attempt and
restored before each retry, so reductions stay bit-identical, and the
inline fallback.  Exceptions raised *by* the loop body are
deterministic application errors and are never retried.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import ExecutionError, WorkerFailureError

from .common import resolve_timeout
from .pool import (PARALLEL, Site, book, exec_in_worker, get_pool,
                   refusal, supervise, worker_fault)

#: A region with fewer than two such chunks of iterations is not worth
#: a dispatch and runs inline.
MIN_CHUNK_ITERS = 1


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
    """What the pool actually did, for reports and tests."""
    regions: int = 0         # parallel loop executions dispatched
    chunks: int = 0          # total chunk futures submitted
    max_workers: int = 0     # widest single dispatch
    worker_pids: tuple = ()  # distinct pids that ran chunks
    retries: int = 0         # region dispatches repeated after a failure
    pool_restarts: int = 0   # broken pools discarded and rebuilt
    chunk_timeouts: int = 0  # chunks that missed their deadline
    sequential_fallbacks: int = 0  # regions degraded to inline execution
    breaker_blocks: int = 0  # offloads refused by the open circuit breaker


class ParallelRuntime:
    """Hands chunked parallel loop bodies to the worker pool.

    The emitted kernel probes ``offload(trip)`` per parallel loop and
    calls ``run(body, params, lo, hi)`` when it answers True; the
    kernel wrapper stages its arrays through ``sharing(arrays)`` for
    the duration of the call so workers see (and write) the same
    memory.
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
        # Per-chunk deadline in seconds; None (and no ``timeout`` knob)
        # means wait forever, the pre-fault-tolerance behavior.
        self.timeout = resolve_timeout(timeout, default=None)
        if on_worker_failure not in ("retry", "fallback", "raise"):
            raise ValueError(
                f"on_worker_failure must be 'retry', 'fallback' or "
                f"'raise', got {on_worker_failure!r}")
        self.on_worker_failure = on_worker_failure
        self.stats = ParallelStats()
        self._specs = None  # buffer name -> (shm name, shape, dtype str)
        self._views = None  # buffer name -> shm-backed ndarray (parent)

    def enabled(self) -> bool:
        return self.num_threads >= 2 \
            and get_pool(self.num_threads) is not None

    def offload(self, trip: int) -> bool:
        """Should this region's chunks go to the pool?  ``False`` makes
        the emitted kernel run the body inline — which is also the
        graceful-degradation path while the shared pool's circuit
        breaker is open: a pool that keeps dying stops being hammered,
        and ``parallelize`` silently becomes sequential (bit-identical
        results, the pre-parallel semantics)."""
        return self._specs is not None and trip >= 2 * MIN_CHUNK_ITERS \
            and refusal(PARALLEL, (self.stats,), self.num_threads) is None

    @contextmanager
    def sharing(self, arrays: Dict[str, np.ndarray]):
        """Stage ``arrays`` into shared memory; copy results back on
        normal exit and always release the segments."""
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
            self._specs = specs
            self._views = views
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
            self._specs = None
            self._views = None
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
        """Execute one parallel loop: split [lo, hi] into chunks and
        block until every worker finishes.

        Worker *failures* (a crash breaking the pool, a chunk missing
        its ``timeout``) are supervised (:meth:`_supervise`); exceptions
        raised by the body itself are application errors and surface
        immediately.

        Each chunk result carries the worker's wall clock (and, when
        profiling, its counter snapshot); they are aggregated here, in
        the parent, into the process-global metrics registry and the
        per-call ``obs`` collector — workers never share state."""
        from repro.obs.metrics import metrics
        if self._specs is None:  # raced a pool teardown
            raise ExecutionError(
                f"parallel region {body.__name__} has no active pool")
        region = self.stats.regions
        self.stats.regions += 1
        metrics.counter("parallel.regions").inc()
        if not self._supervise(
                lambda pool, attempt: self._dispatch(
                    pool, body, params, lo, hi, obs, region, attempt),
                body.__name__, region):
            self._run_inline(body, params, lo, hi, obs)

    def _supervise(self, attempt: Callable, label: str, region: int,
                   site: Site = PARALLEL,
                   stats: Optional[tuple] = None) -> bool:
        """One supervised dispatch of a unit of work (a region's chunks;
        a whole tile DAG in the subclass); False means it fell back.
        Workers may have partially applied writes (reductions!) when one
        dies mid-flight; the snapshot taken here lets every retry — and
        the inline fallback — start from clean buffers, keeping the
        output bit-identical."""
        views = self._views
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
        """One attempt: submit every chunk, gather every result.

        Infrastructure failures leave as ``BrokenProcessPool`` or
        :class:`WorkerFailureError` (a chunk deadline) for
        :func:`supervise` to handle; exceptions the body raised become
        plain :class:`ExecutionError`."""
        from repro.obs.metrics import metrics
        bounds = chunk_ranges(lo, hi, self.num_threads)
        futures = []
        pids = set(self.stats.worker_pids)
        errors: List[BaseException] = []
        chunk_seconds: List[float] = []
        try:
            # Submitting is inside the try: an earlier chunk's crash can
            # break the pool while later chunks are still going out.
            for k, (clo, chi) in enumerate(bounds):
                futures.append(pool.submit(
                    exec_in_worker, self.digest, self.source,
                    body.__name__, self._specs, params, (clo, chi),
                    self.profiled, worker_fault(region, k, attempt)))
            self.stats.chunks += len(bounds)
            self.stats.max_workers = max(self.stats.max_workers,
                                         len(bounds))
            deadline = (time.monotonic() + self.timeout
                        if self.timeout is not None else None)
            for fut, (clo, chi) in zip(futures, bounds):
                try:
                    remaining = (None if deadline is None else
                                 max(0.0, deadline - time.monotonic()))
                    pid, start_ns, end_ns, snapshot = fut.result(
                        timeout=remaining)
                except FuturesTimeoutError:
                    book(PARALLEL, "chunk_timeout", (self.stats,),
                         region=region, chunk_lo=clo, chunk_hi=chi,
                         timeout_seconds=self.timeout)
                    raise WorkerFailureError(
                        f"parallel region {body.__name__}: chunk "
                        f"[{clo}, {chi}] exceeded the {self.timeout:g}s "
                        f"timeout (hung worker?)") from None
                except BrokenProcessPool:
                    raise
                except BaseException as exc:  # noqa: BLE001 - app error
                    errors.append(exc)
                    continue
                pids.add(pid)
                seconds = (end_ns - start_ns) / 1e9
                chunk_seconds.append(seconds)
                metrics.histogram("parallel.chunk_seconds").observe(seconds)
                metrics.histogram("parallel.chunk_iters").observe(
                    chi - clo + 1)
                if obs is not None:
                    obs.merge(snapshot)
                    obs.worker_span(body.__name__, clo, chi, start_ns,
                                    end_ns, pid)
        finally:
            for fut in futures:
                fut.cancel()
        self.stats.worker_pids = tuple(sorted(pids))
        metrics.counter("parallel.chunks").inc(len(bounds))
        if chunk_seconds and min(chunk_seconds) > 0:
            metrics.gauge("parallel.last_imbalance").set(
                max(chunk_seconds) / min(chunk_seconds))
        if errors:
            raise ExecutionError(
                f"parallel region {body.__name__} failed in a worker: "
                f"{errors[0]}") from errors[0]
        return True

    def _run_inline(self, body, params: Dict[str, int], lo: int, hi: int,
                    obs) -> None:
        """Graceful degradation: execute the whole region sequentially
        in the parent, on the shared views the workers would have
        written."""
        views = self._views
        if views is None:
            raise ExecutionError(
                f"parallel region {body.__name__}: no shared buffers to "
                "fall back onto")
        if self.profiled and obs is not None:
            body(views, params, lo, hi, obs)
        else:
            body(views, params, lo, hi)
