"""The shared worker pool and the one supervised-dispatch loop over it.

Three front ends dispatch onto the same cached fork pools — the
fork-join loop runtime (:mod:`repro.backends.parallel`), the tile-DAG
runtime (:mod:`repro.runtime.scheduler`) and the batch compile front
end (:mod:`repro.driver.batch`).  What they share lives here, once:

* the pools themselves (:func:`get_pool` / :func:`discard_pool`);
* the failure policy around a dispatch — :func:`supervise` and its
  up-front probe :func:`refusal` (docs/robustness.md, "The parallel
  pool: retry, snapshot, fallback", is the account of it);
* its bookkeeping — :func:`book` accounts every outcome from one
  per-site declaration (:class:`Site`), so a stats field, its counter
  and its journal event cannot drift apart;
* the worker side — :func:`exec_in_worker` is what a pool process runs
  for a loop chunk or a tile.  Workers never receive live kernel
  objects (exec'd functions do not pickle): each task carries the
  emitted source and its digest, and the worker re-execs it once,
  caching the namespace per digest.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import WorkerFailureError
from repro.obs.events import EVT_BATCH, EVT_PARALLEL
from repro.obs.events import emit as emit_event

#: Seconds slept before the first retried dispatch; doubles per retry.
RETRY_BACKOFF = 0.05


# -- worker side -------------------------------------------------------------

_SOURCE_CACHE: Dict[str, dict] = {}  # per-process: digest -> exec namespace


def load_namespace(digest: str, source: str) -> dict:
    ns = _SOURCE_CACHE.get(digest)
    if ns is None:
        ns = {}
        exec(compile(source, f"<tiramisu-par:{digest[:12]}>", "exec"), ns)
        _SOURCE_CACHE[digest] = ns
    return ns


def run_chunk(body, bufs, params: Dict[str, int], args: tuple,
              profiled: bool = False) -> tuple:
    """Time ``body(bufs, params, *args)`` where it runs: a pool worker
    (:func:`exec_in_worker`) or a thread of this process (a slab
    region's chunk on the caller's arrays).

    Returns ``(pid, thread_id, start_ns, end_ns, obs_snapshot)`` — the
    wall clock of the body (for the parent's imbalance metrics) and,
    when ``profiled``, the picklable counter snapshot of a collector of
    the chunk's own, so per-computation iteration counts stay exact
    under multicore execution."""
    snapshot = None
    start_ns = time.perf_counter_ns()
    if profiled:
        from repro.obs import RunCollector
        collector = RunCollector()
        body(bufs, params, *args, collector)
        snapshot = collector.snapshot()
    else:
        body(bufs, params, *args)
    return (os.getpid(), threading.get_ident(), start_ns,
            time.perf_counter_ns(), snapshot)


def exec_in_worker(digest: str, source: str, body_name: str, specs,
                   params: Dict[str, int], args: tuple,
                   profiled: bool = False, fault=None) -> tuple:
    """Run ``body_name(bufs, params, *args)`` of the emitted source
    inside a worker process — one chunk of a parallel loop
    (``args = (lo, hi)``) or one tile (``args`` = the flat per-dim
    bounds) — on the shared staging buffers named by ``specs``;
    returns what :func:`run_chunk` does.

    ``fault`` is the parent's fault-injection decision for this task
    (workers never see the plan itself, see :func:`worker_fault`):
    ``("crash",)`` kills this process outright — the pool reports
    ``BrokenProcessPool`` — and ``("hang", seconds)`` stalls before
    computing, so a timeout reads it as a hung worker."""
    if fault:
        if fault[0] == "crash":
            os._exit(13)
        elif fault[0] == "hang":
            time.sleep(float(fault[1]))
    from multiprocessing import shared_memory
    ns = load_namespace(digest, source)
    attached: List[shared_memory.SharedMemory] = []
    bufs: Dict[str, np.ndarray] = {}
    try:
        for name, (shm_name, shape, dtype) in specs.items():
            shm = shared_memory.SharedMemory(name=shm_name)
            attached.append(shm)
            bufs[name] = np.ndarray(shape, dtype=np.dtype(dtype),
                                    buffer=shm.buf)
        return run_chunk(ns[body_name], bufs, params, args, profiled)
    finally:
        bufs.clear()
        for shm in attached:
            try:
                shm.close()
            except BufferError:  # a stray view kept the mapping alive
                pass


def worker_fault(region: int, chunk: int, attempt: int) -> Optional[tuple]:
    """The parent-side injection decision shipped with one worker task
    (the ``fault`` argument of :func:`exec_in_worker`), addressed by
    ``(region, chunk, attempt)``; None when no plan fires there."""
    from repro.faults import get_plan
    plan = get_plan()
    if plan is None:
        return None
    site = dict(region=region, chunk=chunk, attempt=attempt)
    if plan.fires("worker-crash", **site) is not None:
        return ("crash",)
    spec = plan.fires("worker-hang", **site)
    if spec is not None:
        return ("hang", spec.payload.get("seconds", 30.0))
    return None


# -- pool management ---------------------------------------------------------
#
# One warm fork pool per worker count, shared process-wide and shut
# down at exit; beside it one thread pool per worker count, for the
# bodies that release the GIL (slab regions, see parallel.py).

_POOLS: Dict[int, ProcessPoolExecutor] = {}
_THREAD_POOLS: Dict[int, ThreadPoolExecutor] = {}
_POOL_UNAVAILABLE = False


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0])


def _ensure_resource_tracker() -> None:
    """Spawn the shared-memory resource tracker *before* forking workers.

    Fork children inherit the parent's tracker connection.  If the first
    pool is forked before this process ever created a SharedMemory
    segment (the batch compile front end warms a pool without touching
    shared memory), each worker would lazily spawn its own *private*
    tracker on first segment attach — and a private tracker unlinks
    every segment its worker registered the moment that worker dies,
    yanking live staging buffers out from under the parent's retry
    logic.  Starting the parent's tracker first makes every worker
    register with the shared, parent-lifetime tracker instead.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker.ensure_running()
    except Exception:
        pass


def get_pool(workers: int) -> Optional[ProcessPoolExecutor]:
    """The cached process pool for ``workers``, building (and caching)
    it on first use; None when this host cannot run a pool at all."""
    global _POOL_UNAVAILABLE
    if _POOL_UNAVAILABLE:
        return None
    pool = _POOLS.get(workers)
    if pool is None:
        try:
            _ensure_resource_tracker()
            pool = ProcessPoolExecutor(max_workers=workers,
                                       mp_context=_mp_context())
        except (OSError, ValueError, NotImplementedError):
            _POOL_UNAVAILABLE = True
            return None
        _POOLS[workers] = pool
    return pool


def get_thread_pool(workers: int) -> ThreadPoolExecutor:
    """The cached thread pool serving ``workers``-wide slab regions:
    ``workers - 1`` threads, because the calling thread runs a chunk
    itself.  Threads start at the first submit, not here."""
    pool = _THREAD_POOLS.get(workers)
    if pool is None:
        pool = _THREAD_POOLS.setdefault(workers, ThreadPoolExecutor(
            max_workers=max(1, workers - 1),
            thread_name_prefix="tiramisu-par"))
    return pool


def discard_pool(workers: int) -> None:
    """Drop (and kill) the cached pool for ``workers`` so the next
    ``get_pool`` builds a fresh one.  Workers are terminated rather
    than joined: a crashed pool's survivors are in an unknown state and
    a hung worker would otherwise keep writing to shared buffers after
    its region has been retried."""
    pool = _POOLS.pop(workers, None)
    if pool is None:
        return
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.terminate()
        except (AttributeError, OSError):
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except (OSError, RuntimeError):
        pass


def shutdown_pools() -> None:
    """Tear down every cached worker pool (also runs atexit)."""
    for pools in (_POOLS, _THREAD_POOLS):
        for pool in pools.values():
            pool.shutdown(wait=True, cancel_futures=True)
        pools.clear()


atexit.register(shutdown_pools)


# -- telemetry: one declaration per dispatch site ----------------------------

@dataclass(frozen=True)
class Site:
    """What one dispatch site calls its supervision outcomes.

    ``rows`` maps an outcome to ``(stats field, counter, event)`` —
    any of the three may be None.  :func:`book` is the only writer, so
    a stats field, its counter and its journal event always move
    together; docs/observability.md's inventory is checked against
    these tables (tests/test_events.py::TestDocDrift)."""

    op: str        # the ``pool-refusal`` fault site's ``op``; span prefix
    stage: str     # the Deadline stage charged before every attempt
    category: str  # journal category of the site's events
    rows: Dict[str, Tuple[Optional[str], Optional[str], Optional[str]]]


PARALLEL = Site("parallel", "parallel-dispatch", EVT_PARALLEL, {
    "worker_failure": (None, "parallel.worker_failures",
                       "parallel.worker_failure"),
    "pool_restart": ("pool_restarts", "parallel.pool_restarts",
                     "parallel.pool_restart"),
    "retry": ("retries", "parallel.retries", "parallel.retry"),
    "fallback": ("sequential_fallbacks", "parallel.sequential_fallbacks",
                 "parallel.fallback"),
    "breaker_block": ("breaker_blocks", "parallel.breaker_blocks", None),
    "chunk_timeout": ("chunk_timeouts", "parallel.chunk_timeouts",
                      "parallel.chunk_timeout"),
    # a region's DispatchPlan, keyed by its kind (parallel.py); the
    # journal hears of a plan only when it changes (parallel.dispatch)
    "inline": ("declined", "parallel.declined", None),
    "threads": ("thread_regions", "parallel.thread_regions", None),
})

# The tile-DAG runtime *is* a parallel runtime (same pool, same staging,
# same ParallelStats): a lost tile worker is a parallel.worker_failure.
# Only the replay unit (the whole graph) and the decline are its own.
TASKGRAPH = Site("taskgraph", "taskgraph-dispatch", EVT_PARALLEL, {
    **PARALLEL.rows,
    "retry": ("retries", "taskgraph.retries", "taskgraph.retry"),
    "decline": ("fallbacks", "taskgraph.fallbacks", "taskgraph.fallback"),
})

BATCH = Site("batch", "batch-offload", EVT_BATCH, {
    "worker_failure": ("worker_failures", "compile_batch.worker_failures",
                       "batch.worker_failure"),
    "pool_restart": ("pool_restarts", "compile_batch.pool_restarts",
                     "batch.pool_restart"),
    "retry": ("retries", "compile_batch.retries", "batch.retry"),
    "fallback": ("fallbacks", "compile_batch.fallbacks", "batch.fallback"),
    "breaker_block": ("breaker_short_circuits", None, None),
})

SITES = (PARALLEL, TASKGRAPH, BATCH)

# Batch coordinating threads book concurrently onto one BatchStats.
_BOOK_LOCK = threading.Lock()


def book(site: Site, outcome: str, stats: tuple, label: str = "",
         count: int = 1, **fields) -> None:
    """Account one outcome at ``site`` (``count`` of them): bump the
    declared field on every ``stats`` object that has it, the declared
    counter, and journal the declared event with ``fields``.  Retries
    and fallbacks also drop a zero-length ``fault`` marker
    ``{op}:{outcome}:{label}`` on the tracer timeline, next to the
    worker spans they interrupted."""
    from repro.obs.metrics import metrics
    field, counter, event = site.rows[outcome]
    if field is not None:
        with _BOOK_LOCK:
            for obj in stats:
                if hasattr(obj, field):
                    setattr(obj, field, getattr(obj, field) + count)
    if counter is not None:
        metrics.counter(counter).inc(count)
    if event is not None:
        emit_event(event, site.category, **fields)
    if outcome in ("retry", "fallback"):
        # Fault paths flush the trace file eagerly: a run that is
        # crashing workers may not live to the atexit handler, and the
        # export is atomic, so flushing mid-run costs nothing but leaves
        # evidence on disk.
        from repro.obs.tracer import CAT_FAULT, get_tracer, write_trace_file
        tracer = get_tracer()
        if tracer.enabled():
            now = time.perf_counter_ns()
            tracer.add_span(f"{site.op}:{outcome}:{label}", CAT_FAULT,
                            now, now, **fields)
            try:
                write_trace_file()
            except OSError:
                pass  # telemetry must never take the run down


# -- the supervised dispatch -------------------------------------------------

def refusal(site: Site, stats: tuple, workers: int,
            **context) -> Optional[str]:
    """The up-front probe: why a dispatch should *not* go to the pool
    right now (``"pool-unavailable"`` / ``"breaker-open"``), or None.
    The breaker is asked before the pool is (possibly) built, and its
    refusal is booked as the site's fallback: a pool that keeps dying
    stops being hammered, whatever the failure policy."""
    from repro.driver.resilience import pool_breaker
    if workers < 2:
        return "pool-unavailable"
    if not pool_breaker().allow():
        book(site, "breaker_block", stats)
        book(site, "fallback", stats, reason="breaker-open", **context)
        return "breaker-open"
    if get_pool(workers) is None:
        return "pool-unavailable"
    return None


def supervise(attempt: Callable[[ProcessPoolExecutor, int], object], *,
              site: Site, workers: int, max_retries: int,
              on_worker_failure: str, label: str, stats: tuple = (),
              restore: Optional[Callable[[], None]] = None, **context):
    """Run ``attempt(pool, n)`` (``n`` counts attempts from 0) on the
    ``workers``-wide shared pool under the one failure policy, and
    return what it returned — or None after falling back, when the
    caller degrades inline (so a successful attempt returns non-None).

    A worker *failure* — the attempt raising ``BrokenProcessPool``, a
    futures ``TimeoutError`` or an already-classified
    :class:`WorkerFailureError` — feeds the breaker, discards the pool,
    calls ``restore()`` (so partially-applied writes cannot
    double-count) and, unless ``on_worker_failure="raise"``, is retried
    on a fresh pool up to ``max_retries`` times with exponential
    backoff.  When the pool keeps dying (or cannot come back at all)
    ``"fallback"`` falls back; ``"retry"`` / ``"raise"`` re-raise the
    last failure.  Any other exception is a deterministic application
    error and propagates untouched, breaker and pool unharmed.

    The ambient request :class:`~repro.driver.resilience.Deadline` is
    charged (stage ``site.stage``) before *every* attempt and bounds
    every backoff sleep.  ``context`` fields ride on every journal
    event."""
    from repro.driver.resilience import current_deadline, pool_breaker
    from repro.faults import get_plan
    if refusal(site, stats, workers, **context) == "breaker-open":
        return None
    breaker = pool_breaker()
    deadline = current_deadline()
    what = f"{site.op} dispatch of {label!r}"
    attempts = 1 + (max_retries if on_worker_failure != "raise" else 0)
    delay = RETRY_BACKOFF
    failure: Optional[WorkerFailureError] = None
    for n in range(attempts):
        if deadline is not None:
            deadline.check(site.stage)
        pool = get_pool(workers)
        if pool is None:  # and cannot come (back) on this host
            failure = failure or WorkerFailureError(
                f"{what} has no active pool")
            break
        try:
            plan = get_plan()
            if plan is not None and plan.fires("pool-refusal", op=site.op):
                raise WorkerFailureError(
                    f"{what}: the worker pool refused the dispatch "
                    f"(injected)")
            value = attempt(pool, n)
        except WorkerFailureError as exc:
            failure = exc
        except BrokenProcessPool as exc:
            failure = WorkerFailureError(
                f"{what}: the worker pool died ({exc})")
            failure.__cause__ = exc
        except FuturesTimeoutError:
            failure = WorkerFailureError(
                f"{what}: no result within the timeout (hung worker?)")
        else:
            breaker.record_success()
            return value
        breaker.record_failure()
        book(site, "worker_failure", stats, attempt=n, error=str(failure),
             **context)
        discard_pool(workers)
        book(site, "pool_restart", stats, workers=workers)
        if restore is not None:
            restore()
        if n + 1 < attempts:
            book(site, "retry", stats, label, attempt=n + 1,
                 backoff_seconds=delay, error=str(failure), **context)
            time.sleep(delay if deadline is None
                       else min(delay, deadline.remaining()))
            delay *= 2
    if on_worker_failure != "fallback":
        raise failure
    book(site, "fallback", stats, label, reason=str(failure), **context)
    return None
