"""The worker pools, and the one supervised-dispatch loop over the
process pool.

Two kinds of pool, each cached per worker count and shut down at exit:

* a **thread pool** (:func:`get_thread_pool`), on which a compiled
  ``cpu`` kernel runs the chunks of a slab region
  (:mod:`repro.backends.parallel`) and the tiles of a task graph
  (:mod:`repro.runtime.scheduler`), over the caller's own arrays.  A
  kernel never leaves the caller's process;
* a **fork pool** (:func:`get_pool` / :func:`discard_pool`), used only
  by the batch compile front end (:mod:`repro.driver.batch`) to run
  cold compiles in worker processes.

The failure policy around a fork-pool dispatch lives here, once:
:func:`supervise` and its up-front probe :func:`refusal`
(docs/robustness.md, "The batch pool: retry, breaker, fallback").  Its
bookkeeping is :func:`book`, which accounts every outcome from one
per-site declaration (:class:`Site`), so a stats field, its counter and
its journal event cannot drift apart.
"""

from __future__ import annotations

import atexit
import multiprocessing
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.errors import WorkerFailureError
from repro.obs.events import EVT_BATCH
from repro.obs.events import emit as emit_event

#: Seconds slept before the first retried dispatch; doubles per retry.
RETRY_BACKOFF = 0.05


# -- pool management ---------------------------------------------------------

_POOLS: Dict[int, ProcessPoolExecutor] = {}
_THREAD_POOLS: Dict[int, ThreadPoolExecutor] = {}
_POOL_UNAVAILABLE = False


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0])


def get_pool(workers: int) -> Optional[ProcessPoolExecutor]:
    """The cached process pool for ``workers``, building (and caching)
    it on first use; None when this host cannot run a pool at all."""
    global _POOL_UNAVAILABLE
    if _POOL_UNAVAILABLE:
        return None
    pool = _POOLS.get(workers)
    if pool is None:
        try:
            pool = ProcessPoolExecutor(max_workers=workers,
                                       mp_context=_mp_context())
        except (OSError, ValueError, NotImplementedError):
            _POOL_UNAVAILABLE = True
            return None
        _POOLS[workers] = pool
    return pool


def get_thread_pool(workers: int) -> ThreadPoolExecutor:
    """The cached thread pool serving ``workers``-wide kernel regions:
    ``workers - 1`` threads, because the calling thread runs a chunk
    (or a tile) itself.  Threads start at the first submit, not here."""
    pool = _THREAD_POOLS.get(workers)
    if pool is None:
        pool = _THREAD_POOLS.setdefault(workers, ThreadPoolExecutor(
            max_workers=max(1, workers - 1),
            thread_name_prefix="tiramisu-par"))
    return pool


def discard_pool(workers: int) -> None:
    """Drop (and kill) the cached process pool for ``workers`` so the
    next ``get_pool`` builds a fresh one.  Workers are terminated rather
    than joined: a crashed pool's survivors are in an unknown state."""
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


BATCH = Site("batch", "batch-offload", EVT_BATCH, {
    "worker_failure": ("worker_failures", "compile_batch.worker_failures",
                       "batch.worker_failure"),
    "pool_restart": ("pool_restarts", "compile_batch.pool_restarts",
                     "batch.pool_restart"),
    "retry": ("retries", "compile_batch.retries", "batch.retry"),
    "fallback": ("fallbacks", "compile_batch.fallbacks", "batch.fallback"),
    "breaker_block": ("breaker_short_circuits", None, None),
})

#: Every supervised dispatch site: the ``op`` values a ``pool-refusal``
#: fault may name (:meth:`repro.faults.FaultPlan.refuse_pool`).
SITES = (BATCH,)

# Batch coordinating threads book concurrently onto one BatchStats.
_BOOK_LOCK = threading.Lock()


def book(site: Site, outcome: str, stats: tuple, label: str = "",
         **fields) -> None:
    """Account one outcome at ``site``: bump the
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
                    setattr(obj, field, getattr(obj, field) + 1)
    if counter is not None:
        metrics.counter(counter).inc()
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
              **context):
    """Run ``attempt(pool, n)`` (``n`` counts attempts from 0) on the
    ``workers``-wide shared pool under the one failure policy, and
    return what it returned — or None after falling back, when the
    caller degrades inline (so a successful attempt returns non-None).

    A worker *failure* — the attempt raising ``BrokenProcessPool``, a
    futures ``TimeoutError`` or an already-classified
    :class:`WorkerFailureError` — feeds the breaker, discards the pool
    and, unless ``on_worker_failure="raise"``, is retried on a fresh
    pool up to ``max_retries`` times with exponential backoff.  An
    attempt changes nothing in the parent until it returns (a compile
    ships its source back), so a retry starts from clean state.  When
    the pool keeps dying (or cannot come back at all) ``"fallback"``
    falls back; ``"retry"`` / ``"raise"`` re-raise the last failure.  Any other exception is a deterministic application
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
