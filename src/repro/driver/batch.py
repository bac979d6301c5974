"""Concurrent batch compilation: submit many kernels, compile each
distinct one once, across a worker pool.

The autoscheduler search loop, the benchmark harness, and any service
front end share one traffic shape: N compile requests, many of them
duplicates, where only the distinct fingerprints deserve real work.
This module is the front end for that shape:

* :func:`compile_batch` — the one-shot form: hand it an iterable of
  functions (or :class:`CompileRequest`\\ s), get the kernels back in
  request order, duplicates deduplicated by
  :func:`~repro.driver.fingerprint.ir_fingerprint` so an N-duplicate
  batch costs ~1 compile.
* :class:`BatchCompiler` — the async form: ``submit()`` returns a
  :class:`CompileHandle` immediately; ``handle.result()`` blocks for
  the kernel; ``as_completed()`` yields handles (and their
  :class:`~repro.driver.trace.CompileReport`\\ s) as compiles finish.

Distinct cold compiles run their heavy stages (legality through emit)
inside the cached fork pool of :mod:`repro.backends.pool` — the only
user of a process pool; compiled kernels run in the caller's process —
via :func:`repro.driver.pipeline.compile_to_source`; the parent then
binds the shipped source with
:meth:`~repro.driver.pipeline.CompilePipeline.run_precompiled` and
publishes the artifact to the memory and disk cache tiers.  Warm
requests (memory or disk hit) never leave the parent.  Compile
dispatch goes through :func:`~repro.backends.pool.supervise`
(docs/robustness.md): ``max_retries`` and ``on_worker_failure`` govern
this offload alone, with "fallback" compiling inline in the parent,
and ``timeout`` is the request's deadline, which each attempt ships to
the worker.  Deterministic compile
errors — an illegal schedule, a bad option — are application errors:
they are never retried and surface on ``result()`` for every handle of
that fingerprint.
"""

from __future__ import annotations

import pickle
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures import as_completed as _futures_as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from repro import settings
from repro.backends.pool import BATCH, refusal, supervise
from repro.core.errors import AdmissionError
from repro.obs.events import (EVT_BATCH, EVT_RESILIENCE, compile_context,
                              emit, new_compile_id)

from .pipeline import CompilePipeline, compile_to_source
from .registry import get_backend
from .resilience import Deadline, deadline_scope


@dataclass
class CompileRequest:
    """One batch item: a function, an optional per-item target, and
    per-item compile options (merged over the batch-wide ones)."""

    fn: object
    target: Optional[str] = None
    options: Dict[str, object] = field(default_factory=dict)


@dataclass
class BatchStats:
    """What one batch actually did — the dedup/warmth ledger."""

    submitted: int = 0          # handles issued
    deduplicated: int = 0       # submits coalesced onto an existing job
    memory_hits: int = 0        # jobs served by the in-process registry
    disk_hits: int = 0          # jobs served by the on-disk tier
    compiled: int = 0           # jobs that ran the heavy stages
    worker_compiles: int = 0    # ... in a pool worker process
    inline_compiles: int = 0    # ... inline in the parent
    worker_failures: int = 0    # infrastructure failures observed
    retries: int = 0            # compile dispatches retried
    pool_restarts: int = 0      # broken pools discarded and rebuilt
    fallbacks: int = 0          # worker paths degraded to inline
    admission_rejected: int = 0  # submits refused over capacity
    admission_shed: int = 0      # queued jobs cancelled to admit newer
    admission_blocked: int = 0   # submits that waited for capacity
    breaker_short_circuits: int = 0  # offloads refused by the breaker


class _Job:
    """One distinct fingerprint's compile; every duplicate handle
    attaches here."""

    def __init__(self, fingerprint: str, fn, target: str,
                 options: Dict[str, object],
                 normalized: Dict[str, object],
                 cost_bytes: int = 0):
        self.fingerprint = fingerprint
        self.fn = fn
        self.target = target
        self.options = options          # raw, re-normalized by the pipeline
        self.normalized = normalized
        # The correlation id for this job's whole story: issued at
        # submit time, installed as the ambient compile_context around
        # the job's compile (so the pipeline adopts it), and shipped
        # explicitly to pool workers.
        self.compile_id = new_compile_id()
        # The request budget starts here, at submit — queueing time is
        # charged against it just like compile time.
        self.deadline: Optional[Deadline] = Deadline.from_timeout(
            normalized.get("timeout"))
        self.cost_bytes = int(cost_bytes)
        self.admitted = False           # counted in the admission ledger
        self.shed = False               # cancelled by shed-oldest
        self.thread_future: Optional[Future] = None
        self.future: Future = Future()
        self.handles: List["CompileHandle"] = []


class CompileHandle:
    """The async side of one ``submit()``: poll with :meth:`done`,
    block with :meth:`result`.  Duplicate submissions share one job, so
    their kernels — and reports — are the same objects."""

    def __init__(self, job: _Job, request: CompileRequest):
        self._job = job
        self.request = request

    @property
    def fingerprint(self) -> str:
        return self._job.fingerprint

    @property
    def compile_id(self) -> str:
        """The job's journal correlation id (shared by duplicate
        handles, since they share the compile)."""
        return self._job.compile_id

    @property
    def target(self) -> str:
        return self._job.target

    def done(self) -> bool:
        return self._job.future.done()

    def result(self, timeout: Optional[float] = None):
        """The compiled kernel (with its ``report``); re-raises the
        compile's error if it failed."""
        return self._job.future.result(timeout=timeout)

    def exception(self, timeout: Optional[float] = None):
        return self._job.future.exception(timeout=timeout)

    @property
    def report(self):
        """The finished compile's :class:`CompileReport` (None while
        the compile is still in flight or if it failed)."""
        if not self._job.future.done() \
                or self._job.future.exception() is not None:
            return None
        return getattr(self._job.future.result(), "report", None)


class BatchCompiler:
    """The submit()/result() front end over the staged pipeline.

    ``max_workers`` bounds both the coordinating threads and the size
    of the shared compile process pool (default: every core).
    ``use_processes`` forces the worker-pool path on (True) or off
    (False); the default (None) offloads exactly the cold compiles of
    backends that can rebind from source.  Batch-wide compile options
    (``check_legality=True``, ``timeout=...``, ...) apply to every
    submit and merge under per-submit overrides.

    Admission control (docs/robustness.md): ``max_pending`` bounds the
    number of distinct in-flight jobs, ``max_queued_bytes`` bounds the
    estimated bytes they hold, and ``admission_policy`` picks what an
    over-capacity ``submit`` does — ``"reject"`` (default) raises
    :class:`~repro.core.errors.AdmissionError` immediately, ``"block"``
    waits for capacity, ``"shed-oldest"`` cancels the oldest not-yet-
    started job (failing *its* handles with ``AdmissionError``) to
    admit the newcomer.  Unset arguments take the knobs of the same
    names (:mod:`repro.settings`); with neither, admission is
    unbounded (the pre-admission behavior).  Duplicate submits
    attach to the existing job and are never refused — dedup costs no
    capacity."""

    def __init__(self, target: str = "cpu",
                 max_workers: Optional[int] = None,
                 use_processes: Optional[bool] = None,
                 max_pending: Optional[int] = None,
                 max_queued_bytes: Optional[int] = None,
                 admission_policy: Optional[str] = None,
                 **default_options):
        from repro.backends.parallel import resolve_num_threads
        self.target = target
        self.workers = resolve_num_threads(max_workers)
        self.use_processes = use_processes
        self.max_pending = settings.resolve("max_pending", max_pending)
        self.max_queued_bytes = settings.resolve("max_queued_bytes",
                                                 max_queued_bytes)
        self.admission_policy = settings.resolve("admission_policy",
                                                 admission_policy)
        self.default_options = dict(default_options)
        self.stats = BatchStats()
        self._pipelines: Dict[str, CompilePipeline] = {}
        self._jobs: Dict[str, _Job] = {}
        self._threads = ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="tiramisu-batch")
        self._bind_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        # The admission ledger: in-flight jobs in submission order,
        # guarded by the stats lock; the condition wakes blocked
        # submitters when a job settles.
        self._admission = threading.Condition(self._stats_lock)
        self._pending = 0
        self._pending_bytes = 0
        self._inflight: List[_Job] = []
        self._shed_jobs: List[_Job] = []
        self._shut_down = False

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "BatchCompiler":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(wait=exc == (None, None, None))

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting submits and (optionally) wait for in-flight
        compiles.  The shared process pools stay warm for the next
        batch — they are process-wide machinery, not this batch's."""
        self._shut_down = True
        self._threads.shutdown(wait=wait)

    # -- submission -----------------------------------------------------

    def _pipeline(self, target: str) -> CompilePipeline:
        pipe = self._pipelines.get(target)
        if pipe is None:
            pipe = CompilePipeline(get_backend(target))
            self._pipelines[target] = pipe
        return pipe

    def submit(self, fn, target: Optional[str] = None,
               **options) -> CompileHandle:
        """Enqueue one compile; returns immediately with a handle.
        Requests whose fingerprint matches an in-flight (or finished)
        job attach to it instead of compiling again."""
        if self._shut_down:
            raise RuntimeError("BatchCompiler is shut down")
        from repro.obs.metrics import metrics
        resolved_target = target or self.target
        opts = dict(self.default_options)
        opts.update(options)
        pipeline = self._pipeline(resolved_target)
        normalized = pipeline.normalize_options(opts)
        from repro.backends.common import infer_argument_kinds
        infer_argument_kinds(fn)
        from .fingerprint import ir_fingerprint
        fingerprint = ir_fingerprint(
            fn, pipeline.backend.name, pipeline._key_options(normalized))
        request = CompileRequest(fn=fn, target=resolved_target,
                                 options=opts)
        # The byte estimate costs a pickle; only the bytes bound needs
        # it, so the unbounded (and count-bounded) paths skip it.
        cost_bytes = (self._estimate_cost(fn, opts)
                      if self.max_queued_bytes is not None else 0)
        metrics.counter("compile_batch.submitted").inc()
        with self._stats_lock:
            self.stats.submitted += 1
            job = self._jobs.get(fingerprint)
            if job is not None:
                self.stats.deduplicated += 1
                metrics.counter("compile_batch.deduplicated").inc()
                emit("batch.dedup", EVT_BATCH,
                     compile_id=job.compile_id, function=fn.name,
                     key=fingerprint[:16])
                handle = CompileHandle(job, request)
                job.handles.append(handle)
                return handle
            job = _Job(fingerprint, fn, resolved_target, opts, normalized,
                       cost_bytes=cost_bytes)
            self._admit_locked(job)   # may raise, block, or shed
            self._jobs[fingerprint] = job
        emit("batch.submit", EVT_BATCH, compile_id=job.compile_id,
             function=fn.name, target=resolved_target,
             key=fingerprint[:16])
        handle = CompileHandle(job, request)
        job.handles.append(handle)
        job.thread_future = self._threads.submit(self._run_job, job)
        job.thread_future.add_done_callback(
            lambda tf, job=job: self._settle(job, tf))
        return handle

    @staticmethod
    def _estimate_cost(fn, options: Dict[str, object]) -> int:
        """The admission ledger's byte estimate for one job: the pickled
        request size (what offloading would ship; 0 when unpicklable —
        such jobs compile inline and hold little)."""
        try:
            return len(pickle.dumps((fn, options)))
        except Exception:  # noqa: BLE001 - anything unpicklable
            return 0

    def _admit_locked(self, job: _Job) -> None:
        """Admission control, called with the stats lock held.  Charges
        the job to the pending ledger, or — over capacity — applies the
        policy: raise :class:`AdmissionError`, wait on the condition, or
        shed the oldest not-yet-started job to make room."""
        from repro.obs.metrics import metrics
        if self.max_pending is None and self.max_queued_bytes is None:
            return
        blocked = False
        while True:
            over_count = (self.max_pending is not None
                          and self._pending >= self.max_pending)
            # A single over-sized request is still admitted onto an
            # empty ledger — otherwise it could never run at all.
            over_bytes = (self.max_queued_bytes is not None
                          and self._pending > 0
                          and self._pending_bytes + job.cost_bytes
                          > self.max_queued_bytes)
            if not (over_count or over_bytes):
                job.admitted = True
                self._pending += 1
                self._pending_bytes += job.cost_bytes
                self._inflight.append(job)
                return
            limit = ("max_pending" if over_count else "max_queued_bytes")
            if self.admission_policy == "shed-oldest" \
                    and self._shed_oldest_locked():
                continue
            if self.admission_policy == "block":
                if not blocked:
                    blocked = True
                    self.stats.admission_blocked += 1
                    metrics.counter("resilience.admission.block").inc()
                    emit("resilience.admission.block", EVT_RESILIENCE,
                         compile_id=job.compile_id, limit=limit,
                         pending=self._pending,
                         pending_bytes=self._pending_bytes)
                self._admission.wait()
                continue
            # "reject", or shed-oldest with nothing left to shed.
            self.stats.admission_rejected += 1
            metrics.counter("resilience.admission.reject").inc()
            emit("resilience.admission.reject", EVT_RESILIENCE,
                 compile_id=job.compile_id, limit=limit,
                 pending=self._pending,
                 pending_bytes=self._pending_bytes)
            raise AdmissionError(
                f"compile service over capacity ({limit}: "
                f"{self._pending} pending, {self._pending_bytes} queued "
                f"bytes); submission of {job.fn.name!r} refused")

    def _shed_oldest_locked(self) -> bool:
        """Cancel the oldest in-flight job that has not started running
        (its handles fail with :class:`AdmissionError`); returns False
        when every pending job is already executing."""
        from repro.obs.metrics import metrics
        for victim in self._inflight:
            # shed is set before cancel(): a cancelled future runs its
            # done callback synchronously in this thread, and _settle
            # must see the flag (and skip the ledger) before then.
            victim.shed = True
            if victim.thread_future is None \
                    or not victim.thread_future.cancel():
                victim.shed = False
                continue
            self._inflight.remove(victim)
            self._pending -= 1
            self._pending_bytes -= victim.cost_bytes
            self._jobs.pop(victim.fingerprint, None)
            self._shed_jobs.append(victim)
            self.stats.admission_shed += 1
            metrics.counter("resilience.admission.shed").inc()
            emit("resilience.admission.shed", EVT_RESILIENCE,
                 compile_id=victim.compile_id,
                 function=victim.fn.name)
            victim.future.set_exception(AdmissionError(
                f"compile of {victim.fn.name!r} shed before starting: "
                f"the service is over capacity and newer work was "
                f"admitted in its place"))
            return True
        return False

    def _settle(self, job: _Job, thread_future: Future) -> None:
        if job.shed or thread_future.cancelled():
            return  # shed-oldest already failed the job's future
        exc = thread_future.exception()
        if exc is not None:
            job.future.set_exception(exc)
        else:
            job.future.set_result(thread_future.result())
        if job.admitted:
            with self._admission:
                self._pending -= 1
                self._pending_bytes -= job.cost_bytes
                try:
                    self._inflight.remove(job)
                except ValueError:
                    pass
                self._admission.notify_all()

    def as_completed(self, timeout: Optional[float] = None
                     ) -> Iterator[CompileHandle]:
        """Yield every submitted handle as its compile finishes —
        duplicates of one job are yielded together, the moment their
        shared compile lands.  Shed jobs count too — their futures are
        already settled with :class:`AdmissionError`."""
        with self._stats_lock:
            jobs = list(self._jobs.values()) + list(self._shed_jobs)
        by_future = {job.future: job for job in jobs}
        for future in _futures_as_completed(by_future, timeout=timeout):
            yield from by_future[future].handles

    # -- execution ------------------------------------------------------

    def _count(self, **deltas: int) -> None:
        with self._stats_lock:
            for name, delta in deltas.items():
                setattr(self.stats, name,
                        getattr(self.stats, name) + delta)

    def _run_job(self, job: _Job):
        # Coordinating threads do not inherit the submitter's
        # contextvars, so the job's id — and its submit-time deadline —
        # are installed explicitly here; everything the pipeline runs
        # below inherits both.
        with compile_context(job.compile_id), \
                deadline_scope(job.deadline):
            return self._run_job_inner(job)

    def _run_job_inner(self, job: _Job):
        pipeline = self._pipeline(job.target)
        if self._offloadable(pipeline, job):
            artifact = self._compile_in_worker(job)
            if artifact is not None:
                with self._bind_lock:
                    kernel = pipeline.run_precompiled(
                        job.fn,
                        source=artifact["source"],
                        fingerprint=artifact["fingerprint"],
                        extras=artifact["extras"],
                        stages=artifact["stages"],
                        analysis=artifact["analysis"],
                        **job.options)
                if artifact["from_disk"]:
                    self._count(disk_hits=1)
                else:
                    self._count(compiled=1, worker_compiles=1)
                    from repro.obs.metrics import metrics
                    metrics.counter("compile_batch.worker_compiles").inc()
                return kernel
        with self._bind_lock:
            kernel = pipeline.run(job.fn, **job.options)
        report = kernel.report
        if report.cache_hit:
            self._count(memory_hits=1)
        elif report.disk_hit:
            self._count(disk_hits=1)
        else:
            self._count(compiled=1, inline_compiles=1)
            from repro.obs.metrics import metrics
            metrics.counter("compile_batch.inline_compiles").inc()
        return kernel

    def _offloadable(self, pipeline: CompilePipeline, job: _Job) -> bool:
        """Worth shipping to a worker process?  Only a cold compile of
        a rebind-from-source backend, on a host with a working pool,
        with a picklable function."""
        if self.use_processes is False or self.workers < 2:
            return False
        if not getattr(pipeline.backend, "bind_from_source", False):
            return False
        if not bool(job.normalized.get("cache", True)) \
                and self.use_processes is not True:
            return False
        if job.fingerprint in pipeline.cache:
            return False   # warm in memory: stay inline
        disk = pipeline._disk_tier()
        if disk is not None and job.fingerprint in disk:
            return False   # warm on disk: loading inline is cheaper
        # The breaker (asked before the costly probes: pool creation,
        # the picklability check) and the pool itself.
        if refusal(BATCH, (self.stats,), self.workers,
                   function=job.fn.name) is not None:
            return False
        try:
            pickle.dumps((job.fn, job.options))
        except Exception:  # noqa: BLE001 - anything unpicklable
            return False
        return True

    def _compile_in_worker(self, job: _Job):
        """Dispatch one source compile onto the shared pool under the
        shared supervised-dispatch policy.  Returns the artifact dict,
        or None to compile inline instead.  Each attempt ships what is
        left of the job's budget to the worker and waits no longer than
        that for the result."""
        def attempt(pool, n):
            remaining = (job.deadline.remaining()
                         if job.deadline is not None else None)
            try:
                future = pool.submit(
                    compile_to_source, job.fn, job.target,
                    compile_id=job.compile_id,
                    deadline_remaining=remaining, **job.options)
            except BrokenProcessPool:
                raise
            except Exception:  # noqa: BLE001 - pool shut down under us
                return None
            # Anything else the worker raised is a deterministic compile
            # error and propagates to every handle of this fingerprint.
            try:
                return future.result(timeout=remaining)
            except FuturesTimeoutError:
                future.cancel()
                raise
            except pickle.PicklingError:
                return None

        return supervise(
            attempt, site=BATCH, stats=(self.stats,), workers=self.workers,
            label=job.fn.name,
            max_retries=int(job.normalized.get("max_retries", 2)),
            on_worker_failure=job.normalized.get("on_worker_failure",
                                                 "fallback"),
            function=job.fn.name)


def compile_batch(requests: Iterable, target: str = "cpu",
                  max_workers: Optional[int] = None,
                  use_processes: Optional[bool] = None,
                  max_pending: Optional[int] = None,
                  max_queued_bytes: Optional[int] = None,
                  admission_policy: Optional[str] = None,
                  **options) -> List[object]:
    """Compile a batch and return the kernels in request order.

    ``requests`` may mix plain :class:`~repro.core.function.Function`
    objects, ``(fn, options_dict)`` pairs, and
    :class:`CompileRequest`\\ s.  Duplicate fingerprints share one
    compile (and one kernel object); distinct cold compiles run
    concurrently across the worker pool.  The first failed compile
    raises, after every in-flight job has settled."""
    with BatchCompiler(target=target, max_workers=max_workers,
                       use_processes=use_processes,
                       max_pending=max_pending,
                       max_queued_bytes=max_queued_bytes,
                       admission_policy=admission_policy,
                       **options) as batch:
        handles: List[CompileHandle] = []
        for request in requests:
            if isinstance(request, CompileRequest):
                handles.append(batch.submit(
                    request.fn, target=request.target,
                    **request.options))
            elif isinstance(request, tuple):
                fn, item_options = request
                handles.append(batch.submit(fn, **dict(item_options)))
            else:
                handles.append(batch.submit(request))
        return [handle.result() for handle in handles]
