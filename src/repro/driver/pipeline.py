"""The staged compile pipeline (Layer I -> callable kernel).

One explicit flow: ensure-params -> fingerprint -> [cache lookup] ->
dependences -> legality -> beta-resolution -> time-space -> ast ->
race-check -> emit -> bind, every stage timed into the kernel's
:class:`~repro.driver.trace.CompileReport`.  Two warm tiers sit behind
the fingerprint: the in-process kernel registry (:mod:`.cache`), whose
hit returns the stored kernel, and the on-disk artifact store
(:mod:`.diskcache`, when the ``cache_dir`` knob is set, for backends
with ``bind_from_source``), whose hit re-binds the stored source
(``disk-load`` + ``bind``); a cold compile publishes to both.  The
batch front end (:mod:`.batch`) runs :func:`compile_to_source` (through
emit) in a worker and :meth:`CompilePipeline.run_precompiled` (bind) in
the parent — the static/dynamic split of arXiv 1610.07236.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro import settings
from repro.obs.events import (compile_context, current_compile_id,
                              new_compile_id)
from repro.obs.events import emit as emit_event

from .cache import CacheEntry, CompileCache, kernel_registry
from .context import CompileContext
from .diskcache import active_disk_cache
from .fingerprint import Fingerprint
from .registry import Backend, get_backend
from .resilience import (Deadline, active_fault_plan, current_deadline,
                         deadline_scope)
from .trace import CompileReport, StageTiming, emit_trace

#: Options every backend accepts, with their defaults.
BASE_OPTIONS: Dict[str, object] = {
    "check_legality": False,
    "verbose": False,
    "cache": True,
    # Multicore execution of parallel-tagged loops (cpu backend; the
    # others accept-and-record the same surface so option sets stay
    # uniform).  num_threads=None means "all cores".
    "parallel": True,
    "num_threads": None,
    # Race detector: None = auto (check the parallel tags of every
    # compile that may run them concurrently, on any host), True =
    # always check every parallel/vector/distributed tag, False = skip.
    "check_races": None,
    # Runtime profiling: emit per-computation counters and loop-nest
    # spans into ``kernel.last_run`` (see repro.obs).  Changes the
    # emitted source, so it is part of the cache key; the default
    # (False) path is byte-identical to an unprofiled build.
    "profile": False,
    # Fault tolerance (docs/robustness.md): how many times a batch
    # compile offload is re-dispatched after a worker failure, and the
    # endgame when the pool keeps dying ("fallback" compiles in the
    # parent, "retry" raises after the last attempt, "raise" fails on
    # the first) — a compiled kernel has no worker to lose.  ``timeout``
    # is the request's end-to-end deadline in seconds and the
    # distributed runtime's per-recv deadline (None defers to the
    # ``timeout`` knob, then the per-use default).
    "max_retries": 2,
    "timeout": None,
    "on_worker_failure": "fallback",
    # Execution policy for the compiled kernel: "forkjoin" runs
    # parallel-tagged loops as chunked barrier rounds, "taskgraph"
    # lowers an eligible nest to a dependence-driven tile DAG executed
    # by repro.runtime (docs/task_runtime.md) — and degrades to the
    # fork-join path whenever the nest is ineligible or the runtime
    # declines.  Changes the emitted source, so it rides the cache key.
    "execution": "forkjoin",
    # Autoscheduling: a repro.autosched SchedulePlan (or its serialized
    # JSON) applied for the lowering stages only — the function is
    # restored afterwards, so the fingerprint always describes the
    # pristine function and the canonical plan JSON rides in the cache
    # key.  Auto-scheduled kernels therefore cache correctly in both
    # tiers, and distinct plans for one function yield distinct
    # artifacts (docs/autoscheduler.md).
    "autoschedule": None,
}

#: The stages a full (cold) compile runs, in order ("legality" and
#: "race-check" only when their options enable them, "dependences" —
#: the function's DependenceSummary, which both read — when either
#: does).  With the disk tier active, a warm-from-disk compile instead
#: runs ensure-params -> fingerprint -> disk-load -> bind, and a cold
#: compile appends a disk-store stage after bind.
STAGE_ORDER = ("ensure-params", "fingerprint", "autoschedule",
               "dependences", "legality", "beta-resolution", "time-space",
               "ast", "race-check", "emit", "bind")


def enter_stage(stage: str) -> None:
    """The gate every expensive pipeline stage passes through before it
    starts: charge the ambient request :class:`Deadline` (raising
    :class:`~repro.core.errors.DeadlineExceededError` naming ``stage``
    when the budget is already gone — the stage never begins), journal
    ``resilience.stage.begin`` so the fail-fast property is checkable
    from the event log, and honor an injected ``slow-stage`` fault
    (which models the stage itself stalling, blowing the budget for
    whatever stage comes next)."""
    deadline = current_deadline()
    if deadline is not None:
        deadline.check(stage)
        emit_event("resilience.stage.begin", stage=stage)
    plan = active_fault_plan()
    if plan is not None:
        spec = plan.fires("slow-stage", stage=stage)
        if spec is not None:
            time.sleep(float(spec.payload.get("seconds", 0.05)))


class CompilePipeline:
    """Runs the named compile stages for one backend."""

    def __init__(self, backend: Backend,
                 cache: Optional[CompileCache] = None):
        self.backend = backend
        self.cache = kernel_registry if cache is None else cache

    # -- option handling --------------------------------------------------

    def normalize_options(self, opts: Dict[str, object]
                          ) -> Dict[str, object]:
        """Fill defaults; reject unknown options loudly (a typo like
        ``check_legailty=True`` must never be silently ignored)."""
        allowed = dict(BASE_OPTIONS)
        allowed.update(self.backend.extra_options)
        for key in opts:
            if key not in allowed:
                raise TypeError(
                    f"compile() got an unexpected option {key!r} for "
                    f"target {self.backend.name!r}; valid options: "
                    f"{', '.join(sorted(allowed))}")
        merged = dict(allowed)
        merged.update(opts)
        nt = merged.get("num_threads")
        if nt is not None and (not isinstance(nt, int)
                               or isinstance(nt, bool) or nt < 1):
            raise TypeError(
                f"num_threads must be a positive int or None, got {nt!r}")
        prof = merged.get("profile")
        if not isinstance(prof, bool):
            raise TypeError(
                f"profile must be True or False, got {prof!r}")
        mr = merged.get("max_retries")
        if not isinstance(mr, int) or isinstance(mr, bool) or mr < 0:
            raise TypeError(
                f"max_retries must be a non-negative int, got {mr!r}")
        to = merged.get("timeout")
        if to is not None:
            if isinstance(to, bool) or not isinstance(to, (int, float)):
                raise TypeError(
                    f"timeout must be a positive number or None, "
                    f"got {to!r}")
            if to <= 0:
                raise ValueError(
                    f"timeout must be a positive number, got {to!r}")
        else:
            # No explicit option: a broken ``timeout`` knob (zero,
            # negative, garbage) must also fail here, at normalization,
            # not deep inside the runtime that eventually resolves it.
            settings.get("timeout")
        owf = merged.get("on_worker_failure")
        if owf not in ("retry", "fallback", "raise"):
            raise TypeError(
                f"on_worker_failure must be 'retry', 'fallback' or "
                f"'raise', got {owf!r}")
        execution = merged.get("execution")
        if execution not in ("forkjoin", "taskgraph"):
            raise TypeError(
                f"execution must be 'forkjoin' or 'taskgraph', "
                f"got {execution!r}")
        merged["autoschedule"] = self._canonical_plan(
            merged.get("autoschedule"))
        return merged

    @staticmethod
    def _canonical_plan(value):
        """Normalize the ``autoschedule`` option to canonical serialized
        JSON (or None): equal plans — however spelled — share one cache
        key, and the stored form is picklable for batch workers."""
        if value is None:
            return None
        from repro.autosched.plan import SchedulePlan, SchedulePlanError
        if isinstance(value, SchedulePlan):
            return value.serialize()
        if isinstance(value, str):
            try:
                return SchedulePlan.deserialize(value).serialize()
            except (SchedulePlanError, ValueError) as err:
                raise TypeError(
                    f"autoschedule must be a SchedulePlan or its "
                    f"serialized JSON: {err}") from None
        raise TypeError(
            f"autoschedule must be a SchedulePlan, its serialized JSON, "
            f"or None, got {type(value).__name__}")

    # -- stages -----------------------------------------------------------

    def _ensure_params(self, ctx: CompileContext) -> None:
        """Materialize what the fingerprint must see: argument kinds and
        the auto-created buffers they promote (extents wait for a
        reader).  Idempotent: repeated compiles fingerprint alike."""
        from repro.backends.common import infer_argument_kinds
        infer_argument_kinds(ctx.fn)

    def _cache_lookup(self, ctx: CompileContext):
        """Return the registry's kernel for this fingerprint, or None.

        An entry whose originating function was mutated *after* being
        stored (content drift — in-place scheduling of a still-cached
        function) no longer matches its own key; detect that from the
        entry's kept :class:`Fingerprint`, which re-prints only the
        computations that changed since, and drop the entry."""
        entry = self.cache.get(ctx.fingerprint)
        if entry is None:
            return None
        if entry.fn is not ctx.fn and not entry.prints.holds():
            self.cache.discard(ctx.fingerprint)
            return None
        self.cache.hits += 1
        return entry

    def _key_options(self, options: Dict[str, object]) -> Dict[str, object]:
        """The options that affect generated code (and hence the cache
        key).  ``verbose`` and ``cache`` are driver behavior, not
        content."""
        return {k: v for k, v in options.items()
                if k not in ("verbose", "cache")}

    def _race_check_kinds(self, ctx: CompileContext):
        """Which tag kinds the race detector verifies for this compile,
        or None to skip the stage.

        ``check_races=True`` is strict — every parallel/vector/
        distributed tag, on any backend.  The default (None, "auto")
        guards every compile that may run loop iterations concurrently,
        whatever the host and the worker count: the tags of the kinds
        the backend runs concurrently (``parallel_execution``:
        ``parallel`` on ``cpu`` and ``c``, ``distributed`` on
        ``distributed``), unless ``parallel=False``.  Vector tags are
        exempt in auto mode because the Python emitter decides each
        ``vector`` loop by the same rule itself
        (:func:`repro.codegen.lanes.lane_verdict`: no dependence
        carried at that level) and leaves a loop that fails it scalar,
        with the reason in the loop comment; when this stage did cover
        ``vector``, emit reuses its verdict instead of asking again."""
        opt = ctx.options.get("check_races")
        if opt is False:
            return None
        if opt:
            from repro.core.deps import RACE_CHECKED_TAGS
            return RACE_CHECKED_TAGS
        if not ctx.options.get("parallel", True):
            return None
        concurrent = getattr(self.backend, "parallel_execution", ())
        kinds = {tag.kind for comp in ctx.fn.active_computations()
                 for tag in getattr(comp, "tags", {}).values()
                 if tag.kind in concurrent}
        return tuple(sorted(kinds)) or None

    def _disk_tier(self):
        """The active disk cache, or None — the tier only serves
        backends whose kernels rebuild from stored source alone."""
        if not getattr(self.backend, "bind_from_source", False):
            return None
        return active_disk_cache()

    # -- driver -----------------------------------------------------------

    def _begin(self, fn, options: Dict[str, object]) -> CompileContext:
        """The stages every entry point shares: build the report and
        context, materialize params, fingerprint.

        The report's ``compile_id`` is the ambient correlation id when
        one is installed (a batch job's submit-time id, a search's
        measurement context), else freshly issued here — either way it
        labels this compile's journal events and tracer spans."""
        report = CompileReport(function=fn.name, target=self.backend.name,
                               compile_id=(current_compile_id()
                                           or new_compile_id()))
        ctx = CompileContext(fn=fn, target=self.backend.name,
                             options=options, backend=self.backend,
                             report=report, deadline=current_deadline())
        emit_event("compile.begin", compile_id=report.compile_id,
                   function=fn.name, target=self.backend.name)
        with report.timed("ensure-params"):
            self._ensure_params(ctx)
        with report.timed("fingerprint"):
            ctx.prints = Fingerprint(fn, self.backend.name,
                                     self._key_options(options))
        report.fingerprint = ctx.fingerprint = ctx.prints.digest
        return ctx

    def _lower_and_emit(self, ctx: CompileContext) -> None:
        """The heavy middle of the pipeline: legality through emitted
        source (everything a cache hit skips).  A schedule plan from the
        ``autoschedule`` option is applied for exactly these stages and
        undone on every exit path, so the function's observable schedule
        (and hence its fingerprint) never drifts."""
        plan = None
        if ctx.options.get("autoschedule"):
            from repro.autosched.plan import SchedulePlan
            plan = SchedulePlan.deserialize(ctx.options["autoschedule"])
            with ctx.report.timed("autoschedule"):
                plan.apply(ctx.fn)
            emit_event("search.plan_apply",
                       compile_id=ctx.report.compile_id,
                       function=ctx.fn.name,
                       actions=len(getattr(plan, "actions", ()) or ()))
        try:
            self._lower_and_emit_inner(ctx)
        finally:
            if plan is not None:
                plan.undo(ctx.fn)

    def _lower_and_emit_inner(self, ctx: CompileContext) -> None:
        fn, report, options = ctx.fn, ctx.report, ctx.options
        from repro.core.deps import DependenceSummary
        summary = DependenceSummary.of(fn)
        since = summary.stats()
        race_kinds = self._race_check_kinds(ctx)
        if options["check_legality"] or race_kinds is not None:
            # One analysis serves legality, race-check and emit's lane
            # verdicts (which otherwise ask for it inside emit).
            enter_stage("dependences")
            with report.timed("dependences"):
                summary.dependences()
        if options["check_legality"]:
            enter_stage("legality")
            with report.timed("legality"):
                report.deps_checked = summary.check_legality()

        from repro.codegen.isl_to_ast import build_ast, collect_items
        with report.timed("beta-resolution"):
            ctx.beta = fn.resolve_order()
        with report.timed("time-space"):
            ctx.items = collect_items(fn, ctx.beta)
        with report.timed("ast"):
            ctx.ast = build_ast(ctx.items)

        if race_kinds is not None:
            enter_stage("race-check")
            with report.timed("race-check"):
                report.races_checked = summary.check_races(race_kinds)
            ctx.lanes_verified = "vector" in race_kinds

        enter_stage("emit")
        with report.timed("emit"):
            ctx.source = self.backend.emit(ctx)
        report.source_size = len(ctx.source)
        now = summary.stats()
        if now["deps_computed"]:
            report.deps_count = now["deps_count"]
            report.level_tests = now["level_tests"] - since["level_tests"]
            report.profiles_reused = (now["profiles_reused"]
                                      - since["profiles_reused"])
        if options["verbose"]:
            print(ctx.source)

    def _bind_and_store(self, ctx: CompileContext, *,
                        store_disk: bool = True):
        """Bind the context's source and publish the artifact to both
        cache tiers (memory always, disk when active)."""
        report = ctx.report
        with report.timed("bind"):
            ctx.kernel = self.backend.bind(ctx)
        if bool(ctx.options["cache"]):
            self.cache.misses += 1
            self.cache.put(CacheEntry(key=ctx.fingerprint, fn=ctx.fn,
                                      target=self.backend.name,
                                      source=ctx.source,
                                      kernel=ctx.kernel,
                                      prints=ctx.prints.keep()))
            disk = self._disk_tier() if store_disk else None
            if disk is not None and ctx.fingerprint not in disk:
                enter_stage("disk-store")
                with report.timed("disk-store"):
                    disk.put(ctx.fingerprint, ctx.source,
                             self.backend.name, extras=ctx.extras)
        return self._finish(ctx, ctx.kernel)

    def run(self, fn, **opts):
        """Compile ``fn`` through the staged pipeline; returns a kernel
        with a ``report`` attribute.

        The whole compile runs under an ambient
        :func:`~repro.obs.events.compile_context`, so every journal
        event the cache tiers and lowering stages emit carries this
        compile's correlation id without threading it explicitly — and
        under an ambient :func:`deadline_scope`: the ``timeout`` option
        (or the ``timeout`` knob) becomes the request's end-to-end
        budget, charged from here, that every expensive stage checks
        before starting."""
        with self._request(opts) as options:
            return self._run_body(self._begin(fn, options))

    @contextmanager
    def _request(self, opts, compile_id: Optional[str] = None,
                 remaining: Optional[float] = None):
        """Normalize ``opts`` and hold the request's ambient correlation
        id and :class:`Deadline` (``remaining`` seconds when shipped,
        else the ambient one, else one from the ``timeout`` option)
        around the ``with`` block, which receives the options."""
        options = self.normalize_options(opts)
        deadline = Deadline(remaining) if remaining is not None else \
            current_deadline() or Deadline.from_timeout(options["timeout"])
        with compile_context(compile_id or current_compile_id()
                             or new_compile_id()), deadline_scope(deadline):
            yield options

    def _run_body(self, ctx: CompileContext):
        report, options = ctx.report, ctx.options
        use_cache = bool(options["cache"])
        if use_cache:
            entry = self._cache_lookup(ctx)
            if entry is not None:
                emit_event("cache.memory.hit", key=ctx.fingerprint[:16])
                report.cache_hit = True
                report.source_size = len(entry.source)
                if options["verbose"]:
                    print(entry.source)
                return self._finish(ctx, entry.kernel)
            emit_event("cache.memory.miss", key=ctx.fingerprint[:16])
            disk = self._disk_tier()
            if disk is not None:
                enter_stage("disk-load")
                with report.timed("disk-load"):
                    dentry = disk.get(ctx.fingerprint)
                if dentry is not None:
                    ctx.source = dentry.source
                    ctx.extras.update(dentry.extras)
                    report.disk_hit = True
                    report.source_size = len(ctx.source)
                    if options["verbose"]:
                        print(ctx.source)
                    # The artifact is already durable: bind it and
                    # promote into the in-memory tier only.
                    return self._bind_and_store(ctx, store_disk=False)

        self._lower_and_emit(ctx)
        if not use_cache:
            with report.timed("bind"):
                ctx.kernel = self.backend.bind(ctx)
            return self._finish(ctx, ctx.kernel)
        return self._bind_and_store(ctx)

    def run_precompiled(self, fn, *, source: str,
                        fingerprint: str = "",
                        extras: Optional[Dict[str, object]] = None,
                        stages: Optional[List[Tuple[str, float,
                                                    float]]] = None,
                        analysis: Optional[Dict[str, int]] = None,
                        **opts):
        """Bind a kernel whose heavy stages already ran elsewhere (a
        batch worker process, see :func:`compile_to_source`).

        ``stages`` are the worker's stage timings and ``analysis`` its
        report's :meth:`~repro.driver.trace.CompileReport.analysis`
        counters; they are adopted into this report so the cost of the
        compile stays visible wherever it was paid.  The bound kernel is
        published to both cache tiers exactly as a local cold compile
        would be."""
        with self._request(opts) as options:
            ctx = self._begin(fn, options)
            if fingerprint and fingerprint != ctx.fingerprint:
                raise ValueError(
                    f"precompiled artifact fingerprint {fingerprint[:16]} "
                    f"does not match {ctx.fingerprint[:16]} for "
                    f"{fn.name!r}: the function drifted between the "
                    "worker compile and the bind")
            for name, seconds, start in (stages or []):
                ctx.report.stages.append(StageTiming(name, seconds, start))
            for name, value in (analysis or {}).items():
                setattr(ctx.report, name, value)
            ctx.source = source
            ctx.extras.update(extras or {})
            ctx.report.source_size = len(source)
            if options["verbose"]:
                print(source)
            return self._bind_and_store(ctx)

    def _finish(self, ctx: CompileContext, kernel):
        # Point-in-time snapshots: later compiles must not mutate the
        # stats an already-issued report carries.  Every tier reports
        # through the shared CacheStats vocabulary (repro.driver.stats).
        ctx.report.cache_stats = self.cache.stats()
        from repro.isl.cache import stats as isl_cache_stats
        ctx.report.isl_cache_stats = isl_cache_stats()
        disk = self._disk_tier()
        if disk is not None:
            ctx.report.disk_cache_stats = disk.counters()
        ctx.report.parallel_regions = getattr(kernel, "parallel_regions", 0)
        ctx.report.vector_loops = getattr(kernel, "vector_loops", 0)
        ctx.report.vector_declines = list(
            getattr(kernel, "vector_declines", ()))
        runtime = getattr(kernel, "runtime", None)
        if runtime is not None:
            ctx.report.parallel_workers = runtime.num_threads
        kernel.report = ctx.report
        report = ctx.report
        from repro.obs.metrics import metrics
        metrics.histogram("compile.seconds").observe(report.total_seconds)
        emit_event("compile.end", compile_id=report.compile_id,
                   function=report.function, target=report.target,
                   verdict=report.verdict,
                   total_seconds=report.total_seconds,
                   key=report.fingerprint[:16])
        emit_trace(ctx.report)
        from repro.obs.tracer import get_tracer
        tracer = get_tracer()
        if tracer.enabled():
            tracer.record_compile(ctx.report)
        if settings.get("metrics_file") is not None:
            from repro.obs.export import autoflush
            autoflush()
        return kernel


def compile_function(fn, target: str = "cpu", **opts):
    """The unified compile entry point behind ``Function.compile``."""
    return CompilePipeline(get_backend(target)).run(fn, **opts)


def compile_to_source(fn, target: str = "cpu",
                      compile_id: Optional[str] = None,
                      deadline_remaining: Optional[float] = None,
                      **opts) -> Dict[str, object]:
    """Run the pipeline through ``emit`` only and return a picklable
    artifact — the half of a compile that is worth shipping between
    processes (the ``bind`` stage needs the caller's live objects).

    This is what a batch worker executes (:mod:`repro.driver.batch`):
    the dict carries the fingerprint, the emitted source, backend
    extras, and the worker's heavy-stage timings, and the parent turns
    it into a kernel with :meth:`CompilePipeline.run_precompiled`.
    When the disk tier is active the worker checks it before lowering
    and publishes its artifact after, so concurrent workers racing on
    one fingerprint do the work once.

    ``compile_id`` pins the journal correlation id explicitly — a
    contextvars ambient id does not cross the process boundary, so the
    batch front end ships the submit-time id along with the job and the
    worker's events still join the parent's.  ``deadline_remaining``
    crosses the same boundary for the request budget: monotonic clocks
    do not travel between processes, so the parent ships the seconds it
    has left and the worker resumes charging from there (a fresh
    deadline is built from the ``timeout`` option only when nothing was
    shipped)."""
    backend = get_backend(target)
    pipe = CompilePipeline(backend)
    with pipe._request(opts, compile_id, deadline_remaining) as options:
        ctx = pipe._begin(fn, options)
        shared = len(ctx.report.stages)   # ensure-params + fingerprint
        disk = pipe._disk_tier() if options["cache"] else None
        from_disk = False
        if disk is not None:
            enter_stage("disk-load")
            dentry = disk.get(ctx.fingerprint)
            if dentry is not None:
                ctx.source = dentry.source
                ctx.extras.update(dentry.extras)
                from_disk = True
        if not from_disk:
            pipe._lower_and_emit(ctx)
            if disk is not None:
                enter_stage("disk-store")
                disk.put(ctx.fingerprint, ctx.source, backend.name,
                         extras=ctx.extras)
    return {
        "fingerprint": ctx.fingerprint,
        "target": backend.name,
        "source": ctx.source,
        "extras": dict(ctx.extras),
        "stages": [(s.name, s.seconds, s.start)
                   for s in ctx.report.stages[shared:]],
        "analysis": ctx.report.analysis(),
        "from_disk": from_disk,
    }
