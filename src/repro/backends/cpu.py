"""The multicore CPU backend: Layer IV -> Python/NumPy source -> kernel.

This plays the role of the paper's LLVM backend (reached through Halide
lowering in the original system): the polyhedral AST is emitted as
executable code.  Loops tagged ``vector`` become NumPy array arithmetic;
top-level loops tagged ``parallel`` become chunked worker functions that
run on threads over the caller's own arrays
(:mod:`repro.backends.parallel`: whole-slab bodies, which release the
GIL, at or above its size floor) when ``num_threads`` resolves to two or
more workers, and inline otherwise.  A kernel never leaves the caller's
process.  The modeled speedups in :mod:`repro.machine.cpu_model`
remain available for the paper-scale figures.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.codegen.pyemit import (_CDIV, _PRELUDE, _PROFILE_PRELUDE, Emitter,
                                  _buf_var, profile_counted_comps,
                                  vector_summary)
from repro.core.buffer import ArgKind, Buffer
from repro.core.function import Function
from repro.driver.registry import Backend, register_backend

from .common import (bind_arguments, bind_python_kernel, collect_buffers,
                     infer_argument_kinds)
from .evalexpr import eval_const_expr


class CompiledKernel:
    """A callable compiled Tiramisu function."""

    def __init__(self, fn: Function, source: str, pyfunc, buffers,
                 param_names):
        self.fn = fn
        self.source = source
        self._pyfunc = pyfunc
        self.buffers = buffers
        self.param_names = list(param_names)
        self.runtime = None  # ParallelRuntime when multicore is active
        self.profiled = False   # compiled with profile=True
        self.last_run = None    # RunReport of the latest profiled call

    def argument_names(self) -> List[str]:
        return [b.name for b in self.buffers
                if b.kind != ArgKind.TEMPORARY] + self.param_names

    def __call__(self, _runtime=None, **kwargs):
        params, arrays, outputs = bind_arguments(
            self.buffers, self.param_names, kwargs)
        runtime = _runtime if _runtime is not None else self.runtime
        collector = None
        if self.profiled:
            from repro.obs import RunCollector
            collector = RunCollector()
        call_args = (params, runtime) if collector is None \
            else (params, runtime, collector)
        par_before = self._parallel_marks(runtime)
        start_ns = time.perf_counter_ns()
        if getattr(runtime, "sharing", None) is not None \
                and runtime.takes(arrays):
            # the runtime's threads run the regions on the caller's arrays
            with runtime.sharing(arrays):
                self._pyfunc(arrays, *call_args)
        else:
            self._pyfunc(arrays, *call_args)
        if collector is not None:
            self._attach_run_report(
                collector, time.perf_counter_ns() - start_ns,
                runtime, par_before)
        return outputs

    @staticmethod
    def _parallel_marks(runtime):
        if runtime is None:
            return (0, 0)
        return (runtime.stats.regions, runtime.stats.chunks)

    def _attach_run_report(self, collector, wall_ns, runtime,
                           par_before) -> None:
        """Build the RunReport for one finished profiled call and hand
        its spans to the global tracer."""
        from repro.obs import build_run_report, get_tracer
        parallel = {}
        if runtime is not None:
            regions0, chunks0 = par_before
            parallel = {
                "regions": runtime.stats.regions - regions0,
                "chunks": runtime.stats.chunks - chunks0,
                "workers": runtime.num_threads,
            }
        report = build_run_report(
            function=self.fn.name,
            target=getattr(getattr(self, "report", None), "target", "cpu"),
            wall_ns=wall_ns, collector=collector,
            comp_names=[name for name, __ in
                        profile_counted_comps(self.fn)],
            parallel=parallel)
        self.last_run = report
        tracer = get_tracer()
        if tracer.enabled():
            tracer.record_run(report)


def emit_source(fn: Function, emitter_cls=Emitter, ast=None,
                profile: bool = False, taskgraph: bool = False,
                lanes_verified: bool = False) -> str:
    """Emit the Python/NumPy kernel source.  ``ast`` is the staged
    driver's pre-lowered AST; without it the function lowers itself.
    Chunked parallel body functions (if any) precede ``_kernel``.
    ``profile=True`` adds per-computation counters and loop-nest spans
    reporting into an ``_obs`` collector (see repro.obs); off, the
    source is byte-identical to an unprofiled build.

    ``taskgraph=True`` (the ``execution="taskgraph"`` compile option)
    additionally emits — when the nest is eligible, see
    :meth:`~repro.codegen.pyemit.Emitter.try_taskgraph` — a
    ``_tile_body`` / ``_tile_grid`` pair plus a ``_TASKGRAPH_DIMS``
    marker, and a dispatch preamble in ``_kernel`` that hands the whole
    nest to an attached task-graph runtime; when the runtime declines
    (a call below the size floor, a chain DAG, ...) the preamble falls
    through to the unchanged nest, so results stay bit-identical to
    sequential.
    Profiled builds skip task-graph emission (per-tile counters are
    not aggregated); the option then degrades to the normal path.

    ``lanes_verified`` says the race-check stage already proved every
    ``vector``-tagged level free of carried dependences, so the emitter
    need not ask the dependence analysis again (the source is the same
    either way)."""
    if ast is None:
        infer_argument_kinds(fn)
        ast = fn.lower()
    emitter = emitter_cls(fn, fn.param_names, profile=profile) \
        if profile else emitter_cls(fn, fn.param_names)
    emitter.lanes_verified = lanes_verified
    tg_dims = None
    if taskgraph and not profile:
        tg_dims = emitter.try_taskgraph(ast)
    header = "def _kernel(_bufs, _params, _runtime=None%s):" % (
        ", _obs=None" if profile else "")
    if tg_dims:
        header += ("\n    _tg = getattr(_runtime, 'run_taskgraph', None)"
                   "\n    if _tg is not None and _tg(_params):"
                   "\n        return  # the task-graph runtime ran the nest")

    def body():
        emitter.emit_block(ast)
        if profile:
            emitter.emit_profile_flush()
    kernel = emitter.render_def(header, body)
    bodies = "".join(text + "\n" for text in emitter.parallel_bodies
                     + emitter.taskgraph_bodies)
    if tg_dims:
        bodies += f"_TASKGRAPH_DIMS = {tg_dims}\n\n"
    bodies += kernel
    prelude = _PRELUDE + (_PROFILE_PRELUDE if profile else "") + (
        _CDIV if "_cdiv(" in bodies else "")
    return prelude + "\n" + bodies


@register_backend
class CpuBackend(Backend):
    """The multicore CPU target: Python/NumPy emission + exec binding."""

    name = "cpu"
    parallel_execution = ("parallel",)
    # bind() only exec()s ctx.source against ctx.fn, so kernels rebuild
    # from stored source: eligible for the disk tier and batch offload.
    bind_from_source = True

    def emit(self, ctx) -> str:
        return emit_source(
            ctx.fn, ast=ctx.ast, profile=bool(ctx.opt("profile")),
            taskgraph=ctx.opt("execution", "forkjoin") == "taskgraph",
            lanes_verified=ctx.lanes_verified)

    def bind(self, ctx) -> CompiledKernel:
        pyfunc = bind_python_kernel(ctx.fn, ctx.source, "tiramisu")
        kernel = CompiledKernel(ctx.fn, ctx.source, pyfunc,
                                collect_buffers(ctx.fn),
                                ctx.fn.param_names)
        kernel.profiled = bool(ctx.opt("profile"))
        kernel.parallel_regions = ctx.source.count("\ndef _par_body_")
        kernel.vector_loops, kernel.vector_declines = vector_summary(
            ctx.source)
        taskgraph = ("\n_TASKGRAPH_DIMS = " in ctx.source
                     and ctx.opt("execution", "forkjoin") == "taskgraph")
        if (taskgraph or kernel.parallel_regions) \
                and ctx.opt("parallel", True):
            from .parallel import ParallelRuntime, resolve_num_threads
            workers = resolve_num_threads(ctx.opt("num_threads"))
            if workers >= 2 and taskgraph:
                from repro.runtime.scheduler import TaskGraphRuntime
                kernel.runtime = TaskGraphRuntime(
                    ctx.source, ctx.fn, workers, pyfunc.__globals__)
            elif workers >= 2:
                kernel.runtime = ParallelRuntime(
                    ctx.source, workers, profiled=kernel.profiled)
        return kernel
