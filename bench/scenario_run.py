"""The two run scenarios: generated-code run time on both CPU backends.

``run_cpu``     the NumPy-emitting ``cpu`` backend: every program runs
                sequential (``parallel=False``) beside offloaded
                (``num_threads=2``), so a gain for one that costs the
                other shows.  Time is codegen.pyemit's emitted loops +
                backends.parallel staging.
``run_native``  the same programs on ``c`` with ``OMP_NUM_THREADS=2``:
                cold ``fn.compile("c")`` against an empty .so cache and
                calls at large sizes.  Bypasses pyemit/parallel entirely.
"""

from __future__ import annotations

import glob
import os
import tempfile
import time
from typing import Dict, List

from .programs import COMPILE_OPTS, PROBE, by_name, make_inputs, programs, \
    sweep_order
from .scenario import InputCopies, Scenario, copy_inputs, same_outputs, \
    verify
from .stats import best, geomean, quantile, summarize
from .trace import OFF, Recorder


def _timed_call(rec: Recorder, span: str, kernel, inputs: InputCopies,
                params):
    """One call on fresh input copies (copied outside the timed region)."""
    args, ms = inputs.fresh(), []
    with rec.timed(span, ms):
        out = kernel(**args, **params)
    return ms[0], out


# == run_cpu ==================================================================

def run_cpu(sc: Scenario) -> None:
    progs = [p for p in programs(sc.group) if p.cpu_params]
    state = {}
    first_call_ms = None
    for p in progs:
        bundle = p.build("cpu")
        fn = bundle.function
        seq = sc.attempt(f"compile_seq:{p.name}", lambda: fn.compile(
            "cpu", parallel=False, **COMPILE_OPTS))
        par = sc.attempt(f"compile_par:{p.name}", lambda: fn.compile(
            "cpu", **COMPILE_OPTS))
        if seq is None or par is None:
            continue
        if first_call_ms is None and par.parallel_regions:
            # the process's first offloaded call starts the worker pool
            small = dict(bundle.test_params)
            first_call_ms = _timed_call(
                OFF, "", par,
                InputCopies(make_inputs(bundle, small, sc.seed)), small)[0]
        if not (verify(sc, p, bundle, par, "cpu_par")
                and verify(sc, p, bundle, seq, "cpu_seq")):
            continue
        params = dict(p.cpu_params)
        inputs = InputCopies(make_inputs(bundle, params, sc.seed))
        first = seq(**copy_inputs(inputs.inputs), **params)
        # one program + schedule gives the same bits on every target
        sc.check(f"seq_equals_par:{p.name}", same_outputs(
            first, par(**inputs.fresh(), **params)))
        state[p.name] = dict(bundle=bundle, seq=seq, par=par, params=params,
                             inputs=inputs, first=first)
    sc.ready()
    names = list(state)
    rec = sc.rec

    seq_ms: Dict[str, List[float]] = {n: [] for n in names}
    par_ms: Dict[str, List[float]] = {n: [] for n in names}
    seq_off: Dict[str, List[float]] = {n: [] for n in names}
    share = 0.4 if sc.traced else 1.0
    for rnd in sc.rounds(share, at_least=2):
        for name in sweep_order(names, sc.seed, rnd):
            st = state[name]
            with rec.op(f"call:{name}:{rnd}"):
                for which, span, sink in (
                        ("seq", "backends.cpu.call", seq_ms),
                        ("par", "backends.parallel.call", par_ms)):
                    ms, out = _timed_call(rec, span, st[which],
                                          st["inputs"], st["params"])
                    sink[name].append(ms)
                    sc.check(f"repeat_{which}:{name}",
                             same_outputs(st["first"], out),
                             "repeat call not bit-identical to the first")
            if sc.traced:
                ms, _ = _timed_call(OFF, "", st["seq"], st["inputs"],
                                    st["params"])
                seq_off[name].append(ms)

    if not sc.traced:
        sc.e2e_timing("run_seq_ms", "ms", seq_ms)
        sc.e2e_timing("run_par_ms", "ms", par_ms)
        return
    _run_cpu_layers(sc, state, seq_ms, par_ms, seq_off, first_call_ms)


def _run_cpu_layers(sc: Scenario, state, seq_ms, par_ms, seq_off,
                    first_call_ms) -> None:
    rec = sc.rec
    names = list(state)
    reps = 2 if sc.quick else 5

    # the plain single-threaded NumPy baseline, same inputs and size
    ref_ms: Dict[str, List[float]] = {n: [] for n in names}
    for name in names:
        st = state[name]
        for rep in range(reps):
            args = st["inputs"].fresh()
            with rec.op(f"reference:{name}:{rep}"), \
                    rec.timed("kernels.reference", ref_ms[name]):
                st["bundle"].reference(args, st["params"])
    sc.layer_timing("kernels.reference_ms", "ms", ref_ms)
    ratios = {n: best(seq_ms[n]) / best(ref_ms[n]) for n in names}
    sc.layer("backends.cpu.vs_numpy_ratio", "ratio",
             geomean(ratios.values()), len(names),
             base="kernels.reference_ms at the run_cpu size",
             programs=ratios)

    offloaded = [n for n in names if state[n]["par"].parallel_regions]
    speedup = {n: best(seq_ms[n]) / best(par_ms[n]) for n in offloaded}
    sc.layer("backends.parallel.offload_speedup", "ratio",
             geomean(speedup.values()), len(offloaded),
             base="run_seq_ms of the programs with >= 1 parallel region",
             programs=speedup)

    # what the pool did for one call of every program
    totals = dict(regions=0, chunks=0, sequential_fallbacks=0, retries=0)
    for name in offloaded:
        st = state[name]
        stats = st["par"].runtime.stats
        before = {k: getattr(stats, k) for k in totals}
        st["par"](**st["inputs"].fresh(), **st["params"])
        for k in totals:
            totals[k] += getattr(stats, k) - before[k]
    for k, v in totals.items():
        sc.layer(f"backends.parallel.{k}", "count", v, len(offloaded))
    sc.exact["backends.parallel"] = totals
    if first_call_ms is not None:
        sc.layer("backends.parallel.first_call_ms", "ms", first_call_ms, 1,
                 note="first offloaded call in the process: pool start")

    # a test_params-size call: 2 workers against sequential
    small = {}
    for name in offloaded:
        st = state[name]
        params = dict(st["bundle"].test_params)
        inputs = InputCopies(make_inputs(st["bundle"], params, sc.seed))
        t_seq, t_par = [], []
        for _ in range(reps * 2):
            t_seq.append(_timed_call(rec, "backends.cpu.small_call",
                                     st["seq"], inputs, params)[0])
            t_par.append(_timed_call(rec, "backends.parallel.small_call",
                                     st["par"], inputs, params)[0])
        small[name] = best(t_par) / best(t_seq)
    sc.layer("backends.parallel.small_offload_ratio", "ratio",
             geomean(small.values()), len(small),
             base="sequential call at test_params", programs=small)

    _taskgraph_layers(sc, state, reps, seq_ms)
    _profile_overhead(sc, state, reps)

    on = [v for n in names for v in seq_ms[n]]
    sc.layer("bench.trace_overhead_ratio", "ratio",
             summarize(seq_ms)["value"] / summarize(seq_off)["value"],
             len(on), base="sequential call with the recorder off, ms")


def _taskgraph_layers(sc: Scenario, state, reps: int, seq_ms) -> None:
    """heat through the dependence-driven tile runtime, 2 workers."""
    if "heat" not in state:
        return
    st = state["heat"]
    fn = st["bundle"].function
    kernel = sc.attempt("compile_taskgraph:heat", lambda: fn.compile(
        "cpu", execution="taskgraph", **COMPILE_OPTS))
    if kernel is None:
        return
    times = []
    for rep in range(reps + 1):
        with sc.rec.op(f"taskgraph:heat:{rep}"):
            ms, out = _timed_call(sc.rec, "runtime.taskgraph", kernel,
                                  st["inputs"], st["params"])
        sc.check("taskgraph_equals_seq:heat",
                 same_outputs(st["first"], out))
        if rep:                       # the first call builds the graph
            times.append(ms)
    stats = kernel.runtime.taskgraph_stats
    sc.layer("runtime.taskgraph_ms", "ms", best(times), len(times))
    sc.layer("runtime.taskgraph_vs_seq_ratio", "ratio",
             best(times) / best(seq_ms["heat"]), len(times),
             base="sequential heat call, ms",
             base_value=best(seq_ms["heat"]))
    sc.layer("runtime.taskgraph_tasks", "count",
             stats.tasks // max(1, stats.graphs), stats.graphs)
    sc.layer("runtime.taskgraph_fallbacks", "count", stats.fallbacks,
             reps + 1)
    sc.layer("runtime.taskgraph_parallelism", "ratio",
             stats.last_busy_seconds / max(stats.last_wall_seconds, 1e-12),
             1, base="wall seconds of the last graph")
    sc.exact["runtime.taskgraph"] = [stats.tasks // max(1, stats.graphs),
                                     stats.fallbacks]


def _profile_overhead(sc: Scenario, state, reps: int) -> None:
    """profile=True against profile=False on the set's probe program."""
    name = PROBE[sc.group]
    if name not in state:
        return
    st = state[name]
    fn = st["bundle"].function
    prof = sc.attempt(f"compile_profiled:{name}", lambda: fn.compile(
        "cpu", parallel=False, profile=True, **COMPILE_OPTS))
    if prof is None:
        return
    t_on, t_off = [], []
    for _ in range(reps):
        t_on.append(_timed_call(sc.rec, "obs.profiled_call", prof,
                                st["inputs"], st["params"])[0])
        t_off.append(_timed_call(sc.rec, "backends.cpu.call", st["seq"],
                                 st["inputs"], st["params"])[0])
    sc.layer("obs.profile_overhead_ratio", "ratio",
             best(t_on) / best(t_off), reps,
             base=f"{name} sequential, profile=False, ms",
             base_value=best(t_off))


# == run_native ===============================================================

def _empty_so_cache() -> None:
    """backends.c keeps its .so files under $TMPDIR/tiramisu_c, keyed
    by source digest; a cold build needs that directory empty."""
    workdir = os.path.join(tempfile.gettempdir(), "tiramisu_c")
    for path in glob.glob(os.path.join(workdir, "k_*")):
        os.unlink(path)


def run_native(sc: Scenario) -> None:
    from repro.backends.c import have_c_compiler
    if not have_c_compiler():
        sc.skipped = "no C compiler on this host (gcc --version failed)"
        return
    progs = [p for p in programs(sc.group) if p.native_params]

    def cold_build(p):
        _empty_so_cache()
        bundle = p.build()
        start = time.perf_counter()
        kernel = sc.attempt(f"compile_c:{p.name}", lambda: bundle.function
                            .compile("c", cache=False, **COMPILE_OPTS))
        return bundle, kernel, (time.perf_counter() - start) * 1e3

    state = {}
    for p in progs:
        bundle, kernel, _ = cold_build(p)
        if kernel is None or not verify(sc, p, bundle, kernel, "c",
                                        atol=1e-3):
            continue
        params = dict(p.native_params)
        inputs = InputCopies(make_inputs(bundle, params, sc.seed))
        first = kernel(**copy_inputs(inputs.inputs), **params)
        state[p.name] = dict(bundle=bundle, kernel=kernel, params=params,
                             inputs=inputs, first=first, source=kernel.source)
    sc.ready()
    names = list(state)
    rec = sc.rec

    build_ms: Dict[str, List[float]] = {n: [] for n in names}
    for rnd in sc.rounds(0.2 if sc.traced else 0.4, at_least=2):
        for name in sweep_order(names, sc.seed, rnd):
            _, kernel, ms = cold_build(by_name(name))
            if kernel is None:
                continue
            build_ms[name].append(ms)
            sc.check(f"emit_c_repeat:{name}",
                     kernel.source == state[name]["source"],
                     "emitted C changed between compiles")
            state[name]["kernel"] = kernel

    call_ms: Dict[str, List[float]] = {n: [] for n in names}
    call_off: Dict[str, List[float]] = {n: [] for n in names}
    # These rounds keep the turn: after four other processes have run,
    # a call at this size (50 MB arrays) starts on cold pages and takes
    # 2-4x its steady time, which would be measured and eat the rounds.
    for rnd in sc.rounds(0.2 if sc.traced else 0.6, at_least=3,
                         keep_turn=True):
        for name in sweep_order(names, sc.seed, rnd):
            st = state[name]
            with rec.op(f"call:{name}:{rnd}"):
                ms, out = _timed_call(rec, "backends.c.call", st["kernel"],
                                      st["inputs"], st["params"])
            call_ms[name].append(ms)
            sc.check(f"repeat_c:{name}", same_outputs(st["first"], out),
                     "repeat call not bit-identical to the first")
            if sc.traced:
                call_off[name].append(_timed_call(
                    OFF, "", st["kernel"], st["inputs"], st["params"])[0])

    if not sc.traced:
        sc.e2e_timing("native_build_ms", "ms", build_ms)
        sc.e2e_timing("run_native_ms", "ms", call_ms)
        return
    _run_native_layers(sc, state, call_ms, call_off)


def _run_native_layers(sc: Scenario, state, call_ms, call_off) -> None:
    from repro.backends.c import (NativeKernel, build_shared_object,
                                  emit_c_source)
    from repro.backends.common import collect_buffers, infer_argument_kinds
    rec = sc.rec
    names = list(state)
    reps = 2 if sc.quick else 3

    emit_ms: Dict[str, List[float]] = {n: [] for n in names}
    gcc_ms: Dict[str, List[float]] = {n: [] for n in names}
    hit_ms: Dict[str, List[float]] = {n: [] for n in names}
    emit_bytes = {}
    for name in names:
        for rep in range(reps):
            fn = by_name(name).build().function
            infer_argument_kinds(fn)
            ast = fn.lower()
            with rec.op(f"native_build:{name}:{rep}"):
                with rec.timed("backends.c.emit", emit_ms[name]):
                    source = emit_c_source(fn, ast=ast)
                _empty_so_cache()
                with rec.timed("backends.c.gcc", gcc_ms[name]):
                    so_path = build_shared_object(source)
                with rec.timed("backends.c.so_cache_hit", hit_ms[name]):
                    build_shared_object(source)
            sc.check(f"emit_c_staged:{name}",
                     source == state[name]["source"],
                     "staged C emit differs from Function.compile's")
            emit_bytes[name] = len(source)
            small_kernel = NativeKernel(fn, source, so_path,
                                        collect_buffers(fn))
        state[name]["small_kernel"] = small_kernel
    sc.layer_timing("backends.c.emit_ms", "ms", emit_ms)
    sc.layer("backends.c.emit_bytes", "bytes", sum(emit_bytes.values()),
             len(emit_bytes), programs=emit_bytes)
    sc.exact["backends.c.emit_bytes"] = sum(emit_bytes.values())
    sc.layer_timing("backends.c.gcc_ms", "ms", gcc_ms)
    sc.layer_timing("backends.c.so_cache_hit_ms", "ms", hit_ms)

    # tiny sizes: NativeKernel.__call__ marshalling + OpenMP region entry
    calls = 20 if sc.quick else 1000
    small_us: Dict[str, List[float]] = {n: [] for n in names}
    for name in names:
        st = state[name]
        params = dict(st["bundle"].test_params)
        kernel = st["small_kernel"]
        args = make_inputs(st["bundle"], params, sc.seed)
        for _ in range(calls):
            start = time.perf_counter_ns()
            kernel(**args, **params)
            small_us[name].append((time.perf_counter_ns() - start) / 1e3)
    sc.layer_timing("backends.c.call_overhead_us", "us", small_us)
    sc.layer("backends.c.call_overhead_p90_us", "us",
             geomean(quantile(v, 0.9) for v in small_us.values()),
             sum(len(v) for v in small_us.values()))

    # against the NumPy reference at the run_cpu size (the references
    # take seconds at the run_native size)
    ratios = {}
    for name in names:
        st, p = state[name], by_name(name)
        params = dict(p.cpu_params)
        inputs = InputCopies(make_inputs(st["bundle"], params, sc.seed))
        t_c, t_ref = [], []
        for _ in range(reps):
            t_c.append(_timed_call(rec, "backends.c.call", st["kernel"],
                                   inputs, params)[0])
            args = inputs.fresh()
            with rec.timed("kernels.reference", t_ref):
                st["bundle"].reference(args, params)
        ratios[name] = best(t_c) / best(t_ref)
    sc.layer("backends.c.vs_numpy_ratio", "ratio",
             geomean(ratios.values()), len(ratios),
             base="NumPy reference at the run_cpu size", programs=ratios)

    on = [v for n in names for v in call_ms[n]]
    sc.layer("bench.trace_overhead_ratio", "ratio",
             summarize(call_ms)["value"] / summarize(call_off)["value"],
             len(on), base="native call with the recorder off, ms")
