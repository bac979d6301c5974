"""One rule, two executors, same bits.

``ParallelRuntime`` decides per region and per call where a
``parallelize``-tagged loop runs: a *slab region* (no Python ``for`` in
its body) on threads over the caller's own arrays, or inline below
``THREAD_FLOOR_BYTES``; a *loop region* always inline, in the caller's
thread.  These tests reach each plan the way the runtime itself does —
by the size of the call (the floor constant is patched, never an
option) or by handing ``_runtime=`` a runtime that classifies every
region as a loop region.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import Computation, Function, Input, Var
from repro import kernels as K
from repro.backends import parallel, pool
from repro.backends.parallel import (PYTHON_LOOP, DispatchPlan,
                                     ParallelRuntime, region_kinds)
from repro.core.errors import DeadlineExceededError, ExecutionError
from repro.driver import Deadline, deadline_scope
from repro.evaluation.schedules import tiramisu_cpu
from repro.obs.events import read_events


def sgemm_8_4(bundle):
    K.schedule_sgemm_cpu(bundle, 8, 4)


#: (builder, schedule, a size whose largest array reaches the floor,
#: names of its slab regions, names of its loop regions)
PROGRAMS = [
    (K.build_cvtcolor, tiramisu_cpu, {"N": 300, "M": 300}, 1, 0),
    (K.build_conv2d, tiramisu_cpu, {"N": 300, "M": 300}, 1, 0),
    (K.build_warp_affine, tiramisu_cpu, {"N": 514, "M": 514}, 1, 0),
    (K.build_gaussian, tiramisu_cpu, {"N": 300, "M": 300}, 2, 0),
    (K.build_nb, tiramisu_cpu, {"N": 300, "M": 300}, 1, 0),
    (K.build_edge_detector, tiramisu_cpu, {"N": 514, "M": 514}, 2, 0),
    (K.build_sgemm, sgemm_8_4, {"N": 520, "M": 520, "K": 2}, 1, 1),
    (K.build_conv, K.schedule_conv_cpu,
     {"B": 2, "F": 4, "N": 192, "M": 192}, 1, 1),
    (K.build_spmv27, K.schedule_spmv_cpu, {"G": 64}, 1, 0),
]
IDS = [row[0].__name__ for row in PROGRAMS]


def compiled(builder, schedule, **opts):
    bundle = builder()
    schedule(bundle)
    return bundle, bundle.function.compile("cpu", cache=False, **opts)


def all_loop_regions(kernel) -> ParallelRuntime:
    """A runtime for ``kernel`` that takes every region for a loop
    region, which never leaves the calling thread."""
    runtime = ParallelRuntime(kernel.source, 2)
    runtime.loop_regions |= set(runtime.slab_regions)
    runtime.slab_regions = ()
    return runtime


class TestClassification:
    def test_a_python_for_makes_a_loop_region(self):
        __, kernel = compiled(K.build_sgemm, sgemm_8_4, num_threads=2)
        assert kernel.runtime.loop_regions == {"_par_body_2"}
        assert kernel.runtime.slab_regions == ("_par_body_1",)

    @pytest.mark.parametrize("builder", [K.build_gaussian,
                                         K.build_edge_detector])
    def test_image_bodies_are_slab_regions(self, builder):
        __, kernel = compiled(builder, tiramisu_cpu, num_threads=2)
        assert kernel.parallel_regions == 2
        assert kernel.runtime.slab_regions == ("_par_body_1",
                                               "_par_body_2")
        assert not kernel.runtime.loop_regions

    def test_read_from_the_source_alone(self):
        # the way parallel_regions / vector_summary are: it survives the
        # disk tier and batch workers, which only have the text
        assert region_kinds(
            "def a(_bufs, _params, _lo, _hi):\n    x = 1\n\n"
            "def b(_bufs, _params, _lo, _hi, _obs=None):\n"
            "    for t0 in range(_lo, _hi + 1):  # parallel chunk (i)\n"
            "        pass\n\n"
            "def _kernel(_bufs, _params, _runtime=None):\n"
            "    for t0 in range(3):\n        pass\n"
        ) == {"a": False, "b": True}


@pytest.mark.parametrize("builder,schedule,big,slabs,loops", PROGRAMS,
                         ids=IDS)
def test_sequential_inline_threads_processes_same_bits(
        monkeypatch, builder, schedule, big, slabs, loops):
    # the "processes" leg takes every region for a loop region, which
    # never leaves the calling thread
    bundle, seq = compiled(builder, schedule, parallel=False)
    for params in (dict(bundle.test_params), big):
        inputs = bundle.make_inputs(params, np.random.default_rng(7))
        if params is big:
            assert max(a.nbytes for a in inputs.values()) \
                >= parallel.THREAD_FLOOR_BYTES

        def call(kernel, **extra):
            return kernel(**{k: v.copy() for k, v in inputs.items()},
                          **params, **extra)
        want = call(seq)
        got = {}
        for leg, floor in (("inline", 1 << 62), ("threads", 0)):
            monkeypatch.setattr(parallel, "THREAD_FLOOR_BYTES", floor)
            __, par = compiled(builder, schedule, num_threads=2)
            got[leg] = call(par)
            stats = par.runtime.stats
            on_threads = {p.kind for p in par.runtime.plans.values()} \
                >= {"threads"}
            assert on_threads == (leg == "threads")
            assert (stats.thread_regions > 0) == on_threads
            assert (stats.declined >= slabs + loops) == (leg == "inline")
            assert [r for r, p in par.runtime.plans.items()
                    if p == PYTHON_LOOP] == sorted(par.runtime.loop_regions)
        monkeypatch.undo()
        runtime = all_loop_regions(par)
        got["processes"] = call(par, _runtime=runtime)
        assert set(runtime.plans.values()) == {PYTHON_LOOP}
        assert runtime.stats.regions == runtime.stats.thread_regions == 0
        for leg, out in got.items():
            for name in want:
                assert np.array_equal(out[name], want[name]), (leg, name)


def rows_kernel(rows=600, cols=400, **opts):
    """``c(i, j) = inp(i, j) * 3 + i``: ``i`` parallel, ``j`` a slab."""
    f = Function("rows")
    with f:
        inp = Input("inp", [Var("x", 0, rows), Var("y", 0, cols)])
        i, j = Var("i", 0, rows), Var("j", 0, cols)
        c = Computation("c", [i, j], None)
        c.set_expression(inp(i, j) * 3.0 + 1.0 * i)
    c.parallelize("i")
    c.vectorize("j", 8)
    return f.compile("cpu", cache=False, **opts)


class TestThreadPath:
    @pytest.fixture(autouse=True)
    def _no_floor(self, monkeypatch):
        monkeypatch.setattr(parallel, "THREAD_FLOOR_BYTES", 0)

    def test_slab_only_kernel_forks_and_stages_nothing(self):
        pool.shutdown_pools()
        bundle, kernel = compiled(K.build_gaussian, tiramisu_cpu,
                                  num_threads=2)
        params = {"N": 64, "M": 64}
        kernel(**bundle.make_inputs(params, np.random.default_rng(0)),
               **params)
        stats = kernel.runtime.stats
        assert (stats.regions, stats.thread_regions, stats.chunks) \
            == (2, 2, 4)
        assert not pool._POOLS and list(pool._THREAD_POOLS) == [2]

    def test_shared_memory_is_never_imported(self, tmp_path):
        # kernels never leave the process: every region kind, both
        # execution modes, above the floor, in a fresh interpreter
        code = (
            "import sys, numpy as np\n"
            "from repro import kernels as K, settings\n"
            "from repro.backends import pool\n"
            "from repro.backends.parallel import PYTHON_LOOP\n"
            "from repro.evaluation.schedules import tiramisu_cpu\n"
            "from repro.obs.events import read_events\n"
            "def sgemm_8_4(b): K.schedule_sgemm_cpu(b, 8, 4)\n"
            "def call(b, p, **opts):\n"
            "    k = b.function.compile('cpu', cache=False, **opts)\n"
            "    ins = b.make_inputs(p, np.random.default_rng(0))\n"
            "    return k, k(**ins, **p)\n"
            "for build, sched, p, opts in [\n"
            "        (K.build_sgemm, sgemm_8_4, dict(N=520, M=520, K=2), {}),\n"
            "        (K.build_conv, K.schedule_conv_cpu,\n"
            "         dict(B=2, F=4, N=192, M=192), {}),\n"
            "        (K.build_gaussian, tiramisu_cpu, dict(N=514, M=514), {}),\n"
            "        (K.build_heat, K.schedule_heat_cpu, dict(T=48, N=8192),\n"
            "         dict(execution='taskgraph'))]:\n"
            "    b = build(); sched(b)\n"
            "    with settings.override(event_log=sys.argv[1]):\n"
            "        k, got = call(b, p, num_threads=2, **opts)\n"
            "    b = build(); sched(b)\n"
            "    __, want = call(b, p, parallel=False)\n"
            "    assert all(np.array_equal(got[n], want[n]) for n in want)\n"
            "    loops = {r: k.runtime.plans[r] for r in k.runtime.loop_regions}\n"
            "    assert set(loops.values()) <= {PYTHON_LOOP}, loops\n"
            "    assert len(loops) == (build in (K.build_sgemm, K.build_conv))\n"
            "    assert k.runtime.stats.regions >= 1, k.runtime.stats\n"
            "st = k.runtime.taskgraph_stats\n"
            "assert st.graphs == 1 and st.fallbacks == 0, st\n"
            "threads = {e['fields']['thread'] for e in read_events(sys.argv[1])\n"
            "           if e['name'] == 'taskgraph.task.done'}\n"
            "assert len(threads) == 2, threads\n"
            "assert not pool._POOLS\n"
            "assert 'multiprocessing.shared_memory' not in sys.modules\n")
        subprocess.run([sys.executable, "-c", code,
                        str(tmp_path / "events.jsonl")],
                       check=True, timeout=300)

    def test_example_prints_the_loop_region_reason(self):
        example = Path(__file__).resolve().parents[1] / "examples" \
            / "parallel_cpu.py"
        out = subprocess.run([sys.executable, str(example)], check=True,
                             capture_output=True, text=True, timeout=300)
        assert "_par_body_2: inline (python-loop)" in out.stdout

    def test_mixed_kernel_runs_its_loop_region_inline(self):
        pool.shutdown_pools()
        bundle, seq = compiled(K.build_sgemm, sgemm_8_4, parallel=False)
        __, par = compiled(K.build_sgemm, sgemm_8_4, num_threads=2)
        params = dict(bundle.test_params)
        inputs = bundle.make_inputs(params, np.random.default_rng(3))
        want = seq(**{k: v.copy() for k, v in inputs.items()}, **params)
        for call in range(3):
            got = par(**{k: v.copy() for k, v in inputs.items()}, **params)
            assert np.array_equal(got["C"], want["C"]), call
        stats = par.runtime.stats
        assert (stats.regions, stats.thread_regions, stats.declined) \
            == (3, 3, 3)
        assert par.runtime.plans == {
            "_par_body_1": DispatchPlan("threads", "slab"),
            "_par_body_2": PYTHON_LOOP}
        assert not pool._POOLS

    def test_body_error_surfaces_once_after_every_chunk_joined(self):
        # rows 400.. are missing from the caller's output: chunk 2 of 3
        # trips its guard at once, while chunks 0 and 1 are mid-slab
        kernel = rows_kernel(num_threads=3)
        inp = np.random.default_rng(0).random((600, 400), np.float32)
        out = np.zeros((400, 400), np.float32)
        with pytest.raises(ExecutionError, match=r"parallel region "
                           r"_par_body_1 failed in a worker: vector loop j"
                           ) as err:
            kernel(inp=inp, c=out)
        assert isinstance(err.value.__cause__, IndexError)
        want = inp[:400] * np.float32(3.0) \
            + np.arange(400, dtype=np.float32)[:, None]
        assert np.array_equal(out, want)        # both siblings finished
        after = out.copy()
        time.sleep(0.05)
        assert np.array_equal(out, after)       # and nobody writes later
        assert kernel.runtime.stats.retries == 0

    def test_deadline_is_charged_before_a_thread_dispatch(self):
        kernel = rows_kernel(num_threads=2)
        inp = np.zeros((600, 400), np.float32)
        with deadline_scope(Deadline(0.001)):
            time.sleep(0.01)
            with pytest.raises(DeadlineExceededError,
                               match="parallel-dispatch"):
                kernel(inp=inp)

    def test_more_chunks_than_cores_under_a_short_switch_interval(self):
        kernel = rows_kernel(num_threads=8)
        inp = np.random.default_rng(1).random((600, 400), np.float32)
        want = inp * np.float32(3.0) \
            + np.arange(600, dtype=np.float32)[:, None]
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            deadline = time.monotonic() + 5.0
            for __ in range(50):
                assert np.array_equal(kernel(inp=inp)["c"], want)
                if time.monotonic() > deadline:
                    break
        finally:
            sys.setswitchinterval(saved)
        stats = kernel.runtime.stats
        assert stats.chunks == 8 * stats.regions == 8 * stats.thread_regions

    def test_profiled_thread_chunks_keep_exact_counts(self):
        import os
        kernel = rows_kernel(num_threads=2, profile=True)
        kernel(inp=np.zeros((600, 400), np.float32))
        run = kernel.last_run
        assert run.comp("c").iterations == 600 * 400
        assert run.parallel["regions"] == 1 and run.parallel["chunks"] == 2
        lanes = [s for s in run.spans if s.name.startswith("_par_body_1[")]
        assert len(lanes) == 2
        assert all(s.args["worker_pid"] == os.getpid() for s in lanes)
        assert len({s.args["thread_id"] for s in lanes}) == 2


class TestDecisionsAreObservable:
    def test_one_dispatch_event_per_decision_not_per_call(
            self, tmp_path, monkeypatch):
        journal = tmp_path / "events.jsonl"
        monkeypatch.setenv("TIRAMISU_EVENT_LOG", str(journal))
        kernel = rows_kernel(num_threads=2)
        inp = np.zeros((600, 400), np.float32)      # 0.96 MB: below
        for __ in range(3):
            kernel(inp=inp)
        assert kernel.runtime.plans == {
            "_par_body_1": DispatchPlan("inline", "below-floor")}
        monkeypatch.setattr(parallel, "THREAD_FLOOR_BYTES", 0)
        for __ in range(3):
            kernel(inp=inp)
        assert kernel.runtime.plans == {
            "_par_body_1": DispatchPlan("threads", "slab")}
        stats = kernel.runtime.stats
        assert (stats.declined, stats.thread_regions, stats.regions) \
            == (3, 3, 3)
        assert stats.sequential_fallbacks == 0     # a decline is not one
        events = [e["fields"] for e in read_events(str(journal))
                  if e["name"] == "parallel.dispatch"]
        source = kernel.runtime.digest[:12]     # which kernel's region
        assert events == [
            dict(kernel=source, region="_par_body_1", kind="inline",
                 reason="below-floor"),
            dict(kernel=source, region="_par_body_1", kind="threads",
                 reason="slab")]

    def test_single_iteration_region_runs_inline(self, monkeypatch):
        monkeypatch.setattr(parallel, "THREAD_FLOOR_BYTES", 0)
        kernel = rows_kernel(rows=1, num_threads=2)
        kernel(inp=np.zeros((1, 400), np.float32))
        assert kernel.runtime.plans["_par_body_1"] \
            == DispatchPlan("inline", "single-iteration")
        assert kernel.runtime.stats.declined == 1

    def test_loop_region_without_a_pool_declines_with_the_reason(
            self, monkeypatch):
        # no process pool is ever asked for: above the floor as below
        def no_pool(workers):
            raise AssertionError("a kernel asked for a process pool")
        monkeypatch.setattr(pool, "get_pool", no_pool)
        bundle, kernel = compiled(K.build_sgemm, sgemm_8_4, num_threads=2)
        for params in (dict(bundle.test_params), {"N": 520, "M": 520,
                                                  "K": 2}):
            kernel(**bundle.make_inputs(params, np.random.default_rng(0)),
                   **params)
            assert kernel.runtime.plans["_par_body_2"] == PYTHON_LOOP
        assert kernel.runtime.stats.regions == 1   # the slab region
