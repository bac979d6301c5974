"""One rule, two executors, same bits.

``ParallelRuntime`` decides per region and per call where a
``parallelize``-tagged loop runs: a *slab region* (no Python ``for`` in
its body) on threads over the caller's own arrays, or inline below
``THREAD_FLOOR_BYTES``; a *loop region* always inline, in the caller's
thread.  These tests reach each plan the way the runtime itself does —
by the size of the call (the floor constant is patched, never an
option) or by handing ``_runtime=`` a runtime that classifies every
region as a loop region.  A slab region at or above the floor runs in
cache strips, on one worker or inside each thread's chunk; ``TestStrips``
patches the strip size (``strip_rows``) and holds every size to the
bits of the kernel run with no runtime.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bench.programs import PROGRAMS as BENCH_PROGRAMS
from repro import Buffer, Computation, Function, Input, Var
from repro import kernels as K
from repro.backends import parallel
from repro.backends.parallel import (PYTHON_LOOP, DispatchPlan,
                                     ParallelRuntime, region_kinds)
from repro.core.buffer import ArgKind
from repro.core.errors import DeadlineExceededError, ExecutionError
from repro.driver import Deadline, batch, deadline_scope
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
            assert (stats.regions > 0) == on_threads
            assert (stats.declined >= slabs + loops) == (leg == "inline")
            assert [r for r, p in par.runtime.plans.items()
                    if p == PYTHON_LOOP] == sorted(par.runtime.loop_regions)
        monkeypatch.undo()
        runtime = all_loop_regions(par)
        got["processes"] = call(par, _runtime=runtime)
        assert set(runtime.plans.values()) == {PYTHON_LOOP}
        assert runtime.stats.regions == 0
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

    def test_slab_only_kernel_forks_and_stages_nothing(self, monkeypatch):
        batch.shutdown_pools()
        monkeypatch.setattr(parallel, "_THREAD_POOLS", {})
        bundle, kernel = compiled(K.build_gaussian, tiramisu_cpu,
                                  num_threads=2)
        params = {"N": 64, "M": 64}
        kernel(**bundle.make_inputs(params, np.random.default_rng(0)),
               **params)
        stats = kernel.runtime.stats
        assert (stats.regions, stats.chunks) == (2, 4)
        assert not batch._POOLS and list(parallel._THREAD_POOLS) == [2]

    def test_shared_memory_is_never_imported(self, tmp_path):
        # kernels never leave the process: every region kind, both
        # execution modes, above the floor, in a fresh interpreter
        code = (
            "import sys, numpy as np\n"
            "from repro import kernels as K, settings\n"
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
            "assert 'multiprocessing' not in sys.modules\n")
        subprocess.run([sys.executable, "-c", code,
                        str(tmp_path / "events.jsonl")],
                       check=True, timeout=300)

    def test_example_prints_the_loop_region_reason(self):
        example = Path(__file__).resolve().parents[1] / "examples" \
            / "parallel_cpu.py"
        out = subprocess.run([sys.executable, str(example)], check=True,
                             capture_output=True, text=True, timeout=300)
        assert "_par_body_2: inline (python-loop)" in out.stdout
        assert "_par_body_1: inline (strips, 7 strips)" in out.stdout

    def test_mixed_kernel_runs_its_loop_region_inline(self):
        batch.shutdown_pools()
        bundle, seq = compiled(K.build_sgemm, sgemm_8_4, parallel=False)
        __, par = compiled(K.build_sgemm, sgemm_8_4, num_threads=2)
        params = dict(bundle.test_params)
        inputs = bundle.make_inputs(params, np.random.default_rng(3))
        want = seq(**{k: v.copy() for k, v in inputs.items()}, **params)
        for call in range(3):
            got = par(**{k: v.copy() for k, v in inputs.items()}, **params)
            assert np.array_equal(got["C"], want["C"]), call
        stats = par.runtime.stats
        assert (stats.regions, stats.declined) == (3, 3)
        assert par.runtime.plans == {
            "_par_body_1": DispatchPlan("threads", "slab"),
            "_par_body_2": PYTHON_LOOP}
        assert not batch._POOLS

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

    def test_more_chunks_than_cores_under_a_short_switch_interval(
            self, monkeypatch):
        inp = np.random.default_rng(1).random((600, 400), np.float32)
        want = inp * np.float32(3.0) \
            + np.arange(600, dtype=np.float32)[:, None]
        # rows=7: every chunk of 75 rows runs as eleven strips, the last 5
        for rows in (None, 7):
            if rows is not None:
                monkeypatch.setattr(parallel, "strip_rows",
                                    lambda trip, largest: rows)
            kernel = rows_kernel(num_threads=8)
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
            assert stats.chunks == 8 * stats.regions > 0
            assert stats.strips == (88 * stats.regions if rows else 0)

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
        assert (stats.declined, stats.regions) == (3, 3)
        assert stats.sequential_fallbacks == 0     # a decline is not one
        events = [e["fields"] for e in read_events(str(journal))
                  if e["name"] == "parallel.dispatch"]
        source = kernel.runtime.digest[:12]     # which kernel's region
        assert events == [
            dict(kernel=source, region="_par_body_1", kind="inline",
                 reason="below-floor", strips=0),
            dict(kernel=source, region="_par_body_1", kind="threads",
                 reason="slab", strips=0)]

    def test_declined_calls_count_on_the_bound_counter(self):
        """spmv below the floor: each call declines every region at once,
        on the stats and on ``parallel.declined``, the counter the
        runtime bound when it was made (``metrics.reset()`` zeroes it in
        place, so the handle still counts afterwards)."""
        from repro.obs.metrics import metrics
        bundle, kernel = compiled(K.build_spmv27, K.schedule_spmv_cpu,
                                  num_threads=2)
        params = {"G": 10}
        inputs = bundle.make_inputs(params, np.random.default_rng(0))
        runtime = kernel.runtime
        regions = len(runtime.slab_regions) + len(runtime.loop_regions)
        assert regions == 1
        kernel(**inputs, **params)
        metrics.reset()
        before = runtime.stats.declined
        for __ in range(5):
            kernel(**inputs, **params)
        assert runtime.stats.declined - before == 5 * regions
        assert metrics.counter("parallel.declined").value == 5 * regions

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
        monkeypatch.setattr(batch, "get_pool", no_pool)
        bundle, kernel = compiled(K.build_sgemm, sgemm_8_4, num_threads=2)
        for params in (dict(bundle.test_params), {"N": 520, "M": 520,
                                                  "K": 2}):
            kernel(**bundle.make_inputs(params, np.random.default_rng(0)),
                   **params)
            assert kernel.runtime.plans["_par_body_2"] == PYTHON_LOOP
        assert kernel.runtime.stats.regions == 1   # the slab region


# -- strips -------------------------------------------------------------------

#: strip sizes: the whole range (no cut), one row, and five rows, which
#: leaves a ragged last strip in every chunk of a verify-size range
STRIP_ROWS = {"whole": lambda trip, largest: trip,
              "one-row": lambda trip, largest: 1,
              "ragged": lambda trip, largest: 5}

#: bench programs whose schedules leave no slab region to cut: blur's
#: and ticket2373's regions are Python loops or absent, vgg runs its
#: fused batch loop, heat and symgs have no parallel region
NO_SLAB = {"blur", "ticket2373", "vgg", "heat", "symgs"}


def _schedules(program) -> dict:
    """The distinct schedules among a bench program's timed, cpu and
    paper variants: schedule function -> the variant that names it."""
    distinct = {}
    for variant, schedule in (
            ("timed", program.schedule),
            ("cpu", program.cpu_schedule or program.schedule),
            ("paper", program.paper_schedule or program.schedule)):
        distinct.setdefault(schedule, variant)
    return distinct


def _sgemm_loop_regions(bundle):
    """Both sgemm nests parallel, neither vectorized: loop regions."""
    bundle.computations["scale"].parallelize("i2")
    bundle.computations["acc"].parallelize("i")


class TestStrips:
    @pytest.fixture(autouse=True)
    def _no_floor(self, monkeypatch):
        monkeypatch.setattr(parallel, "THREAD_FLOOR_BYTES", 0)

    @pytest.mark.parametrize("program", BENCH_PROGRAMS,
                             ids=lambda p: p.name)
    def test_every_strip_size_same_bits(self, monkeypatch, program):
        """Every bench program with a slab region, at its verify size,
        under each of its schedules: one worker (``parallel=False``)
        and two, each at three strip sizes, store the bits of the
        kernel run with no runtime at all."""
        params = dict(program.verify_params)
        slabbed = []
        for variant in _schedules(program).values():
            bundle = program.build(variant)
            inputs = bundle.make_inputs(params, np.random.default_rng(11))

            def call(kernel, **extra):
                return kernel(**{k: v.copy() for k, v in inputs.items()},
                              **params, **extra)
            fn = bundle.function
            ref = fn.compile("cpu", parallel=False, cache=False)
            if ref.runtime is None or not ref.runtime.slab_regions:
                continue
            slabbed.append(variant)
            kernels = {"seq": ref, "x2": fn.compile("cpu", num_threads=2)}
            ref.runtime, runtime = None, ref.runtime
            want = call(ref)
            ref.runtime = runtime
            for size, rows in STRIP_ROWS.items():
                monkeypatch.setattr(parallel, "strip_rows", rows)
                for leg, kernel in kernels.items():
                    before = kernel.runtime.stats.strips
                    got = call(kernel)
                    for name in want:
                        assert np.array_equal(got[name], want[name]), \
                            (variant, size, leg, name)
                    cut = kernel.runtime.stats.strips > before
                    if size == "whole" or (leg, size) == ("seq", "one-row"):
                        assert cut == (size != "whole"), (variant, leg)
        assert bool(slabbed) == (program.name not in NO_SLAB), slabbed

    def test_one_worker_runtime_starts_no_thread(self, monkeypatch):
        """``parallel=False`` attaches a one-worker runtime for a slab
        region's strips: it runs inline, never on the pool."""
        monkeypatch.setattr(parallel, "_THREAD_POOLS", {})
        monkeypatch.setattr(parallel, "strip_rows", lambda trip, big: 32)
        bundle, kernel = compiled(K.build_gaussian, tiramisu_cpu,
                                  parallel=False)
        params = {"N": 64, "M": 64}
        kernel(**bundle.make_inputs(params, np.random.default_rng(0)),
               **params)
        runtime = kernel.runtime
        assert runtime.num_threads == 1
        assert set(runtime.plans.values()) == {
            DispatchPlan("inline", "strips", 2)}
        assert (runtime.stats.regions, runtime.stats.strips) == (0, 4)
        assert not parallel._THREAD_POOLS
        __, loops = compiled(K.build_sgemm, _sgemm_loop_regions,
                             parallel=False)
        assert loops.runtime is None              # loop regions only

    def test_anti_dependence_across_strips(self, monkeypatch):
        """``b[i] = b[i + 1] * 2 + 1``: each row reads the next one
        before that row is written.  The emitter keeps the chunk loop
        out of the slab (``carried anti``), so the kernel has no slab
        region and no runtime under ``parallel=False``; a hand-built
        slab of the same statement stays bitwise equal cut in strips,
        because every strip reads its rows before the next strip
        writes them."""
        f = Function("anti")
        with f:
            i, j = Var("i", 0, 63), Var("j", 0, 40)
            c = Computation("c", [i, j], None)
            c.store_in(Buffer("b", [64, 40], kind=ArgKind.INOUT), [i, j])
            c.set_expression(c(i + 1, j) * 2.0 + 1.0)
        c.parallelize("i")
        c.vectorize("j", 8)
        kernel = f.compile("cpu", parallel=False, cache=False)
        assert "outside slab, carried anti c->c on b" in kernel.source
        assert kernel.runtime is None
        b = np.random.default_rng(2).random((64, 40), np.float32)
        want = kernel(b=b.copy())["b"]

        source = ("def anti(_bufs, _params, _lo, _hi):\n"
                  "    b = _bufs['b']\n"
                  "    b[_lo:_hi + 1] = b[_lo + 1:_hi + 2] * 2.0 + 1.0\n")
        namespace = {}
        exec(source, namespace)
        for size, rows in STRIP_ROWS.items():
            monkeypatch.setattr(parallel, "strip_rows", rows)
            runtime = ParallelRuntime(source, 1)   # no threads: no race
            got = b.copy()
            with runtime.sharing({"b": got}):
                runtime.run(namespace["anti"], {}, 0, 62)
            assert np.array_equal(got, want), size
            assert (runtime.stats.strips > 0) == (size != "whole")

    @pytest.mark.parametrize("num_threads", [1, 2])
    def test_profiled_counts_unchanged_by_strips(self, monkeypatch,
                                                  num_threads):
        """Each strip counts its own rows: the instance counts and bytes
        of a profiled call are those of the uncut range."""
        counts = {}
        for size in ("whole", "one-row"):
            monkeypatch.setattr(parallel, "strip_rows", STRIP_ROWS[size])
            bundle, kernel = compiled(K.build_gaussian, tiramisu_cpu,
                                      profile=True,
                                      num_threads=num_threads)
            params = {"N": 40, "M": 30}
            kernel(**bundle.make_inputs(params, np.random.default_rng(0)),
                   **params)
            counts[size] = {name: (c.iterations, c.bytes_written)
                            for name, c in
                            kernel.last_run.computations.items()}
            assert (kernel.runtime.stats.strips > 0) == (size != "whole")
        assert counts["whole"] == counts["one-row"]
        assert counts["whole"]["gy"][0] == 40 * 30 * 3
