"""The batch/async compile front end (repro.driver.batch): fingerprint
dedup, handle semantics, cache-tier interplay, worker offload and its
fault-tolerance endgames, and the promise that nothing of it loads
until it is used."""

import subprocess
import sys
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import Computation, Function, Var
from repro.core.errors import WorkerFailureError
from repro.driver import (BatchCompiler, CompileRequest, compile_batch,
                          kernel_registry)
from repro.driver.diskcache import configure


def build(name="f", scale=2.0):
    f = Function(name)
    with f:
        i, j = Var("i", 0, 8), Var("j", 0, 8)
        Computation("c", [i, j], float(scale) * i + j)
    return f


@pytest.fixture(autouse=True)
def _fresh_tiers(monkeypatch):
    monkeypatch.delenv("TIRAMISU_CACHE_DIR", raising=False)
    kernel_registry.clear()
    yield
    kernel_registry.clear()


class TestCompileBatch:
    def test_kernels_return_in_request_order(self):
        fns = [build(f"k{n}", n + 1) for n in range(3)]
        kernels = compile_batch(fns, use_processes=False)
        assert [k.fn for k in kernels] == fns
        out = kernels[2]()["c"]
        assert out[1, 1] == 3.0 * 1 + 1

    def test_duplicates_share_one_kernel_and_report(self):
        fns = [build("a", 1), build("b", 2), build("a", 1),
               build("a", 1), build("b", 2)]
        kernels = compile_batch(fns, use_processes=False)
        assert kernels[0] is kernels[2] is kernels[3]
        assert kernels[1] is kernels[4]
        assert kernels[0] is not kernels[1]
        # Deduplicated requests carry the *same* report object, so every
        # field — timings included — is identical, not merely equal.
        assert kernels[0].report is kernels[2].report

    def test_mixed_request_forms(self):
        requests = [
            build("a", 1),
            (build("b", 2), {"check_legality": True}),
            CompileRequest(fn=build("c", 3), target="distributed"),
        ]
        kernels = compile_batch(requests, use_processes=False)
        assert kernels[1].report.deps_checked is not None
        assert kernels[2].report.target == "distributed"

    def test_warm_requests_hit_the_memory_tier(self):
        build("warm", 5).compile("cpu")
        with BatchCompiler(use_processes=False) as batch:
            handle = batch.submit(build("warm", 5))
            assert handle.result().report.cache_hit
            assert batch.stats.memory_hits == 1
            assert batch.stats.compiled == 0

    def test_disk_tier_serves_batch_requests(self, tmp_path):
        configure(tmp_path)
        build("durable", 7).compile("cpu")
        kernel_registry.clear()
        with BatchCompiler(use_processes=False) as batch:
            kernel = batch.submit(build("durable", 7)).result()
            assert kernel.report.disk_hit
            assert batch.stats.disk_hits == 1
            assert batch.stats.compiled == 0

    def test_batch_results_match_sequential_compiles(self):
        data = {}
        for n in range(3):
            data[n] = build(f"s{n}", n + 1).compile("cpu")()["c"]
        kernel_registry.clear()
        kernels = compile_batch([build(f"s{n}", n + 1) for n in range(3)],
                                max_workers=2)
        for n, kernel in enumerate(kernels):
            assert np.array_equal(kernel()["c"], data[n])


class TestHandles:
    def test_handle_lifecycle(self):
        with BatchCompiler(use_processes=False) as batch:
            handle = batch.submit(build())
            kernel = handle.result(timeout=60)
            assert handle.done()
            assert handle.exception() is None
            assert handle.report is kernel.report
            assert handle.fingerprint == kernel.report.fingerprint
            assert handle.target == "cpu"

    def test_as_completed_yields_every_handle(self):
        with BatchCompiler(use_processes=False) as batch:
            handles = {batch.submit(build(f"h{n % 2}", n % 2))
                       for n in range(4)}
            done = set(batch.as_completed(timeout=60))
            assert done == handles

    def test_submit_after_shutdown_rejected(self):
        batch = BatchCompiler(use_processes=False)
        batch.shutdown()
        with pytest.raises(RuntimeError):
            batch.submit(build())

    def test_unknown_option_raises_at_submit(self):
        with BatchCompiler(use_processes=False) as batch:
            with pytest.raises(TypeError) as err:
                batch.submit(build(), bogus_flag=1)
            assert "bogus_flag" in str(err.value)

    def test_compile_error_reaches_every_duplicate_handle(self):
        # Forward-shift fusion is always a dependence violation: a
        # deterministic compile error.  Both handles of the shared job
        # must see the same error object (and it must not be retried
        # as a worker failure).
        from repro.core.errors import IllegalScheduleError

        def illegal(name):
            f = Function(name)
            with f:
                iw = Var("iw", 0, 32)
                i = Var("i", 0, 28)
                a = Computation("a", [iw], 1.0 * iw)
                b = Computation("b", [i], None)
                b.set_expression(a(i + 1) * 2.0)
            b.after(a, "iw")
            return f

        with BatchCompiler(use_processes=False) as batch:
            h1 = batch.submit(illegal("bad"), check_legality=True)
            h2 = batch.submit(illegal("bad"), check_legality=True)
            with pytest.raises(IllegalScheduleError) as e1:
                h1.result(timeout=60)
            assert h2.exception(timeout=60) is e1.value
            assert h2.report is None
            assert batch.stats.worker_failures == 0


class _AlwaysBrokenPool:
    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_exception(BrokenProcessPool("worker died"))
        return future


class TestWorkerFaultTolerance:
    @pytest.fixture()
    def broken_pool(self, monkeypatch):
        import repro.driver.batch as batch
        discards = []
        monkeypatch.setattr(batch, "get_pool",
                            lambda workers: _AlwaysBrokenPool())
        monkeypatch.setattr(batch, "discard_pool", discards.append)
        return discards

    def test_fallback_compiles_inline_after_retries(self, broken_pool):
        with BatchCompiler(max_workers=2) as batch:
            kernel = batch.submit(build(), max_retries=1).result(timeout=60)
            assert kernel()["c"].shape == (8, 8)
            st = batch.stats
        assert st.fallbacks == 1
        assert st.worker_failures == 2     # initial try + 1 retry
        assert st.retries == 1
        assert st.inline_compiles == 1
        assert broken_pool  # the broken pool was discarded

    def test_raise_fails_on_first_worker_failure(self, broken_pool):
        with BatchCompiler(max_workers=2) as batch:
            handle = batch.submit(build(), on_worker_failure="raise")
            with pytest.raises(WorkerFailureError):
                handle.result(timeout=60)
            assert batch.stats.worker_failures == 1
            assert batch.stats.retries == 0

    def test_retry_raises_after_last_attempt(self, broken_pool):
        with BatchCompiler(max_workers=2) as batch:
            handle = batch.submit(build(), on_worker_failure="retry",
                                  max_retries=2)
            with pytest.raises(WorkerFailureError):
                handle.result(timeout=60)
            assert batch.stats.worker_failures == 3
            assert batch.stats.retries == 2

    def test_single_worker_stays_inline(self):
        with BatchCompiler(max_workers=1) as batch:
            kernel = batch.submit(build()).result(timeout=60)
            assert kernel.report.fingerprint
            assert batch.stats.inline_compiles == 1
            assert batch.stats.worker_compiles == 0

    def test_gpu_never_offloads(self):
        # gpu kernels cannot rebind from shipped source (launch info is
        # emit-time state): the batch must compile them inline even
        # when processes are available.
        f = Function("gpumap")
        with f:
            i, j = Var("i", 0, 8), Var("j", 0, 8)
            c = Computation("c", [i, j], 2.0 * i + j)
        c.tile_gpu("i", "j", 4, 4)
        with BatchCompiler(target="gpu", max_workers=4) as batch:
            kernel = batch.submit(f).result(timeout=60)
            assert kernel is not None
            assert batch.stats.worker_compiles == 0
            assert batch.stats.inline_compiles == 1


class TestWorkerOffload:
    def test_distinct_cold_compiles_use_the_pool(self):
        from repro.driver.batch import get_pool
        if get_pool(2) is None:
            pytest.skip("host cannot run a process pool")
        with BatchCompiler(max_workers=2) as batch:
            handles = [batch.submit(build(f"w{n}", n + 1))
                       for n in range(2)]
            for h in handles:
                assert h.result(timeout=120) is not None
            assert batch.stats.worker_compiles == 2
            assert batch.stats.inline_compiles == 0

    def test_offloaded_source_matches_inline_source(self):
        from repro.driver.batch import get_pool
        if get_pool(2) is None:
            pytest.skip("host cannot run a process pool")
        inline = build("same", 3).compile("cpu")
        kernel_registry.clear()
        with BatchCompiler(max_workers=2) as batch:
            offloaded = batch.submit(build("same", 3)).result(timeout=120)
        assert offloaded.source == inline.source


class TestLoadedAtFirstUse:
    def test_kernels_never_import_the_process_machinery(self):
        # a fresh interpreter: a sequential compile + call, below the
        # floor and in strips above it, loads none of the batch service
        # nor concurrent.futures, and a slab region above the thread
        # floor on two threads still no multiprocessing
        code = (
            "import sys, numpy as np\n"
            "from repro import kernels as K\n"
            "from repro.evaluation.schedules import tiramisu_cpu\n"
            "def call(p, **opts):\n"
            "    b = K.build_cvtcolor(); tiramisu_cpu(b)\n"
            "    k = b.function.compile('cpu', **opts)\n"
            "    k(**b.make_inputs(p, np.random.default_rng(0)), **p)\n"
            "    return k\n"
            "call(dict(N=8, M=8), parallel=False)\n"
            "k = call(dict(N=300, M=300), parallel=False)\n"
            "assert k.runtime.stats.strips > 1, k.runtime.plans\n"
            "held = ('multiprocessing', 'concurrent.futures', 'subprocess',\n"
            "        'repro.driver.batch', 'repro.faults')\n"
            "assert not [m for m in held if m in sys.modules]\n"
            "k = call(dict(N=300, M=300), num_threads=2)\n"
            "assert k.runtime.stats.regions == 1, k.runtime.plans\n"
            "assert 'multiprocessing' not in sys.modules\n")
        subprocess.run([sys.executable, "-c", code], check=True,
                       timeout=120)
