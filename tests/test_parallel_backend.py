"""Real multicore execution of ``parallelize``-tagged loops: chunked
worker emission, the shared-memory pool runtime, option plumbing, and
the graceful sequential fallbacks.
"""

import numpy as np
import pytest

from repro.backends.parallel import (ParallelRuntime, chunk_ranges,
                                     resolve_num_threads)
from repro.core.errors import ExecutionError, WorkerFailureError
from repro.driver import kernel_registry
from repro.faults import FaultPlan, injected, uninstall
from repro.kernels.image import build_blur
from repro.kernels.linalg import TEST_SGEMM, build_sgemm


def sgemm_parallel_schedule(bundle):
    bundle.computations["scale"].parallelize(
        bundle.computations["scale"].var_names[0])
    bundle.computations["acc"].parallelize("i")


def run_sgemm(kernel, seed=0):
    rng = np.random.default_rng(seed)
    bundle = build_sgemm()
    inputs = bundle.make_inputs(TEST_SGEMM, rng)
    fresh = {k: np.array(v, copy=True) for k, v in inputs.items()}
    return kernel(**fresh, **TEST_SGEMM)


class TestChunking:
    def test_balanced_contiguous(self):
        assert chunk_ranges(0, 9, 2) == [(0, 4), (5, 9)]
        assert chunk_ranges(0, 9, 3) == [(0, 3), (4, 6), (7, 9)]
        assert chunk_ranges(1, 3, 8) == [(1, 1), (2, 2), (3, 3)]
        assert chunk_ranges(5, 5, 4) == [(5, 5)]

    def test_covers_range_exactly(self):
        for lo, hi, n in [(0, 100, 7), (-3, 11, 4), (2, 2, 1)]:
            chunks = chunk_ranges(lo, hi, n)
            flat = [x for c in chunks for x in range(c[0], c[1] + 1)]
            assert flat == list(range(lo, hi + 1))

    def test_resolve_num_threads(self):
        import os
        assert resolve_num_threads(None) == (os.cpu_count() or 1)
        assert resolve_num_threads(3) == 3
        with pytest.raises(ValueError):
            resolve_num_threads(-1)

    def test_empty_range_yields_no_chunks(self):
        assert chunk_ranges(5, 4, 2) == []
        assert chunk_ranges(0, -1, 3) == []
        assert chunk_ranges(10, 3, 1) == []

    def test_more_chunks_than_iterations(self):
        # n > trip count: one chunk per iteration, never an empty chunk.
        assert chunk_ranges(0, 2, 8) == [(0, 0), (1, 1), (2, 2)]
        assert chunk_ranges(7, 7, 100) == [(7, 7)]

    def test_nonpositive_chunk_count_degrades_to_one(self):
        assert chunk_ranges(0, 7, 0) == [(0, 7)]
        assert chunk_ranges(0, 7, -3) == [(0, 7)]

    def test_resolve_num_threads_zero_means_all_cores(self):
        import os
        assert resolve_num_threads(0) == (os.cpu_count() or 1)

    def test_resolve_num_threads_rejects_bool(self):
        # True would silently mean one worker; reject it like the
        # option validator does.
        with pytest.raises(ValueError):
            resolve_num_threads(True)
        with pytest.raises(ValueError):
            resolve_num_threads(False)

    def test_resolve_num_threads_rejects_non_integral(self):
        with pytest.raises(ValueError):
            resolve_num_threads(2.5)
        with pytest.raises(ValueError):
            resolve_num_threads("four")
        assert resolve_num_threads(4.0) == 4   # integral floats are fine


class TestEmission:
    def test_parallel_loop_becomes_chunked_body(self):
        bundle = build_sgemm()
        sgemm_parallel_schedule(bundle)
        kernel = bundle.function.compile("cpu", num_threads=2)
        assert "def _par_body_1(_bufs, _params, _lo, _hi):" in kernel.source
        assert "_runtime.offload(" in kernel.source
        assert kernel.parallel_regions == 2
        assert kernel.report.parallel_regions == 2
        assert kernel.report.parallel_workers == 2

    def test_inner_parallel_tag_stays_sequential(self):
        # Only top-level loops offload; an inner tag keeps the
        # annotated sequential form.
        bundle = build_sgemm()
        bundle.computations["acc"].parallelize("j")
        kernel = bundle.function.compile("cpu", num_threads=2)
        assert "_par_body_" not in kernel.source
        assert "# parallel loop (j)" in kernel.source

    def test_operations_block_offload(self):
        # An allocate operation rebinds a buffer in the kernel frame,
        # so no loop of this function may offload.
        from repro.core.buffer import Buffer
        from repro.core.communication import allocate_at
        bundle = build_blur()
        by = bundle.computations["by"]
        by.parallelize("i")
        allocate_at(Buffer("scratch", [4]), by)
        kernel = bundle.function.compile("cpu", num_threads=2)
        assert "_par_body_" not in kernel.source
        assert "# parallel loop (i)" in kernel.source


class TestExecution:
    def test_sgemm_two_workers_bit_identical(self):
        seq = build_sgemm()
        sgemm_parallel_schedule(seq)
        k_seq = seq.function.compile("cpu", num_threads=1)
        assert k_seq.runtime is None

        par = build_sgemm()
        sgemm_parallel_schedule(par)
        k_par = par.function.compile("cpu", num_threads=2)
        assert k_par.runtime is not None

        out_seq = run_sgemm(k_seq)
        out_par = run_sgemm(k_par)
        assert np.array_equal(out_seq["C"], out_par["C"])

        stats = k_par.runtime.stats
        assert stats.regions == 2          # scale + acc nests
        assert stats.max_workers == 2
        assert len(stats.worker_pids) >= 2  # really ran on >= 2 processes

    def test_blur_parallel_matches_reference(self):
        bundle = build_blur()
        bundle.computations["bx"].parallelize("iw")
        bundle.computations["by"].parallelize("i")
        rng = np.random.default_rng(1)
        params = dict(bundle.test_params)
        inputs = bundle.make_inputs(params, rng)
        kernel = bundle.function.compile("cpu", num_threads=2)
        out = kernel(**inputs, **params)
        ref = bundle.reference(inputs, params)
        assert np.allclose(out["by"], ref["by"], atol=1e-5)
        assert kernel.runtime.stats.regions >= 1

    def test_parallel_false_runs_inline(self):
        bundle = build_sgemm()
        sgemm_parallel_schedule(bundle)
        kernel = bundle.function.compile("cpu", num_threads=2,
                                         parallel=False)
        assert kernel.runtime is None
        out = run_sgemm(kernel)
        ref = build_sgemm()
        sgemm_parallel_schedule(ref)
        k_ref = ref.function.compile("cpu", num_threads=1)
        assert np.array_equal(out["C"], run_sgemm(k_ref)["C"])

    def test_worker_failure_surfaces(self):
        # a loop region (a Python ``for``): runs in worker processes
        runtime = ParallelRuntime("def boom(_bufs, _params, _lo, _hi):\n"
                                  "    for _ in range(1):\n"
                                  "        raise ValueError('inside')\n", 2)
        with runtime.sharing({"x": np.zeros(4, dtype=np.float32)}):
            def boom():
                pass
            boom.__name__ = "boom"
            with pytest.raises(ExecutionError, match="inside"):
                runtime.run(boom, {}, 0, 3)


class TestOptionSurface:
    def test_num_threads_validated(self):
        bundle = build_sgemm()
        with pytest.raises(TypeError, match="num_threads"):
            bundle.function.compile("cpu", num_threads="four")
        with pytest.raises(TypeError, match="num_threads"):
            bundle.function.compile("cpu", num_threads=-2)

    def test_every_backend_accepts_the_surface(self):
        # Uniform option surface: parallel/num_threads/check_races are
        # base options on all targets.
        for target in ("cpu", "distributed"):
            bundle = build_sgemm()
            kernel = bundle.function.compile(
                target, num_threads=1, parallel=True, check_races=False)
            assert kernel is not None

    def test_unknown_option_still_rejected(self):
        bundle = build_sgemm()
        with pytest.raises(TypeError, match="num_thread"):
            bundle.function.compile("cpu", num_thread=2)

    def test_num_threads_in_cache_key(self):
        seq = build_sgemm()
        sgemm_parallel_schedule(seq)
        k1 = seq.function.compile("cpu", num_threads=1)
        k2 = seq.function.compile("cpu", num_threads=2)
        assert k1.report.fingerprint != k2.report.fingerprint
        assert k1.runtime is None and k2.runtime is not None


class TestFaultTolerance:
    """Injected worker failures: retry on a fresh pool, per-chunk
    timeouts, and the ``on_worker_failure`` endgames — always with
    bit-identical results (shared buffers are snapshot-restored)."""

    @pytest.fixture(autouse=True)
    def _fresh(self):
        kernel_registry.clear()
        uninstall()
        yield
        uninstall()
        kernel_registry.clear()

    def compile_par(self, **opts):
        bundle = build_sgemm()
        sgemm_parallel_schedule(bundle)
        return bundle.function.compile("cpu", num_threads=2, **opts)

    def reference(self):
        bundle = build_sgemm()
        sgemm_parallel_schedule(bundle)
        return run_sgemm(bundle.function.compile("cpu", num_threads=1))["C"]

    def test_injected_crash_retried_bit_identical(self):
        ref = self.reference()
        kernel = self.compile_par()
        with injected(FaultPlan().crash_worker(region=0, chunk=0)) as plan:
            out = run_sgemm(kernel)["C"]
        assert plan.fired("worker-crash") == 1
        assert out.tobytes() == ref.tobytes()
        stats = kernel.runtime.stats
        assert stats.retries == 1
        assert stats.pool_restarts >= 1

    def test_injected_hang_times_out_and_retries(self):
        ref = self.reference()
        kernel = self.compile_par(timeout=0.5)
        plan = FaultPlan().hang_worker(region=0, chunk=0, seconds=5.0)
        with injected(plan):
            out = run_sgemm(kernel)["C"]
        assert plan.fired("worker-hang") == 1
        assert out.tobytes() == ref.tobytes()
        stats = kernel.runtime.stats
        assert stats.chunk_timeouts >= 1
        assert stats.retries == 1

    def test_persistent_crash_falls_back_to_sequential(self):
        ref = self.reference()
        kernel = self.compile_par(max_retries=1)
        with injected(FaultPlan().crash_worker(times=100)):
            out = run_sgemm(kernel)["C"]
        assert out.tobytes() == ref.tobytes()
        stats = kernel.runtime.stats
        assert stats.sequential_fallbacks == 2    # scale + acc regions
        assert stats.retries == 2                 # one retry per region

    def test_on_worker_failure_raise_fails_fast(self):
        kernel = self.compile_par(on_worker_failure="raise")
        with injected(FaultPlan().crash_worker(region=0, chunk=0)):
            with pytest.raises(WorkerFailureError):
                run_sgemm(kernel)
        assert kernel.runtime.stats.retries == 0

    def test_on_worker_failure_retry_raises_when_exhausted(self):
        kernel = self.compile_par(max_retries=1, on_worker_failure="retry")
        with injected(FaultPlan().crash_worker(times=100)):
            with pytest.raises(WorkerFailureError):
                run_sgemm(kernel)
        assert kernel.runtime.stats.sequential_fallbacks == 0

    def test_application_errors_are_never_retried(self):
        runtime = ParallelRuntime(
            "def boom(_bufs, _params, _lo, _hi):\n"
            "    for _ in range(1):\n"
            "        raise ValueError('inside')\n", 2, max_retries=3)
        with runtime.sharing({"x": np.zeros(4, dtype=np.float32)}):
            def boom():
                pass
            boom.__name__ = "boom"
            with pytest.raises(ExecutionError) as err:
                runtime.run(boom, {}, 0, 3)
        assert not isinstance(err.value, WorkerFailureError)
        assert runtime.stats.retries == 0

    def test_fault_free_run_takes_no_snapshot_penalty_paths(self):
        # No plan installed: plain run, zero failure counters.
        ref = self.reference()
        kernel = self.compile_par()
        out = run_sgemm(kernel)["C"]
        assert out.tobytes() == ref.tobytes()
        stats = kernel.runtime.stats
        assert stats.retries == 0 and stats.pool_restarts == 0
        assert stats.chunk_timeouts == 0 and stats.sequential_fallbacks == 0

    def test_retry_counters_flow_into_metrics(self):
        from repro.obs.metrics import metrics
        metrics.reset()
        kernel = self.compile_par()
        with injected(FaultPlan().crash_worker(region=0, chunk=0)):
            run_sgemm(kernel)
        assert metrics.counter("parallel.worker_failures").value >= 1
        assert metrics.counter("parallel.retries").value >= 1
        assert metrics.counter("parallel.pool_restarts").value >= 1

    def test_fault_spans_appear_on_the_tracer(self, tmp_path):
        from repro import settings
        from repro.obs.tracer import CAT_FAULT, get_tracer
        tracer = get_tracer()
        tracer.clear()
        try:
            with settings.override(trace_file=tmp_path / "trace.json"):
                kernel = self.compile_par()
                with injected(FaultPlan().crash_worker(region=0, chunk=0)):
                    run_sgemm(kernel)
            faults = [s for s in tracer.spans() if s.cat == CAT_FAULT]
            assert faults
            assert any(s.name.startswith("parallel:retry:") for s in faults)
        finally:
            tracer.clear()


class TestTimeoutConfig:
    def test_runtime_rejects_bad_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            ParallelRuntime("src", 2, timeout=-1.0)

    def test_runtime_rejects_bad_failure_mode(self):
        with pytest.raises(ValueError, match="on_worker_failure"):
            ParallelRuntime("src", 2, on_worker_failure="ignore")

    def test_env_var_supplies_default_timeout(self, monkeypatch):
        monkeypatch.setenv("TIRAMISU_TIMEOUT", "7.5")
        assert ParallelRuntime("src", 2).timeout == 7.5

    def test_explicit_timeout_beats_env(self, monkeypatch):
        monkeypatch.setenv("TIRAMISU_TIMEOUT", "7.5")
        assert ParallelRuntime("src", 2, timeout=2.0).timeout == 2.0

    def test_invalid_env_timeout_raises(self, monkeypatch):
        monkeypatch.setenv("TIRAMISU_TIMEOUT", "-3")
        with pytest.raises(ValueError, match="TIRAMISU_TIMEOUT"):
            ParallelRuntime("src", 2)

    def test_no_timeout_means_wait_forever(self, monkeypatch):
        monkeypatch.delenv("TIRAMISU_TIMEOUT", raising=False)
        assert ParallelRuntime("src", 2).timeout is None
