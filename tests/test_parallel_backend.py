"""Real multicore execution of ``parallelize``-tagged loops: chunked
worker emission, the in-process runtime, option plumbing, and the
sequential paths.
"""

import numpy as np
import pytest

from repro.backends import parallel
from repro.backends.parallel import (PYTHON_LOOP, ParallelRuntime,
                                     chunk_ranges, resolve_num_threads)
from repro.core.errors import ExecutionError
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

        # scale + acc: Python loop nests, run in the calling thread
        assert k_par.runtime.plans == {"_par_body_1": PYTHON_LOOP,
                                       "_par_body_2": PYTHON_LOOP}
        assert k_par.runtime.stats.declined == 2

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
        assert kernel.runtime.stats.declined >= 1

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

    def test_worker_failure_surfaces(self, monkeypatch):
        # a slab region (no Python ``for``) on threads, at any size
        monkeypatch.setattr(parallel, "THREAD_FLOOR_BYTES", 0)
        source = ("def boom(_bufs, _params, _lo, _hi):\n"
                  "    raise ValueError('inside')\n")
        namespace = {}
        exec(source, namespace)
        runtime = ParallelRuntime(source, 2)
        with runtime.sharing({"x": np.zeros(4, dtype=np.float32)}):
            with pytest.raises(ExecutionError, match="inside"):
                runtime.run(namespace["boom"], {}, 0, 3)
        assert runtime.plans == {"boom": parallel.DispatchPlan("threads",
                                                               "slab")}


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
