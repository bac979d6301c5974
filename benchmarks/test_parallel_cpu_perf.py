"""Tier-2 gate: `parallelize` really runs on cores — each kind of
region on the executor the runtime's rule gives it.

The tentpole claim of the parallel runtime is that `parallelize`
dispatches onto real cores, not only modeled cycles.  The first gate
compiles the parallel-tagged Fig. 1 sgemm (two Python loop nests: *loop
regions*) sequentially and with a worker pool, verifies bit-identical
output, and requires that both regions were chunked across >= 2 worker
processes with no retry and no sequential fallback.  The second holds
gaussian (two whole-slab bodies: *slab regions*) at 514 x 514 to
threads over the caller's own arrays: nothing staged, no worker process
started.  Whether either *pays* is a measured number —
``backends.parallel.offload_speedup`` and ``run_par_ms`` against
``run_seq_ms`` in ``python3 -m bench.run`` (BENCHMARK.json) — not a
single-sample wall-clock ratio here.
"""

import os

import numpy as np
import pytest

from repro.backends import pool
from repro.backends.parallel import resolve_num_threads
from repro.evaluation.parallel import measure_parallel_speedup
from repro.evaluation.schedules import tiramisu_cpu
from repro.kernels import build_gaussian
from repro.kernels.linalg import build_sgemm
from repro.obs.metrics import metrics

from conftest import print_table

MULTICORE = (os.cpu_count() or 1) >= 2

# Big enough that per-chunk work dwarfs pool/shared-memory staging
# overhead, small enough to finish in seconds: the j loop is a full
# vector lane, so the interpreted statement count is N*K.
PERF_PARAMS = {"N": 256, "M": 256, "K": 256}


def schedule_fig1_parallel(bundle):
    """The Fig. 1 kernel with its outer loop on real cores: reduction
    innermost vectorized, i chunked across workers."""
    acc = bundle.computations["acc"]
    acc.interchange("j", "k")
    acc.vectorize("j", 8)
    acc.parallelize("i")
    bundle.computations["scale"].parallelize("i2")


@pytest.mark.skipif(not MULTICORE, reason="auto worker count resolves "
                    "to 1 on a single core: nothing is offloaded")
def test_parallel_sgemm_offload_gate():
    workers = resolve_num_threads(None)
    rng = np.random.default_rng(0)
    kernels = []
    for num_threads in (1, workers):
        bundle = build_sgemm()
        schedule_fig1_parallel(bundle)
        kernels.append(bundle.function.compile("cpu",
                                               num_threads=num_threads))
    inputs = bundle.make_inputs(PERF_PARAMS, rng)
    seq_out, par_out = (
        kernel(**{k: v.copy() for k, v in inputs.items()}, **PERF_PARAMS)
        for kernel in kernels)
    stats = kernels[1].runtime.stats
    print_table("parallel sgemm dispatch", {
        "workers": workers, "regions": stats.regions,
        "chunks": stats.chunks, "worker pids": len(stats.worker_pids)})
    assert all(np.array_equal(seq_out[name], par_out[name])
               for name in seq_out), "parallel output diverged"
    # scale's nest and acc's nest, each split one chunk per worker
    assert stats.regions == 2
    assert stats.chunks == 2 * workers
    assert len(stats.worker_pids) >= 2, \
        "chunks did not reach 2 worker processes"
    assert stats.retries == 0 and stats.sequential_fallbacks == 0


def test_parallel_sgemm_correct_even_single_core():
    """The correctness half of the gate runs everywhere: a 2-worker
    pool on any machine must still be bit-identical."""
    m = measure_parallel_speedup(build_sgemm, schedule_fig1_parallel,
                                 num_threads=2, repeats=1)
    assert m.identical
    assert m.worker_pids >= 2


def test_gaussian_slab_regions_run_on_threads_and_stage_nothing():
    params = {"N": 514, "M": 514}
    kernels = []
    for opts in ({"parallel": False}, {"num_threads": 2}):
        bundle = build_gaussian()
        tiramisu_cpu(bundle)
        kernels.append(bundle.function.compile("cpu", **opts))
    inputs = bundle.make_inputs(params, np.random.default_rng(0))
    pool.shutdown_pools()
    staged = metrics.counter("parallel.shm_bytes_in").value
    seq_out, par_out = (
        kernel(**{k: v.copy() for k, v in inputs.items()}, **params)
        for kernel in kernels)
    runtime = kernels[1].runtime
    stats = runtime.stats
    print_table("gaussian 514 x 514 dispatch", {
        "plans": {r: f"{p.kind} ({p.reason})"
                  for r, p in runtime.plans.items()},
        "regions": stats.regions, "thread regions": stats.thread_regions,
        "chunks": stats.chunks, "worker pids": len(stats.worker_pids)})
    assert all(np.array_equal(seq_out[name], par_out[name])
               for name in seq_out), "thread output diverged"
    assert (stats.regions, stats.thread_regions, stats.chunks) == (2, 2, 4)
    assert stats.worker_pids == () and not pool._POOLS
    assert metrics.counter("parallel.shm_bytes_in").value == staged
    assert stats.declined == 0 and stats.sequential_fallbacks == 0
