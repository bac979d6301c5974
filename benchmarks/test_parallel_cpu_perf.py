"""Tier-2 gate: `parallelize` runs each kind of region on the executor
the runtime's rule gives it, in the caller's process.

The first gate compiles the parallel-tagged Fig. 1 sgemm (two Python
loop nests: *loop regions*) sequentially and with every core, verifies
bit-identical output, and requires that both regions ran inline in the
calling thread (``python-loop``: a GIL-bound nest gains nothing from
threads) with no process pool started.  The second holds gaussian (two
whole-slab bodies: *slab regions*) at 514 x 514 to threads over the
caller's own arrays.  Whether threads *pay* is a measured number —
``backends.parallel.offload_speedup`` and ``run_par_ms`` against
``run_seq_ms`` in ``python3 -m bench.run`` (BENCHMARK.json) — not a
single-sample wall-clock ratio here.
"""

import os

import numpy as np
import pytest

from repro.backends.parallel import PYTHON_LOOP, resolve_num_threads
from repro.driver import batch
from repro.evaluation.parallel import measure_parallel_speedup
from repro.evaluation.schedules import tiramisu_cpu
from repro.kernels import build_gaussian
from repro.kernels.linalg import build_sgemm

from conftest import print_table

MULTICORE = (os.cpu_count() or 1) >= 2

# Above the thread floor, small enough to finish in seconds: the j loop
# is a full vector lane, so the interpreted statement count is N*K.
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
                    "to 1 on a single core: no runtime is attached")
def test_parallel_sgemm_loop_regions_run_inline():
    workers = resolve_num_threads(None)
    rng = np.random.default_rng(0)
    kernels = []
    for num_threads in (1, workers):
        bundle = build_sgemm()
        schedule_fig1_parallel(bundle)
        kernels.append(bundle.function.compile("cpu",
                                               num_threads=num_threads))
    inputs = bundle.make_inputs(PERF_PARAMS, rng)
    batch.shutdown_pools()
    seq_out, par_out = (
        kernel(**{k: v.copy() for k, v in inputs.items()}, **PERF_PARAMS)
        for kernel in kernels)
    runtime = kernels[1].runtime
    print_table("parallel sgemm dispatch", {
        "workers": workers,
        "plans": {r: f"{p.kind} ({p.reason})"
                  for r, p in runtime.plans.items()},
        "declined": runtime.stats.declined})
    assert all(np.array_equal(seq_out[name], par_out[name])
               for name in seq_out), "parallel output diverged"
    # scale's nest and acc's nest: Python loops, run in the caller
    assert set(runtime.plans.values()) == {PYTHON_LOOP}
    assert runtime.stats.regions == 0 and not batch._POOLS


def test_parallel_sgemm_correct_even_single_core():
    """The correctness half of the gate runs everywhere: 2 workers on
    any machine must still be bit-identical."""
    m = measure_parallel_speedup(build_sgemm, schedule_fig1_parallel,
                                 num_threads=2, repeats=1)
    assert m.identical


def test_gaussian_slab_regions_run_on_threads():
    params = {"N": 514, "M": 514}
    kernels = []
    for opts in ({"parallel": False}, {"num_threads": 2}):
        bundle = build_gaussian()
        tiramisu_cpu(bundle)
        kernels.append(bundle.function.compile("cpu", **opts))
    inputs = bundle.make_inputs(params, np.random.default_rng(0))
    batch.shutdown_pools()
    seq_out, par_out = (
        kernel(**{k: v.copy() for k, v in inputs.items()}, **params)
        for kernel in kernels)
    runtime = kernels[1].runtime
    stats = runtime.stats
    print_table("gaussian 514 x 514 dispatch", {
        "plans": {r: f"{p.kind} ({p.reason})"
                  for r, p in runtime.plans.items()},
        "regions": stats.regions, "chunks": stats.chunks})
    assert all(np.array_equal(seq_out[name], par_out[name])
               for name in seq_out), "thread output diverged"
    assert (stats.regions, stats.chunks) == (2, 4)
    assert not batch._POOLS
    assert stats.declined == 0 and stats.sequential_fallbacks == 0
