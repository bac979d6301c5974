"""Tier-2 gate: the Fig. 1 sgemm really runs on a worker pool.

The tentpole claim of the parallel runtime is that `parallelize`
dispatches onto real cores, not only modeled cycles.  This gate
compiles the parallel-tagged Fig. 1 sgemm sequentially and with a
worker pool, verifies bit-identical output, and requires that both
parallel regions were chunked across >= 2 worker processes with no
retry and no sequential fallback.  Whether that offload *pays* is a
measured number — ``backends.parallel.offload_speedup`` and
``run_par_ms`` against ``run_seq_ms`` in ``python3 -m bench.run``
(BENCHMARK.json) — not a single-sample ">= 1.3x" here (ROADMAP open
item 3 makes the dispatch a recorded cost decision).
"""

import os

import numpy as np
import pytest

from repro.backends.parallel import resolve_num_threads
from repro.evaluation.parallel import measure_parallel_speedup
from repro.kernels.linalg import build_sgemm

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
