"""Tier-2 gates for the task-graph runtime (docs/task_runtime.md).

Two headline numbers feed the perf trajectory (``BENCH_obs.json``):

- ``taskgraph.wavefront_speedup`` — heat executed by the ready-queue
  scheduler vs the *same tiles* run barrier-per-wavefront-level
  (``run_forkjoin``), best-of-N wall clock.  The ready queue must win:
  overlapping wavefront rows is the entire point of the runtime.
- ``taskgraph.overlap_ratio`` — the fraction of communication the
  critical-path network model hides behind compute for a
  pipelined-SUMMA-style schedule; must be strictly positive, i.e. the
  model prices overlap as a real saving.

A chaos-marked variant (``-m chaos``) crashes a worker mid-wavefront
on every run and requires bit-identical output anyway.
"""

import os
import time

import numpy as np
import pytest
from conftest import bench_note, print_table

from repro.backends.pool import get_pool
from repro.kernels.stencil import build_heat
from repro.machine import estimate_critical_path
from repro.runtime import TaskGraphRuntime, run_forkjoin

MULTICORE = (os.cpu_count() or 1) >= 2
HAVE_POOL = get_pool(2) is not None

# Enough rows for row-overlap to matter, enough work per tile that
# scheduling overhead does not dominate the interpreted tile bodies.
PERF_PARAMS = {"T": 48, "N": 2400}
RUNS = 3


def compile_taskgraph_heat(bundle, workers):
    kernel = bundle.function.compile("cpu", execution="taskgraph",
                                     num_threads=workers)
    assert isinstance(kernel.runtime, TaskGraphRuntime)
    return kernel


def best_wall(kernel, inp, params, runs=RUNS):
    best = float("inf")
    for __ in range(runs):
        u = inp["u"].copy()
        start = time.perf_counter()
        kernel(u=u, **params)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.skipif(not MULTICORE, reason="needs >= 2 cores to measure "
                    "a real speedup")
def test_wavefront_beats_forkjoin_wall_clock():
    bundle = build_heat()
    workers = min(4, os.cpu_count() or 2)
    kernel = compile_taskgraph_heat(bundle, workers)
    rng = np.random.default_rng(7)
    inp = bundle.make_inputs(PERF_PARAMS, rng)
    ref = bundle.reference({k: v.copy() for k, v in inp.items()},
                           PERF_PARAMS)

    # Warm the pool and prove bit-identity before timing anything.
    out = kernel(u=inp["u"].copy(), **PERF_PARAMS)
    assert np.array_equal(out["u"], ref["u"])
    stats = kernel.runtime.taskgraph_stats
    assert stats.fallbacks == 0, stats.last_reason

    ready_queue = best_wall(kernel, inp, PERF_PARAMS)
    with run_forkjoin(kernel):
        barriers = best_wall(kernel, inp, PERF_PARAMS)
    speedup = barriers / ready_queue
    parallelism = (stats.last_busy_seconds /
                   max(stats.last_wall_seconds, 1e-12))
    print_table("heat wavefront: ready queue vs fork-join barriers", {
        "workers": workers,
        "tiles": stats.tasks,
        "ready-queue s": f"{ready_queue:.4f}",
        "barrier s": f"{barriers:.4f}",
        "speedup": f"{speedup:.3f}x",
        "busy/wall": f"{parallelism:.2f}",
    })
    bench_note("taskgraph.wavefront_speedup", speedup)
    assert speedup > 1.0, (
        f"ready-queue execution must beat the barrier-per-level "
        f"baseline, got {speedup:.3f}x")


@pytest.mark.skipif(not HAVE_POOL, reason="this host cannot create a "
                    "worker pool")
def test_taskgraph_output_bit_identical_to_sequential():
    """The correctness half of the perf gate, runnable even on a
    single-core host: the DAG execution is bit-identical to the
    sequential nest on the same inputs."""
    bundle = build_heat()
    params = {"T": 16, "N": 400}
    kernel = compile_taskgraph_heat(bundle, 2)
    sequential = bundle.function.compile("cpu", num_threads=1)
    rng = np.random.default_rng(11)
    inp = bundle.make_inputs(params, rng)
    out_tg = kernel(u=inp["u"].copy(), **params)
    out_seq = sequential(u=inp["u"].copy(), **params)
    assert np.array_equal(out_tg["u"], out_seq["u"])
    assert kernel.runtime.taskgraph_stats.fallbacks == 0


def test_critical_path_prices_overlap_for_pipelined_summa():
    """Pure model gate: pipelined SUMMA's broadcast rounds hide behind
    the panel multiplies, shrinking the modeled makespan below the
    serial comm-then-compute sum."""
    ranks, rounds = 4, 16
    panel_elems = 1_000_000 // ranks
    bcast = [(0, r, panel_elems) for r in range(1, ranks)]
    flops_per_round = 2.0 * 1_000_000 * 64
    compute_seconds = flops_per_round / 50e9   # a ~50 GFLOP/s node
    est = estimate_critical_path([(bcast, compute_seconds)] * rounds)
    print_table("pipelined SUMMA critical path", {
        "serial s": f"{est.serial_seconds:.4f}",
        "overlapped s": f"{est.seconds:.4f}",
        "hidden s": f"{est.hidden_seconds:.4f}",
        "overlap ratio": f"{est.overlap_ratio:.3f}",
    })
    bench_note("taskgraph.overlap_ratio", est.overlap_ratio)
    assert est.seconds < est.serial_seconds
    assert est.overlap_ratio > 0.0


@pytest.mark.chaos
@pytest.mark.skipif(not HAVE_POOL, reason="this host cannot create a "
                    "worker pool")
def test_chaos_worker_crash_every_run_stays_bit_identical():
    from repro.faults import FaultPlan, injected
    bundle = build_heat()
    params = {"T": 12, "N": 240}
    kernel = compile_taskgraph_heat(bundle, 2)
    rng = np.random.default_rng(13)
    inp = bundle.make_inputs(params, rng)
    ref = bundle.reference({k: v.copy() for k, v in inp.items()}, params)
    crashes = 0
    for run in range(3):
        plan = FaultPlan().crash_worker(chunk=3 + run, attempt=0)
        with injected(plan) as active:
            out = kernel(u=inp["u"].copy(), **params)
        crashes += active.fired("worker-crash")
        assert np.array_equal(out["u"], ref["u"])
    assert crashes == 3
    assert kernel.runtime.taskgraph_stats.retries >= 3
