"""Tier-2 self-protection gates: an open circuit breaker degrades
every batch compile to the inline path — same bytes as the plain
inline configuration, nothing sent to the pool — and a seeded chaos
soak (``-m chaos``) drives fault storms through ``BatchCompiler``
asserting every request ends in exactly one terminal state with
bit-identical survivors and no durable-state damage
(``soak_pass_rate == 1.0``).

The breaker half used to gate "breaker-open <= 1.05x plain inline" on
best-of-5 wall clocks of two code paths that run the *same* inline
pipeline; what a batch costs is ``batch_compiles_per_s`` /
``driver.batch_vs_serial_ratio`` in ``python3 -m bench.run``
(BENCHMARK.json).
"""

import os

import numpy as np
import pytest

from repro import Computation, Function, Var, settings
from repro.core.errors import (AdmissionError, DeadlineExceededError,
                               WorkerFailureError)
from repro.driver import BatchCompiler, kernel_registry, pool_breaker
from repro.driver.batch import get_pool
from repro.driver.diskcache import configure
from repro.faults import FaultPlan, injected, uninstall
from repro.kernels.linalg import build_sgemm
from repro.obs.events import read_journal

from conftest import print_table

HAVE_POOL = get_pool(2) is not None

SOAK_PLANS = 20
FLEET = 2


def build(name, scale, extent=8):
    f = Function(name)
    with f:
        i, j = Var("i", 0, extent), Var("j", 0, extent)
        Computation("c", [i, j], float(scale) * i + j)
    return f


def expected_output(scale):
    return np.add.outer(float(scale) * np.arange(8.0), np.arange(8.0))


@pytest.fixture(autouse=True)
def _fresh():
    kernel_registry.clear()
    uninstall()
    yield
    uninstall()
    kernel_registry.clear()


@pytest.mark.skipif(not HAVE_POOL, reason="this host cannot create a "
                    "worker pool")
def test_breaker_open_degrades_every_compile_to_the_inline_path():
    """While the breaker is open, every would-be offload short-circuits
    to the inline compile path — the plain inline configuration's
    pipeline, so the same kernels byte for byte."""

    # Two sgemm variants with distinct schedules (so distinct
    # fingerprints).
    fns = []
    for n in range(FLEET):
        bundle = build_sgemm()
        if n % 2:
            bundle.computations["acc"].interchange("j", "k")
        fns.append(bundle.function)

    def compile_fleet(**batch_opts):
        kernel_registry.clear()
        with BatchCompiler(max_workers=2, **batch_opts) as batch:
            handles = [batch.submit(fn) for fn in fns]
            kernels = [handle.result(timeout=120) for handle in handles]
        return batch.stats, [k.source for k in kernels]

    inline, inline_sources = compile_fleet(use_processes=False)
    pool_breaker().trip()
    degraded, degraded_sources = compile_fleet()

    print_table("breaker-open inline degradation", {
        "short circuits": degraded.breaker_short_circuits,
        "inline / worker compiles": f"{degraded.inline_compiles} / "
                                    f"{degraded.worker_compiles}",
        "retries": degraded.retries,
    })
    assert degraded.breaker_short_circuits == FLEET
    assert degraded.inline_compiles == FLEET == inline.inline_compiles
    assert degraded.worker_compiles == 0
    assert degraded.retries == 0 and degraded.worker_failures == 0
    assert degraded_sources == inline_sources


TERMINAL_ERRORS = (DeadlineExceededError, AdmissionError,
                   WorkerFailureError)


def _soak_round(seed, tmp_path):
    """One seeded fault storm over a small batch; raises on any
    violated invariant."""
    kernel_registry.clear()
    root = tmp_path / f"cache{seed}"
    configure(root)
    log = tmp_path / f"events{seed}.jsonl"
    settings.set(event_log=log)
    rng = np.random.default_rng(seed)
    plan = FaultPlan(seed=seed)
    if rng.random() < 0.7:
        plan.slow_stage(seconds=0.1, times=int(rng.integers(1, 3)))
    if rng.random() < 0.5:
        plan.disk_io_error(op="store", times=int(rng.integers(1, 3)))
    if rng.random() < 0.4:
        plan.disk_io_error(op="load", times=1)
    if rng.random() < 0.5:
        plan.refuse_pool(times=int(rng.integers(1, 3)))
    outcomes = []
    with injected(plan):
        with BatchCompiler(max_workers=2, use_processes=False,
                           max_pending=2,
                           admission_policy="reject") as batch:
            handles = []
            for n in range(6):
                scale = (n % 3) + 1
                options = {}
                if rng.random() < 0.4:
                    options["timeout"] = 0.05
                    options["check_legality"] = True
                try:
                    handle = batch.submit(
                        build(f"soak{seed}_{scale}", scale), **options)
                except AdmissionError as err:
                    outcomes.append((scale, err))
                    continue
                handles.append((scale, handle))
            for scale, handle in handles:
                exc = handle.exception(timeout=60)
                outcomes.append((scale, exc if exc is not None
                                 else handle.result()))
    assert len(outcomes) == 6
    for scale, outcome in outcomes:
        if isinstance(outcome, BaseException):
            assert isinstance(outcome, TERMINAL_ERRORS), outcome
        else:
            assert np.array_equal(outcome()["c"], expected_output(scale))
    _, torn = read_journal(str(log))
    assert torn is None
    assert not [n for n in os.listdir(root) if n.startswith(".tmp-")]
    settings.reset()
    return sum(1 for _, o in outcomes
               if isinstance(o, BaseException))


@pytest.mark.chaos
def test_chaos_soak_every_request_terminates_cleanly(tmp_path):
    failed_requests = 0
    clean_rounds = 0
    for seed in range(SOAK_PLANS):
        failed_requests += _soak_round(seed, tmp_path)
        clean_rounds += 1
    pass_rate = clean_rounds / SOAK_PLANS
    print_table("chaos soak", {
        "plans": SOAK_PLANS,
        "clean rounds": clean_rounds,
        "requests ended in an error": failed_requests,
        "pass rate": f"{pass_rate:.2f}",
    })
    assert pass_rate == 1.0
