"""An analysis budget beside the emit budget: how many emptiness questions
a cold compile of the ``tensor`` kernels asks isl with legality and the
race check on.  A count, so it repeats exactly and fails here before the
benchmark's ``compile_cold_ms`` could drift; the hash-seed runs also
repeat the differential against the reference formulation, because isl
iterates over hashed sets."""

import os
import subprocess
import sys

import pytest

import repro.isl.cache as isl_cache
from repro import kernels as K

#: The benchmark's ``tensor`` set under its hand schedules.
TENSOR = [
    (K.build_sgemm, lambda bundle: K.schedule_sgemm_cpu(bundle, 32, 8)),
    (K.build_conv, K.schedule_conv_cpu),
    (K.build_vgg_block, K.schedule_vgg_fused),
    (K.build_baryon, K.schedule_baryon_cpu),
    (K.build_spmv27, K.schedule_spmv_cpu),
    (K.build_heat, K.schedule_heat_cpu),
    (K.build_symgs_forward, K.schedule_symgs_wavefront),
]

#: Summed ``BasicMap.is_empty`` calls / Omega tests run (memo misses)
#: over TENSOR, isl memo cleared before each compile.  The per-position
#: checker with two dependence passes asked 1226 / 512.  Lower these
#: when the analysis gets leaner.
EMPTY_CALLS_CEILING = 303
OMEGA_TESTS_CEILING = 169


def test_tensor_set_analysis_within_budget():
    calls = omega = 0
    for builder, schedule in TENSOR:
        bundle = builder()
        schedule(bundle)
        isl_cache.clear()
        before = isl_cache.stats().tier("isl.empty")
        bundle.function.compile("cpu", cache=False, check_legality=True,
                                check_races=True, num_threads=2)
        after = isl_cache.stats().tier("isl.empty")
        calls += after.hits + after.misses - before.hits - before.misses
        omega += after.misses - before.misses
    assert calls <= EMPTY_CALLS_CEILING, calls
    assert omega <= OMEGA_TESTS_CEILING, omega


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_budget_and_differential_under_hash_seed(hashseed):
    if os.environ.get("TIRAMISU_NESTED_PYTEST"):
        pytest.skip("already inside the hash-seed run")
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               TIRAMISU_NESTED_PYTEST="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "tests/test_analysis_budget.py", "tests/test_dependence_summary.py"],
        env=env, capture_output=True, text=True, timeout=600,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
