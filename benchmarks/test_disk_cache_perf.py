"""Tier-2 gate: the durable on-disk compile-artifact tier and the
batch front end.

Compile-as-a-service only pays off if (a) a *fresh process* warms from
disk instead of re-lowering — on the Fig. 1 sgemm pipeline the second
process must run no lowering stage at all — and (b) an N-duplicate
batch compiles once, with every duplicate receiving the same report.
Both used to be single-sample wall-clock ratios; the timings now live
in ``python3 -m bench.run`` (BENCHMARK.json ``disk_warm_ms`` and
``driver.batch_dedup_ratio``) and the gates here are the facts the
ratios stood for.
"""

import json
import os
import subprocess
import sys

from conftest import print_table
from repro.driver import BatchCompiler, kernel_registry
from repro.kernels import build_sgemm, schedule_sgemm_cpu

#: Runs inside a fresh interpreter: time exactly one sgemm compile (the
#: in-memory registry starts empty, so the disk tier decides warmth).
#: An unrelated, uncached warm-up compile runs first so the timing
#: isolates the pipeline, not Python's one-time lazy imports.
_CHILD = r"""
import json, sys, time
from repro import Computation, Function, Var
from repro.kernels import build_sgemm, schedule_sgemm_cpu

warmup = Function("warmup")
with warmup:
    i = Var("i", 0, 4)
    Computation("w", [i], 1.0 * i)
warmup.compile("cpu", cache=False)

bundle = build_sgemm()
schedule_sgemm_cpu(bundle, 32, 8)
start = time.perf_counter()
kernel = bundle.function.compile("cpu")
seconds = time.perf_counter() - start
print(json.dumps({
    "seconds": seconds,
    "disk_hit": kernel.report.disk_hit,
    "cache_hit": kernel.report.cache_hit,
    "stages": kernel.report.stage_names(),
    "source": kernel.source,
}))
"""


def _compile_in_fresh_process(cache_dir):
    env = dict(os.environ)
    env["TIRAMISU_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"),
                    os.path.join(os.path.dirname(__file__), os.pardir,
                                 "src"))
        if p)
    out = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class TestDiskCachePerf:
    def test_fresh_process_warms_from_disk(self, tmp_path):
        """Was "disk path >= 10x a cold compile" (timing:
        ``disk_warm_ms`` against ``compile_cold_ms``)."""
        cold = _compile_in_fresh_process(tmp_path)
        assert not cold["disk_hit"] and not cold["cache_hit"]
        assert "emit" in cold["stages"] and "disk-store" in cold["stages"]

        warm = _compile_in_fresh_process(tmp_path)
        assert warm["disk_hit"] and not warm["cache_hit"]
        assert warm["stages"] == ["ensure-params", "fingerprint",
                                  "disk-load", "bind"]
        # The artifact round trip must be byte-preserving.
        assert warm["source"] == cold["source"]

        print_table("disk cache: Fig.1 sgemm, fresh process each time", {
            "cold compile (ms)": round(cold["seconds"] * 1e3, 2),
            "warm-from-disk (ms)": round(warm["seconds"] * 1e3, 2)})


class TestBatchDedupPerf:
    def test_n_duplicate_batch_compiles_once(self):
        """Was "8-duplicate batch <= 3x one compile" (timing and the
        dedup share: ``batch_compiles_per_s``,
        ``driver.batch_dedup_ratio``)."""
        def fresh_fn():
            bundle = build_sgemm()
            schedule_sgemm_cpu(bundle, 32, 8)
            return bundle.function

        kernel_registry.clear()
        solo = fresh_fn().compile("cpu")

        # Eight byte-identical requests in one batch.
        kernel_registry.clear()
        with BatchCompiler(use_processes=False) as batch:
            handles = [batch.submit(fresh_fn()) for __ in range(8)]
            kernels = [handle.result() for handle in handles]

        assert batch.stats.submitted == 8
        assert batch.stats.compiled == 1
        assert batch.stats.deduplicated == 7
        # One job compiled, every report the same object (hence
        # byte-identical however it is serialized).
        assert len({id(k) for k in kernels}) == 1
        assert len({id(k.report) for k in kernels}) == 1
        assert kernels[0].report.to_dict() == kernels[3].report.to_dict()
        assert kernels[0].source == solo.source
