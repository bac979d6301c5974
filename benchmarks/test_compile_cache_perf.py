"""Tier-2 check: the content-addressed compile cache.

The schedule-search and benchmark paths compile the same function
repeatedly; a warm ``compile()`` must be served by the registry and
skip every lowering stage on the Fig. 1 sgemm pipeline.  How much time
that saves is a measured number, not a gate here: ``warm_hit_ms``
against ``compile_cold_ms`` in ``python3 -m bench.run``
(BENCHMARK.json).
"""

from conftest import print_table
from repro.driver import kernel_registry
from repro.kernels import build_sgemm, schedule_sgemm_cpu


class TestCompileCachePerf:
    def test_warm_compile_skips_every_lowering_stage(self):
        """Was "warm >= 5x faster than cold" on one sample each; the
        fact behind it is which stages ran (timing: ``warm_hit_ms``)."""
        kernel_registry.clear()
        bundle = build_sgemm()
        schedule_sgemm_cpu(bundle, 32, 8)
        fn = bundle.function

        cold = fn.compile("cpu").report
        assert not cold.cache_hit
        assert {"time-space", "ast", "emit", "bind"} <= \
            set(cold.stage_names())

        warm = fn.compile("cpu").report
        assert warm.cache_hit
        assert warm.stage_names() == ["ensure-params", "fingerprint"]
        assert warm.cache_stats["hits"] >= 1

        print_table("compile cache: Fig.1 sgemm (cpu)", {
            "cold compile (ms)": round(cold.total_seconds * 1e3, 2),
            "warm compile (ms)": round(warm.total_seconds * 1e3, 2),
            "cache": kernel_registry.stats()})

    def test_schedule_mutation_recompiles_then_caches(self):
        kernel_registry.clear()
        bundle = build_sgemm()
        fn = bundle.function
        fn.compile("cpu")
        acc = bundle.computations["acc"]
        acc.tile("i", "j", 32, 32)
        k_cold = fn.compile("cpu")
        assert not k_cold.report.cache_hit      # fingerprint moved
        k_warm = fn.compile("cpu")
        assert k_warm.report.cache_hit          # and re-cached
