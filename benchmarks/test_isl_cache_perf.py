"""Tier-2 gate: the polyhedral hot path (PR 5).

Legality checking decides every question by emptiness of a dependence-
violation set; this gate pins two promises the ISL-layer optimizations
make:

1. On a cold ``compile(check_legality=True)`` of the Fig. 1 sgemm
   pipeline the memo runs at most half the Omega tests the same compile
   runs with every optimization off (memo caches disabled, pre-filters /
   unit elimination / rational fast-path off — the pre-PR algorithm).
   This was a single-sample ">= 3x faster" wall-clock gate; isl's own
   speed is ``isl.battery_ms`` in ``python3 -m bench.run``
   (BENCHMARK.json), and how often it is asked is ``isl.empty_calls`` /
   ``isl.empty_hit_ratio``.
2. Caching is invisible in the output: the emitted backend source is
   byte-identical with the memo caches on and off.
"""

from conftest import print_table
from repro.driver import kernel_registry
from repro.driver.pipeline import compile_function
from repro.isl import isl_cache_clear, isl_cache_disabled, isl_cache_stats
from repro.isl import omega
from repro.kernels import build_sgemm, schedule_sgemm_cpu


def _fresh_sgemm():
    bundle = build_sgemm()
    schedule_sgemm_cpu(bundle, 32, 8)
    return bundle.function


def _cold_compile(fn):
    kernel_registry.clear()
    return compile_function(fn, target="cpu", cache=False,
                            check_legality=True)


class TestIslHotPathPerf:
    def test_memo_at_least_halves_the_omega_tests(self, monkeypatch):
        omega_tests = []
        real = omega.conjunction_is_empty
        monkeypatch.setattr(omega, "conjunction_is_empty",
                            lambda bmap: omega_tests.append(1) or real(bmap))

        # Optimized path: memo caches + pre-filters + unit elimination +
        # rational fast-path, exactly as a user compile runs them.
        # Counters are cumulative process-wide, so diff around one run.
        isl_cache_clear()
        before = isl_cache_stats().tier("isl.empty")
        kernel = _cold_compile(_fresh_sgemm())
        after = kernel.report.isl_cache_stats.tier("isl.empty")
        hits, misses = after.hits - before.hits, after.misses - before.misses
        optimized = len(omega_tests)

        # Legacy path: the pre-PR algorithm, every question re-decided.
        del omega_tests[:]
        with isl_cache_disabled(), omega.legacy_mode():
            _cold_compile(_fresh_sgemm())
        legacy = len(omega_tests)

        print_table("isl hot path: cold sgemm + legality (cpu)", {
            "Omega tests, legacy": legacy,
            "Omega tests, memo on": optimized,
            "ratio": round(legacy / optimized, 2),
            "empty memo": f"{hits} hits / {misses} misses"})
        # Every memo miss is one Omega test, every hit is one saved.
        assert misses == optimized > 0
        assert hits + misses == legacy
        assert legacy >= 2 * optimized, (
            f"memo saved only {legacy - optimized} of {legacy} tests")

    def test_counters_visible_in_metrics_registry(self):
        from repro.obs.metrics import metrics
        isl_cache_clear()
        _cold_compile(_fresh_sgemm())
        assert metrics.counter("isl.empty_cache.misses").value > 0
        assert metrics.counter("isl.empty_cache.hits").value > 0
        assert isl_cache_stats().tier("isl.empty").size > 0

    def _emitted_source(self, mode: str) -> str:
        """Compile a fresh sgemm in the given mode and return the
        emitted backend source from the registry entry."""
        fn = _fresh_sgemm()
        kernel_registry.clear()
        if mode == "legacy":
            with isl_cache_disabled(), omega.legacy_mode():
                k = compile_function(fn, target="cpu", cache=True,
                                     check_legality=True)
        elif mode == "cache-off":
            with isl_cache_disabled():
                k = compile_function(fn, target="cpu", cache=True,
                                     check_legality=True)
        else:
            k = compile_function(fn, target="cpu", cache=True,
                                 check_legality=True)
        entry = kernel_registry.get(k.report.fingerprint)
        assert entry is not None and not k.report.cache_hit
        return entry.source

    def test_emitted_source_byte_identical_cache_on_off(self):
        isl_cache_clear()
        assert (self._emitted_source("optimized")
                == self._emitted_source("cache-off"))

    def test_emitted_source_byte_identical_vs_legacy(self):
        """Not just cache on/off: the whole optimized pipeline and the
        legacy algorithm must emit the same bytes."""
        isl_cache_clear()
        assert (self._emitted_source("optimized")
                == self._emitted_source("legacy"))
