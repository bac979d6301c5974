"""The unified cache-stats vocabulary (repro.driver.stats): one
CacheStats shape for every tier, dict-readable, grouped by tier name."""

import json

import pytest

from repro import Computation, Function, Var
from repro.driver import kernel_registry
from repro.driver.stats import STAT_KEYS, CacheStats, CacheStatsGroup


def build(name="f"):
    f = Function(name)
    with f:
        i, j = Var("i", 0, 8), Var("j", 0, 8)
        Computation("c", [i, j], 2.0 * i + j)
    return f


@pytest.fixture(autouse=True)
def _fresh_cache():
    kernel_registry.clear()
    yield
    kernel_registry.clear()


class TestCacheStats:
    def test_dict_surface_matches_legacy_shape(self):
        cs = CacheStats(tier="memory", hits=3, misses=1, evictions=2,
                        corruptions=0, size=4, maxsize=64)
        # dict(cs) must reproduce exactly the pre-unification key set —
        # no 'tier' key leaking into the mapping view.
        assert dict(cs) == {"hits": 3, "misses": 1, "evictions": 2,
                            "corruptions": 0, "size": 4, "maxsize": 64}
        assert cs["hits"] == 3
        assert cs.get("evictions", 0) == 2
        assert cs.get("nonexistent", 7) == 7
        assert set(STAT_KEYS) <= set(cs)

    def test_equality_against_plain_dict_both_ways(self):
        cs = CacheStats(tier="memory", hits=1, size=1, maxsize=8)
        as_dict = dict(cs)
        assert cs == as_dict
        assert as_dict == cs

    def test_extra_keys_ride_the_mapping(self):
        cs = CacheStats(tier="disk", hits=2, size=1,
                        extra={"bytes": 483, "max_bytes": 1024})
        assert cs["bytes"] == 483
        assert dict(cs)["max_bytes"] == 1024

    def test_json_roundtrip(self):
        cs = CacheStats(tier="memory", hits=1, misses=2, size=3,
                        maxsize=64)
        assert json.loads(json.dumps(dict(cs))) == cs

    def test_format_line(self):
        cs = CacheStats(tier="memory", hits=1, misses=2, evictions=0,
                        size=3, maxsize=64)
        assert cs.format_line() == "1 hits / 2 misses / 0 evictions " \
                                   "(size 3/64)"

    def test_format_line_of_a_byte_bounded_tier(self):
        cs = CacheStats(tier="disk", hits=2, misses=1, corruptions=1,
                        size=1, extra={"bytes": 483, "max_bytes": 1024})
        assert cs.format_line() == "2 hits / 1 misses / 0 evictions / " \
                                   "1 corrupt (size 1, 483/1024 bytes)"


class TestCacheStatsGroup:
    def group(self):
        return CacheStatsGroup(
            CacheStats(tier="isl.empty", hits=4, misses=2, size=2,
                       maxsize=16),
            CacheStats(tier="isl.compose", hits=1, misses=3, size=3,
                       maxsize=8))

    def test_canonical_tier_access(self):
        g = self.group()
        assert g.tier("isl.empty").hits == 4
        assert g.tier("isl.compose").misses == 3

    def test_flat_keys_are_gone(self):
        g = self.group()
        with pytest.raises(TypeError):
            g["empty_hits"]
        assert not hasattr(g, "get")

    def test_tiers_keep_their_full_names_in_order(self):
        g = self.group()
        assert list(g.tiers) == ["isl.empty", "isl.compose"]
        assert g == self.group()

    def test_unknown_tier_raises(self):
        with pytest.raises(KeyError):
            self.group().tier("bogus")


class TestReportUnification:
    def test_every_tier_reports_the_same_vocabulary(self):
        kernel = build().compile("cpu")
        caches = kernel.report.caches
        assert {"memory", "isl.empty", "isl.compose"} <= set(caches)
        for tier_name, stats in caches.items():
            assert stats.tier == tier_name
            for key in STAT_KEYS:
                assert key in set(stats) | {"maxsize"} \
                    or hasattr(stats, key)

    def test_registry_stats_is_cachestats(self):
        build().compile("cpu")
        stats = kernel_registry.stats()
        assert isinstance(stats, CacheStats)
        assert stats.tier == "memory"
        assert stats.misses == 1
        # Legacy read style still works.
        assert stats["misses"] == 1

    def test_isl_stats_group_tiers(self):
        from repro.isl.cache import stats as isl_stats
        build().compile("cpu", check_legality=True)
        g = isl_stats()
        assert isinstance(g, CacheStatsGroup)
        for tier in ("isl.empty", "isl.compose"):
            for key in ("hits", "misses", "size"):
                assert isinstance(getattr(g.tier(tier), key), int)

    def test_trace_table_renders_every_tier_through_format_line(self):
        report = build().compile("cpu").report
        table = report.format_table()
        for tier, stats in report.caches.items():
            label = "cache" if tier == "memory" else tier
            assert f"  {label}: {stats.format_line()}" in table
