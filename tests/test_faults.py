"""The deterministic fault-injection subsystem: spec matching and
consumption, seeded corruption payloads, process-global activation, and
the compile cache's digest-verified corruption handling."""

import numpy as np
import pytest

from repro import Computation, Function, Input, Var
from repro.driver import kernel_registry
from repro.driver.cache import CacheEntry, CompileCache, source_digest
from repro.faults import (FAULT_KINDS, FaultPlan, FaultSpec, get_plan,
                          injected, install, uninstall)


@pytest.fixture(autouse=True)
def _no_active_plan():
    uninstall()
    kernel_registry.clear()
    yield
    uninstall()
    kernel_registry.clear()


class TestSpecMatching:
    def test_exact_site_matches(self):
        spec = FaultSpec("message-drop", {"src": 0, "dst": 1})
        assert spec.matches({"src": 0, "dst": 1, "message": 0})
        assert not spec.matches({"src": 0, "dst": 2, "message": 0})

    def test_none_fields_are_wildcards(self):
        spec = FaultSpec("message-drop", {"src": None, "dst": None})
        assert spec.matches({"src": 7, "dst": 3})

    def test_times_bounds_firing(self):
        plan = FaultPlan().drop_message(dst=0, times=2)
        assert plan.fires("message-drop", src=1, dst=0, message=0)
        assert plan.fires("message-drop", src=1, dst=0, message=1)
        assert plan.fires("message-drop", src=1, dst=0, message=2) is None
        assert plan.fired("message-drop") == 2

    def test_key_site_is_a_prefix(self):
        spec = FaultSpec("cache-corrupt", {"key": "abc1"})
        assert spec.matches({"key": "abc1234deadbeef"})
        assert not spec.matches({"key": "abd1234deadbeef"})

    def test_index_addresses_nth_probe(self):
        # "the second cache probe" without knowing its fingerprint
        plan = FaultPlan().corrupt_cache(index=1)
        assert plan.fires("cache-corrupt", key="k0") is None
        assert plan.fires("cache-corrupt", key="k1") is not None
        assert plan.fires("cache-corrupt", key="k2") is None

    def test_first_spec_wins_in_insertion_order(self):
        plan = FaultPlan().hang_rank(0, seconds=1.0).hang_rank(0,
                                                               seconds=9.0)
        spec = plan.fires("rank-hang", rank=0)
        assert spec.payload["seconds"] == 1.0

    def test_log_records_coordinates(self):
        plan = FaultPlan().drop_message(src=1, dst=0)
        plan.fires("message-drop", src=1, dst=0, message=0)
        assert plan.fired() == 1
        kind, coords = plan.log[0]
        assert kind == "message-drop"
        assert coords["src"] == 1 and coords["dst"] == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan()._add("disk-full", {}, 1)

    def test_unknown_site_field_rejected(self):
        with pytest.raises(ValueError, match="no site field"):
            FaultPlan()._add("rank-crash", {"chunk": 0}, 1)

    def test_bad_times_rejected(self):
        with pytest.raises(ValueError, match="times"):
            FaultPlan().crash_rank(0, times=0)

    def test_refuse_pool_names_a_supervised_site(self):
        # only the batch offload is supervised: a typo, or a kernel
        # executor that no longer dispatches to a pool, would never fire
        assert FaultPlan().refuse_pool(op="batch").specs
        assert FaultPlan().refuse_pool().specs           # any site
        for op in ("typo", "parallel", "taskgraph"):
            with pytest.raises(ValueError, match="valid ops: batch"):
                FaultPlan().refuse_pool(op=op)

    def test_every_kind_has_an_index_field(self):
        for fields in FAULT_KINDS.values():
            assert "index" in fields


class TestSeededCorruption:
    def test_array_corruption_is_deterministic(self):
        a = np.arange(32, dtype=np.float64)
        b = a.copy()
        FaultPlan(seed=11).corrupt_array(a, "message-corrupt", src=0, dst=1)
        FaultPlan(seed=11).corrupt_array(b, "message-corrupt", src=0, dst=1)
        assert a.tobytes() == b.tobytes()

    def test_array_corruption_changes_bytes(self):
        a = np.arange(32, dtype=np.float64)
        clean = a.tobytes()
        FaultPlan(seed=11).corrupt_array(a, "message-corrupt", src=0, dst=1)
        assert a.tobytes() != clean

    def test_seed_and_site_select_the_damage(self):
        a = np.arange(32, dtype=np.float64)
        b = a.copy()
        c = a.copy()
        FaultPlan(seed=1).corrupt_array(a, "message-corrupt", src=0, dst=1)
        FaultPlan(seed=2).corrupt_array(b, "message-corrupt", src=0, dst=1)
        FaultPlan(seed=1).corrupt_array(c, "message-corrupt", src=0, dst=2)
        assert a.tobytes() != b.tobytes()
        assert a.tobytes() != c.tobytes()

    def test_text_corruption_deterministic_and_damaging(self):
        src = "def kernel():\n    return 42\n"
        one = FaultPlan(seed=5).corrupt_text(src, "cache-corrupt", key="k")
        two = FaultPlan(seed=5).corrupt_text(src, "cache-corrupt", key="k")
        assert one == two
        assert one != src
        assert len(one) == len(src)


class TestActivation:
    def test_default_is_no_plan(self):
        assert get_plan() is None

    def test_injected_scopes_the_plan(self):
        plan = FaultPlan()
        with injected(plan) as active:
            assert active is plan
            assert get_plan() is plan
        assert get_plan() is None

    def test_injected_nests_and_restores(self):
        outer, inner = FaultPlan(seed=1), FaultPlan(seed=2)
        with injected(outer):
            with injected(inner):
                assert get_plan() is inner
            assert get_plan() is outer
        assert get_plan() is None

    def test_injected_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with injected(FaultPlan()):
                raise RuntimeError("boom")
        assert get_plan() is None

    def test_install_returns_previous(self):
        plan = FaultPlan()
        assert install(plan) is None
        assert install(None) is plan


def build(name="f"):
    f = Function(name)
    with f:
        i = Var("i", 0, 16)
        inp = Input("inp", [Var("x", 0, 16)])
        Computation("c", [i], inp(i) * 2.0)
    return f


class TestCacheCorruption:
    def test_digest_fills_on_put_and_verifies(self):
        cache = CompileCache()
        entry = CacheEntry(key="k", fn=None, target="cpu",
                           source="print('hi')", kernel=object())
        cache.put(entry)
        assert entry.digest == source_digest("print('hi')")
        assert cache.get("k") is entry

    def test_damaged_entry_is_a_miss(self):
        cache = CompileCache()
        cache.put(CacheEntry(key="k", fn=None, target="cpu",
                             source="print('hi')", kernel=object()))
        with injected(FaultPlan().corrupt_cache(key="k")):
            assert cache.get("k") is None
        assert "k" not in cache
        assert cache.stats()["corruptions"] == 1

    def test_corruption_counts_into_metrics(self):
        from repro.obs.metrics import metrics
        metrics.reset()
        cache = CompileCache()
        cache.put(CacheEntry(key="k", fn=None, target="cpu",
                             source="src", kernel=object()))
        with injected(FaultPlan().corrupt_cache()):
            cache.get("k")
        assert metrics.counter("cache.memory.corrupt").value == 1

    def test_pipeline_recompiles_after_corruption(self):
        data = np.arange(16, dtype=np.float32)
        out1 = build().compile("cpu")(inp=data)["c"]
        with injected(FaultPlan().corrupt_cache()) as plan:
            k2 = build().compile("cpu")
            assert plan.fired("cache-corrupt") == 1
        assert not k2.report.cache_hit
        assert kernel_registry.stats()["corruptions"] == 1
        out2 = k2(inp=data)["c"]
        assert out2.tobytes() == out1.tobytes()

    def test_intact_entry_still_hits_under_a_plan(self):
        build().compile("cpu")
        # A plan addressing some other entry leaves this one alone.
        with injected(FaultPlan().corrupt_cache(key="ffff")):
            k = build().compile("cpu")
        assert k.report.cache_hit
        assert kernel_registry.stats()["corruptions"] == 0
