"""The durable on-disk compile-artifact tier (repro.driver.diskcache):
atomic publication under concurrent writers, digest-verified loads with
quarantine, size-bounded LRU eviction, and byte-identical codegen with
the tier on or off."""

import multiprocessing
import os
import pickle

import pytest

from repro import Computation, Function, Var
from repro.driver import kernel_registry
from repro.driver.diskcache import (PAYLOAD_VERSION, DiskCache,
                                    active_disk_cache, configure)


def build(name="f", scale=2.0):
    f = Function(name)
    with f:
        i, j = Var("i", 0, 8), Var("j", 0, 8)
        Computation("c", [i, j], float(scale) * i + j)
    return f


@pytest.fixture(autouse=True)
def _fresh_tiers(monkeypatch):
    monkeypatch.delenv("TIRAMISU_CACHE_DIR", raising=False)
    monkeypatch.delenv("TIRAMISU_CACHE_MAX_BYTES", raising=False)
    kernel_registry.clear()
    yield
    kernel_registry.clear()


class TestRoundTrip:
    def test_put_get_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.put("k1", "source-1", "cpu", extras={"n": 3})
        entry = cache.get("k1")
        assert entry.source == "source-1"
        assert entry.target == "cpu"
        assert entry.extras == {"n": 3}
        assert cache.stats()["hits"] == 1

    def test_missing_key_is_a_counted_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get("absent") is None
        assert cache.stats()["misses"] == 1

    def test_unpicklable_extras_fail_soft(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert not cache.put("k1", "src", "cpu",
                             extras={"fn": lambda: None})
        assert "k1" not in cache


class TestCorruption:
    def test_truncated_artifact_quarantined_and_missed(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("k1", "real source", "cpu")
        path = cache.path_for("k1")
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get("k1") is None
        assert cache.stats()["corruptions"] == 1
        # The corpse left the key namespace: the key now reads as a
        # plain (non-corrupt) miss, and the quarantine file remains.
        assert "k1" not in cache
        assert list(tmp_path.glob("*.quarantine"))

    def test_digest_mismatch_is_corruption(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("k1", "real source", "cpu")
        path = cache.path_for("k1")
        payload = pickle.loads(path.read_bytes())
        payload["source"] = "tampered source"
        path.write_bytes(pickle.dumps(payload))
        assert cache.get("k1") is None
        assert cache.stats()["corruptions"] == 1

    def test_wrong_schema_version_is_corruption(self, tmp_path):
        # 999: the future; PAYLOAD_VERSION - 1: what the release before
        # the last bump wrote under the same fingerprints
        for version in (999, PAYLOAD_VERSION - 1):
            cache = DiskCache(tmp_path)
            cache.put("k1", "src", "cpu")
            path = cache.path_for("k1")
            payload = pickle.loads(path.read_bytes())
            payload["version"] = version
            path.write_bytes(pickle.dumps(payload))
            assert cache.get("k1") is None
            assert cache.stats()["corruptions"] == 1

    def test_corrupt_artifact_recompiles_through_pipeline(self, tmp_path):
        cache = configure(tmp_path)
        fn = build()
        kernel = fn.compile("cpu")
        key = kernel.report.fingerprint
        path = cache.path_for(key)
        path.write_bytes(b"garbage that is not a pickle")
        kernel_registry.clear()
        k2 = build().compile("cpu")
        # Recompiled from scratch: neither tier served it...
        assert not k2.report.cache_hit and not k2.report.disk_hit
        assert "emit" in k2.report.stage_names()
        # ...and the fresh compile re-published a valid artifact.
        entry = cache.get(key)
        assert entry is not None and entry.source == kernel.source

    def test_version_2_artifact_recompiles_through_pipeline(self, tmp_path):
        """What the release before N-d slabs stored under this very
        fingerprint is the one-lane source: it must not be served."""
        cache = configure(tmp_path)
        kernel = build().compile("cpu")
        path = cache.path_for(kernel.report.fingerprint)
        payload = pickle.loads(path.read_bytes())
        assert payload["version"] == PAYLOAD_VERSION == 3
        payload["version"] = 2
        path.write_bytes(pickle.dumps(payload))
        kernel_registry.clear()
        again = build().compile("cpu")
        assert not again.report.disk_hit and not again.report.cache_hit
        assert "emit" in again.report.stage_names()
        assert again.source == kernel.source


class TestEviction:
    def entry_bytes(self, cache):
        cache.put("probe", "x" * 100, "cpu")
        size = cache.path_for("probe").stat().st_size
        cache.path_for("probe").unlink()
        return size

    def test_lru_eviction_under_two_entry_bound(self, tmp_path):
        probe = DiskCache(tmp_path / "probe")
        per_entry = self.entry_bytes(probe)
        cache = DiskCache(tmp_path / "real", max_bytes=2 * per_entry + 1)
        for n in range(5):
            cache.put(f"k{n}", "x" * 100, "cpu")
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 3
        # Every surviving artifact loads complete and digest-verified —
        # eviction never leaves a partially-removed entry servable.
        for key in cache.keys():
            entry = cache.get(key)
            assert entry is not None
            assert entry.source == "x" * 100
        assert cache.stats()["corruptions"] == 0

    def test_read_refreshes_recency_across_eviction(self, tmp_path):
        import time
        probe = DiskCache(tmp_path / "probe")
        per_entry = self.entry_bytes(probe)
        cache = DiskCache(tmp_path / "real", max_bytes=2 * per_entry + 1)
        cache.put("old", "x" * 100, "cpu")
        time.sleep(0.02)
        cache.put("mid", "x" * 100, "cpu")
        time.sleep(0.02)
        assert cache.get("old") is not None   # bump mtime
        cache.put("new", "x" * 100, "cpu")    # evicts mid, not old
        assert "old" in cache and "new" in cache
        assert "mid" not in cache

    def test_single_oversized_artifact_survives(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=10)
        cache.put("big", "y" * 1000, "cpu")
        assert cache.get("big") is not None


def _race_writer(root, key, source, barrier, results, index):
    cache = DiskCache(root)
    barrier.wait()
    for _ in range(20):
        ok = cache.put(key, source, "cpu", extras={"writer": index})
        entry = cache.get(key)
        if not ok or entry is None or entry.source != source:
            results[index] = False
            return
    results[index] = True


class TestConcurrency:
    def test_racing_writers_converge_to_one_valid_entry(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        workers = 4
        barrier = ctx.Barrier(workers)
        results = ctx.Array("b", [0] * workers)
        source = "def _kernel():\n    return 42\n" * 20
        procs = [ctx.Process(target=_race_writer,
                             args=(str(tmp_path), "shared-key", source,
                                   barrier, results, n))
                 for n in range(workers)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        # No writer ever observed a broken or missing artifact...
        assert all(results[:])
        # ...and exactly one complete entry remains (plus zero temp
        # litter: every temp file was either renamed or cleaned up).
        cache = DiskCache(tmp_path)
        assert cache.keys() == ["shared-key"]
        entry = cache.get("shared-key")
        assert entry is not None and entry.source == source
        assert not [n for n in os.listdir(tmp_path)
                    if n.startswith(".tmp-")]


class TestByteIdenticalCodegen:
    def test_source_identical_with_tier_on_and_off(self, tmp_path):
        # Tier off: the reference source.
        k_off = build().compile("cpu")
        reference = k_off.source
        # Tier on, cold: must emit byte-identical source and store it.
        kernel_registry.clear()
        cache = configure(tmp_path)
        k_cold = build().compile("cpu")
        assert k_cold.source == reference
        stored = cache.get(k_cold.report.fingerprint)
        assert stored.source == reference
        # Tier on, warm from disk in a "fresh process" (cleared memory
        # tier): the re-bound kernel carries byte-identical source.
        kernel_registry.clear()
        k_warm = build().compile("cpu")
        assert k_warm.report.disk_hit
        assert k_warm.source == reference

    def test_vector_counts_survive_the_disk_tier(self, tmp_path):
        """vector_loops / vector_declines are read off the source, so a
        kernel re-bound from disk reports what the cold compile did."""
        def build_vec():
            f = Function("v")
            with f:
                i, j = Var("i", 0, 8), Var("j", 0, 8)
                c = Computation("c", [i, j], 2.0 * i)
                r = Computation("r", [Var("k", 0, 8)], None)
                r.set_expression(r(Var("k", 0, 8) - 1) + 1.0)
            c.vectorize("j", 8)
            r.vectorize("k", 8)
            return f
        configure(tmp_path)
        k_cold = build_vec().compile("cpu")
        kernel_registry.clear()
        k_warm = build_vec().compile("cpu")
        assert k_warm.report.disk_hit
        for k in (k_cold, k_warm):
            assert k.vector_loops == k.report.vector_loops == 1
            assert k.report.vector_declines == ["k: carried flow r->r on r"]
        assert "vector: 1 loop(s) vectorized; k: carried" in \
            k_warm.report.format_table()

    def test_every_trace_says_disk(self, tmp_path):
        """One verdict word for a compile the disk tier served: on the
        report, in the table header and on the tracer's compile spans."""
        from repro import settings
        from repro.obs import get_tracer
        configure(tmp_path / "tier")
        build().compile("cpu")
        kernel_registry.clear()
        tracer = get_tracer()
        tracer.clear()
        try:
            with settings.override(trace_file=tmp_path / "trace.json"):
                report = build().compile("cpu").report
            spans = [s for s in tracer.spans()
                     if s.name.startswith("compile:")]
        finally:
            tracer.clear()
        assert report.disk_hit and report.verdict == "disk"
        assert "[cache disk]" in report.format_table()
        assert "compile:disk-load" in {s.name for s in spans}
        assert {s.args["cache"] for s in spans} == {"disk"}

    def test_warm_kernel_computes_identically(self, tmp_path):
        import numpy as np
        configure(tmp_path)
        k1 = build().compile("cpu")
        kernel_registry.clear()
        k2 = build().compile("cpu")
        assert k2.report.disk_hit
        assert np.array_equal(k1()["c"], k2()["c"])


class TestActivation:
    def test_off_by_default(self):
        assert active_disk_cache() is None

    def test_env_var_activates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TIRAMISU_CACHE_DIR", str(tmp_path))
        cache = active_disk_cache()
        assert cache is not None
        assert str(cache.root) == str(tmp_path)

    def test_env_var_bounds_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TIRAMISU_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("TIRAMISU_CACHE_MAX_BYTES", "12345")
        assert active_disk_cache().max_bytes == 12345

    def test_configure_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TIRAMISU_CACHE_DIR", str(tmp_path / "env"))
        cache = configure(tmp_path / "explicit", max_bytes=99)
        assert str(cache.root) == str(tmp_path / "explicit")
        assert cache.max_bytes == 99
        # configure(None) disables even with the env var set.
        assert configure(None) is None

    def test_gpu_backend_stays_out_of_the_tier(self, tmp_path):
        # gpu kernels need emit-time launch info and cannot rebind from
        # source: the pipeline must not offer them the disk tier.
        from repro.driver import get_backend
        from repro.driver.pipeline import CompilePipeline
        configure(tmp_path)
        pipe = CompilePipeline(get_backend("gpu"))
        assert pipe._disk_tier() is None
        assert CompilePipeline(get_backend("cpu"))._disk_tier() is not None


class TestWhatAHitDoes:
    """A memory hit on a freshly built function hashes the request once:
    no buffer extents, no re-print of the stored function, no scan of
    the disk tier."""

    @staticmethod
    def gaussian():
        from repro.evaluation.schedules import tiramisu_cpu
        from repro.kernels import build_gaussian
        bundle = build_gaussian()
        tiramisu_cpu(bundle)
        return bundle.function

    def test_a_memory_hit_runs_no_cold_only_step(self, tmp_path,
                                                 monkeypatch):
        import collections

        import repro.driver.fingerprint as fingerprint
        import repro.isl.fourier_motzkin as fourier_motzkin
        root = str(tmp_path / "tier")
        configure(root)
        stored = self.gaussian()
        stored.compile("cpu", parallel=False)
        fresh = self.gaussian()
        calls = collections.Counter()

        def count(module, name, when=lambda *args: True):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                if when(*args):
                    calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        def under_root(path=".", *rest):
            return os.fspath(path).startswith(root)
        count(fourier_motzkin, "eliminate_dims")
        count(fingerprint, "_computation_tokens",
              lambda comp: comp.function is stored)
        count(os, "listdir", under_root)
        count(os, "stat", under_root)
        kernel = fresh.compile("cpu", parallel=False)
        assert kernel.report.cache_hit and kernel.fn is stored
        assert calls == {}

    def test_the_report_carries_the_tier_counters(self, tmp_path):
        configure(tmp_path)
        build().compile("cpu")
        kernel_registry.clear()
        report = build().compile("cpu").report
        assert report.disk_hit
        disk, scanned = report.caches["disk"], active_disk_cache().stats()
        assert (disk.hits, disk.misses) == (scanned.hits,
                                            scanned.misses) == (1, 1)
        assert disk["max_bytes"] == scanned["max_bytes"]
        assert "bytes" not in disk and scanned["size"] == 1
