"""The content-addressed compile cache: fingerprint keying, hit/miss
semantics, invalidation on schedule/target/layout changes, the disable
option, and the LRU bound."""

import numpy as np
import pytest

from repro import Computation, Function, Input, Var
from repro.driver import ir_fingerprint, kernel_registry
from repro.driver.cache import CompileCache
from repro.ir.expr import BufferRead


def build(name="f"):
    f = Function(name)
    with f:
        i, j = Var("i", 0, 16), Var("j", 0, 16)
        inp = Input("inp", [Var("x", 0, 16), Var("y", 0, 16)])
        c = Computation("c", [i, j], inp(i, j) * 2.0)
    return f, c


def build_pair(prep=None):
    """inp -> p -> c, after ``prep(f, inp, p, c)``."""
    f = Function("g")
    with f:
        i, j = Var("i", 0, 16), Var("j", 0, 16)
        inp = Input("inp", [Var("x", 0, 16), Var("y", 0, 16)])
        p = Computation("p", [i, j], inp(i, j) * 2.0)
        c = Computation("c", [i, j], p(i, j) + 1.0)
    if prep is not None:
        prep(f, inp, p, c)
    return f, inp, p, c


def _split4(f, inp, p, c):
    c.split("i", 4)


def _split_p(f, inp, p, c):
    p.split("i", 4)


def _promote(f, inp, p, c):
    # c reads p's buffer directly: p is no longer consumed, so the next
    # ensure-params promotes its buffer to an output named "p", which
    # renames what c's BufferRead prints
    c.set_expression(BufferRead(p.get_buffer(), c.vars) + 1.0)


#: command -> (prep applied to both copies, the in-place mutation,
#: target).  Every public scheduling command of Computation (Table II)
#: and Function's ordering commands; ``distribute`` compiles on the
#: distributed target, the gpu mappings and caches on the gpu target.
#: Every one applies to this function; ``separate`` needs a split that
#: leaves partial tiles and the gpu mapping a tiled nest, which the prep
#: gives both copies.  Not here: ``host_to_device`` / ``device_to_host``
#: and the ``repro.core.communication`` operations, which add
#: computations rather than schedule this function's.
COMMANDS = {
    "tile": (None, lambda f, inp, p, c: c.tile("i", "j", 4, 4), "cpu"),
    "split": (None, _split4, "cpu"),
    "interchange": (None, lambda f, inp, p, c: c.interchange("i", "j"),
                    "cpu"),
    "shift": (None, lambda f, inp, p, c: c.shift("i", 1), "cpu"),
    "skew": (None, lambda f, inp, p, c: c.skew("i", "j", 1), "cpu"),
    "unroll": (None, lambda f, inp, p, c: c.unroll("j", 4), "cpu"),
    "set_schedule": (None, lambda f, inp, p, c: c.set_schedule(
        "{ c[i,j] -> c[j,i] }"), "cpu"),
    "compute_at": (None, lambda f, inp, p, c: p.compute_at(c, "i"), "cpu"),
    "after": (None, lambda f, inp, p, c: c.after(p, "i"), "cpu"),
    "before": (None, lambda f, inp, p, c: p.before(c, "j"), "cpu"),
    "then": (None, lambda f, inp, p, c: p.then(c, "i"), "cpu"),
    "inline": (None, lambda f, inp, p, c: p.inline(), "cpu"),
    "separate": (lambda f, inp, p, c: c.split("i", 5),
                 lambda f, inp, p, c: c.separate("i1"), "cpu"),
    "parallelize": (None, lambda f, inp, p, c: c.parallelize("i"), "cpu"),
    "vectorize": (None, lambda f, inp, p, c: c.vectorize("j", 4), "cpu"),
    "distribute": (None, lambda f, inp, p, c: c.distribute("i"),
                   "distributed"),
    "gpu": (lambda f, inp, p, c: c.tile("i", "j", 4, 4),
            lambda f, inp, p, c: c.gpu("i0", "j0", "i1", "j1"), "gpu"),
    "tile_gpu": (None, lambda f, inp, p, c: c.tile_gpu("i", "j", 4, 4),
                 "gpu"),
    "cache_shared_at": (_split_p, lambda f, inp, p, c: inp.cache_shared_at(
        p, "i0"), "gpu"),
    "cache_local_at": (_split_p, lambda f, inp, p, c: inp.cache_local_at(
        p, "i0"), "gpu"),
    "store_in": (None, lambda f, inp, p, c: p.store_in(
        [p.vars[1], p.vars[0]]), "cpu"),
    "store_in_isl": (None, lambda f, inp, p, c: p.store_in_isl(
        "{ p[i,j] -> b[j, i] }"), "cpu"),
    "set_expression": (None, lambda f, inp, p, c: c.set_expression(
        p(*c.vars) + 2.0), "cpu"),
    "add_predicate": (None, lambda f, inp, p, c: c.add_predicate(
        inp(*c.vars) > 0.5), "cpu"),
    "order_after": (None, lambda f, inp, p, c: f.order_after(c, p, 0),
                    "cpu"),
    "order_before": (None, lambda f, inp, p, c: f.order_before(p, c, 0),
                     "cpu"),
    "sequence": (None, lambda f, inp, p, c: f.sequence(p, c), "cpu"),
    "promote": (None, _promote, "cpu"),
}


@pytest.fixture(autouse=True)
def _fresh_cache():
    kernel_registry.clear()
    yield
    kernel_registry.clear()


class TestFingerprint:
    def test_stable_across_identical_builds(self):
        f1, _ = build()
        f2, _ = build()
        assert ir_fingerprint(f1, "cpu") == ir_fingerprint(f2, "cpu")

    def test_schedule_changes_fingerprint(self):
        f, c = build()
        before = ir_fingerprint(f, "cpu")
        c.tile("i", "j", 4, 4)
        after = ir_fingerprint(f, "cpu")
        assert before != after

    def test_tag_changes_fingerprint(self):
        f1, c1 = build()
        f2, c2 = build()
        c2.vectorize("j", 8)
        assert ir_fingerprint(f1, "cpu") != ir_fingerprint(f2, "cpu")

    def test_layout_changes_fingerprint(self):
        f1, c1 = build()
        f2, c2 = build()
        c2.store_in([c2.vars[1], c2.vars[0]])   # Layer III only
        assert ir_fingerprint(f1, "cpu") != ir_fingerprint(f2, "cpu")

    def test_a_kept_fingerprint_sees_a_renamed_read_buffer(self):
        # the buffer appears in no token but c's expression, which
        # prints its current name
        from repro.core.buffer import Buffer
        from repro.driver.fingerprint import Fingerprint
        lut = Buffer("lut", [16])
        f = Function("f")
        with f:
            i = Var("i", 0, 16)
            Computation("c", [i], BufferRead(lut, [i]) * 2.0)
        kept = Fingerprint(f, "cpu").keep()
        assert kept.holds()
        lut.name = "table"
        assert not kept.holds()

    def test_target_changes_fingerprint(self):
        f, _ = build()
        assert ir_fingerprint(f, "cpu") != ir_fingerprint(f, "distributed")

    def test_ordering_changes_fingerprint(self):
        def two(name):
            f = Function(name)
            with f:
                i = Var("i", 0, 8)
                a = Computation("a", [i], 1.0)
                b = Computation("b", [i], 2.0)
            return f, a, b

        f1, a1, b1 = two("g")
        f2, a2, b2 = two("g")
        a2.after(b2, "root")
        assert ir_fingerprint(f1, "cpu") != ir_fingerprint(f2, "cpu")

    def test_method_on_function(self):
        f, _ = build()
        assert f.ir_fingerprint("cpu") == ir_fingerprint(f, "cpu")


class TestCacheHits:
    def test_same_function_same_schedule_hits(self):
        f, c = build()
        c.tile("i", "j", 4, 4)
        k1 = f.compile("cpu")
        k2 = f.compile("cpu")
        assert k2 is k1
        assert not k1.report.cache_hit or k2.report.cache_hit
        assert k2.report.cache_hit
        assert kernel_registry.stats()["hits"] == 1

    def test_identical_rebuild_hits(self):
        f1, _ = build()
        f1.compile("cpu")
        f2, _ = build()
        k2 = f2.compile("cpu")
        assert k2.report.cache_hit

    def test_cached_kernel_still_correct(self):
        f, _ = build()
        data = np.arange(256.0, dtype=np.float32).reshape(16, 16)
        out1 = f.compile("cpu")(inp=data)["c"]
        out2 = f.compile("cpu")(inp=data)["c"]
        assert np.allclose(out1, data * 2.0)
        assert np.allclose(out2, out1)


class TestCacheInvalidation:
    def test_new_schedule_misses(self):
        f, c = build()
        f.compile("cpu")
        c.tile("i", "j", 4, 4)
        k = f.compile("cpu")
        assert not k.report.cache_hit
        c.vectorize("j1", 4)
        k2 = f.compile("cpu")
        assert not k2.report.cache_hit
        assert kernel_registry.stats()["misses"] == 3

    def test_target_change_misses(self):
        f, _ = build()
        f.compile("cpu")
        k = f.compile("distributed")
        assert not k.report.cache_hit

    def test_stale_entry_dropped_after_inplace_mutation(self):
        # f1 is compiled, cached, then mutated in place.  A fresh
        # function identical to the *original* f1 maps to the stored
        # key, but the entry's function has drifted away from it: the
        # driver must detect the drift and recompile.
        f1, c1 = build()
        f1.compile("cpu")
        c1.tile("i", "j", 4, 4)
        f2, _ = build()
        k = f2.compile("cpu")
        assert not k.report.cache_hit
        assert k.fn is f2

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_stale_entry_dropped_after_every_command(self, command):
        # the same drift, once for every public scheduling command
        prep, mutate, target = COMMANDS[command]
        f1, *comps = build_pair(prep)
        f1.compile(target)
        mutate(f1, *comps)
        f2, *_ = build_pair(prep)
        k = f2.compile(target)
        assert not k.report.cache_hit
        assert k.fn is f2
        assert not f1.compile(target).report.cache_hit

    def test_check_legality_is_part_of_the_key(self):
        f, _ = build()
        f.compile("cpu")
        k = f.compile("cpu", check_legality=True)
        assert not k.report.cache_hit

    def test_verbose_is_not_part_of_the_key(self, capsys):
        f, _ = build()
        f.compile("cpu")
        k = f.compile("cpu", verbose=True)
        assert k.report.cache_hit
        assert "_kernel" in capsys.readouterr().out


class TestCacheDisable:
    def test_cache_false_skips_lookup_and_store(self):
        f, _ = build()
        k1 = f.compile("cpu", cache=False)
        k2 = f.compile("cpu", cache=False)
        assert k2 is not k1
        assert not k2.report.cache_hit
        stats = kernel_registry.stats()
        assert stats["size"] == 0
        assert stats["hits"] == 0 and stats["misses"] == 0


class TestLRUBound:
    def test_eviction_of_least_recently_used(self):
        cache = CompileCache(maxsize=2)
        from repro.driver.cache import CacheEntry
        for key in ("k1", "k2", "k3"):
            cache.put(CacheEntry(key=key, fn=None, target="cpu",
                                 source="", kernel=object()))
        assert "k1" not in cache
        assert "k2" in cache and "k3" in cache
        assert cache.stats()["evictions"] == 1

    def test_get_refreshes_lru_position(self):
        from repro.driver.cache import CacheEntry
        cache = CompileCache(maxsize=2)
        for key in ("k1", "k2"):
            cache.put(CacheEntry(key=key, fn=None, target="cpu",
                                 source="", kernel=object()))
        cache.get("k1")     # k2 becomes the eviction candidate
        cache.put(CacheEntry(key="k3", fn=None, target="cpu",
                             source="", kernel=object()))
        assert "k1" in cache and "k3" in cache
        assert "k2" not in cache

    def test_registry_resize_evicts(self):
        for n in range(4):
            f, _ = build(f"f{n}")
            f.compile("cpu")
        assert kernel_registry.stats()["size"] == 4
        kernel_registry.resize(2)
        try:
            assert kernel_registry.stats()["size"] == 2
            assert kernel_registry.stats()["evictions"] == 2
        finally:
            from repro.driver.cache import DEFAULT_MAXSIZE
            kernel_registry.resize(DEFAULT_MAXSIZE)

    def test_resize_matches_put_driven_eviction(self):
        # Regression: resize() used to shed overflow on its own path,
        # skipping the eviction counters/metrics and (for multi-entry
        # sheds) the LRU discipline.  Both paths now land in _evict_to:
        # the survivors, their order, the local counter and the
        # cache.memory.evict metric must be identical.
        from repro.driver.cache import CacheEntry
        from repro.obs.metrics import metrics

        def fill(cache):
            for key in ("k1", "k2", "k3", "k4"):
                cache.put(CacheEntry(key=key, fn=None, target="cpu",
                                     source="", kernel=object()))
            cache.get("k2")     # k2 becomes most recently used

        metrics.reset()
        via_put = CompileCache(maxsize=4)
        fill(via_put)
        # put()-driven: shrink the bound by overflowing it twice.
        via_put.maxsize = 2
        via_put.put(CacheEntry(key="k5", fn=None, target="cpu",
                               source="", kernel=object()))
        put_metric = metrics.counter("cache.memory.evict").value

        metrics.reset()
        via_resize = CompileCache(maxsize=4)
        fill(via_resize)
        via_resize.resize(2)
        via_resize.put(CacheEntry(key="k5", fn=None, target="cpu",
                                  source="", kernel=object()))
        resize_metric = metrics.counter("cache.memory.evict").value

        assert via_put.keys() == via_resize.keys() == ["k2", "k5"]
        assert via_put.evictions == via_resize.evictions == 3
        assert put_metric == resize_metric == 3
        assert via_put.stats() == via_resize.stats()

    def test_resize_emits_eviction_metrics(self):
        from repro.driver.cache import CacheEntry
        from repro.obs.metrics import metrics
        metrics.reset()
        cache = CompileCache(maxsize=8)
        for n in range(6):
            cache.put(CacheEntry(key=f"k{n}", fn=None, target="cpu",
                                 source="", kernel=object()))
        cache.resize(2)
        assert cache.evictions == 4
        assert metrics.counter("cache.memory.evict").value == 4
        # LRU discipline: the two most recently used keys survive.
        assert cache.keys() == ["k4", "k5"]

    def test_evicted_entry_recompiles(self):
        kernel_registry.resize(1)
        try:
            f1, _ = build("a")
            f1.compile("cpu")
            f2, _ = build("b")
            f2.compile("cpu")       # evicts a
            f1b, _ = build("a")
            k = f1b.compile("cpu")
            assert not k.report.cache_hit
        finally:
            from repro.driver.cache import DEFAULT_MAXSIZE
            kernel_registry.resize(DEFAULT_MAXSIZE)
