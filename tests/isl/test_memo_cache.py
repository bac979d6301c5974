"""The process-wide ISL memo caches (repro.isl.cache).

The contract under test: caching is *invisible* except for speed — every
cached answer equals the answer a cache-disabled run computes, and the
composition memo returns structurally identical (not merely equivalent)
objects so generated code stays byte-for-byte stable.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import settings as knobs   # hypothesis owns "settings" here
from repro.isl import (BasicSet, Constraint, LinExpr, isl_cache_clear,
                       isl_cache_disabled, isl_cache_stats, parse_map,
                       parse_set)
from repro.isl import cache as islcache
from repro.isl.linexpr import OUT


@st.composite
def boxed_sets(draw):
    n_dims = draw(st.integers(1, 3))
    names = tuple(f"x{k}" for k in range(n_dims))
    bounds = [(draw(st.integers(-4, 0)), draw(st.integers(0, 4)))
              for _ in range(n_dims)]
    bset = BasicSet.from_box(names, bounds)
    for _ in range(draw(st.integers(0, 3))):
        coeffs = {(OUT, k): draw(st.integers(-3, 3))
                  for k in range(n_dims)}
        const = draw(st.integers(-6, 6))
        kind = draw(st.sampled_from(["eq", "ge"]))
        expr = LinExpr(coeffs, const)
        bset = bset.add_constraint(
            Constraint.eq(expr) if kind == "eq" else Constraint.ge(expr))
    return bset


class TestEmptinessMemo:
    @given(boxed_sets())
    @settings(max_examples=100, deadline=None)
    def test_cached_agrees_with_uncached(self, bset):
        cached = bset.is_empty()
        with isl_cache_disabled():
            assert bset.is_empty() == cached

    def test_repeat_query_hits(self):
        isl_cache_clear()
        s = parse_set("{ [i] : 0 <= i < 10 }").pieces[0]
        s.is_empty()
        before = isl_cache_stats().tier("isl.empty")
        s.is_empty()
        after = isl_cache_stats().tier("isl.empty")
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_reordered_constraints_share_one_entry(self):
        """The emptiness key is the canonical fingerprint, so the same
        conjunction written in a different constraint order is one cache
        entry, not two."""
        isl_cache_clear()
        a = parse_set("{ [i,j] : 0 <= i < 4 and 0 <= j < 4 }").pieces[0]
        b = parse_set("{ [i,j] : 0 <= j < 4 and 0 <= i < 4 }").pieces[0]
        assert a.canonical_fingerprint() == b.canonical_fingerprint()
        a.is_empty()
        misses = isl_cache_stats().tier("isl.empty").misses
        b.is_empty()
        stats = isl_cache_stats()
        assert stats.tier("isl.empty").misses == misses
        assert stats.tier("isl.empty").hits >= 1

    def test_rescaled_constraints_share_one_entry(self):
        """2i >= 2 normalises to i >= 1 at construction, so scaled
        variants fingerprint identically."""
        a = parse_set("{ [i] : 2i >= 2 and 3i <= 9 }").pieces[0]
        b = parse_set("{ [i] : i >= 1 and i <= 3 }").pieces[0]
        assert a.canonical_fingerprint() == b.canonical_fingerprint()
        assert a == b
        assert hash(a) == hash(b)

    def test_clear_resets(self):
        parse_set("{ [i] : i = 0 }").pieces[0].is_empty()
        isl_cache_clear()
        assert isl_cache_stats().tier("isl.empty").size == 0
        assert isl_cache_stats().tier("isl.compose").size == 0

    def test_disabled_context_restores(self):
        assert knobs.get("isl_cache")
        with isl_cache_disabled():
            assert not knobs.get("isl_cache")
        assert knobs.get("isl_cache")


class TestCompositionMemo:
    def test_intersect_cached_result_is_structural_copy(self):
        """The memoized composition must be byte-for-byte what a fresh
        compute produces — constraint *order included* — because the
        result feeds codegen."""
        isl_cache_clear()
        a = parse_map("{ [i] -> [j] : 0 <= i < 8 }").pieces[0]
        b = parse_map("{ [i] -> [j] : 0 <= j <= i }").pieces[0]
        first = a.intersect(b)
        with isl_cache_disabled():
            fresh = a.intersect(b)
        cached = a.intersect(b)
        assert cached.constraints == fresh.constraints
        assert cached.constraints == first.constraints
        assert cached.space == fresh.space
        assert cached.n_div == fresh.n_div

    def test_apply_range_cached(self):
        isl_cache_clear()
        sched = parse_map("{ [t] -> [t + 1] }").pieces[0]
        acc = parse_map("{ [i,j] -> [i] : 0 <= i < 4 and 0 <= j < 4 }"
                        ).pieces[0]
        first = acc.apply_range(sched)
        before = isl_cache_stats().tier("isl.compose")
        again = acc.apply_range(sched)
        after = isl_cache_stats().tier("isl.compose")
        assert after.hits == before.hits + 1
        assert again.constraints == first.constraints

    def test_compose_key_is_order_sensitive(self):
        """Unlike emptiness, composition keys must distinguish operand
        constraint order: the cached object is returned verbatim and a
        differently-ordered fresh result would perturb emitted source."""
        a = parse_map("{ [i] -> [j] : 0 <= i < 4 and 0 <= j < 4 }"
                      ).pieces[0]
        b = parse_map("{ [i] -> [j] : 0 <= j < 4 and 0 <= i < 4 }"
                      ).pieces[0]
        # Same mathematical map, same canonical fingerprint, but the
        # exact composition keys differ.
        assert a.canonical_fingerprint() == b.canonical_fingerprint()
        u = parse_map("{ [i] -> [j] : j = i }").pieces[0]
        assert (islcache._exact_key("intersect", a, u)
                != islcache._exact_key("intersect", b, u))

    def test_disabled_bypasses_compose_memo(self):
        isl_cache_clear()
        a = parse_map("{ [i] -> [j] : i >= 0 }").pieces[0]
        b = parse_map("{ [i] -> [j] : j >= 0 }").pieces[0]
        before = isl_cache_stats().tier("isl.compose")
        with isl_cache_disabled():
            a.intersect(b)
            a.intersect(b)
        after = isl_cache_stats().tier("isl.compose")
        assert after.hits == before.hits
        assert after.misses == before.misses
        assert after.size == 0


class TestEvictionBound:
    def test_empty_memo_bounded(self, monkeypatch):
        monkeypatch.setattr(islcache, "EMPTY_CACHE_MAX", 8)
        isl_cache_clear()
        # Distinct fingerprints: singleton sets i = k.
        for k in range(40):
            parse_set(f"{{ [i] : i = {k} }}").pieces[0].is_empty()
        assert isl_cache_stats().tier("isl.empty").size <= 8
