"""Process-wide memoization for the polyhedral hot path.

Legality analysis (Section IV of the paper) decides every question by
emptiness of a dependence-violation set, and the same violation systems
recur across dependences, loop levels and compiles: on the Fig. 1 sgemm
pipeline, 116 ``BasicMap.is_empty`` Omega tests collapse to 38 distinct
canonical systems.  This module caches both layers of the hot path:

``is_empty``
    keyed on the *canonical fingerprint* of the constraint system — the
    dims it involves and the set of its rows over those dims (see
    :meth:`repro.isl.basic.BasicMap.canonical_fingerprint`).  Emptiness
    depends only on the constraints (every dimension, parameters and
    divs included, is a free integer variable), so systems from
    different spaces that normalise identically share one entry.

``intersect`` / ``apply_range``
    keyed on the *exact* structural identity of both operands (space,
    ``n_div`` and ordered tuple of rows).  The key is deliberately
    order-sensitive: composition results feed the code generator, and a
    cached result must be byte-for-byte the object a fresh computation
    would have produced so generated source stays identical with the
    cache on or off.

Both caches are bounded LRU maps; hit/miss totals and sizes are
published through :data:`repro.obs.metrics.metrics` as
``isl.empty_cache.hits`` / ``isl.empty_cache.misses`` /
``isl.empty_cache.size`` and ``isl.compose_cache.*``, and every cache
miss that runs a full Omega test lands on the observability timeline as
an ``isl:is_empty`` span when the tracer is enabled (see
docs/observability.md).

Memoization is the ``isl_cache`` knob of :mod:`repro.settings` (on by
default); the property tests compare cached and uncached runs under
:func:`cache_disabled`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Tuple

from repro import settings

#: Entry caps; far above what one compile produces, small enough that a
#: long-lived autoscheduler process stays bounded.
EMPTY_CACHE_MAX = 16384
COMPOSE_CACHE_MAX = 4096

_empty_memo: "OrderedDict[Tuple, bool]" = OrderedDict()
_compose_memo: "OrderedDict[Tuple, object]" = OrderedDict()


def cache_disabled():
    """Run a block with memoization off (and the caches untouched), then
    restore the previous state — the reference path for property tests."""
    return settings.override(isl_cache=False)


def clear() -> None:
    """Drop every memoized result (counters in the metrics registry are
    left alone; tests reset those via ``metrics.reset()``), and the
    column moves of :mod:`repro.isl.basic` by shape."""
    from .basic import _gather, _plan
    _empty_memo.clear()
    _compose_memo.clear()
    for cached in (_gather, _plan):
        cached.cache_clear()
    _publish_sizes()


def _metrics():
    from repro.obs.metrics import metrics
    return metrics


def _publish_sizes() -> None:
    m = _metrics()
    m.gauge("isl.empty_cache.size").set(len(_empty_memo))
    m.gauge("isl.compose_cache.size").set(len(_compose_memo))


def stats():
    """Point-in-time cache counters (the driver copies this onto each
    :class:`~repro.driver.trace.CompileReport`).

    Returns a :class:`~repro.driver.stats.CacheStatsGroup` with tiers
    ``isl.empty`` and ``isl.compose`` in the driver-wide CacheStats
    vocabulary."""
    from repro.driver.stats import CacheStats, CacheStatsGroup
    m = _metrics()
    return CacheStatsGroup(
        CacheStats(
            tier="isl.empty",
            hits=int(m.counter("isl.empty_cache.hits").value),
            misses=int(m.counter("isl.empty_cache.misses").value),
            size=len(_empty_memo), maxsize=EMPTY_CACHE_MAX),
        CacheStats(
            tier="isl.compose",
            hits=int(m.counter("isl.compose_cache.hits").value),
            misses=int(m.counter("isl.compose_cache.misses").value),
            size=len(_compose_memo), maxsize=COMPOSE_CACHE_MAX))


# -- the emptiness memo ------------------------------------------------------


def is_empty_cached(bmap) -> bool:
    """Memoizing front-end for the Omega test on one basic map."""
    from .omega import conjunction_is_empty
    if not settings.get("isl_cache"):
        return conjunction_is_empty(bmap)
    key = bmap.canonical_fingerprint()
    m = _metrics()
    hit = _empty_memo.get(key)
    if hit is not None:
        _empty_memo.move_to_end(key)
        m.counter("isl.empty_cache.hits").inc()
        return hit is True
    m.counter("isl.empty_cache.misses").inc()
    from repro.obs.tracer import get_tracer
    tracer = get_tracer()
    if tracer.enabled():
        with tracer.span("isl:is_empty", cat="isl",
                         constraints=len(bmap.rows)):
            result = conjunction_is_empty(bmap)
    else:
        result = conjunction_is_empty(bmap)
    # Store booleans as sentinels distinguishable from a missing entry.
    _empty_memo[key] = True if result else False
    if len(_empty_memo) > EMPTY_CACHE_MAX:
        _empty_memo.popitem(last=False)
    _publish_sizes()
    return result


# -- the composition memo ----------------------------------------------------


def _exact_key(op: str, a, b=None) -> Tuple:
    # Order-sensitive on purpose: see the module docstring.
    if b is None:
        return (op, type(a).__name__, a.space, a.n_div, a.rows)
    return (op, type(a).__name__, type(b).__name__,
            a.space, a.n_div, a.rows, b.space, b.n_div, b.rows)


def composed(op: str, a, b, compute: Callable[[], object]):
    """Memoize one structural operation on basic maps: the binary
    compositions (``intersect``/``apply_range``) and, with ``b=None``,
    deterministic unary rewrites (``remove_redundant``)."""
    if not settings.get("isl_cache"):
        return compute()
    key = _exact_key(op, a, b)
    m = _metrics()
    hit = _compose_memo.get(key)
    if hit is not None:
        _compose_memo.move_to_end(key)
        m.counter("isl.compose_cache.hits").inc()
        return hit
    m.counter("isl.compose_cache.misses").inc()
    result = compute()
    _compose_memo[key] = result
    if len(_compose_memo) > COMPOSE_CACHE_MAX:
        _compose_memo.popitem(last=False)
    _publish_sizes()
    return result
