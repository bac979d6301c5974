"""One stats vocabulary for every cache tier.

Before this module the driver exposed three differently-shaped stats
accessors: ``CompileCache.stats()`` (a plain dict), ``CompileReport.
cache_stats`` (a copy of that dict) and ``CompileReport.isl_cache_stats``
(a flat dict whose keys carried ad-hoc ``empty_``/``compose_`` prefixes).
:class:`CacheStats` replaces all three shapes with one dataclass and a
shared key vocabulary — ``hits`` / ``misses`` / ``evictions`` /
``corruptions`` / ``size`` / ``maxsize`` — qualified by a *tier* name
(``memory``, ``disk``, ``isl.empty``, ``isl.compose``).

:class:`CacheStats` is a :class:`~collections.abc.Mapping`, so
dict-style reads (``stats["hits"]``, ``stats.get("evictions", 0)``,
``dict(stats)``, equality against a plain dict) work beside the
attributes.  Tiers that are read together (``isl.empty`` and
``isl.compose``) travel as a :class:`CacheStatsGroup`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

#: The shared counter vocabulary every tier reports (tier-specific
#: extras — e.g. the disk tier's byte totals — ride in ``extra``).
STAT_KEYS = ("hits", "misses", "evictions", "corruptions", "size",
             "maxsize")


@dataclass
class CacheStats(Mapping):
    """Point-in-time counters of one cache tier, dict-compatible."""

    tier: str
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    corruptions: int = 0
    size: int = 0
    maxsize: Optional[int] = None
    #: Tier-specific extras (e.g. ``bytes`` / ``max_bytes`` on disk).
    extra: Dict[str, float] = field(default_factory=dict)

    # -- Mapping (the dict-style surface) -------------------------------

    def _mapping(self) -> Dict[str, object]:
        out: Dict[str, object] = {key: getattr(self, key)
                                  for key in STAT_KEYS}
        out.update(self.extra)
        return out

    def __getitem__(self, key: str):
        if key in STAT_KEYS:
            return getattr(self, key)
        return self.extra[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._mapping())

    def __len__(self) -> int:
        return len(STAT_KEYS) + len(self.extra)

    def __eq__(self, other) -> bool:
        if isinstance(other, CacheStats):
            return self.tier == other.tier \
                and self._mapping() == other._mapping()
        if isinstance(other, Mapping):
            return self._mapping() == dict(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.tier, tuple(sorted(self._mapping().items()))))

    def format_line(self) -> str:
        """One human-readable summary line for trace tables (a
        byte-bounded tier also shows its corruptions and bytes)."""
        head = (f"{self.hits} hits / {self.misses} misses / "
                f"{self.evictions} evictions")
        if "max_bytes" in self.extra:
            held = (f"size {self.size}, {self.extra['bytes']}/"
                    if "bytes" in self.extra else "max ")
            return (f"{head} / {self.corruptions} corrupt "
                    f"({held}{self.extra['max_bytes']} bytes)")
        cap = f"/{self.maxsize}" if self.maxsize is not None else ""
        return f"{head} (size {self.size}{cap})"


class CacheStatsGroup:
    """Several tiers read together: ``group.tier("isl.empty").hits``,
    or iteration over :attr:`tiers`."""

    def __init__(self, *stats: CacheStats):
        self.tiers: Dict[str, CacheStats] = {s.tier: s for s in stats}

    def tier(self, name: str) -> CacheStats:
        """The named tier's stats."""
        return self.tiers[name]

    def __eq__(self, other) -> bool:
        if isinstance(other, CacheStatsGroup):
            return self.tiers == other.tiers
        return NotImplemented

    def __repr__(self):
        return f"CacheStatsGroup({', '.join(sorted(self.tiers))})"
