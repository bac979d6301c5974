"""The durable compile-artifact tier: an on-disk cache under the
in-memory kernel registry, shared by every process that points at one
directory.

Each kernel's *emitted source* (plus picklable backend extras) lives in
``<fingerprint>.pkl``, published by atomic rename so lockless readers
see only complete artifacts, and digest-verified on load: a damaged
file is *quarantined* (renamed ``*.quarantine``) and answered as a
miss.  After each store the tier is trimmed under ``cache_max_bytes``
least-recently-used first by mtime (reads bump it).  Off by default:
the ``cache_dir`` knob of :mod:`repro.settings` turns it on.  The
properties, events and stats are listed in docs/compiler_driver.md,
"The durable disk tier".
"""

from __future__ import annotations

import errno as _errno
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from repro import settings
from repro.atomicio import atomic_write
from repro.obs.events import emit

from .cache import source_digest
from .resilience import active_fault_plan
from .stats import CacheStats


def _injected_io_error(op: str, key: str) -> None:
    """Raise the active fault plan's ``disk-io-error`` for this probe,
    if any (ENOSPC for a store, EIO for a load, unless the spec pins an
    errno)."""
    plan = active_fault_plan()
    if plan is None:
        return
    spec = plan.fires("disk-io-error", op=op, key=key)
    if spec is None:
        return
    code = int(spec.payload.get("errno") or 0)
    if not code:
        code = _errno.ENOSPC if op == "store" else _errno.EIO
    raise OSError(code, f"injected disk-io-error ({op})")

#: On-disk payload schema version; bump on incompatible changes so old
#: artifacts read as corrupt-and-recompile, never as wrong code.  2: the
#: ``c`` target's source became typed (bit-identical to ``cpu``); a
#: version-1 artifact under the same fingerprint holds the all-double C.
#: 3: the ``cpu`` target's source changed shape (N-d slabs, pruned
#: prologues) under an unchanged fingerprint.
PAYLOAD_VERSION = 3

_SUFFIX = ".pkl"
_QUARANTINE_SUFFIX = ".quarantine"


@dataclass
class DiskEntry:
    """One artifact loaded from (or bound for) the disk tier."""

    key: str
    target: str
    source: str
    digest: str = ""
    extras: Dict[str, object] = field(default_factory=dict)


class DiskCache:
    """A size-bounded, digest-verified, multi-process-safe artifact
    store; one instance per (directory, byte bound).  ``max_bytes=None``
    takes the ``cache_max_bytes`` knob."""

    def __init__(self, root, max_bytes: Optional[int] = None):
        self.root = Path(root)
        self.max_bytes = settings.resolve("cache_max_bytes", max_bytes)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corruptions = 0

    # -- paths ----------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}{_SUFFIX}"

    def _listing(self, suffix: str = _SUFFIX):
        """Every file of the tier ending in ``suffix`` (published
        artifacts by default, quarantined corpses with
        ``_QUARANTINE_SUFFIX``; never temp files) with its stat, oldest
        mtime first."""
        out = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return out
        for name in names:
            if not name.endswith(suffix):
                continue
            path = self.root / name
            try:
                out.append((path, path.stat()))
            except OSError:
                continue  # concurrently evicted or removed
        out.sort(key=lambda item: (item[1].st_mtime, item[0].name))
        return out

    # -- read path ------------------------------------------------------

    def get(self, key: str) -> Optional[DiskEntry]:
        """Load and verify the artifact for ``key``, or None.

        A hit bumps the file's mtime (the LRU recency signal shared by
        every process).  Any damage — truncated pickle, wrong schema,
        digest mismatch — quarantines the file, counts a corruption,
        and answers a miss so the caller recompiles."""
        path = self.path_for(key)
        try:
            _injected_io_error("load", key)
            raw = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            emit("cache.disk.miss", key=key[:16])
            return None
        except OSError as err:
            # A real I/O failure (EIO, a yanked mount), not a cold key:
            # journal it distinctly, then degrade to a miss so the
            # pipeline recompiles from scratch.
            self.misses += 1
            emit("cache.disk.load_error", key=key[:16], errno=err.errno)
            return None
        entry = self._decode(key, raw)
        if entry is None:
            self._quarantine(path)
            self.corruptions += 1
            self.misses += 1
            emit("cache.disk.quarantine", key=key[:16])
            return None
        try:
            os.utime(path)
        except OSError:
            pass  # raced an eviction; the loaded entry is still valid
        self.hits += 1
        emit("cache.disk.hit", key=key[:16])
        return entry

    def _decode(self, key: str, raw: bytes) -> Optional[DiskEntry]:
        try:
            payload = pickle.loads(raw)
        except Exception:  # noqa: BLE001 - any damage means corrupt
            return None
        if not isinstance(payload, dict) \
                or payload.get("version") != PAYLOAD_VERSION \
                or payload.get("key") != key:
            return None
        source = payload.get("source")
        digest = payload.get("digest", "")
        if not isinstance(source, str) or not digest \
                or source_digest(source) != digest:
            return None
        extras = payload.get("extras") or {}
        if not isinstance(extras, dict):
            return None
        return DiskEntry(key=key, target=str(payload.get("target", "")),
                         source=source, digest=digest, extras=extras)

    def _quarantine(self, path: Path) -> None:
        """Move a damaged artifact out of the key namespace so it can
        never be served again (kept on disk as forensic evidence)."""
        try:
            os.replace(path, path.with_suffix(_QUARANTINE_SUFFIX))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    # -- write path -----------------------------------------------------

    def put(self, key: str, source: str, target: str = "",
            extras: Optional[Dict[str, object]] = None) -> bool:
        """Publish one artifact atomically; returns False when the
        extras refuse to pickle (the compile still succeeds, it just
        stays process-local).  Safe for concurrent writers: each writes
        a private temp file and renames into place."""
        payload = {
            "version": PAYLOAD_VERSION,
            "key": key,
            "target": target,
            "source": source,
            "digest": source_digest(source),
            "extras": dict(extras or {}),
        }
        try:
            raw = pickle.dumps(payload)
        except Exception:  # noqa: BLE001 - unpicklable backend extras
            return False
        try:
            _injected_io_error("store", key)
            atomic_write(self.path_for(key), raw)
        except OSError as err:
            # A failed store leaves no partial .pkl and no stray temp
            # behind (atomic_write): journal the failure, and let the
            # compile proceed from its in-memory artifact.
            emit("cache.disk.store_error", key=key[:16], errno=err.errno)
            return False
        self.evict_to_limit()
        return True

    def evict_to_limit(self) -> None:
        """Trim the tier under ``max_bytes``, oldest mtime first.  The
        newest artifact always survives (a single artifact larger than
        the bound would otherwise make the tier useless).

        Quarantined corpses are bounded too: their *count* is capped at
        the ``cache_max_quarantine`` knob (oldest dropped first), and
        the survivors' bytes count toward ``max_bytes`` — when the tier
        is over budget, forensic corpses are evicted before any live
        artifact is."""
        quarantined = self._listing(_QUARANTINE_SUFFIX)
        excess = len(quarantined) - settings.get("cache_max_quarantine")
        artifacts = self._listing()
        total = sum(st.st_size for _, st in quarantined + artifacts)
        queue = [(path, st, "cache.disk.quarantine_evict")
                 for path, st in quarantined]
        queue += [(path, st, "cache.disk.evict")
                  for path, st in artifacts[:-1]]
        for k, (path, st, event) in enumerate(queue):
            if k >= excess and total <= self.max_bytes:
                break
            if self._evict_one(path, event, st.st_size):
                total -= st.st_size

    def _evict_one(self, path: Path, event: str, size: int) -> bool:
        try:
            path.unlink()
        except OSError:
            return False  # a concurrent evictor got there first
        self.evictions += 1
        emit(event, key=path.stem[:16], bytes=size)
        return True

    # -- management -----------------------------------------------------

    def keys(self):
        return [path.name[:-len(_SUFFIX)]
                for path, _ in self._listing()]

    def __len__(self) -> int:
        return len(self._listing())

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def clear(self) -> None:
        """Drop every artifact (quarantined corpses included) and reset
        the instance counters."""
        for path, _ in self._listing() + self._listing(_QUARANTINE_SUFFIX):
            try:
                path.unlink()
            except OSError:
                pass
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corruptions = 0

    def counters(self) -> CacheStats:
        """This instance's counters (tier ``disk``) and ``max_bytes``,
        read without touching the directory: ``size`` stays 0."""
        return CacheStats(tier="disk", hits=self.hits, misses=self.misses,
                          evictions=self.evictions,
                          corruptions=self.corruptions,
                          extra={"max_bytes": self.max_bytes})

    def stats(self) -> CacheStats:
        """Point-in-time counters (tier ``disk``) with a scan of the
        directory: ``size`` is the artifact count on disk right now,
        ``bytes``/``max_bytes`` and the quarantine ride in the
        extras."""
        artifacts = self._listing()
        quarantined = self._listing(_QUARANTINE_SUFFIX)
        return CacheStats(
            tier="disk", hits=self.hits, misses=self.misses,
            evictions=self.evictions, corruptions=self.corruptions,
            size=len(artifacts),
            extra={"bytes": sum(st.st_size for _, st in artifacts),
                   "max_bytes": self.max_bytes,
                   "quarantined": len(quarantined),
                   "quarantine_bytes": sum(st.st_size
                                           for _, st in quarantined)})


# -- process-wide activation -------------------------------------------------

_active: Optional[DiskCache] = None


def configure(root: Optional[str], max_bytes: Optional[int] = None
              ) -> Optional[DiskCache]:
    """Pin the ``cache_dir`` knob to ``root`` (``None`` disables the
    tier regardless of the environment) and, when given, the
    ``cache_max_bytes`` knob; returns the active instance."""
    settings.set(cache_dir=root)
    if max_bytes is None:
        settings.reset("cache_max_bytes")
    else:
        settings.set(cache_max_bytes=max_bytes)
    return active_disk_cache()


def active_disk_cache() -> Optional[DiskCache]:
    """The process-wide disk tier, or None when disabled.  Re-resolves
    the settings on every call, so tests (and long-lived services) can
    repoint or disable the tier without restarting."""
    global _active
    root = settings.get("cache_dir")
    if root is None:
        _active = None
        return None
    max_bytes = settings.get("cache_max_bytes")
    if _active is None or str(_active.root) != root \
            or _active.max_bytes != max_bytes:
        try:
            _active = DiskCache(root, max_bytes)
        except OSError:
            return None  # unusable directory: run without the tier
        # First activation of this (directory, bound): run the crash
        # recovery sweep so a previous process's orphans — stale temp
        # files, excess quarantine corpses, a torn journal tail — are
        # repaired before any traffic is served from the tier.
        from .recovery import sweep_on_activation
        sweep_on_activation(_active)
    return _active
