"""Deterministic fault injection: the :class:`FaultPlan`.

Production runtimes need failure semantics you can *test*, which means
failures you can reproduce.  A ``FaultPlan`` is an explicit, seeded
description of which faults fire where.  ``FAULT_KINDS`` lists the kinds with the site fields each is addressed
by: a simulated MPI rank that crashes or hangs, a message dropped or
corrupted on one link, a damaged compile-cache entry, a stalled
pipeline stage (to blow a request's
:class:`~repro.driver.resilience.Deadline` inside it), a disk-tier
``OSError``, and a refused batch pool dispatch (to exercise retry and
trip the :class:`~repro.driver.resilience.CircuitBreaker`).  Each
builder method below documents its own.

Sites are exact: a field left as ``None`` is a wildcard, anything else
must match the coordinates the runtime presents at the injection
point.  Every spec fires a bounded number of ``times`` (default 1), so
a retry after an injected crash succeeds — which is exactly what the
fault-tolerance tests assert.  The plan's ``seed`` drives only the
*content* of corruptions (which bytes flip), never *whether* a fault
fires, so a plan replays identically run after run.

Activation is process-global::

    from repro.faults import FaultPlan, injected

    plan = FaultPlan(seed=7).refuse_pool(op="batch")
    with injected(plan):
        kernels = compile_batch(functions)  # one offload refused, retried
    assert plan.fired("pool-refusal") == 1

The runtimes read the plan at each injection point through
:func:`repro.driver.resilience.active_fault_plan`, which looks this
module up in ``sys.modules`` (no plan can be active before it is
loaded), so a process that never imports it never loads it, and with
no plan installed every probe is a cheap ``None`` check.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

#: The fault kinds a plan can carry, with the site fields each accepts.
FAULT_KINDS: Dict[str, Tuple[str, ...]] = {
    "rank-crash": ("rank", "index"),
    "rank-hang": ("rank", "index"),
    "message-drop": ("src", "dst", "message", "index"),
    "message-corrupt": ("src", "dst", "message", "index"),
    "cache-corrupt": ("key", "index"),
    "slow-stage": ("stage", "index"),
    "disk-io-error": ("op", "key", "index"),
    "pool-refusal": ("op", "index"),
}


@dataclass
class FaultSpec:
    """One addressable fault: fire ``kind`` at every site matching
    ``site`` (``None`` fields are wildcards), at most ``times`` times."""

    kind: str
    site: Dict[str, object]
    times: int = 1
    payload: Dict[str, object] = field(default_factory=dict)
    fired: int = 0

    def matches(self, coords: Dict[str, object]) -> bool:
        if self.fired >= self.times:
            return False
        for name, want in self.site.items():
            if want is None:
                continue
            got = coords.get(name)
            if name == "key":
                # Fingerprints are long hex strings; a prefix addresses
                # an entry without spelling out all 64 characters.
                if not (isinstance(got, str)
                        and got.startswith(str(want))):
                    return False
            elif got != want:
                return False
        return True


class FaultPlan:
    """A seeded, deterministic set of :class:`FaultSpec` sites.

    Builder methods chain (each returns ``self``).  Matching is
    first-spec-wins in insertion order.  ``fires`` both matches and
    consumes; ``log`` records every fault that actually fired, with the
    coordinates it fired at, for post-run assertions.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.specs: List[FaultSpec] = []
        self.log: List[Tuple[str, Dict[str, object]]] = []
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()

    # -- builders ---------------------------------------------------------

    def _add(self, kind: str, site: Dict[str, object], times: int,
             payload: Optional[Dict[str, object]] = None) -> "FaultPlan":
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; valid kinds: "
                             f"{', '.join(sorted(FAULT_KINDS))}")
        if not isinstance(times, int) or times < 1:
            raise ValueError(f"times must be a positive int, got {times!r}")
        unknown = set(site) - set(FAULT_KINDS[kind])
        if unknown:
            raise ValueError(f"fault {kind!r} has no site field(s) "
                             f"{sorted(unknown)}; valid fields: "
                             f"{', '.join(FAULT_KINDS[kind])}")
        self.specs.append(FaultSpec(kind, dict(site), times, payload or {}))
        return self

    def crash_rank(self, rank: int, times: int = 1) -> "FaultPlan":
        """Make simulated rank ``rank`` raise on entry."""
        return self._add("rank-crash", {"rank": int(rank)}, times)

    def hang_rank(self, rank: int, seconds: float = 30.0,
                  times: int = 1) -> "FaultPlan":
        """Stall rank ``rank`` for ``seconds`` before it runs."""
        return self._add("rank-hang", {"rank": int(rank)}, times,
                         {"seconds": float(seconds)})

    def drop_message(self, src=None, dst=None, message=None,
                     times: int = 1) -> "FaultPlan":
        """Lose message number ``message`` on link ``src -> dst`` (the
        counter is per link, starting at 0)."""
        return self._add("message-drop",
                         {"src": src, "dst": dst, "message": message}, times)

    def corrupt_message(self, src=None, dst=None, message=None,
                        times: int = 1) -> "FaultPlan":
        """Flip seeded-random payload bytes of one message in flight."""
        return self._add("message-corrupt",
                         {"src": src, "dst": dst, "message": message}, times)

    def corrupt_cache(self, key=None, index=None,
                      times: int = 1) -> "FaultPlan":
        """Damage a compile-cache entry's stored source: by fingerprint
        prefix ``key``, or by ``index`` (the n-th probe of an existing
        entry)."""
        return self._add("cache-corrupt", {"key": key, "index": index},
                         times)

    def slow_stage(self, stage=None, seconds: float = 0.05,
                   times: int = 1) -> "FaultPlan":
        """Stall compile-pipeline stage ``stage`` (None = the next
        guarded stage) for ``seconds`` before it runs — long enough and
        the request's deadline expires *inside* the stage, so the next
        guard fails it fast."""
        return self._add("slow-stage", {"stage": stage}, times,
                         {"seconds": float(seconds)})

    def disk_io_error(self, op=None, key=None, err: int = 0,
                      times: int = 1) -> "FaultPlan":
        """Make the disk artifact tier raise ``OSError`` at ``op``
        (``"store"`` / ``"load"``, None = either).  ``err`` is the
        errno (0 picks the natural one per op: ENOSPC for a store,
        EIO for a load)."""
        return self._add("disk-io-error", {"op": op, "key": key}, times,
                         {"errno": int(err)})

    def refuse_pool(self, op=None, times: int = 1) -> "FaultPlan":
        """Fail a batch compile offload as if the pool died (``op`` is
        ``"batch"`` or None; anything else raises ``ValueError``).  The
        real pool is untouched; ``BatchCompiler.supervise`` treats the
        refusal exactly like ``BrokenProcessPool``."""
        if op not in (None, "batch"):
            raise ValueError(
                f"no dispatch site has op {op!r}; valid ops: batch")
        return self._add("pool-refusal", {"op": op}, times)

    # -- matching ---------------------------------------------------------

    def fires(self, kind: str, **coords) -> Optional[FaultSpec]:
        """Consume and return the first live spec matching ``coords``
        (or None).  Adds an automatic ``index`` coordinate counting
        probes of this kind, so sites can address "the n-th occurrence"
        without knowing its other coordinates."""
        hit: Optional[FaultSpec] = None
        with self._lock:
            idx = self._counts.get(kind, 0)
            self._counts[kind] = idx + 1
            coords.setdefault("index", idx)
            for spec in self.specs:
                if spec.kind == kind and spec.matches(coords):
                    spec.fired += 1
                    self.log.append((kind, dict(coords)))
                    hit = spec
                    break
        if hit is not None:
            # Journal outside the lock: emit serializes and writes, and
            # runtimes probe fires() on hot paths.
            from repro.obs.events import emit
            emit("fault.injected", kind=kind,
                 site={k: v for k, v in coords.items() if v is not None})
        return hit

    def fired(self, kind: Optional[str] = None) -> int:
        """How many faults actually fired (optionally of one kind)."""
        with self._lock:
            if kind is None:
                return len(self.log)
            return sum(1 for k, _ in self.log if k == kind)

    # -- seeded corruption payloads ---------------------------------------

    def rng(self, kind: str, **coords) -> np.random.Generator:
        """A generator derived from (seed, kind, site) — the same site
        always corrupts the same way."""
        token = f"{self.seed}:{kind}:" + ",".join(
            f"{k}={coords[k]!r}" for k in sorted(coords))
        digest = hashlib.sha256(token.encode()).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    def corrupt_array(self, arr: np.ndarray, kind: str, **coords) -> None:
        """XOR seeded-random nonzero bytes into ``arr`` in place."""
        rng = self.rng(kind, **coords)
        flat = arr.reshape(-1).view(np.uint8)
        if flat.size:
            flat ^= rng.integers(1, 256, size=flat.size, dtype=np.uint8)

    def corrupt_text(self, text: str, kind: str, **coords) -> str:
        """Return ``text`` with one seeded-random character damaged."""
        if not text:
            return "\x00"
        rng = self.rng(kind, **coords)
        pos = int(rng.integers(0, len(text)))
        flipped = chr((ord(text[pos]) ^ 0x20) or 0x01)
        return text[:pos] + flipped + text[pos + 1:]

    def __repr__(self) -> str:
        kinds = ",".join(s.kind for s in self.specs) or "empty"
        return f"FaultPlan(seed={self.seed}, specs=[{kinds}])"


# -- process-global activation ------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Make ``plan`` the active plan; returns the previous one."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, plan
    return previous


def uninstall() -> None:
    """Deactivate fault injection."""
    install(None)


def get_plan() -> Optional[FaultPlan]:
    """The active plan the runtimes consult, or None."""
    return _ACTIVE


@contextmanager
def injected(plan: FaultPlan):
    """Activate ``plan`` for the duration of a ``with`` block."""
    previous = install(plan)
    try:
        yield plan
    finally:
        install(previous)
