"""The staged compiler driver (the paper's single codegen entry point).

`tiramisu::function` drives lowering through the four IR layers behind
one call; this package reproduces that shape for the Python
reproduction.  A :class:`CompilePipeline` runs explicit named stages
(ensure-params -> legality -> beta-resolution -> time-space -> ast ->
emit -> bind) over a :class:`CompileContext`, resolves targets through
the :class:`Backend` registry, skips straight to a cached kernel when
the function's :func:`ir_fingerprint` is unchanged, and attaches a
per-stage :class:`CompileReport` to every kernel (the ``trace`` knob
of :mod:`repro.settings` prints the stage table).

The service around it — the batch front end (:mod:`.batch`, loaded at
the first use of one of its names, so a sequential compile never
imports ``multiprocessing``), the disk tier (:mod:`.diskcache`), the
shared stats vocabulary (:mod:`.stats`), deadlines and the pool breaker
(:mod:`.resilience`) and the crash-recovery sweep (:mod:`.recovery`) —
is described in docs/compiler_driver.md and docs/robustness.md.
"""

from .cache import CacheEntry, CompileCache, kernel_registry
from .context import CompileContext
from .diskcache import DiskCache, DiskEntry, active_disk_cache
from .diskcache import configure as configure_disk_cache
from .fingerprint import ir_fingerprint
from .pipeline import (BASE_OPTIONS, CompilePipeline, compile_function,
                       compile_to_source)
from .recovery import RecoveryReport
from .recovery import sweep as recovery_sweep
from .registry import (Backend, UnknownTargetError, get_backend,
                       register_backend, registered_targets)
from .resilience import (CircuitBreaker, Deadline, current_deadline,
                         deadline_scope, pool_breaker,
                         reset_pool_breaker)
from .stats import CacheStats, CacheStatsGroup
from .trace import CompileReport, StageTiming, emit_trace


def __getattr__(name):
    if name in ("BatchCompiler", "BatchStats", "CompileHandle",
                "CompileRequest", "compile_batch"):
        from . import batch
        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BASE_OPTIONS",
    "Backend",
    "BatchCompiler",
    "BatchStats",
    "CacheEntry",
    "CacheStats",
    "CacheStatsGroup",
    "CircuitBreaker",
    "CompileCache",
    "CompileContext",
    "CompileHandle",
    "CompilePipeline",
    "CompileReport",
    "CompileRequest",
    "Deadline",
    "DiskCache",
    "DiskEntry",
    "RecoveryReport",
    "StageTiming",
    "UnknownTargetError",
    "active_disk_cache",
    "compile_batch",
    "compile_function",
    "compile_to_source",
    "configure_disk_cache",
    "current_deadline",
    "deadline_scope",
    "emit_trace",
    "get_backend",
    "ir_fingerprint",
    "kernel_registry",
    "pool_breaker",
    "recovery_sweep",
    "register_backend",
    "registered_targets",
    "reset_pool_breaker",
]
