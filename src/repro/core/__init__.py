"""The Tiramisu embedded DSL: functions, computations, buffers, vars."""

from .buffer import ArgKind, Buffer, MemSpace
from .communication import (ASYNC, SYNC, allocate_at, barrier_at, cache_at,
                            copy_at, device_to_host, host_to_device, receive,
                            send)
from .computation import (Computation, ConstantScalar, Input, Operation)
from .deps import (Dependence, DependenceSummary, carried_at_level,
                   check_schedule_legality, compute_dependences,
                   dependence_distance)
from .dump import dump_ir
from .separate import separate
from .errors import (CodegenError, ExecutionError, IllegalScheduleError,
                     ScheduleError, TiramisuError, UnsupportedScheduleError)
from .function import Function, current_function
from .var import Param, Var

__all__ = [
    "Dependence", "DependenceSummary", "carried_at_level",
    "check_schedule_legality",
    "compute_dependences", "dependence_distance", "dump_ir", "separate",
    "ASYNC", "SYNC", "allocate_at", "barrier_at", "cache_at", "copy_at",
    "device_to_host", "host_to_device", "receive", "send",
    "ArgKind", "Buffer", "MemSpace", "Computation", "ConstantScalar",
    "Input", "Operation", "CodegenError", "ExecutionError",
    "IllegalScheduleError", "ScheduleError", "TiramisuError",
    "UnsupportedScheduleError", "Function", "current_function", "Param",
    "Var",
]
