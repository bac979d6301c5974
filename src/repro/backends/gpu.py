"""The GPU backend: functional simulation of the CUDA target.

No GPU is available in this environment, so the backend *simulates* the
paper's CUDA backend (DESIGN.md, substitution table): the generated code
executes the exact Layer IV program — block/thread loops, host<->device
copies, shared/local/constant staging buffers, barriers — sequentially
on the CPU, which preserves semantics because a legal GPU schedule has no
cross-thread ordering requirements other than barriers (which delimit the
copy/compute phases that the sequential order already respects).

Timing behaviour (coalescing, shared-memory reuse, thread divergence,
constant cache, transfer cost) is modelled analytically by
:mod:`repro.machine.gpu_model` from the same AST, and reported through
:meth:`GpuKernel.gpu_stats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.codegen.ast import Loop, Stmt, loops_in, stmts_in, walk
from repro.core.buffer import ArgKind, Buffer, MemSpace
from repro.core.computation import Operation
from repro.core.errors import CodegenError
from repro.core.function import Function

from repro.driver.registry import Backend, register_backend

from .common import bind_python_kernel, collect_buffers
from .cpu import CompiledKernel, emit_source


@dataclass
class GpuLaunchInfo:
    """Static structure of the generated GPU code (for the cost model
    and for tests asserting the mapping)."""

    block_dims: List[str] = field(default_factory=list)
    thread_dims: List[str] = field(default_factory=list)
    shared_buffers: List[Buffer] = field(default_factory=list)
    local_buffers: List[Buffer] = field(default_factory=list)
    constant_buffers: List[Buffer] = field(default_factory=list)
    global_buffers: List[Buffer] = field(default_factory=list)
    h2d_copies: int = 0
    d2h_copies: int = 0
    has_barriers: bool = False


class GpuKernel(CompiledKernel):
    """A compiled kernel for the (simulated) GPU target."""

    def __init__(self, *args, launch_info: GpuLaunchInfo, **kwargs):
        super().__init__(*args, **kwargs)
        self.launch_info = launch_info

    def gpu_stats(self) -> GpuLaunchInfo:
        return self.launch_info


def _launch_info(fn: Function, ast=None) -> GpuLaunchInfo:
    info = GpuLaunchInfo()
    if ast is None:
        ast = fn.lower()
    for loop in loops_in(ast):
        if loop.tag is None:
            continue
        if loop.tag.kind == "gpu_block":
            info.block_dims.append(loop.var)
        elif loop.tag.kind == "gpu_thread":
            info.thread_dims.append(loop.var)
    for buf in collect_buffers(fn):
        space = buf.mem_space
        if space == MemSpace.GPU_SHARED:
            info.shared_buffers.append(buf)
        elif space == MemSpace.GPU_LOCAL:
            info.local_buffers.append(buf)
        elif space == MemSpace.GPU_CONSTANT:
            info.constant_buffers.append(buf)
        elif space == MemSpace.GPU_GLOBAL:
            info.global_buffers.append(buf)
    for comp in fn.active_computations():
        if isinstance(comp, Operation):
            if comp.payload.get("direction") == "h2d":
                info.h2d_copies += 1
            elif comp.payload.get("direction") == "d2h":
                info.d2h_copies += 1
            elif comp.op_kind == "barrier":
                info.has_barriers = True
    return info


def validate_gpu_mapping(fn: Function, ast=None) -> None:
    """Every computation inside the device region must have gpu tags, and
    block dims must be outside thread dims."""
    if ast is None:
        ast = fn.lower()

    def check(node, seen_thread):
        if isinstance(node, Loop):
            if node.tag is not None and node.tag.kind == "gpu_block" \
                    and seen_thread:
                raise CodegenError(
                    "gpu_block loop nested inside a gpu_thread loop")
            seen_thread = seen_thread or (
                node.tag is not None and node.tag.kind == "gpu_thread")
            for child in node.body.children:
                check(child, seen_thread)
        elif hasattr(node, "children"):
            for child in node.children:
                check(child, seen_thread)

    check(ast, False)


@register_backend
class GpuBackend(Backend):
    """The simulated CUDA target: mapping validation + launch-info
    extraction during emit, exec binding."""

    name = "gpu"

    def emit(self, ctx) -> str:
        validate_gpu_mapping(ctx.fn, ctx.ast)
        ctx.extras["launch_info"] = _launch_info(ctx.fn, ctx.ast)
        return emit_source(ctx.fn, ast=ctx.ast,
                           lanes_verified=ctx.lanes_verified)

    def bind(self, ctx) -> GpuKernel:
        pyfunc = bind_python_kernel(ctx.fn, ctx.source, "tiramisu-gpu")
        return GpuKernel(ctx.fn, ctx.source, pyfunc,
                         collect_buffers(ctx.fn), ctx.fn.param_names,
                         launch_info=ctx.extras["launch_info"])
