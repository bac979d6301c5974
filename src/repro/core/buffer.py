"""Buffers: the concrete storage objects of Layer III.

A buffer has a shape (integers or affine expressions over parameters), an
element type, an argument kind (input / output / temporary), and a memory
tag placing it in a level of the memory hierarchy (the paper's
``tag_gpu_global`` / ``tag_gpu_shared`` / ``tag_gpu_local`` /
``tag_gpu_constant`` commands).
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional, Sequence

import numpy as np

from repro.ir import types as T
from repro.ir.expr import Expr, wrap


class ArgKind(Enum):
    INPUT = "input"
    OUTPUT = "output"
    INOUT = "inout"
    TEMPORARY = "temporary"


class MemSpace(Enum):
    HOST = "host"
    GPU_GLOBAL = "gpu_global"
    GPU_SHARED = "gpu_shared"
    GPU_LOCAL = "gpu_local"
    GPU_CONSTANT = "gpu_constant"


class Buffer:
    """A named multi-dimensional array.

    A buffer with an ``owner`` is the computation's auto-created one
    (``C.buffer()``): its extents are the owner's, derived on first use
    and again whenever the owner's domain or store indices have been
    replaced since, so they are a function of what the fingerprint
    already hashes.  Setting ``sizes`` makes them explicit."""

    def __init__(self, name: str, sizes: Sequence, dtype=T.float32,
                 kind: ArgKind = ArgKind.TEMPORARY, owner=None):
        self.name = name
        self.sizes = sizes
        self.owner = owner
        self._basis = None
        self.dtype = dtype
        self.kind = kind
        self.mem_space = MemSpace.HOST

    @property
    def sizes(self) -> List[Expr]:
        owner = self.owner
        if owner is not None and (
                self._basis is None or self._basis[0] is not owner.domain
                or self._basis[1] is not owner.store_exprs):
            self._sizes = owner._extent_exprs()
            self._basis = (owner.domain, owner.store_exprs)
        return self._sizes

    @sizes.setter
    def sizes(self, sizes: Sequence) -> None:
        self._sizes = [wrap(s) for s in sizes]
        self.owner = None

    # -- memory hierarchy tags (paper Table II) ------------------------

    def tag_gpu_global(self) -> "Buffer":
        self.mem_space = MemSpace.GPU_GLOBAL
        return self

    def tag_gpu_shared(self) -> "Buffer":
        self.mem_space = MemSpace.GPU_SHARED
        return self

    def tag_gpu_local(self) -> "Buffer":
        self.mem_space = MemSpace.GPU_LOCAL
        return self

    def tag_gpu_constant(self) -> "Buffer":
        self.mem_space = MemSpace.GPU_CONSTANT
        return self

    def set_size(self, sizes: Sequence) -> "Buffer":
        self.sizes = sizes
        return self

    # -- runtime ---------------------------------------------------------

    def concrete_shape(self, param_values) -> tuple:
        from repro.backends.evalexpr import eval_const_expr
        return tuple(int(eval_const_expr(s, param_values))
                     for s in self.sizes)

    def allocate(self, param_values, fill: bool = True) -> np.ndarray:
        """A new array of the buffer's shape at ``param_values``: zeros,
        or (``fill=False``, for a buffer nothing reads before it is
        stored, :func:`repro.backends.common.unfilled_buffers`) whatever
        the allocator hands back."""
        return (np.zeros if fill else np.empty)(
            self.concrete_shape(param_values), dtype=self.dtype.to_numpy())

    def __repr__(self):
        dims = ", ".join(repr(s) for s in self.sizes)
        return f"Buffer({self.name}[{dims}], {self.dtype}, {self.kind.value})"
