"""Native C backend: Layer IV -> C99 + OpenMP -> shared object.

The closest thing in this environment to the paper's LLVM backend: the
polyhedral AST is emitted as C, compiled with ``gcc -O3 -march=native
-fopenmp``, loaded through ctypes, and called on NumPy arrays.  Loops
tagged ``parallel`` become ``#pragma omp parallel for`` (real threads),
``vector`` becomes ``#pragma omp simd`` (real SIMD), ``unroll`` becomes
``#pragma GCC unroll``.

CPU-only: GPU memory-space features and send/receive are not lowered
here (use the gpu/distributed backends).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.codegen.ast import Block, Loop, Stmt
from repro.codegen.pyemit import lin_to_py
from repro.core.buffer import ArgKind, Buffer
from repro.core.computation import Operation
from repro.core.errors import CodegenError, ExecutionError
from repro.core.function import Function
from repro.ir.expr import (Access, BinOp, BufferRead, Call, Cast, Const,
                           Expr, IterVar, ParamRef, Select, UnOp)
from repro.isl import Constraint, LinExpr
from repro.isl.constraint import EQ
from repro.isl.linexpr import OUT, PARAM

from repro.driver.registry import Backend, register_backend

from .common import collect_buffers, infer_argument_kinds

_C_PRELUDE = """\
#include <stdint.h>
#include <math.h>

static inline int64_t imax(int64_t a, int64_t b) { return a > b ? a : b; }
static inline int64_t imin(int64_t a, int64_t b) { return a < b ? a : b; }
static inline int64_t icdiv(int64_t a, int64_t b) {
    int64_t q = a / b, r = a % b;
    return q + ((r != 0) && ((r > 0) == (b > 0)));
}
static inline int64_t ifdiv(int64_t a, int64_t b) {
    int64_t q = a / b, r = a % b;
    return q - ((r != 0) && ((r < 0) != (b < 0)));
}
static inline double dmin(double a, double b) { return a < b ? a : b; }
static inline double dmax(double a, double b) { return a > b ? a : b; }
static inline double dclamp(double v, double lo, double hi)
    { return v < lo ? lo : (v > hi ? hi : v); }
static inline int64_t iclamp(int64_t v, int64_t lo, int64_t hi)
    { return v < lo ? lo : (v > hi ? hi : v); }
"""

_CTYPE = {
    "float32": "float", "float64": "double",
    "int8": "int8_t", "int16": "int16_t", "int32": "int32_t",
    "int64": "int64_t", "uint8": "uint8_t", "uint16": "uint16_t",
    "uint32": "uint32_t", "uint64": "uint64_t", "bool": "uint8_t",
}


def _lin_to_c(le: LinExpr, params: Sequence[str]) -> str:
    # The Python renderer's syntax is valid C for pure affine forms.
    return lin_to_py(le, params)


class CEmitter:
    def __init__(self, fn: Function):
        self.fn = fn
        self.params = list(fn.param_names)
        self.lines: List[str] = []
        self.indent = 1
        self.current_comp = None

    def line(self, text: str = "") -> None:
        self.lines.append("    " * self.indent + text)

    # -- bounds ----------------------------------------------------------

    def bound_c(self, bound, is_lower: bool) -> str:
        a, e = bound
        es = _lin_to_c(e, self.params)
        if a == 1:
            return f"({es})"
        return f"icdiv({es}, {a})" if is_lower else f"ifdiv({es}, {a})"

    def bounds_c(self, groups, is_lower: bool) -> str:
        inner_fn = "imax" if is_lower else "imin"
        outer_fn = "imin" if is_lower else "imax"

        def fold(fn_name, items):
            out = items[0]
            for nxt in items[1:]:
                out = f"{fn_name}({out}, {nxt})"
            return out

        groups_c = [fold(inner_fn, [self.bound_c(b, is_lower) for b in g])
                    for g in groups]
        return fold(outer_fn, groups_c)

    # -- expressions ------------------------------------------------------

    def expr_c(self, expr: Expr, env: Dict[str, str],
               float_div: bool) -> str:
        if isinstance(expr, Const):
            if isinstance(expr.value, bool):
                return "1" if expr.value else "0"
            if isinstance(expr.value, float):
                return f"{expr.value!r}"
            return str(expr.value)
        if isinstance(expr, IterVar):
            if expr.name not in env:
                raise CodegenError(f"unbound iterator {expr.name!r}")
            return env[expr.name]
        if isinstance(expr, ParamRef):
            if expr.name in env:
                return env[expr.name]
            if expr.name in self.params:
                return expr.name
            raise CodegenError(f"unknown parameter {expr.name!r}")
        if isinstance(expr, BinOp):
            lhs = self.expr_c(expr.lhs, env, float_div)
            rhs = self.expr_c(expr.rhs, env, float_div)
            op = expr.op
            if op == "//":
                return f"ifdiv({lhs}, {rhs})"
            if op == "/" and not float_div:
                return f"ifdiv((int64_t)({lhs}), (int64_t)({rhs}))"
            if op == "%":
                return f"(((({lhs}) % ({rhs})) + ({rhs})) % ({rhs}))"
            if op == "and":
                op = "&&"
            elif op == "or":
                op = "||"
            return f"(({lhs}) {op} ({rhs}))"
        if isinstance(expr, UnOp):
            return f"(-({self.expr_c(expr.operand, env, float_div)}))"
        if isinstance(expr, Select):
            c = self.expr_c(expr.cond, env, float_div)
            t = self.expr_c(expr.if_true, env, float_div)
            f = self.expr_c(expr.if_false, env, float_div)
            return f"(({c}) ? ({t}) : ({f}))"
        if isinstance(expr, Cast):
            v = self.expr_c(expr.operand, env, float_div)
            return f"(({_CTYPE[expr.dtype.np_dtype]})({v}))"
        if isinstance(expr, Call):
            args = [self.expr_c(a, env, float_div) for a in expr.args]
            table = {"min": "dmin", "max": "dmax", "abs": "fabs",
                     "sqrt": "sqrt", "exp": "exp", "log": "log",
                     "floor": "floor", "pow": "pow", "clamp": "dclamp"}
            if expr.fn in table:
                return f"{table[expr.fn]}({', '.join(args)})"
            raise CodegenError(f"unknown intrinsic {expr.fn!r}")
        if isinstance(expr, Access):
            return self._access_c(expr, env, float_div)
        if isinstance(expr, BufferRead):
            idx = [self.expr_c(e, env, float_div) for e in expr.indices]
            return self._indexed(expr.buffer, idx)
        raise CodegenError(f"cannot emit {expr!r} as C")

    def _access_c(self, access: Access, env, float_div) -> str:
        producer = access.computation
        idx_strs = [f"(int64_t)({self.expr_c(e, env, float_div)})"
                    for e in access.indices]
        env_q = {nm: s for nm, s in zip(producer.var_names, idx_strs)}
        if producer.inlined:
            return "(" + self.expr_c(producer.expr, env_q,
                                     producer.dtype.is_float) + ")"
        if producer.cached_store is not None or (
                self.current_comp is not None
                and producer.name in self.current_comp.cached_reads):
            raise CodegenError(
                "GPU shared-memory caches are not lowered by the C "
                "backend; use the gpu backend")
        out = [self.expr_c(e, env_q, False)
               for e in producer.store_indices()]
        return self._indexed(producer.get_buffer(), out)

    def _indexed(self, buffer: Buffer, idx: List[str]) -> str:
        flat = idx[0]
        for k in range(1, len(idx)):
            flat = f"({flat}) * {buffer.name}_dim{k} + ({idx[k]})"
        return f"{buffer.name}[{flat}]"

    # -- statements -----------------------------------------------------------

    def stmt_env(self, comp) -> Dict[str, str]:
        return {nm: f"({_lin_to_c(le, self.params)})"
                for nm, le in comp.rev.items()}

    def emit_block(self, block: Block) -> None:
        for child in block.children:
            if isinstance(child, Loop):
                self.emit_loop(child)
            elif isinstance(child, Stmt):
                self.emit_stmt(child)
            elif isinstance(child, Block):
                self.emit_block(child)

    def emit_loop(self, loop: Loop) -> None:
        lo = self.bounds_c(loop.lowers, True)
        hi = self.bounds_c(loop.uppers, False)
        var = f"t{loop.level}"
        if loop.tag is not None:
            if loop.tag.kind == "parallel":
                self.line("#pragma omp parallel for")
            elif loop.tag.kind == "vector":
                self.line("#pragma omp simd")
            elif loop.tag.kind == "unroll":
                self.line(f"#pragma GCC unroll {loop.tag.factor or 4}")
            elif loop.tag.kind in ("gpu_block", "gpu_thread",
                                   "distributed"):
                raise CodegenError(
                    f"{loop.tag.kind} loops are not lowered by the C "
                    "backend")
        self.line(f"for (int64_t {var} = {lo}; {var} <= {hi}; "
                  f"{var}++) {{")
        self.indent += 1
        self.emit_block(loop.body)
        self.indent -= 1
        self.line("}")

    def emit_stmt(self, stmt: Stmt) -> None:
        comp = stmt.comp
        self.current_comp = comp
        closes = 0
        env = self.stmt_env(comp)
        for guard in stmt.guards:
            es = _lin_to_c(guard.expr, self.params)
            op = "==" if guard.kind == EQ else ">="
            self.line(f"if (({es}) {op} 0) {{")
            self.indent += 1
            closes += 1
        if comp.predicate is not None:
            pred = self.expr_c(comp.predicate, env, comp.dtype.is_float)
            self.line(f"if ({pred}) {{")
            self.indent += 1
            closes += 1
        if isinstance(comp, Operation):
            self._emit_operation(comp, env)
        else:
            from repro.ir.fold import fold
            idx = [f"(int64_t)({self.expr_c(e, env, False)})"
                   for e in comp.store_indices()]
            target = self._indexed(comp.get_buffer(), idx)
            rhs = self.expr_c(fold(comp.expr), env, comp.dtype.is_float)
            ctype = _CTYPE[comp.dtype.np_dtype]
            self.line(f"{target} = ({ctype})({rhs});")
        for __ in range(closes):
            self.indent -= 1
            self.line("}")

    def _emit_operation(self, op: Operation, env) -> None:
        if op.op_kind == "barrier":
            self.line("; /* barrier */")
            return
        if op.op_kind == "allocate":
            self.line("; /* allocation handled by the caller */")
            return
        raise CodegenError(
            f"operation {op.op_kind!r} is not lowered by the C backend")


def emit_c_source(fn: Function, ast=None) -> str:
    if ast is None:
        infer_argument_kinds(fn)
        ast = fn.lower()
    buffers = collect_buffers(fn)
    emitter = CEmitter(fn)
    args = []
    for buf in buffers:
        args.append(f"{_CTYPE[buf.dtype.np_dtype]}* restrict {buf.name}")
    for p in fn.param_names:
        args.append(f"int64_t {p}")
    for buf in buffers:
        for k in range(1, len(buf.sizes)):
            args.append(f"int64_t {buf.name}_dim{k}")
    emitter.emit_block(ast)
    body = "\n".join(emitter.lines)
    return (f"{_C_PRELUDE}\n"
            f"void kernel({', '.join(args)}) {{\n{body}\n}}\n")


class NativeKernel:
    """A gcc-compiled Tiramisu function callable on NumPy arrays."""

    def __init__(self, fn: Function, source: str, lib_path: str,
                 buffers: List[Buffer]):
        self.fn = fn
        self.source = source
        self.buffers = buffers
        self.param_names = list(fn.param_names)
        self._lib = ctypes.CDLL(lib_path)
        self._lib.kernel.restype = None

    def __call__(self, **kwargs):
        params = {}
        for p in self.param_names:
            if p not in kwargs:
                raise ExecutionError(f"missing parameter {p!r}")
            params[p] = int(kwargs.pop(p))
        arrays: Dict[str, np.ndarray] = {}
        outputs: Dict[str, np.ndarray] = {}
        for buf in self.buffers:
            if buf.kind in (ArgKind.INPUT, ArgKind.INOUT):
                if buf.name not in kwargs:
                    raise ExecutionError(f"missing buffer {buf.name!r}")
                arr = np.ascontiguousarray(
                    kwargs.pop(buf.name),
                    dtype=buf.dtype.to_numpy())
                arrays[buf.name] = arr
                if buf.kind == ArgKind.INOUT:
                    outputs[buf.name] = arr
            elif buf.kind == ArgKind.OUTPUT:
                arr = kwargs.pop(buf.name, None)
                if arr is None:
                    arr = buf.allocate(params)
                arrays[buf.name] = np.ascontiguousarray(arr)
                outputs[buf.name] = arrays[buf.name]
            else:
                arrays[buf.name] = buf.allocate(params)
        if kwargs:
            raise ExecutionError(f"unknown arguments: {sorted(kwargs)}")
        c_args = []
        for buf in self.buffers:
            c_args.append(arrays[buf.name].ctypes.data_as(
                ctypes.c_void_p))
        for p in self.param_names:
            c_args.append(ctypes.c_int64(params[p]))
        for buf in self.buffers:
            shape = arrays[buf.name].shape
            for k in range(1, len(buf.sizes)):
                c_args.append(ctypes.c_int64(shape[k]))
        self._lib.kernel(*c_args)
        return outputs


_cc_checked: Optional[bool] = None


def have_c_compiler() -> bool:
    global _cc_checked
    if _cc_checked is None:
        try:
            subprocess.run(["gcc", "--version"], capture_output=True,
                           check=True)
            _cc_checked = True
        except (OSError, subprocess.CalledProcessError):
            _cc_checked = False
    return _cc_checked


def build_shared_object(source: str, extra_flags: Sequence[str] = ()) -> str:
    """gcc-compile C source to a (content-addressed, reused) .so; returns
    its path.  The address covers the flags too — the same source built
    with different ``extra_flags`` is a different binary — and the .so is
    built under a temporary name and renamed into place, so a concurrent
    ``dlopen`` of the published path never sees a partial file."""
    flags = list(extra_flags)
    digest = hashlib.sha1(
        "\0".join([source] + flags).encode()).hexdigest()[:16]
    workdir = os.path.join(tempfile.gettempdir(), "tiramisu_c")
    os.makedirs(workdir, exist_ok=True)
    so_path = os.path.join(workdir, f"k_{digest}.so")
    if os.path.exists(so_path):
        return so_path
    fd, tmp_path = tempfile.mkstemp(dir=workdir, prefix=f"k_{digest}.",
                                    suffix=".so")
    os.close(fd)
    try:
        cmd = ["gcc", "-O3", "-march=native", "-fopenmp", "-shared",
               "-fPIC", "-lm", "-x", "c", "-", "-x", "none",
               "-o", tmp_path] + flags
        result = subprocess.run(cmd, input=source, capture_output=True,
                                text=True)
        if result.returncode != 0:
            raise CodegenError(
                f"gcc failed:\n{result.stderr}\n--- source ---\n{source}")
        os.replace(tmp_path, so_path)
    finally:
        try:
            os.unlink(tmp_path)
        except FileNotFoundError:
            pass
    return so_path


@register_backend
class CBackend(Backend):
    """The native target: C99 + OpenMP emission, gcc + ctypes binding."""

    name = "c"
    extra_options = {"extra_flags": ()}
    # bind() recompiles ctx.source with gcc; nothing emit-time survives
    # it, so stored source is a complete artifact.
    bind_from_source = True

    def emit(self, ctx) -> str:
        if not have_c_compiler():
            raise ExecutionError("no C compiler available")
        return emit_c_source(ctx.fn, ast=ctx.ast)

    def bind(self, ctx) -> NativeKernel:
        so_path = build_shared_object(ctx.source,
                                      ctx.opt("extra_flags", ()))
        return NativeKernel(ctx.fn, ctx.source, so_path,
                            collect_buffers(ctx.fn))
