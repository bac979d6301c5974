"""Native C backend: Layer IV -> C99 + OpenMP -> shared object.

The closest thing in this environment to the paper's LLVM backend: the
polyhedral AST is emitted as C, compiled with ``gcc -O3 -march=native
-fopenmp -ffp-contract=off``, loaded through ctypes, and called on NumPy
arrays.  Loops tagged ``parallel`` become ``#pragma omp parallel for``
(real threads), ``unroll`` becomes ``#pragma GCC unroll``, ``vector``
becomes ``#pragma omp simd`` (real SIMD) unless the loop carries a
dependence -- over the part of its range where no clamped index clamps
(:func:`repro.codegen.lanes.clamp_free`), the border running scalar; a
``vector`` loop of a few constant trips that fill no vector register
(three channels) is left to gcc's unroller, and an untagged loop of a few
constant trips that carries no dependence and holds just the ``vector``
loop runs unrolled inside each lane (:meth:`CEmitter._jam`: the channels
of a pixel stored side by side, not at stride 3).  Strides are the
buffers' declared extents, which a call holds every array to.  A call
zero-fills only the buffers it allocates that something could see
before a statement stores them
(:func:`repro.backends.common.unfilled_buffers`, proven at the first
call).

Every node is rendered in the type :mod:`repro.ir.typing` infers for it
(index math in ``int64_t``, ``float32`` arithmetic in ``float``) and gcc
may not fuse ``a * b + c``, so one program + schedule stores the same
bits here as on ``cpu`` — ``exp``/``log``/``pow`` excepted, where libm
and NumPy differ in the last ulp.

CPU-only: GPU memory-space features and send/receive are not lowered
here (use the gpu/distributed backends).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codegen.ast import Block, Loop, Stmt
from repro.codegen.lanes import clamp_free, lane_verdict, time_index
from repro.codegen.pyemit import lin_to_py, windows_at
from repro.core.deps import DependenceSummary
from repro.core.buffer import Buffer
from repro.core.computation import Operation
from repro.core.errors import CodegenError, ExecutionError
from repro.core.function import Function
from repro.ir.affine import try_expr_to_linexpr
from repro.ir.expr import (BinOp, BufferRead, Call, Cast, Const, Expr,
                           IterVar, ParamRef, Select, UnOp)
from repro.ir.typing import COMPARISONS, Type, combine
from repro.isl import LinExpr
from repro.isl.constraint import EQ
from repro.isl.linexpr import OUT, PARAM

from repro.driver.registry import Backend, register_backend

from .common import (bind_arguments, collect_buffers, infer_argument_kinds,
                     unfilled_buffers)

_C_PRELUDE = """\
#include <stdint.h>
#include <stdlib.h>
#include <math.h>

#define MINMAX(T, min, max, clamp) \\
static inline T min(T a, T b) { return a < b ? a : b; } \\
static inline T max(T a, T b) { return a > b ? a : b; } \\
static inline T clamp(T v, T lo, T hi) \\
    { v = v < lo ? lo : v; return v > hi ? hi : v; }
MINMAX(int64_t, imin, imax, iclamp)
MINMAX(float, minf, maxf, clampf)
MINMAX(double, mind, maxd, clampd)
static inline int64_t icdiv(int64_t a, int64_t b) {
    int64_t q = a / b, r = a % b;
    return q + ((r != 0) && ((r > 0) == (b > 0)));
}
static inline int64_t ifdiv(int64_t a, int64_t b) {
    int64_t q = a / b, r = a % b;
    return q - ((r != 0) && ((r < 0) != (b < 0)));
}
static inline int64_t imod(int64_t a, int64_t b) {
    int64_t r = a % b;
    return r + ((r != 0) && ((r < 0) != (b < 0))) * b;
}
"""

_CTYPE = {
    "float32": "float", "float64": "double",
    "int8": "int8_t", "int16": "int16_t", "int32": "int32_t",
    "int64": "int64_t", "uint8": "uint8_t", "uint16": "uint16_t",
    "uint32": "uint32_t", "uint64": "uint64_t", "bool": "uint8_t",
}
_FLOATS = ("float", "double")
#: Types C computes in as they are; a narrower integer is promoted by C,
#: so its arithmetic is cast back after every operation.
_WIDE = _FLOATS + ("int64_t", "uint64_t")
#: intrinsic -> what computes it over int64_t, float, double operands
_CALLS = {
    "min": ("imin", "minf", "mind"), "max": ("imax", "maxf", "maxd"),
    "clamp": ("iclamp", "clampf", "clampd"),
    "abs": ("llabs", "fabsf", "fabs"), "sqrt": (None, "sqrtf", "sqrt"),
    "exp": (None, "expf", "exp"), "log": (None, "logf", "log"),
    "floor": ("", "floorf", "floor"), "pow": ("(int64_t)pow", "powf", "pow"),
}


def _ctype(t: Type) -> str:
    if isinstance(t, type):          # weak: a Python scalar
        return "double" if t is float else "int64_t"
    return _CTYPE[t.np_dtype]


class _C(str):
    """Rendered C.  ``t``: the type it evaluates in, ``ct`` that type in
    C; ``prec``: how tightly it binds (4 atom, 3 unary, 2
    multiplicative, 1 additive, 0 below); ``value``: the Python scalar,
    for a literal."""

    def __new__(cls, text: str, t: Type, prec: int = 4, value=None):
        self = super().__new__(cls, text)
        self.t, self.ct, self.prec, self.value = t, _ctype(t), prec, value
        return self


def _p(x: _C, prec: int) -> str:
    """``x`` as an operand that must bind at least ``prec`` tight."""
    return x if x.prec >= prec else f"({x})"


def _lin_to_c(le: LinExpr, params: Sequence[str]) -> _C:
    # The Python renderer's syntax is valid C for pure affine forms:
    # a sum, one product, a negated name, or an atom.
    text = lin_to_py(le, params)
    return _C(text, int, 1 if " " in text else 2 if "*" in text
              else 3 if text[0] == "-" else 4)


def _coerce(x: _C, want: str, other: Optional[str] = None) -> _C:
    """``x`` as an operand of an operation C must evaluate in ``want``:
    unchanged when it has that type, or when C's own conversion yields
    it — next to an operand of C type ``other``, or (None) into a
    prototype's parameter or an assignment."""
    have = x.ct
    if x.value is not None and want in _FLOATS:
        text = repr(float(x.value)) if want == "double" else \
            np.format_float_positional(np.float32(x.value), trim="0") + "f"
        return _C(text, x.t, 3 if text[0] == "-" else 4)
    if have == want or other is None or (
            other == want and (want == "double" or have not in _FLOATS)):
        return x
    return _C(f"({want}){_p(x, 3)}", x.t, 3)


class CEmitter:
    def __init__(self, fn: Function, lanes_verified: bool = False,
                 parallel: bool = True):
        self.fn = fn
        self.parallel = parallel    # False: no loop runs on a team
        self.params = list(fn.param_names)
        self.param_dims = {p: (PARAM, i) for i, p in enumerate(self.params)}
        self.lanes_verified = lanes_verified
        self.lines: List[str] = []
        self.indent = 1
        self.comp = self.store = None   # the statement being emitted

    def line(self, text: str = "") -> None:
        self.lines.append("    " * self.indent + text)

    # -- bounds ----------------------------------------------------------

    def bound_c(self, bound, is_lower: bool) -> _C:
        a, e = bound
        es = _lin_to_c(e, self.params)
        if a == 1:
            return es
        return _C(f"{'icdiv' if is_lower else 'ifdiv'}({es}, {a})", int)

    def bounds_c(self, groups, is_lower: bool) -> _C:
        inner_fn = "imax" if is_lower else "imin"
        outer_fn = "imin" if is_lower else "imax"

        def fold(fn_name, items):
            out = items[0]
            for nxt in items[1:]:
                out = _C(f"{fn_name}({out}, {nxt})", int)
            return out

        groups_c = [fold(inner_fn, [self.bound_c(b, is_lower) for b in g])
                    for g in groups]
        return fold(outer_fn, groups_c)

    # -- expressions ------------------------------------------------------

    def expr_c(self, expr: Expr, env: Dict[str, _C]) -> _C:
        """``expr``, in buffer terms (:mod:`repro.core.access`),
        rendered in its inferred type."""
        if isinstance(expr, Const):
            v = expr.value
            text = str(int(v)) if isinstance(v, (bool, int)) else repr(v)
            return _C(text, type(v), 3 if text[0] == "-" else 4, v)
        if isinstance(expr, IterVar):
            if expr.name not in env:
                raise CodegenError(f"unbound iterator {expr.name!r}")
            return env[expr.name]
        if isinstance(expr, ParamRef):
            if expr.name in env:
                return env[expr.name]
            if expr.name in self.params:
                return _C(expr.name, int)
            raise CodegenError(f"unknown parameter {expr.name!r}")
        if isinstance(expr, BinOp):
            return self._binop_c(expr.op, self.expr_c(expr.lhs, env),
                                 self.expr_c(expr.rhs, env))
        if isinstance(expr, UnOp):
            x = self.expr_c(expr.operand, env)
            rt = combine("neg", (x.t,))[1]
            ct = _ctype(rt)
            return _C(f"-{_p(x, 4)}" if ct in _WIDE else
                      f"({ct})-(uint64_t){_p(x, 4)}", rt, 3)
        if isinstance(expr, Select):
            c, t, f = (self.expr_c(e, env) for e in expr.children())
            rt = combine("select", (t.t, f.t))[1]
            return _C(f"({c} ? {_coerce(t, _ctype(rt), f.ct)} : "
                      f"{_coerce(f, _ctype(rt), t.ct)})", rt)
        if isinstance(expr, Cast):
            x = _coerce(self.expr_c(expr.operand, env),
                        _CTYPE[expr.dtype.np_dtype], "")
            return _C(x, expr.dtype, x.prec)
        if isinstance(expr, Call):
            return self._call_c(expr.fn, [self.expr_c(a, env)
                                          for a in expr.args])
        if isinstance(expr, BufferRead):
            buf, idx = expr.buffer, [self.expr_c(e, env)
                                     for e in expr.indices]
            window = self.comp.cache_of(buf, expr is self.store)
            if window:                  # rebased onto the tile window
                buf, origins = window
                idx = [self._rebased(x, le, origin) for x, le, origin in zip(
                    idx, time_index(self.comp, expr.indices), origins)]
            flat = idx[0]
            for size, x in zip(buf.sizes[1:], idx[1:]):
                flat = _C(f"{_p(flat, 2)} * {_p(self.extent_c(size), 3)} + "
                          f"{_p(x, 1)}", int, 1)
            return _C(f"{buf.name}[{flat}]", buf.dtype)
        raise CodegenError(f"cannot emit {expr!r} as C")

    def _rebased(self, index: _C, le: Optional[LinExpr],
                 origin: LinExpr) -> _C:
        """``index`` (``le`` over the time dims, if affine) less a
        window's ``origin``."""
        if le is not None:
            return _lin_to_c(le - origin, self.params)
        return _C(f"{_p(index, 1)} - {_p(_lin_to_c(origin, self.params), 2)}",
                  int, 1)

    def extent_c(self, size: Expr) -> _C:
        """A buffer extent as a stride: Layer III fixes the layout, so it
        is the declared size (``3``, ``M``), not an opaque argument."""
        le = try_expr_to_linexpr(size, self.param_dims)
        if le is None:
            return self.expr_c(size, {})
        return self.expr_c(Const(int(le.const)), {}) if le.is_constant() \
            else _lin_to_c(le, self.params)

    def _binop_c(self, op: str, lhs: _C, rhs: _C) -> _C:
        if op in ("and", "or"):
            return _C(f"{_p(lhs, 1)} {'&&' if op == 'and' else '||'} "
                      f"{_p(rhs, 1)}", combine(op, (lhs.t, rhs.t))[1], 0)
        operand, rt = combine(op, (lhs.t, rhs.t))
        ct = _ctype(operand)
        if op in ("//", "%"):
            if ct in _FLOATS:
                raise CodegenError(
                    f"{op!r} of floats is not lowered by the C backend; "
                    "write floor(a / b)")
            text = f"{'ifdiv' if op == '//' else 'imod'}({lhs}, {rhs})"
            return _C(text, rt) if ct == "int64_t" else \
                _C(f"({ct}){text}", rt, 3)
        if op not in COMPARISONS and ct not in _WIDE:
            # modular arithmetic, free of C's signed-overflow rule
            return _C(f"({ct})((uint64_t){_p(lhs, 3)} {op} {_p(rhs, 3)})",
                      rt, 3)
        a, b = _coerce(lhs, ct, rhs.ct), _coerce(rhs, ct, lhs.ct)
        if op in COMPARISONS:
            return _C(f"{_p(a, 1)} {op} {_p(b, 1)}", rt, 0)
        level = 1 if op in "+-" else 2
        return _C(f"{_p(a, level)} {op} {_p(b, level + 1)}", rt, level)

    def _call_c(self, fn: str, args: List[_C]) -> _C:
        if fn not in _CALLS:
            raise CodegenError(f"unknown intrinsic {fn!r}")
        operand, rt = combine(fn, tuple(a.t for a in args))
        ct = _ctype(operand)
        name = _CALLS[fn][_FLOATS.index(ct) + 1 if ct in _FLOATS else 0]
        return _C(f"{name}({', '.join(_coerce(a, ct) for a in args)})", rt)

    # -- statements -----------------------------------------------------------

    def stmt_env(self, comp) -> Dict[str, _C]:
        return {nm: _lin_to_c(le, self.params)
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
        jam = self._jam(loop)
        if jam is not None:
            return self.emit_simd(*jam, outer=loop)
        lo, hi = self._bounds(loop)
        kind = getattr(loop.tag, "kind", None)
        if kind == "vector":
            return self.emit_vector(loop, lo, hi)
        if kind == "parallel":
            if self.parallel:
                self.line("#pragma omp parallel for")
        elif kind == "unroll":
            self.line(f"#pragma GCC unroll {loop.tag.factor or 4}")
        elif kind is not None:
            raise CodegenError(
                f"{kind} loops are not lowered by the C backend")
        self.emit_for(loop, lo, hi)

    def emit_for(self, loop: Loop, lo: str, hi: str,
                 body: Optional[Callable[[], None]] = None,
                 skip: str = "") -> None:
        """``loop`` over ``lo..hi`` less the range ``skip``, around
        ``body`` (by default the loop's own)."""
        var = f"t{loop.level}"
        self.line(f"for (int64_t {var} = {lo}; {var} <= {hi}; "
                  f"{var}++) {{")
        self.indent += 1
        if skip:
            self.line(skip)
        for buf in windows_at(self.fn, loop):   # private to an iteration
            size = int(np.prod(buf.concrete_shape({})))
            self.line(f"{_CTYPE[buf.dtype.np_dtype]} {buf.name}[{size}];")
        if body is None:
            self.emit_block(loop.body)
        else:
            body()
        self.indent -= 1
        self.line("}")

    def emit_vector(self, loop: Loop, lo: _C, hi: _C) -> None:
        # the pragma asserts independent iterations: ask the predicate
        # the cpu backend vectorizes by
        why = lane_verdict(self.fn, loop, self.lanes_verified)
        if why is not None and why.startswith("carried"):
            self.line(f"/* vector loop ({loop.var}): scalar, {why} */")
            return self.emit_for(loop, lo, hi)
        if _register_block(loop):
            return self.emit_for(loop, lo, hi)      # gcc unrolls it whole
        self.emit_simd(loop, None if why else clamp_free(self.fn, loop))

    def emit_simd(self, loop: Loop, inside, outer: Optional[Loop] = None
                  ) -> None:
        """``loop`` under ``#pragma omp simd``, split at ``inside``, its
        :func:`~repro.codegen.lanes.clamp_free` interior, if not None;
        ``outer``, the loop around it that :meth:`_jam` chose, runs
        inside each lane (unrolled) and around the border."""
        lo, hi = self._bounds(loop)
        values = inside and inside[2]

        def statements():
            if values is None:
                return self.emit_block(loop.body)
            for stmt, value in zip(loop.body.children, values):
                self.emit_stmt(stmt, value)

        def lanes():            # what one iteration of the simd loop runs
            if outer is None:
                return statements()
            self.line(f"#pragma GCC unroll {_trips(outer)}")
            self.emit_for(outer, *self._bounds(outer), statements)
        self.line("#pragma omp simd")
        if inside is None:
            return self.emit_for(loop, lo, hi, lanes)
        # index-set splitting: the lanes where no clamp clamps load
        # contiguously; the rest of the range runs once, scalar
        first = self.bounds_c(inside[0], True)
        last = self.bounds_c(inside[1], False)
        self.emit_for(loop, first, last, lanes)
        var = f"t{loop.level}"
        self.line(f"/* border of ({loop.var}): clamps kept */")

        def border():
            self.emit_for(loop, lo, hi, skip=(
                f"if ({var} >= {first} && {var} <= {last}) "
                f"{{ {var} = {last}; continue; }}"))
        if outer is None:
            return border()
        self.emit_for(outer, *self._bounds(outer), border)

    def _bounds(self, loop: Loop) -> Tuple[_C, _C]:
        return (self.bounds_c(loop.lowers, True),
                self.bounds_c(loop.uppers, False))

    def _jam(self, loop: Loop):
        """``(vector loop, its clamp-free interior or None)`` when
        ``loop`` is jammed into the ``vector`` loop that is its whole
        body: ``loop`` is untagged, of 2 up to the tag's width constant
        trips and carries no dependence, and the ``vector`` loop holds
        only statements, gets ``omp simd`` (the lane verdict accepts it,
        no register block) and neither its bounds nor its interior's
        mention ``loop``.  Each lane then stores ``loop``'s trips side by
        side (a channel loop: unit stride, not stride 3).  None
        otherwise."""
        body = loop.body.children
        if loop.tag is not None or len(body) != 1 \
                or not isinstance(body[0], Loop):
            return None
        vec = body[0]
        stmts = vec.body.children
        if getattr(vec.tag, "kind", None) != "vector" \
                or not 2 <= _trips(loop) <= (vec.tag.factor or 0) \
                or not stmts or not all(isinstance(s, Stmt) for s in stmts) \
                or _register_block(vec) or windows_at(self.fn, loop) \
                or windows_at(self.fn, vec) \
                or lane_verdict(self.fn, vec, self.lanes_verified) is not None:
            return None
        inside = clamp_free(self.fn, vec)
        lane = (OUT, loop.level)
        if any(e.coeff(lane) for groups in (
                (vec.lowers, vec.uppers) + (inside[:2] if inside else ()))
               for group in groups for __, e in group):
            return None
        summary = DependenceSummary.of(self.fn)
        if any(summary.carried(s.comp, loop.level) for s in stmts):
            return None
        return vec, inside

    def emit_stmt(self, stmt: Stmt, value: Optional[Expr] = None) -> None:
        comp = stmt.comp
        if comp.cached_reads or comp.cached_store is not None:
            raise CodegenError(
                "GPU shared-memory caches are not lowered by the C "
                "backend; use the gpu backend")
        closes = 0
        env = self.stmt_env(comp)
        form = DependenceSummary.of(self.fn).form(comp)
        self.comp, self.store = comp, form.store
        for guard in stmt.guards:
            es = _lin_to_c(guard.expr, self.params)
            op = "==" if guard.kind == EQ else ">="
            self.line(f"if ({es} {op} 0) {{")
            self.indent += 1
            closes += 1
        if form.predicate is not None:
            self.line(f"if ({self.expr_c(form.predicate, env)}) {{")
            self.indent += 1
            closes += 1
        if isinstance(comp, Operation):
            self._emit_operation(comp, env)
        else:
            value = form.value if value is None else value
            rhs = _coerce(self.expr_c(value, env),
                          _CTYPE[form.store.buffer.dtype.np_dtype])
            self.line(f"{self.expr_c(form.store, env)} = {rhs};")
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


def _trips(loop: Loop) -> int:
    """How many times ``loop`` runs, if its bounds are constants; else 0."""
    if [len(g) for g in loop.lowers + loop.uppers] != [1, 1]:
        return 0
    (a, lo), (b, hi) = loop.lowers[0][0], loop.uppers[0][0]
    if a != 1 or b != 1 or not (lo.is_constant() and hi.is_constant()):
        return 0
    return max(int(hi.const) - int(lo.const) + 1, 0)


def _register_block(loop: Loop) -> bool:
    """Is this ``vector`` loop over ``0 .. n - 1``, ``n`` a constant no
    larger than the tag's width and not a power of two?  No vector
    register has ``n`` lanes (nb: three channels), yet ``omp simd`` would
    make this the vector loop, remainder and all, and not the one around
    it.  A whole tile (8 of 8) is one register and keeps its pragma."""
    n = _trips(loop)
    return 0 < n <= (loop.tag.factor or 0) and n & (n - 1) != 0 \
        and loop.lowers[0][0][1] == LinExpr.constant(0)


def emit_c_source(fn: Function, ast=None, lanes_verified: bool = False,
                  parallel: bool = True) -> str:
    """``lanes_verified``: the race-check stage proved every ``vector``
    tag clean (:func:`repro.codegen.lanes.lane_verdict`); ``parallel``:
    the compile option (False prints no ``omp parallel for``)."""
    if ast is None:
        infer_argument_kinds(fn)
        ast = fn.lower()
    buffers = collect_buffers(fn)
    emitter = CEmitter(fn, lanes_verified, parallel)
    args = []
    for buf in buffers:
        args.append(f"{_CTYPE[buf.dtype.np_dtype]}* restrict {buf.name}")
    for p in fn.param_names:
        args.append(f"int64_t {p}")
    emitter.emit_block(ast)
    body = "\n".join(emitter.lines)
    return (f"{_C_PRELUDE}\n"
            f"void kernel({', '.join(args)}) {{\n{body}\n}}\n")


class NativeKernel:
    """A gcc-compiled Tiramisu function callable on NumPy arrays."""

    def __init__(self, fn: Function, source: str, lib_path: str,
                 buffers: List[Buffer], num_threads: Optional[int] = None,
                 prints=None, legal: bool = False):
        self.fn = fn
        #: the compile's :class:`~repro.driver.fingerprint.Fingerprint`
        #: (None: every allocated buffer is zero-filled) and whether it
        #: checked the schedule legal: what the first call proves
        #: :func:`~repro.backends.common.unfilled_buffers` from
        self._compiled = (prints, legal)
        self._unfilled: Optional[frozenset] = None
        self._lock = threading.Lock()
        #: the team a call's parallel loops run on (the compile option;
        #: None: OpenMP's default, or no parallel loop -- gcc links no
        #: libgomp then).  Set around each call, not printed in the
        #: source, so one source serves every team size.
        self.num_threads = num_threads if "omp parallel" in source else None
        self.source = source
        self.buffers = buffers
        self.param_names = list(fn.param_names)
        self._lib = ctypes.CDLL(lib_path)
        self._lib.kernel.restype = None
        self._lib.kernel.argtypes = [ctypes.c_void_p] * len(buffers) \
            + [ctypes.c_int64] * len(self.param_names)
        #: (parameter values, every buffer's shape at them), last call's
        self._shapes = (None, [])

    def unfilled(self) -> frozenset:
        """The buffers a call allocates without zero-filling them, worked
        out at the first call, from the function as it was compiled:
        none if it has been changed since."""
        if self._unfilled is None:
            with self._lock:
                if self._unfilled is None:
                    prints, legal = self._compiled
                    self._unfilled = frozenset() \
                        if prints is None or not prints.holds() \
                        else unfilled_buffers(self.fn, self.buffers, legal)
        return self._unfilled

    def __call__(self, **kwargs):
        params, arrays, outputs = bind_arguments(
            self.buffers, self.param_names, kwargs, self.unfilled())
        sizes, shapes = self._shapes
        if sizes != params:
            shapes = [buf.concrete_shape(params) for buf in self.buffers]
            self._shapes = (params, shapes)
        dense, copied = [], []
        for buf, shape in zip(self.buffers, shapes):
            given = arrays[buf.name]
            # the emitted strides are the declared extents
            if given.shape != shape:
                raise ExecutionError(
                    f"buffer {buf.name!r} has shape {given.shape}, "
                    f"declared {shape} at {params}")
            # ... of dense arrays of the declared element type
            arr = np.ascontiguousarray(given, dtype=buf.dtype.to_numpy())
            dense.append(arr)
            if arr is not given and buf.name in outputs:
                copied.append((given, arr))
        team = self.num_threads
        if team:    # this thread's OpenMP default, for this call only
            before = self._lib.omp_get_max_threads()
            self._lib.omp_set_num_threads(team)
        try:
            self._lib.kernel(*[arr.ctypes.data for arr in dense],
                             *[params[p] for p in self.param_names])
        finally:
            if team:
                self._lib.omp_set_num_threads(before)
        for given, arr in copied:   # as cpu does: the caller's array
            np.copyto(given, arr, casting="unsafe")
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


#: The compiler command line, less the output path.  Part of a .so's
#: address: a binary built under other flags is another binary.
#: ``-ffp-contract=off``: no fused multiply-add, which rounds once where
#: NumPy rounds twice.
GCC = ("gcc", "-O3", "-march=native", "-fopenmp", "-ffp-contract=off",
       "-shared", "-fPIC", "-lm", "-x", "c", "-", "-x", "none")


def build_shared_object(source: str, extra_flags: Sequence[str] = ()) -> str:
    """gcc-compile C source to a (content-addressed, reused) .so; returns
    its path.  The address covers the whole command line — the same
    source built with different flags is a different binary — and the
    .so is built under a temporary name and renamed into place, so a
    concurrent ``dlopen`` of the published path never sees a partial
    file."""
    cmd = list(GCC) + list(extra_flags)
    digest = hashlib.sha1(
        "\0".join([source] + cmd).encode()).hexdigest()[:16]
    workdir = os.path.join(tempfile.gettempdir(), "tiramisu_c")
    os.makedirs(workdir, exist_ok=True)
    so_path = os.path.join(workdir, f"k_{digest}.so")
    if os.path.exists(so_path):
        return so_path
    fd, tmp_path = tempfile.mkstemp(dir=workdir, prefix=f"k_{digest}.",
                                    suffix=".so")
    os.close(fd)
    try:
        result = subprocess.run(cmd + ["-o", tmp_path], input=source,
                                capture_output=True, text=True)
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
    # OpenMP runs a parallel loop's iterations on threads over the
    # caller's arrays: the race check guards its tags as on cpu.
    parallel_execution = ("parallel",)
    # bind() recompiles ctx.source with gcc; nothing emit-time survives
    # it, so stored source is a complete artifact.
    bind_from_source = True

    def emit(self, ctx) -> str:
        if not have_c_compiler():
            raise ExecutionError("no C compiler available")
        return emit_c_source(ctx.fn, ctx.ast, ctx.lanes_verified,
                             ctx.opt("parallel", True))

    def bind(self, ctx) -> NativeKernel:
        so_path = build_shared_object(ctx.source,
                                      ctx.opt("extra_flags", ()))
        return NativeKernel(ctx.fn, ctx.source, so_path,
                            collect_buffers(ctx.fn), ctx.opt("num_threads"),
                            ctx.prints, bool(ctx.opt("check_legality")))
