"""Emission of executable Python/NumPy source from the loop AST.

This is the reproduction's stand-in for the paper's LLVM backend: the
AST from :mod:`repro.codegen.isl_to_ast` is lowered to Python source,
compiled with :func:`compile`, and wrapped in a callable kernel.

Loop dimensions tagged ``vector`` that carry no dependence are lowered
to whole-range NumPy statements, and take the loops of the perfect nest
around them that carry none either along as further axes of one *slab*
(:func:`repro.codegen.lanes.slab_verdict`): an index affine in one slab
variable becomes a basic slice ``lo:hi+1`` (stepped for a coefficient
above 1), a value that moves with some of the axes broadcasts along the
others, a fused body runs statement after statement, and an ``np.arange``
index vector exists only where an access needs it (clamped,
data-dependent or diagonal indices, or the variable used as a value).
A loop left out says why in its comment (:func:`vector_summary`); a
reduction whose tile loops fold runs around the slab instead (``#
loop (k): hoisted over (i0, j0)``).

Top-level loop dimensions tagged ``parallel`` are lowered to a *chunked
worker function*: the loop body is emitted as a standalone
``_par_body_k(_bufs, _params, _lo, _hi)`` function and the loop itself
becomes a dispatch that hands contiguous chunks of the iteration range
to the runtime (:mod:`repro.backends.parallel`) when one is attached,
and calls the body sequentially otherwise.  Offload is only emitted
when the body is safe to run apart from ``_kernel``'s frame: a pure
compute nest (no runtime operations anywhere in the function, no
GPU shared-memory cache buffers) whose loop sits at the outermost
level, so every name the body needs comes from ``_bufs``/``_params``
alone.
"""

from __future__ import annotations

import io
import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.access import integer
from repro.core.communication import tile_window
from repro.core.deps import DependenceSummary
from repro.core.errors import CodegenError
from repro.ir.expr import (BinOp, BufferRead, Call, Cast, Const, Expr,
                           IterVar, ParamRef, Select, UnOp)
from repro.ir.typing import combine, result_type, strong
from repro.isl import Constraint, LinExpr
from repro.isl.constraint import EQ
from repro.isl.linexpr import OUT, PARAM

from .ast import Block, Loop, Node, Stmt
from .lanes import slab_verdict

_PRELUDE = "import numpy as np\n"

#: Follows the prelude in a source that calls it (non-unit lower bounds).
_CDIV = '''
def _cdiv(a, b):
    return -((-a) // b)
'''

#: Extra prelude for ``profile=True`` source only — the default path
#: never sees it (emitted code stays byte-identical with profiling off).
_PROFILE_PRELUDE = '''\
from time import perf_counter_ns as _now_ns
'''


def profile_counted_comps(fn) -> List[Tuple[str, int]]:
    """``(name, bytes-per-store)`` for every computation a profiled
    kernel counts: active, code-generating value computations
    (operations and inlined computations execute no countable store)."""
    from repro.core.computation import Input, Operation
    out: List[Tuple[str, int]] = []
    for comp in fn.active_computations():
        if isinstance(comp, (Input, Operation)) or comp.expr is None:
            continue
        out.append((comp.name, comp.dtype.bits // 8))
    return out


def lin_to_py(le: LinExpr, params: Sequence[str]) -> str:
    """A LinExpr over time dims/params as a Python expression string."""
    parts: List[str] = []
    for (kind, idx), c in le.coeffs.items():
        c = int(c)
        if kind == OUT:
            name = f"t{idx}"
        elif kind == PARAM:
            name = params[idx]
        else:
            raise CodegenError(f"cannot emit dim ({kind},{idx})")
        if c == 1:
            parts.append(name)
        elif c == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{c}*{name}")
    if int(le.const) or not parts:
        parts.append(str(int(le.const)))
    return " + ".join(parts).replace("+ -", "- ")


class _Py(str):
    """A rendered Python expression.  ``atom``: it binds tighter than
    any operator, so it needs no parentheses as an operand; ``lanes``:
    the slab axes it moves with inside a vector statement, where it is
    an array with one axis for each of those and for every axis between
    them and the last (broadcast-ready); ``weak``: in the scalar loop it
    is a Python scalar (:mod:`repro.ir.typing`)."""

    def __new__(cls, text: str, atom: bool = False,
                lanes: frozenset = frozenset(), weak: bool = False):
        self = super().__new__(cls, text)
        self.atom, self.lanes, self.weak = atom, lanes, weak
        return self


#: What an expression lowers to: a LinExpr over time dims and params
#: while it stays integer-affine (it folds, and shows its lane
#: coefficient), rendered text otherwise.
Value = Union[LinExpr, str]


def _p(text: str) -> str:
    """``text`` as an operand: parenthesized unless atomic."""
    return text if getattr(text, "atom", False) else f"({text})"


def _lin_py(le: LinExpr, params: Sequence[str],
            lanes: frozenset = frozenset()) -> _Py:
    text = lin_to_py(le, params)
    return _Py(text, text.isidentifier() or text.isdigit(), lanes, True)


def bound_to_py(bound, params: Sequence[str], is_lower: bool) -> str:
    a, e = bound
    es = _lin_py(e, params)
    if a == 1:
        return es
    if is_lower:
        return f"_cdiv({es}, {a})"
    return f"{_p(es)} // {a}"


def bounds_group_py(groups, params, is_lower: bool) -> str:
    combine_in = "max" if is_lower else "min"
    combine_out = "min" if is_lower else "max"
    group_strs = []
    for g in groups:
        exprs = [bound_to_py(b, params, is_lower) for b in g]
        group_strs.append(exprs[0] if len(exprs) == 1
                          else f"{combine_in}({', '.join(exprs)})")
    if len(group_strs) == 1:
        return group_strs[0]
    return f"{combine_out}({', '.join(group_strs)})"


def constraint_to_py(c: Constraint, params: Sequence[str]) -> str:
    es = lin_to_py(c.expr, params)
    op = "==" if c.kind == EQ else ">="
    return f"{es} {op} 0"


_VECTOR_NOTE = re.compile(
    r"# (?:vectorized|vector loop) \((\w+)\)(?: over \(.*\)|: scalar, (.*))?$",
    re.M)


def vector_summary(source: str) -> Tuple[int, List[str]]:
    """``(vector_loops, vector_declines)`` of emitted source: how many
    ``vector``-tagged loops were lowered to whole-range statements, and
    ``"<loop>: <reason>"`` for each one left scalar.  Read off the loop
    comments, like ``parallel_regions``, so the counts survive the disk
    tier and batch workers."""
    notes = _VECTOR_NOTE.findall(source)
    return (sum(1 for __, why in notes if not why),
            [f"{var}: {why}" for var, why in notes if why])


def _head(node: Expr) -> Tuple:
    """What ``node`` is, apart from its children."""
    own = (getattr(node, slot) for slot in node.__slots__)
    return (type(node), *((type(v), v) for v in own
                          if not isinstance(v, (Expr, tuple))))


class _Lanes:
    """The slab being lowered: ``axes`` maps each of its loop dims to its
    range ``(lo, hi)`` (LinExprs, or names of locals), in the order of the
    stores' indices; and what its statements turned out to need."""

    def __init__(self, axes: Dict[Tuple[str, int], Tuple[Value, Value]]):
        self.axes = axes
        self.rank = {lane: r for r, lane in enumerate(axes)}
        self.arange: set = set()    # dims whose index vector is needed
        self.lines: List[str] = []  # statements, each after its locals
        # (buffer var, axis, lane, coeff, index less lane term and
        # constant) -> {constant: (start, stop)}: slices that differ by
        # a constant share one range check, made on the extreme two.
        self.sliced: Dict[Tuple, Dict[int, Tuple[str, str]]] = {}
        self.checks: Dict[str, None] = {}   # range checks of the windows
        # A read of a window waits for the window's extent: ``\0n\0`` in
        # the text stands for the n-th (number, window, parts) here, a
        # part a text or (clamped axis record, constant).
        self.taps: Dict[Tuple, Tuple[int, str, list]] = {}

    def begin(self, expr: Expr) -> None:
        """Start on a statement that computes ``expr``."""
        # (view, clamped axes) -> [local, view, [[view axis, buffer axis,
        # lane, coeff, index less lane term and constant, lo, hi,
        # {constant: tap number}], ...]]: one edge window per statement
        self.windows: Dict[Tuple, list] = {}
        self.hoisted: Dict[str, _Py] = {}   # a value's text -> its local
        self.shapes: Dict[Tuple, int] = {}  # equal trees get one number
        self.number: Dict[int, int] = {}    # id(node) -> that number
        self.seen: Dict[int, int] = {}      # number -> places it stands in
        self.count(expr)

    def count(self, expr: Expr) -> None:
        """Note each sub-tree of ``expr`` once for every place it stands
        (what a repeated one is built from stands only in it)."""
        def number(node: Expr) -> int:
            kids = [number(kid) for kid in node.children()]
            shape = (_head(node), *kids)
            n = self.shapes.get(shape)
            if n is None:       # a tree not met before: its parts stand in it
                n = self.shapes[shape] = len(self.shapes)
                for kid in kids:
                    self.seen[kid] = self.seen.get(kid, 0) + 1
            self.number[id(node)] = n
            return n
        number(expr)

    def repeats(self, expr: Expr) -> bool:
        return self.seen.get(self.number.get(id(expr)), 0) > 1

    def local(self, v: _Py, fresh, prefix: str) -> _Py:
        """The local that holds ``v``, assigned before the statement the
        first time: same operations on the same operands, once."""
        name = self.hoisted.get(v)
        if name is None:
            name = self.hoisted[v] = _Py(fresh(prefix), True, v.lanes, v.weak)
            self.lines.append(f"{name} = {v}")
        return name


class Emitter:
    """Emits one function body; reused by the CPU/GPU/distributed
    backends with different prologues."""

    def __init__(self, fn, params: Sequence[str], profile: bool = False):
        self.fn = fn
        self.params = list(params)
        self.buf = io.StringIO()
        self.indent = 0
        self._tmp = 0
        self.current_comp = None  # statement being emitted (cache lookup)
        self._depth = 0           # loop-nest depth of the current node
        self._par_count = 0
        self.parallel_bodies: List[str] = []  # chunked worker functions
        self.taskgraph_bodies: List[str] = []  # tile body + grid functions
        self.taskgraph_dims: Optional[int] = None
        self._fn_offload_ok: Optional[bool] = None
        self._vec: Optional[_Lanes] = None   # slab being lowered
        # Of every chain of loops met so far (keys are ``id(loop)``): the
        # loop that heads its slab -> (the slab's loops, their dims in
        # store order); a loop outside it -> why, if it is what stopped it.
        self._slab_heads: Dict[int, Tuple[List[Loop], Tuple]] = {}
        self._outside: Dict[int, Optional[str]] = {}
        self.lanes_verified = False  # race-check proved vector tags clean
        # profile=True wraps loop nests with counters/spans reporting
        # into an ``_obs`` collector; off, emission is byte-identical
        # to a profiling-unaware emitter.
        self.profile = bool(profile)
        self._counters: Dict[str, Tuple[str, int]] = {}
        if self.profile:
            for idx, (name, nbytes) in enumerate(
                    profile_counted_comps(fn)):
                self._counters[name] = (f"_ct{idx}", nbytes)

    # -- low-level writing --------------------------------------------------

    def line(self, text: str = "") -> None:
        self.buf.write("    " * self.indent + text + "\n")

    def fresh(self, prefix: str = "_v") -> str:
        self._tmp += 1
        return f"{prefix}{self._tmp}"

    def render_def(self, header: str, body) -> str:
        """One ``def``: ``body()`` is rendered first, and the prologue
        then unpacks only the parameters and buffers (and zeroes the
        counters) that text mentions: ``_kernel`` and every chunk or
        tile body bind exactly the names they use."""
        from repro.backends.common import collect_buffers
        saved = self.buf, self.indent, self._depth
        self.buf, self.indent, self._depth = io.StringIO(), 1, 0
        body()
        text = self.buf.getvalue()
        names = set(re.findall(r"\w+", text))
        binds = [f"{p} = _params[{p!r}]" for p in self.params]
        binds += [f"{_buf_var(b)} = _bufs[{b.name!r}]"
                  for b in collect_buffers(self.fn)]
        binds += [f"{var} = 0" for var, __ in self._counters.values()]
        self.buf, self.indent, self._depth = saved
        return header + "".join(f"\n    {ln}" for ln in binds
                                if ln.split(" = ")[0] in names) + "\n" + text

    def emit_profile_flush(self) -> None:
        """Report the accumulated iteration counters into ``_obs``;
        emitted at the end of ``_kernel`` and of every chunked parallel
        body (profile mode only)."""
        for name, (var, nbytes) in self._counters.items():
            self.line(f"if {var}: _obs.count({name!r}, {var}, "
                      f"{var} * {nbytes})")

    # -- expression lowering -------------------------------------------------

    def expr_py(self, expr: Expr, env: Dict[str, Value]) -> str:
        """Render ``expr``, an expression in buffer terms
        (:mod:`repro.core.access`)."""
        return self._s(self._val(expr, env))

    def _lanes(self, *vals: Value) -> frozenset:
        """The slab axes any of ``vals`` moves with."""
        out: frozenset = frozenset()
        for v in vals:
            if not isinstance(v, LinExpr):
                out |= getattr(v, "lanes", out)
            elif self._vec is not None:
                out |= self._vec.rank.keys() & v.coeffs.keys()
        return out

    def _s(self, v: Value) -> str:
        """Render a value: an affine one that moves with slab variables
        is built on their index vectors."""
        if not isinstance(v, LinExpr):
            return v
        lanes = self._lanes(v)
        if lanes:
            self._vec.arange |= lanes
        return _lin_py(v, self.params, lanes)

    def _val(self, expr: Expr, env: Dict[str, Value],
             index: bool = False) -> Value:
        """Lower ``expr``; ``index`` marks index position, where
        ``min``/``max``/``clamp`` of scalars are plain Python ints.  In a
        vector statement a lane-valued sub-expression that stands in it
        more than once (:meth:`_Lanes.count`) is held in a local; a whole
        index goes through :meth:`_lower`, :meth:`_subscript` holds it."""
        v = self._lower(expr, env, index)
        vec = self._vec
        if vec is not None and getattr(v, "lanes", None) \
                and not v.isidentifier() and vec.repeats(expr):
            v = vec.local(v, self.fresh, "_c")
        return v

    def _lower(self, expr: Expr, env: Dict[str, Value],
               index: bool) -> Value:
        if isinstance(expr, Const):
            v = expr.value
            if isinstance(v, int) and not isinstance(v, bool):
                return LinExpr.constant(v)
            return _Py(repr(v), not repr(v).startswith("-"), weak=True)
        if isinstance(expr, (IterVar, ParamRef)):
            if expr.name in env:
                return env[expr.name]
            if isinstance(expr, IterVar):
                raise CodegenError(f"unbound iterator {expr.name!r}")
            if expr.name in self.params:
                return LinExpr.dim(PARAM, self.params.index(expr.name))
            raise CodegenError(f"unknown parameter {expr.name!r}")
        if isinstance(expr, BinOp):
            lhs = self._val(expr.lhs, env, index)
            rhs = self._val(expr.rhs, env, index)
            op = expr.op
            if isinstance(lhs, LinExpr) and isinstance(rhs, LinExpr):
                if op in "+-":
                    return lhs + rhs if op == "+" else lhs - rhs
                if op == "*" and lhs.is_constant():
                    return rhs * int(lhs.const)
                if op == "*" and rhs.is_constant():
                    return lhs * int(rhs.const)
            lhs, rhs = self._meet(op, expr.children(), (lhs, rhs))
            if op in ("and", "or") and self._vec is not None:
                op = "&" if op == "and" else "|"
            return _Py(f"{_p(lhs)} {op} {_p(rhs)}",
                       lanes=self._lanes(lhs, rhs),
                       weak=lhs.weak and rhs.weak)
        if isinstance(expr, UnOp):
            v = self._val(expr.operand, env, index)
            if isinstance(v, LinExpr) and expr.op == "-":
                return -v
            v = self._s(v)
            return _Py(f"{expr.op}{_p(v)}", lanes=self._lanes(v),
                       weak=v.weak)
        if isinstance(expr, Select):
            cond = self.expr_py(expr.cond, env)
            args = [cond] + self._meet("select", expr.children()[1:], [
                self._val(e, env) for e in (expr.if_true, expr.if_false)])
            return _Py(f"np.where({', '.join(args)})", True,
                       self._lanes(*args))
        if isinstance(expr, Cast):
            v = self.expr_py(expr.operand, env)
            if v.weak and not v.lanes and result_type(expr.operand) is int:
                v = f"np.int64({v})"    # NumPy 2 refuses an int out of range
            return _Py(f"np.{expr.dtype.np_dtype}({v})", True, self._lanes(v))
        if isinstance(expr, Call):
            args = self._meet(expr.fn, expr.args, [
                self._val(a, env, index) for a in expr.args])
            return self._call_py(expr.fn, args, index)
        if isinstance(expr, BufferRead):
            cache = self.current_comp.cache_of(expr.buffer)
            return (self._vec is not None and not cache
                    and self._window(expr, env)) \
                or self._element(expr, env, cache)
        raise CodegenError(f"cannot emit expression {expr!r}")

    def _meet(self, op: str, exprs: Sequence[Expr],
              vals: Sequence[Value]) -> List[_Py]:
        """The operands of ``op`` rendered.  In a vector statement an
        index vector is a strong ``int64`` array where the scalar loop
        variable is a weak Python int, so a weak operand built on one
        would promote a strong one (``float32 * (0.1 * j)`` to
        ``float64``): it is cast to the type NumPy converts the scalar
        to."""
        vals = [self._s(v) for v in vals]
        if self._vec is None:
            return vals
        moved = [v.weak and v.lanes for v in vals]
        if any(moved) and not all(v.weak for v in vals):
            types = tuple(map(result_type, exprs))
            to = combine(op, types)[0]
            if to != combine(op, tuple(strong(t) if m else t for t, m
                                       in zip(types, moved)))[0]:
                vals = [_Py(f"np.{to.np_dtype}({v})", True, v.lanes) if m
                        else v for v, m in zip(vals, moved)]
        return vals

    def _call_py(self, fn: str, args: List[str], index: bool = False) -> str:
        table = {
            "min": "np.minimum", "max": "np.maximum", "abs": "np.abs",
            "sqrt": "np.sqrt", "exp": "np.exp", "log": "np.log",
            "floor": "np.floor", "pow": "np.power", "clamp": "np.clip",
        }
        if fn not in table:
            raise CodegenError(f"unknown intrinsic {fn!r}")
        lanes = self._lanes(*args)
        if index and not lanes and fn in ("min", "max", "clamp"):
            # A scalar index: Python ints, not np.clip on a Python int.
            if fn == "clamp":
                return _Py(f"min(max({args[0]}, {args[1]}), {args[2]})", True)
            return _Py(f"{fn}({', '.join(args)})", True)
        return _Py(f"{table[fn]}({', '.join(args)})", True, lanes)

    def _element(self, element: BufferRead, env: Dict[str, Value],
                 cache) -> _Py:
        """``element`` as a subscript, rebased onto the staging buffer
        when the statement reaches it through ``cache`` (``(staging
        buffer, origins)``)."""
        idx = [self._lower(e, env, True) for e in element.indices]
        if cache:
            shared, origins = cache
            return self._subscript(shared, self._rebased(idx, origins))
        return self._subscript(element.buffer, idx)

    def _rebased(self, idx: List[Value], origins) -> List[Value]:
        """Indices relative to a staging buffer's origin."""
        return [o - org if isinstance(o, LinExpr) else
                _Py(f"{_p(o)} - {_p(self._s(org))}", lanes=self._lanes(o))
                for o, org in zip(idx, origins)]

    def _subscript(self, buffer, idx: List[Value]) -> str:
        """``b_buf[...]``.  In a vector statement an index affine in one
        slab variable, with a positive coefficient, is a basic slice, any
        other moving index an index vector, and ``None`` an axis the
        value does not move with (it broadcasts)."""
        vec = self._vec
        moved = [self._lanes(v) for v in idx]
        if vec is None or not any(moved) and all(
                isinstance(v, LinExpr) for v in idx):
            return _Py(f"{_buf_var(buffer)}[{', '.join(map(self._s, idx))}]",
                       True)
        n = len(vec.axes)
        cut = [len(m) == 1 and isinstance(v, LinExpr) and v.coeff(*m) >= 1
               for v, m in zip(idx, moved)]
        mesh, runs = self._layout(moved, cut)
        parts, at = [], None            # at: rank of the last result axis
        for k, v in enumerate(idx):
            if k in runs:               # the axes the value skips broadcast
                first, last = runs[k]
                parts += ["None"] * (0 if at is None else first - at - 1)
                at = last
            if cut[k] and not mesh:
                parts.append(self._slice_py(buffer, k, v, *moved[k]))
                continue
            part = self._s(v)
            if moved[k] and last < n - 1:       # drop the axes slices bring
                part = _Py(f"{_p(part)}[...{', 0' * (n - 1 - last)}]", True,
                           moved[k])
            if not isinstance(v, LinExpr) and not part.isidentifier():
                part = vec.local(part, self.fresh, "_i")
            parts.append(part)
        parts += ["None"] * (0 if at is None else n - 1 - at)
        return _Py(f"{_buf_var(buffer)}[{', '.join(parts)}]", True,
                   self._lanes(*idx))

    def _window(self, element: BufferRead, env: Dict[str, Value]
                ) -> Optional[_Py]:
        """The read ``element`` as basic slices of an edge window, or None
        unless some index is ``clamp(x, lo, hi)`` with ``x`` affine in one
        slab variable and ``lo``, ``hi`` fixed, and each moving index (``x``
        for those) is a slice, the axes in order.  The window is the
        read's footprint, built once per statement for every read that
        shares its other indices and its clamps up to a constant: a view
        (slices and scalars) on the unclamped axes, gathered once on each
        clamped one (``np.take`` at the clipped range of every offset
        read, :meth:`_windows`)."""
        vec, buffer, edges = self._vec, element.buffer, {}
        for k, e in enumerate(element.indices):
            if isinstance(e, Call) and e.fn == "clamp":
                x, lo, hi = (self._val(a, env, True) for a in e.args)
                if isinstance(x, LinExpr) and len(self._lanes(x)) == 1 \
                        and not self._lanes(lo, hi):
                    edges[k] = x, lo, hi
        if not edges:
            return None
        idx = [edges[k][0] if k in edges else self._lower(e, env, True)
               for k, e in enumerate(element.indices)]
        moved = [self._lanes(v) for v in idx]
        cut = [len(m) == 1 and isinstance(v, LinExpr) and v.coeff(*m) >= 1
               for v, m in zip(idx, moved)]
        mesh, runs = self._layout(moved, cut)
        if mesh or any(m and not c for m, c in zip(moved, cut)):
            return None
        view, axes, offsets = [], [], []
        for k, v in enumerate(idx):
            if k in edges:
                x, lo, hi = edges[k]
                lane, = moved[k]
                rest = LinExpr({d: c for d, c in x.coeffs.items() if d != lane})
                axes.append((len(view) - sum(not m for m in moved[:k]), k,
                             lane, int(x.coeff(lane)), rest, self._s(lo),
                             self._s(hi)))
                offsets.append(int(x.const))
                view.append(":")
            else:
                view.append(self._slice_py(buffer, k, v, *moved[k])
                            if moved[k] else self._s(v))
        while view and view[-1] == ":":
            view.pop()
        buf = _buf_var(buffer)
        key = (buf, tuple(view), tuple(axes))
        if key not in vec.windows:
            vec.windows[key] = [self.fresh("_w"), buf, f"{buf}[{', '.join(view)}]"
                                if view else buf, [[*a, {}] for a in axes]]
        name, __, __, records = vec.windows[key]
        parts, at, edge = [], None, iter(zip(records, offsets))
        for k in range(len(idx)):
            if k in runs:
                first, last = runs[k]
                parts += ["None"] * (0 if at is None else first - at - 1)
                at = last
            if k in edges:
                record, const = next(edge)
                record[-1][const] = None
                parts.append((record, const))
            elif moved[k]:
                parts.append(":")
        parts += ["None"] * (0 if at is None else len(vec.axes) - 1 - at)
        key = (name, *(p if isinstance(p, str) else p[1] for p in parts))
        number = vec.taps.setdefault(key, (len(vec.taps), name, parts))[0]
        return _Py(f"\0{number}\0", True, frozenset().union(*moved))

    def _windows(self) -> List[str]:
        """The statement's edge windows, each checked against its buffer
        like a slice: the last element it gathers must exist."""
        vec = self._vec
        lines = []
        for name, buf, view, records in vec.windows.values():
            for at, axis, lane, coeff, rest, lo, hi, taps in records:
                first, last = min(taps), max(taps)
                start, stop = vec.axes[lane]
                view = (f"np.take({view}, np.arange("
                        f"{self._at(rest + first, coeff, start)}, "
                        f"{self._at(rest + last + 1, coeff, stop)})"
                        f".clip({lo}, {hi}), {at})")
                size = f"len({buf})" if axis == 0 else f"{buf}.shape[{axis}]"
                vec.checks[f"min(max({self._at(rest + last, coeff, stop)}, "
                           f"{lo}), {hi}) >= {size}"] = None
            lines.append(f"{name} = {view}")
        return lines

    def _layout(self, moved: List[frozenset], cut: List[bool]
                ) -> Tuple[bool, Dict[int, Tuple[int, int]]]:
        """Where the slab axes come out of a subscript: ``(mesh, runs)``,
        ``runs`` mapping a position in it to the ``(first, last)`` rank
        of the result axes that stand there.  Each slice (``cut``) brings
        its own axis; the index vectors, and the scalars among them,
        broadcast into one run of axes that NumPy leaves at the first of
        them only if no slice comes between them.  If it would not, or
        the axes come out of order, ``mesh``: every index is an index
        vector (open mesh) -- correct anywhere, and slower."""
        vec, n = self._vec, len(self._vec.axes)
        for mesh in (False, True):
            block = [k for k, c in enumerate(cut) if mesh or not c]
            ranks = [vec.rank[d] for k in block for d in moved[k]]
            runs = {k: (vec.rank[min(moved[k])],) * 2
                    for k, c in enumerate(cut) if c and not mesh}
            if ranks:       # an index vector has the axes up to the next slice
                after = [r for r, __ in runs.values() if r > max(ranks)]
                runs[block[0]] = (min(ranks), min(after + [n]) - 1)
            spans = [runs[k] for k in sorted(runs)]
            in_order = all(a[1] < b[0] for a, b in zip(spans, spans[1:]))
            together = not ranks or block[-1] - block[0] < len(block)
            if mesh or in_order and together:
                return mesh, runs

    def _at(self, rest: LinExpr, coeff: int, bound: Value) -> str:
        """``rest + coeff*bound`` for a lane bound (LinExpr or local)."""
        if isinstance(bound, LinExpr):
            return lin_to_py(rest + bound * coeff, self.params)
        term = bound if coeff == 1 else f"{coeff}*{bound}"
        if not rest.coeffs and not rest.const:
            return term
        return f"{term} + {lin_to_py(rest, self.params)}".replace("+ -", "- ")

    def _slice_py(self, buffer, axis: int, le: LinExpr, lane) -> str:
        lo, hi = self._vec.axes[lane]
        coeff = int(le.coeff(lane))
        rest = LinExpr({d: c for d, c in le.coeffs.items() if d != lane},
                       le.const)
        start = self._at(rest, coeff, lo)
        stop = self._at(rest + 1, coeff, hi)
        self._vec.sliced.setdefault(
            (_buf_var(buffer), axis, lane, coeff, tuple(rest.coeffs.items())),
            {})[int(le.const)] = (start, stop)
        return f"{start}:{stop}" + (f":{coeff}" if coeff != 1 else "")

    # -- statement env -------------------------------------------------------

    def stmt_env(self, comp) -> Dict[str, Value]:
        return dict(comp.rev)

    # -- AST walking -----------------------------------------------------------

    def emit_block(self, block: Block) -> None:
        if not block.children:
            self.line("pass")
            return
        for child in block.children:
            self.emit_node(child)

    def emit_body(self, loop: Loop) -> None:
        """``loop``'s body, opened by a fresh tile window for each
        producer ``compute_at`` nests at its level: an iteration (a
        chunk's too) owns its window."""
        for buf in windows_at(self.fn, loop):
            self.line(f"{_buf_var(buf)} = np.empty({buf.concrete_shape({})}, "
                      f"dtype=np.{buf.dtype.np_dtype})")
        self.emit_block(loop.body)

    def emit_node(self, node: Node) -> None:
        if isinstance(node, Loop):
            self.emit_loop(node)
        elif isinstance(node, Stmt):
            self.emit_stmt(node)
        elif isinstance(node, Block):
            self.emit_block(node)
        else:
            raise CodegenError(f"unknown AST node {node!r}")

    def _bound(self, groups, is_lower: bool) -> Value:
        """A loop bound: a LinExpr when it is one affine form, else text."""
        if len(groups) == 1 and len(groups[0]) == 1 and groups[0][0][0] == 1:
            return groups[0][0][1]
        return bounds_group_py(groups, self.params, is_lower)

    def _span(self, lo: Value, hi: Value) -> str:
        """``lo, hi + 1``: the arguments of ``range`` / ``np.arange``."""
        stop = self._s(hi + 1) if isinstance(hi, LinExpr) else f"{hi} + 1"
        return f"{self._s(lo)}, {stop}"

    def emit_loop(self, loop: Loop) -> None:
        lo = self._bound(loop.lowers, True)
        hi = self._bound(loop.uppers, False)
        if self.profile and self._depth == 0:
            # Profile mode: wall-clock span around every top-level nest
            # (inner loops stay uninstrumented — counters there are per
            # statement, so the hot path adds one integer add).
            sp = self.fresh("_sp")
            self.line(f"{sp} = _now_ns()")
            cat = self._emit_loop_inner(loop, lo, hi)
            self.line(f"_obs.span({loop.var!r}, {loop.comps!r}, {sp}, "
                      f"_now_ns(), {cat!r})")
        else:
            self._emit_loop_inner(loop, lo, hi)

    def _emit_loop_inner(self, loop: Loop, lo: Value, hi: Value) -> str:
        """Emit one loop (vector / parallel-dispatch / sequential form);
        returns the span category for profile mode."""
        kind = getattr(loop.tag, "kind", None)
        if kind == "parallel" and self._depth == 0 \
                and self._offload_safe(loop):
            self._emit_parallel_dispatch(loop, self._s(lo), self._s(hi))
            return "parallel"
        note = self._slab(loop, lo, hi, f"{kind} loop" if kind else "loop")
        if note is None:
            return "loop-nest"
        self.line(f"for t{loop.level} in range({self._span(lo, hi)}):{note}")
        self.indent += 1
        self._depth += 1
        self.emit_body(loop)
        self._depth -= 1
        self.indent -= 1
        return "loop-nest"

    # -- parallel offload ---------------------------------------------------

    def _offload_safe(self, loop: Loop) -> bool:
        """Can this loop's body run apart from ``_kernel``'s frame, given
        only ``_bufs``/``_params``?  Runtime operations (allocations rebind
        buffer names in the entry frame, sends/copies/barriers need the
        live runtime) and staged cache buffers (filled by an operation
        in the enclosing frame) pin the nest to ``_kernel``."""
        if self._fn_offload_ok is None:
            from repro.core.computation import Operation
            self._fn_offload_ok = not any(
                isinstance(c, Operation) for c in self.fn.computations)
        if not self._fn_offload_ok:
            return False
        todo: List[Node] = [loop]
        while todo:
            node = todo.pop()
            if isinstance(node, Stmt):
                comp = node.comp
                if comp.cached_reads or comp.cached_store is not None:
                    return False
            elif isinstance(node, Loop):
                todo.extend(node.body.children)
            elif isinstance(node, Block):
                todo.extend(node.children)
        return True

    def _emit_parallel_dispatch(self, loop: Loop, lo: str, hi: str) -> None:
        self._par_count += 1
        name = f"_par_body_{self._par_count}"
        self.parallel_bodies.append(self._render_parallel_body(name, loop))
        lo_v = self.fresh("_plo")
        hi_v = self.fresh("_phi")
        self.line(f"{lo_v} = {lo}")
        self.line(f"{hi_v} = {hi}")
        obs_arg = ", _obs" if self.profile else ""
        self.line(f"if getattr(_runtime, 'offload', None) is not None "
                  f"and _runtime.offload({hi_v} - {lo_v} + 1):")
        self.indent += 1
        self.line(f"_runtime.run({name}, _params, {lo_v}, {hi_v}{obs_arg})"
                  f"  # parallel loop ({loop.var})")
        self.indent -= 1
        self.line("else:")
        self.indent += 1
        self.line(f"{name}(_bufs, _params, {lo_v}, {hi_v}{obs_arg})")
        self.indent -= 1

    def _render_parallel_body(self, name: str, loop: Loop) -> str:
        """Emit the loop as a standalone chunk worker over [_lo, _hi]."""
        def body():
            note = self._slab(loop, "_lo", "_hi", "parallel chunk")
            if note is not None:
                self.line(f"for t{loop.level} in range(_lo, _hi + 1):{note}")
                self.indent += 1
                self._depth += 1
                self.emit_body(loop)
                self.indent -= 1
            if self.profile:
                self.emit_profile_flush()
        obs_param = ", _obs=None" if self.profile else ""
        return self.render_def(
            f"def {name}(_bufs, _params, _lo, _hi{obs_param}):", body)

    # -- task-graph tiling ---------------------------------------------------

    def try_taskgraph(self, ast: Block) -> Optional[int]:
        """Render the tile-execution support functions for the
        task-graph runtime (``execution="taskgraph"``), when the nest
        is eligible.

        Eligibility: the function is a single top-level loop nest whose
        body can run apart from ``_kernel``'s frame (the same test as
        parallel offload), with parameter-only bounds on the clamped level(s)
        and an *identity schedule* there — so a dependence distance in
        iteration space is also a distance in emitted loop space and
        the tile DAG built from it is sound.  Two levels are clamped
        when the nest is a perfect 2-deep prefix with rectangular
        (parameter-only) inner bounds; otherwise one.  Returns the
        number of clamped dimensions and records ``_tile_body`` /
        ``_tile_grid`` in :attr:`taskgraph_bodies`, or returns None —
        the source is then emitted without task-graph support and the
        option degrades to the normal sequential/fork-join path.
        """
        if len(ast.children) != 1 or not isinstance(ast.children[0], Loop):
            return None
        top = ast.children[0]
        if not self._offload_safe(top) or not self._bounds_param_only(top):
            return None
        levels = [top]
        inner = top.body.children
        if (len(inner) == 1 and isinstance(inner[0], Loop)
                and self._bounds_param_only(inner[0])):
            levels.append(inner[0])
        if not self._identity_scheduled(top, len(levels)):
            if len(levels) == 1 or not self._identity_scheduled(top, 1):
                return None
            levels = levels[:1]  # only the outer level is identity
        self.taskgraph_bodies.append(self._render_tile_grid(levels))
        self.taskgraph_bodies.append(self._render_tile_body(levels))
        self.taskgraph_dims = len(levels)
        return self.taskgraph_dims

    @staticmethod
    def _bounds_param_only(loop: Loop) -> bool:
        """True when no bound of ``loop`` references an enclosing loop
        dim (or an existentially quantified div) — the global extent is
        then a pure parameter expression the tile grid can evaluate."""
        for groups in (loop.lowers, loop.uppers):
            for g in groups:
                for __, e in g:
                    if any(kind != PARAM for kind, __i in e.dims()):
                        return False
        return True

    def _identity_scheduled(self, top: Loop, dims: int) -> bool:
        """Every statement under ``top`` iterates at least ``dims``
        loops and its schedule maps original iterator k to time dim k
        unchanged for k < dims (no skew/shift/reorder on the clamped
        levels)."""
        todo: List[Node] = [top]
        found = False
        while todo:
            node = todo.pop()
            if isinstance(node, Stmt):
                found = True
                comp = node.comp
                if len(comp.var_names) < dims or node.depth < dims:
                    return False
                for k in range(dims):
                    le = comp.rev.get(comp.var_names[k])
                    if le is None:
                        return False
                    if le != LinExpr.dim(OUT, k):
                        return False
            elif isinstance(node, Loop):
                todo.extend(node.body.children)
            elif isinstance(node, Block):
                todo.extend(node.children)
        return found

    def _render_tile_grid(self, levels: List[Loop]) -> str:
        """``_tile_grid(_params)``: the inclusive global [lo, hi] of
        each clamped level, evaluated from parameters alone — the
        iteration box the runtime partitions into tiles."""
        pairs = [f"({bounds_group_py(loop.lowers, self.params, True)}, "
                 f"{bounds_group_py(loop.uppers, self.params, False)})"
                 for loop in levels]
        return self.render_def(
            "def _tile_grid(_params):",
            lambda: self.line(f"return [{', '.join(pairs)}]"))

    def _render_tile_body(self, levels: List[Loop]) -> str:
        """``_tile_body(_bufs, _params, _lo0, _hi0[, _lo1, _hi1])``:
        the nest with the clamped levels intersected with the tile box
        (``max``/``min`` against the original bounds), everything
        deeper emitted unchanged.  Runs on a thread against the caller's
        arrays, exactly like a ``_par_body_k`` chunk."""
        def body():
            for k, loop in enumerate(levels):
                lo = bounds_group_py(loop.lowers, self.params, True)
                hi = bounds_group_py(loop.uppers, self.params, False)
                lo, hi = f"max({lo}, _lo{k})", f"min({hi}, _hi{k})"
                # only the innermost clamped level may head a slab: the
                # loops a slab takes along run over their own bounds
                note = self._slab(loop, lo, hi, "tile dim") \
                    if loop is levels[-1] else f"  # tile dim ({loop.var})"
                if note is None:
                    return
                self.line(f"for t{loop.level} in range({self._span(lo, hi)})"
                          f":{note}")
                self.indent += 1
                self._depth += 1
            self.emit_body(levels[-1])
        args = ", ".join(f"_lo{k}, _hi{k}" for k in range(len(levels)))
        return self.render_def(f"def _tile_body(_bufs, _params, {args}):",
                               body)

    # -- vectorization ----------------------------------------------------------

    def _slab(self, loop: Loop, lo: Value, hi: Value,
              what: str) -> Optional[str]:
        """Lower the slab ``loop`` heads, if any: the longest run of
        loops, from a ``vector``-tagged one out through the perfect nest
        around it, that :func:`~repro.codegen.lanes.slab_verdict` lets
        execute as whole-range statements.  Returns None if emitted, else
        ``loop``'s comment as a ``for``: why, if it is what stayed out."""
        if id(loop) not in self._slab_heads and id(loop) not in self._outside:
            chain = [loop]
            while getattr(chain[-1].tag, "kind", None) in (
                    None, "unroll", "parallel"):
                inner = chain[-1].body.children
                if len(inner) != 1 or not isinstance(inner[0], Loop):
                    break
                chain.append(inner[0])
            k, why, axes, folds, hoist = len(chain), None, (), {}, None
            if getattr(chain[-1].tag, "kind", None) == "vector":
                # a chunk or a tile does not run its loop's own range
                k, why, axes, folds, hoist = slab_verdict(
                    self.fn, chain, self.lanes_verified,
                    what not in ("parallel chunk", "tile dim"))
            self._outside.update((id(member), None) for member in chain[:k])
            if k:
                self._outside[id(chain[k - 1])] = why
            if chain[k:]:
                self._slab_heads[id(chain[k])] = (
                    chain[k:], axes, folds, hoist and chain[hoist])
        if id(loop) in self._slab_heads:
            members, axes, folds, hoisted = self._slab_heads[id(loop)]
            slab = [m for m in members if m is not hoisted]
            note = f"vectorized ({slab[-1].var})"
            if slab[1:]:
                note += f" over ({', '.join(m.var for m in slab[:-1])})"
            if what == "tile dim":      # not the range the loop runs over
                note = f"{what} ({loop.var}), {note}"
            why = self._emit_vector(slab, axes, folds, lo, hi, note, hoisted)
            if why is None:
                return None
            del self._slab_heads[id(loop)]      # all its loops stay loops
            self._outside.update((id(member), None) for member in members)
            self._outside[id(slab[-1])] = why
        why = self._outside[id(loop)]
        if why is None:
            return "" if what == "loop" else f"  # {what} ({loop.var})"
        return f"  # {what} ({loop.var}): " + (
            "scalar, " if what == "vector loop" else "outside slab, ") + why

    def _emit_vector(self, slab: List[Loop], axes: Tuple, folds,
                     lo: Value, hi: Value, note: str,
                     hoisted: Optional[Loop] = None) -> Optional[str]:
        """Lower ``slab`` (a ``vector``-tagged loop under the loops it
        takes along, the outermost running over ``lo..hi``; ``axes``
        their dims in store order, ``folds`` the strip-mined pairs that
        run as one axis, ``hoisted`` the reduction that runs around it,
        :func:`~repro.codegen.lanes.slab_verdict`) to whole-range
        statements, the fused body distributed in β order; returns None,
        or why it cannot (nothing is emitted then)."""
        binds: List[str] = []       # non-affine bounds held in locals
        ranges, counts, full = {}, [], {}
        folded = [a for levels, __, ___ in folds.values() for a in levels]
        first = slab[0].level, lo, hi   # a folded head is read at its ends
        for loop in slab:
            if loop.level in folded:    # s*a + b runs over b's axis
                continue
            if loop.level in folds:
                __, lows, highs = folds[loop.level]
                lo = self._pin(lows, first[0], first[1], True)
                hi = self._pin(highs, first[0], first[2], False)
            elif loop is not slab[0]:
                lo = self._bound(loop.lowers, True)
                hi = self._bound(loop.uppers, False)
            held = []
            for name, b in ((f"_l{loop.level}", lo), (f"_h{loop.level}", hi)):
                if not isinstance(b, LinExpr) and not b.isidentifier():
                    binds.append(f"{name} = {b}")
                    b = name
                held.append(b if isinstance(b, LinExpr) else _Py(b, True))
            lo, hi = ranges[(OUT, loop.level)] = tuple(held)
            counts.append(
                self._s(hi - lo + 1) if isinstance(lo, LinExpr)
                and isinstance(hi, LinExpr)
                else f"{self._s(hi)} - {_p(self._s(lo))} + 1")
            if not counts[-1].isdigit() or counts[-1] == "0":
                # An empty range must run nothing (a negative stop would
                # wrap its slice around instead).
                full[f"{self._s(lo)} <= {self._s(hi)}"] = None
        vec = self._vec = _Lanes({lane: ranges[lane] for lane in axes})
        count = " * ".join(map(_p, counts)) if len(counts) > 1 else counts[0]
        try:
            for stmt in slab[-1].body.children:
                comp = self.current_comp = stmt.comp
                env = self.stmt_env(comp)
                for a in folded:
                    env = {name: le.substitute((OUT, a), LinExpr.constant(0))
                           for name, le in env.items()}
                form = DependenceSummary.of(self.fn).form(comp)
                vec.begin(form.value)
                start = len(vec.lines)
                rhs = self.expr_py(form.value, env)
                target = self._element(
                    form.store, env, comp.cache_of(form.store.buffer, True))
                vec.lines.append(f"{target} = {rhs}")
                vec.lines[start:start] = self._windows()
                if self.profile and comp.name in self._counters:
                    # One statement instance per point of the slab.
                    vec.lines.append(
                        f"{self._counters[comp.name][0]} += {count}")
        except CodegenError:
            return "unsupported"
        finally:
            self._vec = None
        head = []
        for lane, (lo, hi) in vec.axes.items():
            if lane in vec.arange:      # a column per axis that follows
                after = ", None" * (len(axes) - 1 - vec.rank[lane])
                head.append(f"t{lane[1]} = np.arange({self._span(lo, hi)})"
                            + (f"[:{after}]" if after else ""))
        # A basic slice truncates where an index would raise: check the
        # extreme slice of every (buffer, axis) against the array.
        bad: Dict[str, None] = {}
        for (buf, axis, *__), ends in vec.sliced.items():
            start, stop = ends[min(ends)][0], ends[max(ends)][1]
            if not start.isdigit():           # not a constant >= 0
                bad[f"{start} < 0"] = None
            size = f"len({buf})" if axis == 0 else f"{buf}.shape[{axis}]"
            bad[f"{stop} > {size}"] = None
        bad.update(vec.checks)
        taps = list(vec.taps.values())
        body = [re.sub("\0(\\d+)\0", lambda m: _tap(*taps[int(m[1])][1:]), ln)
                for ln in vec.lines]
        if hoisted is not None:     # runs around the slab, checked inside
            t = f"t{hoisted.level}"
            moving = [c for c in bad if re.search(rf"\b{t}\b", c)]
            if moving:
                body.insert(0, f"if {' or '.join(moving)}: "
                            f"raise IndexError('vector loop {slab[-1].var}')")
            bad = {c: None for c in bad if c not in moving}
            h_lo = self._bound(hoisted.lowers, True)
            h_hi = self._bound(hoisted.uppers, False)
            span = h_hi - h_lo if isinstance(h_lo, LinExpr) \
                and isinstance(h_hi, LinExpr) else None
            if span is None or not span.is_constant() or span.const < 0:
                full[f"{self._s(h_lo)} <= {self._s(h_hi)}"] = None
            kind = getattr(hoisted.tag, "kind", None)
            crossed = ", ".join(m.var for m in slab if m.level < hoisted.level)
            body = [f"for {t} in range({self._span(h_lo, h_hi)}):  # "
                    f"{kind + ' loop' if kind else 'loop'} ({hoisted.var}): "
                    f"hoisted over ({crossed})"] + ["    " + ln for ln in body]
        if bad:
            head.append(f"if {' or '.join(bad)}: "
                        f"raise IndexError('vector loop {slab[-1].var}')")
        lines = head + body
        if full:
            lines = [f"if {' and '.join(full)}:"] + [
                "    " + ln for ln in lines]
        lines[0] += f"  # {note}"
        for ln in binds + lines:
            self.line(ln)
        return None

    def _pin(self, groups, level: int, end: Value, is_lower: bool) -> Value:
        """A folded axis' bound: the head's variable ``t<level>`` in it
        (:data:`~repro.codegen.lanes.Folds`) read as ``end``."""
        dim = (OUT, level)
        if isinstance(end, LinExpr):
            return self._bound([[(d, e.substitute(dim, end)) for d, e in g]
                                for g in groups], is_lower)
        if not any(e.coeff(dim) for g in groups for __, e in g):
            return self._bound(groups, is_lower)
        end = end if end.isidentifier() else f"({end})"
        parts = [self._at(e - LinExpr.dim(*dim, e.coeff(dim)),
                          int(e.coeff(dim)), end) if e.coeff(dim)
                 else lin_to_py(e, self.params) for __, e in groups[0]]
        return parts[0] if len(parts) == 1 else \
            f"{'max' if is_lower else 'min'}({', '.join(parts)})"

    # -- statements ---------------------------------------------------------------

    def emit_stmt(self, stmt: Stmt) -> None:
        comp = stmt.comp
        from repro.core.computation import Operation
        self.current_comp = comp
        closes = 0
        for guard in stmt.guards:
            self.line(f"if {constraint_to_py(guard, self.params)}:")
            self.indent += 1
            closes += 1
        env = self.stmt_env(comp)
        form = DependenceSummary.of(self.fn).form(comp)
        if form.predicate is not None:
            self.line(f"if {self.expr_py(form.predicate, env)}:")
            self.indent += 1
            closes += 1
        if isinstance(comp, Operation):
            self.emit_operation(comp, env)
        else:
            rhs = self.expr_py(form.value, env)
            target = self._element(
                form.store, env, comp.cache_of(form.store.buffer, True))
            self.line(f"{target} = {rhs}")
            if self.profile and comp.name in self._counters:
                self.line(f"{self._counters[comp.name][0]} += 1")
        self.indent -= closes

    def emit_operation(self, op, env: Dict[str, Value]) -> None:
        """Backends override; the CPU backend handles alloc/copy ops."""
        kind = op.op_kind
        if kind == "allocate":
            buf = op.payload["buffer"]
            shape = ", ".join(self.expr_py(integer(s), env)
                              for s in buf.sizes)
            self.line(f"{_buf_var(buf)} = np.zeros(({shape},), "
                      f"dtype=np.{buf.dtype.np_dtype})")
        elif kind == "copy":
            src = op.payload["src"]
            dst = op.payload["dst"]
            self.line(f"{_buf_var(dst)}[...] = {_buf_var(src)}")
        elif kind == "cache_copy":
            self._emit_cache_copy(op)
        elif kind == "barrier":
            self.line("pass  # barrier")
        else:
            payload = ", ".join(f"{nm!r}: {self._s(v)}"
                                for nm, v in env.items())
            self.line(f"_runtime.op({op.op_kind!r}, {op.name!r}, "
                      f"{{{payload}}})")

    def _emit_cache_copy(self, op) -> None:
        """Copy the (clipped) footprint box from global memory into the
        shared/local staging buffer."""
        src = op.payload["src"]
        dst = op.payload["dst"]
        origins = op.payload["origins"]
        extents = op.payload["extents"]
        src_slices = []
        dst_slices = []
        for k, (origin, extent) in enumerate(zip(origins, extents)):
            o = self.fresh("_o")
            size = self.expr_py(integer(src.sizes[k]), {})
            self.line(f"{o} = {lin_to_py(origin, self.params)}")
            lo = self.fresh("_lo")
            hi = self.fresh("_hi")
            self.line(f"{lo} = max(0, {o})")
            self.line(f"{hi} = min({size}, {o} + {extent})")
            src_slices.append(f"{lo}:{hi}")
            dst_slices.append(f"{lo} - {o}:{hi} - {o}")
        self.line(f"{_buf_var(dst)}[{', '.join(dst_slices)}] = "
                  f"{_buf_var(src)}[{', '.join(src_slices)}]")


def windows_at(fn, loop: Loop) -> List:
    """The tile windows (:func:`repro.core.communication.tile_window`)
    an iteration of ``loop`` allocates."""
    out = []
    for name in dict.fromkeys(loop.comps):
        comp = fn.find(name)
        window = comp.anchor is not None and comp.anchor[1] == loop.level \
            and tile_window(comp)
        if window:
            out.append(window[0])
    return out


def _buf_var(buffer) -> str:
    return f"b_{buffer.name}"


def _tap(window: str, parts: list) -> str:
    """A read of an edge window: at offset ``const`` along a clamped axis
    (``(record, const)`` in ``parts``), the slice that starts as far into
    the window as ``const`` is above the least offset read, and ends as
    far before its end as ``const`` is below the greatest."""
    texts = []
    for part in parts:
        if isinstance(part, tuple):
            record, const = part
            coeff, offsets = record[3], record[-1]
            first, back = const - min(offsets), max(offsets) - const
            part = (f"{first or ''}:{-back if back else ''}"
                    + (f":{coeff}" if coeff != 1 else ""))
        texts.append(part)
    while texts and texts[-1] == ":":
        texts.pop()
    return f"{window}[{', '.join(texts)}]" if texts else window
