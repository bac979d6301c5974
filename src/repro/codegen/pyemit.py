"""Emission of executable Python/NumPy source from the loop AST.

This is the reproduction's stand-in for the paper's LLVM backend: the
AST from :mod:`repro.codegen.isl_to_ast` is lowered to Python source,
compiled with :func:`compile`, and wrapped in a callable kernel.

Loop dimensions tagged ``vector`` that carry no dependence
(:func:`repro.codegen.lanes.lane_verdict`) are lowered to whole-range
NumPy statements: an index affine in the lane variable becomes a basic
slice ``lo:hi+1`` (stepped for a coefficient above 1), a fused body runs
statement after statement, and the ``np.arange`` lane vector exists only
when an access needs it (clamped, data-dependent or diagonal indices, or
the variable used as a value).  A loop left scalar says why in its
comment; :func:`vector_summary` reads both back from the source.

Top-level loop dimensions tagged ``parallel`` are lowered to a *chunked
worker function*: the loop body is emitted as a standalone
``_par_body_k(_bufs, _params, _lo, _hi)`` function and the loop itself
becomes a dispatch that hands contiguous chunks of the iteration range
to the runtime's worker pool (:mod:`repro.backends.parallel`) when one
is attached, and calls the body sequentially otherwise.  Offload is
only emitted when the body is safe to run in another process: a pure
compute nest (no runtime operations anywhere in the function, no
shared-memory staging buffers) whose loop sits at the outermost level,
so every name the body needs comes from ``_bufs``/``_params`` alone.
"""

from __future__ import annotations

import io
import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.errors import CodegenError
from repro.ir.expr import (Access, BinOp, BufferRead, Call, Cast, Const,
                           Expr, IterVar, ParamRef, Select, UnOp)
from repro.ir.typing import combine, result_type, strong
from repro.isl import Constraint, LinExpr
from repro.isl.constraint import EQ
from repro.isl.linexpr import OUT, PARAM

from .ast import Block, Loop, Node, Stmt
from .lanes import lane_verdict

_PRELUDE = '''\
import numpy as np

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
    inside a vector statement it holds one value per lane; ``weak``: in
    the scalar loop it is a Python scalar (:mod:`repro.ir.typing`)."""

    def __new__(cls, text: str, atom: bool = False, lanes: bool = False,
                weak: bool = False):
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


def _lin_py(le: LinExpr, params: Sequence[str], lanes: bool = False) -> _Py:
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
    r"# (?:vectorized|vector loop) \((\w+)\)(?:: scalar, (.*))?$", re.M)


def vector_summary(source: str) -> Tuple[int, List[str]]:
    """``(vector_loops, vector_declines)`` of emitted source: how many
    ``vector``-tagged loops were lowered to whole-range statements, and
    ``"<loop>: <reason>"`` for each one left scalar.  Read off the loop
    comments, like ``parallel_regions``, so the counts survive the disk
    tier and batch workers."""
    notes = _VECTOR_NOTE.findall(source)
    return (sum(1 for __, why in notes if not why),
            [f"{var}: {why}" for var, why in notes if why])


class _Lanes:
    """The vector loop being lowered: its lane range ``lo..hi`` (each a
    LinExpr, or the name of a local holding a non-affine bound), and
    what its statements turned out to need."""

    def __init__(self, level: int, lo: Value, hi: Value):
        self.lane = (OUT, level)
        self.lo, self.hi = lo, hi
        self.need_arange = False
        self.lines: List[str] = []  # statements, each after its locals
        self.hoisted: Dict[str, _Py] = {}  # index text -> its local
        # (buffer var, axis, coeff, index less lane term and constant)
        # -> {constant: (start, stop)}: slices that differ by a constant
        # share one range check, made on the extreme two.
        self.sliced: Dict[Tuple, Dict[int, Tuple[str, str]]] = {}


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
        self._vec: Optional[_Lanes] = None   # vector loop being lowered
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

    def emit_prologue(self) -> None:
        """Unpack parameters and buffers from the call dictionaries.

        Shared by the ``_kernel`` entry point and by every chunked
        parallel body function, so a body re-executed in a worker
        process rebuilds exactly the names the nest references."""
        from repro.backends.common import collect_buffers
        for p in self.params:
            self.line(f"{p} = _params[{p!r}]")
        for buffer in collect_buffers(self.fn):
            self.line(f"{_buf_var(buffer)} = _bufs[{buffer.name!r}]")
        if self.profile:
            for var, __ in self._counters.values():
                self.line(f"{var} = 0")

    def emit_profile_flush(self) -> None:
        """Report the accumulated iteration counters into ``_obs``;
        emitted at the end of ``_kernel`` and of every chunked parallel
        body (profile mode only)."""
        for name, (var, nbytes) in self._counters.items():
            self.line(f"if {var}: _obs.count({name!r}, {var}, "
                      f"{var} * {nbytes})")

    # -- expression lowering -------------------------------------------------

    def expr_py(self, expr: Expr, env: Dict[str, Value],
                float_div: bool) -> str:
        return self._s(self._val(expr, env, float_div))

    def _lanes(self, v: Value) -> bool:
        if isinstance(v, LinExpr):
            return self._vec is not None and v.coeff(self._vec.lane) != 0
        return getattr(v, "lanes", False)

    def _s(self, v: Value) -> str:
        """Render a value; an affine one that moves with the lane
        variable is then the lane vector itself."""
        if not isinstance(v, LinExpr):
            return v
        lanes = self._lanes(v)
        if lanes:
            self._vec.need_arange = True
        return _lin_py(v, self.params, lanes)

    def _val(self, expr: Expr, env: Dict[str, Value], float_div: bool,
             index: bool = False) -> Value:
        """Lower ``expr``; ``index`` marks index position, where
        ``min``/``max``/``clamp`` of scalars are plain Python ints."""
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
            lhs = self._val(expr.lhs, env, float_div, index)
            rhs = self._val(expr.rhs, env, float_div, index)
            op = expr.op
            if isinstance(lhs, LinExpr) and isinstance(rhs, LinExpr):
                if op in "+-":
                    return lhs + rhs if op == "+" else lhs - rhs
                if op == "*" and lhs.is_constant():
                    return rhs * int(lhs.const)
                if op == "*" and rhs.is_constant():
                    return lhs * int(rhs.const)
            if op == "/" and not float_div:
                op = "//"
            lhs, rhs = self._meet(op, expr.children(), (lhs, rhs), float_div)
            if op in ("and", "or") and self._vec is not None:
                op = "&" if op == "and" else "|"
            return _Py(f"{_p(lhs)} {op} {_p(rhs)}",
                       lanes=self._lanes(lhs) or self._lanes(rhs),
                       weak=lhs.weak and rhs.weak)
        if isinstance(expr, UnOp):
            v = self._val(expr.operand, env, float_div, index)
            if isinstance(v, LinExpr) and expr.op == "-":
                return -v
            v = self._s(v)
            return _Py(f"{expr.op}{_p(v)}", lanes=self._lanes(v),
                       weak=v.weak)
        if isinstance(expr, Select):
            cond = self.expr_py(expr.cond, env, float_div)
            args = [cond] + self._meet("select", expr.children()[1:], [
                self._val(e, env, float_div)
                for e in (expr.if_true, expr.if_false)], float_div)
            return _Py(f"np.where({', '.join(args)})", True,
                       any(map(self._lanes, args)))
        if isinstance(expr, Cast):
            v = self.expr_py(expr.operand, env, float_div)
            return _Py(f"np.{expr.dtype.np_dtype}({v})", True, self._lanes(v))
        if isinstance(expr, Call):
            args = self._meet(expr.fn, expr.args, [
                self._val(a, env, float_div, index) for a in expr.args],
                float_div)
            return self._call_py(expr.fn, args, index)
        if isinstance(expr, BufferRead):
            return self._subscript(expr.buffer, [
                self._val(e, env, float_div, True) for e in expr.indices])
        if isinstance(expr, Access):
            return self._access_py(expr, env, float_div)
        raise CodegenError(f"cannot emit expression {expr!r}")

    def _meet(self, op: str, exprs: Sequence[Expr], vals: Sequence[Value],
              float_div: bool) -> List[_Py]:
        """The operands of ``op`` rendered.  In a vector statement the
        lane vector is a strong ``int64`` array where the scalar loop
        variable is a weak Python int, so a weak operand built on it
        would promote a strong one (``float32 * (0.1 * j)`` to
        ``float64``): it is cast to the type NumPy converts the scalar
        to."""
        vals = [self._s(v) for v in vals]
        if self._vec is None:
            return vals
        moved = [v.weak and v.lanes for v in vals]
        if any(moved) and not all(v.weak for v in vals):
            types = tuple(result_type(e, float_div) for e in exprs)
            to = combine(op, types)[0]
            if to != combine(op, tuple(strong(t) if m else t for t, m
                                       in zip(types, moved)))[0]:
                vals = [_Py(f"np.{to.np_dtype}({v})", True, True) if m else v
                        for v, m in zip(vals, moved)]
        return vals

    def _call_py(self, fn: str, args: List[str], index: bool = False) -> str:
        table = {
            "min": "np.minimum", "max": "np.maximum", "abs": "np.abs",
            "sqrt": "np.sqrt", "exp": "np.exp", "log": "np.log",
            "floor": "np.floor", "pow": "np.power", "clamp": "np.clip",
        }
        if fn not in table:
            raise CodegenError(f"unknown intrinsic {fn!r}")
        lanes = any(map(self._lanes, args))
        if index and not lanes and fn in ("min", "max", "clamp"):
            # A scalar index: Python ints, not np.clip on a Python int.
            if fn == "clamp":
                return _Py(f"min(max({args[0]}, {args[1]}), {args[2]})", True)
            return _Py(f"{fn}({', '.join(args)})", True)
        return _Py(f"{table[fn]}({', '.join(args)})", True, lanes)

    def _access_py(self, access: Access, env: Dict[str, Value],
                   float_div: bool) -> Value:
        producer = access.computation
        env_q = {nm: self._val(e, env, float_div, not producer.inlined)
                 for nm, e in zip(producer.var_names, access.indices)}
        if producer.inlined:
            return self._val(producer.expr, env_q, producer.dtype.is_float)
        out = [self._val(e, env_q, False, True)
               for e in producer.store_indices()]
        cached = None
        if self.current_comp is not None:
            cached = self.current_comp.cached_reads.get(producer.name)
        if cached is not None:
            shared, origins, __ = cached
            return self._subscript(shared, self._rebased(out, origins))
        return self._subscript(producer.get_buffer(), out)

    def _rebased(self, idx: List[Value], origins) -> List[Value]:
        """Indices relative to a staging buffer's origin."""
        return [o - org if isinstance(o, LinExpr) else
                _Py(f"{_p(o)} - {_p(self._s(org))}", lanes=self._lanes(o))
                for o, org in zip(idx, origins)]

    def _subscript(self, buffer, idx: List[Value]) -> str:
        """``b_buf[...]``.  In a vector statement the one index that
        moves with the lane variable, if affine with a positive
        coefficient, is a basic slice; any other moving index is a lane
        vector; each non-affine index is computed once into a local."""
        vec = self._vec
        moving = [k for k, v in enumerate(idx) if self._lanes(v)]
        parts = []
        for k, v in enumerate(idx):
            if moving == [k] and isinstance(v, LinExpr) \
                    and v.coeff(vec.lane) >= 1:
                parts.append(self._slice_py(buffer, k, v))
                continue
            part = self._s(v)
            if vec is not None and not isinstance(v, LinExpr) \
                    and not part.isidentifier():
                if part not in vec.hoisted:
                    name = _Py(self.fresh("_i"), True, self._lanes(part))
                    vec.lines.append(f"{name} = {part}")
                    vec.hoisted[part] = name
                part = vec.hoisted[part]
            parts.append(part)
        return _Py(f"{_buf_var(buffer)}[{', '.join(parts)}]", True,
                   bool(moving))

    def _at(self, rest: LinExpr, coeff: int, bound: Value) -> str:
        """``rest + coeff*bound`` for a lane bound (LinExpr or local)."""
        if isinstance(bound, LinExpr):
            return lin_to_py(rest + bound * coeff, self.params)
        term = bound if coeff == 1 else f"{coeff}*{bound}"
        if not rest.coeffs and not rest.const:
            return term
        return f"{term} + {lin_to_py(rest, self.params)}".replace("+ -", "- ")

    def _slice_py(self, buffer, axis: int, le: LinExpr) -> str:
        vec = self._vec
        coeff = int(le.coeff(vec.lane))
        rest = LinExpr({d: c for d, c in le.coeffs.items() if d != vec.lane},
                       le.const)
        start = self._at(rest, coeff, vec.lo)
        stop = self._at(rest + 1, coeff, vec.hi)
        vec.sliced.setdefault(
            (_buf_var(buffer), axis, coeff, tuple(rest.coeffs.items())),
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
        kind = loop.tag.kind if loop.tag is not None else None
        comment = f"  # {kind} loop ({loop.var})" if kind else ""
        if kind == "vector":
            why = self._emit_vector(loop, lo, hi, f"vectorized ({loop.var})")
            if why is None:
                return "loop-nest"
            comment += f": scalar, {why}"
        elif kind == "parallel" and self._depth == 0 \
                and self._offload_safe(loop):
            self._emit_parallel_dispatch(loop, self._s(lo), self._s(hi))
            return "parallel"
        self.line(f"for t{loop.level} in range({self._span(lo, hi)}):"
                  f"{comment}")
        self.indent += 1
        self._depth += 1
        self.emit_block(loop.body)
        self._depth -= 1
        self.indent -= 1
        return "loop-nest"

    # -- parallel offload ---------------------------------------------------

    def _offload_safe(self, loop: Loop) -> bool:
        """Can this loop's body run in another process, given only
        ``_bufs``/``_params``?  Runtime operations (allocations rebind
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
        saved_buf, saved_indent = self.buf, self.indent
        self.buf, self.indent = io.StringIO(), 0
        var = f"t{loop.level}"
        obs_param = ", _obs=None" if self.profile else ""
        self.line(f"def {name}(_bufs, _params, _lo, _hi{obs_param}):")
        self.indent += 1
        self.emit_prologue()
        self.line(f"for {var} in range(_lo, _hi + 1):"
                  f"  # parallel chunk ({loop.var})")
        self.indent += 1
        self._depth += 1
        self.emit_block(loop.body)
        self._depth -= 1
        self.indent -= 1
        if self.profile:
            self.emit_profile_flush()
        self.indent -= 1
        src = self.buf.getvalue()
        self.buf, self.indent = saved_buf, saved_indent
        return src

    # -- task-graph tiling ---------------------------------------------------

    def try_taskgraph(self, ast: Block) -> Optional[int]:
        """Render the tile-execution support functions for the
        task-graph runtime (``execution="taskgraph"``), when the nest
        is eligible.

        Eligibility: the function is a single top-level loop nest whose
        body can run in a worker process (the same test as parallel
        offload), with parameter-only bounds on the clamped level(s)
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
        saved_buf, saved_indent = self.buf, self.indent
        self.buf, self.indent = io.StringIO(), 0
        self.line("def _tile_grid(_params):")
        self.indent += 1
        for p in self.params:
            self.line(f"{p} = _params[{p!r}]")
        pairs = []
        for loop in levels:
            lo = bounds_group_py(loop.lowers, self.params, True)
            hi = bounds_group_py(loop.uppers, self.params, False)
            pairs.append(f"({lo}, {hi})")
        self.line(f"return [{', '.join(pairs)}]")
        self.indent -= 1
        src = self.buf.getvalue()
        self.buf, self.indent = saved_buf, saved_indent
        return src

    def _render_tile_body(self, levels: List[Loop]) -> str:
        """``_tile_body(_bufs, _params, _lo0, _hi0[, _lo1, _hi1])``:
        the nest with the clamped levels intersected with the tile box
        (``max``/``min`` against the original bounds), everything
        deeper emitted unchanged.  Runs in a worker process against the
        shared staging buffers, exactly like a ``_par_body_k`` chunk."""
        saved_buf, saved_indent = self.buf, self.indent
        saved_depth = self._depth
        self.buf, self.indent, self._depth = io.StringIO(), 0, 0
        args = ", ".join(f"_lo{k}, _hi{k}" for k in range(len(levels)))
        self.line(f"def _tile_body(_bufs, _params, {args}):")
        self.indent += 1
        self.emit_prologue()
        for k, loop in enumerate(levels):
            lo = bounds_group_py(loop.lowers, self.params, True)
            hi = bounds_group_py(loop.uppers, self.params, False)
            lo, hi = f"max({lo}, _lo{k})", f"min({hi}, _hi{k})"
            note = f"tile dim ({loop.var})"
            if loop is levels[-1] and loop.tag is not None \
                    and loop.tag.kind == "vector" and self._emit_vector(
                        loop, lo, hi, note + ", vectorized") is None:
                break
            self.line(f"for t{loop.level} in range({self._span(lo, hi)}):"
                      f"  # {note}")
            self.indent += 1
            self._depth += 1
        else:
            self.emit_block(levels[-1].body)
        src = self.buf.getvalue()
        self.buf, self.indent = saved_buf, saved_indent
        self._depth = saved_depth
        return src

    # -- vectorization ----------------------------------------------------------

    def _emit_vector(self, loop: Loop, lo: Value, hi: Value,
                     note: str) -> Optional[str]:
        """Lower a ``vector``-tagged loop to whole-range statements, the
        fused body distributed in β order; returns None, or why the loop
        must stay scalar (nothing is emitted then)."""
        why = lane_verdict(self.fn, loop, self.lanes_verified)
        if why is not None:
            return why
        level = loop.level
        binds = []                  # non-affine bounds held in locals
        if not isinstance(lo, LinExpr):
            binds.append(f"_l{level} = {lo}")
            lo = _Py(f"_l{level}", True)
        if not isinstance(hi, LinExpr):
            binds.append(f"_h{level} = {hi}")
            hi = _Py(f"_h{level}", True)
        count = self._s(hi - lo + 1) if not binds \
            else f"{self._s(hi)} - {_p(self._s(lo))} + 1"
        vec = self._vec = _Lanes(level, lo, hi)
        try:
            from repro.ir.fold import fold
            for stmt in loop.body.children:
                comp = self.current_comp = stmt.comp
                env = self.stmt_env(comp)
                vec.hoisted = {}
                rhs = self.expr_py(fold(comp.expr), env, comp.dtype.is_float)
                vec.lines.append(f"{self._store_target(comp, env)} = {rhs}")
                if self.profile and comp.name in self._counters:
                    # One statement instance per vector lane.
                    vec.lines.append(
                        f"{self._counters[comp.name][0]} += {count}")
        except CodegenError:
            return "unsupported"
        finally:
            self._vec = None
        head = []
        if vec.need_arange:
            head.append(f"t{level} = np.arange({self._span(lo, hi)})")
        # A basic slice truncates where an index would raise: check the
        # extreme slice of every (buffer, axis) against the array.
        bad: Dict[str, None] = {}
        for (buf, axis, __, ___), ends in vec.sliced.items():
            start, stop = ends[min(ends)][0], ends[max(ends)][1]
            if not start.isdigit():           # not a constant >= 0
                bad[f"{start} < 0"] = None
            size = f"len({buf})" if axis == 0 else f"{buf}.shape[{axis}]"
            bad[f"{stop} > {size}"] = None
        if bad:
            head.append(f"if {' or '.join(bad)}: "
                        f"raise IndexError('vector loop {loop.var}')")
        lines = head + vec.lines
        if binds or not count.isdigit() or count == "0":
            # An empty range must run nothing (a negative stop would
            # wrap its slice around instead).
            lines = [f"if {self._s(lo)} <= {self._s(hi)}:"] + [
                "    " + ln for ln in lines]
        lines[0] += f"  # {note}"
        for ln in binds + lines:
            self.line(ln)
        return None

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
        if comp.predicate is not None:
            pred = self.expr_py(comp.predicate, env, comp.dtype.is_float)
            self.line(f"if {pred}:")
            self.indent += 1
            closes += 1
        if isinstance(comp, Operation):
            self.emit_operation(comp, env)
        else:
            from repro.ir.fold import fold
            rhs = self.expr_py(fold(comp.expr), env, comp.dtype.is_float)
            target = self._store_target(comp, env)
            self.line(f"{target} = {rhs}")
            if self.profile and comp.name in self._counters:
                self.line(f"{self._counters[comp.name][0]} += 1")
        self.indent -= closes

    def _store_target(self, comp, env: Dict[str, Value]) -> str:
        store_idx = [self._val(e, env, False, True)
                     for e in comp.store_indices()]
        if comp.cached_store is not None:
            shared, origins = comp.cached_store
            return self._subscript(shared, self._rebased(store_idx, origins))
        return self._subscript(comp.get_buffer(), store_idx)

    def emit_operation(self, op, env: Dict[str, Value]) -> None:
        """Backends override; the CPU backend handles alloc/copy ops."""
        kind = op.op_kind
        if kind == "allocate":
            buf = op.payload["buffer"]
            shape = ", ".join(self.expr_py(s, env, False)
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
            size = self.expr_py(src.sizes[k], {}, False)
            self.line(f"{o} = {lin_to_py(origin, self.params)}")
            lo = self.fresh("_lo")
            hi = self.fresh("_hi")
            self.line(f"{lo} = max(0, {o})")
            self.line(f"{hi} = min({size}, {o} + {extent})")
            src_slices.append(f"{lo}:{hi}")
            dst_slices.append(f"{lo} - {o}:{hi} - {o}")
        self.line(f"{_buf_var(dst)}[{', '.join(dst_slices)}] = "
                  f"{_buf_var(src)}[{', '.join(src_slices)}]")


def _buf_var(buffer) -> str:
    return f"b_{buffer.name}"
