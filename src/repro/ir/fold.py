"""Constant folding and algebraic simplification of expression trees.

Applied by the backends before emission: Tiramisu's fixed-size
specialization (Section VI-A) unrolls filter loops into long expression
chains where ``x * 1``, ``x + 0`` and constant subtrees are common.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .expr import (Access, BinOp, BufferRead, Call, Cast, Const, Expr,
                   IterVar, ParamRef, Select, UnOp)

_FOLDABLE_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if b != 0 else None,
    "//": lambda a, b: a // b if b != 0 else None,
    "%": lambda a, b: a % b if b != 0 else None,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

_FOLDABLE_CALLS = {
    "min": min,
    "max": max,
    "abs": abs,
}


def _const(node: Expr) -> Optional[object]:
    if isinstance(node, Const):
        return node.value
    return None


def fold(expr: Expr) -> Expr:
    """Return an equivalent expression with constants folded and
    identity operations removed."""
    expr = expr.map_children(fold)
    if isinstance(expr, BinOp):
        lhs, rhs = _const(expr.lhs), _const(expr.rhs)
        if lhs is not None and rhs is not None \
                and expr.op in _FOLDABLE_OPS:
            value = _FOLDABLE_OPS[expr.op](lhs, rhs)
            if value is not None:
                return Const(value)
        # Identity / absorbing elements.
        if expr.op == "+":
            if lhs == 0:
                return expr.rhs
            if rhs == 0:
                return expr.lhs
        elif expr.op == "-":
            if rhs == 0:
                return expr.lhs
        elif expr.op == "*":
            if lhs == 1:
                return expr.rhs
            if rhs == 1:
                return expr.lhs
            if lhs == 0 or rhs == 0:
                return Const(0.0 if isinstance(lhs if lhs is not None
                                               else rhs, float) else 0)
        elif expr.op in ("/", "//") and rhs == 1:
            return expr.lhs
        return expr
    if isinstance(expr, UnOp) and expr.op == "-":
        value = _const(expr.operand)
        if value is not None:
            return Const(-value)
        return expr
    if isinstance(expr, Call) and expr.fn == "clamp":
        value, lo, hi = expr.args
        low, high = _const(lo), _const(hi)
        if low is not None and high is not None and low > high:
            # np.clip and the C prelude both give hi here.  Its value
            # becomes the low bound too (a float if lo was one), so the
            # call keeps the type the three operands promote to; gcc 12
            # at -O3 -march=native miscompiles the crossed bounds.
            return Call("clamp", [value, Const(
                float(high) if isinstance(low, float) else high), hi])
        return expr
    if isinstance(expr, Call) and expr.fn in _FOLDABLE_CALLS:
        values = [_const(a) for a in expr.args]
        if all(v is not None for v in values):
            return Const(_FOLDABLE_CALLS[expr.fn](*values))
        return expr
    if isinstance(expr, Select):
        cond = _const(expr.cond)
        if cond is not None:
            return expr.if_true if cond else expr.if_false
        return expr
    if isinstance(expr, Cast):
        value = _const(expr.operand)
        if value is None:
            return expr
        held = _held(value, expr.dtype)
        if held == value:
            return Const(held)
        if isinstance(value, int) and not expr.dtype.is_float:
            # an integer out of the type's range: the cast wraps it, and
            # NumPy takes only an in-range literal (np.int8(300) raises)
            return Cast(expr.dtype, Const(held))
        return expr
    return expr


def _held(value, dtype):
    """``value`` as ``dtype`` holds it (rounded, truncated or wrapped),
    as a Python scalar; a cast of a constant folds only when this is the
    constant itself, since a weak literal keeps no rounding or wrap.  An
    int wraps in Python: NumPy takes none beyond 64 bits."""
    kind = dtype.to_numpy().kind
    if isinstance(value, int) and kind in "iu":
        wrapped = value % (1 << dtype.bits)
        signed = kind == "i" and wrapped >> (dtype.bits - 1)
        return wrapped - (1 << dtype.bits) if signed else wrapped
    with np.errstate(all="ignore"):
        return np.array(value).astype(dtype.to_numpy()).item()
