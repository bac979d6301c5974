"""The one type rule of the expression IR.

Every node evaluates in the type the emitted *scalar* ``cpu`` code
computes it in under NumPy >= 2 (NEP 50), so a backend that renders each
node in :func:`result_type` stores the same bits as that code:

* buffer reads and casts are **strong**: a
  :class:`~repro.ir.types.ScalarType`;
* iterators, parameters and literals are **weak** Python scalars, typed
  by their class (``bool``, ``int``, ``float``).  Python evaluates an
  operator over weak operands (``int`` stays ``int``, anything with a
  ``float`` — and every ``/`` — is ``float``); next to a strong operand
  a weak one takes its type, unless it is of a higher kind (weak
  ``float`` with a strong integer: ``float64``);
* two strong operands promote as NumPy promotes them, and an intrinsic
  or ``select`` always returns a strong value, of the default type
  (``int64`` / ``float64``) when every argument is weak.

The rule reads expressions in buffer terms: ``/`` is true division (the
``/`` of an integer computation is a ``//`` node by then) and an access
is the :class:`~repro.ir.expr.BufferRead`, or the inlined producer's
expression, that :func:`repro.core.access.resolve` made of it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple, Union

import numpy as np

from . import types as T
from .expr import (BinOp, BufferRead, Cast, Const, Expr, IterVar, ParamRef,
                   Select, UnOp)

Type = Union[T.ScalarType, type]

COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")
_PYTHON = ("+", "-", "*", "/", "//", "%", "neg", "and", "or") + COMPARISONS
_UFUNCS = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.true_divide,
    "//": np.floor_divide, "%": np.remainder, "neg": np.negative,
    "<": np.less, "<=": np.less_equal, ">": np.greater,
    ">=": np.greater_equal, "==": np.equal, "!=": np.not_equal,
    "min": np.minimum, "max": np.maximum, "abs": np.absolute,
    "sqrt": np.sqrt, "exp": np.exp, "log": np.log, "floor": np.floor,
    "pow": np.power,
}


def is_weak(t: Type) -> bool:
    return isinstance(t, type)


def strong(t: Type) -> T.ScalarType:
    """``t``, or the type NumPy gives a weak scalar on its own."""
    if is_weak(t):
        return T.float64 if t is float else T.boolean if t is bool else T.int64
    return t


@lru_cache(maxsize=None)      # keyed on operator x types: a small table
def combine(op: str, types: Tuple[Type, ...]) -> Tuple[Type, Type]:
    """``(operand type, result type)`` of ``op`` over operands of
    ``types``: what the operands are converted to, and what the value
    is.  ``op`` is an operator, ``"neg"``, ``"and"``/``"or"``, an
    intrinsic name, or ``"select"`` (over its two branches)."""
    if op in _PYTHON and all(map(is_weak, types)):
        operand = float if float in types else int
        if op in COMPARISONS or op in ("and", "or"):
            return operand, bool
        return (float, float) if op == "/" else (operand, operand)
    if op in ("and", "or"):
        return T.boolean, T.boolean
    if op in ("select", "clamp"):       # np.where / np.clip: plain promotion
        if op == "clamp":               # ... of an array: np.clip makes one
            types = (strong(types[0]),) + types[1:]
        out = np.result_type(*(t() if is_weak(t) else t.to_numpy()
                               for t in types))
        return (T.from_name(out.name),) * 2
    if op not in _UFUNCS:
        raise ValueError(f"unknown intrinsic {op!r}")
    found = _UFUNCS[op].resolve_dtypes(tuple(      # bool: the lowest kind
        t if t in (int, float) else strong(t).to_numpy() for t in types)
        + (None,))
    return T.from_name(found[0].name), T.from_name(found[-1].name)


def result_type(expr: Expr) -> Type:
    """The type ``expr`` evaluates in: an expression in buffer terms
    (:func:`repro.core.access.resolve`), or one that accesses no
    computation."""
    if isinstance(expr, Const):
        return type(expr.value)
    if isinstance(expr, (IterVar, ParamRef)):
        return int
    if isinstance(expr, Cast):
        return expr.dtype
    if isinstance(expr, BufferRead):
        return expr.buffer.dtype
    kids = tuple(map(result_type, expr.children()))
    if isinstance(expr, BinOp):
        op = expr.op
    elif isinstance(expr, Select):
        op, kids = "select", kids[1:]
    else:
        op = "neg" if isinstance(expr, UnOp) else expr.fn
    return combine(op, kids)[1]
