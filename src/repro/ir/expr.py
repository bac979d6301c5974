"""The expression IR used in computation bodies (Layer I expressions).

Expressions are built by operator overloading on :class:`Expr` subclasses
(and on :class:`repro.core.var.Var` / computation accesses, which produce
these nodes).  The tree is architecture-independent; backends lower it to
Python/NumPy source, and the dependence analyser extracts affine access
relations from :class:`Access` nodes.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Expr:
    """Base class for all expression nodes."""

    __slots__ = ()

    # -- arithmetic operators -------------------------------------------

    def __add__(self, other):
        return BinOp("+", self, wrap(other))

    def __radd__(self, other):
        return BinOp("+", wrap(other), self)

    def __sub__(self, other):
        return BinOp("-", self, wrap(other))

    def __rsub__(self, other):
        return BinOp("-", wrap(other), self)

    def __mul__(self, other):
        return BinOp("*", self, wrap(other))

    def __rmul__(self, other):
        return BinOp("*", wrap(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, wrap(other))

    def __rtruediv__(self, other):
        return BinOp("/", wrap(other), self)

    def __floordiv__(self, other):
        return BinOp("//", self, wrap(other))

    def __rfloordiv__(self, other):
        return BinOp("//", wrap(other), self)

    def __mod__(self, other):
        return BinOp("%", self, wrap(other))

    def __rmod__(self, other):
        return BinOp("%", wrap(other), self)

    def __neg__(self):
        return UnOp("-", self)

    # -- comparisons (for predicates and select conditions) --------------

    def __lt__(self, other):
        return BinOp("<", self, wrap(other))

    def __le__(self, other):
        return BinOp("<=", self, wrap(other))

    def __gt__(self, other):
        return BinOp(">", self, wrap(other))

    def __ge__(self, other):
        return BinOp(">=", self, wrap(other))

    def eq(self, other):
        return BinOp("==", self, wrap(other))

    def ne(self, other):
        return BinOp("!=", self, wrap(other))

    def logical_and(self, other):
        return BinOp("and", self, wrap(other))

    def logical_or(self, other):
        return BinOp("or", self, wrap(other))

    # -- traversal --------------------------------------------------------

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterable["Expr"]:
        """Every node of the tree, pre-order."""
        todo = [self]
        while todo:
            node = todo.pop()
            yield node
            todo.extend(reversed(node.children()))

    def map_children(self, fn: Callable[["Expr"], "Expr"]) -> "Expr":
        return self


class Const(Expr):
    """A literal constant."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return repr(self.value)


class IterVar(Expr):
    """Reference to an iteration variable by name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


class ParamRef(Expr):
    """Reference to a symbolic size parameter (invariant scalar input)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


class Access(Expr):
    """Access to a computation (or input) at affine (or clamped) indices."""

    __slots__ = ("computation", "indices")

    def __init__(self, computation, indices: Sequence[Expr]):
        self.computation = computation
        self.indices = tuple(wrap(e) for e in indices)

    def children(self):
        return self.indices

    def map_children(self, fn):
        return Access(self.computation, [fn(e) for e in self.indices])

    def __repr__(self):
        idx = ", ".join(repr(e) for e in self.indices)
        return f"{self.computation.name}({idx})"


class BufferRead(Expr):
    """Direct read of a buffer element (used after data-layout lowering)."""

    __slots__ = ("buffer", "indices")

    def __init__(self, buffer, indices: Sequence[Expr]):
        self.buffer = buffer
        self.indices = tuple(wrap(e) for e in indices)

    def children(self):
        return self.indices

    def map_children(self, fn):
        return BufferRead(self.buffer, [fn(e) for e in self.indices])

    def __repr__(self):
        idx = ", ".join(repr(e) for e in self.indices)
        return f"{self.buffer.name}[{idx}]"


class BinOp(Expr):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def children(self):
        return (self.lhs, self.rhs)

    def map_children(self, fn):
        return BinOp(self.op, fn(self.lhs), fn(self.rhs))

    def __repr__(self):
        return f"({self.lhs!r} {self.op} {self.rhs!r})"


class UnOp(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        self.op = op
        self.operand = operand

    def children(self):
        return (self.operand,)

    def map_children(self, fn):
        return UnOp(self.op, fn(self.operand))

    def __repr__(self):
        return f"({self.op}{self.operand!r})"


class Call(Expr):
    """Intrinsic call: min, max, abs, sqrt, exp, log, floor, pow, ..."""

    __slots__ = ("fn", "args")

    def __init__(self, fn: str, args: Sequence[Expr]):
        self.fn = fn
        self.args = tuple(wrap(a) for a in args)

    def children(self):
        return self.args

    def map_children(self, f):
        return Call(self.fn, [f(a) for a in self.args])

    def __repr__(self):
        return f"{self.fn}({', '.join(repr(a) for a in self.args)})"


class Select(Expr):
    """select(cond, if_true, if_false) — a value-level conditional."""

    __slots__ = ("cond", "if_true", "if_false")

    def __init__(self, cond: Expr, if_true, if_false):
        self.cond = wrap(cond)
        self.if_true = wrap(if_true)
        self.if_false = wrap(if_false)

    def children(self):
        return (self.cond, self.if_true, self.if_false)

    def map_children(self, fn):
        return Select(fn(self.cond), fn(self.if_true), fn(self.if_false))

    def __repr__(self):
        return f"select({self.cond!r}, {self.if_true!r}, {self.if_false!r})"


class Cast(Expr):
    __slots__ = ("dtype", "operand")

    def __init__(self, dtype, operand: Expr):
        self.dtype = dtype
        self.operand = wrap(operand)

    def children(self):
        return (self.operand,)

    def map_children(self, fn):
        return Cast(self.dtype, fn(self.operand))

    def __repr__(self):
        return f"cast({self.dtype}, {self.operand!r})"


def wrap(value) -> Expr:
    """Coerce Python scalars and DSL objects into expression nodes."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, bool)):
        return Const(value)
    # Anything exposing a name through .expr() (core.Var, halide HVar).
    if hasattr(value, "expr") and hasattr(value, "name"):
        return value.expr()
    raise TypeError(f"cannot use {value!r} in a Tiramisu expression")


# -- convenience intrinsics ------------------------------------------------

def minimum(a, b) -> Expr:
    return Call("min", [a, b])


def maximum(a, b) -> Expr:
    return Call("max", [a, b])


def absolute(a) -> Expr:
    return Call("abs", [a])


def sqrt(a) -> Expr:
    return Call("sqrt", [a])


def exp(a) -> Expr:
    return Call("exp", [a])


def log(a) -> Expr:
    return Call("log", [a])


def floor(a) -> Expr:
    return Call("floor", [a])


def pow_(a, b) -> Expr:
    return Call("pow", [a, b])


def clamp(value, lo, hi) -> Expr:
    """clamp(i, lo, hi): the paper's boundary-handling idiom (Section VI-B).

    Non-affine as an index expression; the dependence analyser
    over-approximates it by the full extent, as described in Section V-B.
    """
    return Call("clamp", [value, lo, hi])


def select(cond, if_true, if_false) -> Expr:
    return Select(cond, if_true, if_false)


def cast(dtype, value) -> Expr:
    return Cast(dtype, value)


# -- analysis helpers -------------------------------------------------------

def accesses_in(expr: Expr) -> List[Access]:
    """All computation accesses in an expression tree."""
    return [node for node in expr.walk() if isinstance(node, Access)]


def substitute_exprs(expr: Expr, table: Dict[str, Expr]) -> Expr:
    """Replace IterVar/ParamRef nodes by name according to ``table``."""
    if isinstance(expr, (IterVar, ParamRef)) and expr.name in table:
        return table[expr.name]
    return expr.map_children(lambda e: substitute_exprs(e, table))
