"""Linear (affine) expressions over the dimensions of a space.

A :class:`LinExpr` is an integer affine expression ``sum_d coeff[d] * d +
const`` where each dimension ``d`` is referenced positionally by a
``(kind, index)`` pair rather than by name.  Referencing dimensions by
position (the same convention the ISL library uses internally) makes
expressions immune to name collisions between the input and output tuples
of a map, and makes renaming a pure-printing concern.

Dimension kinds:

``"p"``
    a symbolic parameter (e.g. the ``N`` in ``[N] -> { S[i] : i < N }``),
``"i"``
    an input dimension of a map,
``"o"``
    an output dimension of a map, or the set dimensions of a set,
``"d"``
    an existentially quantified (division) dimension.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, Mapping, Tuple, Union

Dim = Tuple[str, int]
Coeff = Union[int, Fraction]

PARAM = "p"
IN = "i"
OUT = "o"
DIV = "d"

_KINDS = (PARAM, IN, OUT, DIV)


def _check_dim(dim: Dim) -> None:
    if not (isinstance(dim, tuple) and len(dim) == 2 and dim[0] in _KINDS
            and isinstance(dim[1], int) and dim[1] >= 0):
        raise ValueError(f"invalid dimension reference: {dim!r}")


class LinExpr:
    """An integer/rational affine expression, immutable by convention:
    every operation returns a new expression and nothing assigns to one
    after construction (``__eq__``/``__hash__`` rely on it).

    Coefficients are kept as exact ``int`` or ``Fraction`` values; most of
    the library normalises to integers (see :meth:`scaled_to_int`).
    """

    __slots__ = ("coeffs", "const", "_hash")

    def __init__(self, coeffs: Mapping[Dim, Coeff] = (), const: Coeff = 0):
        items: Dict[Dim, Coeff] = {}
        for dim, c in dict(coeffs).items():
            _check_dim(dim)
            if c != 0:
                items[dim] = c
        self.coeffs: Mapping[Dim, Coeff] = dict(sorted(items.items()))
        self.const = const
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def _of(coeffs: Dict[Dim, Coeff], const: Coeff,
            normal: bool = False) -> "LinExpr":
        """Arithmetic's constructor: ``coeffs`` holds dims of existing
        expressions (nothing to validate); ``normal`` says it is already
        free of zeros and in dim order, as another expression's is."""
        expr = LinExpr.__new__(LinExpr)
        expr.coeffs = coeffs if normal else dict(sorted(
            (d, c) for d, c in coeffs.items() if c != 0))
        expr.const = const
        expr._hash = None
        return expr

    @classmethod
    def constant(cls, value: Coeff) -> "LinExpr":
        return cls({}, value)

    @classmethod
    def dim(cls, kind: str, index: int, coeff: Coeff = 1) -> "LinExpr":
        return cls({(kind, index): coeff}, 0)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: Union["LinExpr", int, Fraction]) -> "LinExpr":
        if isinstance(other, (int, Fraction)):
            return LinExpr._of(self.coeffs, self.const + other, True)
        coeffs = dict(self.coeffs)
        for dim, c in other.coeffs.items():
            coeffs[dim] = coeffs.get(dim, 0) + c
        return LinExpr._of(coeffs, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr._of({d: -c for d, c in self.coeffs.items()},
                           -self.const, True)

    def __sub__(self, other: Union["LinExpr", int, Fraction]) -> "LinExpr":
        if isinstance(other, (int, Fraction)):
            return LinExpr._of(self.coeffs, self.const - other, True)
        coeffs = dict(self.coeffs)
        for dim, c in other.coeffs.items():
            coeffs[dim] = coeffs.get(dim, 0) - c
        return LinExpr._of(coeffs, self.const - other.const)

    def __rsub__(self, other: Union[int, Fraction]) -> "LinExpr":
        return (-self) + other

    def __mul__(self, scalar: Coeff) -> "LinExpr":
        if scalar == 0:
            return LinExpr()
        return LinExpr._of({d: c * scalar for d, c in self.coeffs.items()},
                           self.const * scalar, True)

    __rmul__ = __mul__

    # -- queries ---------------------------------------------------------

    def coeff(self, dim: Dim) -> Coeff:
        return self.coeffs.get(dim, 0)

    def is_constant(self) -> bool:
        return not self.coeffs

    def dims(self) -> Iterable[Dim]:
        return self.coeffs.keys()

    def involves(self, dim: Dim) -> bool:
        return dim in self.coeffs

    def involves_kind(self, kind: str) -> bool:
        return any(d[0] == kind for d in self.coeffs)

    def content(self) -> int:
        """GCD of all coefficients and the constant (0 for the zero expr)."""
        g = 0
        for c in self.coeffs.values():
            g = gcd(g, abs(int(c)))
        return gcd(g, abs(int(self.const)))

    def coeff_gcd(self) -> int:
        """GCD of the variable coefficients only (excluding the constant)."""
        g = 0
        for c in self.coeffs.values():
            g = gcd(g, abs(int(c)))
        return g

    def is_integral(self) -> bool:
        return all(Fraction(c).denominator == 1 for c in self.coeffs.values()) \
            and Fraction(self.const).denominator == 1

    def scaled_to_int(self) -> "LinExpr":
        """Multiply through by the LCM of denominators, returning an
        integer-coefficient expression that defines the same hyperplane."""
        if type(self.const) is int and all(
                type(c) is int for c in self.coeffs.values()):
            return self         # always, outside the parser's rationals
        denoms = [Fraction(c).denominator for c in self.coeffs.values()]
        denoms.append(Fraction(self.const).denominator)
        lcm = 1
        for d in denoms:
            lcm = lcm * d // gcd(lcm, d)
        scaled = self * lcm
        return LinExpr({d: int(c) for d, c in scaled.coeffs.items()},
                       int(scaled.const))

    def divided_by_content(self) -> "LinExpr":
        g = self.content()
        if g <= 1:
            return self
        return LinExpr({d: int(c) // g for d, c in self.coeffs.items()},
                       int(self.const) // g)

    # -- substitution / remapping ------------------------------------

    def substitute(self, dim: Dim, replacement: "LinExpr") -> "LinExpr":
        """Replace ``dim`` with the affine expression ``replacement``."""
        c = self.coeffs.get(dim, 0)
        if c == 0:
            return self
        base = LinExpr._of(
            {d: v for d, v in self.coeffs.items() if d != dim},
            self.const, True)
        return base + replacement * c

    def remap(self, mapping: Mapping[Dim, Dim]) -> "LinExpr":
        """Rename dimensions according to ``mapping`` (identity if absent).

        Two distinct source dims mapping to the same target accumulate.
        """
        coeffs: Dict[Dim, Coeff] = {}
        for dim, c in self.coeffs.items():
            tgt = mapping.get(dim, dim)
            coeffs[tgt] = coeffs.get(tgt, 0) + c
        return LinExpr(coeffs, self.const)

    def evaluate(self, values: Mapping[Dim, Coeff]) -> Coeff:
        total = self.const
        for dim, c in self.coeffs.items():
            total += c * values[dim]
        return total

    # -- dunder plumbing ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LinExpr)
                and self.coeffs == other.coeffs
                and self.const == other.const)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((tuple(self.coeffs.items()), self.const))
        return self._hash

    def __repr__(self) -> str:
        parts = []
        for (kind, idx), c in self.coeffs.items():
            parts.append(f"{c}*{kind}{idx}")
        parts.append(str(self.const))
        return " + ".join(parts)
