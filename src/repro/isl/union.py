"""Finite unions of basic sets and basic maps.

:class:`Set` and :class:`Map` mirror the ISL types ``isl_set`` and
``isl_map``: a disjunction of :class:`~repro.isl.basic.BasicSet` /
:class:`~repro.isl.basic.BasicMap` pieces over a common space.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .basic import BasicMap, BasicSet
from .constraint import Row, Rows, normal, trivially_false
from .space import Space


class Map:
    """A union of basic maps sharing one space."""

    piece_type = BasicMap

    __slots__ = ("space", "pieces", "_repr")

    def __init__(self, pieces: Iterable[BasicMap], space: Optional[Space] = None):
        pieces = [p for p in pieces]
        if space is None:
            if not pieces:
                raise ValueError("empty union needs an explicit space")
            space = pieces[0].space
        params = space.params
        for p in pieces:
            if p.space is not space and not p.space.compatible_with(space):
                raise ValueError(
                    f"piece space {p.space!r} incompatible with {space!r}")
            if p.space.params != params:
                params += tuple(q for q in p.space.params
                                if q not in params)
        space = space.with_params(params)
        self.space = space
        self.pieces: Tuple[BasicMap, ...] = tuple(
            p.align_params(params) for p in pieces)
        self._repr: Optional[str] = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_basic(cls, piece: BasicMap) -> "Map":
        return cls([piece])

    @classmethod
    def empty(cls, space: Space) -> "Map":
        return cls([], space)

    @classmethod
    def universe(cls, space: Space) -> "Map":
        return cls([cls.piece_type.universe(space)])

    # -- plumbing --------------------------------------------------------

    def _wrap(self, pieces: Sequence[BasicMap], space: Optional[Space] = None
              ) -> "Map":
        if space is None:
            space = pieces[0].space if pieces else self.space
        cls = Map if space.is_map else Set
        return cls(pieces, space)

    def map_pieces(self, fn: Callable[[BasicMap], BasicMap],
                   space_fn: Callable[[Space], Space] = None) -> "Map":
        pieces = [fn(p) for p in self.pieces]
        space = space_fn(self.space) if space_fn else \
            (pieces[0].space if pieces else self.space)
        return self._wrap(pieces, space)

    # -- algebra -----------------------------------------------------------

    def union(self, other: "Map") -> "Map":
        return self._wrap(list(self.pieces) + list(other.pieces),
                          self.space)

    __or__ = union

    def intersect(self, other: "Map") -> "Map":
        pieces = [a.intersect(b) for a in self.pieces for b in other.pieces]
        pieces = [p for p in pieces if not _quick_empty(p)]
        return self._wrap(pieces, self.space)

    __and__ = intersect

    def subtract(self, other: "Map") -> "Map":
        """Exact difference; requires the subtrahend pieces be div-free.
        Every set the scheduling commands build is, strided sets aside:
        the operations that hide dims end in ``drop_defined_divs``.
        Empty parts are dropped after each subtrahend piece, before the
        next one splits them again, so no piece of the result is empty."""
        result = list(self.pieces)
        if not other.pieces:
            result = [p for p in result if not p.is_empty()]
        for b in other.pieces:
            if b.n_div:
                raise NotImplementedError(
                    "subtract with existential dims in the subtrahend")
            result = [p for a in result for p in _basic_subtract(a, b)
                      if not p.is_empty()]
        return self._wrap(result, self.space)

    __sub__ = subtract

    # -- queries ----------------------------------------------------------

    def is_empty(self) -> bool:
        return all(p.is_empty() for p in self.pieces)

    def is_subset(self, other: "Map") -> bool:
        return not self.subtract(other).pieces

    def is_equal(self, other: "Map") -> bool:
        return self.is_subset(other) and other.is_subset(self)

    def contains_point(self, *args, **kwargs) -> bool:
        return any(p.contains_point(*args, **kwargs) for p in self.pieces)

    # -- map structure ----------------------------------------------------

    def reverse(self) -> "Map":
        return self.map_pieces(lambda p: p.reverse(),
                               lambda s: s.reverse())

    def domain(self) -> "Set":
        return Set([p.domain() for p in self.pieces], self.space.domain())

    def range(self) -> "Set":
        return Set([p.range() for p in self.pieces], self.space.range())

    def apply(self, sset: "Set") -> "Set":
        pieces = [p.apply(b) for p in self.pieces for b in sset.pieces]
        return Set(pieces, self.space.range())

    def apply_range(self, other: "Map") -> "Map":
        pieces = [a.apply_range(b)
                  for a in self.pieces for b in other.pieces]
        space = Space(self.space.params, self.space.in_dims,
                      other.space.out_dims, self.space.in_name,
                      other.space.out_name)
        return Map(pieces, space)

    def intersect_domain(self, sset: "Set") -> "Map":
        pieces = [a.intersect_domain(b)
                  for a in self.pieces for b in sset.pieces]
        return self._wrap(pieces, self.space)

    def intersect_range(self, sset: "Set") -> "Map":
        pieces = [a.intersect_range(b)
                  for a in self.pieces for b in sset.pieces]
        return self._wrap(pieces, self.space)

    def to_set(self) -> "Set":
        pieces = [p.to_set() for p in self.pieces]
        if pieces:
            return Set(pieces)
        n = len(self.space.in_dims) + len(self.space.out_dims)
        return Set([], Space.set_space(tuple(f"x{k}" for k in range(n)),
                                       None, self.space.params))

    def coalesce(self) -> "Map":
        """Drop empty pieces and exact duplicates (``==``, structural).
        A piece contained in another, or covered by several, stays: no
        subset test is run (``simple_hull`` merges pieces whose union is
        convex)."""
        kept: List[BasicMap] = []
        for p in self.pieces:
            if p.is_empty():
                continue
            kept.append(p)
        # Remove exact duplicates.
        uniq: List[BasicMap] = []
        for p in kept:
            if not any(p == q for q in uniq):
                uniq.append(p)
        return self._wrap(uniq, self.space)

    def __repr__(self) -> str:
        # Printed once: the compile fingerprint prints every domain, and
        # the warm tiers fingerprint one function up to three times.
        if self._repr is None:
            from .printer import union_to_str
            self._repr = union_to_str(self.pieces)
        return self._repr

    def __getstate__(self):
        # the printed form is a memo, not content: a pickle is the same
        # size whether or not the map was ever printed
        return None, {"space": self.space, "pieces": self.pieces,
                      "_repr": None}

    def __iter__(self):
        return iter(self.pieces)

    def __eq__(self, other: object) -> bool:
        """Structural equality, consistent with ``BasicMap.__eq__``: same
        space and the same *set* of pieces (order- and duplicate-
        insensitive, like the per-piece constraint comparison).  Note
        this is finer than :meth:`is_equal`, which compares the
        mathematical point sets; two structurally different descriptions
        of one set are ``is_equal`` but not ``==``."""
        return (isinstance(other, Map)
                and self.space == other.space
                and frozenset(self.pieces) == frozenset(other.pieces))

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self.pieces)))


class Set(Map):
    """A union of basic sets."""

    piece_type = BasicSet

    def __init__(self, pieces: Iterable[BasicSet], space: Optional[Space] = None):
        super().__init__(pieces, space)
        if self.space.is_map:
            raise ValueError("Set requires a set space")

    def identity_map(self) -> Map:
        return Map([p.identity_map() for p in self.pieces],
                   Space.map_space(self.space.out_dims, self.space.out_dims,
                                   self.space.out_name, self.space.out_name,
                                   self.space.params))


def _quick_empty(p: BasicMap) -> bool:
    # an inequality with a nonnegative constant is never trivially false
    return any((e or r[-1] < 0) and trivially_false(e, r) for e, r in p.rows)


def _basic_subtract(a: BasicMap, b: BasicMap) -> List[BasicMap]:
    """a minus b for div-free b: union over negations of b's constraints.

    ``a - b = union_k (a and c_0 and ... c_{k-1} and not c_k)`` which keeps
    the pieces disjoint.
    """
    aligned_params = a.space.aligned_params(b.space)
    a = a.align_params(aligned_params)
    b = b.align_params(aligned_params)
    # a constraint of b that a holds at least as tightly (parallel, with
    # no larger constant) has an empty negation there: no piece, and no
    # need to repeat it in the later pieces
    tightest = {}
    for is_eq, row in a.rows:
        key = (is_eq, row[:-1])
        tightest[key] = min(tightest.get(key, row[-1]), row[-1])
    out: List[BasicMap] = []
    prefix: Rows = []
    for is_eq, row in b._relayout(a._shape()):
        held = tightest.get((is_eq, row[:-1]))
        if held is not None and (held == row[-1] if is_eq
                                 else held <= row[-1]):
            continue
        for neg in _negate(is_eq, row):
            piece = a._with(a.rows + tuple(prefix) + (neg,))
            if not _quick_empty(piece):
                out.append(piece)
        prefix.append((is_eq, row))
    return out


def _negate(is_eq: bool, row: Row) -> Rows:
    """Integer negation: not(e >= 0) is -e - 1 >= 0;
    not(e = 0) is e - 1 >= 0 or -e - 1 >= 0."""
    neg = tuple([-v for v in row])
    below = (False, normal(False, neg[:-1] + (neg[-1] - 1,)))
    if not is_eq:
        return [below]
    return [(False, normal(False, row[:-1] + (row[-1] - 1,))), below]
