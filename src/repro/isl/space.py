"""Spaces: the naming context for sets and maps.

A :class:`Space` records parameter names and the names of the input and
output tuples.  Sets are maps with no input tuple; their dimensions live in
the *output* tuple (matching the convention used by the ISL library, which
lets most code treat sets and maps uniformly).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from .linexpr import IN, OUT, PARAM


@dataclass(frozen=True)
class Space:
    """Naming context shared by all constraints of a set or map."""

    params: Tuple[str, ...] = ()
    in_dims: Optional[Tuple[str, ...]] = None
    out_dims: Tuple[str, ...] = ()
    in_name: Optional[str] = None
    out_name: Optional[str] = None

    def __post_init__(self):
        if self.in_dims is not None and self.in_name is None:
            object.__setattr__(self, "in_name", "")
        for group in (self.params, self.out_dims, self.in_dims or ()):
            if len(set(group)) != len(group):
                raise ValueError(f"duplicate dimension names in {group}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def set_space(cls, dims: Tuple[str, ...], name: Optional[str] = None,
                  params: Tuple[str, ...] = ()) -> "Space":
        return cls(params=tuple(params), in_dims=None, out_dims=tuple(dims),
                   out_name=name)

    @classmethod
    def map_space(cls, in_dims: Tuple[str, ...], out_dims: Tuple[str, ...],
                  in_name: Optional[str] = None,
                  out_name: Optional[str] = None,
                  params: Tuple[str, ...] = ()) -> "Space":
        return cls(params=tuple(params), in_dims=tuple(in_dims),
                   out_dims=tuple(out_dims), in_name=in_name,
                   out_name=out_name)

    # -- queries ----------------------------------------------------------

    @property
    def is_map(self) -> bool:
        return self.in_dims is not None

    def n(self, kind: str) -> int:
        if kind == PARAM:
            return len(self.params)
        if kind == IN:
            return len(self.in_dims or ())
        if kind == OUT:
            return len(self.out_dims)
        raise ValueError(f"unknown dim kind {kind!r}")

    def dim_name(self, kind: str, index: int) -> str:
        if kind == PARAM:
            return self.params[index]
        if kind == IN:
            return (self.in_dims or ())[index]
        if kind == OUT:
            return self.out_dims[index]
        raise ValueError(f"unknown dim kind {kind!r}")

    def find(self, name: str) -> Optional[Tuple[str, int]]:
        """Locate a named dimension; set/output dims shadow input dims,
        which shadow parameters (innermost scope wins)."""
        if name in self.out_dims:
            return (OUT, self.out_dims.index(name))
        if self.in_dims and name in self.in_dims:
            return (IN, self.in_dims.index(name))
        if name in self.params:
            return (PARAM, self.params.index(name))
        return None

    # -- derived spaces ---------------------------------------------------

    def domain(self) -> "Space":
        """The space of the domain of a map (a set space)."""
        if not self.is_map:
            raise ValueError("domain() requires a map space")
        return Space.set_space(self.in_dims, self.in_name, self.params)

    def range(self) -> "Space":
        if not self.is_map:
            raise ValueError("range() requires a map space")
        return Space.set_space(self.out_dims, self.out_name, self.params)

    def reverse(self) -> "Space":
        if not self.is_map:
            raise ValueError("reverse() requires a map space")
        return Space.map_space(self.out_dims, self.in_dims,
                               self.out_name, self.in_name, self.params)

    def with_params(self, params: Tuple[str, ...]) -> "Space":
        params = tuple(params)
        return self if params == self.params else replace(self,
                                                          params=params)

    def aligned_params(self, other: "Space") -> Tuple[str, ...]:
        """Union of both parameter lists, preserving this space's order."""
        merged = list(self.params)
        for p in other.params:
            if p not in merged:
                merged.append(p)
        return tuple(merged)

    def compatible_with(self, other: "Space") -> bool:
        """Structural compatibility: same arity and tuple names."""
        return (self.is_map == other.is_map
                and len(self.out_dims) == len(other.out_dims)
                and len(self.in_dims or ()) == len(other.in_dims or ())
                and self.out_name == other.out_name
                and self.in_name == other.in_name)

    def __repr__(self) -> str:
        p = f"[{', '.join(self.params)}] -> " if self.params else ""
        out = f"{self.out_name or ''}[{', '.join(self.out_dims)}]"
        if self.is_map:
            inp = f"{self.in_name or ''}[{', '.join(self.in_dims)}]"
            return f"{p}{{ {inp} -> {out} }}"
        return f"{p}{{ {out} }}"
