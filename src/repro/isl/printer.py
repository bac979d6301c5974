"""Pretty-printing of sets and maps in ISL notation."""

from __future__ import annotations

from itertools import compress
from typing import List

from .constraint import columns
from .linexpr import DIV


def _dim_label(bmap, kind: str, idx: int) -> str:
    if kind == DIV:
        return f"e{idx}"
    return bmap.space.dim_name(kind, idx)


def _side_to_str(bmap, terms, const: int) -> str:
    """One side of a printed constraint: ``terms`` are its (dim,
    positive coefficient) pairs in dim order, ``const`` is >= 0."""
    parts: List[str] = []
    for (kind, idx), c in terms:
        name = _dim_label(bmap, kind, idx)
        parts.append(name if c == 1 else f"{c}{name}")
    if const or not parts:
        parts.append(str(const))
    return " + ".join(parts)


def row_to_str(bmap, cols, is_eq: bool, row) -> str:
    # Present as lhs >= rhs / lhs = rhs, moving negative terms right.
    # Every compile fingerprint prints every domain, so the two sides
    # are read straight off the row: no LinExpr is built.
    terms = list(compress(zip(cols, row), row))
    const = row[-1]
    lhs = _side_to_str(bmap, [(d, v) for d, v in terms if v > 0],
                       max(const, 0))
    rhs = _side_to_str(bmap, [(d, -v) for d, v in terms if v < 0],
                       max(-const, 0))
    return f"{lhs} {'=' if is_eq else '>='} {rhs}"


def to_str(bmap) -> str:
    sp = bmap.space
    prefix = f"[{', '.join(sp.params)}] -> " if sp.params else ""
    out_tuple = f"{sp.out_name or ''}[{', '.join(sp.out_dims)}]"
    if sp.is_map:
        in_tuple = f"{sp.in_name or ''}[{', '.join(sp.in_dims)}]"
        head = f"{in_tuple} -> {out_tuple}"
    else:
        head = out_tuple
    cols, _ = columns(*bmap._shape())
    body_parts = [row_to_str(bmap, cols, e, r) for e, r in bmap.rows]
    if bmap.n_div:
        divs = ", ".join(f"e{k}" for k in range(bmap.n_div))
        body = " and ".join(body_parts) if body_parts else "true"
        return f"{prefix}{{ {head} : exists {divs} : {body} }}"
    if body_parts:
        return f"{prefix}{{ {head} : {' and '.join(body_parts)} }}"
    return f"{prefix}{{ {head} }}"


def union_to_str(pieces) -> str:
    if not pieces:
        return "{ }"
    return "; ".join(to_str(p) for p in pieces)
