"""Preparation of scheduled iteration sets for loop synthesis.

Two responsibilities:

1. *Exact* elimination of existential (div) dimensions from instance
   sets — loop bounds and guards must be emitted over loop variables and
   parameters only.  Elimination is refused (rather than approximated)
   when it would change the integer set, so generated code is always
   correct.
2. Coalescing of overlapping union pieces (e.g. the shifted windows that
   ``compute_at`` produces for a stencil) into single convex pieces, so
   the generated loop nest does not re-execute instances.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.errors import CodegenError
from repro.isl import BasicSet, Constraint, Set
from repro.isl.fourier_motzkin import eliminate_dim
from repro.isl.linexpr import DIV, LinExpr
from repro.isl.simplify import remove_redundant


def eliminate_divs_exact(piece: BasicSet) -> BasicSet:
    """Remove all div dims, guaranteeing the integer set is unchanged.

    A div can be removed exactly when (a) it occurs in an equality with a
    ±1 coefficient (:meth:`~repro.isl.basic.BasicMap.drop_defined_divs`
    substitutes it away), or (b) every occurrence has a ±1 coefficient
    (Fourier-Motzkin is integer-exact for unit coefficients).  Strided
    sets (non-unit div coefficients everywhere) are rejected.
    """
    piece = piece.drop_defined_divs()
    cons = list(piece.constraints)
    remaining = set(range(piece.n_div))
    progress = True
    while remaining and progress:
        progress = False
        for idx in sorted(remaining):
            dim = (DIV, idx)
            if all(abs(int(c.expr.coeff(dim))) == 1
                   for c in cons if c.involves(dim)):
                cons = eliminate_dim(cons, dim)
                remaining.discard(idx)
                progress = True
                break
    if remaining:
        raise CodegenError(
            "cannot generate loops for a strided iteration set "
            f"(existential dims with non-unit coefficients): {piece!r}")
    return BasicSet(piece.space, cons, n_div=0)


def _try_merge(a: BasicSet, b: BasicSet) -> Optional[BasicSet]:
    """Merge two pieces into their common-constraint hull if that hull is
    exactly their union."""
    from repro.isl.simplify import _implied
    common: List[Constraint] = []
    for c in a.constraints:
        if _implied(list(b.constraints), c):
            common.append(c)
    for c in b.constraints:
        if c in common:
            continue
        if _implied(list(a.constraints), c):
            common.append(c)
    hull = BasicSet(a.space, common)
    # hull ⊇ a ∪ b by construction; check hull ⊆ a ∪ b.
    union = Set([a, b])
    if Set([hull]).is_subset(union):
        return remove_redundant(hull)
    return None


def prepare_pieces(instances: Set) -> List[BasicSet]:
    """Div-eliminate, simplify and coalesce the pieces of an instance set."""
    pieces = [eliminate_divs_exact(p) for p in instances.pieces]
    pieces = [remove_redundant(p) for p in pieces]
    pieces = [p for p in pieces if not p.is_empty()]
    changed = True
    while changed and len(pieces) > 1:
        changed = False
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                merged = _try_merge(pieces[i], pieces[j])
                if merged is not None:
                    pieces = ([p for k, p in enumerate(pieces)
                               if k not in (i, j)] + [merged])
                    changed = True
                    break
            if changed:
                break
    return pieces
