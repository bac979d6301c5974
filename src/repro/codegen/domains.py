"""Preparation of scheduled iteration sets for loop synthesis.

*Exact* elimination of existential (div) dimensions from instance sets —
loop bounds and guards must be emitted over loop variables and
parameters only.  Elimination is refused (rather than approximated) when
it would change the integer set, so generated code is always correct.
Pieces are not coalesced here: the one multi-piece instance set the
compiler builds, ``compute_at``'s windows, is made one exact hull where
it is built (:func:`repro.core.schedule.apply_compute_at`).
"""

from __future__ import annotations

from typing import List

from repro.core.errors import CodegenError
from repro.isl import BasicSet, Set
from repro.isl.fourier_motzkin import eliminate_dim
from repro.isl.linexpr import DIV
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


def prepare_pieces(instances: Set) -> List[BasicSet]:
    """Div-eliminate and simplify the pieces of an instance set, dropping
    the empty ones."""
    pieces = [eliminate_divs_exact(p) for p in instances.pieces]
    pieces = [remove_redundant(p) for p in pieces]
    pieces = [p for p in pieces if not p.is_empty()]
    return pieces
