"""Layer III applied once: a computation in buffer terms.

At Layers I and II a consumer names its producer (``bx(i, j + 1)``, an
:class:`~repro.ir.expr.Access`); what runs reads and writes buffer
elements.  The rule that takes one to the other is this module, and
nothing else applies it:

* an access to a *stored* producer is a
  :class:`~repro.ir.expr.BufferRead` of ``producer.get_buffer()`` at
  ``producer.store_indices()`` with the access's arguments substituted
  for the producer's iterators;
* an access to an *inlined* producer is the producer's expression with
  the arguments substituted, resolved in turn;
* ``/`` is true division inside the expression of a float computation
  and floor division (a ``//`` node) everywhere else: in an integer
  computation, in every store index and in every operation payload.

:func:`resolve` is over the computation's own iterators and the
parameters only, so no scheduling command changes it; within a function
read it through :meth:`repro.core.deps.DependenceSummary.form`, which
holds it under the same content key as the dependences.  Rebasing onto a
staging buffer (``cached_reads`` / ``cached_store``) depends on the
schedule and stays with the emitters, applied to the resolved
``BufferRead`` by buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.ir.expr import Access, BinOp, BufferRead, Expr, substitute_exprs
from repro.ir.fold import fold


@dataclass(frozen=True)
class Resolved:
    """One computation as the statement ``store = value`` (``if
    predicate``) over buffers; no ``Access`` node is left in it."""

    #: The element written, or None for an input or an operation.
    store: Optional[BufferRead]
    #: The folded right-hand side (None where ``store`` is).
    value: Optional[Expr]
    predicate: Optional[Expr]
    #: Every element read, by ``value`` then by ``predicate``, each in
    #: pre-order, once for every place it is read.
    reads: Tuple[BufferRead, ...]


def buffer_terms(expr: Expr, is_float: bool) -> Expr:
    """``expr`` with its accesses resolved, as the expression of a float
    (``is_float``) or an integer computation evaluates it."""
    if isinstance(expr, Access):
        producer = expr.computation
        args = dict(zip(producer.var_names,
                        (buffer_terms(e, is_float) for e in expr.indices)))
        if producer.inlined:
            return substitute_exprs(
                buffer_terms(producer.expr, producer.dtype.is_float), args)
        return BufferRead(producer.get_buffer(), [
            substitute_exprs(integer(e), args)
            for e in producer.store_indices()])
    if isinstance(expr, BinOp) and expr.op == "/" and not is_float:
        return BinOp("//", integer(expr.lhs), integer(expr.rhs))
    return expr.map_children(lambda e: buffer_terms(e, is_float))


def integer(expr: Expr) -> Expr:
    """``expr`` as an index, a size or an offset evaluates it: accesses
    resolved, every ``/`` a ``//``."""
    return buffer_terms(expr, False)


def element(comp) -> BufferRead:
    """Where the value of ``comp(i, j, ...)`` lives — also for an input,
    which holds values it never stores."""
    return integer(comp(*comp.vars))


def resolve(comp) -> Resolved:
    """``comp`` in buffer terms (module docstring)."""
    is_float = comp.dtype.is_float
    store = value = None
    if comp.expr is not None:
        store = element(comp)
        value = fold(buffer_terms(comp.expr, is_float))
    predicate = None if comp.predicate is None \
        else buffer_terms(comp.predicate, is_float)
    return Resolved(store, value, predicate, tuple(
        node for e in (value, predicate) if e is not None
        for node in e.walk() if isinstance(node, BufferRead)))
