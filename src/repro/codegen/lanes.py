"""Lane safety of ``vector``-tagged loops: one predicate, three callers.

A loop may execute its iterations as SIMD lanes only if it carries no
dependence (paper Table II).  :func:`lane_verdict` decides that for one
AST loop and says *why* when the answer is no; the Python emitter
(:mod:`repro.codegen.pyemit`), the task-graph tile body and the CPU cost
model (:mod:`repro.machine.cpu_model`) all ask it, so what is priced as
vectorized is what is emitted as vectorized.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.affine import try_expr_to_linexpr
from repro.ir.expr import Expr, IterVar, accesses_in, substitute_exprs
from repro.isl.linexpr import IN, OUT, PARAM, LinExpr

from .ast import Loop, Stmt

#: One buffer access in time-space: an index vector, with None for an
#: index that is not affine in the loop variables and parameters.
Index = Tuple[Optional[LinExpr], ...]


def time_index(comp, exprs: Sequence[Expr]) -> Index:
    """Index expressions over ``comp``'s original variables as LinExprs
    over its time dims ``(OUT, k)`` and the function parameters."""
    dims = {p: (PARAM, i) for i, p in enumerate(comp.function.param_names)}
    dims.update({nm: (IN, k) for k, nm in enumerate(comp.var_names)})
    out: List[Optional[LinExpr]] = []
    for e in exprs:
        if isinstance(e, IterVar) and e.name in comp.rev:
            out.append(comp.rev[e.name])    # the common case, no algebra
            continue
        le = try_expr_to_linexpr(e, dims)
        if le is not None:
            for k, nm in enumerate(comp.var_names):
                le = le.substitute((IN, k), comp.rev[nm])
        out.append(le)
    return tuple(out)


def _reads(comp) -> List[Tuple[object, Index]]:
    """(buffer, index) of every buffer element ``comp`` reads, inlined
    producers expanded to what they read."""
    out: List[Tuple[object, Index]] = []
    todo = [comp.expr] + ([comp.predicate] if comp.predicate is not None
                          else [])
    while todo:
        for acc in accesses_in(todo.pop()):
            producer = acc.computation
            table = dict(zip(producer.var_names, acc.indices))
            if producer.inlined:
                todo.append(substitute_exprs(producer.expr, table))
                continue
            out.append((producer.get_buffer(), time_index(
                comp, [substitute_exprs(e, table)
                       for e in producer.store_indices()])))
    return out


def lane_verdict(fn, loop: Loop, verified: bool = False) -> Optional[str]:
    """None when ``loop`` can run lane-parallel, else the reason it
    cannot: ``nested-loop``, ``operation``, ``guard``, ``predicate``,
    ``store-not-driven`` (some statement's store does not move with the
    lane variable) or ``carried <kind> <src>-><sink> on <buf>``.

    The rule is "no dependence carried at this level".  A structural
    fast path settles the common case from LinExpr coefficients alone:
    if every access in the body to a buffer the body stores uses one
    and the same affine index vector, and that vector moves with the
    lane variable, two different lanes never touch the same element.
    Anything else (heat reading another row of the buffer it stores) is
    decided exactly by the function's
    :class:`~repro.core.deps.DependenceSummary`.  ``verified`` says the
    race-check stage already proved every ``vector``-tagged level clean,
    which answers both without looking at the reads.
    """
    from repro.core.computation import Operation
    stmts = loop.body.children
    if not stmts or not all(isinstance(s, Stmt) for s in stmts):
        return "nested-loop"
    lane = (OUT, loop.level)
    stored: Dict[int, Index] = {}
    structural = True
    for stmt in stmts:
        comp = stmt.comp
        if isinstance(comp, Operation):
            return "operation"
        if stmt.guards:
            return "guard"
        if comp.predicate is not None:
            return "predicate"
        store = time_index(comp, comp.store_indices())
        if not any(le is not None and le.coeff(lane) for le in store):
            return "store-not-driven"
        structural = (structural and None not in store and
                      stored.setdefault(id(comp.get_buffer()), store)
                      == store)
    if verified and all(getattr(s.comp.tags.get(loop.level), "kind", None)
                        == "vector" for s in stmts):
        return None
    if structural and all(stored.get(id(buf), idx) == idx
                          for stmt in stmts for buf, idx in _reads(stmt.comp)):
        return None
    from repro.core.deps import DependenceSummary
    summary = DependenceSummary.of(fn)
    for stmt in stmts:
        for dep in summary.carried(stmt.comp, loop.level):
            return (f"carried {dep.kind} {dep.source.name}->"
                    f"{dep.sink.name} on {dep.buffer.name}")
    return None
