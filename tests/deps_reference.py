"""Test-only reference for :class:`repro.core.deps.DependenceSummary`.

The exhaustive formulation the summary replaced: every dependence is
re-derived from scratch, mapped into the *full* interleaved time vector
``[β0, t0, β1, t1, ..., βd]`` (β entries as constrained dimensions), and
every position of that vector is one emptiness question.  Slow, with no
memo and no integer shortcut — which is what makes it a reference.

:func:`reads` is the same kind of reference for
:func:`repro.core.access.resolve`: the Layer III rule written out in two
passes that keep the ``Access`` nodes.
"""

from repro.core.communication import tile_window
from repro.core.deps import _compute_dependences, full_schedule_map
from repro.core.errors import IllegalScheduleError
from repro.ir.expr import Access, BinOp, accesses_in, substitute_exprs
from repro.ir.fold import fold
from repro.isl import IN, OUT, PARAM, Constraint, LinExpr, Map
from repro.isl.sample import sample as isl_sample


def dependences(fn):
    return _compute_dependences(fn)


def reads(comp):
    """``(buffer, indices)`` of every element ``comp`` reads,
    once per place it reads it: expand the inlined producers (``/`` is
    ``//`` outside a float computation's expression), fold the value as
    the emitters do, then send each remaining access through its
    producer's store indices."""
    def expand(expr, is_float):
        if isinstance(expr, Access) and expr.computation.inlined:
            producer = expr.computation
            return substitute_exprs(
                expand(producer.expr, producer.dtype.is_float),
                dict(zip(producer.var_names,
                         (expand(e, is_float) for e in expr.indices))))
        if isinstance(expr, BinOp) and expr.op == "/" and not is_float:
            expr = BinOp("//", expr.lhs, expr.rhs)
        return expr.map_children(lambda e: expand(e, is_float))

    out = []
    for expr, tidy in ((comp.expr, fold), (comp.predicate, lambda e: e)):
        if expr is None:
            continue
        for acc in accesses_in(tidy(expand(expr, comp.dtype.is_float))):
            producer = acc.computation
            args = dict(zip(producer.var_names, acc.indices))
            out.append((producer.get_buffer(), tuple(
                tidy(substitute_exprs(expand(e, False), args))
                for e in producer.store_indices())))
    return out


def _time_relation(fn, dep):
    beta, depth = fn.resolve_order(), fn.max_depth()
    src = full_schedule_map(dep.source, beta[dep.source.name], depth)
    snk = full_schedule_map(dep.sink, beta[dep.sink.name], depth)
    return src.reverse().apply_range(dep.relation).apply_range(snk)


def _some(rel, pos, strict):
    """A pair equal on positions < pos and with strict >= 1 at pos?"""
    prefix = [Constraint.eq(LinExpr.dim(OUT, j) - LinExpr.dim(IN, j))
              for j in range(pos)]
    return any(not bm.add_constraints(
        prefix + [Constraint.ge(strict - 1)]).is_empty()
        for bm in rel.pieces)


def check_legality(fn, deps) -> int:
    """The old ``check_schedule_legality`` over ``deps``: same count,
    same message."""
    deps = [d for d in deps
            if d.source.anchor is None and d.sink.anchor is None]
    for dep in deps:
        rel = _time_relation(fn, dep)
        for pos in range(2 * fn.max_depth() + 1):
            if _some(rel, pos, LinExpr.dim(IN, pos) - LinExpr.dim(OUT, pos)):
                raise IllegalScheduleError(
                    f"schedule violates {dep.kind} dependence "
                    f"{dep.source.name} -> {dep.sink.name} on buffer "
                    f"{dep.buffer.name}")
    return len(deps)


def carried(fn, deps, comp, level):
    """Positions in ``deps`` of the dependences loop ``level`` of
    ``comp`` carries (the old ``carried_at_level``).  A dependence on
    the buffer of a producer that stores in a tile window allocated in
    loop ``l`` joins only instances whose time vectors agree up to
    ``t_l``."""
    out = []
    pos = 2 * level + 1
    for n, dep in enumerate(deps):
        if dep.source is not comp and dep.sink is not comp:
            continue
        rel = _time_relation(fn, dep)
        producer = dep.buffer.owner
        if producer is not None and tile_window(producer) is not None:
            rel = Map([bm.add_constraints([
                Constraint.eq(LinExpr.dim(OUT, j) - LinExpr.dim(IN, j))
                for j in range(2 * producer.anchor[1] + 2)])
                for bm in rel.pieces], rel.space)
        ahead = LinExpr.dim(OUT, pos) - LinExpr.dim(IN, pos)
        if _some(rel, pos, ahead) or _some(rel, pos, -ahead):
            out.append(n)
    return out


def distance(dep, params):
    """The old ``dependence_distance``, uncached."""
    if dep.source is not dep.sink and \
            len(dep.source.var_names) != len(dep.sink.var_names):
        return None
    n = len(dep.source.var_names)
    for bm in dep.relation.pieces:
        pt = isl_sample(bm.to_set(), dict(params))
        if pt is None:
            continue
        cand = tuple(pt[n + k] - pt[k] for k in range(n))
        for other in dep.relation.pieces:
            for k in range(n):
                diff = (LinExpr.dim(OUT, k) - LinExpr.dim(IN, k)
                        - LinExpr.constant(cand[k]))
                for strict in (diff - 1, -diff - 1):
                    test = other.add_constraint(Constraint.ge(strict))
                    for i, p in enumerate(test.space.params):
                        if p in params:
                            test = test.copy_with(constraints=[
                                c.substitute((PARAM, i),
                                             LinExpr.constant(params[p]))
                                for c in test.constraints])
                    if not test.is_empty():
                        return None
        return cand
    return None
