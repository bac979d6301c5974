"""Test-only reference for :class:`repro.core.deps.DependenceSummary`.

The exhaustive formulation the summary replaced: every dependence is
re-derived from scratch, mapped into the *full* interleaved time vector
``[β0, t0, β1, t1, ..., βd]`` (β entries as constrained dimensions), and
every position of that vector is one emptiness question.  Slow, with no
memo and no integer shortcut — which is what makes it a reference.
"""

from repro.core.deps import _compute_dependences, full_schedule_map
from repro.core.errors import IllegalScheduleError
from repro.isl import IN, OUT, PARAM, Constraint, LinExpr
from repro.isl.sample import sample as isl_sample


def dependences(fn):
    return _compute_dependences(fn)


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
    ``comp`` carries (the old ``carried_at_level``)."""
    out = []
    pos = 2 * level + 1
    for n, dep in enumerate(deps):
        if dep.source is not comp and dep.sink is not comp:
            continue
        rel = _time_relation(fn, dep)
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
