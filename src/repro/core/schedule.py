"""Implementations of the scheduling commands (paper Table II).

Every computation carries a *time representation*:

- ``time_names``  — names of its current dynamic loop dimensions,
- ``instances``   — an ISL set over those dimensions: every instance that
  will execute (this grows under ``compute_at``, which introduces
  redundant computation — the paper's overlapped tiling),
- ``rev``         — for each original iteration-domain dimension, an
  affine expression over the time dimensions recovering its value (needed
  to evaluate the computation's body inside transformed loops),
- ``tags``        — per-dimension hardware tags (parallel / vector /
  unroll / gpu block / gpu thread / distributed),
- ordering directives, resolved into static (β) dimensions at lowering.

Commands for loop transformations rewrite ``instances``/``rev``/``tags``
by applying affine maps, exactly as Section V-a describes: "the first type
of scheduling command applies a map that transforms the iteration domain",
and composition of commands is composition of maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isl import (DIV, IN, OUT, PARAM, BasicMap, BasicSet, Constraint,
                       LinExpr, Map, Set, Space, simple_hull)
from repro.isl.fourier_motzkin import eliminate_dims
from repro.isl.simplify import remove_redundant

from .errors import ScheduleError, UnsupportedScheduleError


@dataclass(frozen=True)
class Tag:
    """A hardware mapping tag on a loop dimension."""

    kind: str                 # parallel|vector|unroll|gpu_block|gpu_thread|distributed
    factor: Optional[int] = None

    def __repr__(self):
        return f"{self.kind}" + (f"({self.factor})" if self.factor else "")


def _set_map_pieces(instances: Set, bmap: BasicMap) -> Set:
    """Apply a basic map to every piece of a union set."""
    return Map.from_basic(bmap).apply(instances)


def level_index(comp, level) -> int:
    """Resolve a loop-level argument (Var, name, or index) to a dim index."""
    from .var import Var
    if isinstance(level, int):
        if not 0 <= level < len(comp.time_names):
            raise ScheduleError(
                f"{comp.name}: loop level {level} out of range "
                f"(levels: {comp.time_names})")
        return level
    name = level.name if isinstance(level, Var) else level
    try:
        return comp.time_names.index(name)
    except ValueError:
        raise ScheduleError(
            f"{comp.name}: no loop level named {name!r} "
            f"(levels: {comp.time_names})") from None


def _time_space(comp, names: Sequence[str]) -> Space:
    return Space.set_space(tuple(names), comp.name, comp.function.param_names)


def _shift_tags(tags: Dict[int, Tag], at: int, by: int) -> Dict[int, Tag]:
    return {(k + by if k >= at else k): v for k, v in tags.items()}


# -- elementary loop-nest transformations -----------------------------------


def apply_split(comp, level, factor: int, outer_name: str,
                inner_name: str) -> None:
    """split(i, s, i0, i1): i0 = floor(i / s), i1 = i mod s."""
    l = level_index(comp, level)
    if factor <= 0:
        raise ScheduleError(f"split factor must be positive, got {factor}")
    old = comp.time_names
    new_names = list(old[:l]) + [outer_name, inner_name] + list(old[l + 1:])
    _check_fresh(comp, [outer_name, inner_name], except_at=[l])
    n = len(old)
    space = Space.map_space(tuple(old), tuple(new_names),
                            comp.name, comp.name, comp.function.param_names)
    cons: List[Constraint] = []
    for k in range(n):
        out_k = k if k < l else k + 1
        if k == l:
            # in_l = factor*outer + inner, 0 <= inner < factor
            expr = (LinExpr.dim(IN, l) - LinExpr.dim(OUT, l) * factor
                    - LinExpr.dim(OUT, l + 1))
            cons.append(Constraint.eq(expr))
            cons.append(Constraint.ge(LinExpr.dim(OUT, l + 1)))
            cons.append(Constraint.ge(LinExpr.constant(factor - 1)
                                      - LinExpr.dim(OUT, l + 1)))
        else:
            cons.append(Constraint.eq(LinExpr.dim(OUT, out_k)
                                      - LinExpr.dim(IN, k)))
    bmap = BasicMap(space, cons)
    comp.instances = _set_map_pieces(comp.instances, bmap)
    # rev: old dim l = factor*outer + inner; dims after l shift by one.
    subst: Dict[Tuple[str, int], LinExpr] = {}
    for k in range(n):
        if k < l:
            continue
        if k == l:
            subst[(OUT, k)] = (LinExpr.dim(OUT, l) * factor
                               + LinExpr.dim(OUT, l + 1))
        else:
            subst[(OUT, k)] = LinExpr.dim(OUT, k + 1)
    comp.rev = {name: _substitute_many(e, subst)
                for name, e in comp.rev.items()}
    comp.tags = _shift_tags(comp.tags, l + 1, 1)
    comp.tags.pop(l, None)
    comp.time_names = new_names


def apply_interchange(comp, level1, level2) -> None:
    l1 = level_index(comp, level1)
    l2 = level_index(comp, level2)
    if l1 == l2:
        return
    names = list(comp.time_names)
    names[l1], names[l2] = names[l2], names[l1]
    n = len(names)
    space = Space.map_space(tuple(comp.time_names), tuple(names),
                            comp.name, comp.name, comp.function.param_names)
    cons = []
    for k in range(n):
        src = l2 if k == l1 else (l1 if k == l2 else k)
        cons.append(Constraint.eq(LinExpr.dim(OUT, k) - LinExpr.dim(IN, src)))
    comp.instances = _set_map_pieces(comp.instances, BasicMap(space, cons))
    swap = {(OUT, l1): LinExpr.dim(OUT, l2), (OUT, l2): LinExpr.dim(OUT, l1)}
    comp.rev = {name: _substitute_many(e, swap)
                for name, e in comp.rev.items()}
    t1, t2 = comp.tags.get(l1), comp.tags.get(l2)
    comp.tags.pop(l1, None)
    comp.tags.pop(l2, None)
    if t1 is not None:
        comp.tags[l2] = t1
    if t2 is not None:
        comp.tags[l1] = t2
    comp.time_names = names


def apply_shift(comp, level, offset: int) -> None:
    """shift(i, s): new_i = i + s."""
    _apply_unimodular(comp, level, lambda l: (
        LinExpr.dim(IN, l) + offset,    # forward: out_l = in_l + s
        LinExpr.dim(OUT, l) - offset))  # reverse: in_l = out_l - s


def apply_skew(comp, level1, level2, factor: int) -> None:
    """skew(i, j, f): new_j = j + f*i (enables pipelined stencils)."""
    l1 = level_index(comp, level1)
    l2 = level_index(comp, level2)
    if l1 == l2:
        raise ScheduleError("skew requires two distinct loop levels")
    _apply_unimodular(comp, level2, lambda l: (
        LinExpr.dim(IN, l) + LinExpr.dim(IN, l1) * factor,
        LinExpr.dim(OUT, l) - LinExpr.dim(OUT, l1) * factor))


def _apply_unimodular(comp, level, exprs_fn) -> None:
    """Apply a transformation changing a single dim by an invertible
    affine combination of time dims."""
    l = level_index(comp, level)
    n = len(comp.time_names)
    forward, reverse = exprs_fn(l)
    space = Space.map_space(tuple(comp.time_names), tuple(comp.time_names),
                            comp.name, comp.name, comp.function.param_names)
    cons = []
    for k in range(n):
        if k == l:
            cons.append(Constraint.eq(LinExpr.dim(OUT, k) - forward))
        else:
            cons.append(Constraint.eq(LinExpr.dim(OUT, k)
                                      - LinExpr.dim(IN, k)))
    comp.instances = _set_map_pieces(comp.instances, BasicMap(space, cons))
    subst = {(OUT, l): reverse}
    comp.rev = {name: _substitute_many(e, subst)
                for name, e in comp.rev.items()}


def apply_tile(comp, level1, level2, t1: int, t2: int,
               names: Optional[Sequence[str]] = None) -> None:
    """tile(i, j, t1, t2 [, i0, j0, i1, j1])."""
    l1 = level_index(comp, level1)
    l2 = level_index(comp, level2)
    if l2 != l1 + 1:
        raise ScheduleError(
            "tile requires two consecutive loop levels; interchange first")
    n1, n2 = comp.time_names[l1], comp.time_names[l2]
    if names is None:
        names = [f"{n1}0", f"{n2}0", f"{n1}1", f"{n2}1"]
    o1, o2, i1, i2 = names
    apply_split(comp, l1, t1, o1, i1)          # ... o1 i1 j ...
    apply_split(comp, l2 + 1, t2, o2, i2)      # ... o1 i1 o2 i2 ...
    apply_interchange(comp, l1 + 1, l1 + 2)    # ... o1 o2 i1 i2 ...


def _substitute_many(expr: LinExpr, table: Dict[Tuple[str, int], LinExpr]
                     ) -> LinExpr:
    """Simultaneous substitution of dims in a LinExpr."""
    result = LinExpr.constant(expr.const)
    for dim, coeff in expr.coeffs.items():
        repl = table.get(dim)
        if repl is None:
            repl = LinExpr.dim(*dim)
        result = result + repl * coeff
    return result


def _check_fresh(comp, names: Sequence[str], except_at: Sequence[int] = ()
                 ) -> None:
    existing = {nm for k, nm in enumerate(comp.time_names)
                if k not in except_at}
    for nm in names:
        if nm in existing:
            raise ScheduleError(
                f"{comp.name}: loop name {nm!r} already in use")


# -- set_schedule: raw affine map (paper's Layer I -> II command) ------------


def apply_set_schedule(comp, isl_map_str: str) -> None:
    """Replace the schedule with an explicit affine map in ISL syntax,
    mapping the *original* iteration domain to the new time dims."""
    from repro.isl.parser import parse_map
    m = parse_map(isl_map_str)
    n_in = len(m.space.in_dims)
    if n_in != len(comp.var_names):
        raise ScheduleError(
            f"set_schedule: map has {n_in} input dims, domain has "
            f"{len(comp.var_names)}")
    rev = _invert_map(m)
    if rev is None:
        raise UnsupportedScheduleError(
            "set_schedule: map is not affinely invertible")
    new_names = list(m.space.out_dims)
    domain = comp.domain.identity_map().range()  # copy of the domain set
    renamed = Map([p.rename_tuple(in_name=comp.name, out_name=comp.name,
                                  keep_in=False, keep_out=False)
                   for p in m.pieces], None)
    comp.instances = renamed.apply(comp.domain)
    comp.time_names = new_names
    comp.rev = {name: rev[k] for k, name in enumerate(comp.var_names)}
    comp.tags = {}


def _invert_map(m: Map) -> Optional[List[LinExpr]]:
    """Solve a map's equalities for its input dims as affine expressions
    over the output dims and params; ``None`` if not solvable."""
    if len(m.pieces) != 1:
        return None
    bmap = m.pieces[0]
    from fractions import Fraction
    n_in = len(bmap.space.in_dims)
    eqs = [c.expr for c in bmap.constraints if c.kind == "eq"]
    # Gaussian elimination treating IN dims as unknowns; all other dims
    # (OUT, PARAM) are symbols. DIV dims are not supported.
    rows = []
    for e in eqs:
        if e.involves_kind("d"):
            return None
        rows.append(e)
    solved: Dict[int, LinExpr] = {}
    remaining = list(rows)
    changed = True
    while changed and len(solved) < n_in:
        changed = False
        for e in list(remaining):
            unknowns = [(d, c) for d, c in e.coeffs.items()
                        if d[0] == IN and d[1] not in solved]
            if len(unknowns) != 1:
                continue
            (dim, coeff) = unknowns[0]
            rest = e - LinExpr.dim(IN, dim[1], coeff)
            # substitute already-solved IN dims
            for k, sol in solved.items():
                rest = rest.substitute((IN, k), sol)
            if any(Fraction(v) % coeff != 0 for v in
                   list(rest.coeffs.values()) + [rest.const]):
                sol = rest * Fraction(-1, coeff)
            else:
                sol = LinExpr(
                    {d: -int(v) // int(coeff) for d, v in rest.coeffs.items()},
                    -int(rest.const) // int(coeff))
            if not sol.is_integral():
                return None
            solved[dim[1]] = sol
            remaining.remove(e)
            changed = True
    if len(solved) < n_in:
        return None
    return [solved[k] for k in range(n_in)]


# -- compute_at: nesting with redundant computation --------------------------


def apply_compute_at(producer, consumer, level) -> None:
    """P.compute_at(C, j): compute exactly the window of P needed by each
    iteration of C's loop prefix up to level j (overlapped tiling).

    Implements the paper's Section III-C semantics: the needed region and
    its iteration domain are computed automatically from C's accesses.
    """
    l = level_index(consumer, level)
    needed = _needed_relation(consumer, producer, l)
    if needed is None or needed.is_empty():
        raise ScheduleError(
            f"{consumer.name} does not read {producer.name}; "
            "compute_at needs a producer-consumer pair")
    # Map the needed original-domain points to the producer's current
    # time points: forward = reverse of producer.rev.
    forward = producer.forward_schedule()      # P-domain -> P-time
    rel = needed.apply_range(forward)          # C-prefix -> P-time
    prefix_names = [f"{consumer.name}_{consumer.time_names[k]}"
                    for k in range(l + 1)]
    p_names = list(producer.time_names)
    # Uniquify.
    used = set(prefix_names)
    for i, nm in enumerate(p_names):
        while p_names[i] in used:
            p_names[i] = p_names[i] + "_p"
        used.add(p_names[i])
    flat_names = prefix_names + p_names
    pieces = []
    for bm in rel.pieces:
        bs = bm.to_set()
        sp = Space.set_space(tuple(flat_names), producer.name,
                             bs.space.params)
        pieces.append(BasicSet(sp, bs.constraints, bs.n_div))
    producer.instances = _one_piece_if_exact(Set(pieces), consumer, l)
    shift = {(OUT, k): LinExpr.dim(OUT, k + l + 1)
             for k in range(len(producer.time_names))}
    producer.rev = {name: _substitute_many(e, shift)
                    for name, e in producer.rev.items()}
    producer.tags = _shift_tags(producer.tags, 0, l + 1)
    for k in range(l + 1):
        tag = consumer.tags.get(k)
        if tag is not None:
            producer.tags[k] = tag
    producer.time_names = flat_names
    # Ordering: producer shares loops 0..l with consumer and runs first.
    producer.function.order_before(producer, consumer, l)
    producer.anchor = (consumer, l)
    # The window an iteration of loops 0..l stores the producer in.
    from .communication import window_box
    window_box(producer)


def _one_piece_if_exact(union: Set, consumer, l) -> Set:
    """``union`` — the producer instances ``compute_at`` needs, one piece
    per access of the consumer — as one piece, its simple hull, when no
    point is lost or gained: the hull within the consumer's loops ``0..l``
    (their values with the divs projected out) is a subset of the union.
    Overlapping windows (blur's three rows per tile) then compute each
    element once per tile instead of once per access.  Otherwise (the
    windows do not union convexly, or a piece has divs) the union."""
    if len(union.pieces) < 2:
        return union
    hull = simple_hull(union.pieces)
    if hull is None:
        return union
    from .communication import _prefix_domain
    context = simple_hull([BasicSet(p.space, eliminate_dims(
        p.constraints, [(DIV, k) for k in range(p.n_div)]))
        for p in _prefix_domain(consumer, l)[0].pieces])
    params = hull.space.aligned_params(context.space)
    hull = hull.align_params(params).add_constraints(
        context.align_params(params).constraints)
    if not Set([hull]).is_subset(union):
        return union
    return Set([remove_redundant(hull)])


def _needed_relation(consumer, producer, l):
    """Relation from consumer time-prefix (dims 0..l) to the producer
    domain points the consumer body reads."""
    from repro.ir.affine import NonAffineError, expr_to_linexpr
    from repro.ir.expr import accesses_in

    if consumer.expr is None:
        return None
    accesses = [a for a in accesses_in(consumer.expr)
                if a.computation is producer]
    if not accesses:
        return None
    n_time = len(consumer.time_names)
    result: Optional[Map] = None
    # Names for the consumer's time dims in the relation's input tuple.
    in_names = tuple(consumer.time_names)
    out_names = tuple(producer.var_names)
    space = Space.map_space(in_names, out_names, consumer.name,
                            producer.name, consumer.function.param_names)
    # Dim lookup for access index expressions: consumer's original var
    # names -> their rev expressions over time dims (IN side of relation).
    rev_in = {}
    for name, e in consumer.rev.items():
        rev_in[name] = e.remap({(OUT, k): (IN, k) for k in range(n_time)})
    param_dims = {p: (PARAM, i)
                  for i, p in enumerate(consumer.function.param_names)}
    for acc in accesses:
        cons: List[Constraint] = []
        ok = True
        for k, idx in enumerate(acc.indices):
            table = dict(param_dims)
            # Build LinExpr over consumer original dims first.
            orig_dims = {nm: (IN, j)
                         for j, nm in enumerate(consumer.var_names)}
            table.update(orig_dims)
            try:
                le = expr_to_linexpr(idx, table)
            except NonAffineError:
                # Over-approximate: this output dim unconstrained (it is
                # then bounded by the producer's domain below).
                continue
            # Substitute consumer orig dims by their time expressions.
            subst = {(IN, j): rev_in[nm]
                     for j, nm in enumerate(consumer.var_names)}
            le = _substitute_many(le, subst)
            cons.append(Constraint.eq(LinExpr.dim(OUT, k) - le))
        bm = BasicMap(space, cons)
        m = Map.from_basic(bm)
        result = m if result is None else result.union(m)
    # Constrain inputs to scheduled consumer instances and outputs to the
    # producer's domain.
    inst = consumer.instances
    dom = producer.domain
    result = result.intersect_domain(inst).intersect_range(dom)
    # Project the consumer time dims beyond l.
    drop = list(range(l + 1, n_time))
    pieces = [p.project_onto_divs(IN, drop) for p in result.pieces]
    sp0 = pieces[0].space if pieces else None
    return Map(pieces, sp0)
