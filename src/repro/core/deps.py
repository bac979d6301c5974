"""Exact polyhedral dependence analysis and schedule legality checking.

The paper distinguishes Tiramisu from Halide precisely here (Table I,
"Exact dependence analysis" / "Compile-time set emptiness check"):
transformation legality is decided by checking emptiness of dependence
violation sets rather than by conservative syntactic rules.

Dependences are memory-based relations (flow, anti, output) between
statement instances, computed exactly from the affine access functions;
non-affine indices (``clamp``) are over-approximated by leaving the
accessed dimension unconstrained, as Section V-B prescribes.

Everything that asks a dependence question — schedule legality, the race
detector, lane safety, the task graph's distances, the autoscheduler's
gate — reads one :class:`DependenceSummary` per function.  It has two
halves, each validated by a structural key on every read:

* the **dependences** — and the statements in buffer terms they are
  computed from (:meth:`DependenceSummary.form`, which the emitters and
  the cost model read too) — keyed on Layer I + III content only
  (domains, expressions, predicates, inlining, store indices, buffers,
  declaration order), so a search whose actions only touch Layer II
  computes them once;
* per (dependence, source schedule, sink schedule), a lazily filled
  **level profile**: the dependence's image in the dynamic time dims and,
  level by level, whether it points backward / forward there.  The static
  β entries of the interleaved time vector ``[β0, t0, β1, ...]`` are
  integers the function already holds, so the walk compares them as
  integers and asks isl only about the dynamic levels two statements
  share.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.affine import NonAffineError, expr_to_linexpr
from repro.ir.expr import BufferRead
from repro.isl import (IN, OUT, PARAM, BasicMap, Constraint, LinExpr, Map,
                       Set, Space)

from .access import Resolved, resolve
from .errors import IllegalScheduleError
from .computation import Computation, Operation


@dataclass(eq=False)
class Dependence:
    kind: str                    # "flow" | "anti" | "output"
    source: Computation
    sink: Computation
    buffer: object
    relation: Map                # source domain -> sink domain
    #: the element read: the sink's (flow) or the source's (anti)
    read: Optional[BufferRead] = None
    #: dependence_distance per parameter binding (the relation never
    #: changes, so neither does its distance).
    _distances: Dict[Tuple, Optional[Tuple[int, ...]]] = field(
        default_factory=dict, init=False, repr=False)

    def __repr__(self):
        return (f"<{self.kind} dep {self.source.name} -> {self.sink.name} "
                f"on {self.buffer.name}>")


# -- access relations --------------------------------------------------------


def _param_table(comp) -> Dict[str, Tuple[str, int]]:
    return {p: (PARAM, i)
            for i, p in enumerate(comp.function.param_names)}


def write_map(comp: Computation, form: Optional[Resolved] = None
              ) -> Optional[Map]:
    """Map: computation domain -> written buffer element (``form``:
    ``resolve(comp)``, when the caller holds it)."""
    store = (form or resolve(comp)).store
    return None if store is None else access_map(comp, store)


def read_maps(comp: Computation, form: Optional[Resolved] = None
              ) -> List[Tuple[object, Map]]:
    """All (buffer, map) pairs this computation reads."""
    return [(read.buffer, access_map(comp, read))
            for read in (form or resolve(comp)).reads]


def access_map(comp, element: BufferRead) -> Map:
    """Map: computation domain -> ``element``, an index that is not
    affine left unconstrained."""
    params = comp.function.param_names
    buf_dims = tuple(f"a{k}" for k in range(len(element.indices)))
    space = Space.map_space(tuple(comp.var_names), buf_dims,
                            comp.name, element.buffer.name, params)
    table = _param_table(comp)
    table.update({nm: (IN, k) for k, nm in enumerate(comp.var_names)})
    cons: List[Constraint] = []
    for k, e in enumerate(element.indices):
        try:
            le = expr_to_linexpr(e, table)
        except NonAffineError:
            continue  # over-approximate: dimension unconstrained
        cons.append(Constraint.eq(LinExpr.dim(OUT, k) - le))
    bm = BasicMap(space, cons)
    return Map.from_basic(bm).intersect_domain(comp.domain)


# -- dependence computation ---------------------------------------------------


def _lex_lt_relation(names: Sequence[str], tuple_name: str,
                     params: Tuple[str, ...]) -> Map:
    """{ x -> y : x lexicographically-strictly-before y } on same space."""
    n = len(names)
    space = Space.map_space(tuple(names), tuple(names), tuple_name,
                            tuple_name, params)
    pieces = []
    for k in range(n):
        cons = [Constraint.eq(LinExpr.dim(OUT, j) - LinExpr.dim(IN, j))
                for j in range(k)]
        cons.append(Constraint.ge(LinExpr.dim(OUT, k)
                                  - LinExpr.dim(IN, k) - 1))
        pieces.append(BasicMap(space, cons))
    return Map(pieces, space)


class _AccessTables:
    """Per-function access relations, built once and shared across the
    O(pairs x kinds) dependence loop: the write map of every computation
    and the read maps of the buffers some computation writes, each with
    its reversal.  A read of a buffer nothing writes (an input) is left
    out: a flow or anti dependence needs a writer of its buffer, so no
    dependence is lost."""

    def __init__(self, comps, form=resolve):
        self.writes: Dict[str, Optional[Map]] = {}
        self.write_revs: Dict[str, Optional[Map]] = {}
        self.reads: Dict[str, List[Tuple[BufferRead, Map]]] = {}
        self.read_revs: Dict[str, List[Tuple[BufferRead, Map]]] = {}
        held = [(c, form(c)) for c in comps]
        for c, f in held:
            w = write_map(c, f)
            self.writes[c.name] = w
            self.write_revs[c.name] = w.reverse() if w is not None else None
        written = {id(c.get_buffer()) for c in comps
                   if self.writes[c.name] is not None}
        for c, f in held:
            r = [(read, access_map(c, read)) for read in f.reads
                 if id(read.buffer) in written]
            self.reads[c.name] = r
            self.read_revs[c.name] = [(read, m.reverse()) for read, m in r]


def _compute_dependences(fn, form=resolve) -> List[Dependence]:
    """``form``: where to read a computation in buffer terms from."""
    comps = [c for c in fn.active_computations()
             if not isinstance(c, Operation)]
    acc = _AccessTables(comps, form)
    lex_cache: Dict[Tuple, Map] = {}
    deps: List[Dependence] = []
    decl_index = {c.name: i for i, c in enumerate(fn.computations)}
    for a in comps:
        for b in comps:
            if decl_index[a.name] > decl_index[b.name]:
                continue
            for kind in ("flow", "anti", "output"):
                rel = _pair_dependence(a, b, kind, acc)
                for buffer, m, read in rel:
                    if a is b:
                        key = (tuple(a.var_names), a.name, m.space.params)
                        lex = lex_cache.get(key)
                        if lex is None:
                            lex = _lex_lt_relation(a.var_names, a.name,
                                                   m.space.params)
                            lex_cache[key] = lex
                        m = m.intersect(lex)
                    m = m.coalesce()     # keeps the non-empty pieces
                    if m.pieces:
                        deps.append(Dependence(kind, a, b, buffer, m, read))
    return deps


def _pair_dependence(a, b, kind, acc: _AccessTables
                     ) -> List[Tuple[object, Map, Optional[BufferRead]]]:
    """Dependence relations a -> b of the given kind (a not after b),
    each with its buffer and the read it is through."""
    out: List[Tuple[object, Map, Optional[BufferRead]]] = []
    wa = acc.writes[a.name]
    if kind == "flow":
        if wa is None:
            return out
        for read, rm_rev in acc.read_revs[b.name]:
            if read.buffer is a.get_buffer():
                out.append((read.buffer, wa.apply_range(rm_rev), read))
    elif kind == "anti":
        wb_rev = acc.write_revs[b.name]
        if wb_rev is None:
            return out
        for read, rm in acc.reads[a.name]:
            if read.buffer is b.get_buffer():
                out.append((read.buffer, rm.apply_range(wb_rev), read))
    elif kind == "output":
        wb_rev = acc.write_revs[b.name]
        if wa is None or wb_rev is None:
            return out
        if a.get_buffer() is b.get_buffer():
            out.append((a.get_buffer(), wa.apply_range(wb_rev), None))
    return out


def compute_dependences(fn, kinds=("flow", "anti", "output")
                        ) -> List[Dependence]:
    """All memory-based dependences of the function, with sources ordered
    before sinks in the original (declaration + domain-lexicographic)
    execution order (read from the function's summary)."""
    return [d for d in DependenceSummary.of(fn).dependences()
            if d.kind in kinds]


def dependence_distance(dep: Dependence,
                        param_vals: Dict[str, int] = ()) -> Optional[
                            Tuple[int, ...]]:
    """The constant (uniform) distance vector of a same-space dependence,
    or None when the dependence is not uniform; cached on the dependence
    per parameter binding.

    Classic use: a dependence with distance (1, -1) allows skewing; all
    positive leading entries means outer parallelism is illegal, etc.
    """
    params = dict(param_vals)
    key = tuple(sorted(params.items()))
    if key not in dep._distances:
        dep._distances[key] = _uniform_distance(dep, params)
    return dep._distances[key]


def _uniform_distance(dep: Dependence, params: Dict[str, int]
                      ) -> Optional[Tuple[int, ...]]:
    if dep.source is not dep.sink and \
            len(dep.source.var_names) != len(dep.sink.var_names):
        return None
    from repro.isl.sample import sample as isl_sample
    n = len(dep.source.var_names)
    for bm in dep.relation.pieces:
        pt = isl_sample(bm.to_set(), params)
        if pt is None:
            continue
        cand = tuple(pt[n + k] - pt[k] for k in range(n))
        # Verify uniformity: any pair deviating from cand in any dim?
        for other in dep.relation.pieces:
            bound = other
            for i, p in enumerate(other.space.params):
                if p in params:
                    value = LinExpr.constant(params[p])
                    bound = bound.copy_with(constraints=[
                        c.substitute((PARAM, i), value)
                        for c in bound.constraints])
            for k in range(n):
                diff = (LinExpr.dim(OUT, k) - LinExpr.dim(IN, k)
                        - LinExpr.constant(cand[k]))
                for strict in (diff - 1, -diff - 1):
                    if not bound.add_constraint(
                            Constraint.ge(strict)).is_empty():
                        return None
        return cand
    return None


# -- the explicit Layer II map ---------------------------------------------------


def full_schedule_map(comp, beta: List[int], depth: int) -> Map:
    """Map: original domain -> full interleaved time vector
    [β0, t0, β1, t1, ..., t(depth-1), βdepth]; missing dynamic dims are
    padded with 0."""
    n_time = len(comp.time_names)
    out_names = []
    for k in range(depth):
        out_names.append(f"s{k}")
        out_names.append(f"d{k}")
    out_names.append(f"s{depth}")
    space = Space.map_space(tuple(comp.var_names), tuple(out_names),
                            comp.name, "T", comp.function.param_names)
    cons: List[Constraint] = []
    for k in range(depth + 1):
        cons.append(Constraint.eq(LinExpr.dim(OUT, 2 * k)
                                  - LinExpr.constant(beta[k])))
    for k in range(depth):
        if k >= n_time:
            cons.append(Constraint.eq(LinExpr.dim(OUT, 2 * k + 1)))
    base = BasicMap(space, cons)
    m = Map.from_basic(base)
    # Tie dynamic dims to the computation's forward schedule.
    fwd = comp.forward_schedule()  # domain -> time dims
    pieces = []
    for bm in fwd.pieces:
        # Rebuild fwd pieces in the full-time space.
        remap = {(OUT, k): (OUT, 2 * k + 1) for k in range(n_time)}
        cons2 = [c.remap(remap) for c in bm.constraints]
        pieces.append(BasicMap(space, cons2, bm.n_div))
    fwd_full = Map(pieces, space)
    return m.intersect(fwd_full)


# -- the summary ----------------------------------------------------------------


#: Tag kinds whose loops execute iterations concurrently and therefore
#: must not carry a dependence (paper Table II).
RACE_CHECKED_TAGS = ("parallel", "vector", "distributed")


def _content_key(fn) -> Tuple:
    """Everything :func:`repro.core.access.resolve` and
    :func:`_compute_dependences` read — Layer I and III only, nothing a
    scheduling command changes.  Expressions enter by
    their structural repr (as in the compile fingerprint), the immutable
    isl domain and the buffer by object."""
    rows = []
    for c in fn.computations:
        if isinstance(c, Operation):
            rows.append((c, repr(c.predicate)))
            continue
        buf = None if c.inlined else c.get_buffer()
        rows.append((c, c.name, tuple(c.var_names), c.domain, repr(c.expr),
                     repr(c.predicate), c.inlined,
                     tuple(repr(e) for e in c.store_indices()),
                     buf, buf and buf.name))
    return (fn.param_names, tuple(rows))


class _LevelProfile:
    """One dependence under one (source schedule, sink schedule) pair:
    its image in the dynamic time dims — ``sched_src^-1 . dep . sched_snk``
    over the two nests' own loop levels, no β dims — and, filled on
    demand, what it does at each level given equal outer levels."""

    __slots__ = ("pieces", "n_src", "n_snk", "flags")

    def __init__(self, rel: Map, n_src: int, n_snk: int):
        self.pieces = rel.pieces
        self.n_src, self.n_snk = n_src, n_snk
        self.flags: Dict[Tuple[str, int], bool] = {}

    def _ahead(self, level: int) -> LinExpr:
        """sink time minus source time at ``level``; a nest shallower
        than ``level`` sits at the padding value 0 there."""
        snk = LinExpr.dim(OUT, level) if level < self.n_snk else LinExpr()
        src = LinExpr.dim(IN, level) if level < self.n_src else LinExpr()
        return snk - src

    def ask(self, what: str, level: int, summary) -> bool:
        """Is there a pair, equal on every level before ``level``, that
        at ``level`` runs sink-before-source (``"backward"``) or
        source-before-sink (``"forward"``) — or any such pair at all
        (``"alive"``)?"""
        hit = self.flags.get((what, level))
        if hit is None:
            cons = [Constraint.eq(self._ahead(j)) for j in range(level)]
            if what != "alive":
                ahead = self._ahead(level)
                cons.append(Constraint.ge(
                    (ahead if what == "forward" else -ahead) - 1))
            hit = False
            for bm in self.pieces:
                summary.level_tests += 1
                if not bm.add_constraints(cons).is_empty():
                    hit = True
                    break
            self.flags[(what, level)] = hit
        return hit


class DependenceSummary:
    """The one dependence analysis of a :class:`Function` (module
    docstring).  Lives on the function object — ``DependenceSummary.of``
    — and is left out of its pickle and its fingerprint; nothing has to
    invalidate it, because every read re-derives the keys it is filed
    under from the function's current state.  Like that state, it is
    not for two threads at once."""

    #: Schedule-state entries (schedule maps, level profiles) kept, LRU.
    MEMO_MAX = 1024

    def __init__(self, fn):
        self.fn = fn
        self._content = None
        self._deps: Optional[List[Dependence]] = None
        self._forms: Dict[Computation, Resolved] = {}
        self._memo: "OrderedDict[Tuple, object]" = OrderedDict()
        #: How often the dependences were computed, how many emptiness
        #: questions the level walks asked, and how many level profiles
        #: were built (walked) against found again (reused).
        self.deps_computed = 0
        self.level_tests = 0
        self.profiles_walked = 0
        self.profiles_reused = 0

    @classmethod
    def of(cls, fn) -> "DependenceSummary":
        if fn._dependence_summary is None:
            fn._dependence_summary = cls(fn)
        return fn._dependence_summary

    def stats(self) -> Dict[str, int]:
        return {"deps_count": len(self._deps or ()),
                "deps_computed": self.deps_computed,
                "level_tests": self.level_tests,
                "profiles_walked": self.profiles_walked,
                "profiles_reused": self.profiles_reused}

    # -- the two halves -----------------------------------------------------

    def _current(self) -> None:
        """Forget what was derived from content that has since changed."""
        content = _content_key(self.fn)
        if content != self._content:
            self._content = content
            self._deps = None
            self._forms.clear()
            self._memo.clear()

    def _form(self, comp) -> Resolved:
        form = self._forms.get(comp)
        if form is None:
            form = self._forms[comp] = resolve(comp)
        return form

    def form(self, comp) -> Resolved:
        """:func:`~repro.core.access.resolve` of ``comp``, worked out
        once for as long as the content it reads stands: dependences,
        lanes, cost model and emitter of one compile — and every
        candidate of a search — share it."""
        self._current()
        return self._form(comp)

    def dependences(self) -> List[Dependence]:
        self._current()
        if self._deps is None:
            self._deps = _compute_dependences(self.fn, self._form)
            self.deps_computed += 1
        return self._deps

    def _remember(self, key: Tuple, build):
        """The memo entry filed under ``key``, built on first use."""
        entry = self._memo.get(key)
        if entry is None:
            entry = self._memo[key] = build()
            if len(self._memo) > self.MEMO_MAX:
                self._memo.popitem(last=False)
        else:
            self._memo.move_to_end(key)
        return entry

    def _schedule(self, comp) -> Tuple:
        """(key, forward map, its reverse) of ``comp``'s current Layer II
        state."""
        key = (comp.name, comp.instances,
               tuple(comp.rev[nm] for nm in comp.var_names))

        def build():
            fwd = comp.forward_schedule()
            return key, fwd, fwd.reverse()
        return self._remember(key, build)

    def _profile(self, dep: Dependence) -> _LevelProfile:
        src_key, _, src_rev = self._schedule(dep.source)
        snk_key, snk_fwd, _ = self._schedule(dep.sink)
        private = _private_levels(dep)
        walked = self.profiles_walked

        def build():
            self.profiles_walked += 1
            rel = src_rev.apply_range(dep.relation).apply_range(snk_fwd)
            if private:
                # one copy of the buffer per iteration of those loops:
                # instances in two different iterations share no element
                rel = Map([bm.add_constraints([
                    Constraint.eq(LinExpr.dim(OUT, k) - LinExpr.dim(IN, k))
                    for k in range(private)]) for bm in rel.pieces],
                    rel.space)
            return _LevelProfile(rel, len(dep.source.time_names),
                                 len(dep.sink.time_names))
        profile = self._remember((dep, src_key, snk_key, private), build)
        if walked == self.profiles_walked:
            self.profiles_reused += 1
        return profile

    # -- the consumers --------------------------------------------------------

    def _reordered(self, dep: Dependence, beta) -> bool:
        """Walk the interleaved time vector ``[β0, t0, β1, t1, ...]``:
        does some sink instance run before its source?  A static
        position is two integers; only a dynamic level both still share
        is a question for isl."""
        profile = None
        for level, (b_src, b_snk) in enumerate(zip(beta[dep.source.name],
                                                   beta[dep.sink.name])):
            if b_src < b_snk:
                return False
            if profile is None:
                profile = self._profile(dep)
            if b_src > b_snk:
                return profile.ask("alive", level, self)
            if level < max(profile.n_src, profile.n_snk) and \
                    profile.ask("backward", level, self):
                return True
        return False

    def check_legality(self) -> int:
        """:func:`check_schedule_legality` of the summary's function."""
        deps = [d for d in self.dependences()
                if d.source.anchor is None and d.sink.anchor is None]
        if not deps:
            return 0
        beta = self.fn.resolve_order()
        for dep in deps:
            if self._reordered(dep, beta):
                raise IllegalScheduleError(
                    f"schedule violates {dep.kind} dependence "
                    f"{dep.source.name} -> {dep.sink.name} on buffer "
                    f"{dep.buffer.name}")
        return len(deps)

    def carried(self, comp, level: int) -> List[Dependence]:
        """:func:`carried_at_level` of the summary's function."""
        return self._carried(self.dependences(), self.fn.resolve_order(),
                             comp, level)

    def _carried(self, deps, beta, comp, level: int) -> List[Dependence]:
        carried: List[Dependence] = []
        for dep in deps:
            if dep.source is not comp and dep.sink is not comp:
                continue
            # Statements ordered apart above the loop share no iteration
            # of it: not carried, and nothing to ask isl.
            if beta[dep.source.name][:level + 1] != \
                    beta[dep.sink.name][:level + 1]:
                continue
            profile = self._profile(dep)
            if profile.ask("forward", level, self) or \
                    profile.ask("backward", level, self):
                carried.append(dep)
        return carried

    def check_races(self, kinds: Sequence[str] = RACE_CHECKED_TAGS) -> int:
        """:func:`check_parallel_legality` of the summary's function."""
        tagged = []
        for comp in self.fn.active_computations():
            if isinstance(comp, Operation):
                continue
            for level, tag in sorted(comp.tags.items()):
                if tag.kind in kinds and level < len(comp.time_names):
                    tagged.append((comp, level, tag))
        deps = self.dependences() if tagged else []
        if not deps:
            return len(tagged)
        beta = self.fn.resolve_order()
        for comp, level, tag in tagged:
            for dep in self._carried(deps, beta, comp, level):
                raise IllegalScheduleError(
                    f"cannot execute loop {comp.time_names[level]!r} "
                    f"(level {level}) of {comp.name!r} as {tag.kind}: it "
                    f"carries a {dep.kind} dependence "
                    f"{dep.source.name} -> {dep.sink.name} on buffer "
                    f"{dep.buffer.name} (a data race on concurrent "
                    f"iterations)")
        return len(tagged)

    def check(self) -> None:
        """The one gate of every schedule search: the current schedule
        preserves every dependence and races on no tagged loop, or
        :class:`IllegalScheduleError`."""
        self.check_legality()
        self.check_races()


def _private_levels(dep: Dependence) -> int:
    """How many outer loops ``dep``'s buffer is private to: ``l + 1``
    when it is the function-wide buffer of a producer that stores in a
    tile window allocated in loop ``l``
    (:func:`repro.core.communication.tile_window`), else 0."""
    from .communication import tile_window
    producer = dep.buffer.owner
    return producer.anchor[1] + 1 \
        if producer is not None and tile_window(producer) else 0


# -- schedule legality ----------------------------------------------------------


def check_schedule_legality(fn) -> int:
    """Raise IllegalScheduleError if the current schedule reorders any
    dependence (paper Section II-c / V); returns the number of
    dependences checked (recorded by the compile driver's profiling).

    Computations nested by ``compute_at`` execute *redundantly* (the
    overlapped tiling of Section III-C): every copy recomputes the same
    value, so the write-after-read hazards between their copies and
    their consumers are benign and are not checked (memory-based
    analysis cannot distinguish a benign recompute from a real
    overwrite).
    """
    return DependenceSummary.of(fn).check_legality()


def carried_at_level(fn, comp, level: int) -> List[Dependence]:
    """Dependences carried by loop ``level`` of ``comp`` (same values of
    all outer dims, different at ``level``).  A loop can be parallelized,
    vectorized or distributed only if this is empty (paper Table II)."""
    return DependenceSummary.of(fn).carried(comp, level)


def check_parallel_legality(fn, kinds: Sequence[str] = RACE_CHECKED_TAGS
                            ) -> int:
    """The race detector: verify no dependence is carried at any loop
    level tagged ``parallel``/``vector``/``distributed``.

    Running iterations of such a loop concurrently reorders the
    statement instances along that dimension, so a dependence carried
    there is a data race on real hardware (Section V / Table II: "a loop
    can be parallelized only if it does not carry any dependence").
    Raises :class:`IllegalScheduleError` naming the computation, the
    loop level, and the violating dependence; returns the number of
    tagged levels checked.
    """
    return DependenceSummary.of(fn).check_races(kinds)
