"""Beam + evolutionary search over legal schedules (the tentpole).

The scheduling language spans a space the paper's successors explore
automatically (PAPERS.md: arXiv 1908.01057); this module searches it:

1. **Enumerate** candidate actions against the function's *current*
   schedule state — fuse-at-level for producer/consumer pairs,
   interchange of adjacent levels, tiling (sizes 16/32/64/128),
   vectorize-innermost, unroll (2/4/8), parallelize the outermost
   non-carried level — as reified :mod:`~repro.autosched.actions`.
2. **Prune** every extension with the function's
   :meth:`~repro.core.deps.DependenceSummary.check` (schedule legality +
   the race detector for tagged levels), so *zero illegal plans reach
   the oracle*.  No action changes an access or a domain, so a whole
   search computes the dependences once, and a candidate re-walks only
   the dependences of the statement its last action touched
   (``SearchReport.profiles_walked`` against ``profiles_reused``).
3. **Rank** survivors with a :class:`~repro.autosched.oracle.CostOracle`
   and keep the best ``beam_width`` plans per round; optionally re-rank
   the finalists with a :class:`~repro.autosched.oracle.MeasuredOracle`.

The evolutionary strategy seeds a population from the beam result and
refines numeric choices (tile sizes, unroll factors) plus drops/appends
actions under the same legality pruning — cheap local search where the
beam's fixed menu is too coarse.

Search accounting flows into the process metrics registry
(``autosched.candidates`` / ``.beam_kept`` / ``.measured``, and the
``search.*`` events, each also a counter) and, when tracing is on, into
per-round tracer spans.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.computation import Computation, Input, Operation
from repro.core.deps import DependenceSummary
from repro.core.errors import IllegalScheduleError, ScheduleError
from repro.ir.expr import accesses_in
from repro.obs.events import (compile_context, current_compile_id,
                              new_compile_id)
from repro.obs.events import emit as emit_event
from repro.obs.metrics import metrics
from repro.obs.tracer import get_tracer

from .actions import (ActionError, Fuse, Interchange, Parallelize,
                      ScheduleAction, Tile, Unroll, Vectorize)
from .api import AutoScheduleResult, Strategy, register_strategy
from .oracle import CostOracle, ModelOracle
from .plan import SchedulePlan

#: The numeric menus of the move set.
TILE_SIZES = (16, 32, 64, 128)
UNROLL_FACTORS = (2, 4, 8)
VECTOR_LENGTH = 8
#: Tiling stops once a nest would exceed this many loop levels (the
#: hand-written two-level-blocked sgemm peaks at 7).
MAX_NEST_DEPTH = 7


def schedulable_computations(fn) -> List[Computation]:
    """The computations the search may transform: real statements (not
    inputs/operations) with an expression."""
    return [c for c in fn.active_computations()
            if not isinstance(c, (Input, Operation)) and c.expr is not None]


def producer_pairs(fn) -> List[Tuple[Computation, Computation]]:
    """(producer, consumer) pairs read through computation accesses."""
    comps = schedulable_computations(fn)
    pairs: List[Tuple[Computation, Computation]] = []
    for cons in comps:
        for acc in accesses_in(cons.expr):
            prod = acc.computation
            if prod in comps and prod is not cons \
                    and (prod, cons) not in pairs:
                pairs.append((prod, cons))
    return pairs


def enumerate_actions(fn, max_depth: int = MAX_NEST_DEPTH
                      ) -> List[ScheduleAction]:
    """The legal-looking moves from the function's current schedule
    state (structural filters only; real legality is the pruner's job).

    Filters keep the branching factor sane: interchange/tile only touch
    untagged adjacent levels, each computation gets at most one vector /
    unroll / parallel tag, fusion is only proposed for pairs with no
    existing ordering directive, and nests stop tiling at
    ``max_depth`` levels.
    """
    actions: List[ScheduleAction] = []
    comps = schedulable_computations(fn)

    ordered = {(a.name, b.name) for _, a, b, _ in fn.order_directives}
    for prod, cons in producer_pairs(fn):
        if (cons.name, prod.name) in ordered or \
                (prod.name, cons.name) in ordered:
            continue
        shared = min(len(prod.time_names), len(cons.time_names))
        for level in range(shared - 1, -1, -1):
            actions.append(Fuse(cons.name, prod.name, level))

    summary = DependenceSummary.of(fn)
    for comp in comps:
        n = len(comp.time_names)
        tagged = set(comp.tags)
        kinds = {t.kind for t in comp.tags.values()}

        for l in range(n - 1):
            if l not in tagged and l + 1 not in tagged:
                actions.append(Interchange(comp.name, l, l + 1))

        if n + 2 <= max_depth:
            for l in range(n - 1):
                if l in tagged or l + 1 in tagged:
                    continue
                for size in TILE_SIZES:
                    actions.append(Tile(comp.name, l, l + 1, size, size))

        if "vector" not in kinds and n >= 1 and (n - 1) not in tagged:
            actions.append(Vectorize(comp.name, n - 1, VECTOR_LENGTH))

        if "unroll" not in kinds:
            for l in ((n - 1, n - 2) if n >= 2 else (n - 1,)):
                if l < 0 or l in tagged:
                    continue
                for factor in UNROLL_FACTORS:
                    actions.append(Unroll(comp.name, l, factor))

        if "parallel" not in kinds:
            for level in range(min(2, n)):
                if level in tagged:
                    continue
                if not summary.carried(comp, level):
                    actions.append(Parallelize(comp.name, level))
                    break
    return actions


@dataclass
class SearchReport:
    """The beam/evolutionary ledger behind an AutoScheduleResult."""

    strategy: str
    rounds: int = 0
    candidates: int = 0
    pruned_illegal: int = 0
    beam_kept: int = 0
    measured: int = 0
    #: Level profiles the legality gate had to build against those it
    #: found again in the function's DependenceSummary: a candidate
    #: re-walks only the dependences its last action touched.
    profiles_walked: int = 0
    profiles_reused: int = 0
    baseline_cost: float = float("inf")
    best_cost: float = float("inf")
    #: (round, best-cost-so-far) after each round, for convergence plots.
    history: List[Tuple[int, float]] = field(default_factory=list)


def _book_profiles(report: SearchReport, fn, since: Dict[str, int]) -> None:
    now = DependenceSummary.of(fn).stats()
    for key in ("profiles_walked", "profiles_reused"):
        setattr(report, key, getattr(report, key) + now[key] - since[key])


class _Budget:
    """A shared enumeration allowance across rounds/generations."""

    def __init__(self, limit: Optional[int]):
        self.limit = limit
        self.spent = 0

    def take(self) -> bool:
        if self.limit is not None and self.spent >= self.limit:
            return False
        self.spent += 1
        return True


def _try_extension(fn, applied: SchedulePlan, action: ScheduleAction,
                   report: SearchReport) -> bool:
    """Push ``action`` onto the applied plan and keep it only if the
    full schedule stays legal.  Returns True with the action applied,
    or False with the function untouched.  This is the *only* gate
    between enumeration and the oracle: nothing illegal gets scored."""
    try:
        applied.push(fn, action)
    except (ScheduleError, ActionError):
        # Structurally invalid (e.g. tile levels went non-consecutive
        # after an earlier action): not a legality violation, just not
        # a move from this state.
        return False
    try:
        DependenceSummary.of(fn).check()
        return True
    except IllegalScheduleError:
        applied.pop(fn)
        report.pruned_illegal += 1
        emit_event("search.prune", action=repr(action))
        return False


def _expand(fn, plan: SchedulePlan, budget: _Budget, seen: set,
            report: SearchReport) -> List[SchedulePlan]:
    """All legal one-action extensions of ``plan`` (unapplied copies)."""
    out: List[SchedulePlan] = []
    applied = plan.copy().apply(fn)
    try:
        for action in enumerate_actions(fn):
            candidate = plan.extended(action)
            key = candidate.serialize()
            if key in seen:
                continue
            seen.add(key)
            if not budget.take():
                break
            report.candidates += 1
            metrics.counter("autosched.candidates").inc()
            if _try_extension(fn, applied, action, report):
                applied.pop(fn)
                out.append(candidate)
                emit_event("search.candidate", action=repr(action),
                           depth=len(candidate.actions))
    finally:
        if applied.applied:
            applied.undo()
    return out


def beam_search(fn, oracle: CostOracle, *, beam_width: int = 4,
                rounds: int = 3, budget: Optional[int] = None,
                measure_oracle: Optional[CostOracle] = None,
                measure_top_k: int = 4,
                report: Optional[SearchReport] = None
                ) -> Tuple[SchedulePlan, SearchReport]:
    """Beam search from the empty plan; returns (best plan, report).

    Each round expands every beam member by one legal action, ranks the
    union with ``oracle``, and keeps the ``beam_width`` cheapest.  The
    running best is tracked across rounds (extensions are not forced to
    improve monotonically).  When ``measure_oracle`` is given, the
    ``measure_top_k`` best distinct plans are re-ranked by measurement
    and the measured winner is returned.  ``fn`` is left pristine.

    The whole search runs under one ambient journal correlation id
    (inherited when a batch or caller installed one), so its round /
    candidate / prune / measure events — and the compiles a
    ``MeasuredOracle`` triggers — tell one story in the event log.
    """
    with compile_context(current_compile_id() or new_compile_id()):
        return _beam_search_inner(
            fn, oracle, beam_width=beam_width, rounds=rounds,
            budget=budget, measure_oracle=measure_oracle,
            measure_top_k=measure_top_k, report=report)


def _beam_search_inner(fn, oracle: CostOracle, *, beam_width: int,
                       rounds: int, budget: Optional[int],
                       measure_oracle: Optional[CostOracle],
                       measure_top_k: int,
                       report: Optional[SearchReport]
                       ) -> Tuple[SchedulePlan, SearchReport]:
    tracer = get_tracer()
    report = report or SearchReport(strategy="beam")
    since = DependenceSummary.of(fn).stats()
    emit_event("search.begin", strategy=report.strategy,
               function=fn.name, beam_width=beam_width, rounds=rounds)
    budget_ = _Budget(budget)
    baseline = SchedulePlan()
    report.baseline_cost = oracle.score(fn, baseline)
    beam: List[Tuple[SchedulePlan, float]] = [(baseline,
                                               report.baseline_cost)]
    best_pool: Dict[str, Tuple[SchedulePlan, float]] = {
        baseline.serialize(): beam[0]}
    seen = {baseline.serialize()}

    for round_no in range(rounds):
        frontier: List[SchedulePlan] = []
        with tracer.span("autosched.round", cat="autosched",
                         round=round_no, beam=len(beam)):
            for plan, _cost in beam:
                frontier.extend(_expand(fn, plan, budget_, seen, report))
            if not frontier:
                break
            scored = oracle.rank(fn, frontier)
        beam = scored[:beam_width]
        report.rounds = round_no + 1
        report.beam_kept += len(beam)
        metrics.counter("autosched.beam_kept").inc(len(beam))
        for plan, cost in beam:
            best_pool[plan.serialize()] = (plan, cost)
        report.history.append(
            (round_no, min(c for _, c in best_pool.values())))
        emit_event("search.round", round=round_no,
                   frontier=len(frontier), kept=len(beam),
                   best_cost=report.history[-1][1])

    finalists = sorted(best_pool.values(),
                       key=lambda pc: (pc[1], pc[0].serialize()))
    best_plan, best_cost = finalists[0]

    if measure_oracle is not None and len(finalists) > 1:
        top = [p for p, _ in finalists[:max(2, measure_top_k)]]
        emit_event("search.measure", finalists=len(top))
        with tracer.span("autosched.measure", cat="autosched",
                         finalists=len(top)):
            measured = measure_oracle.rank(fn, top)
        report.measured += len(top)
        best_plan, best_cost = measured[0]

    report.best_cost = best_cost
    _book_profiles(report, fn, since)
    emit_event("search.end", strategy=report.strategy,
               rounds=report.rounds, candidates=report.candidates,
               pruned=report.pruned_illegal, best_cost=best_cost,
               actions=len(best_plan.actions))
    return best_plan, report


def _mutations(plan: SchedulePlan, fn, rng: random.Random,
               seen: set) -> List[SchedulePlan]:
    """Local neighbors of ``plan``: numeric tweaks and action drops.
    (Appends come from the beam-style expansion in the caller.)"""
    out: List[SchedulePlan] = []

    def emit(candidate: SchedulePlan) -> None:
        key = candidate.serialize()
        if key not in seen:
            seen.add(key)
            out.append(candidate)

    for idx, action in enumerate(plan.actions):
        if isinstance(action, Tile):
            for size in TILE_SIZES:
                if size != action.size1:
                    tweaked = Tile(action.computation, action.level1,
                                   action.level2, size, size)
                    emit(SchedulePlan(plan.actions[:idx] + [tweaked]
                                      + plan.actions[idx + 1:]))
        elif isinstance(action, Unroll):
            for factor in UNROLL_FACTORS:
                if factor != action.factor:
                    tweaked = Unroll(action.computation, action.level,
                                     factor)
                    emit(SchedulePlan(plan.actions[:idx] + [tweaked]
                                      + plan.actions[idx + 1:]))
        # Dropping a mid-sequence action can invalidate the level
        # numbering of everything after it; only the tail drop is
        # guaranteed meaningful.
    if plan.actions:
        emit(SchedulePlan(plan.actions[:-1]))
    rng.shuffle(out)
    return out


def evolutionary_search(fn, oracle: CostOracle, *,
                        generations: int = 3, population: int = 6,
                        budget: Optional[int] = None, seed: int = 0,
                        beam_width: int = 4, rounds: int = 2,
                        measure_oracle: Optional[CostOracle] = None,
                        measure_top_k: int = 4
                        ) -> Tuple[SchedulePlan, SearchReport]:
    """Beam seed + mutation/selection refinement.

    Generations alternate mutation (tile/unroll tweaks, tail drops) and
    one-action extension over the current population, prune for
    legality, rank, and keep the ``population`` cheapest.  Deterministic
    for a fixed ``seed``.
    """
    with compile_context(current_compile_id() or new_compile_id()):
        return _evolutionary_search_inner(
            fn, oracle, generations=generations, population=population,
            budget=budget, seed=seed, beam_width=beam_width,
            rounds=rounds, measure_oracle=measure_oracle,
            measure_top_k=measure_top_k)


def _evolutionary_search_inner(fn, oracle: CostOracle, *,
                               generations: int, population: int,
                               budget: Optional[int], seed: int,
                               beam_width: int, rounds: int,
                               measure_oracle: Optional[CostOracle],
                               measure_top_k: int
                               ) -> Tuple[SchedulePlan, SearchReport]:
    report = SearchReport(strategy="evolutionary")
    best_plan, report = beam_search(
        fn, oracle, beam_width=beam_width, rounds=rounds, budget=budget,
        report=report, measure_oracle=None)
    report.strategy = "evolutionary"
    since = DependenceSummary.of(fn).stats()
    rng = random.Random(seed)
    budget_ = _Budget(budget)
    budget_.spent = report.candidates
    seen = {best_plan.serialize(), SchedulePlan().serialize()}
    pool: Dict[str, Tuple[SchedulePlan, float]] = {
        best_plan.serialize(): (best_plan, report.best_cost)}
    current = [best_plan]
    tracer = get_tracer()

    for gen in range(generations):
        candidates: List[SchedulePlan] = []
        with tracer.span("autosched.generation", cat="autosched",
                         generation=gen, population=len(current)):
            for plan in current:
                for mutant in _mutations(plan, fn, rng, seen):
                    if not budget_.take():
                        break
                    report.candidates += 1
                    metrics.counter("autosched.candidates").inc()
                    applied = None
                    try:
                        applied = mutant.copy().apply(fn)
                        DependenceSummary.of(fn).check()
                        candidates.append(mutant)
                    except IllegalScheduleError:
                        report.pruned_illegal += 1
                        emit_event("search.prune", plan=mutant.serialize())
                    except (ScheduleError, ActionError):
                        pass
                    finally:
                        if applied is not None and applied.applied:
                            applied.undo()
                candidates.extend(
                    _expand(fn, plan, budget_, seen, report))
            if not candidates:
                break
            scored = oracle.rank(fn, candidates)
        keep = scored[:population]
        report.beam_kept += len(keep)
        metrics.counter("autosched.beam_kept").inc(len(keep))
        for plan, cost in keep:
            pool[plan.serialize()] = (plan, cost)
        current = [p for p, _ in keep]
        report.history.append(
            (rounds + gen, min(c for _, c in pool.values())))
        emit_event("search.round", round=rounds + gen,
                   generation=gen, frontier=len(candidates),
                   kept=len(keep), best_cost=report.history[-1][1])

    finalists = sorted(pool.values(),
                       key=lambda pc: (pc[1], pc[0].serialize()))
    best_plan, best_cost = finalists[0]
    if measure_oracle is not None and len(finalists) > 1:
        top = [p for p, _ in finalists[:max(2, measure_top_k)]]
        emit_event("search.measure", finalists=len(top))
        measured = measure_oracle.rank(fn, top)
        report.measured += len(top)
        best_plan, best_cost = measured[0]
    report.best_cost = best_cost
    _book_profiles(report, fn, since)
    emit_event("search.end", strategy=report.strategy,
               rounds=report.rounds, candidates=report.candidates,
               pruned=report.pruned_illegal, best_cost=best_cost,
               actions=len(best_plan.actions))
    return best_plan, report


def _default_oracle(oracle, params):
    if oracle is not None:
        return oracle
    return ModelOracle(params or {})


def _result(strategy: str, plan: SchedulePlan, report: SearchReport
            ) -> AutoScheduleResult:
    return AutoScheduleResult(
        strategy=strategy, plan=plan, report=report,
        candidates=report.candidates,
        pruned_illegal=report.pruned_illegal,
        beam_kept=report.beam_kept, measured=report.measured,
        best_cost=report.best_cost, baseline_cost=report.baseline_cost)


@register_strategy
class BeamStrategy(Strategy):
    """``strategy="beam"``: fixed-width beam over the action menu."""

    name = "beam"

    def run(self, fn, *, oracle=None, budget: Optional[int] = None,
            params: Optional[Dict[str, int]] = None,
            beam_width: int = 4, rounds: int = 3,
            measure_oracle=None, measure_top_k: int = 4,
            **kw) -> AutoScheduleResult:
        plan, report = beam_search(
            fn, _default_oracle(oracle, params), beam_width=beam_width,
            rounds=rounds, budget=budget, measure_oracle=measure_oracle,
            measure_top_k=measure_top_k)
        return _result(self.name, plan, report)


@register_strategy
class EvolutionaryStrategy(Strategy):
    """``strategy="evolutionary"``: beam seed + mutation refinement."""

    name = "evolutionary"

    def run(self, fn, *, oracle=None, budget: Optional[int] = None,
            params: Optional[Dict[str, int]] = None,
            generations: int = 3, population: int = 6, seed: int = 0,
            beam_width: int = 4, rounds: int = 2,
            measure_oracle=None, measure_top_k: int = 4,
            **kw) -> AutoScheduleResult:
        plan, report = evolutionary_search(
            fn, _default_oracle(oracle, params), generations=generations,
            population=population, budget=budget, seed=seed,
            beam_width=beam_width, rounds=rounds,
            measure_oracle=measure_oracle, measure_top_k=measure_top_k)
        return _result(self.name, plan, report)
