"""The Pluto-style greedy strategy (the PENCIL / Pluto / Polly
comparator of the paper — DESIGN.md substitution table).

The heuristic mirrors what Section II-a describes: "the Pluto automatic
scheduling algorithm tries to minimize the distance between producer and
consumer statements while maximizing outermost parallelism, but it does
not consider data layout, redundant computations, or the complexity of
the control of the generated code".  Concretely:

1. **Fusion-first**: for each producer-consumer pair, fuse at the
   deepest loop level that dependence analysis proves legal (minimizing
   reuse distance) — even when that requires permuting loops, and even
   when the permutation destroys spatial locality (the paper's gaussian
   anecdote).
2. **Tiling**: tile the two outermost dimensions of every nest.
3. **Outermost parallelism**: parallelize the outermost loop not
   carrying a dependence.
4. **Never**: vectorization, unrolling, array packing, register
   blocking, or full/partial-tile separation — the optimizations the
   paper lists as missing from fully automatic compilers.

Since the plan redesign the greedy pass builds a
:class:`~repro.autosched.plan.SchedulePlan` like every other strategy:
each probe is a ``push`` and each backtrack a snapshot-restoring
``pop``, which fixes the old hand-rolled undo (re-calling
``interchange`` to reverse itself left ``fn._beta``/dependence state
stale when the second interchange raised).  Use it through
``autoschedule(fn, strategy="pluto")``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.computation import Computation
from repro.core.deps import DependenceSummary
from repro.core.errors import IllegalScheduleError, ScheduleError

from .actions import Fuse, Interchange, Parallelize, Tile
from .api import AutoScheduleResult, Strategy, register_strategy
from .plan import SchedulePlan


@dataclass
class AutoScheduleReport:
    """The legacy per-decision ledger of the greedy pass."""

    fused: List[Tuple[str, str, int]] = field(default_factory=list)
    tiled: List[str] = field(default_factory=list)
    parallelized: List[Tuple[str, int]] = field(default_factory=list)
    interchanged: List[str] = field(default_factory=list)
    candidates: int = 0
    pruned_illegal: int = 0


def _schedulable(fn) -> List[Computation]:
    from .search import schedulable_computations
    return schedulable_computations(fn)


def _producer_pairs(fn) -> List[Tuple[Computation, Computation]]:
    from .search import producer_pairs
    return producer_pairs(fn)


def _try_fuse(fn, plan: SchedulePlan, prod: Computation,
              cons: Computation, report: AutoScheduleReport,
              allow_interchange: bool = True) -> bool:
    """Fuse consumer after producer at the deepest legal shared level.

    Every probe goes through the plan: a failed fusion is a ``pop``
    (exact snapshot restore), including the interchange backtrack —
    the old code re-called ``interchange`` to undo itself, which left
    stale ``_beta``/schedule state behind when that second interchange
    raised partway.
    """
    max_level = min(len(prod.time_names), len(cons.time_names)) - 1
    for level in range(max_level, -1, -1):
        report.candidates += 1
        try:
            plan.push(fn, Fuse(cons.name, prod.name, level))
        except ScheduleError:
            continue
        try:
            DependenceSummary.of(fn).check()
            report.fused.append((prod.name, cons.name, level))
            return True
        except IllegalScheduleError:
            plan.pop(fn)
            report.pruned_illegal += 1
    if allow_interchange and len(cons.time_names) >= 2:
        # Pluto willingly permutes loops to enable fusion (minimizing
        # reuse distance), ignoring the spatial-locality cost — the
        # suboptimal gaussian decision of Section VI-B.
        report.candidates += 1
        try:
            plan.push(fn, Interchange(cons.name, 0, 1))
        except ScheduleError:
            return False
        report.interchanged.append(cons.name)
        if _try_fuse(fn, plan, prod, cons, report,
                     allow_interchange=False):
            return True
        plan.pop(fn)
        report.interchanged.pop()
    return False


def build_pluto_plan(fn, tile_size: int = 32, fuse: bool = True
                     ) -> Tuple[SchedulePlan, AutoScheduleReport]:
    """Run the greedy pass and return (plan, report); ``fn`` is left
    pristine (the plan is built applied, then undone)."""
    plan = SchedulePlan()
    report = AutoScheduleReport()
    try:
        if fuse:
            for prod, cons in _producer_pairs(fn):
                _try_fuse(fn, plan, prod, cons, report)
        for comp in _schedulable(fn):
            if len(comp.time_names) >= 2:
                report.candidates += 1
                try:
                    plan.push(fn, Tile(comp.name, 0, 1,
                                       tile_size, tile_size))
                    report.tiled.append(comp.name)
                except ScheduleError:
                    pass
        summary = DependenceSummary.of(fn)
        for comp in _schedulable(fn):
            for level in range(min(2, len(comp.time_names))):
                if not summary.carried(comp, level):
                    plan.push(fn, Parallelize(comp.name, level))
                    report.parallelized.append((comp.name, level))
                    break
        # Tiling/parallelization after fusion should be legal; if not,
        # fail loudly — the auto-scheduler must never emit wrong code.
        summary.check()
    finally:
        if plan.applied:
            plan.undo(fn)
    return plan, report


@register_strategy
class PlutoStrategy(Strategy):
    """``strategy="pluto"``: the one-shot greedy heuristic (no search,
    no cost model — the paper's fully-automatic baseline)."""

    name = "pluto"

    def run(self, fn, *, oracle=None, budget: Optional[int] = None,
            params: Optional[Dict[str, int]] = None,
            tile_size: int = 32, fuse: bool = True,
            **kw) -> AutoScheduleResult:
        plan, report = build_pluto_plan(fn, tile_size=tile_size,
                                        fuse=fuse)
        result = AutoScheduleResult(
            strategy=self.name, plan=plan, report=report,
            candidates=report.candidates,
            pruned_illegal=report.pruned_illegal)
        if oracle is not None:
            result.baseline_cost = oracle.score(fn, SchedulePlan())
            result.best_cost = oracle.score(fn, plan)
        return result
