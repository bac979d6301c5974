"""Tier-2 gate for the search-based autoscheduler.

Three promises:

* the beam-found plans for sgemm and conv are legal, race-free,
  compute the reference, and score no worse under the ranking model
  than the hand-written evaluation schedules.  (This was "auto within
  1.2x of hand" on single-sample interpreter wall clocks, with a
  measured-finals pass to paper over the model on conv; what the found
  plan is worth on real threads is
  ``autosched.auto_vs_hand_native_ratio`` in ``python3 -m bench.run``,
  BENCHMARK.json — and ROADMAP open item 5 owns the model's error);
* the search respects its candidate budget;
* the model's ranking is good enough that its top-1 plan measures
  within the top-3 of the beam finalists.
"""

import pytest

from conftest import print_table
from repro.autosched import (MeasuredOracle, ModelOracle, SchedulePlan,
                             autoschedule)
from repro.autosched.search import beam_search
from repro.core.deps import DependenceSummary
from repro.kernels.dnn import build_conv, schedule_conv_cpu
from repro.kernels.linalg import build_sgemm, schedule_sgemm_cpu

SGEMM_PARAMS = {"N": 64, "M": 64, "K": 64}
CONV_PARAMS = {"B": 2, "F": 4, "N": 24, "M": 24}


@pytest.mark.parametrize("builder,hand_schedule,params,budget,search_kw", [
    (build_sgemm, lambda b: schedule_sgemm_cpu(b, 8, 4), SGEMM_PARAMS,
     80, {}),
    (build_conv, schedule_conv_cpu, CONV_PARAMS, 400,
     {"beam_width": 4, "rounds": 4}),
], ids=["sgemm", "conv"])
def test_beam_plan_is_legal_and_models_no_worse_than_hand(
        builder, hand_schedule, params, budget, search_kw):
    oracle = ModelOracle(params, num_threads=1)
    auto = builder()
    result = autoschedule(auto.function, strategy="beam", budget=budget,
                          oracle=oracle, **search_kw)
    hand = builder()
    hand_schedule(hand)
    hand_cost = oracle.score(hand.function, SchedulePlan())
    print_table(f"autosched {auto.name} (model seconds)",
                {"naive": result.baseline_cost, "hand": hand_cost,
                 "auto": result.best_cost,
                 "candidates": result.candidates,
                 "pruned illegal": result.pruned_illegal,
                 "plan": result.plan.serialize()})
    assert result.candidates <= budget
    assert result.best_cost == oracle.score(auto.function, result.plan)
    assert result.best_cost <= hand_cost
    # The search left the function pristine; under the found plan it
    # passes the one legality + race gate and computes the reference.
    result.plan.copy().apply(auto.function)
    DependenceSummary.of(auto.function).check()
    assert auto.verify(params)


class TestSearchDiscipline:
    def test_budget_bounds_enumeration(self):
        fn = build_sgemm().function
        result = autoschedule(fn, strategy="beam", budget=25, rounds=4,
                              params={"N": 24, "M": 20, "K": 16})
        assert result.candidates <= 25


class _RecordingOracle(ModelOracle):
    """Model oracle that remembers every (plan, cost) it scored."""

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.pool = {}

    def score(self, fn, plan):
        cost = super().score(fn, plan)
        self.pool[plan.serialize()] = (plan, cost)
        return cost


class TestModelFidelity:
    def test_model_top1_measures_in_top3_of_finalists(self):
        """The ranking the whole inner loop trusts: the model's chosen
        plan must be one of the 3 fastest among the model's own top-5
        finalists when all five are actually compiled and timed."""
        bundle = build_sgemm()
        oracle = _RecordingOracle(SGEMM_PARAMS, num_threads=1)
        best, report = beam_search(bundle.function, oracle,
                                   beam_width=4, rounds=3, budget=120)
        finalists = sorted(oracle.pool.values(),
                           key=lambda pc: (pc[1], pc[0].serialize()))[:5]
        plans = [p for p, _ in finalists]
        assert best.serialize() == plans[0].serialize()

        measured = MeasuredOracle(SGEMM_PARAMS,
                                  make_inputs=bundle.make_inputs,
                                  repeats=3).rank(bundle.function, plans)
        print_table("model top-5 vs measured (s)",
                    {p.serialize()[:64]: round(c, 4) for p, c in measured})
        top3 = {p.serialize() for p, _ in measured[:3]}
        assert plans[0].serialize() in top3
