"""Auto-found vs hand-written schedules, measured (fig-style table).

The paper's central argument for a scheduling *language* is that expert
schedules beat fixed automatic heuristics; the autoscheduler closes the
loop by searching the same language.  This module measures all three
points per kernel — unscheduled baseline, the hand-written evaluation
schedule, and the ``autoschedule()`` winner compiled through the
driver's ``autoschedule`` option — and reports the auto/hand ratio
(examples/autoschedule_search.py uses its timer; the gated timing is
``autosched.auto_vs_hand_native_ratio`` in ``python3 -m bench.run``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.autosched import autoschedule


@dataclass
class AutoVsHandRow:
    """One kernel's three measured points plus search accounting."""

    benchmark: str
    strategy: str
    naive_seconds: float
    hand_seconds: float
    auto_seconds: float
    plan_actions: int
    candidates: int
    pruned_illegal: int

    @property
    def auto_vs_hand(self) -> float:
        """< 1.0 means the search beat the expert."""
        return (self.auto_seconds / self.hand_seconds
                if self.hand_seconds > 0 else float("inf"))

    @property
    def auto_speedup(self) -> float:
        return (self.naive_seconds / self.auto_seconds
                if self.auto_seconds > 0 else 0.0)


def time_kernel(kernel, inputs: Dict[str, np.ndarray],
                params: Dict[str, int], repeats: int = 3) -> float:
    """Min wall-clock over ``repeats`` runs on fresh input copies."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        args = {k: np.copy(v) for k, v in inputs.items()}
        t0 = time.perf_counter()
        kernel(**args, **params)
        best = min(best, time.perf_counter() - t0)
    return best


def compare_kernel(builder: Callable, hand_schedule: Callable,
                   params: Optional[Dict[str, int]] = None,
                   strategy: str = "beam", budget: int = 60,
                   repeats: int = 3, seed: int = 0,
                   **search_kw) -> AutoVsHandRow:
    """Measure naive / hand / auto for one kernel bundle.

    Three separate bundles keep the schedules independent; the auto
    variant compiles the *pristine* function with the winning plan in
    the ``autoschedule`` option, exactly as a production caller would.
    """
    naive = builder()
    run_params = dict(params or naive.test_params)
    rng = np.random.default_rng(seed)
    inputs = naive.make_inputs(run_params, rng)

    naive_s = time_kernel(naive.function.compile("cpu"), inputs,
                          run_params, repeats)

    hand = builder()
    hand_schedule(hand)
    hand_s = time_kernel(hand.function.compile("cpu"), inputs,
                         run_params, repeats)

    auto = builder()
    result = autoschedule(auto.function, strategy=strategy, budget=budget,
                          params=run_params, **search_kw)
    kernel = auto.function.compile("cpu", autoschedule=result.plan)
    auto_s = time_kernel(kernel, inputs, run_params, repeats)

    return AutoVsHandRow(
        benchmark=naive.name, strategy=strategy,
        naive_seconds=naive_s, hand_seconds=hand_s, auto_seconds=auto_s,
        plan_actions=len(result.plan), candidates=result.candidates,
        pruned_illegal=result.pruned_illegal)


def _comparison_kernels():
    from repro.kernels.dnn import build_conv, schedule_conv_cpu
    from repro.kernels.linalg import build_sgemm, schedule_sgemm_cpu

    def hand_sgemm(bundle):
        # Test-scale tile sizes (the paper's 64x64 degenerates at the
        # comparison problem sizes).
        schedule_sgemm_cpu(bundle, 8, 4)

    return [(build_sgemm, hand_sgemm),
            (build_conv, schedule_conv_cpu)]


def auto_vs_hand_table(params: Optional[Dict[str, int]] = None,
                       strategy: str = "beam", budget: int = 60,
                       **search_kw) -> List[AutoVsHandRow]:
    """The comparison over the gateable kernels (sgemm + conv)."""
    return [compare_kernel(builder, hand, params=params,
                           strategy=strategy, budget=budget, **search_kw)
            for builder, hand in _comparison_kernels()]


def render_auto_vs_hand(rows: List[AutoVsHandRow]) -> str:
    lines = [f"{'benchmark':<10} {'strategy':<13} {'naive ms':>9} "
             f"{'hand ms':>9} {'auto ms':>9} {'auto/hand':>10} "
             f"{'actions':>8} {'cands':>6} {'pruned':>7}"]
    for r in rows:
        lines.append(
            f"{r.benchmark:<10} {r.strategy:<13} "
            f"{r.naive_seconds * 1e3:>9.3f} {r.hand_seconds * 1e3:>9.3f} "
            f"{r.auto_seconds * 1e3:>9.3f} {r.auto_vs_hand:>9.2f}x "
            f"{r.plan_actions:>8} {r.candidates:>6} "
            f"{r.pruned_illegal:>7}")
    return "\n".join(lines)
