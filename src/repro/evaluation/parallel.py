"""Measured (wall-clock) parallel speedups on the host machine.

The Fig. 5/6 harnesses report *modeled* times for the paper's 12/24-core
machines.  This module complements them with what `parallelize` now
actually does: it compiles the same kernel twice through the staged
driver — once with ``num_threads=1`` and once with worker threads — runs
both on identical inputs, verifies the outputs are bit-identical, and
reports the measured speedup alongside the model's prediction for the
same worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.backends.parallel import resolve_num_threads
from repro.machine import CpuCostModel


@dataclass
class ParallelMeasurement:
    """One sequential-vs-parallel wall-clock comparison."""

    benchmark: str
    workers: int
    sequential_seconds: float
    parallel_seconds: float
    identical: bool              # parallel output bit-identical to seq
    modeled_speedup: Optional[float] = None

    @property
    def speedup(self) -> float:
        if self.parallel_seconds <= 0:
            return float("inf")
        return self.sequential_seconds / self.parallel_seconds

    def row(self) -> tuple:
        return (self.benchmark, self.workers,
                f"{self.sequential_seconds * 1e3:.1f} ms",
                f"{self.parallel_seconds * 1e3:.1f} ms",
                f"{self.speedup:.2f}x",
                "bit-identical" if self.identical else "MISMATCH")


def _time_kernel(kernel, inputs: Dict[str, np.ndarray],
                 params: Dict[str, int], repeats: int) -> tuple:
    best = float("inf")
    outputs = None
    for _ in range(repeats):
        fresh = {k: np.array(v, copy=True) for k, v in inputs.items()}
        start = time.perf_counter()
        outputs = kernel(**fresh, **params)
        best = min(best, time.perf_counter() - start)
    return best, outputs


def measure_parallel_speedup(builder: Callable, schedule: Callable,
                             params: Optional[Dict[str, int]] = None,
                             num_threads: Optional[int] = None,
                             repeats: int = 2,
                             seed: int = 0) -> ParallelMeasurement:
    """Compile ``builder()``'s kernel with ``schedule`` applied, run it
    sequentially and with ``num_threads`` workers, and compare wall
    clocks.

    ``builder`` is a :class:`~repro.kernels.base.KernelBundle` factory
    and ``schedule(bundle)`` applies the (parallel-tagged) schedule.
    """
    workers = resolve_num_threads(num_threads)
    rng = np.random.default_rng(seed)

    seq_bundle = builder()
    schedule(seq_bundle)
    run_params = dict(params or seq_bundle.test_params)
    inputs = seq_bundle.make_inputs(run_params, rng)
    seq_kernel = seq_bundle.function.compile("cpu", num_threads=1)

    par_bundle = builder()
    schedule(par_bundle)
    par_kernel = par_bundle.function.compile("cpu", num_threads=workers)

    seq_s, seq_out = _time_kernel(seq_kernel, inputs, run_params, repeats)
    par_s, par_out = _time_kernel(par_kernel, inputs, run_params, repeats)

    identical = set(seq_out) == set(par_out) and all(
        np.array_equal(seq_out[name], par_out[name]) for name in seq_out)

    model = CpuCostModel(par_bundle.function, run_params,
                         num_threads=workers).estimate().seconds
    model_seq = CpuCostModel(seq_bundle.function, run_params,
                             num_threads=1).estimate().seconds
    modeled = (model_seq / model) if model > 0 else None

    return ParallelMeasurement(
        benchmark=seq_bundle.name, workers=workers,
        sequential_seconds=seq_s, parallel_seconds=par_s,
        identical=identical, modeled_speedup=modeled)


def _parallel_schedules():
    """(name, builder, schedule) triples for the measured sweep: the
    Fig. 5/6 kernels with their outermost loop parallelized."""
    from repro.kernels.dnn import build_conv
    from repro.kernels.image import build_blur
    from repro.kernels.linalg import build_sgemm

    def sched_sgemm(bundle):
        bundle.computations["acc"].interchange("j", "k")
        bundle.computations["acc"].vectorize("j", 8)
        bundle.computations["acc"].parallelize("i")
        bundle.computations["scale"].parallelize(
            bundle.computations["scale"].var_names[0])

    def sched_blur(bundle):
        for comp in bundle.computations.values():
            comp.parallelize(comp.var_names[0])

    def sched_conv(bundle):
        bundle.computations["init"].parallelize("b0")
        bundle.computations["acc"].parallelize("b")

    return [("sgemm", build_sgemm, sched_sgemm),
            ("blur", build_blur, sched_blur),
            ("conv", build_conv, sched_conv)]


def measured_speedups(num_threads: Optional[int] = None,
                      repeats: int = 2,
                      ) -> Dict[str, ParallelMeasurement]:
    """Measured parallel speedups for the Fig. 5/6 CPU kernels, keyed
    by benchmark name (complements the modeled ``figure5()`` bars)."""
    out: Dict[str, ParallelMeasurement] = {}
    for name, builder, schedule in _parallel_schedules():
        out[name] = measure_parallel_speedup(
            builder, schedule, num_threads=num_threads, repeats=repeats)
    return out


def render_measurements(data: Dict[str, ParallelMeasurement]) -> str:
    lines = ["benchmark        workers   sequential     parallel   "
             "speedup   output"]
    for name, m in data.items():
        b, w, s, p, x, ident = m.row()
        lines.append(f"{b:<16} {w:>7}   {s:>10}   {p:>10}   {x:>7}   "
                     f"{ident}")
    return "\n".join(lines)
