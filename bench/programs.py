"""The program table: the paper's evaluation set with its hand schedules.

15 programs in two sets, which are the benchmark's two workloads:

``image``   the eight Fig. 6 image kernels (plus the Fig. 2/3 blur):
            1-4 computations, rectangular and non-rectangular domains,
            fused / tiled / vectorized / parallel schedules, compute_at.
``tensor``  Fig. 1 / Fig. 5 linear algebra, DNN and HPCG kernels plus the
            heat stencil and the skewed symgs wavefront (Table I):
            reductions, two-level tiling, unrolling, fusion at a shared
            batch loop, skewing.

Each row carries the builder, the schedule the benchmark compiles, the
unmodified paper schedule (for ``core.paper_schedules_accepted``), the
sizes it is verified and timed at, and why it is in the set.  ``--seed``
reaches ``src/`` only through :func:`make_inputs` (input data) and
:func:`sweep_order` (per-sweep program order).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import kernels as K
from repro.evaluation.schedules import tiramisu_cpu

#: Every compile the benchmark issues passes these explicitly, so the
#: work done does not depend on ``os.cpu_count()``.
COMPILE_OPTS = {"check_legality": True, "check_races": True,
                "num_threads": 2}

IMAGE_VERIFY = {"N": 66, "M": 58}
IMAGE_CPU = {"N": 514, "M": 514}
IMAGE_NATIVE = {"N": 2050, "M": 2050}


# -- the two benchmark-owned race-free schedules -----------------------------
# The paper schedules for blur (Fig. 3a) and ticket2373 are rejected by
# the race detector at seed (compute_at shares one scratch buffer across
# parallel tiles; ticket2373's `r` loop carries an output dependence).
# That defect is counted by core.paper_schedules_accepted, not timed:
# the timed variants drop exactly the offending parallel tag.

def schedule_blur_race_free(bundle) -> None:
    """Fig. 3a without ``parallelize("i0")``: tile + compute_at, plus
    the interchange/vectorize of ``evaluation.schedules``."""
    bx, by = bundle.computations["bx"], bundle.computations["by"]
    by.tile("i", "j", 32, 32, "i0", "j0", "i1", "j1")
    bx.compute_at(by, "j0")
    by.interchange("j1", "c")
    by.vectorize("j1", 8)


def schedule_ticket2373_race_free(bundle) -> None:
    """The paper schedule is only ``parallelize("r")``; without it the
    triangular nest runs in declaration order."""


@dataclass
class Program:
    name: str
    group: str                                  # "image" | "tensor"
    builder: Callable[[], object]               # -> KernelBundle
    schedule: Callable[[object], None]          # what the benchmark times
    why: str
    paper_schedule: Optional[Callable[[object], None]] = None
    verify_params: Dict[str, int] = field(default_factory=dict)
    cpu_params: Optional[Dict[str, int]] = None      # run_cpu size
    cpu_schedule: Optional[Callable[[object], None]] = None  # run_cpu only
    native_params: Optional[Dict[str, int]] = None   # run_native size
    search: Optional[Tuple[Dict[str, int], int]] = None  # (params, budget)

    def build(self, schedule="timed"):
        """A fresh bundle (schedules mutate the function in place).
        ``schedule``: "timed" (what the compile scenarios time), "cpu"
        (the run_cpu variant), "paper" (unmodified) or None."""
        bundle = self.builder()
        if schedule == "paper":
            (self.paper_schedule or self.schedule)(bundle)
        elif schedule == "cpu":
            (self.cpu_schedule or self.schedule)(bundle)
        elif schedule == "timed":
            self.schedule(bundle)
        elif schedule is not None:
            raise ValueError(schedule)
        return bundle


def _sgemm_32_8(bundle) -> None:
    K.schedule_sgemm_cpu(bundle, 32, 8)


def _sgemm_8_4(bundle) -> None:
    K.schedule_sgemm_cpu(bundle, 8, 4)


PROGRAMS: List[Program] = [
    # ---- image (Fig. 6 + Fig. 2/3) ----------------------------------------
    Program("blur", "image", K.build_blur, schedule_blur_race_free,
            "two stages, overlapped tiling via compute_at (Fig. 3a); "
            "time-space dominates its compile",
            paper_schedule=tiramisu_cpu, verify_params=IMAGE_VERIFY),
    Program("cvtColor", "image", K.build_cvtcolor, tiramisu_cpu,
            "smallest program: one pointwise computation, 8 ms compile",
            verify_params=IMAGE_VERIFY, cpu_params=IMAGE_CPU,
            native_params=IMAGE_NATIVE),
    Program("conv2D", "image", K.build_conv2d, tiramisu_cpu,
            "3x3 stencil with clamped borders, interchanged + vectorized",
            verify_params=IMAGE_VERIFY, cpu_params=IMAGE_CPU,
            native_params=IMAGE_NATIVE),
    Program("warpAffine", "image", K.build_warp_affine, tiramisu_cpu,
            "data-dependent gather: non-affine reads, bilinear blend",
            verify_params=IMAGE_VERIFY, cpu_params=IMAGE_CPU,
            native_params=IMAGE_NATIVE),
    Program("gaussian", "image", K.build_gaussian, tiramisu_cpu,
            "two separable stages kept apart; the cold-process and "
            "profiling probe",
            verify_params=IMAGE_VERIFY, cpu_params=IMAGE_CPU,
            native_params=IMAGE_NATIVE,
            search=({"N": 130, "M": 130}, 60)),
    Program("nb", "image", K.build_nb, tiramisu_cpu,
            "four stages on one buffer fused into one nest (legality "
            "proven by dependence analysis)",
            verify_params=IMAGE_VERIFY, cpu_params={"N": 130, "M": 130},
            native_params=IMAGE_NATIVE),
    Program("edgeDetector", "image", K.build_edge_detector, tiramisu_cpu,
            "cyclic dataflow on an INOUT buffer (inexpressible in Halide)",
            verify_params=IMAGE_VERIFY, cpu_params=IMAGE_CPU,
            native_params=IMAGE_NATIVE),
    Program("ticket2373", "image", K.build_ticket2373,
            schedule_ticket2373_race_free,
            "non-rectangular (triangular) iteration space",
            paper_schedule=tiramisu_cpu,
            verify_params={"N": 67, "R": 45}),
    # ---- tensor (Fig. 1 / Fig. 5 / Table I) -------------------------------
    Program("sgemm", "tensor", K.build_sgemm, _sgemm_32_8,
            "two-level tiling + vectorize + unroll of a reduction: the "
            "deepest nest, heaviest AST stage",
            verify_params={"N": 70, "M": 66, "K": 40},
            cpu_params={"N": 48, "M": 48, "K": 48},
            # 48^3 is smaller than one 32-wide tile, and the interpreter
            # backend pays per loop trip: run_cpu uses the (8, 4) pair.
            cpu_schedule=_sgemm_8_4,
            native_params={"N": 512, "M": 512, "K": 512},
            search=({"N": 64, "M": 64, "K": 64}, 60)),
    Program("conv", "tensor", K.build_conv, K.schedule_conv_cpu,
            "4-D NCHW convolution layer, filter loops specialized; the "
            "tensor set's cold-process and profiling probe",
            verify_params={"B": 2, "F": 4, "N": 20, "M": 18},
            cpu_params={"B": 2, "F": 4, "N": 64, "M": 64},
            native_params={"B": 8, "F": 16, "N": 128, "M": 128},
            search=({"B": 2, "F": 4, "N": 24, "M": 24}, 40)),
    Program("vgg", "tensor", K.build_vgg_block, K.schedule_vgg_fused,
            "three computations fused at the batch loop: the slowest "
            "compile (660 ms), legality-bound",
            verify_params={"B": 2, "F": 3, "N": 14, "M": 12}),
    Program("baryon", "tensor", K.build_baryon, K.schedule_baryon_cpu,
            "dense tensor contraction with an unrolled epsilon tensor",
            verify_params={"T": 12}),
    Program("spmv", "tensor", K.build_spmv27, K.schedule_spmv_cpu,
            "27-point structured SpMV with clamped neighbours: the "
            "largest emitted source",
            verify_params={"G": 10}, cpu_params={"G": 24},
            native_params={"G": 96}),
    Program("heat", "tensor", K.build_heat, K.schedule_heat_cpu,
            "time-iterated stencil: the time loop carries a flow "
            "dependence; the task-graph runtime's program",
            verify_params={"T": 12, "N": 130},
            cpu_params={"T": 48, "N": 2400},
            native_params={"T": 100, "N": 200000}),
    Program("symgs", "tensor", K.build_symgs_forward,
            K.schedule_symgs_wavefront,
            "skewed wavefront (Table I: all affine transformations)",
            verify_params={"N": 30}),
]

GROUPS = ("image", "tensor")
#: The program whose first compile a fresh interpreter times, and whose
#: profile=True/False ratio is reported.
PROBE = {"image": "gaussian", "tensor": "conv"}


def programs(group: str) -> List[Program]:
    return [p for p in PROGRAMS if p.group == group]


#: The 8 programs whose unmodified paper schedule (Fig. 6 + Fig. 3a)
#: ``core.paper_schedules_accepted`` counts, on either workload.
PAPER_SET = programs("image")


def by_name(name: str) -> Program:
    for p in PROGRAMS:
        if p.name == name:
            return p
    raise KeyError(name)


def make_inputs(bundle, params: Dict[str, int], seed: int
                ) -> Dict[str, np.ndarray]:
    """The seeded input data of one program at one size."""
    return bundle.make_inputs(dict(params), np.random.default_rng(seed))


def sweep_order(names: List[str], seed: int, sweep: int) -> List[str]:
    """Program order of one sweep: a seeded shuffle, so no program
    always compiles right after the same neighbour."""
    order = list(names)
    random.Random(seed * 1000003 + sweep).shuffle(order)
    return order
