"""Figure 5: normalized execution times for the deep learning, linear
and tensor algebra benchmarks (Conv, VGG, sgemm, HPCG, Baryon) on CPU.

Each entry compares the Tiramisu-scheduled kernel with its baseline:
Intel MKL for Conv/VGG/sgemm, and reference implementations for HPCG and
Baryon (Section VI-A).  Values are baseline_time / tiramisu_time, i.e.
the height of the "Reference" bar with Tiramisu normalized to 1 —
matching the paper's presentation.
"""

from __future__ import annotations

from typing import Dict

from repro.kernels.dnn import (PAPER_CONV, build_conv, build_vgg_block,
                               schedule_conv_cpu, schedule_vgg_fused)
from repro.kernels.hpcg import (PAPER_HPCG, build_spmv27,
                                schedule_spmv_cpu)
from repro.kernels.linalg import (PAPER_BARYON, PAPER_SGEMM, build_baryon,
                                  build_sgemm, schedule_baryon_cpu)
from repro.linalg_lib import (mkl_conv_time, mkl_sgemm_time, mkl_vgg_time)
from repro.machine import CpuCostModel

from .fig1 import schedule_sgemm_tiramisu_tuned


def _model(bundle, params, packed=()):
    return CpuCostModel(bundle.function, params,
                        packed_buffers=list(packed)).estimate().seconds


def conv_vs_mkl(params: Dict[str, int] = None) -> Dict[str, float]:
    params = dict(params or PAPER_CONV)
    bundle = build_conv()
    schedule_conv_cpu(bundle)
    tiramisu = _model(bundle, params)
    mkl = mkl_conv_time(params["B"], params["F"], params["F"],
                        params["N"], params["M"])
    return {"Tiramisu": tiramisu, "Reference": mkl}


def vgg_vs_mkl(params: Dict[str, int] = None) -> Dict[str, float]:
    params = dict(params or PAPER_CONV)
    bundle = build_vgg_block()
    schedule_vgg_fused(bundle)
    tiramisu = _model(bundle, params)
    mkl = mkl_vgg_time(params["B"], params["F"], params["N"], params["M"])
    return {"Tiramisu": tiramisu, "Reference": mkl}


def sgemm_vs_mkl(params: Dict[str, int] = None) -> Dict[str, float]:
    params = dict(params or PAPER_SGEMM)
    bundle = build_sgemm()
    schedule_sgemm_tiramisu_tuned(bundle)
    tiramisu = _model(bundle, params, packed=("B",))
    mkl = mkl_sgemm_time(params["N"], params["M"], params["K"])
    return {"Tiramisu": tiramisu, "Reference": mkl}


def hpcg_vs_reference(params: Dict[str, int] = None) -> Dict[str, float]:
    """Reference: the HPCG reference code — plain OpenMP loops the
    backend compiler auto-vectorizes; Tiramisu adds explicit
    vectorization + parallelism on the SpMV kernel."""
    params = dict(params or PAPER_HPCG)
    bundle = build_spmv27()
    schedule_spmv_cpu(bundle)
    tiramisu = _model(bundle, params)
    ref = build_spmv27()
    ax = ref.computations["Ax"]
    ax.parallelize("z")
    ax.vectorize("x", 8)       # the stencil auto-vectorizes well
    reference = _model(ref, params)
    return {"Tiramisu": tiramisu, "Reference": reference}


def baryon_vs_reference(params: Dict[str, int] = None) -> Dict[str, float]:
    """Reference: the Baryon Building Blocks code — parallel but scalar
    (the paper: vectorizing it needs array expansion + gather/scatter,
    'both not implemented in the reference Baryon code')."""
    params = dict(params or PAPER_BARYON)
    bundle = build_baryon()
    schedule_baryon_cpu(bundle)
    tiramisu = _model(bundle, params)
    ref = build_baryon()
    ref.computations["bar"].parallelize("t")
    reference = _model(ref, params)
    return {"Tiramisu": tiramisu, "Reference": reference}


def figure5() -> Dict[str, float]:
    """Normalized reference/MKL time with Tiramisu = 1 per benchmark."""
    out = {}
    for name, fn in [("Conv", conv_vs_mkl), ("VGG", vgg_vs_mkl),
                     ("Sgemm", sgemm_vs_mkl),
                     ("HPCG", hpcg_vs_reference),
                     ("Baryon", baryon_vs_reference)]:
        pair = fn()
        out[name] = pair["Reference"] / pair["Tiramisu"]
    return out


def figure5_measured(num_threads: int = None, repeats: int = 2):
    """Measured (not modeled) parallel speedups for the Fig. 5 CPU
    kernels on *this* machine: the same scheduled function compiled with
    ``num_threads=1`` vs worker threads, outputs verified bit-identical.
    Returns ``{benchmark: ParallelMeasurement}``."""
    from .parallel import measured_speedups
    return measured_speedups(num_threads=num_threads, repeats=repeats)
