"""Linear and tensor algebra benchmarks of Section VI-A: sgemm and
Baryon (dense tensor contraction for Baryon Building Blocks).

sgemm computes C = alpha*A*B + beta*C at the paper's 1060x1060 size; the
Tiramisu schedule applies the full optimization set the paper lists:
two-level blocking, vectorization, unrolling, array packing (modelled),
register blocking, and full/partial tile separation.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro import Buffer, Computation, Function, Input, Param, Var
from repro.core.buffer import ArgKind

from .base import KernelBundle

PAPER_SGEMM = {"N": 1060, "M": 1060, "K": 1060}
TEST_SGEMM = {"N": 23, "M": 17, "K": 19}

PAPER_BARYON = {"T": 64}
TEST_BARYON = {"T": 7}


def build_sgemm(alpha: float = 1.5, beta: float = 0.5) -> KernelBundle:
    N, M, K = Param("N"), Param("M"), Param("K")
    f = Function("sgemm", params=[N, M, K])
    with f:
        A = Input("A", [Var("_ax", 0, N), Var("_ay", 0, K)])
        B = Input("B", [Var("_bx", 0, K), Var("_by", 0, M)])
        Cb = Buffer("C", [N, M], kind=ArgKind.INOUT)
        i2, j2 = Var("i2", 0, N), Var("j2", 0, M)
        scale = Computation("scale", [i2, j2], None)
        scale.set_expression(scale(i2, j2) * beta)
        scale.store_in(Cb, [i2, j2])
        i, j, k = Var("i", 0, N), Var("j", 0, M), Var("k", 0, K)
        acc = Computation("acc", [i, j, k], None)
        acc.set_expression(acc(i, j, k) + A(i, k) * B(k, j) * alpha)
        acc.store_in(Cb, [i, j])
        acc.after(scale, None)

    def reference(inputs, params):
        c0 = inputs["C"].astype(np.float32)
        return {"C": (alpha * (inputs["A"] @ inputs["B"])
                      + beta * c0).astype(np.float32)}

    def make_inputs(p, rng):
        return {
            "A": rng.random((p["N"], p["K"])).astype(np.float32),
            "B": rng.random((p["K"], p["M"])).astype(np.float32),
            "C": rng.random((p["N"], p["M"])).astype(np.float32),
        }

    return KernelBundle(
        name="sgemm", function=f,
        computations={"scale": scale, "acc": acc},
        make_inputs=make_inputs, reference=reference,
        paper_params=dict(PAPER_SGEMM), test_params=dict(TEST_SGEMM),
        packed_buffers=["B"])


def schedule_sgemm_cpu(bundle: KernelBundle, t1: int = 64,
                       t2: int = 8) -> None:
    """The paper's sgemm optimization set (Section VI-A): two-level
    blocking of the 3D loop, vectorization, unrolling and parallelization.
    No tile is separated: on ``cpu`` each strip-mined pair folds into one
    slice axis, the tile loops ``i0``/``j0`` included, and ``k`` moves
    out above them (``# loop (k): hoisted over (i0, j0)``), so a chunk of
    ``i0`` is one slab per ``k``; on ``c`` the tile loops keep their
    ``min`` bounds and the
    ``vector`` loop is an ``omp simd`` loop (the C emitter splits a loop
    only at clamped reads, and sgemm has none).  Array packing of B is
    priced by the cost model alone (``packed_buffers``); neither emitter
    packs."""
    acc = bundle.computations["acc"]
    scale = bundle.computations["scale"]
    scale.vectorize("j2", 8)
    scale.parallelize("i2")
    # level 1: i,j -> i0 j0 i1 j1 (t1 x t1)
    acc.tile("i", "j", t1, t1, "i0", "j0", "i1", "j1")
    # move k inside the tile: i0 j0 k i1 j1
    acc.interchange("j1", "k")
    acc.interchange("i1", "k")
    # level 2: register-block the intra-tile loops (t2 x t2)
    acc.tile("i1", "j1", t2, t2, "i10", "j10", "i11", "j11")
    acc.vectorize("j11", 8)
    acc.unroll("i11", t2)
    acc.parallelize("i0")


def schedule_sgemm_pluto_like(bundle: KernelBundle) -> None:
    """What the Pluto algorithm produces: tiling + outer parallelism, no
    vectorization/unrolling/packing (Section II-a)."""
    acc = bundle.computations["acc"]
    acc.tile("i", "j", 32, 32)
    acc.parallelize("i0")


def build_baryon() -> KernelBundle:
    """Dense tensor contraction for Baryon Building Blocks [16]:

        B(t, s) = sum_{sp} w(s, sp) * sum_{c1,c2,c3} eps(c1,c2,c3)
                  * q1(t, c1, sp) * q2(t, c2, sp) * q3(t, c3, sp)

    with color indices c in 0..2 (the epsilon tensor), a source spin
    index sp contracted against a spin projection matrix w, and sink
    spin s (both 0..11).  The Tiramisu speedup over the reference comes
    from vectorization, which the reference lacks (Section VI-A)."""
    T_ = Param("T")
    S = 12
    f = Function("baryon", params=[T_])
    with f:
        q1 = Input("q1", [Var("_t1", 0, T_), Var("_c1", 0, 3),
                          Var("_s1", 0, S)])
        q2 = Input("q2", [Var("_t2", 0, T_), Var("_c2", 0, 3),
                          Var("_s2", 0, S)])
        q3 = Input("q3", [Var("_t3", 0, T_), Var("_c3", 0, 3),
                          Var("_s3", 0, S)])
        wsp = Input("wsp", [Var("_w1", 0, S), Var("_w2", 0, S)])
        t, s, sp = Var("t", 0, T_), Var("s", 0, S), Var("sp", 0, S)
        # epsilon tensor unrolled: even permutations +, odd -.
        perms = [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                 ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1)]
        inner = None
        for (c1, c2, c3), sign in perms:
            term = (q1(t, c1, sp) * q2(t, c2, sp) * q3(t, c3, sp)
                    * float(sign))
            inner = term if inner is None else inner + term
        out_buf = Buffer("bar", [T_, S])
        zero = Computation("zero", [Var("tz", 0, T_), Var("sz", 0, S)],
                           0.0)
        zero.store_in(out_buf, [Var("tz", 0, T_), Var("sz", 0, S)])
        bar = Computation("bar_acc", [t, s, sp], None)
        bar.set_expression(bar(t, s, sp) + wsp(s, sp) * inner)
        bar.store_in(out_buf, [t, s])
        bar.after(zero, None)

    def reference(inputs, params):
        q1_, q2_, q3_ = inputs["q1"], inputs["q2"], inputs["q3"]
        eps = np.zeros((3, 3, 3), np.float32)
        for (c1, c2, c3), sign in [
                ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1)]:
            eps[c1, c2, c3] = sign
        blocks = np.einsum("abc,tap,tbp,tcp->tp", eps, q1_, q2_, q3_)
        out = np.einsum("sp,tp->ts", inputs["wsp"], blocks)
        return {"bar": out.astype(np.float32)}

    def make_inputs(p, rng):
        shape = (p["T"], 3, S)
        data = {k: rng.random(shape).astype(np.float32)
                for k in ("q1", "q2", "q3")}
        data["wsp"] = rng.random((S, S)).astype(np.float32)
        return data

    return KernelBundle(
        name="baryon", function=f,
        computations={"zero": zero, "bar": bar},
        make_inputs=make_inputs, reference=reference,
        paper_params=dict(PAPER_BARYON), test_params=dict(TEST_BARYON))


def schedule_baryon_cpu(bundle: KernelBundle) -> None:
    """Parallelize over t and vectorize the contraction lanes.

    The paper vectorizes via array expansion plus gather/scatter; with
    the (t, c, s) layout of the propagators the equivalent effect is
    lane-parallel evaluation of the spin index with the time loop spread
    over cores (the reference code is parallel but scalar)."""
    zero = bundle.computations["zero"]
    zero.vectorize("sz", 4)
    zero.parallelize("tz")
    bar = bundle.computations["bar"]
    bar.interchange("s", "sp")
    bar.vectorize("s", 4)
    bar.parallelize("t")
