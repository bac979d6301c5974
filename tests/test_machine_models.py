"""Directional tests for the analytical machine models: each scheduling
mechanism the paper credits must move the modeled time the right way."""

import numpy as np
import pytest

from repro import Buffer, Computation, Function, Input, Param, Var
from repro.core.buffer import ArgKind
from repro.machine import (CpuCostModel, GpuCostModel, CpuMachine,
                           estimate_messages, halo_exchange_time,
                           message_time)
from repro.machine.params import DEFAULT_NETWORK


def make_sgemm(n=512):
    N, M, K = Param("N"), Param("M"), Param("K")
    f = Function("s", params=[N, M, K])
    with f:
        A = Input("A", [Var("x", 0, N), Var("y", 0, K)])
        B = Input("B", [Var("x2", 0, K), Var("y2", 0, M)])
        Cb = Buffer("C", [N, M], kind=ArgKind.INOUT)
        i, j, k = Var("i", 0, N), Var("j", 0, M), Var("k", 0, K)
        acc = Computation("acc", [i, j, k], None)
        acc.set_expression(acc(i, j, k) + A(i, k) * B(k, j))
        acc.store_in(Cb, [i, j])
    return f, acc, {"N": n, "M": n, "K": n}


def seconds(f, params, packed=()):
    return CpuCostModel(f, params, packed_buffers=list(packed)) \
        .estimate().seconds


class TestCpuModelDirections:
    def test_tiling_helps_gemm(self):
        f1, a1, P = make_sgemm()
        base = seconds(f1, P)
        f2, a2, __ = make_sgemm()
        a2.tile("i", "j", 32, 32)
        a2.interchange("j1", "k")
        a2.interchange("i1", "k")
        assert seconds(f2, P) < base / 3

    def test_vectorize_helps(self):
        f1, a1, P = make_sgemm()
        a1.tile("i", "j", 32, 32)
        a1.interchange("j1", "k"); a1.interchange("i1", "k")
        base = seconds(f1, P)
        f2, a2, __ = make_sgemm()
        a2.tile("i", "j", 32, 32)
        a2.interchange("j1", "k"); a2.interchange("i1", "k")
        a2.vectorize("j1", 8)
        assert seconds(f2, P) < base / 2

    def test_parallel_scales_with_cores(self):
        f1, a1, P = make_sgemm()
        base = seconds(f1, P)
        f2, a2, __ = make_sgemm()
        a2.parallelize("i")
        par = seconds(f2, P)
        assert base / 30 < par < base / 5   # ~24 cores at ~88% efficiency

    def test_packing_never_hurts(self):
        f1, a1, P = make_sgemm()
        a1.tile("i", "j", 32, 32)
        assert seconds(f1, P, packed=("B",)) <= seconds(f1, P)

    def test_guards_disable_vectorization_benefit(self):
        """Unseparated partial tiles fall back to scalar code in codegen
        AND in the model (the separation motivation)."""
        def build(n):
            f = Function(f"f{n}")
            with f:
                c = Computation("c", [Var("i", 0, n)], None)
                c.set_expression(c(Var("i", 0, n)) + 1.0)
            c.split("i", 8)
            c.vectorize("i1", 8)
            return f
        # A fused-with-sibling config that introduces guards is hard to
        # build in isolation; instead check the model's vectorizable
        # predicate directly via the AST.
        from repro.codegen.ast import loops_in
        f = build(64)
        model = CpuCostModel(f, {})
        loop = [l for l in loops_in(model.ast)
                if l.tag is not None and l.tag.kind == "vector"][0]
        # the model asks the predicate the emitter asks
        from repro.codegen import lane_verdict
        assert lane_verdict(f, loop) is None

    def test_model_prices_what_the_emitter_vectorizes(self):
        """heat's i loop (reads another row of the stored buffer) is
        emitted vectorized and priced so; a fused nb body too; a prefix
        sum tagged vector is neither."""
        from repro.kernels import build_heat, schedule_heat_cpu
        params = {"T": 16, "N": 4096}
        plain, tagged = build_heat(), build_heat()
        schedule_heat_cpu(tagged)
        scalar_s = CpuCostModel(plain.function, params).estimate().seconds
        vector_s = CpuCostModel(tagged.function, params).estimate().seconds
        assert vector_s < scalar_s / 2
        assert tagged.function.compile("cpu").vector_loops == 1

        def prefix(tag):
            f = Function("p")
            with f:
                c = Computation("c", [Var("i", 1, 4096)], None)
                c.set_expression(c(Var("i", 1, 4096) - 1) + 1.0)
            if tag:
                c.vectorize("i", 8)
            return f
        assert CpuCostModel(prefix(True), {}).estimate().seconds == \
            CpuCostModel(prefix(False), {}).estimate().seconds

    def test_bandwidth_floor_on_streaming_kernel(self):
        """copy-like kernels are DRAM-bound: parallel+vector can't beat
        bytes/bandwidth."""
        N = Param("N")
        f = Function("copy", params=[N])
        with f:
            inp = Input("inp", [Var("x", 0, N)])
            i = Var("i", 0, N)
            c = Computation("c", [i], None)
            c.set_expression(inp(i) * 1.0)
        c.parallelize("i")
        P = {"N": 200_000_000}
        report = CpuCostModel(f, P).estimate()
        machine = CpuMachine()
        min_time = report.dram_bytes / (machine.mem_bandwidth_gbs * 1e9)
        assert report.seconds >= min_time * 0.99
        assert report.dram_bytes >= 200_000_000 * 4  # at least one pass

    def test_fusion_reduces_dram_traffic(self):
        def build(fused):
            f = Function("nb" + str(fused))
            with f:
                inp = Input("inp", [Var("x", 0, 4096), Var("y", 0, 4096)])
                buf = Buffer("out", [4096, 4096],
                             kind=ArgKind.OUTPUT)
                i1, j1 = Var("i1", 0, 4096), Var("j1", 0, 4096)
                s0 = Computation("s0", [i1, j1], None)
                s0.set_expression(inp(i1, j1) * 2.0)
                s0.store_in(buf, [i1, j1])
                i2, j2 = Var("i2", 0, 4096), Var("j2", 0, 4096)
                s1 = Computation("s1", [i2, j2], None)
                s1.set_expression(s0(i2, j2) + 1.0)
                s1.store_in(buf, [i2, j2])
            if fused:
                s1.after(s0, "j1")
            else:
                s1.after(s0, None)
            return f
        fused = CpuCostModel(build(True), {}).estimate()
        unfused = CpuCostModel(build(False), {}).estimate()
        assert fused.dram_bytes < unfused.dram_bytes

    def test_loads_through_an_inlined_producer_are_counted(self):
        """``b`` reads what the inlined ``a`` reads; the model used to
        step over an inlined access and price ``b`` as a bare store."""
        f = Function("f")
        with f:
            x = Input("x", [Var("p", 0, 4096), Var("q", 0, 4096)])
            y = Input("y", [Var("r", 0, 4096), Var("s", 0, 4096)])
            i, j = Var("i", 0, 4096), Var("j", 0, 4096)
            a = Computation("a", [i, j], x(i, j) + y(j, i))
            u, v = Var("u", 0, 4096), Var("v", 0, 4096)
            b = Computation("b", [u, v], None)
            b.set_expression(a(u, v) * 2.0)
        a.inline()
        model = CpuCostModel(f, {})
        assert [buf.name for buf, __, ___ in model._collect_accesses(b)] \
            == ["x", "y", b.get_buffer().name]
        report = model.estimate()
        assert list(report.per_computation) == ["b"]
        assert report.mem_bytes == 3 * 4 * 4096 ** 2    # x, y and the store

    def test_report_flops_counted(self):
        f, a, P = make_sgemm(64)
        report = CpuCostModel(f, P).estimate()
        # one add + one multiply per iteration over 64^3 iterations
        assert report.flops == pytest.approx(2 * 64 ** 3, rel=0.01)


class TestGpuModelDirections:
    def gemm_gpu(self, shared=False, tile=16):
        f, acc, P = make_sgemm(256)
        acc.tile_gpu("i", "j", tile, tile, "i0", "j0", "i1", "j1")
        acc.split("k", tile, "k0", "k1")
        acc.interchange("j1", "k0")
        acc.interchange("i1", "k0")
        if shared:
            f.find("A").cache_shared_at(acc, "k0")
            f.find("B").cache_shared_at(acc, "k0")
        return f, P

    def test_shared_memory_staging_helps(self):
        f1, P = self.gemm_gpu(shared=False)
        base = GpuCostModel(f1, P).estimate_gpu().kernel_seconds
        f2, P = self.gemm_gpu(shared=True)
        staged = GpuCostModel(f2, P).estimate_gpu().kernel_seconds
        assert staged < base

    def test_divergence_penalty_on_ragged_tiles(self):
        def ratio(tile):
            f = Function(f"g{tile}")
            with f:
                d = Computation("d", [Var("i", 0, 256), Var("j", 0, 256)],
                                1.0)
            d.tile_gpu("i", "j", tile, tile)
            return GpuCostModel(f, {}).estimate_gpu()
        exact = ratio(16)      # divides 256
        ragged = ratio(17)
        assert not exact.divergent
        assert ragged.divergent

    def test_transfers_priced(self):
        f = Function("f")
        with f:
            inp = Input("inp", [Var("x", 0, 1 << 20)])
            i = Var("i", 0, 1 << 20)
            c = Computation("c", [i], None)
            c.set_expression(inp(i) * 2.0)
        op1 = inp.host_to_device()
        op2 = c.device_to_host()
        op1.before(c, None)
        op2.after(c, None)
        rep = GpuCostModel(f, {}).estimate_gpu()
        # 2 x 4 MiB over PCIe
        assert rep.transfer_seconds > 4e-4

    def test_constant_memory_cheaper_than_global(self):
        def model(tag):
            f = Function("f" + tag)
            with f:
                w = Input("w", [Var("k", 0, 9)])
                i = Var("i", 0, 1 << 16)
                c = Computation("c", [i], None)
                expr = None
                for k in range(9):
                    t = w(k) * float(k + 1)
                    expr = t if expr is None else expr + t
                c.set_expression(expr)
            if tag == "const":
                w.get_buffer().tag_gpu_constant()
            c.split("i", 256, "i0", "i1")
            from repro.core.schedule import Tag
            c.tags[0] = Tag("gpu_block")
            c.tags[1] = Tag("gpu_thread")
            return GpuCostModel(f, {}).estimate_gpu().kernel_seconds
        assert model("const") < model("global")


class TestNetworkModel:
    def test_message_time_components(self):
        net = DEFAULT_NETWORK
        small = message_time(net, 8)
        large = message_time(net, 8 * 1024 * 1024)
        assert small == pytest.approx(net.latency_us * 1e-6, rel=0.01)
        assert large > small * 100

    def test_packing_overhead(self):
        net = DEFAULT_NETWORK
        assert message_time(net, 1 << 20, packed=True) > \
            message_time(net, 1 << 20, packed=False)

    def test_per_pair_parallelism(self):
        """Messages between distinct pairs overlap; same pair serialises."""
        one_pair = estimate_messages([(0, 1, 1000)] * 4)
        four_pairs = estimate_messages([(i, i + 1, 1000)
                                        for i in range(4)])
        assert one_pair.seconds > four_pairs.seconds

    def test_overlap_discount(self):
        sync = halo_exchange_time(8, 10_000, overlap=0.0)
        async_ = halo_exchange_time(8, 10_000, overlap=0.5)
        assert async_.seconds == pytest.approx(sync.seconds * 0.5)

    def test_overestimation_scales_volume(self):
        exact = halo_exchange_time(8, 10_000)
        over = halo_exchange_time(8, 10_000, overestimate=8.0)
        assert over.bytes_moved == pytest.approx(exact.bytes_moved * 8)

    def test_halo_exchange_is_bidirectional(self):
        """Regression: the halo model only priced the q+1 -> q
        direction, halving both volume and (same-link) time."""
        est = halo_exchange_time(8, 10_000)
        assert est.messages == 2 * 7
        one_way = estimate_messages([(q + 1, q, 10_000)
                                     for q in range(7)])
        assert est.bytes_moved == pytest.approx(2 * one_way.bytes_moved)
        # Both directions ride the same physical link and serialise.
        assert est.seconds == pytest.approx(2 * one_way.seconds)

    def test_both_directions_share_the_link(self):
        fwd = estimate_messages([(0, 1, 1000)])
        both = estimate_messages([(0, 1, 1000), (1, 0, 1000)])
        assert both.seconds == pytest.approx(2 * fwd.seconds)
