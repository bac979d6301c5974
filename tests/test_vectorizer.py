"""Vectorized emission: when whole-range NumPy statements are generated,
when the emitter must leave the loop scalar (and says why), and that
both are correct."""

import numpy as np
import pytest

from repro import Buffer, Computation, Function, Input, Param, Var
from repro.codegen import lane_verdict, loops_in
from repro.isl import LinExpr


def has_vector_code(kernel) -> bool:
    return kernel.vector_loops > 0


def declines(kernel):
    """Why each vector-tagged loop stayed scalar, from the source."""
    return kernel.vector_declines


class TestVectorEmission:
    def test_elementwise_vectorizes(self):
        f = Function("f")
        with f:
            inp = Input("inp", [Var("x", 0, 64)])
            i = Var("i", 0, 64)
            c = Computation("c", [i], None)
            c.set_expression(inp(i) * 2.0 + 1.0)
        c.vectorize("i", 8)
        k = f.compile("cpu")
        assert has_vector_code(k)
        data = np.arange(64, dtype=np.float32)
        assert np.allclose(k(inp=data)["c"], data * 2 + 1)

    def test_shifted_reads_of_other_buffer_vectorize(self):
        f = Function("f")
        with f:
            inp = Input("inp", [Var("x", 0, 66)])
            i = Var("i", 0, 64)
            c = Computation("c", [i], None)
            c.set_expression(inp(i) + inp(i + 2))
        c.vectorize("i", 8)
        k = f.compile("cpu")
        assert has_vector_code(k)
        data = np.arange(66, dtype=np.float32)
        assert np.allclose(k(inp=data)["c"], data[:64] + data[2:66])

    def test_elementwise_self_update_vectorizes(self):
        """c(i) = c(i) + 1: same-index self access is lane-safe."""
        f = Function("f")
        with f:
            i = Var("i", 0, 32)
            c = Computation("c", [i], None)
            c.set_expression(c(i) + 1.0)
        c.vectorize("i", 8)
        k = f.compile("cpu")
        assert has_vector_code(k)
        assert (k()["c"] == 1).all()

    def test_strided_store_vectorizes_with_stepped_slice(self):
        f = Function("f")
        with f:
            i = Var("i", 0, 16)
            buf = Buffer("b", [32])
            c = Computation("c", [i], None)
            c.set_expression(1.0 * i)
            c.store_in(buf, [i * 2])
        c.vectorize("i", 8)
        k = f.compile("cpu")
        assert has_vector_code(k) and "b_b[0:31:2]" in k.source
        out = k()["b"]
        assert np.allclose(out[::2], np.arange(16))
        assert (out[1::2] == 0).all()

    def test_unit_stride_access_is_a_slice_without_lane_vector(self):
        """np.arange appears only when some access needs the vector."""
        f = Function("f")
        with f:
            inp = Input("inp", [Var("x", 0, 66)])
            i = Var("i", 0, 64)
            c = Computation("c", [i], None)
            c.set_expression(inp(i) + inp(i + 2))
        c.vectorize("i", 8)
        src = f.compile("cpu").source
        assert "b_c[0:64] = b_inp[0:64] + b_inp[2:66]" in src
        assert "np.arange" not in src

    def test_lane_var_as_value_and_diagonal_need_the_lane_vector(self):
        f = Function("f")
        with f:
            sq = Input("sq", [Var("x", 0, 8), Var("y", 0, 8)])
            i = Var("i", 0, 8)
            c = Computation("c", [i], None)
            c.set_expression(sq(i, i) + 1.0 * i)
        c.vectorize("i", 8)
        k = f.compile("cpu")
        assert has_vector_code(k)
        assert "t0 = np.arange(0, 8)" in k.source
        assert "b_sq[t0, t0]" in k.source
        data = np.arange(64, dtype=np.float32).reshape(8, 8)
        assert np.array_equal(k(sq=data)["c"],
                              np.diag(data) + np.arange(8))

    def test_weak_lane_operand_takes_the_strong_operand_type(self):
        """The lane vector is a strong int64 array where the scalar loop
        variable is a weak Python int: ``float32 * (0.1 * j)`` must stay
        float32 vectorized, as it is unvectorized and on ``c``."""
        from repro.backends.c import have_c_compiler

        def run(tag, target):
            f = Function("f")
            with f:
                img = Input("img", [Var("x", 0, 9), Var("y", 0, 37)])
                i, j = Var("i", 0, 9), Var("j", 0, 37)
                out = Computation("out", [i, j], None)
                out.set_expression(img(i, j) * (0.1 * j))
            if tag:
                out.vectorize("j", 8)
            kernel = f.compile(target)
            return kernel, kernel(img=data.copy())["out"]

        data = (np.random.default_rng(0).random((9, 37)) * 255).astype(
            np.float32)
        __, scalar = run(False, "cpu")
        kernel, vector = run(True, "cpu")
        assert has_vector_code(kernel)
        assert "b_img[0:9, 0:37] * np.float32(0.1 * t1)" in kernel.source
        assert np.array_equal(scalar, vector)
        if have_c_compiler():
            assert np.array_equal(scalar, run(True, "c")[1])

    def test_other_row_of_stored_buffer_vectorizes(self):
        """heat: u[t, i] reads u[t-1, i±1] — the stored buffer at another
        index, but no dependence is carried by the i loop."""
        from repro.kernels import build_heat, schedule_heat_cpu
        bundle = build_heat()
        schedule_heat_cpu(bundle)
        for opts in ({}, {"check_races": True}):
            k = bundle.function.compile("cpu", cache=False, **opts)
            assert k.vector_loops == 1 and not declines(k)
            assert k.report.vector_loops == 1
        params = dict(bundle.test_params)
        inputs = bundle.make_inputs(params, np.random.default_rng(0))
        ref = bundle.reference({n: v.copy() for n, v in inputs.items()},
                               params)
        assert np.allclose(k(**inputs, **params)["u"], ref["u"], atol=1e-5)

    def test_fused_statements_distribute(self):
        """nb: four statements on one buffer fused into one vector loop
        run one after the other over the whole range."""
        from repro.evaluation.schedules import tiramisu_cpu
        from repro.kernels import build_nb
        bundle = build_nb()
        tiramisu_cpu(bundle)
        k = bundle.function.compile("cpu", num_threads=1)
        assert k.vector_loops >= 1 and not declines(k)
        params = dict(bundle.test_params)
        inputs = bundle.make_inputs(params, np.random.default_rng(0))
        ref = bundle.reference({n: v.copy() for n, v in inputs.items()},
                               params)
        assert np.allclose(k(**inputs, **params)["out"], ref["out"],
                           atol=1e-4)

    def test_clamped_reads_share_one_window_scalar_clamps_in_python(self):
        from repro.ir import clamp
        data = np.arange(36, dtype=np.float32).reshape(6, 6)
        want = data[np.ix_(np.clip(np.arange(6) - 1, 0, 5),
                           np.clip(np.arange(6) + 1, 0, 5))] * 3.0
        for rows_join in (True, False):
            N = Param("N")
            f = Function("f", params=[N])
            with f:
                inp = Input("inp", [Var("x", 0, N), Var("y", 0, N)])
                i, j = Var("i", 0, N), Var("j", 0, N)
                c = Computation("c", [i, j], None)
                at = inp(clamp(i - 1, 0, N - 1), clamp(j + 1, 0, N - 1))
                c.set_expression(at + inp(clamp(i - 1, 0, N - 1),
                                          clamp(j + 1, 0, N - 1)) * 2.0)
                if not rows_join:   # every row stores the same line:
                    c.store_in(Buffer("c", [N]), [j])   # i stays a loop
            c.vectorize("j", 8)
            src = f.compile("cpu").source
            # both reads slice one window, gathered once along each slab
            # axis; a clamp on a loop outside the slab is a Python int
            assert "np.clip(" not in src
            assert src.count("np.take(") == (2 if rows_join else 1)
            assert src.count("min(max(t0 - 1, 0), N - 1)") == (not rows_join)
            out = f.compile("cpu")(inp=data, N=6)["c"]
            assert np.array_equal(out, want if rows_join else want[-1])

    def test_lanes_wider_than_the_buffer_raise(self):
        """A slice would silently truncate where an index raises."""
        f = Function("f")
        with f:
            inp = Input("inp", [Var("x", 0, 70)])
            i = Var("i", 0, 70)
            buf = Buffer("b", [64])
            c = Computation("c", [i], None)
            c.set_expression(inp(i) * 2.0)
            c.store_in(buf, [i])
        c.vectorize("i", 8)
        k = f.compile("cpu")
        assert has_vector_code(k)
        with pytest.raises(IndexError):
            k(inp=np.ones(70, dtype=np.float32))
        with pytest.raises(IndexError):   # every operand short alike
            k(inp=np.ones(64, dtype=np.float32))

    def test_empty_lane_range_runs_nothing(self):
        N = Param("N")
        f = Function("f", params=[N])
        with f:
            i = Var("i", 2, N - 2)
            buf = Buffer("b", [8])
            c = Computation("c", [i], 1.0)
            c.store_in(buf, [i])
        c.vectorize("i", 8)
        k = f.compile("cpu")
        assert has_vector_code(k)
        assert (k(N=1)["b"] == 0).all()   # 2:-1 must not wrap around
        assert (k(N=8)["b"] == [0, 0, 1, 1, 1, 1, 0, 0]).all()


class TestScalarFallback:
    def test_loop_carried_self_dependence_falls_back(self):
        """c(i) = c(i-1) + 1 must NOT vectorize (prefix sum)."""
        f = Function("f")
        with f:
            i = Var("i", 1, 32)
            buf = Buffer("b", [32])
            z = Computation("z", [Var("u", 0, 1)], 1.0)
            z.store_in(buf, [0])
            c = Computation("c", [i], None)
            c.set_expression(c(i - 1) + 1.0)
            c.store_in(buf, [i])
        c.after(z)
        c.vectorize("i", 8)
        k = f.compile("cpu")
        assert not has_vector_code(k)
        assert declines(k) == ["i: carried flow c->c on b"]
        assert k.report.vector_declines == declines(k)
        out = k()["b"]
        assert np.allclose(out, np.arange(1, 33))  # correct despite tag

    def test_predicate_falls_back(self):
        f = Function("f")
        with f:
            inp = Input("inp", [Var("x", 0, 16)])
            i = Var("i", 0, 16)
            c = Computation("c", [i], 5.0)
            c.add_predicate(inp(i) > 0.0)
        c.vectorize("i", 8)
        k = f.compile("cpu")
        assert declines(k) == ["i: predicate"]
        data = np.array([1.0, -1.0] * 8, dtype=np.float32)
        out = k(inp=data)["c"]
        assert np.allclose(out, np.where(data > 0, 5.0, 0.0))

    def test_vector_store_not_driven_by_lane_var_falls_back(self):
        """Reduction over the tagged dim: all lanes write one cell."""
        f = Function("f")
        with f:
            i, k_ = Var("i", 0, 8), Var("k", 0, 16)
            buf = Buffer("acc", [8])
            c = Computation("c", [i, k_], None)
            c.set_expression(c(i, k_) + 1.0)
            c.store_in(buf, [i])
        c.vectorize("k", 8)
        kern = f.compile("cpu")
        assert declines(kern) == ["k: store-not-driven"]
        out = kern()["acc"]
        assert (out == 16).all()

    def test_lane_var_is_matched_by_coefficient_not_substring(self):
        """The store index ``t0 + st1`` contains the text "t1" (inside
        the parameter's name) but does not move with lane var t1."""
        st1 = Param("st1")
        f = Function("f", params=[st1])
        with f:
            i, k_ = Var("i", 0, 4), Var("k", 0, 6)
            buf = Buffer("b", [8])
            c = Computation("c", [i, k_], None)
            c.set_expression(1.0 * k_)
            c.store_in(buf, [i + st1])
        c.vectorize("k", 8)
        loop = next(lp for lp in loops_in(f.lower()) if lp.level == 1)
        assert lane_verdict(f, loop) == "store-not-driven"
        kern = f.compile("cpu")
        assert declines(kern) == ["k: store-not-driven"]
        assert (kern(st1=2)["b"] == [0, 0, 5, 5, 5, 5, 0, 0]).all()

    def test_guarded_statement_falls_back(self):
        f = Function("f")
        with f:
            i = Var("i", 0, 16)
            a = Computation("a", [i], 1.0)
            b = Computation("b", [Var("i2", 0, 12)], 2.0)
        b.after(a, "i")
        a.vectorize("i", 8)
        k = f.compile("cpu")
        assert declines(k) == ["i: guard"]
        out = k()
        assert (out["a"] == 1).all() and (out["b"] == 2).all()

    def test_multi_statement_loop_vectorizes_both(self):
        f = Function("f")
        with f:
            i = Var("i", 0, 16)
            a = Computation("a", [i], 1.0)
            b = Computation("b", [Var("i2", 0, 16)], 2.0)
        b.after(a, "i")
        a.vectorize("i", 8)
        b.vectorize("i2", 8)
        k = f.compile("cpu")
        assert k.vector_loops == 1 and k.source.count("[0:16] = ") == 2
        out = k()
        assert (out["a"] == 1).all() and (out["b"] == 2).all()


class TestClampGatherVectorization:
    def test_clamped_access_vectorizes_via_clip(self):
        from repro.ir import clamp
        N = Param("N")
        f = Function("f", params=[N])
        with f:
            inp = Input("inp", [Var("x", 0, N)])
            i = Var("i", 0, N)
            c = Computation("c", [i], None)
            c.set_expression(inp(clamp(i - 1, 0, N - 1)))
        c.vectorize("i", 8)
        k = f.compile("cpu")
        data = np.arange(16, dtype=np.float32)
        out = k(inp=data, N=16)["c"]
        ref = data[np.clip(np.arange(16) - 1, 0, 15)]
        assert np.allclose(out, ref)


def _both(build, **inputs):
    """``build(tag)`` -> (function, compile options): the kernel compiled
    with its vector tag and the same nest left as Python loops, run on
    copies of ``inputs``; asserts the outputs bit-identical and returns
    the tagged kernel and its outputs."""
    outs = []
    for tag in (True, False):
        f, opts = build(tag)
        k = f.compile("cpu", cache=False, **opts)
        outs.append((k, k(**{n: np.copy(v) for n, v in inputs.items()})))
    (kernel, got), (__, want) = outs
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype
        assert np.array_equal(got[name], want[name]), name
    return kernel, got


class TestSlabs:
    """A ``vector`` loop takes the dependence-free loops of the perfect
    nest around it along, as further slice axes of one statement."""

    rng = np.random.default_rng(5)

    def test_untagged_loop_joins_as_a_second_slice_axis(self):
        def build(tag):
            f = Function("f")
            with f:
                inp = Input("inp", [Var("x", 0, 7), Var("y", 0, 12)])
                i, j = Var("i", 0, 7), Var("j", 1, 11)
                c = Computation("c", [i, j], None)
                c.set_expression(inp(i, j - 1) + inp(i, j + 1) * 0.5)
            if tag:
                c.vectorize("j", 8)
            return f, {}
        k, __ = _both(build, inp=self.rng.random((7, 12), np.float32))
        assert "b_c[0:7, 1:11] = b_inp[0:7, 0:10] + (b_inp[0:7, 2:12] * 0.5)" \
            in k.source
        assert "# vectorized (j) over (i)" in k.source
        assert "for " not in k.source
        assert k.vector_loops == 1 and not declines(k)

    def test_unroll_joins_and_a_row_operand_broadcasts(self):
        """sgemm's shape: the unrolled row loop joins, so ``A[i, k]``
        moves with the first axis only and is read as a column."""
        def build(tag):
            f = Function("f")
            with f:
                A = Input("A", [Var("x", 0, 6), Var("y", 0, 5)])
                B = Input("B", [Var("x2", 0, 5), Var("y2", 0, 9)])
                i, j, r = Var("i", 0, 6), Var("j", 0, 9), Var("r", 0, 5)
                z = Computation("z", [Var("i0", 0, 6), Var("j0", 0, 9)], 0.0)
                buf = Buffer("C", [6, 9])
                z.store_in(buf, [Var("i0", 0, 6), Var("j0", 0, 9)])
                c = Computation("c", [r, i, j], None)
                c.set_expression(c(r, i, j) + A(i, r) * B(r, j) * 1.5)
                c.store_in(buf, [i, j])
            c.after(z)
            if tag:
                c.vectorize("j", 8)
                c.unroll("i", 2)
            return f, {}
        k, __ = _both(build, A=self.rng.random((6, 5), np.float32),
                      B=self.rng.random((5, 9), np.float32))
        assert "b_A[0:6, t0, None] * b_B[t0, 0:9]" in k.source
        # the reduction loop stays, and says why
        assert "for t0 in range(0, 5):  # loop (r): outside slab, " \
               "store-not-driven" in k.source
        assert "# vectorized (j) over (i)" in k.source

    def test_parallel_chunk_joins_and_workers_store_the_same_bits(
            self, monkeypatch):
        # no size floor: the 40 x 9 slab really runs as two chunks
        monkeypatch.setattr("repro.backends.parallel.THREAD_FLOOR_BYTES", 0)

        def build(tag):
            f = Function("f")
            with f:
                inp = Input("inp", [Var("x", 0, 40), Var("y", 0, 9)])
                i, j = Var("i", 0, 40), Var("j", 0, 9)
                c = Computation("c", [i, j], None)
                c.set_expression(inp(i, j) * 3.0 + 1.0 * i)
            c.parallelize("i")
            if tag:
                c.vectorize("j", 8)
            return f, {"num_threads": 2 if tag else 1}
        k, __ = _both(build, inp=self.rng.random((40, 9), np.float32))
        assert k.runtime.stats.chunks == 2 and k.parallel_regions == 1
        assert "b_c[_lo:_hi + 1, 0:9] = " in k.source
        assert "for " not in k.source.split("def _kernel")[0]

    def test_chain_restarts_below_a_reduction_level(self):
        """conv's shape: f, [c], y, x -- the channel loop does not drive
        the store, so y and x make a slab under it and f stays out."""
        def build(tag):
            f = Function("f")
            with f:
                inp = Input("inp", [Var("a", 0, 3), Var("b", 0, 6),
                                    Var("d", 0, 8)])
                o, ch = Var("o", 0, 4), Var("ch", 0, 3)
                y, x = Var("y", 0, 6), Var("x", 0, 8)
                buf = Buffer("out", [4, 6, 8])
                c = Computation("c", [o, ch, y, x], None)
                c.set_expression(c(o, ch, y, x) + inp(ch, y, x) * (1.0 + o))
                c.store_in(buf, [o, y, x])
            if tag:
                c.vectorize("x", 8)
            return f, {}
        k, __ = _both(build, inp=self.rng.random((3, 6, 8), np.float32))
        assert "for t0 in range(0, 4):\n" in k.source
        assert "for t1 in range(0, 3):  # loop (ch): outside slab, " \
               "store-not-driven" in k.source
        assert "b_out[t0, 0:6, 0:8] = b_out[t0, 0:6, 0:8] + " in k.source

    def test_triangular_inner_bound_stops_the_chain(self):
        def build(tag):
            f = Function("f")
            with f:
                i = Var("i", 0, 8)
                j = Var("j", i, 8)
                c = Computation("c", [i, j], None)
                c.set_expression(1.0 * i + 2.0 * j)
            if tag:
                c.vectorize("j", 8)
            return f, {}
        k, got = _both(build)
        assert "# loop (i): outside slab, non-rectangular" in k.source
        assert "# vectorized (j)\n" in k.source
        assert got["c"][5, 6] == 17 and got["c"][6, 5] == 0

    def test_store_moved_by_two_axes_refuses(self):
        def build(tag):
            f = Function("f")
            with f:
                i, j = Var("i", 0, 4), Var("j", 0, 6)
                c = Computation("c", [i, j], None)
                c.set_expression(1.0 * i)
                c.store_in(Buffer("b", [10]), [i + j])
            if tag:
                c.vectorize("j", 8)
            return f, {}
        k, got = _both(build)
        assert "# loop (i): outside slab, store-not-separable" in k.source
        assert k.vector_loops == 1
        assert (got["b"] == [0, 1, 2, 3, 3, 3, 3, 3, 3, 0]).all()

    def test_transposed_read(self):
        def build(tag):
            f = Function("f")
            with f:
                inp = Input("inp", [Var("x", 0, 9), Var("y", 0, 5)])
                i, j = Var("i", 0, 5), Var("j", 0, 9)
                c = Computation("c", [i, j], None)
                c.set_expression(inp(j, i) * 2.0)
            if tag:
                c.vectorize("j", 8)
            return f, {}
        data = self.rng.random((9, 5), np.float32)
        k, got = _both(build, inp=data)
        assert "over (i)" in k.source
        assert np.array_equal(got["c"], data.T * 2.0)

    @pytest.mark.parametrize("fused", [False, True])
    def test_one_buffer_axis_sliced_by_two_slab_variables(self, fused):
        """``k[i]`` and ``k[j]`` slice the same axis of ``k`` over
        different ranges, in one statement or in two fused ones: each
        read keeps its own variable's bounds, and each is range-checked."""
        def build(tag):
            f = Function("f")
            with f:
                kk = Input("k", [Var("x", 0, 12)])
                i, j = Var("i", 1, 5), Var("j", 2, 11)
                a = Computation("a", [i, j], None)
                if fused:
                    a.set_expression(kk(i) * 2.0)
                    i2, j2 = Var("i2", 1, 5), Var("j2", 2, 11)
                    b = Computation("b", [i2, j2], None)
                    b.set_expression(a(i2, j2) * kk(j2))
                    b.after(a, "j")
                else:
                    a.set_expression(kk(i) * kk(j))
            if tag:
                a.vectorize("j", 16)
                if fused:
                    b.vectorize("j2", 16)
            return f, {}
        data = self.rng.random(12, np.float32)
        k, got = _both(build, k=data)
        assert "b_k[1:5, None]" in k.source and "b_k[2:11]" in k.source
        assert "# vectorized (j) over (i)" in k.source
        assert "for " not in k.source
        out = got["b" if fused else "a"][1:5, 2:11]
        assert np.array_equal(out, (data[1:5, None] * 2.0 if fused
                                    else data[1:5, None]) * data[2:11])
        with pytest.raises(IndexError, match="vector loop j"):
            k(k=data[:10])      # long enough for i, short for j

    def test_repeated_lane_valued_subtree_is_computed_once(self):
        """warpAffine's shape: ``floor(x)`` of a coordinate that stands
        in the statement four times is one local, what it is built from
        another only because it is also used beside it; the cast the
        float32 operand needs wraps the local."""
        from repro.ir import floor
        def build(tag):
            f = Function("f")
            with f:
                inp = Input("inp", [Var("x", 0, 6), Var("y", 0, 9)])
                i, j = Var("i", 0, 6), Var("j", 0, 9)
                x = 0.25 * i + 0.5 * j
                frac = x - floor(x)
                c = Computation("c", [i, j], None)
                c.set_expression(inp(i, j) * x + (1 - frac) * frac)
            if tag:
                c.vectorize("j", 16)
            return f, {}
        k, __ = _both(build, inp=self.rng.random((6, 9), np.float32))
        src = k.source
        assert src.count("np.floor(") == 1 and src.count("0.25 * t0") == 1
        assert "_c1 = (0.25 * t0) + (0.5 * t1)\n" in src
        assert "_c2 = _c1 - np.floor(_c1)\n" in src
        assert "b_inp[0:6, 0:9] * np.float32(_c1)" in src
        assert "(1 - _c2) * _c2" in src

    def test_inlined_producer_in_a_slab(self):
        """Each place an inlined producer is read lowers its body with
        that place's indices; what repeats inside one body is a local."""
        from repro.ir import floor
        def build(tag):
            f = Function("f")
            with f:
                inp = Input("inp", [Var("x", 0, 6), Var("y", 0, 10)])
                i, j = Var("i", 0, 6), Var("j", 1, 9)
                p, q = Var("p", 0, 6), Var("q", 0, 10)
                frac = 0.3 * q - floor(0.3 * q)
                a = Computation("a", [p, q], inp(p, q) * frac + frac)
                c = Computation("c", [i, j], None)
                c.set_expression(a(i, j - 1) - a(i, j + 1))
            a.inline()
            if tag:
                c.vectorize("j", 16)
            return f, {}
        k, __ = _both(build, inp=self.rng.random((6, 10), np.float32))
        assert "# vectorized (j) over (i)" in k.source
        assert k.source.count("np.floor(") == 2      # one per place

    def test_index_vector_apart_from_a_scalar_index_keeps_its_axis(self):
        """``b[t0, 0:M, idx(c)]``: NumPy would put the axis of an index
        vector separated from the scalar by a slice *first* -- (C, M)."""
        from repro.ir import clamp
        def build(tag):
            f = Function("f")
            with f:
                inp = Input("inp", [Var("x", 0, 3), Var("y", 0, 7),
                                    Var("z", 0, 4)])
                r, m, c_ = Var("r", 0, 3), Var("m", 0, 7), Var("ch", 0, 4)
                c = Computation("c", [r, m, c_], None)
                c.set_expression(inp(r, m, clamp(c_ + 1, 0, 3)))
                c.store_in(Buffer("out", [7, 4]), [m, c_])
            if tag:
                c.vectorize("ch", 4)
            return f, {}
        data = self.rng.random((3, 7, 4), np.float32)
        k, got = _both(build, inp=data)
        assert "vectorized (ch) over (m)" in k.source
        assert np.array_equal(got["out"], data[2][:, [1, 2, 3, 3]])

    def test_empty_range_on_any_axis_runs_nothing(self):
        N, M = Param("N"), Param("M")
        f = Function("f", params=[N, M])
        with f:
            i, j = Var("i", 2, N - 2), Var("j", 1, M - 1)
            c = Computation("c", [i, j], 1.0)
            c.store_in(Buffer("b", [8, 6]), [i, j])
        c.vectorize("j", 8)
        k = f.compile("cpu")
        assert "over (i)" in k.source
        assert (k(N=1, M=6)["b"] == 0).all()    # 2:-1 must not wrap around
        assert (k(N=8, M=1)["b"] == 0).all()
        assert k(N=8, M=6)["b"].sum() == 4 * 4

    def test_buffer_short_along_a_joined_axis_raises(self):
        f = Function("f")
        with f:
            inp = Input("inp", [Var("x", 0, 10), Var("y", 0, 6)])
            i, j = Var("i", 0, 10), Var("j", 0, 6)
            c = Computation("c", [i, j], None)
            c.set_expression(inp(i, j) * 2.0)
        c.vectorize("j", 8)
        k = f.compile("cpu")
        assert "b_c[0:10, 0:6]" in k.source
        with pytest.raises(IndexError, match="vector loop j"):
            k(inp=np.ones((8, 6), dtype=np.float32))     # rows, not lanes

    def test_profile_counts_the_product_of_the_spans(self):
        N = Param("N")
        f = Function("f", params=[N])
        with f:
            i, j = Var("i", 1, N), Var("j", 0, 6)
            c = Computation("c", [i, j], 1.0)
            c.store_in(Buffer("b", [9, 6]), [i, j])
        c.vectorize("j", 8)
        k = f.compile("cpu", profile=True, num_threads=1)
        assert "_ct0 += (N - 1) * 6\n" in k.source
        k(N=9)
        assert k.last_run.comp("c").iterations == 8 * 6

    @pytest.mark.parametrize("second", ["transposed", "skewed"])
    def test_fused_stores_must_agree_on_the_axes(self, second):
        """One slab, one axis order: a fused statement that stores the
        axes in another order, or not one per index, keeps ``i`` out."""
        def build(tag):
            f = Function("f")
            with f:
                i, j = Var("i", 0, 4), Var("j", 0, 4)
                a = Computation("a", [i, j], None)
                a.set_expression(1.0 * i + 0.5 * j)
                b = Computation("b", [Var("i2", 0, 4), Var("j2", 0, 4)],
                                None)
                b.set_expression(a(Var("i2", 0, 4), Var("j2", 0, 4)) * 2.0)
                i2, j2 = Var("i2", 0, 4), Var("j2", 0, 4)
                if second == "transposed":
                    b.store_in(Buffer("bt", [4, 4]), [j2, i2])
                else:
                    b.store_in(Buffer("bt", [8, 4]), [i2 + j2, j2])
            b.after(a, "j")
            if tag:
                a.vectorize("j", 4)
                b.vectorize("j2", 4)
            return f, {}
        k, __ = _both(build)
        assert "# loop (i): outside slab, store-not-separable" in k.source
        assert k.vector_loops == 1 and not declines(k)

    def test_clamped_taps_are_slices_of_one_window_per_chunk(
            self, monkeypatch):
        """conv2D's shape: nine taps clamped on two axes read one window,
        gathered once per chunk, each tap a view of it."""
        from repro.ir import clamp
        monkeypatch.setattr("repro.backends.parallel.THREAD_FLOOR_BYTES", 0)

        def build(tag):
            f = Function("f")
            with f:
                inp = Input("inp", [Var("x", 0, 9), Var("y", 0, 7)])
                i, j = Var("i", 0, 9), Var("j", 0, 7)
                c = Computation("c", [i, j], None)
                c.set_expression(sum(
                    (inp(clamp(i + a, 0, 8), clamp(j + b, 0, 6))
                     * float(3 * a + b + 5)
                     for a in (-1, 0, 1) for b in (-1, 0, 1)), start=inp(i, j)))
            c.parallelize("i")
            if tag:
                c.vectorize("j", 8)
            return f, {"num_threads": 2 if tag else 1}
        k, __ = _both(build, inp=self.rng.integers(0, 9, (9, 7)).astype(
            np.float32))
        assert k.runtime.stats.chunks == 2
        body = k.source.split("def _kernel")[0]
        assert body.count("np.take(") == 2 and "np.clip(" not in body
        assert "_w1[:-2, :-2]" in body and "_w1[2:, 1:-1]" in body

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_window_wider_than_the_buffer(self, n):
        """Taps three either side of a one- to nine-wide buffer, clamped to
        all of it or strictly inside it (``clamp(i, 2, n - 3)``)."""
        from repro.ir import clamp

        def build(tag):
            f = Function("f")
            with f:
                inp = Input("inp", [Var("x", 0, n)])
                i = Var("i", 0, n)
                lo, hi = (2, n - 3) if n >= 5 else (0, n - 1)
                c = Computation("c", [i], None)
                c.set_expression(sum(
                    (inp(clamp(i + d, lo, hi)) * float(d + 4)
                     for d in range(-3, 4)), start=inp(i)))
            if tag:
                c.vectorize("i", 8)
            return f, {}
        k, __ = _both(build, inp=self.rng.integers(0, 9, n).astype(
            np.float32))
        assert "np.clip(" not in k.source and k.source.count("np.take(") == 1

    def test_buffer_short_along_a_clamped_axis_raises(self):
        from repro.ir import clamp
        N = Param("N")
        f = Function("f", params=[N])
        with f:
            inp = Input("inp", [Var("x", 0, N)])
            i = Var("i", 0, N)
            c = Computation("c", [i], None)
            c.set_expression(inp(clamp(i - 1, 0, N - 1))
                             + inp(clamp(i + 1, 0, N - 1)))
        c.vectorize("i", 8)
        k = f.compile("cpu")
        assert "np.take(" in k.source
        assert np.array_equal(k(inp=np.arange(8, dtype=np.float32), N=8)["c"],
                              [1, 2, 4, 6, 8, 10, 12, 13])
        with pytest.raises(IndexError, match="vector loop i"):
            k(inp=np.ones(6, dtype=np.float32), N=8)

    @pytest.mark.parametrize("s1,s2", [(3, 4), (4, 5), (4, 3), (9, 6)])
    def test_strip_mined_pairs_are_one_slice_axis(self, s1, s2):
        """sgemm's register tile: ``tile(i, j)`` by sizes that need not
        divide 10 x 7 folds ``i0`` into ``i1`` and ``j0`` into ``j1``, so
        the whole nest is one slab, partial tiles included."""
        def build(tag):
            f = Function("f")
            with f:
                inp = Input("inp", [Var("x", 0, 10), Var("y", 0, 7)])
                i, j = Var("i", 0, 10), Var("j", 0, 7)
                c = Computation("c", [i, j], None)
                c.set_expression(inp(i, j) * 2.0 + 1.0 * j)
            c.tile("i", "j", s1, s2, "i0", "j0", "i1", "j1")
            if tag:
                c.vectorize("j1", 8)
            return f, {}
        k, __ = _both(build, inp=self.rng.random((10, 7), np.float32))
        assert "# vectorized (j1) over (i0, j0, i1)" in k.source
        assert "for " not in k.source

    @pytest.mark.parametrize("width", [2, 6])
    def test_strip_mined_pair_with_a_gap_or_an_overlap_stays_a_loop(
            self, width):
        """``4*a + b`` with ``b`` in 0..1 skips two of every four, in 0..5
        reaches one element from two ``a``: neither runs over one interval
        once, so ``a`` stays a loop (``2*a + b`` over 0..1 would)."""
        from repro.codegen.lanes import strip_mined
        from repro.core.buffer import ArgKind

        def build(tag):
            f = Function("f")
            with f:
                a, b = Var("a", 0, 3), Var("b", 0, width)
                c = Computation("c", [a, b], None)
                c.set_expression(c(a, b) + 1.0)
                c.store_in(Buffer("out", [14], kind=ArgKind.INOUT),
                           [a * 4 + b])
            if tag:
                c.vectorize("b", 8)
            return f, {}
        k, got = _both(build, out=np.zeros(14, np.float32))
        assert "# loop (a): outside slab, store-not-separable" in k.source
        assert got["out"].max() == (2 if width == 6 else 1)
        f, __ = build(False)
        outer, inner = loops_in(f.lower())
        assert strip_mined(f, outer, inner, 4) is None
        if width == 2:
            assert strip_mined(f, outer, inner, 2) == (
                [[(1, LinExpr.constant(0))]], [[(1, LinExpr.constant(5))]])
        # b in 0 .. 11 - 4*a covers 0 .. 11 with no gap, but four times 8
        f = Function("f")
        with f:
            a = Var("a", 0, 3)
            Computation("c", [a, Var("b", 0, 12 - a * 4)], 1.0)
        assert strip_mined(f, *loops_in(f.lower()), 4) is None

    def test_single_tile_pair_folds(self):
        """A tile as large as its extent leaves ``i0``, ``j0`` one trip
        each and the inner bounds ``-10*i0 .. -10*i0 + 9``: the pair still
        folds, so the nest is one statement and no loop is left."""
        def build(tag):
            f = Function("f")
            with f:
                inp = Input("inp", [Var("x", 0, 10), Var("y", 0, 7)])
                i, j = Var("i", 0, 10), Var("j", 0, 7)
                c = Computation("c", [i, j], None)
                c.set_expression(inp(i, j) * 2.0 + 1.0 * j)
            c.tile("i", "j", 10, 7, "i0", "j0", "i1", "j1")
            if tag:
                c.vectorize("j1", 8)
            return f, {}
        k, __ = _both(build, inp=self.rng.random((10, 7), np.float32))
        assert "for " not in k.source and "non-rectangular" not in k.source
        assert "# vectorized (j1) over (i0, j0, i1)" in k.source


def _bundle_both(builder, schedule, params, **opts):
    """A kernel of ``repro.kernels`` under ``schedule`` against the same
    bundle unscheduled (scalar loops): bit-identical outputs; returns the
    scheduled kernel."""
    outs = []
    for sched in (schedule, None):
        bundle = builder()
        if sched:
            sched(bundle)
        kernel = bundle.function.compile("cpu", cache=False, **opts)
        inputs = bundle.make_inputs(params, np.random.default_rng(3))
        outs.append((kernel, kernel(**inputs, **params)))
    (kernel, got), (__, want) = outs
    for name in want:
        assert np.array_equal(got[name], want[name]), (name, kernel.source)
    return kernel


class TestReductionLeavesTheBand:
    """A reduction loop that does not drive the store moves out above the
    tile loops, which then fold into the slab; where it may not, it stays
    where it was and its loop comment says why."""

    rng = np.random.default_rng(11)

    @staticmethod
    def _gemm(two_level, parallel):
        def build(tag):
            f = Function("f")
            with f:
                A = Input("A", [Var("x", 0, 11), Var("y", 0, 5)])
                B = Input("B", [Var("x2", 0, 5), Var("y2", 0, 9)])
                i, j, r = Var("i", 0, 11), Var("j", 0, 9), Var("r", 0, 5)
                c = Computation("c", [i, j, r], None)
                c.set_expression(c(i, j, r) + A(i, r) * B(r, j))
                c.store_in(Buffer("C", [11, 9]), [i, j])
            if tag:
                c.tile("i", "j", 4, 4, "i0", "j0", "i1", "j1")
                c.interchange("j1", "r")
                c.interchange("i1", "r")
                last = "j1"
                if two_level:
                    c.tile("i1", "j1", 2, 3, "i10", "j10", "i11", "j11")
                    last = "j11"
                c.vectorize(last, 8)
                if parallel:
                    c.parallelize("i0")
            return f, {"num_threads": 2 if parallel else 1}
        return build

    @pytest.mark.parametrize("two_level", [False, True])
    @pytest.mark.parametrize("parallel", [False, True])
    def test_sgemm_shape_is_one_loop_around_one_statement(
            self, monkeypatch, two_level, parallel):
        monkeypatch.setattr("repro.backends.parallel.THREAD_FLOOR_BYTES", 0)
        k, __ = _both(self._gemm(two_level, parallel),
                      A=self.rng.random((11, 5), np.float32),
                      B=self.rng.random((5, 9), np.float32))
        body = k.source.split("def _kernel")[0] if parallel else k.source
        assert body.count("for ") == 1, k.source
        assert "for t2 in range(0, 5):  # loop (r): hoisted over (i0, j0)" \
            in body
        assert ", t2, None] * b_B[t2, 0:" in body
        assert k.vector_loops == 1 and not declines(k)

    def test_conv_keeps_its_full_range_loops(self):
        """conv: ``fi`` does not drive the store, but ``fo`` and the
        batch loop above it run their whole range -- moving ``fi`` over
        them would grow the accumulator slab B*F-fold -- so both stay."""
        from repro import kernels as K
        k = _bundle_both(K.build_conv, K.schedule_conv_cpu,
                         {"B": 2, "F": 3, "N": 7, "M": 6}, parallel=False)
        assert "for t1 in range(0, F):\n" in k.source
        assert "for t2 in range(0, F):  # loop (fi): outside slab, " \
               "store-not-driven" in k.source
        assert "hoisted" not in k.source

    def test_heat_time_loop_stays_carried(self):
        """heat: ``t`` carries the flow from one row to the next and
        drives the store -- no reduction to move -- so it stays outside
        the slab with the dependence as its reason."""
        from repro import kernels as K
        k = _bundle_both(K.build_heat, K.schedule_heat_cpu, {"T": 5, "N": 11})
        assert "for t0 in range(1, T):  # loop (t): outside slab, carried " \
               "flow step->step on u" in k.source
        assert "hoisted" not in k.source

    def test_symgs_wavefront_stays_a_loop(self):
        """symgs skewed to ``(i + j, j)``: the diagonal's bounds move
        with the wavefront, which stays a loop around it."""
        from repro import kernels as K

        def schedule(bundle):
            K.schedule_symgs_wavefront(bundle)
            bundle.computations["sweep"].tags.clear()
            bundle.computations["sweep"].vectorize("j", 8)
        k = _bundle_both(K.build_symgs_forward, schedule, {"N": 9})
        assert "# loop (i): outside slab, non-rectangular" in k.source
        assert "hoisted" not in k.source

    def test_a_second_carried_level_keeps_the_reduction_in(self):
        """``C(i) += A(i, r) * C(i - 4)`` tiled by 4 with ``r`` between
        the tile loops: ``i0`` carries the flow from the tile before, so
        ``r`` may not move above it (the old tile would not be summed
        yet) and stays where it was."""
        def build(tag):
            f = Function("f")
            with f:
                A = Input("A", [Var("x", 0, 16), Var("y", 0, 3)])
                i, r = Var("i", 4, 16), Var("r", 0, 3)
                c = Computation("c", [i, r], None)
                c.set_expression(c(i, r) + A(i, r) * c(i - 4, r))
                c.store_in(Buffer("C", [16]), [i])
            if tag:
                c.split("i", 4, "i0", "i1")
                c.interchange("i1", "r")
                c.vectorize("i1", 4)
            return f, {}
        C = np.ones(16, np.float32)
        k, got = _both(build, A=self.rng.random((16, 3), np.float32), C=C)
        assert "# loop (r): outside slab, store-not-driven" in k.source
        assert "hoisted" not in k.source

    def test_a_read_moved_by_the_reduction_is_checked_inside_its_loop(self):
        """``A(i + r)``: the slice of ``A`` moves with ``r``, so its range
        check runs inside the moved loop, the others once before it, and
        a buffer too short for the last ``r`` still raises."""
        N = Param("N")

        def build(tag):
            f = Function("f", params=[N])
            with f:
                A = Input("A", [Var("x", 0, N + 2)])
                i, r = Var("i", 0, N), Var("r", 0, 3)
                c = Computation("c", [i, r], None)
                c.set_expression(c(i, r) + A(i + r) * 2.0)
                c.store_in(Buffer("C", [N]), [i])
            if tag:
                c.split("i", 4, "i0", "i1")
                c.interchange("i1", "r")
                c.vectorize("i1", 4)
            return f, {}
        data = self.rng.random(12, np.float32)
        k, __ = _both(build, A=data, N=np.int64(10))
        loop = "for t1 in range(0, 3):  # loop (r): hoisted over (i0)\n"
        assert loop in k.source
        before, inside = k.source.split(loop)
        assert "raise IndexError" in before and "N > len(b_C)" in before
        assert "t1 + N > len(b_A)" in inside \
            and "raise IndexError('vector loop i1')" in inside
        with pytest.raises(IndexError, match="vector loop i1"):
            k(A=data[:11], N=10)
