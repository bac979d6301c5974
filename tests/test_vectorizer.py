"""Vectorized emission: when whole-range NumPy statements are generated,
when the emitter must leave the loop scalar (and says why), and that
both are correct."""

import numpy as np
import pytest

from repro import Buffer, Computation, Function, Input, Param, Var
from repro.codegen import lane_verdict, loops_in


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
        assert "b_img[t0, 0:37] * np.float32(0.1 * t1)" in kernel.source
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

    def test_index_vectors_computed_once_scalar_clamps_in_python(self):
        from repro.ir import clamp
        N = Param("N")
        f = Function("f", params=[N])
        with f:
            inp = Input("inp", [Var("x", 0, N), Var("y", 0, N)])
            i, j = Var("i", 0, N), Var("j", 0, N)
            c = Computation("c", [i, j], None)
            c.set_expression(inp(clamp(i - 1, 0, N - 1), clamp(j + 1, 0, N - 1))
                             + inp(clamp(i - 1, 0, N - 1),
                                   clamp(j + 1, 0, N - 1)) * 2.0)
        c.vectorize("j", 8)
        src = f.compile("cpu").source
        assert src.count("np.clip(") == 1          # one index vector
        assert src.count("min(max(t0 - 1, 0), N - 1)") == 1  # Python ints
        data = np.arange(36, dtype=np.float32).reshape(6, 6)
        rows = np.clip(np.arange(6) - 1, 0, 5)
        cols = np.clip(np.arange(6) + 1, 0, 5)
        out = f.compile("cpu")(inp=data, N=6)["c"]
        assert np.array_equal(out, data[np.ix_(rows, cols)] * 3.0)

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
