"""Constant folding (ir.fold) and ISL-relation data layouts
(store_in_isl)."""

import numpy as np
import pytest

from repro import Buffer, Computation, Function, Param, Var
from repro.core.errors import ScheduleError
from repro.ir.expr import BinOp, Call, Cast, Const, IterVar, Select
from repro.ir.fold import fold
from repro.ir import types as T


class TestFold:
    def test_constant_arithmetic(self):
        e = fold(wrapb("+", Const(2), wrapb("*", Const(3), Const(4))))
        assert isinstance(e, Const) and e.value == 14

    def test_identity_add(self):
        i = IterVar("i")
        assert fold(i + 0) is i
        assert fold(0 + i) is i

    def test_identity_mul(self):
        i = IterVar("i")
        assert fold(i * 1) is i
        assert isinstance(fold(i * 0), Const)

    def test_nested_folding(self):
        i = IterVar("i")
        e = fold((i * 1 + 0) * (Const(2) + Const(3)))
        assert repr(e) == "(i * 5)"

    def test_min_max_abs(self):
        assert fold(Call("min", [Const(3), Const(7)])).value == 3
        assert fold(Call("max", [Const(3), Const(7)])).value == 7
        assert fold(Call("abs", [Const(-5)])).value == 5

    def test_select_constant_condition(self):
        i = IterVar("i")
        e = fold(Select(Const(True), i, Const(0)))
        assert e is i

    def test_cast_folds(self):
        assert fold(Cast(T.int32, Const(3.0))).value == 3
        assert fold(Cast(T.float32, Const(3))).value == 3.0

    def test_inexact_cast_stays(self):
        """A constant the type does not hold as it stands keeps its
        cast: float32 rounds 0.1, int32 truncates 3.7, int8 wraps 300
        (to 44, which the cast then holds: NumPy takes no out-of-range
        literal), and int64 wraps 2**80 + 5, an int beyond NumPy's."""
        for dtype, value, operand in ((T.float32, 0.1, 0.1),
                                      (T.int32, 3.7, 3.7),
                                      (T.int8, 300, 44),
                                      (T.uint8, -1, 255),
                                      (T.int64, 2**80 + 5, 5),
                                      (T.int64, 2**63, -2**63)):
            e = fold(Cast(dtype, Const(value)))
            assert isinstance(e, Cast) and e.dtype == dtype
            assert e.operand.value == operand

    def test_crossed_clamp_bounds_meet_at_hi(self):
        """A clamp whose constant low bound exceeds its high one gives
        ``hi`` (np.clip and the C prelude agree); the low bound takes
        that value, in its own kind, so the call keeps its type."""
        i = IterVar("i")
        for lo, hi, low in ((3.0, 1, 1.0), (3, 1.5, 1.5), (9, 2, 2)):
            e = fold(Call("clamp", [i, Const(lo), Const(hi)]))
            assert e.fn == "clamp" and e.args[0] is i
            got = [e.args[1].value, e.args[2].value]
            assert got == [low, hi]
            assert list(map(type, got)) == [type(low), type(hi)]
            assert repr(fold(e)) == repr(e)
        assert repr(fold(Call("clamp", [i, Const(0), Const(7)]))) \
            == "clamp(i, 0, 7)"

    def test_division_by_zero_not_folded(self):
        e = fold(wrapb("/", Const(1), Const(0)))
        assert isinstance(e, BinOp)

    def test_comparison_folds(self):
        assert fold(wrapb("<", Const(1), Const(2))).value is True

    def test_unfoldable_left_alone(self):
        i = IterVar("i")
        e = fold(i + IterVar("j"))
        assert isinstance(e, BinOp)

    def test_generated_code_shrinks(self):
        """Specialized filter chains fold their weight constants."""
        f = Function("f")
        with f:
            i = Var("i", 0, 8)
            c = Computation("c", [i], None)
            c.set_expression((i * 1 + 0) * 1.0 + (2.0 * 3.0))
        src = f.compile("cpu").source
        assert "6.0" in src
        assert "(2.0" not in src


def wrapb(op, a, b):
    return BinOp(op, a, b)


class TestStoreInIsl:
    def test_transpose(self):
        f = Function("f")
        with f:
            i, j = Var("i", 0, 3), Var("j", 0, 5)
            buf = Buffer("b", [5, 3])
            c = Computation("c", [i, j], None)
            c.set_expression(1.0 * i + 10.0 * j)
            c.store_in_isl("{ c[i,j] -> b[j, i] }", buf)
        out = f.compile("cpu")()["b"]
        for a in range(3):
            for b_ in range(5):
                assert out[b_, a] == a + 10 * b_

    def test_contraction(self):
        f = Function("f")
        with f:
            i, k = Var("i", 0, 4), Var("k", 0, 6)
            buf = Buffer("acc", [4])
            c = Computation("c", [i, k], None)
            c.set_expression(c(i, k) + 1.0)
            c.store_in_isl("{ c[i,k] -> acc[i] }", buf)
        out = f.compile("cpu")()["acc"]
        assert (out == 6).all()

    def test_affine_combination(self):
        f = Function("f")
        with f:
            i, j = Var("i", 0, 3), Var("j", 0, 3)
            buf = Buffer("b", [9])
            c = Computation("c", [i, j], 1.0)
            c.store_in_isl("{ c[i,j] -> b[3i + j] }", buf)
        out = f.compile("cpu")()["b"]
        assert (out == 1).all()

    def test_arity_mismatch_rejected(self):
        f = Function("f")
        with f:
            c = Computation("c", [Var("i", 0, 3)], 1.0)
        with pytest.raises(ScheduleError):
            c.store_in_isl("{ c[i,j] -> b[i] }")

    def test_non_functional_map_rejected(self):
        f = Function("f")
        with f:
            c = Computation("c", [Var("i", 0, 3)], 1.0)
        with pytest.raises(ScheduleError):
            c.store_in_isl("{ c[i] -> b[o] : o >= i }")


class TestCastOfConstant:
    """``cast(t, v)`` of a literal stores what ``t`` makes of ``v`` on
    every target: float32 rounds 0.1, int8 wraps 300."""

    @pytest.mark.parametrize("target", ["cpu", "c"])
    @pytest.mark.parametrize("dtype, value, in_type", [
        (T.float32, 0.1, T.float64), (T.int8, 300, T.int64)])
    def test_bits_match_numpy(self, target, dtype, value, in_type):
        from repro import Input
        from repro.backends.c import have_c_compiler
        if target == "c" and not have_c_compiler():
            pytest.skip("no C compiler")
        f = Function("cast_const")
        with f:
            i = Var("i", 0, 8)
            a = Input("a", [i], dtype=in_type)
            Computation("out", [i], a(i) + Cast(dtype, Const(value)),
                        dtype=in_type)
        data = np.arange(8).astype(in_type.to_numpy()) * 3
        got = f.compile(target)(a=data.copy())["out"]
        want = data + np.array(value).astype(dtype.to_numpy())
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestCastOfIterator:
    """``cast(int8, i + 300)``: a Python int out of the type's range in
    the scalar loop (NumPy 2 refuses it), an index array in a slab; both
    wrap as C does, on every target."""

    @pytest.mark.parametrize("vector", [False, True], ids=["loop", "slab"])
    def test_bits_match_on_every_target(self, vector, monkeypatch):
        from repro import Input
        from repro.backends.c import have_c_compiler
        monkeypatch.setattr("repro.backends.parallel.THREAD_FLOOR_BYTES", 0)

        def build():
            f = Function("cast_iter")
            with f:
                i, j = Var("i", 0, 4), Var("j", 0, 8)
                a = Input("a", [i, j], dtype=T.int64)
                c = Computation("out", [i, j], a(i, j) + Cast(
                    T.int8, i * 8 + j + 300), dtype=T.int64)
            c.parallelize("i")
            if vector:
                c.vectorize("j", 8)
            return f
        data = np.arange(32, dtype=np.int64).reshape(4, 8) * 3
        want = data + (np.arange(32).reshape(4, 8) + 300).astype(np.int8)
        legs = [("cpu", {"parallel": False}), ("cpu", {"num_threads": 2})]
        if have_c_compiler():
            legs.append(("c", {}))
        for target, opts in legs:
            got = build().compile(target, cache=False, **opts)(
                a=data.copy())["out"]
            assert got.dtype == want.dtype, (target, opts)
            assert got.tobytes() == want.tobytes(), (target, opts)


class TestFoldedBackendsAgree:
    def test_python_and_c_agree_on_folded_kernel(self):
        from repro.backends.c import have_c_compiler
        if not have_c_compiler():
            pytest.skip("no C compiler")

        def build():
            f = Function("f")
            with f:
                i = Var("i", 0, 16)
                c = Computation("c", [i], None)
                c.set_expression((1.0 * i + 0.0) * 2.0
                                 + Call("min", [Const(4), Const(9)]))
            return f
        py = build().compile("cpu")()["c"]
        native = build().compile("c")()["c"]
        assert np.allclose(py, native)
