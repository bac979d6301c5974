"""Unit tests for the expression IR, scalar types, affine extraction and
buffers."""

import numpy as np
import pytest

from repro import Buffer, Var
from repro.core.buffer import ArgKind, MemSpace
from repro.ir import types as T
from repro.ir.affine import NonAffineError, expr_to_linexpr, is_affine
from repro.ir.expr import (Access, BinOp, BufferRead, Call, Cast, Const,
                           IterVar, ParamRef, Select, UnOp, accesses_in,
                           clamp, maximum, minimum, select,
                           substitute_exprs, wrap)
from repro.isl.linexpr import OUT, PARAM


class TestExprConstruction:
    def test_operator_overloading(self):
        i = IterVar("i")
        e = (i + 1) * 2 - i / 3
        assert isinstance(e, BinOp)
        assert e.op == "-"

    def test_right_operators(self):
        i = IterVar("i")
        assert repr(1 + i) == "(1 + i)"
        assert repr(2 * i) == "(2 * i)"
        assert repr(10 - i) == "(10 - i)"

    def test_wrap_rejects_garbage(self):
        with pytest.raises(TypeError):
            wrap(object())

    def test_wrap_scalars(self):
        assert isinstance(wrap(3), Const)
        assert isinstance(wrap(2.5), Const)
        assert isinstance(wrap(True), Const)

    def test_comparison_builders(self):
        i = IterVar("i")
        assert (i < 5).op == "<"
        assert (i >= 0).op == ">="
        assert i.eq(3).op == "=="
        assert i.ne(3).op == "!="

    def test_walk_covers_all_nodes(self):
        i = IterVar("i")
        e = select(i > 0, minimum(i, 5), maximum(i, -5))
        kinds = {type(n).__name__ for n in e.walk()}
        assert "Select" in kinds and "Call" in kinds
        assert "IterVar" in kinds and "Const" in kinds

    def test_substitute_exprs(self):
        e = IterVar("i") + IterVar("j")
        out = substitute_exprs(e, {"i": Const(5)})
        assert repr(out) == "(5 + j)"


class TestAffineExtraction:
    DIMS = {"i": (OUT, 0), "j": (OUT, 1), "N": (PARAM, 0)}

    def test_affine_combination(self):
        e = IterVar("i") * 3 + IterVar("j") - 2
        le = expr_to_linexpr(e, self.DIMS)
        assert le.coeff((OUT, 0)) == 3
        assert le.coeff((OUT, 1)) == 1
        assert le.const == -2

    def test_constant_times_param(self):
        e = ParamRef("N") * 4 + 1
        le = expr_to_linexpr(e, self.DIMS)
        assert le.coeff((PARAM, 0)) == 4

    def test_nonaffine_product(self):
        with pytest.raises(NonAffineError):
            expr_to_linexpr(IterVar("i") * IterVar("j"), self.DIMS)

    def test_nonaffine_clamp(self):
        assert not is_affine(clamp(IterVar("i"), 0, 9), self.DIMS)

    def test_unknown_name(self):
        with pytest.raises(NonAffineError):
            expr_to_linexpr(IterVar("q"), self.DIMS)

    def test_negation(self):
        le = expr_to_linexpr(-(IterVar("i") - 1), self.DIMS)
        assert le.coeff((OUT, 0)) == -1
        assert le.const == 1


class TestScalarTypes:
    def test_numpy_round_trip(self):
        for t in (T.int8, T.uint16, T.int32, T.float32, T.float64):
            assert np.dtype(t.np_dtype) == t.to_numpy()

    def test_lookup_by_name(self):
        assert T.from_name("float32") is T.float32
        with pytest.raises(ValueError):
            T.from_name("float128")

    def test_float_flags(self):
        assert T.float32.is_float and not T.int32.is_float

    def test_bits(self):
        assert T.float64.bits == 64 and T.uint8.bits == 8


class TestTypeRule:
    """repro.ir.typing says what the scalar cpu code's NumPy does."""

    SAMPLES = {bool: True, int: 3, float: 0.5,
               T.float32: np.float32(2.5), T.float64: np.float64(2.5),
               T.int32: np.int32(7), T.uint8: np.uint8(9),
               T.int64: np.int64(7)}
    EVAL = {
        "+": lambda a, b: a + b, "-": lambda a, b: a - b,
        "*": lambda a, b: a * b, "/": lambda a, b: a / b,
        "//": lambda a, b: a // b, "%": lambda a, b: a % b,
        "<": lambda a, b: a < b, "==": lambda a, b: a == b,
        "min": np.minimum, "max": np.maximum, "pow": np.power,
        "select": lambda a, b: np.where(True, a, b),
        "clamp": lambda a, b: np.clip(a, b, 100),
        "neg": lambda a: -a, "abs": np.abs, "floor": np.floor,
        "sqrt": np.sqrt,
    }

    @staticmethod
    def type_of(value):
        if type(value) in (bool, int, float):    # np.float64 is a float
            return type(value)                   # still a Python scalar
        return T.from_name(np.asarray(value).dtype.name)

    def test_combine_is_what_numpy_computes(self):
        from repro.ir.typing import combine
        for op, run in self.EVAL.items():
            arity = run.__code__.co_argcount if hasattr(run, "__code__") \
                else run.nin
            pairs = [(a,) for a in self.SAMPLES] if arity == 1 else \
                [(a, b) for a in self.SAMPLES for b in self.SAMPLES]
            for types in pairs:
                if bool in types and op in ("neg", "sqrt", "pow") or \
                        T.uint8 in types and op in ("sqrt", "pow"):
                    continue    # no such loop; float16; 9 ** 9 overflows
                with np.errstate(all="ignore"):
                    got = run(*(self.SAMPLES[t] for t in types))
                asked = types + (int,) if op == "clamp" else types
                assert combine(op, asked)[1] == self.type_of(got), \
                    (op, types)

    def test_result_type_of_a_tree(self):
        from repro.ir.typing import result_type
        buf = Buffer("b", [4], dtype=T.float32)
        read = BufferRead(buf, [IterVar("i")])
        i = IterVar("i")
        assert result_type(read * 0.0625 + read / 3) is T.float32
        assert result_type(read * (0.1 * i)) is T.float32
        assert result_type(0.1 * i) is float
        assert result_type(clamp(i - 1, 0, 9)) is T.int64
        assert result_type(Call("floor", [0.1 * i]) - 0.1 * i) is T.float64
        assert result_type(Cast(T.int32, read) + 1) is T.int32
        assert result_type(Cast(T.int32, read) * read) is T.float64
        # "/" outside a float computation is a "//" node by now
        assert result_type(i / 2) is float
        assert result_type(i // 2) is int


class TestBuffers:
    def test_concrete_shape_with_params(self):
        from repro.core.var import Param
        N = Param("N")
        b = Buffer("b", [N, N * 2 - 1, 3])
        assert b.concrete_shape({"N": 5}) == (5, 9, 3)

    def test_allocate_dtype(self):
        b = Buffer("b", [4], dtype=T.int16)
        arr = b.allocate({})
        assert arr.dtype == np.int16 and arr.shape == (4,)

    def test_memory_tags_chain(self):
        b = Buffer("b", [4]).tag_gpu_shared()
        assert b.mem_space == MemSpace.GPU_SHARED
        b.tag_gpu_constant()
        assert b.mem_space == MemSpace.GPU_CONSTANT

    def test_set_size(self):
        b = Buffer("b", [4])
        b.set_size([8, 2])
        assert b.concrete_shape({}) == (8, 2)

    def test_default_kind_temporary(self):
        assert Buffer("b", [4]).kind == ArgKind.TEMPORARY

    def test_auto_buffer_extents_follow_their_owner(self):
        from repro import Computation, Function
        with Function("f"):
            i, j = Var("i", 0, 8), Var("j", 0, 4)
            c = Computation("c", [i, j], 1.0)
        buf = c.get_buffer()
        assert buf.owner is c and buf.concrete_shape({}) == (8, 4)
        c.store_in([j, i])                  # extents derived again
        assert buf.concrete_shape({}) == (4, 8)
        buf.set_size([3])                   # explicit from now on
        c.store_in([i, j])
        assert buf.owner is None and buf.concrete_shape({}) == (3,)


class TestAccessHelpers:
    def test_accesses_in_nested(self):
        from repro import Computation, Function
        with Function("f"):
            i = Var("i", 0, 4)
            a = Computation("a", [i], 1.0)
            b = Computation("b", [i], None)
            b.set_expression(select(a(i) > 0, a(i + 1), a(i - 1)))
        accs = accesses_in(b.expr)
        assert len(accs) == 3
        assert all(acc.computation is a for acc in accs)


class TestUnfilledBuffers:
    """On ``c``, a buffer the call allocates is ``np.empty`` only when
    nothing can see an element before a statement stores it
    (:func:`repro.backends.common.unfilled_buffers`); every other one is
    ``np.zeros``, as on ``cpu``."""

    @pytest.fixture(autouse=True)
    def _needs_gcc(self):
        from repro.backends.c import have_c_compiler
        if not have_c_compiler():
            pytest.skip("no C compiler")

    @pytest.fixture
    def fills(self, monkeypatch):
        """``{buffer name: fill}`` of every allocation a call makes."""
        seen = {}
        allocate = Buffer.allocate

        def spy(buf, param_values, fill=True):
            seen[buf.name] = fill
            return allocate(buf, param_values, fill)
        monkeypatch.setattr(Buffer, "allocate", spy)
        return seen

    @staticmethod
    def _chain():
        """``tmp(i) = 2 a(i)``, ``out(i) = tmp(i) + 1``: tmp is read,
        out is not."""
        from repro import Computation, Function, Input
        f = Function("chain")
        with f:
            i = Var("i", 0, 16)
            a = Input("a", [i])
            tmp = Computation("tmp", [i], a(i) * 2.0)
            Computation("out", [i], tmp(i) + 1.0)
        return f

    @pytest.mark.parametrize("target", ["cpu", "c"])
    def test_a_partly_written_output_keeps_its_zeros(self, target, fills):
        from repro import Computation, Function
        f = Function("part")
        with f:
            c = Computation("c", [Var("i", 0, 8)], 3.0)
        c.store_in(Buffer("out", [16], kind=ArgKind.OUTPUT), [c.vars[0]])
        out = f.compile(target, check_legality=True)()["out"]
        assert fills == {"out": True}
        assert out.tolist() == [3.0] * 8 + [0.0] * 8

    @pytest.mark.parametrize("target", ["cpu", "c"])
    def test_a_reduction_with_no_init_keeps_its_zeros(self, target, fills):
        """``r(i, k) = r(i, k - 1) + a(i, k)`` into ``acc[i]``: at ``k =
        0`` it reads an element nothing stored.  ``out(i) = r(i, 3)``
        stores all of ``out`` and nothing reads it."""
        from repro import Computation, Function, Input
        f = Function("acc")
        with f:
            i, k = Var("i", 0, 8), Var("k", 0, 4)
            a = Input("a", [i, k])
            r = Computation("r", [i, k], None)
            r.set_expression(r(i, k - 1) + a(i, k))
            Computation("out", [i], r(i, 3) * 1.0)
        r.store_in(Buffer("acc", [8]), [i])
        data = np.arange(32, dtype=np.float32).reshape(8, 4)
        out = f.compile(target, check_legality=True)(a=data)["out"]
        assert fills == {"acc": True, "out": target == "cpu"}
        assert np.array_equal(out, data.sum(axis=1))

    def test_a_read_buffer_needs_the_legality_check(self, fills):
        data = np.arange(16, dtype=np.float32)
        for legal, tmp_fill in ((False, True), (True, False)):
            fills.clear()
            out = self._chain().compile("c", check_legality=legal)(a=data)
            assert fills == {"_tmp_b": tmp_fill, "out": False}
            assert np.array_equal(out["out"], data * 2 + 1)

    def test_a_function_rescheduled_after_its_compile_is_filled(self, fills):
        f = self._chain()
        kernel = f.compile("c", check_legality=True, cache=False)
        f.find("out").vectorize("i", 8)
        data = np.arange(16, dtype=np.float32)
        assert np.array_equal(kernel(a=data)["out"], data * 2 + 1)
        assert fills == {"_tmp_b": True, "out": True}

    @pytest.mark.parametrize("name,buffer", [("cvtColor", "gray"),
                                             ("edgeDetector", "_ring_b")])
    def test_a_buffer_stored_before_it_is_read_is_not_filled(
            self, name, buffer, fills):
        from repro.evaluation.fig6 import BUILDERS
        from repro.evaluation.schedules import tiramisu_cpu
        bundle = BUILDERS[name]()
        tiramisu_cpu(bundle)
        params = dict(bundle.test_params)
        inputs = bundle.make_inputs(params, np.random.default_rng(0))
        kernel = bundle.function.compile("c", check_legality=True)
        kernel(**{k: v.copy() for k, v in inputs.items()}, **params)
        assert fills[buffer] is False

    def test_threads_meeting_the_first_call_prove_once(self, monkeypatch):
        """Six threads make a fresh kernel's first call together, with
        the interpreter switching threads every few bytecodes and the
        proof yielding to them: one proof (under the kernel's lock), the
        same buffers for all, right results."""
        import sys
        import threading
        import time
        from repro.backends import c as native
        proofs = []
        prove = native.unfilled_buffers

        def counted(*args):
            proofs.append(1)
            time.sleep(0.01)
            return prove(*args)
        monkeypatch.setattr(native, "unfilled_buffers", counted)
        kernel = self._chain().compile("c", check_legality=True,
                                       cache=False)
        data = np.arange(16, dtype=np.float32)
        together = threading.Barrier(6)
        got = []

        def call():
            together.wait(timeout=60)
            got.append(kernel(a=data)["out"])
        threads = [threading.Thread(target=call) for __ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert proofs == [1] and kernel.unfilled() == {"_tmp_b", "out"}
        assert len(got) == 6
        assert all(np.array_equal(out, data * 2 + 1) for out in got)
