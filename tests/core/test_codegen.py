"""Code generation correctness: the generated loop nest must execute each
scheduled instance exactly once, in lexicographic time order.

These tests instrument generated kernels by storing iteration counters,
and compare against direct enumeration of the instance sets — the
"once and only once ... following the lexicographical ordering" property
of paper Section V-A.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Buffer, Computation, Function, Input, Param, Var
from repro.codegen.ast import Loop, Stmt, loops_in, stmts_in
from repro.isl import count


def visit_counter(schedule_fn=None, n=7, m=5):
    """Build c[i,j] = c[i,j] + 1 over an n x m domain, apply a schedule,
    run, and return the visit-count array."""
    f = Function("f")
    with f:
        i, j = Var("i", 0, n), Var("j", 0, m)
        c = Computation("c", [i, j], None)
        c.set_expression(c(i, j) + 1.0)
    if schedule_fn:
        schedule_fn(c)
    k = f.compile("cpu")
    out = k()["c"]
    return out


class TestOnceAndOnlyOnce:
    def test_identity_schedule(self):
        out = visit_counter()
        assert (out == 1).all()

    def test_tiled(self):
        out = visit_counter(lambda c: c.tile("i", "j", 3, 2))
        assert (out == 1).all()

    def test_tiled_nondivisible(self):
        out = visit_counter(lambda c: c.tile("i", "j", 4, 3), n=10, m=7)
        assert (out == 1).all()

    def test_interchanged(self):
        out = visit_counter(lambda c: c.interchange("i", "j"))
        assert (out == 1).all()

    def test_skewed(self):
        out = visit_counter(lambda c: c.skew("i", "j", 2))
        assert (out == 1).all()

    def test_shifted(self):
        out = visit_counter(lambda c: c.shift("i", 3))
        assert (out == 1).all()

    def test_split_then_interchange(self):
        def sched(c):
            c.split("i", 2, "i0", "i1")
            c.interchange("i1", "j")
        out = visit_counter(sched)
        assert (out == 1).all()

    @given(st.integers(2, 5), st.integers(2, 5),
           st.integers(2, 3), st.integers(2, 3))
    @settings(max_examples=20, deadline=None)
    def test_random_tile_sizes(self, n, m, t1, t2):
        out = visit_counter(lambda c: c.tile("i", "j", t1, t2), n=n, m=m)
        assert (out == 1).all()


class TestLexicographicOrder:
    def test_sequence_order_observable(self):
        """b overwrites a's results; final buffer must reflect order."""
        f = Function("f")
        with f:
            i = Var("i", 0, 6)
            shared = Buffer("s", [6])
            a = Computation("a", [i], 1.0)
            b = Computation("b", [Var("i2", 0, 6)], 2.0)
            a.store_in(shared, [i])
            b.store_in(shared, [Var("i2", 0, 6)])
        b.after(a)
        out = f.compile("cpu")()
        assert (out["s"] == 2).all()
        # Reverse the order: a should win.
        f2 = Function("f2")
        with f2:
            i = Var("i", 0, 6)
            shared = Buffer("s", [6])
            a = Computation("a", [i], 1.0)
            b = Computation("b", [Var("i2", 0, 6)], 2.0)
            a.store_in(shared, [i])
            b.store_in(shared, [Var("i2", 0, 6)])
        a.after(b)
        out2 = f2.compile("cpu")()
        assert (out2["s"] == 1).all()

    def test_fused_loop_interleaves(self):
        """a and b fused at level i: per-i interleaving means b(i) sees
        a(i) already computed even though b < a in declaration order is
        false... (producer-consumer through fusion)."""
        f = Function("f")
        with f:
            i = Var("i", 0, 5)
            a = Computation("a", [i], None)
            a.set_expression(2.0)
            b = Computation("b", [Var("i2", 0, 5)], None)
            b.set_expression(a(Var("i2", 0, 5)) * 10.0)
        b.after(a, "i")
        out = f.compile("cpu")()
        assert (out["b"] == 20).all()
        # AST shape: a single shared loop containing both statements.
        ast = f.lower()
        loops = loops_in(ast)
        assert len(loops) == 1
        assert len(stmts_in(loops[0].body)) == 2


class TestNonRectangular:
    def test_triangular_domain(self):
        """ticket #2373: triangular iteration spaces generate exact
        bounds, no over-approximation."""
        f = Function("f")
        with f:
            i = Var("i", 0, 6)
            j = Var("j", 0, i + 1)
            c = Computation("c", [i, j], 1.0)
        out = f.compile("cpu")()["c"]
        for a in range(6):
            for b in range(6):
                assert out[a, b] == (1.0 if b <= a else 0.0)

    def test_triangular_tiled(self):
        f = Function("f")
        with f:
            i = Var("i", 0, 9)
            j = Var("j", 0, i + 1)
            c = Computation("c", [i, j], None)
            c.set_expression(c(i, j) + 1.0)
        c.tile("i", "j", 4, 4)
        out = f.compile("cpu")()["c"]
        for a in range(9):
            for b in range(9):
                assert out[a, b] == (1.0 if b <= a else 0.0)

    def test_dependent_bounds_with_params(self):
        N = Param("N")
        f = Function("f", params=[N])
        with f:
            i = Var("i", 0, N)
            j = Var("j", i, N)   # j >= i
            c = Computation("c", [i, j], 1.0)
        out = f.compile("cpu")(N=5)["c"]
        for a in range(5):
            for b in range(5):
                assert out[a, b] == (1.0 if b >= a else 0.0)


class TestGuards:
    def test_no_guards_for_rectangular(self):
        f = Function("f")
        with f:
            c = Computation("c", [Var("i", 0, 8), Var("j", 0, 8)], 1.0)
        ast = f.lower()
        for stmt in stmts_in(ast):
            assert stmt.guards == []

    def test_no_guards_after_plain_tiling(self):
        f = Function("f")
        with f:
            c = Computation("c", [Var("i", 0, 8), Var("j", 0, 8)], 1.0)
        c.tile("i", "j", 4, 4)
        ast = f.lower()
        for stmt in stmts_in(ast):
            assert stmt.guards == []


class TestPredicates:
    def test_nonaffine_predicate_guards_statement(self):
        """Section V-B: non-affine conditionals become predicates that are
        re-inserted at code generation."""
        f = Function("f")
        with f:
            i = Var("i", 0, 10)
            inp = Input("inp", [Var("x", 0, 10)])
            c = Computation("c", [i], 5.0)
            c.add_predicate(inp(i) > 0.5)
        k = f.compile("cpu")
        data = np.array([0.0, 1.0] * 5)
        out = k(inp=data)["c"]
        assert (out == np.where(data > 0.5, 5.0, 0.0)).all()


class TestInline:
    def test_inlined_producer_disappears(self):
        f = Function("f")
        with f:
            i = Var("i", 0, 6)
            a = Computation("a", [i], None)
            a.set_expression(3.0)
            b = Computation("b", [Var("x", 0, 6)], None)
            b.set_expression(a(Var("x", 0, 6)) + 1.0)
        a.inline()
        k = f.compile("cpu")
        out = k()["b"]
        assert (out == 4.0).all()
        assert "_a_b" not in k.source


@pytest.mark.parametrize("target", ["cpu", "c"])
class TestArgumentBinding:
    """``cpu`` and ``c`` sort a call's keyword arguments with one binder
    (``repro.backends.common.bind_arguments``)."""

    def kernel(self, target):
        from repro.backends.c import have_c_compiler
        if target == "c" and not have_c_compiler():
            pytest.skip("gcc not available")
        N = Param("N")
        f = Function("f", params=[N])
        with f:
            inp = Input("inp", [Var("x", 0, N)])
            Computation("out", [Var("i", 0, N)], inp(Var("i", 0, N)) * 2.0)
        return f.compile(target)

    def test_binds_parameters_inputs_and_a_passed_output(self, target):
        k = self.kernel(target)
        data = np.arange(5, dtype=np.float32)
        assert (k(inp=data, N=5)["out"] == 2 * data).all()
        mine = np.zeros(5, np.float32)
        assert k(inp=data, N=5, out=mine)["out"] is mine
        assert (mine == 2 * data).all()

    @pytest.mark.parametrize("kwargs,named", [
        ({"inp": np.zeros(5, np.float32)}, "missing parameter 'N'"),
        ({"N": 5}, "missing input buffer 'inp'"),
        ({"N": 5, "inp": np.zeros(5, np.float32), "bogus": 1, "more": 2},
         "unknown arguments: ['bogus', 'more']"),
    ])
    def test_a_bad_call_names_the_argument(self, target, kwargs, named):
        from repro.core.errors import ExecutionError
        with pytest.raises(ExecutionError) as err:
            self.kernel(target)(**kwargs)
        assert str(err.value) == named
