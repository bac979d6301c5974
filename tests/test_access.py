"""Layer III is applied in one place (``repro.core.access``): what
``resolve`` returns, that the dependence analysis reads it, and that no
other module re-derives the rule."""

import ast
from pathlib import Path

import pytest

from repro import Buffer, Computation, Function, Input, Var
from repro.core.access import integer, resolve
from repro.core.deps import access_map, read_maps, write_map
from repro.ir import types as T
from repro.ir.expr import Access, BufferRead

from tests import deps_reference
from tests.test_analysis_budget import IMAGE, TENSOR

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


class TestResolvedForm:
    def build(self):
        f = Function("f")
        with f:
            inp = Input("inp", [Var("x", 0, 12)])
            p, i = Var("p", 0, 10), Var("i", 0, 8)
            a = Computation("a", [p], inp(p) * 2.0 + inp(p + 1))
            b = Computation("b", [i], None)
            b.set_expression(a(i) - a(i + 1) / 4)
            b.store_in(Buffer("out", [2, 8]), [i % 2, i])
        return f, inp, a, b

    def test_stored_producer_is_a_read_of_its_store_indices(self):
        f, inp, a, b = self.build()
        a.store_in(Buffer("rows", [2, 10]), [p % 2 for p in a.vars] + a.vars)
        form = resolve(b)
        assert repr(form.store) == "out[(i % 2), i]"
        assert repr(form.value) == \
            "(rows[(i % 2), i] - (rows[((i + 1) % 2), (i + 1)] / 4))"
        assert [r.buffer.name for r in form.reads] == ["rows", "rows"]
        assert form.predicate is None

    def test_inlined_producer_is_expanded_where_it_is_read(self):
        f, inp, a, b = self.build()
        a.inline()
        form = resolve(b)
        assert not any(isinstance(n, Access) for n in form.value.walk())
        assert [repr(r) for r in form.reads] == [
            "inp[i]", "inp[(i + 1)]", "inp[(i + 1)]", "inp[((i + 1) + 1)]"]

    def test_division_is_floor_division_outside_a_float_expression(self):
        f = Function("f")
        with f:
            inp = Input("inp", [Var("x", 0, 8)], dtype=T.int32)
            i = Var("i", 0, 8)
            half = Computation("half", [i], inp(i.expr() / 2) / 2,
                               dtype=T.int32)
            real = Computation("real", [i], inp(i) / 2)
            real.store_in(Buffer("r", [4]), [i.expr() / 2])
            real.add_predicate(inp(i) / 2 > 1)
        assert repr(resolve(half).value) == "(inp[(i // 2)] // 2)"
        assert repr(resolve(real).value) == "(inp[i] / 2)"
        assert repr(resolve(real).store) == "r[(i // 2)]"
        assert repr(resolve(real).predicate) == "((inp[i] / 2) > 1)"
        assert repr(integer(inp(i) / 2)) == "(inp[i] // 2)"

    def test_an_input_and_an_operation_store_nothing(self):
        from repro.core.communication import barrier_at
        f, inp, a, b = self.build()
        for comp in (inp, barrier_at(b)):
            form = resolve(comp)
            assert form.store is None and form.value is None
            assert form.reads == () and write_map(comp) is None

    def test_schedule_independent(self):
        f, inp, a, b = self.build()
        before = repr(resolve(b))
        b.split("i", 4, "i0", "i1")
        b.vectorize("i1", 4)
        a.compute_at(b, "i0")
        assert repr(resolve(b)) == before

    def test_the_summary_holds_it_until_the_content_changes(self):
        from repro.core.deps import DependenceSummary
        f, inp, a, b = self.build()
        summary = DependenceSummary.of(f)
        held = summary.form(b)
        assert repr(held) == repr(resolve(b))
        b.split("i", 4, "i0", "i1")             # Layer II: still good
        assert summary.form(b) is held
        a.inline()
        assert [r.buffer.name for r in summary.form(b).reads] == ["inp"] * 4
        b.store_in(Buffer("flat", [8]), b.vars)
        assert repr(summary.form(b).store) == "flat[i]"
        b.add_predicate(inp(b.vars[0]) > 0.5)
        assert repr(summary.form(b).predicate) == "(inp[i] > 0.5)"

    def test_dump_ir_prints_the_statement(self):
        f, inp, a, b = self.build()
        a.inline()
        text = f.dump_ir().split("-- Layer III")[1].split("-- Layer IV")[0]
        assert "inp(x) -> inp[x]   # input, host" in text
        assert "b(i) -> out[(i % 2), i] = (((inp[i] * 2.0) + inp[(i + 1)]) - " \
            in text
        assert "\n  a(" not in text


@pytest.mark.parametrize("builder,schedule", IMAGE + TENSOR,
                         ids=[b.__name__ for b, __ in IMAGE + TENSOR])
def test_access_maps_of_the_bench_programs(builder, schedule):
    """``read_maps`` / ``write_map`` are the maps of the reference
    enumeration, in its order (and, compared by hand when ``resolve``
    went in, the maps of the commit before it)."""
    bundle = builder()
    schedule(bundle)
    for comp in bundle.function.active_computations():
        if comp.expr is not None:
            assert read_maps(comp) == [
                (buffer, access_map(comp, BufferRead(buffer, index)))
                for buffer, index in deps_reference.reads(comp)]
            assert write_map(comp) == access_map(comp, BufferRead(
                comp.get_buffer(), comp.store_indices()))


# -- keep it one place --------------------------------------------------------

#: Who else may ask whether a computation is inlined or where it stores:
#: the classes that hold the two facts, the pass that clones them, and
#: the keys that must change when they do.
LAYER_III_MODULES = {"core/access.py", "core/computation.py",
                     "core/function.py", "core/separate.py",
                     "core/dump.py", "driver/fingerprint.py"}
LAYER_III_FUNCTIONS = {("core/deps.py", "_content_key"),
                       ("backends/common.py", "collect_buffers")}


def _layer_iii_questions(tree):
    """``(enclosing top-level def, line)`` of every read of ``.inlined``
    and every ``.store_indices()`` call."""
    for top in tree.body:
        for node in ast.walk(top):
            asked = isinstance(node, ast.Attribute) and (
                node.attr == "inlined" and isinstance(node.ctx, ast.Load)
                or node.attr == "store_indices")
            if asked:
                yield getattr(top, "name", "<module>"), node.lineno


class TestOneRule:
    def test_nobody_else_asks_the_layer_iii_questions(self):
        found = set()
        for path in SRC.rglob("*.py"):
            module = path.relative_to(SRC).as_posix()
            if module in LAYER_III_MODULES:
                continue
            for where, line in _layer_iii_questions(
                    ast.parse(path.read_text())):
                if (module, where) not in LAYER_III_FUNCTIONS:
                    found.add(f"{module}:{line} in {where}")
        assert not found

    def test_no_division_flag_is_threaded_anywhere(self):
        assert not [path.relative_to(SRC).as_posix()
                    for path in SRC.rglob("*.py")
                    if "float_div" in path.read_text()]

    def test_the_resolvers_are_gone(self):
        import repro.backends.c as c
        import repro.codegen.lanes as lanes
        import repro.codegen.pyemit as pyemit
        import repro.core.communication as communication
        import repro.core.deps as deps
        for module, name in ((deps, "_resolve_read"),
                             (communication, "_store_relation"),
                             (lanes, "_reads"),
                             (pyemit.Emitter, "_access_py"),
                             (pyemit.Emitter, "_store_target"),
                             (c.CEmitter, "_access_c")):
            assert not hasattr(module, name), name
