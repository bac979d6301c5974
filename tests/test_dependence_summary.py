"""The function's one dependence analysis (repro.core.deps.
DependenceSummary) against the exhaustive formulation it replaced
(tests/deps_reference.py), and the rules its memo lives by: validated on
every read, invisible to pickle and fingerprint, computed once."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.isl.cache as isl_cache
from repro import Buffer, Computation, Function, Input, Var
from repro import kernels as K
from repro.autosched import SchedulePlan
from repro.autosched.actions import ActionError
from repro.autosched.search import enumerate_actions
from repro.core.computation import Operation
from repro.core.deps import (DependenceSummary, check_parallel_legality,
                             check_schedule_legality, compute_dependences,
                             dependence_distance)
from repro.core.errors import IllegalScheduleError, ScheduleError
from repro.isl import isl_cache_disabled

from . import deps_reference as R
from .test_codegen_properties import (COMMANDS, apply_command,
                                       build_vector_case)
from .test_legality_property import build_chain


def verdict(check):
    try:
        return check()
    except IllegalScheduleError as err:
        return str(err)


def assert_matches_reference(fn, params=()):
    """Legality verdict + message, the carried set at every
    (computation, level) and every distance: summary == reference."""
    summary = DependenceSummary.of(fn)
    deps = summary.dependences()
    ref_deps = R.dependences(fn)
    assert [repr(d) for d in deps] == [repr(d) for d in ref_deps]
    assert verdict(summary.check_legality) == \
        verdict(lambda: R.check_legality(fn, ref_deps))
    for comp in fn.active_computations():
        if isinstance(comp, Operation):
            continue
        for level in range(len(comp.time_names)):
            got = [deps.index(d) for d in summary.carried(comp, level)]
            assert got == R.carried(fn, ref_deps, comp, level), \
                (comp.name, level)
    for dep, ref in zip(deps, ref_deps):
        assert dependence_distance(dep, params) == \
            R.distance(ref, dict(params)), dep


def with_and_without_isl_memo(build):
    """Compare a freshly built state against the reference twice: isl
    memo cold, then off."""
    isl_cache.clear()
    assert_matches_reference(*build())
    with isl_cache_disabled():
        assert_matches_reference(*build())


# -- (i) the differential ----------------------------------------------------

@given(st.integers(-3, 3), st.integers(-3, 3),
       st.sampled_from(["none", "fuse_ba", "fuse_cb", "fuse_all",
                        "reverse"]))
@settings(max_examples=25, deadline=None)
def test_fused_chains_match_reference(shift1, shift2, action):
    def build():
        f, a, b, c, _ = build_chain(16, shift1, shift2)
        if action in ("fuse_ba", "fuse_all"):
            b.after(a, "ia")
        if action in ("fuse_cb", "fuse_all"):
            c.after(b, "ib")
        if action == "reverse":
            a.after(c)
        return (f,)
    with_and_without_isl_memo(build)


def build_nest(kind, s1, s2, fuse):
    """A 2-D nest that carries dependences: ``stencil`` is the
    time-iterated in-place stencil of test_codegen_properties,
    ``inplace`` has distances (1, -s1) and (0, 1), ``pair`` is a
    producer read at (i + s1, j + s2) by a consumer fused at ``fuse``."""
    if kind == "stencil":
        return build_vector_case("other_row_of_stored", [4, 5], 1, s1 + 1,
                                 True)[0]
    f = Function("nest")
    with f:
        inp = Input("inp", [Var("x", 0, 12), Var("y", 0, 12)])
        i, j = Var("i", 2, 8), Var("j", 2, 8)
        if kind == "inplace":
            c = Computation("c", [i, j], None)
            c.set_expression(c(i - 1, j + s1) + c(i, j - 1) + inp(i, j))
            c.store_in(Buffer("u", [12, 12]), [i, j])
        else:
            p, q = Var("p", 0, 12), Var("q", 0, 12)
            a = Computation("a", [p, q], None)
            a.set_expression(inp(p, q) * 2.0)
            b = Computation("b", [i, j], None)
            b.set_expression(a(i + s1, j + s2) + 1.0)
            if fuse is not None:
                b.after(a, fuse)
    return f


@given(st.sampled_from(["stencil", "inplace", "pair"]),
       st.integers(-1, 1), st.integers(-1, 1),
       st.sampled_from([None, "p", "q"]),
       st.lists(st.sampled_from(COMMANDS), min_size=0, max_size=3),
       st.integers(2, 3), st.booleans())
@settings(max_examples=100, deadline=None)
def test_scheduled_nests_match_reference(kind, s1, s2, fuse, ops, tile,
                                         every):
    """Random command lists — legal and illegal alike — applied to every
    statement (or only the last), compared after each command on one
    function object, so a stale memo entry would show."""
    f = build_nest(kind, s1, s2, fuse)
    assert_matches_reference(f)
    for k, op in enumerate(ops):
        comps = [c for c in f.active_computations() if c.expr is not None]
        for comp in comps if every else comps[-1:]:
            apply_command(comp, op, k, tile, tile)
        assert_matches_reference(f)


KERNELS = [(K.build_heat, {"T": 6, "N": 20}),
           (K.build_gaussian, {"N": 20, "M": 18}),
           (K.build_sgemm, {"N": 8, "M": 8, "K": 8})]


@pytest.mark.parametrize("builder,params", KERNELS,
                         ids=[b.__name__ for b, __ in KERNELS])
@pytest.mark.parametrize("seed", [0, 1])
def test_unpruned_random_plans_match_reference(builder, params, seed):
    """Random walks over the search's own action menu, illegal moves
    kept half of the time; every push and every pop is compared."""
    rng = random.Random(seed)
    fn = builder().function
    plan = SchedulePlan()
    assert_matches_reference(fn, params)
    for _ in range(3):
        menu = enumerate_actions(fn)
        if not menu:
            break
        try:
            plan.push(fn, rng.choice(menu))
        except (ScheduleError, ActionError):
            continue
        assert_matches_reference(fn, params)
        legal = not isinstance(verdict(DependenceSummary.of(fn).check), str)
        if not legal and rng.random() < 0.5:
            plan.pop(fn)
            assert_matches_reference(fn, params)
    if plan.applied:
        plan.undo(fn)
    assert_matches_reference(fn, params)


# -- (ii) invalidation ---------------------------------------------------------

def build_wave():
    """c(i, j) = c(i-1, j+1) + 1 in place: distance (1, -1)."""
    f = Function("wave")
    with f:
        i, j = Var("i", 1, 9), Var("j", 0, 8)
        c = Computation("c", [i, j], None)
        c.set_expression(c(i - 1, j + 1) + 1.0)
        c.store_in(Buffer("u", [10, 10]), [i, j])
    return f, c


class TestInvalidation:
    """check -> schedule command -> the verdict is the new state's."""

    def test_interchange(self):
        f, c = build_wave()
        assert check_schedule_legality(f) == 1
        c.interchange("i", "j")
        with pytest.raises(IllegalScheduleError, match="c -> c"):
            check_schedule_legality(f)
        assert_matches_reference(f)

    def test_tile(self):
        f, c = build_wave()
        check_schedule_legality(f)
        c.tile("i", "j", 2, 2)
        with pytest.raises(IllegalScheduleError):
            check_schedule_legality(f)
        assert_matches_reference(f)

    def test_parallelize(self):
        f, c = build_wave()
        assert check_parallel_legality(f) == 0
        c.parallelize("j")
        assert check_parallel_legality(f) == 1
        c.parallelize("i")
        with pytest.raises(IllegalScheduleError, match="'i'"):
            check_parallel_legality(f)

    def test_after(self):
        f, a, b, c, _ = build_chain(16, 1, 0)
        check_schedule_legality(f)
        b.after(a, "ia")         # b(i) reads a(i + 1): not yet computed
        with pytest.raises(IllegalScheduleError, match="a -> b"):
            check_schedule_legality(f)

    def test_compute_at(self):
        bundle = K.build_blur()
        f = bundle.function
        bx, by = bundle.computations["bx"], bundle.computations["by"]
        checked = check_schedule_legality(f)
        assert checked > 0
        by.tile("i", "j", 8, 8, "i0", "j0", "i1", "j1")
        bx.compute_at(by, "j0")
        # the redundantly computed producer's hazards are not checked
        assert check_schedule_legality(f) < checked
        assert_matches_reference(f, {"N": 20, "M": 18})

    def test_store_in_recomputes_the_dependences(self):
        f = Function("f")
        with f:
            i, k = Var("i", 0, 8), Var("k", 0, 8)
            a = Computation("a", [i], 1.0 * i)
            b = Computation("b", [k], 2.0 * k)
        a.after(b)
        assert compute_dependences(f) == []
        assert check_schedule_legality(f) == 0
        shared = Buffer("s", [8])
        a.store_in(shared, [i])
        b.store_in(shared, [k])
        assert [d.kind for d in compute_dependences(f)] == ["output"]
        with pytest.raises(IllegalScheduleError, match="output"):
            check_schedule_legality(f)
        assert DependenceSummary.of(f).deps_computed == 2

    def test_inline(self):
        f, a, b, c, _ = build_chain(16, 0, 0)
        before = len(compute_dependences(f))
        b.inline()
        after = compute_dependences(f)
        assert len(after) < before
        assert all(b not in (d.source, d.sink) for d in after)
        assert_matches_reference(f)

    def test_plan_undo_returns_to_a_known_state(self):
        f, c = build_wave()
        summary = DependenceSummary.of(f)
        assert check_schedule_legality(f) == 1
        from repro.autosched.actions import Interchange
        plan = SchedulePlan([Interchange("c", 0, 1)]).apply(f)
        with pytest.raises(IllegalScheduleError):
            summary.check()
        plan.undo()
        reused, walked = summary.profiles_reused, summary.profiles_walked
        assert check_schedule_legality(f) == 1
        assert summary.profiles_reused == reused + 1
        assert summary.profiles_walked == walked
        assert summary.deps_computed == 1


# -- (iii) the memo is not content --------------------------------------------

def test_pickle_and_fingerprint_ignore_the_summary():
    bundle = K.build_sgemm()
    K.schedule_sgemm_cpu(bundle)
    fn = bundle.function
    fn.compile("cpu", cache=False)      # materialises buffers and params
    size, key = len(pickle.dumps(fn)), fn.ir_fingerprint("cpu")
    check_schedule_legality(fn)
    check_parallel_legality(fn)
    assert DependenceSummary.of(fn).stats()["profiles_walked"] > 0
    assert len(pickle.dumps(fn)) == size
    assert fn.ir_fingerprint("cpu") == key
    clone = pickle.loads(pickle.dumps(fn))
    assert DependenceSummary.of(clone).deps_computed == 0
    assert check_schedule_legality(clone) == check_schedule_legality(fn)


# -- (iv) once per compile ------------------------------------------------------

def test_cold_compile_computes_dependences_once():
    bundle = K.build_vgg_block()
    K.schedule_vgg_fused(bundle)
    kernel = bundle.function.compile("cpu", cache=False, check_legality=True,
                                     check_races=True)
    summary = DependenceSummary.of(bundle.function)
    assert summary.deps_computed == 1
    report = kernel.report
    assert report.stage_names().index("dependences") < \
        report.stage_names().index("legality")
    assert report.deps_count == len(summary.dependences()) == 27
    assert report.level_tests == summary.level_tests > 0
    # race-check and the emitter's lane verdicts found legality's profiles
    assert report.profiles_reused > 0
    assert "deps: 27 dependences" in report.format_table()


@pytest.mark.parametrize("builder,schedule", [
    (K.build_spmv27, K.schedule_spmv_cpu),
    (K.build_cvtcolor, None)], ids=["spmv", "cvtColor"])
def test_no_dependences_means_no_isl_in_race_check(builder, schedule):
    from repro.evaluation.schedules import tiramisu_cpu
    bundle = builder()
    (schedule or tiramisu_cpu)(bundle)
    summary = DependenceSummary.of(bundle.function)
    assert summary.dependences() == []
    before = isl_cache.stats()
    assert summary.check_races() == 2
    assert summary.check_legality() == 0
    assert isl_cache.stats() == before
    assert summary.level_tests == 0
