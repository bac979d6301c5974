"""Tests for the Pluto-style strategy behind ``autoschedule()``."""

import numpy as np
import pytest

from repro import Buffer, Computation, Function, Input, Param, Var
from repro.autosched import autoschedule, build_pluto_plan
from repro.core.deps import check_schedule_legality
from repro.driver.pipeline import compile_to_source
from repro.kernels import (build_blur, build_cvtcolor, build_gaussian,
                           build_nb, build_sgemm)


def _pluto(fn, **kw):
    """Run the pluto strategy through the front door and apply in place,
    returning the legacy-style report."""
    result = autoschedule(fn, strategy="pluto", apply=True, **kw)
    return result.report


class TestHeuristics:
    def test_nb_fully_fused(self):
        """Same-buffer elementwise stages fuse at the deepest level."""
        bundle = build_nb()
        report = _pluto(bundle.function)
        assert len(report.fused) == 3
        assert all(level == 2 for *_, level in report.fused)

    def test_blur_not_fused_without_shift(self):
        """by(i) reads bx(i+1), bx(i+2): plain fusion is illegal at
        every level and the scheduler must not force it."""
        bundle = build_blur()
        report = _pluto(bundle.function)
        assert report.fused == []

    def test_everything_tiled(self):
        bundle = build_sgemm()
        report = _pluto(bundle.function)
        assert "acc" in report.tiled

    def test_outermost_parallelism(self):
        bundle = build_cvtcolor()
        report = _pluto(bundle.function)
        assert ("gray", 0) in report.parallelized

    def test_reduction_loop_not_parallelized(self):
        """The k loop of sgemm carries the accumulation."""
        N = Param("N")
        f = Function("red", params=[N])
        with f:
            i, k = Var("i", 0, N), Var("k", 0, N)
            buf = Buffer("acc", [N])
            c = Computation("c", [i, k], None)
            c.set_expression(c(i, k - 1) + 1.0)
            c.store_in(buf, [i])
        report = _pluto(f, fuse=False)
        assert ("c", 0) in report.parallelized
        assert ("c", 1) not in report.parallelized


class TestCorrectness:
    """The auto-scheduler must never break semantics."""

    BUILDERS = [build_blur, build_cvtcolor, build_nb, build_sgemm,
                build_gaussian]

    @pytest.mark.parametrize("builder", BUILDERS,
                             ids=[b.__name__ for b in BUILDERS])
    def test_autoscheduled_verifies(self, builder):
        bundle = builder()
        _pluto(bundle.function)
        assert bundle.verify(atol=1e-2)

    @pytest.mark.parametrize("builder", BUILDERS,
                             ids=[b.__name__ for b in BUILDERS])
    def test_autoscheduled_legal(self, builder):
        bundle = builder()
        _pluto(bundle.function)
        check_schedule_legality(bundle.function)


class TestFusionRollback:
    def test_illegal_fusion_leaves_no_directive(self):
        bundle = build_blur()
        fn = bundle.function
        n_before = len(fn.order_directives)
        _pluto(fn)
        # No dangling 'after' from the failed fusion attempts; tiling
        # and parallelization add none.
        extra = fn.order_directives[n_before:]
        assert all(kind != "after" or a.name != "by"
                   for kind, a, b, lvl in extra)

    def test_rejected_fusion_restores_schedule_exactly(self):
        """Regression for the interchange-backtracking bug: a fusion
        attempt that interchanges the consumer, fails legality, and
        backs out must leave the function byte-identical — the old code
        left the consumer's loops permuted."""
        bundle = build_blur()
        fn = bundle.function
        before = compile_to_source(fn, "cpu", cache=False)["source"]
        plan, report = build_pluto_plan(fn)
        assert report.fused == []
        assert not any(a.kind == "fuse" and a.producer == "bx"
                       for a in plan)
        after = compile_to_source(fn, "cpu", cache=False)["source"]
        assert after == before
