"""The static race detector (Section V legality applied to parallel
tags): ``check_parallel_legality`` rejects any parallel/vector/
distributed tag whose level carries a dependence, and runs as the
pipeline's ``race-check`` stage for every compile whose backend runs the
tagged loops concurrently, on any host."""

import numpy as np
import pytest

from repro import Buffer, Computation, Function, Input, Param, Var
from repro.core.communication import tile_window
from repro.core.deps import (RACE_CHECKED_TAGS, check_parallel_legality)
from repro.core.errors import IllegalScheduleError
from repro.kernels.image import build_blur, schedule_blur_cpu
from repro.kernels.linalg import build_sgemm


def build_gauss_seidel():
    """The wavefront example's Gauss-Seidel sweep: dependences carried
    in both loops until skewed."""
    N = Param("N")
    with Function("gs", params=[N]) as fn:
        rhs = Input("rhs", [Var("x", 0, N), Var("y", 0, N)])
        ubuf = Buffer("u", [N, N])
        init = Computation("init", [Var("i0", 0, N), Var("j0", 0, N)],
                           None)
        init.set_expression(rhs(Var("i0", 0, N), Var("j0", 0, N)))
        init.store_in(ubuf, [Var("i0", 0, N), Var("j0", 0, N)])
        i, j = Var("i", 1, N), Var("j", 1, N)
        sweep = Computation("sweep", [i, j], None)
        sweep.set_expression((rhs(i, j) + sweep(i - 1, j)
                              + sweep(i, j - 1)) / 4.0)
        sweep.store_in(ubuf, [i, j])
        sweep.after(init, None)
    return fn, sweep


class TestDetector:
    def test_legal_blur_outer_parallel(self):
        bundle = build_blur()
        bundle.computations["bx"].parallelize("iw")
        bundle.computations["by"].parallelize("i")
        # Both tags race-free: returns the number of checked levels.
        assert check_parallel_legality(bundle.function) == 2

    def test_reduction_loop_rejected(self):
        bundle = build_sgemm()
        bundle.computations["acc"].parallelize("k")
        with pytest.raises(IllegalScheduleError) as exc:
            check_parallel_legality(bundle.function)
        msg = str(exc.value)
        assert "'acc'" in msg and "'k'" in msg
        assert "flow dependence acc -> acc" in msg
        assert "buffer C" in msg

    def test_unskewed_wavefront_rejected(self):
        fn, sweep = build_gauss_seidel()
        sweep.parallelize("i")
        with pytest.raises(IllegalScheduleError) as exc:
            check_parallel_legality(fn)
        msg = str(exc.value)
        assert "'sweep'" in msg and "sweep -> sweep" in msg
        assert "buffer u" in msg

    def test_skewed_wavefront_inner_rejected_outer_legal(self):
        # Skewing makes the anti-diagonal ("j") race-free; the
        # wavefront-ordering loop ("i") still carries the recurrence.
        fn, sweep = build_gauss_seidel()
        sweep.skew("j", "i", 1)
        sweep.parallelize("i")
        with pytest.raises(IllegalScheduleError) as exc:
            check_parallel_legality(fn)
        assert "'sweep'" in str(exc.value)

        fn2, sweep2 = build_gauss_seidel()
        sweep2.skew("j", "i", 1)
        sweep2.parallelize("j")
        assert check_parallel_legality(fn2) == 1

    def test_no_tags_is_free(self):
        bundle = build_sgemm()
        assert check_parallel_legality(bundle.function) == 0

    def test_kinds_filter(self):
        bundle = build_sgemm()
        bundle.computations["acc"].vectorize("k", 8)
        # An illegal vector tag trips the full check ...
        with pytest.raises(IllegalScheduleError):
            check_parallel_legality(bundle.function,
                                    kinds=RACE_CHECKED_TAGS)
        # ... but not a parallel-only check (the emitter's scalar
        # fallback keeps illegal vector lanes correct).
        assert check_parallel_legality(bundle.function,
                                       kinds=("parallel",)) == 0


def fig3a(outside_reader=False):
    """Blur under Fig. 3a's schedule (tile, parallelize("i0"),
    bx.compute_at(by, "j0")); ``outside_reader`` adds a computation that
    reads bx outside by's tiles."""
    bundle = build_blur()
    if outside_reader:
        N, M = bundle.function.params
        with bundle.function:
            x, y, z = Var("x", 0, N - 2), Var("y", 0, M - 2), Var("z", 0, 3)
            Computation("peek", [x, y, z],
                        bundle.computations["bx"](x, y, z) * 2.0)
    schedule_blur_cpu(bundle)
    return bundle


class TestTileWindow:
    """compute_at stores the producer in a window private to one
    iteration of the consumer's loops 0..l: two tiles share no element,
    so the parallel tile loop carries no dependence."""

    def test_fig3a_is_race_free_and_offloads(self):
        bundle = fig3a()
        window = tile_window(bundle.computations["bx"])[0]
        assert window.name == "_bx_w" and window.concrete_shape({}) == \
            (34, 32, 3)
        # by_i0 on bx and i0 on by: both parallel tags are race-free
        assert check_parallel_legality(bundle.function) == 2
        kernel = bundle.function.compile("cpu", num_threads=2)
        assert "_runtime.run(_par_body_1" in kernel.source
        assert "b__bx_w = np.empty((34, 32, 3)" in kernel.source
        assert "_bx_b" not in kernel.source
        params = dict(bundle.test_params)
        inputs = bundle.make_inputs(params, np.random.default_rng(0))
        want = bundle.reference(inputs, params)["by"]
        assert np.allclose(kernel(**inputs, **params)["by"], want,
                           atol=1e-4)

    def test_reader_outside_the_tile_keeps_the_shared_buffer(self):
        bundle = fig3a(outside_reader=True)
        assert tile_window(bundle.computations["bx"]) is None
        with pytest.raises(IllegalScheduleError, match="data race") as exc:
            check_parallel_legality(bundle.function)
        assert "flow dependence bx -> by on buffer _bx_b" in str(exc.value)
        with pytest.raises(IllegalScheduleError, match="data race"):
            bundle.function.compile("cpu", num_threads=2)

    def test_store_in_keeps_the_shared_buffer(self):
        bundle = build_blur()
        N, M = bundle.function.params
        bx = bundle.computations["bx"]
        bx.store_in(Buffer("scratch", [N, M, 3]), bx.vars)
        schedule_blur_cpu(bundle)
        assert tile_window(bx) is None
        with pytest.raises(IllegalScheduleError, match="scratch"):
            check_parallel_legality(bundle.function)


class TestPipelineStage:
    def test_race_check_stage_runs_for_parallel_compiles(self):
        bundle = build_blur()
        bundle.computations["by"].parallelize("i")
        kernel = bundle.function.compile("cpu", num_threads=2)
        assert "race-check" in kernel.report.stage_names()
        assert kernel.report.races_checked == 1
        assert kernel.report.stage_seconds("race-check") is not None

    def test_race_check_skipped_sequentially(self):
        bundle = build_blur()
        bundle.computations["by"].parallelize("i")
        kernel = bundle.function.compile("cpu", parallel=False)
        assert "race-check" not in kernel.report.stage_names()

    @pytest.mark.parametrize("target", ["cpu", "c"])
    def test_parallel_tag_checked_by_its_schedule_alone(self, target,
                                                        monkeypatch):
        from repro.backends.c import have_c_compiler
        if target == "c" and not have_c_compiler():
            pytest.skip("no C compiler available")
        # one worker, one core: the tag is still checked
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        bundle = build_blur()
        bundle.computations["by"].parallelize("i")
        kernel = bundle.function.compile(target, num_threads=1,
                                         cache=False)
        assert kernel.report.races_checked == 1

    def test_illegal_parallelize_refused_alike_on_c_and_cpu(self):
        texts = []
        for target in ("cpu", "c"):
            bundle = build_sgemm()
            bundle.computations["acc"].parallelize("k")
            with pytest.raises(IllegalScheduleError) as exc:
                bundle.function.compile(target, cache=False)
            texts.append(str(exc.value))
        assert texts[0] == texts[1] and "data race" in texts[0]

    def test_illegal_parallel_compile_raises(self):
        bundle = build_sgemm()
        bundle.computations["acc"].parallelize("k")
        with pytest.raises(IllegalScheduleError) as exc:
            bundle.function.compile("cpu", num_threads=2)
        assert "data race" in str(exc.value)

    def test_check_races_true_is_strict(self):
        # Strict mode checks vector tags on any worker count.
        bundle = build_sgemm()
        bundle.computations["acc"].vectorize("k", 8)
        with pytest.raises(IllegalScheduleError):
            bundle.function.compile("cpu", num_threads=1,
                                    check_races=True)

    def test_check_races_false_disables(self):
        bundle = build_sgemm()
        bundle.computations["acc"].parallelize("k")
        kernel = bundle.function.compile("cpu", num_threads=2,
                                         check_races=False)
        assert kernel is not None

    def test_race_check_in_trace_table(self):
        bundle = build_blur()
        bundle.computations["by"].parallelize("i")
        kernel = bundle.function.compile("cpu", num_threads=2,
                                         cache=False)
        table = kernel.report.format_table()
        assert "race-check" in table
        assert "race-free" in table
