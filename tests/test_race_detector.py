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
from tests.test_analysis_budget import _blur_race_free


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


class TestWindowComputedOnce:
    """compute_at's instances are the union of the windows the
    consumer's accesses read; when that union is convex it is one piece
    (its exact hull), so each bx element of a tile is computed once and
    only the halo again in the next tile."""

    SCHEDULES = {"fig3a": schedule_blur_cpu, "race_free": _blur_race_free}

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_blur_computes_each_window_element_once(self, schedule):
        bundle = build_blur()
        self.SCHEDULES[schedule](bundle)
        bx = bundle.computations["bx"]
        assert len(bx.instances.pieces) == 1
        assert tile_window(bx)[0].concrete_shape({}) == (34, 32, 3)
        kernel = bundle.function.compile("cpu", profile=True,
                                         parallel=False, cache=False)
        # one tile at 26 x 22: bx's whole domain, 24 * 20 * 3; at
        # 66 x 58 two row tiles, 34 + 32 rows of 56 * 3
        for (n, m), points in (((26, 22), 1440), ((66, 58), 11088)):
            params = {"N": n, "M": m}
            inputs = bundle.make_inputs(params, np.random.default_rng(0))
            kernel(**inputs, **params)
            assert kernel.last_run.comp("bx").iterations == points

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_blur_bitwise_on_every_cpu_leg(self, schedule):
        from repro.backends.c import have_c_compiler
        legs = {"seq": ("cpu", dict(parallel=False)),
                "x2": ("cpu", dict(num_threads=2))}
        if have_c_compiler():
            legs["c"] = ("c", {})
        params = {"N": 66, "M": 58}
        got = {}
        for leg, (target, opts) in legs.items():
            bundle = build_blur()
            self.SCHEDULES[schedule](bundle)
            inputs = bundle.make_inputs(params, np.random.default_rng(1))
            kernel = bundle.function.compile(target, cache=False, **opts)
            got[leg] = kernel(**inputs, **params)["by"]
        want = bundle.reference(inputs, params)["by"]
        assert np.allclose(got["seq"], want, atol=1e-4)
        for leg in legs:
            assert np.array_equal(got[leg], got["seq"]), leg

    def test_windows_with_a_gap_keep_their_pieces(self):
        # b reads a(i) and a(i + 6): per tile of 4 the rows 4t..4t+3
        # and 4t+6..4t+9, whose hull (4t..4t+9) holds two rows no read
        # of the tile needs
        with Function("gap") as f:
            inp = Input("inp", [Var("x", 0, 22)])
            iw, i = Var("iw", 0, 22), Var("i", 0, 16)
            a = Computation("a", [iw], inp(iw) * 2.0)
            b = Computation("b", [i], a(i) + a(i + 6))
        b.split("i", 4, "i0", "i1")
        a.compute_at(b, "i0")
        assert len(a.instances.pieces) == 2
        kernel = f.compile("cpu", profile=True, parallel=False, cache=False)
        data = np.arange(22, dtype=np.float32)
        assert np.array_equal(kernel(inp=data)["b"],
                              2 * data[:16] + 2 * data[6:])
        # four tiles, eight rows each, no row twice
        assert kernel.last_run.comp("a").iterations == 32


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
