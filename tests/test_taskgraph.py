"""The task-graph runtime (docs/task_runtime.md): DAG lowering from
polyhedral dependences, the ready-queue scheduler on threads over the
caller's arrays, and the driver's ``execution="taskgraph"`` option —
including every degenerate shape (empty grid, single tile, chain DAG),
the decline below the size floor, and deadline expiry between
dispatches, all of which must stay bit-identical to the sequential
nest."""

import numpy as np
import pytest

from repro import Buffer, Computation, Function, Input, Param, Var
from repro.backends import parallel
from repro.core.buffer import ArgKind
from repro.core.errors import DeadlineExceededError
from repro.driver import kernel_registry
from repro.kernels.stencil import build_heat
from repro.runtime import (TaskGraphRuntime, TaskGraphUnavailable,
                           build_task_graph, choose_tile_sizes,
                           run_forkjoin, tile_deltas)

HEAT_DISTANCES = [(1, -1), (1, 0), (1, 1)]


@pytest.fixture(autouse=True)
def _fresh_registry():
    kernel_registry.clear()
    yield
    kernel_registry.clear()


def build_scan():
    """1-D recurrence s[i] = s[i-1] + 1: every tiling of it is a
    chain — the DAG can never beat sequential execution."""
    N = Param("N")
    f = Function("scan", params=[N])
    with f:
        sb = Buffer("s", [N], kind=ArgKind.INOUT)
        i = Var("i", 1, N)
        acc = Computation("acc", [i], None)
        acc.set_expression(acc(i - 1) + 1.0)
        acc.store_in(sb, [i])
    return f


def build_copy(rows=1):
    """Dependence-free 2-D copy with a tiny outer extent — lowers to a
    DAG with ``rows`` independent tiles."""
    N = Param("N")
    f = Function("copy2d", params=[N])
    with f:
        a = Input("a", [Var("x", 0, rows), Var("y", 0, N)])
        cb = Buffer("c", [rows, N], kind=ArgKind.OUTPUT)
        i, j = Var("i", 0, rows), Var("j", 0, N)
        c = Computation("c_out", [i, j], None)
        c.set_expression(a(i, j) * 2.0)
        c.store_in(cb, [i, j])
    return f


def heat_case(p, seed=0):
    b = build_heat()
    rng = np.random.default_rng(seed)
    inp = b.make_inputs(p, rng)
    ref = b.reference({k: v.copy() for k, v in inp.items()}, p)
    return b, inp, ref


class TestTileDeltas:
    def test_heat_wavefront_deltas(self):
        assert tile_deltas(HEAT_DISTANCES, (1, 4)) == \
            [(1, -1), (1, 0), (1, 1)]

    def test_zero_projection_is_dropped(self):
        # A distance swallowed whole by one tile yields no edge.
        assert tile_deltas([(0, 1)], (1, 8)) == [(0, 1)]
        assert tile_deltas([], (1, 8)) == []

    def test_coarse_time_tiles_are_rejected(self):
        # Tiling the wavefront dim folds (1, -1) into an intra-row
        # offset (0, -1): lex-negative, i.e. a cycle between tiles.
        with pytest.raises(TaskGraphUnavailable) as err:
            tile_deltas(HEAT_DISTANCES, (2, 4))
        assert err.value.reason == "lex-negative-delta"

    def test_one_dimensional_chain(self):
        assert tile_deltas([(1,)], (1,)) == [(1,)]
        assert tile_deltas([(3,)], (2,)) == [(1,), (2,)]


class TestChooseTileSizes:
    def test_wavefront_dim_stays_unit(self):
        s = choose_tile_sizes([100, 64], HEAT_DISTANCES, workers=4)
        assert s[0] == 1            # coarser would fold a cycle
        assert s[1] == 8            # ~2 x workers tiles per row

    def test_dependence_free_chunks_outer_dim(self):
        assert choose_tile_sizes([64, 100], [], workers=4) == (16, 100)

    def test_one_dim(self):
        assert choose_tile_sizes([64], [(1,)], workers=4) == (1,)
        assert choose_tile_sizes([64], [], workers=4) == (16,)


class TestBuildTaskGraph:
    def test_heat_is_a_wavefront(self):
        b, __, __ = heat_case({"T": 1, "N": 1})
        g = build_task_graph(b.function, {"T": 12, "N": 66},
                             [(1, 11), (1, 64)], workers=2)
        assert g.shape == (11, 4) and g.tile_sizes == (1, 16)
        assert set(g.deltas) == set(HEAT_DISTANCES)
        assert not g.is_chain() and g.max_width == 4 and g.depth == 11
        # Interior tile: three upstream neighbours.
        interior = next(t for t in g.tasks if t.coords == (5, 2))
        assert len(interior.preds) == 3
        # Lex order is topological: every edge points forward.
        for t in g.tasks:
            assert all(p < t.index for p in t.preds)
            assert all(s > t.index for s in t.succs)

    def test_bounds_cover_the_grid_exactly_once(self):
        b, __, __ = heat_case({"T": 1, "N": 1})
        g = build_task_graph(b.function, {"T": 9, "N": 47},
                             [(1, 8), (1, 45)], workers=3)
        seen = set()
        for t in g.tasks:
            (lo0, hi0), (lo1, hi1) = t.bounds
            for a in range(lo0, hi0 + 1):
                for c in range(lo1, hi1 + 1):
                    assert (a, c) not in seen
                    seen.add((a, c))
        assert len(seen) == 8 * 45

    def test_empty_grid(self):
        b, __, __ = heat_case({"T": 1, "N": 1})
        g = build_task_graph(b.function, {"T": 1, "N": 8},
                             [(1, 0), (1, 6)], workers=2)
        assert g.is_empty() and g.max_width == 0

    def test_chain_dag(self):
        f = build_scan()
        g = build_task_graph(f, {"N": 64}, [(1, 63)], workers=4)
        assert g.is_chain() and g.depth == len(g.tasks)

    def test_wavefront_levels_partition_the_tasks(self):
        b, __, __ = heat_case({"T": 1, "N": 1})
        g = build_task_graph(b.function, {"T": 7, "N": 34},
                             [(1, 6), (1, 32)], workers=2)
        levels = g.wavefront_levels()
        assert sorted(i for lv in levels for i in lv) == \
            list(range(len(g.tasks)))
        assert len(levels) == g.depth
        assert max(len(lv) for lv in levels) == g.max_width
        # Row t's tiles all sit at level t for the heat wavefront.
        for lv, members in enumerate(levels):
            assert {g.tasks[i].coords[0] for i in members} == {lv}


class TestDriverOption:
    def test_execution_option_is_validated(self):
        b, __, __ = heat_case({"T": 1, "N": 1})
        with pytest.raises(TypeError) as err:
            b.function.compile("cpu", execution="bogus")
        assert "forkjoin" in str(err.value)

    def test_execution_rides_the_cache_key(self):
        b, __, __ = heat_case({"T": 1, "N": 1})
        k_fj = b.function.compile("cpu", num_threads=2)
        k_tg = b.function.compile("cpu", execution="taskgraph",
                                  num_threads=2)
        assert k_fj is not k_tg
        assert "_TASKGRAPH_DIMS" not in k_fj.source
        assert "_TASKGRAPH_DIMS" in k_tg.source
        assert b.function.compile("cpu", execution="taskgraph",
                                  num_threads=2) is k_tg

    def test_profiled_build_degrades_to_forkjoin(self):
        b, __, __ = heat_case({"T": 1, "N": 1})
        k = b.function.compile("cpu", execution="taskgraph",
                               profile=True, num_threads=2)
        assert "_TASKGRAPH_DIMS" not in k.source

    def test_single_threaded_build_has_no_taskgraph_runtime(self):
        b, inp, ref = heat_case({"T": 6, "N": 20})
        k = b.function.compile("cpu", execution="taskgraph",
                               num_threads=1)
        assert not isinstance(k.runtime, TaskGraphRuntime)
        out = k(u=inp["u"].copy(), T=6, N=20)
        assert np.array_equal(out["u"], ref["u"])


class TestTaskGraphExecution:
    """Small shapes, so the floor is patched to run them on threads (2
    workers schedule the same DAG the same way on a single-core host,
    just timeshared)."""

    @pytest.fixture(autouse=True)
    def _no_floor(self, monkeypatch):
        monkeypatch.setattr(parallel, "THREAD_FLOOR_BYTES", 0)

    def compile_heat(self, b, **opts):
        opts.setdefault("num_threads", 2)
        k = b.function.compile("cpu", execution="taskgraph", **opts)
        assert isinstance(k.runtime, TaskGraphRuntime)
        return k

    def test_bit_identical_to_reference(self):
        b, inp, ref = heat_case({"T": 12, "N": 80})
        k = self.compile_heat(b)
        out = k(u=inp["u"].copy(), T=12, N=80)
        assert np.array_equal(out["u"], ref["u"])
        st = k.runtime.taskgraph_stats
        assert st.graphs == 1 and st.tasks > 0 and st.fallbacks == 0
        assert st.last_width >= 2

    def test_vector_level_is_vectorized_inside_tiles(self):
        from repro.kernels import schedule_heat_cpu
        b, inp, ref = heat_case({"T": 12, "N": 80})
        schedule_heat_cpu(b)
        k = self.compile_heat(b)
        assert "# tile dim (i), vectorized" in k.source
        assert k.vector_loops == 1   # the tile copy is not a second loop
        out = k(u=inp["u"].copy(), T=12, N=80)
        assert np.array_equal(out["u"], ref["u"])
        st = k.runtime.taskgraph_stats
        assert st.graphs == 1 and st.fallbacks == 0

    def test_empty_dag_is_a_noop(self):
        # T=1: the t loop runs zero iterations; the graph is empty and
        # the runtime answers "done" without touching the pool.
        b, inp, ref = heat_case({"T": 1, "N": 16})
        k = self.compile_heat(b)
        out = k(u=inp["u"].copy(), T=1, N=16)
        assert np.array_equal(out["u"], ref["u"])
        st = k.runtime.taskgraph_stats
        assert st.graphs == 0 and st.fallbacks == 0

    def test_single_tile_declines(self):
        f = build_copy(rows=1)
        k = f.compile("cpu", execution="taskgraph", num_threads=2)
        assert isinstance(k.runtime, TaskGraphRuntime)
        a = np.arange(24.0, dtype=np.float32).reshape(1, 24)
        out = k(a=a, N=24)
        assert np.array_equal(out["c"], a * 2.0)
        st = k.runtime.taskgraph_stats
        assert st.fallbacks == 1 and st.last_reason == "single-tile"

    def test_chain_dag_declines_bit_identically(self):
        f = build_scan()
        k = f.compile("cpu", execution="taskgraph", num_threads=2)
        assert isinstance(k.runtime, TaskGraphRuntime)
        s = np.zeros(64)
        s[0] = 5.0
        out = k(s=s.copy(), N=64)
        expected = 5.0 + np.arange(64.0)
        assert np.array_equal(out["s"], expected)
        st = k.runtime.taskgraph_stats
        assert st.fallbacks == 1 and st.last_reason == "chain-dag"

    def test_below_the_floor_declines_to_the_nest(self, monkeypatch):
        monkeypatch.setattr(parallel, "THREAD_FLOOR_BYTES", 1 << 62)
        b, inp, ref = heat_case({"T": 8, "N": 40}, seed=4)
        k = self.compile_heat(b)
        out = k(u=inp["u"].copy(), T=8, N=40)
        assert np.array_equal(out["u"], ref["u"])
        st = k.runtime.taskgraph_stats
        assert st.graphs == 0 and st.fallbacks == 1
        assert st.last_reason == "below-floor"

    def test_tile_error_surfaces_once_every_tile_is_joined(self):
        import time
        from repro.core.errors import ExecutionError
        b, inp, ref = heat_case({"T": 12, "N": 80})
        k = self.compile_heat(b, num_threads=4)
        body = k.runtime._tile_body

        def tile(bufs, params, *bounds):
            if bounds[:2] == (3, 3):        # row t = 3: one tile fails,
                if bounds[2] == 1:          # its siblings finish late
                    raise ValueError("inside a tile")
                time.sleep(0.02)
            body(bufs, params, *bounds)
        k.runtime._tile_body = tile
        u = inp["u"].copy()
        with pytest.raises(ExecutionError, match="inside a tile"):
            k(u=u, T=12, N=80)
        after = u.copy()
        time.sleep(0.1)
        assert np.array_equal(u, after)     # nobody writes any more
        assert k.runtime.taskgraph_stats.graphs == 0

    def test_more_workers_than_cores_under_a_short_switch_interval(self):
        import sys
        import time
        from repro.kernels import schedule_heat_cpu
        b, inp, ref = heat_case({"T": 10, "N": 300}, seed=6)
        schedule_heat_cpu(b)
        k = self.compile_heat(b, num_threads=8)
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            deadline = time.monotonic() + 5.0
            for __ in range(20):
                out = k(u=inp["u"].copy(), T=10, N=300)
                assert np.array_equal(out["u"], ref["u"])
                if time.monotonic() > deadline:
                    break
        finally:
            sys.setswitchinterval(saved)
        st = k.runtime.taskgraph_stats
        assert st.fallbacks == 0 and st.tasks == st.graphs * 9 * 16

    def test_deadline_expiry_between_dispatches(self):
        from repro.core.errors import ExecutionError
        from repro.driver.resilience import Deadline, deadline_scope
        b, inp, __ = heat_case({"T": 12, "N": 80})
        k = self.compile_heat(b)
        expired = Deadline(1e-9)
        with deadline_scope(expired):
            with pytest.raises((DeadlineExceededError,
                                ExecutionError)) as err:
                k(u=inp["u"].copy(), T=12, N=80)
        assert "taskgraph-dispatch" in str(err.value) \
            or isinstance(err.value, DeadlineExceededError)

    def test_forkjoin_comparator_same_tiles_with_barriers(self):
        b, inp, ref = heat_case({"T": 9, "N": 50}, seed=5)
        k = self.compile_heat(b)
        with run_forkjoin(k) as rt:
            out = k(u=inp["u"].copy(), T=9, N=50)
            assert rt.scheduler_mode == "forkjoin"
        assert np.array_equal(out["u"], ref["u"])
        assert k.runtime.scheduler_mode == "ready-queue"

    def test_metrics_and_parallelism_gauge(self):
        from repro.obs.metrics import metrics
        b, inp, __ = heat_case({"T": 12, "N": 80})
        k = self.compile_heat(b)
        graphs0 = metrics.counter("taskgraph.graphs").value
        tasks0 = metrics.counter("taskgraph.tasks").value
        k(u=inp["u"].copy(), T=12, N=80)
        assert metrics.counter("taskgraph.graphs").value == graphs0 + 1
        assert metrics.counter("taskgraph.tasks").value > tasks0
        st = k.runtime.taskgraph_stats
        assert st.last_wall_seconds > 0
        assert st.last_busy_seconds > 0
