"""Tier-2 gates for the task-graph runtime (docs/task_runtime.md).

- The ready-queue scheduler overlaps wavefront rows and the
  barrier-per-wavefront-level baseline (``run_forkjoin``) never does:
  on heat, the *same tiles* are dispatched in dependence order under
  both policies, but only the ready queue hands out a tile of row
  ``t+1`` while a tile of row ``t`` is still in flight — overlapping
  rows is the entire point of the runtime.  Read off the event journal,
  not off a stopwatch: this was a single-sample "ready queue beats the
  barriers on wall clock" gate, and whether a tile DAG beats the
  *sequential nest* at all is ``runtime.taskgraph_vs_seq_ratio`` in
  ``python3 -m bench.run`` (BENCHMARK.json).  The shapes here are
  small, so the size floor is patched to 0 to put the tiles on threads.
- ``overlap_ratio`` — the fraction of communication the critical-path
  network model hides behind compute for a pipelined-SUMMA-style
  schedule; must be strictly positive, i.e. the model prices overlap
  as a real saving.
"""

import numpy as np
import pytest
from conftest import print_table

from repro import settings
from repro.backends import parallel
from repro.kernels.stencil import build_heat
from repro.machine import estimate_critical_path
from repro.obs.events import read_events
from repro.runtime import TaskGraphRuntime, run_forkjoin


def compile_taskgraph_heat(bundle, workers):
    kernel = bundle.function.compile("cpu", execution="taskgraph",
                                     num_threads=workers)
    assert isinstance(kernel.runtime, TaskGraphRuntime)
    return kernel


def dispatch_story(journal, graph):
    """From one graph execution's journal: the dispatch order, and how
    many tiles were handed out while a tile of an *earlier* wavefront
    level was still in flight.  Also checks the order is a legal one."""
    level_of = {task: depth
                for depth, level in enumerate(graph.wavefront_levels())
                for task in level}
    order, done, inflight, overlapped = [], set(), set(), 0
    for event in read_events(str(journal)):
        task = event["fields"].get("task")
        if event["name"] == "taskgraph.task.dispatch":
            assert set(graph.tasks[task].preds) <= done
            overlapped += any(level_of[other] < level_of[task]
                              for other in inflight)
            order.append(task)
            inflight.add(task)
        elif event["name"] == "taskgraph.task.done":
            inflight.discard(task)
            done.add(task)
    assert sorted(order) == sorted(level_of) == sorted(done)
    return [level_of[task] for task in order], overlapped


@pytest.fixture
def no_floor(monkeypatch):
    monkeypatch.setattr(parallel, "THREAD_FLOOR_BYTES", 0)


def test_ready_queue_overlaps_wavefront_rows_forkjoin_does_not(
        tmp_path, no_floor):
    bundle = build_heat()
    params = {"T": 16, "N": 400}
    kernel = compile_taskgraph_heat(bundle, 2)
    inp = bundle.make_inputs(params, np.random.default_rng(7))
    ref = bundle.reference({k: v.copy() for k, v in inp.items()}, params)
    graph, why = kernel.runtime.graph_for(params)
    assert graph is not None, why

    def run(journal):
        with settings.override(event_log=journal):
            out = kernel(u=inp["u"].copy(), **params)
        assert np.array_equal(out["u"], ref["u"])
        return dispatch_story(journal, graph)

    __, queue_overlap = run(tmp_path / "ready-queue.jsonl")
    with run_forkjoin(kernel):
        barrier_levels, barrier_overlap = run(tmp_path / "forkjoin.jsonl")
    stats = kernel.runtime.taskgraph_stats
    print_table("heat wavefront: ready queue vs fork-join barriers", {
        "tiles": len(graph.tasks),
        "levels x max width": f"{graph.depth} x {graph.max_width}",
        "overlapped dispatches": f"{queue_overlap} vs {barrier_overlap}",
    })
    assert stats.fallbacks == 0, stats.last_reason
    assert stats.graphs == 2 and stats.tasks == 2 * len(graph.tasks)
    # Barrier policy: level by level, nothing ever crosses a row.
    assert barrier_levels == sorted(barrier_levels)
    assert barrier_overlap == 0
    # Ready queue: a row's ragged edge is filled from the next row.
    assert queue_overlap > 0


def test_taskgraph_output_bit_identical_to_sequential(no_floor):
    """The correctness half of the perf gate, runnable even on a
    single-core host: the DAG execution is bit-identical to the
    sequential nest on the same inputs."""
    bundle = build_heat()
    params = {"T": 16, "N": 400}
    kernel = compile_taskgraph_heat(bundle, 2)
    sequential = bundle.function.compile("cpu", num_threads=1)
    rng = np.random.default_rng(11)
    inp = bundle.make_inputs(params, rng)
    out_tg = kernel(u=inp["u"].copy(), **params)
    out_seq = sequential(u=inp["u"].copy(), **params)
    assert np.array_equal(out_tg["u"], out_seq["u"])
    assert kernel.runtime.taskgraph_stats.fallbacks == 0


def test_critical_path_prices_overlap_for_pipelined_summa():
    """Pure model gate: pipelined SUMMA's broadcast rounds hide behind
    the panel multiplies, shrinking the modeled makespan below the
    serial comm-then-compute sum."""
    ranks, rounds = 4, 16
    panel_elems = 1_000_000 // ranks
    bcast = [(0, r, panel_elems) for r in range(1, ranks)]
    flops_per_round = 2.0 * 1_000_000 * 64
    compute_seconds = flops_per_round / 50e9   # a ~50 GFLOP/s node
    est = estimate_critical_path([(bcast, compute_seconds)] * rounds)
    print_table("pipelined SUMMA critical path", {
        "serial s": f"{est.serial_seconds:.4f}",
        "overlapped s": f"{est.seconds:.4f}",
        "hidden s": f"{est.hidden_seconds:.4f}",
        "overlap ratio": f"{est.overlap_ratio:.3f}",
    })
    assert est.seconds < est.serial_seconds
    assert est.overlap_ratio > 0.0
