"""Ready-queue execution of tile DAGs on the shared worker pool.

:class:`TaskGraphRuntime` extends the fork-join
:class:`~repro.backends.parallel.ParallelRuntime` (it reuses the shared
process pool, the shared-memory staging, the snapshot-restore retry
machinery and the pool circuit breaker) with a dependence-aware
scheduler: instead of dispatching one loop's chunks and waiting on all
of them, it dispatches every *ready* tile of the task DAG and hands a
tile's successors to the pool the moment their last predecessor
finishes.  Wavefront programs — where a barrier-per-row execution
leaves workers idle at the ragged edge of every row — overlap rows: a
tile of row ``t+1`` starts while the rest of row ``t`` is still in
flight.

Failure semantics (docs/task_runtime.md): one graph execution is one
supervised dispatch (:func:`repro.backends.pool.supervise`) with the
*whole* DAG as the retry unit — a partial replay could observe
half-written tiles, while the full replay from the pre-graph snapshot
is bit-identical because every tile recomputes from restored inputs in
the same intra-tile order.  A graph that falls back is *declined*:
``run_taskgraph`` returns ``False`` to the emitted dispatch preamble,
which falls through to the unchanged sequential nest.  Every dispatch
round also charges the ambient request
:class:`~repro.driver.resilience.Deadline`, so an expired budget fails
between tiles, never mid-submit.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.backends.parallel import ParallelRuntime
from repro.backends.pool import (TASKGRAPH, book, exec_in_worker,
                                 load_namespace, refusal, worker_fault)
from repro.core.errors import ExecutionError, WorkerFailureError
from repro.obs.events import EVT_PARALLEL
from repro.obs.events import emit as emit_event

from .taskgraph import TaskGraph, TaskGraphUnavailable, build_task_graph


@dataclass
class TaskGraphStats:
    """What the task-graph scheduler actually did, for reports/tests."""

    graphs: int = 0            # DAGs executed to completion
    tasks: int = 0             # tile futures that finished
    fallbacks: int = 0         # graphs declined to the sequential nest
    retries: int = 0           # whole-graph replays after worker loss
    last_reason: str = ""      # why the latest graph was declined
    last_width: int = 0        # widest wavefront of the latest graph
    last_busy_seconds: float = 0.0   # sum of tile wall clocks
    last_wall_seconds: float = 0.0   # parent-side graph wall clock


class TaskGraphRuntime(ParallelRuntime):
    """Executes a kernel's tile DAG on the shared worker pool.

    Attached by the CPU backend instead of the plain
    :class:`ParallelRuntime` when the kernel was compiled with
    ``execution="taskgraph"`` and its source carries task-graph support
    (``_tile_body`` / ``_tile_grid`` / ``_TASKGRAPH_DIMS``).  The
    emitted ``_kernel`` preamble calls :meth:`run_taskgraph`; a
    ``False`` answer means "decline" and the preamble falls through to
    the unchanged nest.  Inherited fork-join machinery still serves any
    ``_par_body_k`` regions on that fallback path.
    """

    #: Scheduler policies: the ready-queue default, and the
    #: barrier-per-wavefront-level baseline it is benchmarked against.
    MODES = ("ready-queue", "forkjoin")

    def __init__(self, source: str, fn, num_threads: int, **kwargs):
        super().__init__(source, num_threads, **kwargs)
        self.stages = True  # tiles always run in worker processes
        self.fn = fn
        self.scheduler_mode = "ready-queue"
        self.taskgraph_stats = TaskGraphStats()
        # A whole-graph replay is a retry on both ledgers.
        self._booked = (self.stats, self.taskgraph_stats)
        self._graphs: Dict[tuple, tuple] = {}  # params key -> (graph, why)

    # -- graph construction (cached per parameter valuation) -------------

    def _grid(self, params: Dict[str, int]) -> List[Tuple[int, int]]:
        ns = load_namespace(self.digest, self.source)
        return [(int(lo), int(hi)) for lo, hi in ns["_tile_grid"](params)]

    def graph_for(self, params: Dict[str, int]
                  ) -> Tuple[Optional[TaskGraph], Optional[str]]:
        """The (cached) tile DAG for this parameter valuation, or
        ``(None, reason)`` when the schedule cannot be lowered."""
        from repro.obs.metrics import metrics
        key = tuple(sorted(params.items()))
        entry = self._graphs.get(key)
        if entry is None:
            try:
                graph = build_task_graph(self.fn, params,
                                         self._grid(params),
                                         self.num_threads)
            except TaskGraphUnavailable as exc:
                entry = (None, exc.reason)
            else:
                entry = (graph, None)
                metrics.counter("taskgraph.graphs").inc()
                emit_event("taskgraph.schedule", EVT_PARALLEL,
                           function=self.fn.name, tiles=len(graph.tasks),
                           shape=list(graph.shape),
                           tile_sizes=list(graph.tile_sizes),
                           deltas=[list(d) for d in graph.deltas],
                           edges=graph.edge_count,
                           max_width=graph.max_width, depth=graph.depth)
            self._graphs[key] = entry
        return entry

    # -- the dispatch-preamble entry point --------------------------------

    def run_taskgraph(self, params: Dict[str, int]) -> bool:
        """Execute the whole nest as a tile DAG; ``True`` means done
        (results are in the shared staging buffers), ``False`` declines
        and the emitted preamble runs the sequential nest instead."""
        why = "pool-unavailable" if self._specs is None else refusal(
            TASKGRAPH, self._booked, self.num_threads)
        if why is not None:
            return self._decline(why)
        graph, why = self.graph_for(params)
        if graph is None:
            return self._decline(why or "unavailable")
        if graph.is_empty():
            # Zero iterations: the sequential nest would be a no-op too.
            emit_event("taskgraph.complete", EVT_PARALLEL,
                       function=self.fn.name, tiles=0, mode="empty")
            return True
        if len(graph.tasks) < 2:
            return self._decline("single-tile")
        if graph.is_chain():
            return self._decline("chain-dag")
        self.taskgraph_stats.last_width = graph.max_width
        region = self.stats.regions
        self.stats.regions += 1
        return self._supervise(
            lambda pool, attempt: self._execute_graph(
                pool, graph, params, region, attempt),
            self.fn.name, region, TASKGRAPH, self._booked) \
            or self._decline("worker-failure")

    def _decline(self, reason: str) -> bool:
        self.taskgraph_stats.last_reason = reason
        book(TASKGRAPH, "decline", self._booked, function=self.fn.name,
             reason=reason)
        return False

    # -- one execution attempt -------------------------------------------

    def _execute_graph(self, pool, graph: TaskGraph,
                       params: Dict[str, int], region: int,
                       attempt: int) -> bool:
        """One attempt at the whole DAG.  Infrastructure failures leave
        as ``BrokenProcessPool`` or :class:`WorkerFailureError` (a wait
        window with zero completions under ``timeout``) for
        :func:`~repro.backends.pool.supervise` to handle;
        exceptions the tile body raised become :class:`ExecutionError`
        (deterministic, never retried)."""
        from repro.driver.resilience import current_deadline
        from repro.obs.metrics import metrics
        ambient = current_deadline()
        forkjoin = self.scheduler_mode == "forkjoin"
        indeg = [len(t.preds) for t in graph.tasks]
        ready = deque(t.index for t in graph.tasks if not t.preds)
        barrier_held: List[int] = []   # forkjoin: next level's tasks
        futures: Dict[object, object] = {}  # future -> TileTask
        finished = 0
        busy = 0.0
        pids = set(self.stats.worker_pids)
        wall_start = time.perf_counter()
        start_ns = time.perf_counter_ns()
        try:
            while finished < len(graph.tasks):
                if ambient is not None:
                    ambient.check("taskgraph-dispatch")
                while ready and len(futures) < self.num_threads:
                    task = graph.tasks[ready.popleft()]
                    fut = pool.submit(
                        exec_in_worker, self.digest, self.source,
                        "_tile_body", self._specs, params,
                        tuple(b for pair in task.bounds for b in pair),
                        False, worker_fault(region, task.index, attempt))
                    futures[fut] = task
                    emit_event("taskgraph.task.dispatch", EVT_PARALLEL,
                               task=task.index, coords=list(task.coords),
                               ready=len(ready), inflight=len(futures),
                               attempt=attempt)
                if not futures:
                    if forkjoin and barrier_held:
                        ready.extend(sorted(barrier_held))
                        barrier_held.clear()
                        continue
                    raise ExecutionError(
                        "task graph stalled with no ready tasks "
                        "(cycle?)")  # unreachable for lex-positive DAGs
                done_set, __ = wait(set(futures), timeout=self.timeout,
                                    return_when=FIRST_COMPLETED)
                if not done_set:
                    raise WorkerFailureError(
                        f"task graph: no tile finished within the "
                        f"{self.timeout:g}s timeout (hung worker?)")
                for fut in done_set:
                    task = futures.pop(fut)
                    try:
                        pid, __, t0, t1, __ = fut.result()
                    except BrokenProcessPool:
                        raise
                    except BaseException as exc:  # noqa: BLE001 app error
                        raise ExecutionError(
                            f"task graph tile {task.index} failed in a "
                            f"worker: {exc}") from exc
                    finished += 1
                    pids.add(pid)
                    seconds = (t1 - t0) / 1e9
                    busy += seconds
                    metrics.histogram("taskgraph.task_seconds").observe(
                        seconds)
                    self._tile_span(task, t0, t1, pid)
                    emit_event("taskgraph.task.done", EVT_PARALLEL,
                               task=task.index, seconds=seconds, pid=pid)
                    for succ in task.succs:
                        indeg[succ] -= 1
                        if indeg[succ] == 0:
                            if forkjoin:
                                # Barrier policy: a freshly-ready tile
                                # waits for the whole current level.
                                barrier_held.append(succ)
                            else:
                                ready.append(succ)
        finally:
            for fut in futures:
                fut.cancel()
        wall = time.perf_counter() - wall_start
        self.stats.worker_pids = tuple(sorted(pids))
        self.stats.chunks += finished
        self.taskgraph_stats.graphs += 1
        self.taskgraph_stats.tasks += finished
        self.taskgraph_stats.last_busy_seconds = busy
        self.taskgraph_stats.last_wall_seconds = wall
        metrics.counter("taskgraph.tasks").inc(finished)
        if wall > 0:
            metrics.gauge("taskgraph.last_parallelism").set(busy / wall)
        emit_event("taskgraph.complete", EVT_PARALLEL,
                   function=self.fn.name, tiles=finished,
                   mode=self.scheduler_mode, wall_seconds=wall,
                   busy_seconds=busy, attempt=attempt,
                   workers=self.num_threads)
        self._graph_span(graph, start_ns, wall, finished)
        return True

    # -- tracer hooks -----------------------------------------------------

    def _tile_span(self, task, start_ns: int, end_ns: int,
                   pid: int) -> None:
        from repro.obs.tracer import CAT_WORKER, get_tracer
        tracer = get_tracer()
        if tracer.enabled():
            tracer.add_span(f"taskgraph:tile:{task.index}", CAT_WORKER,
                            start_ns, end_ns, pid=pid,
                            coords=list(task.coords),
                            bounds=[list(b) for b in task.bounds])

    def _graph_span(self, graph: TaskGraph, start_ns: int, wall: float,
                    finished: int) -> None:
        from repro.obs.tracer import CAT_PARALLEL, get_tracer
        tracer = get_tracer()
        if tracer.enabled():
            tracer.add_span("taskgraph:graph", CAT_PARALLEL, start_ns,
                            start_ns + int(wall * 1e9), tiles=finished,
                            mode=self.scheduler_mode,
                            shape=list(graph.shape),
                            max_width=graph.max_width)


@contextmanager
def run_forkjoin(kernel):
    """Benchmark comparator: flip a task-graph kernel's scheduler to
    the barrier-per-wavefront-level policy for the duration — the same
    tiles, the same pool, but a freshly-ready tile always waits for the
    rest of its level (classic fork-join rounds)."""
    runtime = getattr(kernel, "runtime", None)
    if runtime is None or not isinstance(runtime, TaskGraphRuntime):
        raise ExecutionError(
            "run_forkjoin needs a kernel compiled with "
            'execution="taskgraph" and an attached TaskGraphRuntime')
    saved = runtime.scheduler_mode
    runtime.scheduler_mode = "forkjoin"
    try:
        yield runtime
    finally:
        runtime.scheduler_mode = saved
