"""Ready-queue execution of tile DAGs on threads over the caller's
arrays.

:class:`TaskGraphRuntime` extends the fork-join
:class:`~repro.backends.parallel.ParallelRuntime` (the same thread
pool, the same binding of the caller's arrays, the same floor) with a
dependence-aware scheduler: instead of running one loop's chunks and
waiting on all of them, it starts every *ready* tile of the task DAG
and hands a tile's successors out the moment their last predecessor
finishes.  Wavefront programs — where a barrier-per-row execution
leaves workers idle at the ragged edge of every row — overlap rows: a
tile of row ``t+1`` starts while the rest of row ``t`` is still in
flight.

Semantics (docs/task_runtime.md): tiles write the caller's arrays in
place, so a graph is never replayed; the calling thread runs tiles
itself beside the pool's ``num_threads - 1`` threads, and every started
tile is joined before an error is raised.  A graph the runtime does not
take is *declined*: ``run_taskgraph`` returns ``False`` to the emitted
dispatch preamble, which falls through to the unchanged sequential
nest — below :data:`~repro.backends.parallel.THREAD_FLOOR_BYTES` no
arrays are bound and every graph declines.  Every dispatch round also
charges the ambient request :class:`~repro.driver.resilience.Deadline`,
so an expired budget fails between tiles.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.backends import parallel
from repro.backends.parallel import (ParallelRuntime, _largest, run_chunk,
                                     run_here)
from repro.backends.pool import get_thread_pool
from repro.core.errors import ExecutionError
from repro.obs.events import EVT_PARALLEL
from repro.obs.events import emit as emit_event

from .taskgraph import TaskGraph, TaskGraphUnavailable, build_task_graph


@dataclass
class TaskGraphStats:
    """What the task-graph scheduler actually did, for reports/tests."""

    graphs: int = 0            # DAGs executed to completion
    tasks: int = 0             # tiles that finished
    fallbacks: int = 0         # graphs declined to the sequential nest
    last_reason: str = ""      # why the latest graph was declined
    last_width: int = 0        # widest wavefront of the latest graph
    last_busy_seconds: float = 0.0   # sum of tile wall clocks
    last_wall_seconds: float = 0.0   # graph wall clock


class TaskGraphRuntime(ParallelRuntime):
    """Executes a kernel's tile DAG on threads over the caller's arrays.

    Attached by the CPU backend instead of the plain
    :class:`ParallelRuntime` when the kernel was compiled with
    ``execution="taskgraph"`` and its source carries task-graph support
    (``_tile_body`` / ``_tile_grid`` / ``_TASKGRAPH_DIMS``, read from
    the kernel's own ``namespace``).  The emitted ``_kernel`` preamble
    calls :meth:`run_taskgraph`; a ``False`` answer means "decline" and
    the preamble falls through to the unchanged nest.  Inherited
    fork-join machinery still serves any ``_par_body_k`` regions on
    that fallback path.
    """

    #: Scheduler policies: the ready-queue default, and the
    #: barrier-per-wavefront-level baseline it is benchmarked against.
    MODES = ("ready-queue", "forkjoin")

    def __init__(self, source: str, fn, num_threads: int, namespace: dict):
        super().__init__(source, num_threads)
        self.fn = fn
        self._tile_body = namespace["_tile_body"]
        self._tile_grid = namespace["_tile_grid"]
        self.scheduler_mode = "ready-queue"
        self.taskgraph_stats = TaskGraphStats()
        self._graphs: Dict[tuple, tuple] = {}  # params key -> (graph, why)

    def takes(self, arrays) -> bool:
        """A call at or above the floor binds its arrays for the graph;
        below it, the regions decline as for any runtime."""
        return _largest(arrays) >= parallel.THREAD_FLOOR_BYTES \
            or super().takes(arrays)

    # -- graph construction (cached per parameter valuation) -------------

    def graph_for(self, params: Dict[str, int]
                  ) -> Tuple[Optional[TaskGraph], Optional[str]]:
        """The (cached) tile DAG for this parameter valuation, or
        ``(None, reason)`` when the schedule cannot be lowered."""
        from repro.obs.metrics import metrics
        key = tuple(sorted(params.items()))
        entry = self._graphs.get(key)
        if entry is None:
            grid = [(int(lo), int(hi)) for lo, hi in self._tile_grid(params)]
            try:
                graph = build_task_graph(self.fn, params, grid,
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
        (results are in the caller's arrays), ``False`` declines and
        the emitted preamble runs the sequential nest instead."""
        if self._arrays is None:
            return self._decline("below-floor")
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
        self.stats.regions += 1
        self._execute_graph(graph, params)
        return True

    def _decline(self, reason: str) -> bool:
        from repro.obs.metrics import metrics
        self.taskgraph_stats.fallbacks += 1
        self.taskgraph_stats.last_reason = reason
        metrics.counter("taskgraph.fallbacks").inc()
        emit_event("taskgraph.fallback", EVT_PARALLEL,
                   function=self.fn.name, reason=reason)
        return False

    # -- one execution ----------------------------------------------------

    def _execute_graph(self, graph: TaskGraph,
                       params: Dict[str, int]) -> None:
        """Run every tile once, in dependence order: up to
        ``num_threads - 1`` on the pool and, whenever a tile is ready
        for it, one on the calling thread.  Exceptions the tile body
        raised become :class:`ExecutionError` once every started tile
        has finished."""
        from repro.driver.resilience import current_deadline
        from repro.obs.metrics import metrics
        ambient = current_deadline()
        forkjoin = self.scheduler_mode == "forkjoin"
        pool = get_thread_pool(self.num_threads)
        indeg = [len(t.preds) for t in graph.tasks]
        ready = deque(t.index for t in graph.tasks if not t.preds)
        barrier_held: List[int] = []   # forkjoin: next level's tasks
        running: Dict[object, object] = {}  # future -> TileTask
        finished = 0
        busy = 0.0
        wall_start = time.perf_counter()
        start_ns = time.perf_counter_ns()

        def start(index: int, here: bool = False):
            task = graph.tasks[index]
            emit_event("taskgraph.task.dispatch", EVT_PARALLEL,
                       task=task.index, coords=list(task.coords),
                       ready=len(ready), inflight=len(running) + 1)
            args = (self._tile_body, self._arrays, params,
                    tuple(b for pair in task.bounds for b in pair))
            if here:
                return run_here(*args), task
            return pool.submit(run_chunk, *args), task

        try:
            while finished < len(graph.tasks):
                if ambient is not None:
                    ambient.check("taskgraph-dispatch")
                while ready and len(running) < self.num_threads - 1:
                    fut, task = start(ready.popleft())
                    running[fut] = task
                if ready:   # the calling thread runs one tile itself
                    fut, task = start(ready.popleft(), here=True)
                    done = [(fut, task)]
                elif running:
                    done = []
                elif forkjoin and barrier_held:
                    ready.extend(sorted(barrier_held))
                    barrier_held.clear()
                    continue
                else:
                    raise ExecutionError(
                        "task graph stalled with no ready tasks "
                        "(cycle?)")  # unreachable for lex-positive DAGs
                if running:
                    finished_now, __ = wait(
                        set(running), timeout=0 if done else None,
                        return_when=FIRST_COMPLETED)
                    done += [(f, running.pop(f)) for f in finished_now]
                for fut, task in done:
                    try:
                        thread, t0, t1, __ = fut.result()
                    except Exception as exc:  # noqa: BLE001 - app error
                        raise ExecutionError(
                            f"task graph tile {task.index} failed in a "
                            f"worker: {exc}") from exc
                    finished += 1
                    seconds = (t1 - t0) / 1e9
                    busy += seconds
                    metrics.histogram("taskgraph.task_seconds").observe(
                        seconds)
                    self._tile_span(task, t0, t1, thread)
                    emit_event("taskgraph.task.done", EVT_PARALLEL,
                               task=task.index, seconds=seconds,
                               thread=thread)
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
            wait(running)   # no tile still writes once this returns
        wall = time.perf_counter() - wall_start
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
                   busy_seconds=busy, workers=self.num_threads)
        self._graph_span(graph, start_ns, wall, finished)

    # -- tracer hooks -----------------------------------------------------

    def _tile_span(self, task, start_ns: int, end_ns: int,
                   thread: int) -> None:
        from repro.obs.tracer import CAT_WORKER, get_tracer
        tracer = get_tracer()
        if tracer.enabled():
            tracer.add_span(f"taskgraph:tile:{task.index}", CAT_WORKER,
                            start_ns, end_ns, tid=f"thread-{thread}",
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
    tiles, the same threads, but a freshly-ready tile always waits for
    the rest of its level (classic fork-join rounds)."""
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
