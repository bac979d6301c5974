"""Hybrid static/dynamic execution: the task-graph runtime.

The polyhedral layers prove which tiles of a schedule may run
concurrently; :mod:`repro.runtime.taskgraph` lowers a tiled nest to a
task DAG from those dependences, and :mod:`repro.runtime.scheduler`
executes ready tiles on threads with a ready-queue scheduler instead
of fork-join barriers (docs/task_runtime.md).
"""

from .taskgraph import (TaskGraph, TaskGraphUnavailable, TileTask,
                        build_task_graph, choose_tile_sizes, tile_deltas)
from .scheduler import TaskGraphRuntime, run_forkjoin

__all__ = [
    "TaskGraph", "TaskGraphUnavailable", "TileTask", "build_task_graph",
    "choose_tile_sizes", "tile_deltas",
    "TaskGraphRuntime", "run_forkjoin",
]
