"""Lower a tiled schedule to a task DAG from polyhedral dependences.

The paper's layers separate *what may run concurrently* (decided by the
dependence analysis of :mod:`repro.core.deps`) from *how it runs*; this
module is the bridge: the clamped levels of a nest (see
``Emitter.try_taskgraph``) are partitioned into rectangular tiles, and
every uniform dependence distance is projected onto the tile grid to
yield inter-tile edges.  A dependence with distance ``d`` under tile
sizes ``s`` connects a tile to the tiles offset by each integer vector
in ``[floor(d_k/s_k), ceil(d_k/s_k)]`` per dimension (minus the zero
vector — intra-tile instances keep their original lexicographic order
inside the tile body).  Every offset must be lexicographically positive:
that makes the tile DAG acyclic with the lex order a valid topological
order, and it is exactly the condition under which executing whole tiles
atomically preserves the original semantics.  Anything else —
non-uniform distances, a lex-negative offset — raises
:class:`TaskGraphUnavailable` and the caller falls back to the emitted
sequential/fork-join nest (bit-identical by construction).

The classic instance is a stencil over (t, i): distances (1,-1), (1,0),
(1,1) with tile sizes (1, s) give offsets {(1,-1), (1,0), (1,1)} — the
wavefront DAG, where row t's tiles become ready as their three upstream
neighbours of row t-1 finish, instead of waiting on a full barrier.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.deps import DependenceSummary, dependence_distance


class TaskGraphUnavailable(Exception):
    """The schedule cannot be lowered to an acyclic tile DAG; the
    caller falls back to the sequential nest.  ``reason`` is a short
    machine-readable slug journaled with ``taskgraph.fallback``."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(detail or reason)
        self.reason = reason


@dataclass
class TileTask:
    """One schedulable tile: an index in lex order, its coordinates on
    the tile grid, and the inclusive iteration bounds per clamped dim
    that ``_tile_body`` clamps the nest to."""

    index: int
    coords: Tuple[int, ...]
    bounds: Tuple[Tuple[int, int], ...]
    preds: List[int] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)


@dataclass
class TaskGraph:
    """An acyclic tile DAG in lexicographic (topological) order."""

    tasks: List[TileTask]
    shape: Tuple[int, ...]        # tiles per clamped dim
    tile_sizes: Tuple[int, ...]
    deltas: Tuple[Tuple[int, ...], ...]   # inter-tile edge offsets
    edge_count: int
    max_width: int                # widest wavefront level (antichain)
    depth: int                    # longest chain length (levels)

    def is_empty(self) -> bool:
        return not self.tasks

    def is_chain(self) -> bool:
        """True when no two tiles can ever run concurrently — the
        scheduler gains nothing over the sequential nest."""
        return self.max_width <= 1

    def wavefront_levels(self) -> List[List[int]]:
        """Task indices grouped by longest-path level — the rounds a
        fork-join (barrier-per-level) execution would run."""
        level: Dict[int, int] = {}
        out: List[List[int]] = []
        for task in self.tasks:   # lex order is topological
            lv = max((level[p] + 1 for p in task.preds), default=0)
            level[task.index] = lv
            while len(out) <= lv:
                out.append([])
            out[lv].append(task.index)
        return out


def tile_deltas(distances: Sequence[Tuple[int, ...]],
                sizes: Sequence[int]) -> List[Tuple[int, ...]]:
    """Project dependence distances onto the tile grid.

    Raises :class:`TaskGraphUnavailable` when any offset comes out
    lexicographically negative — executing tiles atomically in lex
    order would then violate the dependence (the tiling has a cycle).
    """
    deltas = set()
    for dist in distances:
        ranges = []
        for d, s in zip(dist, sizes):
            ranges.append(range(d // s, -((-d) // s) + 1))
        for combo in itertools.product(*ranges):
            if any(combo):
                deltas.add(combo)
    for delta in sorted(deltas):
        for v in delta:
            if v > 0:
                break
            if v < 0:
                raise TaskGraphUnavailable(
                    "lex-negative-delta",
                    f"tile dependence offset {delta} is not "
                    f"lexicographically positive under tile sizes "
                    f"{tuple(sizes)}")
    return sorted(deltas)


def choose_tile_sizes(extents: Sequence[int],
                      distances: Sequence[Tuple[int, ...]],
                      workers: int) -> Tuple[int, ...]:
    """Pick tile sizes for the clamped dims.

    The outermost dim is the wavefront dim when any dependence crosses
    it; its tile size is then 1 so the projected offsets stay exact
    (a coarser outer tile would fold a (1, -1) distance into a
    bidirectional intra-row edge — a cycle).  The next dim is chunked
    into about ``2 x workers`` tiles per row, enough slack for the
    ready queue to keep every worker busy across wavefront fronts
    without making tiles too small to amortize dispatch.  When nothing
    crosses the outer dim the nest is embarrassingly parallel across
    it and it is simply chunked one tile per worker.
    """
    workers = max(1, int(workers))
    carried0 = any(d[0] != 0 for d in distances)
    if len(extents) == 1:
        size0 = 1 if carried0 else max(1, -(-extents[0] // workers))
        return (size0,)
    if carried0:
        return (1, max(1, -(-extents[1] // (2 * workers))))
    return (max(1, -(-extents[0] // workers)), extents[1])


def build_task_graph(fn, params: Dict[str, int],
                     grid: Sequence[Tuple[int, int]], workers: int,
                     tile_sizes: Optional[Sequence[int]] = None,
                     ) -> TaskGraph:
    """Build the tile DAG for ``fn`` over the clamped-dim box ``grid``
    (inclusive [lo, hi] per dim, from the emitted ``_tile_grid``).

    Dependences come from the exact polyhedral analysis; every one must
    have a uniform distance at the given ``params`` (sampled and
    verified by :func:`~repro.core.deps.dependence_distance`) or
    :class:`TaskGraphUnavailable` is raised.  An empty box yields an
    empty graph (nothing to run).
    """
    dims = len(grid)
    extents = [hi - lo + 1 for lo, hi in grid]
    if any(e <= 0 for e in extents):
        return TaskGraph([], tuple(0 for _ in grid), tuple(1 for _ in grid),
                         (), 0, 0, 0)
    distances: List[Tuple[int, ...]] = []
    for dep in DependenceSummary.of(fn).dependences():
        dist = dependence_distance(dep, params)
        if dist is None:
            raise TaskGraphUnavailable(
                "non-uniform-dependence",
                f"{dep.kind} dependence {dep.source.name} -> "
                f"{dep.sink.name} on {dep.buffer.name} has no uniform "
                "distance")
        proj = tuple(dist[:dims])
        if any(proj):
            distances.append(proj)
    if tile_sizes is None:
        tile_sizes = choose_tile_sizes(extents, distances, workers)
    sizes = tuple(int(s) for s in tile_sizes)
    deltas = tile_deltas(distances, sizes)
    shape = tuple(-(-extents[k] // sizes[k]) for k in range(dims))

    tasks: List[TileTask] = []
    index_of: Dict[Tuple[int, ...], int] = {}
    for coords in itertools.product(*(range(n) for n in shape)):
        bounds = tuple(
            (grid[k][0] + coords[k] * sizes[k],
             min(grid[k][1], grid[k][0] + (coords[k] + 1) * sizes[k] - 1))
            for k in range(dims))
        index_of[coords] = len(tasks)
        tasks.append(TileTask(len(tasks), coords, bounds))
    edge_count = 0
    for task in tasks:
        for delta in deltas:
            pred_coords = tuple(task.coords[k] - delta[k]
                                for k in range(dims))
            pred = index_of.get(pred_coords)
            if pred is not None:
                task.preds.append(pred)
                tasks[pred].succs.append(task.index)
                edge_count += 1
    # Longest-path levels give the wavefront width and depth.
    level: Dict[int, int] = {}
    widths: Dict[int, int] = {}
    for task in tasks:
        lv = max((level[p] + 1 for p in task.preds), default=0)
        level[task.index] = lv
        widths[lv] = widths.get(lv, 0) + 1
    return TaskGraph(tasks, shape, sizes, tuple(deltas), edge_count,
                     max(widths.values(), default=0),
                     len(widths))
