"""Analytical CPU performance model.

Estimates execution time of a scheduled Tiramisu function on a
:class:`~repro.machine.params.CpuMachine` by walking the generated loop
AST: trip counts come from the synthesized bounds, compute cost from the
expression trees, and memory cost from a reuse-distance-style cache model
over the affine access functions.  The model is deliberately simple but
captures the effects the paper's evaluation turns on:

- vectorization (lane-parallel compute + streaming loads),
- full/partial tile separation (guards suppress vectorization),
- loop tiling (footprints dropping into L1/L2 change access latency),
- data layout (unit-stride versus strided innermost access, SOA/AOS,
  array packing),
- parallelization (core scaling with an efficiency factor),
- loop fusion (smaller intermediate footprints).

Absolute times are not meaningful (see DESIGN.md); ratios are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.codegen.ast import Block, Loop, Stmt
from repro.codegen.lanes import lane_verdict, time_index
from repro.core.deps import DependenceSummary
from repro.core.computation import Input, Operation
from repro.ir.expr import (Access, BinOp, Call, Cast, Const, Expr, IterVar,
                           ParamRef, Select, UnOp)
from repro.isl.linexpr import OUT, PARAM, LinExpr

from .params import CpuMachine, DEFAULT_CPU


@dataclass
class CostReport:
    seconds: float = 0.0
    flops: float = 0.0
    mem_bytes: float = 0.0
    dram_bytes: float = 0.0    # traffic actually reaching DRAM
    cycles: float = 0.0
    per_computation: Dict[str, float] = field(default_factory=dict)
    # per_computation scaled to seconds, normalized so the shares sum
    # to ``seconds`` even when the bandwidth floor dominates.  This is
    # the modeled side of the observability layer's model-vs-measured
    # calibration (repro.evaluation.calibration).
    per_computation_seconds: Dict[str, float] = field(default_factory=dict)

    def merge(self, other: "CostReport") -> None:
        self.seconds += other.seconds
        self.flops += other.flops
        self.mem_bytes += other.mem_bytes
        for k, v in other.per_computation.items():
            self.per_computation[k] = self.per_computation.get(k, 0.0) + v


@dataclass
class _LoopCtx:
    level: int
    trip: float
    mid: float              # representative value of the loop variable
    tag: Optional[object]
    vector_ok: bool         # vector tag present AND statement vectorizable
    lo: float = 0.0
    hi: float = 0.0


def _flops_in(expr: Expr) -> float:
    count = 0.0
    for node in expr.walk():
        if isinstance(node, BinOp) and node.op in "+-*/%":
            # +,-,* are single (often fused) ops; division is expensive.
            count += 4 if node.op in "/%" else 1
        elif isinstance(node, Call):
            count += {"min": 1, "max": 1, "abs": 1, "clamp": 4,
                      "sqrt": 8, "exp": 12, "log": 12, "pow": 15,
                      "floor": 2}.get(node.fn, 2)
        elif isinstance(node, Select):
            count += 2
        elif isinstance(node, Cast):
            count += 1
    return count


class CpuCostModel:
    def __init__(self, fn, params: Dict[str, int],
                 machine: CpuMachine = DEFAULT_CPU,
                 packed_buffers: Sequence[str] = (),
                 num_threads: Optional[int] = None):
        self.fn = fn
        self.params = dict(params)
        self.m = machine
        # Worker cap mirroring the compile option: modeled parallel
        # loops scale to min(cores, num_threads).
        self.num_threads = num_threads
        # Buffers the schedule declares as packed (array packing gives
        # them unit-stride behaviour regardless of the access pattern).
        self.packed = set(packed_buffers)
        self.ast = fn.lower()
        self._shape_cache: Dict[str, Tuple[int, ...]] = {}

    # -- public API -------------------------------------------------------

    def estimate(self) -> CostReport:
        report = CostReport()
        cycles = self._block_cycles(self.ast, [], report)
        report.cycles = cycles
        compute_s = cycles * self.m.cycle_ns * 1e-9
        # Memory-bound floor: DRAM traffic cannot stream faster than the
        # machine's bandwidth, regardless of cores/vectors.
        bw_s = report.dram_bytes / (self.m.mem_bandwidth_gbs * 1e9)
        report.seconds = max(compute_s, bw_s)
        pc_total = sum(report.per_computation.values())
        if pc_total > 0:
            scale = report.seconds / pc_total
            report.per_computation_seconds = {
                name: c * scale
                for name, c in report.per_computation.items()}
        return report

    # -- helpers ---------------------------------------------------------------

    def _buffer_shape(self, buffer) -> Tuple[int, ...]:
        if buffer.name not in self._shape_cache:
            self._shape_cache[buffer.name] = buffer.concrete_shape(
                self.params)
        return self._shape_cache[buffer.name]

    def _eval_bound(self, groups, loops: List[_LoopCtx],
                    is_lower: bool, at: str = "mid") -> float:
        values = {(OUT, lc.level): getattr(lc, at) for lc in loops}
        values.update({(PARAM, i): self.params[p]
                       for i, p in enumerate(self.fn.param_names)})
        outer = None
        for g in groups:
            inner = None
            for coeff, e in g:
                v = e.evaluate(values) / coeff
                if inner is None:
                    inner = v
                else:
                    inner = max(inner, v) if is_lower else min(inner, v)
            if outer is None:
                outer = inner
            else:
                outer = min(outer, inner) if is_lower else max(outer, inner)
        return float(outer)

    # -- recursive walk -----------------------------------------------------------

    def _block_cycles(self, block: Block, loops: List[_LoopCtx],
                      report: CostReport,
                      produced: Optional[set] = None) -> float:
        # Buffers written by earlier statements of this (fused) loop
        # body: reads of them hit cache (producer-consumer locality from
        # fusion / compute_at), and their stores have already paid the
        # DRAM write-back once.
        produced = set() if produced is None else produced
        total = 0.0
        for child in block.children:
            if isinstance(child, Loop):
                total += self._loop_cycles(child, loops, report, produced)
            elif isinstance(child, Stmt):
                total += self._stmt_cycles(child, loops, report, produced)
                comp = child.comp
                if not isinstance(comp, Operation)                         and comp.expr is not None:
                    produced.add(id(comp.get_buffer()))
            elif isinstance(child, Block):
                total += self._block_cycles(child, loops, report, produced)
        return total

    def _loop_cycles(self, loop: Loop, loops: List[_LoopCtx],
                     report: CostReport,
                     produced: Optional[set] = None) -> float:
        lo = self._eval_bound(loop.lowers, loops, True)
        hi = self._eval_bound(loop.uppers, loops, False)
        trip = max(0.0, hi - lo + 1.0)
        if trip == 0.0:
            return 0.0
        # Priced as vectorized exactly when the emitter vectorizes it.
        vector_ok = (loop.tag is not None and loop.tag.kind == "vector"
                     and lane_verdict(self.fn, loop) is None)
        ctx = _LoopCtx(level=loop.level, trip=trip, mid=(lo + hi) / 2.0,
                       tag=loop.tag, vector_ok=vector_ok, lo=lo, hi=hi)
        body = self._block_cycles(loop.body, loops + [ctx], report,
                                  set(produced) if produced else None)
        per_iter_overhead = self.m.loop_overhead_cycles
        # min/max bounds are evaluated once per loop entry (hoisted).
        bound_complexity = (len(loop.lowers) + len(loop.uppers) - 2)
        entry_overhead = bound_complexity * self.m.branch_cycles
        cycles = trip * (body + per_iter_overhead) + entry_overhead
        if loop.tag is not None:
            kind = loop.tag.kind
            if kind == "parallel":
                workers = self.m.cores if self.num_threads is None \
                    else min(self.m.cores, self.num_threads)
                usable = min(workers, trip)
                cycles /= max(1.0, usable * self.m.parallel_efficiency)
            elif kind == "unroll":
                # Unrolling reduces loop overhead and adds a little ILP.
                cycles = trip * (body / 1.15 + per_iter_overhead
                                 / max(1, loop.tag.factor or 4))
            elif vector_ok:
                # One vector instruction covers `width` scalar lanes,
                # including the loop bookkeeping.
                width = min(loop.tag.factor or self.m.vector_width_f32,
                            self.m.vector_width_f32)
                cycles /= width
        return cycles

    # -- statement cost ---------------------------------------------------------------

    def _stmt_cycles(self, stmt: Stmt, loops: List[_LoopCtx],
                     report: CostReport,
                     produced: Optional[set] = None) -> float:
        comp = stmt.comp
        if isinstance(comp, Operation):
            return self._op_cycles(comp, loops, report)
        if comp.expr is None:
            return 0.0
        innermost = loops[-1] if loops else None
        vectorized = innermost is not None and innermost.vector_ok
        flops = _flops_in(comp.expr)
        compute_cycles = flops / self.m.flops_per_cycle_scalar
        guard_cycles = len(stmt.guards) * self.m.branch_cycles
        mem_cycles, bytes_touched, dram_touched = self._memory_cycles(
            comp, loops, vectorized, produced or set())
        total = compute_cycles + guard_cycles + mem_cycles
        iters = 1.0
        for lc in loops:
            iters *= lc.trip
        report.flops += flops * iters
        report.mem_bytes += bytes_touched * iters
        report.dram_bytes += dram_touched * iters
        report.per_computation[comp.name] = (
            report.per_computation.get(comp.name, 0.0) + total * iters)
        return total

    def _op_cycles(self, op: Operation, loops: List[_LoopCtx],
                   report: CostReport) -> float:
        if op.op_kind in ("copy", "cache_copy"):
            buf = op.payload.get("dst")
            if buf is None:
                return 0.0
            if op.op_kind == "cache_copy":
                elems = 1.0
                for e in op.payload["extents"]:
                    elems *= e
            else:
                elems = 1.0
                for s in self._buffer_shape(buf):
                    elems *= s
            bytes_ = elems * buf.dtype.bits / 8
            bw_cycles = bytes_ / (self.m.mem_bandwidth_gbs
                                  * self.m.cycle_ns)
            return bw_cycles
        return 1.0

    def _memory_cycles(self, comp, loops: List[_LoopCtx],
                       vectorized: bool,
                       produced: set = frozenset()
                       ) -> Tuple[float, float, float]:
        """Cost of one statement instance's memory traffic."""
        accesses = self._collect_accesses(comp)
        dep_sets = [
            {idx for (kind, idx) in flat_le.dims() if kind == OUT}
            for (__, flat_le, ___) in accesses]
        total_cycles = 0.0
        total_bytes = 0.0
        dram_bytes = 0.0
        # Stencil taps: accesses to one buffer differing only by constant
        # offsets share cache lines; one representative pays the real
        # cost, the rest hit L1.
        group_seen = set()
        for (buffer, flat_le, elem_bytes), deps in zip(accesses, dep_sets):
            stride = self._innermost_stride(flat_le, loops)
            packed = buffer.name in self.packed
            if not deps:
                total_cycles += 0.25   # loop-invariant, register-resident
                continue
            if id(buffer) in produced:
                # Produced earlier in this fused loop body: cache-hot.
                total_cycles += 1.0 / max(1.0, 64.0 / elem_bytes)
                total_bytes += elem_bytes
                continue
            group_key = (id(buffer), tuple(sorted(flat_le.coeffs.items())))
            if group_key in group_seen:
                total_cycles += 1.0 / max(1.0, 64.0 / elem_bytes)
                total_bytes += elem_bytes
                continue
            group_seen.add(group_key)
            level = self._reuse_level(deps, loops, accesses, dep_sets)
            if packed or abs(stride) <= 4:
                # Small strides (e.g. interleaved RGB) still touch every
                # cache line once; treat as line-friendly.
                # Sequential: pipelined/prefetched, priced per line at
                # the hit level's throughput.
                line_cycles = {
                    "l1": 1.0,
                    "l2": 4.0,
                    "l3": 12.0,
                    # streaming DRAM: bandwidth-limited, prefetch hides
                    # latency.
                    "mem": 64.0 / (self.m.mem_bandwidth_gbs
                                   * self.m.cycle_ns),
                }[level]
                cost = line_cycles / max(1.0, 64.0 / elem_bytes)
            else:
                # Strided/random: latency per element, no line reuse;
                # out-of-order cores overlap ~6 misses (MLP).
                mlp = 6.0
                cost = {
                    "l1": self.m.l1_latency_cycles,
                    "l2": self.m.l2_latency_cycles / 2.0,
                    "l3": self.m.mem_latency_cycles * 0.35 / mlp,
                    "mem": self.m.mem_latency_cycles / mlp,
                }[level]
            total_cycles += cost
            total_bytes += elem_bytes
            if level == "mem":
                dram_bytes += elem_bytes
        return total_cycles, total_bytes, dram_bytes

    def _reuse_level(self, deps, loops: List[_LoopCtx],
                     accesses, dep_sets) -> str:
        """Cache level an access hits, given the loops it varies with.

        Walk candidate reuse loops (loops this access does NOT vary with)
        from the innermost outwards; at each, the access is a cache hit
        if the data every statement touches *inside* that loop — the sum
        over accesses of the product of the trip counts of the inner
        loops each access depends on — fits in some cache level.
        """
        best = "mem"
        rank = {"l1": 0, "l2": 1, "l3": 2, "mem": 3}
        trip_of = {lc.level: lc.trip for lc in loops}
        levels = sorted(trip_of)
        for pos in range(len(levels) - 1, -1, -1):
            level = levels[pos]
            inner = set(levels[pos + 1:])
            if level in deps:
                continue
            footprint = 0.0
            seen_addrs = set()
            for (other_buf, other_flat, other_bytes), other_deps in zip(
                    accesses, dep_sets):
                # Constant-offset taps of one buffer share their
                # footprint (same lines up to the halo).
                key = (id(other_buf),
                       tuple(sorted(other_flat.coeffs.items())))
                if key in seen_addrs:
                    continue
                seen_addrs.add(key)
                distinct = 1.0
                for d in other_deps & inner:
                    distinct *= max(1.0, trip_of[d])
                footprint += other_bytes * distinct
            if footprint <= self.m.l1_bytes:
                hit = "l1"
            elif footprint <= self.m.l2_bytes:
                hit = "l2"
            elif footprint <= self.m.l3_bytes:
                hit = "l3"
            else:
                hit = "mem"
            if rank[hit] < rank[best]:
                best = hit
        return best

    def _innermost_stride(self, flat_le: LinExpr,
                          loops: List[_LoopCtx]) -> float:
        if not loops:
            return 0.0
        inner = loops[-1].level
        return float(flat_le.coeff((OUT, inner)))

    def _collect_accesses(self, comp):
        """(buffer, flattened address LinExpr over time dims, elem bytes)
        for every read and the store of the statement."""
        out = []
        form = DependenceSummary.of(self.fn).form(comp)
        for element in form.reads + (form.store,):
            cache = comp.cache_of(element.buffer, element is form.store)
            buffer, origins = cache or (element.buffer, None)
            shape = self._buffer_shape(buffer)
            # Index LinExprs over time dims; non-affine: random access.
            les = [le if le is not None else LinExpr()
                   for le in time_index(comp, element.indices)]
            flat = LinExpr()
            mult = 1
            for k in range(len(les) - 1, -1, -1):
                le = les[k]
                if origins is not None and k < len(origins):
                    le = le - origins[k]
                flat = flat + le * mult
                mult *= shape[k] if k < len(shape) else 1
            out.append((buffer, flat, buffer.dtype.bits / 8.0))
        return out
