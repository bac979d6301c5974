"""The two compile scenarios.

``compile_cold``    every compile is a miss: DSL + schedule rebuilt, isl
                    memo cleared, ``cache=False``.  All time is
                    isl + core + codegen; backends/runtime do nothing.
``compile_service`` the same programs through the warm tiers: memory
                    registry hits, disk-tier hits, ``compile_batch``.
                    isl/core are bypassed; fingerprint, cache,
                    diskcache, batch and the resilience wrapper carry
                    the time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Dict, List

from .programs import (COMPILE_OPTS, PAPER_SET, PROBE, by_name, programs,
                       sweep_order)
from .scenario import Scenario, verify
from .stats import best, median, summarize
from .trace import OFF, Recorder

#: Share of compile_cold's seconds spent in sweeps; the rest goes to
#: fresh-interpreter first compiles.
SWEEP_SHARE = 0.6
COLD_PROCESS_SHARE = 0.4

#: The stages of a cold compile, replayed in pipeline order.
STAGES = ("driver.ensure_params", "driver.fingerprint", "core.legality",
          "core.resolve_order", "codegen.time_space", "codegen.ast",
          "core.race_check", "codegen.emit_py", "backends.cpu.bind")


def _cold_compile(bundle):
    return bundle.function.compile("cpu", cache=False, **COMPILE_OPTS)


# == compile_cold =============================================================

def compile_cold(sc: Scenario) -> None:
    import repro.isl.cache as isl_cache
    progs = programs(sc.group)
    names = [p.name for p in progs]

    # Set-up: one unmeasured sweep loads every lazily imported module
    # (users pay that once per process: cold_process_ms has it), checks
    # each kernel against its reference, and fixes the expected sizes.
    code_bytes: Dict[str, int] = {}
    for p in progs:
        bundle = p.build()
        isl_cache.clear()
        kernel = sc.attempt(f"compile:{p.name}",
                            lambda b=bundle: _cold_compile(b))
        if kernel is None:
            continue
        verify(sc, p, bundle, kernel, "cpu")
        code_bytes[p.name] = len(kernel.source)
    sc.ready()

    if sc.traced:
        _compile_cold_traced(sc, progs, code_bytes)
        return

    samples: Dict[str, List[float]] = {n: [] for n in code_bytes}
    for sweep in sc.rounds(SWEEP_SHARE, at_least=2):
        for name in sweep_order(list(code_bytes), sc.seed, sweep):
            bundle = by_name(name).build()
            isl_cache.clear()
            start = time.perf_counter()
            kernel = sc.attempt(f"compile:{name}",
                                lambda b=bundle: _cold_compile(b))
            elapsed = time.perf_counter() - start
            if kernel is None:
                continue
            samples[name].append(elapsed * 1e3)
            sc.check(f"code_bytes:{name}",
                     len(kernel.source) == code_bytes[name],
                     "emitted source size changed between compiles")
    sc.e2e_timing("compile_cold_ms", "ms", samples)
    total = sum(code_bytes.values())
    sc.e2e("code_bytes", "bytes", total, len(code_bytes),
           programs=code_bytes)
    sc.exact["code_bytes"] = total

    cold = _cold_processes(sc, COLD_PROCESS_SHARE)
    if cold:
        totals = [c["import_ms"] + c["build_ms"] + c["compile_ms"]
                  for c in cold]
        sc.e2e("cold_process_ms", "ms", best(totals), len(totals),
               median=median(totals),
               p90_over_median=max(totals) / median(totals),
               program=PROBE[sc.group])


def _cold_processes(sc: Scenario, share: float) -> List[dict]:
    """Fresh interpreters timing ``import repro`` -> build the probe
    program -> first compile."""
    out = []
    for _ in sc.rounds(share, at_least=2):
        def spawn():
            proc = subprocess.run(
                [sys.executable, "-m", "bench.coldproc", PROBE[sc.group]],
                capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(proc.stderr[-300:])
            return json.loads(proc.stdout.strip().splitlines()[-1])
        doc = sc.attempt("cold_process", spawn)
        if doc is not None:
            out.append(doc)
    return out


# -- the traced replay --------------------------------------------------------

def staged_compile(rec: Recorder, program, op_id: str) -> dict:
    """One cold compile, stage by stage through each layer's public
    functions, in the driver pipeline's order."""
    import repro.isl.cache as isl_cache
    from repro.backends.common import infer_argument_kinds
    from repro.codegen.ast import walk
    from repro.codegen.isl_to_ast import build_ast, collect_items
    from repro.core.deps import (check_parallel_legality,
                                 check_schedule_legality)
    from repro.driver import (CompileContext, CompilePipeline, get_backend,
                              ir_fingerprint)

    with rec.op(op_id):
        with rec.span("core.build"):
            bundle = program.build()
        fn = bundle.function
        backend = get_backend("cpu")
        options = CompilePipeline(backend).normalize_options(
            dict(COMPILE_OPTS, cache=False))
        key_options = {k: v for k, v in options.items()
                       if k not in ("verbose", "cache")}
        ctx = CompileContext(fn=fn, target="cpu", options=options,
                             backend=backend)
        isl_cache.clear()
        before = isl_cache.stats()
        with rec.span("bench.staged_compile"):
            with rec.span("driver.ensure_params"):
                infer_argument_kinds(fn)
            with rec.span("driver.fingerprint"):
                ir_fingerprint(fn, "cpu", key_options)
            with rec.span("core.legality"):
                deps_checked = check_schedule_legality(fn)
            with rec.span("core.resolve_order"):
                ctx.beta = fn.resolve_order()
            with rec.span("codegen.time_space"):
                ctx.items = collect_items(fn, ctx.beta)
            with rec.span("codegen.ast"):
                ctx.ast = build_ast(ctx.items)
            with rec.span("core.race_check"):
                races_checked = check_parallel_legality(fn)
            with rec.span("codegen.emit_py"):
                ctx.source = backend.emit(ctx)
            with rec.span("backends.cpu.bind"):
                backend.bind(ctx)
        after = isl_cache.stats()
    counts = {"deps_checked": deps_checked, "races_checked": races_checked,
              "ast_nodes": sum(1 for _ in walk(ctx.ast)),
              "emit_py_bytes": len(ctx.source)}
    for tier, key in (("isl.empty", "empty"), ("isl.compose", "compose")):
        hits = after.tier(tier).hits - before.tier(tier).hits
        misses = after.tier(tier).misses - before.tier(tier).misses
        counts[f"{key}_calls"] = hits + misses
        counts[f"{key}_hits"] = hits
    return counts


def _compile_cold_traced(sc: Scenario, progs, code_bytes) -> None:
    import repro.isl.cache as isl_cache
    from repro.core.deps import compute_dependences

    rec = sc.rec
    untraced: Dict[str, List[float]] = {p.name: [] for p in progs}
    wall_on: Dict[str, List[float]] = {p.name: [] for p in progs}
    wall_off: Dict[str, List[float]] = {p.name: [] for p in progs}
    deps_ms: Dict[str, List[float]] = {p.name: [] for p in progs}
    counts: Dict[str, dict] = {}
    deps_count: Dict[str, int] = {}

    for sweep in sc.rounds(0.75, at_least=2):
        for name in sweep_order([p.name for p in progs], sc.seed, sweep):
            p = by_name(name)
            # the untraced baseline the staged spans must add up to
            bundle = p.build()
            isl_cache.clear()
            start = time.perf_counter()
            kernel = sc.attempt(f"compile:{name}",
                                lambda b=bundle: _cold_compile(b))
            if kernel is None:
                continue
            untraced[name].append((time.perf_counter() - start) * 1e3)
            # the same compile staged, recorder on then off
            for recorder, walls in ((rec, wall_on), (OFF, wall_off)):
                with OFF.timed("", walls[name]):
                    got = sc.attempt(
                        f"staged:{name}",
                        lambda r=recorder: staged_compile(
                            r, p, f"compile:{name}:{sweep}"))
                if got is None:
                    continue
                # every count of the staged compile must repeat exactly
                sc.check(f"counts_repeat:{name}",
                         counts.setdefault(name, got) == got,
                         f"{counts[name]} != {got}")
            sc.check(f"emit_bytes:{name}", name in counts
                     and counts[name]["emit_py_bytes"] == code_bytes[name],
                     "staged emit differs from Function.compile's source")
            # dependence analysis alone, memo cold
            isl_cache.clear()
            with rec.op(f"deps:{name}:{sweep}"), \
                    rec.timed("core.deps", deps_ms[name]):
                deps = compute_dependences(bundle.function)
            sc.check(f"deps_repeat:{name}",
                     deps_count.setdefault(name, len(deps)) == len(deps))

    def stage(span: str) -> Dict[str, List[float]]:
        return {p.name: rec.durations_ms(span, f"compile:{p.name}:")
                for p in progs}

    per_stage = {span: summarize(stage(span)) for span in STAGES}
    rows = {}
    for p in progs:
        if not untraced[p.name]:
            continue
        staged = {span: per_stage[span]["programs"][p.name]["min"]
                  for span in STAGES}
        total = best(untraced[p.name])
        rows[p.name] = {"untraced_ms": total, "staged_ms": staged,
                        "staged_sum_ms": sum(staged.values()),
                        "overhead_ms": total - sum(staged.values())}
    n = sum(len(v) for v in untraced.values())

    def layer_ms(metric: str, span: str) -> None:
        s = per_stage[span]
        sc.layer(metric, "ms", s["value"], s["n"], median=s["median"],
                 p90_over_median=s["p90_over_median"])

    layer_ms("driver.ensure_params_ms", "driver.ensure_params")
    layer_ms("driver.fingerprint_ms", "driver.fingerprint")
    layer_ms("core.legality_ms", "core.legality")
    layer_ms("core.resolve_order_ms", "core.resolve_order")
    layer_ms("codegen.time_space_ms", "codegen.time_space")
    layer_ms("codegen.ast_ms", "codegen.ast")
    layer_ms("core.race_check_ms", "core.race_check")
    layer_ms("codegen.emit_py_ms", "codegen.emit_py")
    layer_ms("backends.cpu.bind_ms", "backends.cpu.bind")
    sc.layer_timing("core.build_ms", "ms", stage("core.build"))
    sc.layer_timing("core.deps_ms", "ms", deps_ms)

    def total(key: str) -> int:
        return sum(c[key] for c in counts.values())

    sc.layer("core.deps_count", "count", sum(deps_count.values()),
             len(deps_count), programs=deps_count)
    sc.layer("core.deps_checked", "count", total("deps_checked"),
             len(counts))
    sc.layer("core.races_checked", "count", total("races_checked"),
             len(counts))
    sc.layer("codegen.ast_nodes", "count", total("ast_nodes"), len(counts))
    sc.layer("codegen.emit_py_bytes", "bytes", total("emit_py_bytes"),
             len(counts))
    sc.layer("isl.empty_calls", "count", total("empty_calls"), len(counts))
    sc.layer("isl.empty_hit_ratio", "ratio",
             total("empty_hits") / max(1, total("empty_calls")),
             len(counts), base="isl.empty_calls")
    sc.layer("isl.compose_calls", "count", total("compose_calls"),
             len(counts))
    sc.layer("isl.compose_hit_ratio", "ratio",
             total("compose_hits") / max(1, total("compose_calls")),
             len(counts), base="isl.compose_calls")
    sc.exact.update({f"counts.{name}": c for name, c in counts.items()})
    sc.exact["core.deps_count"] = sum(deps_count.values())

    staged_total = sum(r["staged_sum_ms"] for r in rows.values())
    analysis = sum(r["staged_ms"]["core.legality"]
                   + r["staged_ms"]["core.race_check"]
                   for r in rows.values())
    untraced_total = sum(r["untraced_ms"] for r in rows.values())
    sc.layer("core.analysis_share", "ratio", analysis / staged_total, n,
             base="sum over programs of the staged stages, ms",
             base_value=staged_total)
    sc.layer("driver.overhead_ms", "ms",
             (untraced_total - staged_total) / len(rows), n,
             note="mean over programs of the untraced compile (best of "
                  "n) minus the sum of its staged stages (each best of "
                  "n): the unaccounted line",
             programs=rows)
    sc.layer("driver.overhead_share", "ratio",
             (untraced_total - staged_total) / untraced_total, n,
             base="sum over programs of the untraced compile, ms",
             base_value=untraced_total)

    battery = _isl_battery(sc, progs)
    sc.layer("isl.battery_ms", "ms", best(battery["ms"]),
             len(battery["ms"]))
    sc.layer("isl.battery_ops", "count", battery["ops"], 1)
    sc.exact["isl.battery_ops"] = battery["ops"]

    accepted = _paper_schedules_accepted(sc)
    sc.layer("core.paper_schedules_accepted", "count", len(accepted),
             len(PAPER_SET), of=len(PAPER_SET), accepted=accepted)

    cold = _cold_processes(sc, 0.25)
    probe = PROBE[sc.group]
    if cold and untraced[probe]:
        sc.layer("driver.import_ms", "ms",
                 best([c["import_ms"] for c in cold]), len(cold))
        first = best([c["compile_ms"] for c in cold])
        sc.layer("driver.first_compile_extra_ms", "ms",
                 first - best(untraced[probe]), len(cold),
                 base=f"in-process cold compile of {probe}, ms",
                 base_value=best(untraced[probe]))

    on = [sum(v) for v in zip(*wall_on.values())]
    offs = [sum(v) for v in zip(*wall_off.values())]
    sc.layer("bench.trace_overhead_ratio", "ratio",
             best(on) / best(offs), len(on),
             base="staged sweep with the recorder off, ms")


def _isl_battery(sc: Scenario, progs) -> dict:
    """A fixed battery of emptiness / intersect / apply_range / project
    calls on the programs' domains, schedule and access maps, with the
    memo disabled: isl's own speed, apart from how often it is asked."""
    from repro.core.deps import full_schedule_map, read_maps, write_map
    from repro.isl import isl_cache_disabled

    cases = []
    for p in progs:
        fn = p.build().function
        beta, depth = fn.resolve_order(), fn.max_depth()
        for comp in fn.active_computations():
            if comp.expr is None or comp.name not in beta:
                continue
            sched = full_schedule_map(comp, beta[comp.name], depth)
            cases.append((comp.instances, sched, write_map(comp),
                          [m for _, m in read_maps(comp)]))

    def once() -> int:
        ops = 0
        for instances, sched, write, reads in cases:
            instances.is_empty()
            sched.range()                                   # project
            sched.reverse().apply_range(sched).is_empty()
            ops += 4
            if write is None:
                continue
            write.intersect(write).domain()
            write.apply_range(write.reverse()).is_empty()
            ops += 4
            for read in reads:
                # iterations touching one element: always composable,
                # whichever buffer the read goes to
                read.apply_range(read.reverse()).is_empty()
                ops += 2
        return ops

    times, ops = [], 0
    with isl_cache_disabled():
        for _ in range(2 if sc.quick else 3):
            with sc.rec.op("isl.battery"), \
                    sc.rec.timed("isl.battery", times):
                ops = once()
    return {"ms": times, "ops": ops}


def _paper_schedules_accepted(sc: Scenario) -> List[str]:
    """How many of the 8 unmodified Fig. 6 / Fig. 3a paper schedules
    compile with the race check on and match the reference: the same 8
    on either workload, because the count tracks a compiler defect
    (ROADMAP open item 1), not the workload.  A rejection is not a
    failed benchmark operation."""
    from repro.core.errors import TiramisuError
    accepted = []
    for p in PAPER_SET:
        bundle = p.build("paper")
        try:
            kernel = _cold_compile(bundle)
        except TiramisuError:
            continue
        if verify(sc, p, bundle, kernel, "paper"):
            accepted.append(p.name)
    return accepted


# == compile_service ==========================================================

def compile_service(sc: Scenario) -> None:
    from repro.driver import (CompileRequest, compile_batch,
                              configure_disk_cache, kernel_registry)
    progs = programs(sc.group)

    # Set-up: one compile per program, checked against its reference.
    # The disk tier stays off until the batch rounds are over: the
    # verifying calls fork the shared worker pool, workers keep the
    # tier configuration they were forked with, and compile_batch's
    # workers must really compile.
    configure_disk_cache(None)
    held = {}
    for p in progs:
        bundle = p.build()
        kernel = sc.attempt(
            f"compile:{p.name}",
            lambda b=bundle: b.function.compile("cpu", **COMPILE_OPTS))
        if kernel is not None and verify(sc, p, bundle, kernel, "cpu"):
            held[p.name] = (bundle, kernel)
    names = list(held)
    keys = {n: held[n][1].report.fingerprint for n in names}
    sc.ready()
    rec = sc.rec

    # -- compile_batch: 2 requests per program, half of them duplicates ------
    batch_s: List[float] = []
    serial_s: List[float] = []
    dedup: List[float] = []
    warmups = 0 if sc.quick else 1
    for rnd in sc.rounds(0.65, at_least=2 + warmups):
        order = sweep_order(names + names, sc.seed, 7919 + rnd)
        requests = [CompileRequest(by_name(n).build().function)
                    for n in order]
        kernel_registry.clear()
        before = kernel_registry.stats()
        start = time.perf_counter()
        with rec.op(f"batch:{rnd}"), rec.span("driver.batch"):
            kernels = sc.attempt(
                "compile_batch",
                lambda: compile_batch(requests, target="cpu",
                                      max_workers=2, **COMPILE_OPTS))
        elapsed = time.perf_counter() - start
        if kernels is None:
            continue
        sc.check("batch:complete", len(kernels) == len(requests)
                 and all(k is not None for k in kernels))
        after = kernel_registry.stats()
        if rnd < warmups:
            continue            # pool start-up and first imports
        batch_s.append(elapsed)
        compiled = after.misses - before.misses
        dedup.append(1.0 - compiled / len(requests))
        if sc.traced and len(serial_s) < 2:
            # the same distinct programs compiled one after another
            kernel_registry.clear()
            start = time.perf_counter()
            for n in names:
                by_name(n).build().function.compile("cpu", **COMPILE_OPTS)
            serial_s.append(time.perf_counter() - start)

    # -- memory-registry and disk-tier hits ----------------------------------
    disk = configure_disk_cache(os.path.join(sc.out_dir, "disk-tier"))
    kernel_registry.clear()
    for n in names:         # fill both tiers (a miss publishes to disk)
        sc.attempt(f"fill:{n}", lambda: held[n][0].function.compile(
            "cpu", **COMPILE_OPTS))

    def timed_compile(fn, expect: str, label: str, span: str,
                      recorder: Recorder = rec):
        ms: List[float] = []
        with recorder.timed(span, ms):
            kernel = sc.attempt(
                label, lambda: fn.compile("cpu", **COMPILE_OPTS))
        if kernel is None:
            return None
        report = kernel.report
        got = ("hit" if report.cache_hit
               else "disk" if report.disk_hit else "miss")
        if not sc.check(f"{label}:tier", got == expect,
                        f"expected a {expect}, compile was a {got}"):
            return None
        return ms[0]

    hit: Dict[str, List[float]] = {n: [] for n in names}
    warm: Dict[str, List[float]] = {n: [] for n in names}
    same: Dict[str, List[float]] = {n: [] for n in names}
    hit_off: Dict[str, List[float]] = {n: [] for n in names}
    for rnd in sc.rounds(0.35, at_least=3):
        for name in sweep_order(names, sc.seed, rnd):
            # a fresh object with the same content: found by fingerprint
            fresh = by_name(name).build().function
            with rec.op(f"service:{name}:{rnd}"):
                ms = timed_compile(fresh, "hit", f"mem_hit:{name}",
                                   "driver.mem_hit")
                if ms is not None:
                    hit[name].append(ms)
                # drop only this program's entry: the next compile must
                # come from the disk tier (and is promoted back to memory)
                kernel_registry.discard(keys[name])
                ms = timed_compile(fresh, "disk", f"disk_hit:{name}",
                                   "driver.disk_hit")
                if ms is not None:
                    warm[name].append(ms)
                if sc.traced:
                    # the entry now belongs to `fresh`: recompiling that
                    # very object skips the drift re-fingerprint
                    ms = timed_compile(fresh, "hit", f"same_object:{name}",
                                       "driver.mem_hit_same_object")
                    if ms is not None:
                        same[name].append(ms)
                    # the same hit with the recorder off
                    again = by_name(name).build().function
                    ms = timed_compile(again, "hit", f"mem_hit:{name}",
                                       "driver.mem_hit", OFF)
                    if ms is not None:
                        hit_off[name].append(ms)

    if not sc.traced:
        sc.e2e_timing("warm_hit_ms", "ms", hit)
        sc.e2e_timing("disk_warm_ms", "ms", warm)
        per_s = [2 * len(names) / s for s in batch_s]
        sc.e2e("batch_compiles_per_s", "1/s", max(per_s), len(per_s),
               median=median(per_s),
               p90_over_median=max(batch_s) / median(batch_s),
               requests=2 * len(names), distinct=len(names))
        return

    sc.layer_timing("driver.mem_hit_same_object_ms", "ms", same)
    sc.layer("driver.batch_dedup_ratio", "ratio", median(dedup),
             len(dedup), base=f"{2 * len(names)} requests per batch")
    sc.exact["driver.batch_dedup_ratio"] = median(dedup)
    sc.layer("driver.batch_vs_serial_ratio", "ratio",
             best(batch_s) / best(serial_s), len(batch_s),
             base="the distinct programs compiled serially in-process, s",
             base_value=best(serial_s))

    # the disk tier's own load / store / size, through its public API
    load: Dict[str, List[float]] = {n: [] for n in names}
    store: Dict[str, List[float]] = {n: [] for n in names}
    sources = {n: held[n][1].source for n in names}
    scratch = configure_disk_cache(os.path.join(sc.out_dir, "disk-probe"))
    for rnd in range(2 if sc.quick else 10):
        scratch.clear()
        for n in names:
            with rec.op(f"disk:{n}:{rnd}"):
                with rec.timed("driver.disk_store", store[n]):
                    scratch.put(keys[n], sources[n], "cpu")
                with rec.timed("driver.disk_load", load[n]):
                    entry = scratch.get(keys[n])
            sc.check(f"disk_roundtrip:{n}",
                     entry is not None and entry.source == sources[n])
    sc.layer_timing("driver.disk_load_ms", "ms", load)
    sc.layer_timing("driver.disk_store_ms", "ms", store)
    sc.layer("driver.disk_bytes", "bytes", disk.stats()["bytes"],
             len(names))
    sc.exact["driver.disk_bytes"] = disk.stats()["bytes"]

    on = summarize(hit)
    sc.layer("bench.trace_overhead_ratio", "ratio",
             on["value"] / summarize(hit_off)["value"], on["n"],
             base="memory-hit compile with the recorder off, ms")
