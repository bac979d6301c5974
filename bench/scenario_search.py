"""The search scenario: ``autoschedule(strategy="beam")`` over variants of
one function.

Hundreds of legality/race verdicts plus cost-model scores per search:
the isl memo hit ratio is high here and low in compile_cold, and
``repro.machine`` / ``repro.autosched`` do work nowhere else.
"""

from __future__ import annotations

import time
from typing import Dict, List

from .programs import COMPILE_OPTS, make_inputs, programs
from .scenario import InputCopies, Scenario, verify
from .stats import best, geomean, spearman
from .trace import OFF

BEAM = {"strategy": "beam", "beam_width": 4, "rounds": 3}


def _search(program, budget: int):
    """One search from a fresh, unscheduled function; isl memo cleared
    so every search starts from the same state."""
    import repro.isl.cache as isl_cache
    from repro.autosched import ModelOracle, autoschedule
    params, _ = program.search
    fn = program.build(None).function
    isl_cache.clear()
    start = time.perf_counter()
    result = autoschedule(fn, budget=budget,
                          oracle=ModelOracle(params, num_threads=1), **BEAM)
    return time.perf_counter() - start, result, fn


def _ledger(result) -> dict:
    return {"candidates": result.candidates,
            "pruned_illegal": result.pruned_illegal,
            "beam_kept": result.beam_kept,
            "est_speedup": result.speedup_estimate,
            "plan": result.plan.serialize()}


def search(sc: Scenario) -> None:
    import repro.isl.cache as isl_cache
    progs = [p for p in programs(sc.group) if p.search]
    # Set-up: a 3-candidate search loads the strategy, oracle and cost
    # model modules; the plan a full search finds is checked later.
    for p in progs:
        sc.attempt(f"warmup_search:{p.name}", lambda: _search(p, 3))
    sc.ready()
    rec = sc.rec

    seconds: Dict[str, List[float]] = {p.name: [] for p in progs}
    seconds_off: Dict[str, List[float]] = {p.name: [] for p in progs}
    ledgers: Dict[str, dict] = {}
    isl_hits = isl_calls = 0
    # One search per round, the programs in turn; every program is
    # searched at least once.  Traced, the rounds come in pairs: the
    # same search with the recorder on, then off (so each ledger is
    # seen twice and must repeat).
    pair = 2 if sc.traced else 1
    for rnd in sc.rounds(0.6 if sc.traced else 1.0,
                         at_least=len(progs) * pair):
        p = progs[(rnd // pair) % len(progs)]
        recorder = rec if rnd % pair == 0 else OFF
        before = isl_cache.stats().tier("isl.empty")
        with recorder.op(f"search:{p.name}:{rnd}"), \
                recorder.span("autosched.search"):
            got = sc.attempt(f"search:{p.name}",
                             lambda: _search(p, p.search[1]))
        if got is None:
            continue
        elapsed, result, _ = got
        after = isl_cache.stats().tier("isl.empty")
        isl_hits += after.hits - before.hits
        isl_calls += (after.hits - before.hits
                      + after.misses - before.misses)
        (seconds if recorder is rec else seconds_off)[p.name].append(elapsed)
        ledger = _ledger(result)
        first = ledgers.setdefault(p.name, ledger)
        sc.check(f"search_repeats:{p.name}", first == ledger,
                 "the same search found a different plan or ledger")
        if first is ledger:
            # the found plan compiles and matches the reference
            bundle = p.build(None)
            kernel = sc.attempt(
                f"compile_plan:{p.name}",
                lambda: bundle.function.compile(
                    "cpu", autoschedule=result.plan, **COMPILE_OPTS))
            if kernel is not None:
                verify(sc, p, bundle, kernel, "auto")
    sc.exact["autosched"] = ledgers

    if not sc.traced:
        sc.e2e_timing("search_s", "s", seconds)
        return

    found = [p for p in progs if p.name in ledgers]
    n = sum(len(v) for v in seconds.values())
    both = [p.name for p in progs if seconds[p.name] and seconds_off[p.name]]
    if both:
        sc.layer("bench.trace_overhead_ratio", "ratio",
                 geomean(best(seconds[name]) / best(seconds_off[name])
                         for name in both), n,
                 base="the same search with the recorder off, s")
    for key in ("candidates", "pruned_illegal", "beam_kept"):
        sc.layer(f"autosched.{key}", "count",
                 sum(ledgers[p.name][key] for p in found), len(found))
    sc.layer("autosched.est_speedup", "ratio",
             geomean(ledgers[p.name]["est_speedup"] for p in found),
             len(found), base="ModelOracle cost of the empty plan")
    sc.layer("autosched.candidates_per_s", "1/s",
             sum(ledgers[p.name]["candidates"] for p in found)
             / sum(best(seconds[p.name]) for p in found), n)
    sc.layer("autosched.isl_empty_hit_ratio", "ratio",
             isl_hits / max(1, isl_calls), n,
             base="isl emptiness calls during the searches",
             base_value=isl_calls)
    _plan_and_model_layers(sc, found, ledgers)


def _plan_and_model_layers(sc: Scenario, found, ledgers) -> None:
    from repro.autosched import ModelOracle, SchedulePlan
    rec = sc.rec
    reps = 3 if sc.quick else 30
    apply_ms: Dict[str, List[float]] = {}
    score_ms: Dict[str, List[float]] = {}
    for p in found:
        plan = SchedulePlan.deserialize(ledgers[p.name]["plan"])
        fn = p.build(None).function
        oracle = ModelOracle(p.search[0], num_threads=1)
        apply_ms[p.name], score_ms[p.name] = [], []
        for rep in range(reps):
            with rec.op(f"plan:{p.name}:{rep}"):
                with rec.timed("autosched.plan_apply_undo",
                               apply_ms[p.name]):
                    plan.copy().apply(fn).undo()
                with rec.timed("machine.model_score", score_ms[p.name]):
                    oracle.score(fn, plan)
    sc.layer_timing("autosched.plan_apply_undo_ms", "ms", apply_ms)
    sc.layer_timing("machine.model_score_ms", "ms", score_ms)
    _native_layers(sc, found, ledgers)


def _native_layers(sc: Scenario, found, ledgers) -> None:
    """The found plan against the hand schedule, and the cost model's
    ranking against measurement — both on the native backend, because a
    speed-up on the interpreter backend is not a hardware result."""
    from repro.backends.c import have_c_compiler
    from repro.machine import CpuCostModel
    if not have_c_compiler() or not found:
        return
    reps = 2 if sc.quick else 5

    def native_ms(kernel, bundle, params) -> float:
        inputs = InputCopies(make_inputs(bundle, params, sc.seed))
        times = []
        for _ in range(reps):
            args = inputs.fresh()
            with sc.rec.timed("backends.c.call", times):
                kernel(**args, **params)
        return best(times)

    p = found[0]
    params = dict(p.native_params)
    auto_bundle = p.build(None)
    auto = sc.attempt(f"compile_c_auto:{p.name}", lambda: auto_bundle
                      .function.compile("c", autoschedule=ledgers[p.name]
                                        ["plan"], **COMPILE_OPTS))
    hand_bundle = p.build()
    hand = sc.attempt(f"compile_c_hand:{p.name}", lambda: hand_bundle
                      .function.compile("c", **COMPILE_OPTS))
    if auto is not None and hand is not None:
        t_auto = native_ms(auto, auto_bundle, params)
        t_hand = native_ms(hand, hand_bundle, params)
        sc.layer("autosched.auto_vs_hand_native_ratio", "ratio",
                 t_auto / t_hand, reps,
                 base=f"{p.name} hand schedule on c at {params}, ms",
                 base_value=t_hand)

    modeled, measured = [], []
    for q in programs(sc.group):
        if not q.native_params:
            continue
        bundle = q.build()
        kernel = sc.attempt(f"compile_c:{q.name}", lambda: bundle.function
                            .compile("c", **COMPILE_OPTS))
        if kernel is None:
            continue
        qparams = dict(q.native_params)
        modeled.append(CpuCostModel(bundle.function, qparams,
                                    num_threads=2).estimate().seconds)
        measured.append(native_ms(kernel, bundle, qparams))
    sc.layer("machine.model_rank_corr", "ratio",
             spearman(modeled, measured), len(modeled),
             base="Spearman: CpuCostModel seconds vs measured native ms")
