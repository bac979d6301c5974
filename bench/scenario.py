"""One scenario in its own process: ``python3 -m bench.scenario ...``.

``bench.run`` spawns this once per scenario so every scenario starts
with clean caches, pools and RSS, and so its set-up time is its own.
The process builds its inputs from ``--seed``, runs the scenario
untraced (user-facing API only) or traced (stage by stage through each
layer's public functions under the benchmark's span recorder), and
writes one JSON document to ``--out``.

The five scenario processes of a run take turns: each sets up alone,
then works one round at a time and hands the turn on (one line on
stdout per hand-over, ``go`` on stdin to resume; ``bench.run.run_once``
says why).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from .stats import median, summarize
from .trace import Recorder

SCENARIOS = ("compile_cold", "compile_service", "run_cpu", "run_native",
             "search")


class Scenario:
    """What one scenario process carries: its arguments, the span
    recorder, and the ledger of operations attempted and failed."""

    def __init__(self, name: str, group: str, seed: int, seconds: float,
                 traced: bool, quick: bool, spawned_at: float,
                 out_dir: str, turns):
        self.name = name
        self.group = group
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.quick = quick
        self.spawned_at = spawned_at
        self.out_dir = out_dir
        self.turns = turns      # the hand-over stream to bench.run
        self.rec = Recorder(enabled=traced)   # a stopwatch when untraced
        self.attempted = 0
        self.failures: List[str] = []
        self.setup_s: Optional[float] = None
        self.measured_s = 0.0       # time spent inside rounds
        self.end_to_end: Dict[str, dict] = {}
        self.per_layer: Dict[str, dict] = {}
        self.exact: Dict[str, object] = {}
        self.skipped: Optional[str] = None

    # -- the ledger ---------------------------------------------------------

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        """Count one operation; a false ``ok`` is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}" if detail else label)
        return ok

    def attempt(self, label: str, thunk: Callable[[], object]):
        """Run one operation that may raise; the scenario keeps going
        and the failure is counted with its traceback's last line."""
        self.attempted += 1
        try:
            return thunk()
        except Exception as err:  # noqa: BLE001 - scenario boundary
            self.failures.append(
                f"{label}: {type(err).__name__}: {str(err)[:200]}")
            traceback.print_exc(file=sys.stderr)
            return None

    # -- pacing -------------------------------------------------------------

    def ready(self) -> None:
        """Set-up is over: everything from the parent's spawn to here
        (interpreter start, imports, building programs and inputs,
        warm-up compiles) is ``setup_s``."""
        if self.setup_s is None:
            self.setup_s = time.time() - self.spawned_at
            self.hand_over("ready")

    def hand_over(self, event: str) -> None:
        """Give the turn to the next scenario process and wait for it
        to come back."""
        self.turns.write(event + "\n")
        self.turns.flush()
        if event != "finished" and not sys.stdin.readline():
            raise SystemExit("bench.scenario: bench.run went away")

    def rounds(self, share: float, at_least: int,
               keep_turn: bool = False) -> Iterator[int]:
        """Round indices until this scenario has worked ``share`` of
        its seconds, never fewer than ``at_least`` (``--quick``: one
        round, no clock).  The turn is handed on after every round,
        unless the loop keeps it (``keep_turn``)."""
        budget = 0.0 if self.quick else self.seconds * share
        at_least = 1 if self.quick else at_least
        used, index = 0.0, 0
        while index < at_least or used < budget:
            start = time.perf_counter()
            yield index
            used += time.perf_counter() - start
            self.measured_s += time.perf_counter() - start
            index += 1
            if not keep_turn:
                self.hand_over("round")

    # -- results ------------------------------------------------------------

    def e2e(self, name: str, unit: str, value: float, n: int,
            **extra) -> None:
        self.end_to_end[name] = dict(value=value, unit=unit, n=n, **extra)

    def layer(self, name: str, unit: str, value: float, n: int = 1,
              **extra) -> None:
        self.per_layer[name] = dict(value=value, unit=unit, n=n, **extra)

    def e2e_timing(self, name: str, unit: str,
                   samples: Dict[str, List[float]]) -> None:
        """An end-to-end timing from per-program samples (see
        :func:`bench.stats.summarize`)."""
        s = summarize(samples)
        self.e2e(name, unit, s["value"], s["n"], median=s["median"],
                 p90_over_median=s["p90_over_median"],
                 programs=s["programs"])

    def layer_timing(self, name: str, unit: str,
                     samples: Dict[str, List[float]], **extra) -> None:
        s = summarize(samples)
        self.layer(name, unit, s["value"], s["n"], median=s["median"],
                   p90_over_median=s["p90_over_median"], **extra)

    def document(self) -> dict:
        usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        usage_kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "scenario": self.name, "group": self.group, "seed": self.seed,
            "traced": self.traced, "seconds": self.seconds,
            "skipped": self.skipped,
            "setup_s": self.setup_s, "measured_s": self.measured_s,
            "peak_rss_mb": max(usage_self, usage_kids) / 1024.0,
            "attempted": self.attempted, "failed": len(self.failures),
            "failures": self.failures,
            "end_to_end": self.end_to_end, "per_layer": self.per_layer,
            "exact": self.exact,
        }


# -- helpers shared by the scenarios -----------------------------------------

def copy_inputs(inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    return {name: np.copy(arr) for name, arr in inputs.items()}


class InputCopies:
    """Fresh copies of one program's inputs for every timed call,
    written into buffers allocated once: the copy stays outside the
    timed region and does not fault in new pages call after call."""

    def __init__(self, inputs: Dict[str, np.ndarray]):
        self.inputs = inputs
        self._buffers = {k: np.empty_like(v) for k, v in inputs.items()}

    def fresh(self) -> Dict[str, np.ndarray]:
        for name, arr in self.inputs.items():
            np.copyto(self._buffers[name], arr)
        return dict(self._buffers)


def verify(sc: Scenario, program, bundle, kernel, label: str,
           atol: float = 1e-4) -> bool:
    """Check ``kernel`` once against the bundle's independent NumPy
    reference at the program's verify size (outside any timed region)."""
    from .programs import make_inputs
    params = dict(program.verify_params)
    inputs = make_inputs(bundle, params, sc.seed)
    # Reference first, on pristine copies: INOUT kernels mutate inputs.
    expected = bundle.reference(copy_inputs(inputs), params)

    def run():
        got = kernel(**copy_inputs(inputs), **params)
        bad = [name for name, ref in expected.items()
               if name not in got
               or not np.allclose(got[name], ref, atol=atol, rtol=1e-4)]
        if bad:
            raise AssertionError(f"outputs {bad} differ from the reference")
        return True
    return bool(sc.attempt(f"verify:{label}:{program.name}", run))


def same_outputs(first: Dict[str, np.ndarray],
                 again: Dict[str, np.ndarray]) -> bool:
    """Repeat calls must be bit-identical to the first."""
    return (first.keys() == again.keys()
            and all(np.array_equal(first[k], again[k]) for k in first))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bench.scenario")
    ap.add_argument("--name", required=True, choices=SCENARIOS)
    ap.add_argument("--group", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    # stdout carries the hand-overs; anything printed goes to stderr
    turns, sys.stdout = sys.stdout, sys.stderr
    sc = Scenario(args.name, args.group, args.seed, args.seconds,
                  bool(args.trace), args.quick, args.spawned_at,
                  os.path.dirname(args.out), turns)
    if args.name in ("compile_cold", "compile_service"):
        from . import scenario_compile as module
    elif args.name in ("run_cpu", "run_native"):
        from . import scenario_run as module
    else:
        from . import scenario_search as module
    getattr(module, args.name)(sc)
    sc.ready()   # a skipped scenario still reports its set-up
    doc = sc.document()
    if sc.traced:
        if args.trace_out:
            sc.rec.dump(args.trace_out)
            doc["trace_file"] = os.path.basename(args.trace_out)
        doc["self_time_ms"] = {
            name: {"median": median(vals), "n": len(vals),
                   "total": sum(vals)}
            for name, vals in sorted(sc.rec.self_times_ms().items())}
    with open(args.out, "w") as handle:
        json.dump(doc, handle)
    sc.hand_over("finished")
    return 0


if __name__ == "__main__":
    sys.exit(main())
