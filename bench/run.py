"""The benchmark's one command: ``python3 -m bench.run``.

    python3 -m bench.run                      every workload, untraced
    python3 -m bench.run --trace 1            ... the traced pass instead
    python3 -m bench.run --workload image --seed 3 --seconds 40 --trace 0
    python3 -m bench.run --quick              smoke: 1-2 rounds, no clock
    python3 -m bench.run --runs 10 --out A.json    a set for bench.compare
    python3 -m bench.run --aa                 two sets of the same code

A *workload* is one of the two program sets of ``bench/programs.py``.
One run takes a workload through the five scenarios (compile_cold,
compile_service, run_cpu, run_native, search), **each in its own
subprocess** with a scrubbed environment and a private TMPDIR, prints
every metric by name with unit, n and dispersion, writes
``bench/out/result.json`` and ends with the one-line JSON result the
driver reads.  See bench/README.md for the glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Optional

from .scenario import SCENARIOS
from .stats import geomean

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: How a run's --seconds are split over the scenarios.
SHARES = {"compile_cold": 0.22, "compile_service": 0.17, "run_cpu": 0.18,
          "run_native": 0.19, "search": 0.24}
#: A run must end within the driver's 180 s; scenarios past this are killed.
RUN_DEADLINE_S = 170.0
#: Per-layer metrics a workload cannot produce, by name prefix: the
#: task-graph runtime needs a tiled nest with a carried dependence, and
#: `heat` (tensor) is the only such program.  These read 0 with n = 0;
#: any other missing metric means a scenario was skipped or failed, and
#: the run then has no result line.
NOT_EXERCISED = {"image": ("runtime.taskgraph_",), "tensor": ()}
#: ISSUE 12's acceptance limits, reported (ok / OVER) with every traced run.
TRACE_OVERHEAD_LIMIT = 1.10
UNACCOUNTED_LIMIT = 0.05


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def child_env(tmpdir: str) -> Dict[str, str]:
    """The environment every scenario runs in: no TIRAMISU_* knob leaks
    in, /tmp/tiramisu_c and the disk tier live under a per-run TMPDIR,
    OpenMP and the worker pools get 2 threads, and the hash seed is
    pinned (isl iterates over sets, so the work a compile does varies by
    up to 30% with the interpreter's hash seed)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TIRAMISU_")}
    env.update(TMPDIR=tmpdir, OMP_NUM_THREADS="2", PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    return env


def host_facts() -> dict:
    import numpy
    try:
        gcc = subprocess.run(["gcc", "--version"], capture_output=True,
                             text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        gcc = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "gcc": gcc,
            "platform": platform.platform(),
            "loadavg": list(os.getloadavg())}


# -- one scenario, one process -------------------------------------------------

def spawn_scenario(name: str, group: str, seed: int, seconds: float,
                   trace: int, quick: bool, tmpdir: str) -> subprocess.Popen:
    """Start one scenario process.  It gets its own process group, so
    the pool workers it leaves behind are stopped with it; stdout and
    stdin carry the hand-overs (see run_once)."""
    cmd = [sys.executable, "-m", "bench.scenario",
           "--name", name, "--group", group, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--out", os.path.join(tmpdir, f"{name}.json"),
           "--trace-out", str(OUT_DIR / f"trace-{group}-{name}.json"),
           "--spawned-at", repr(time.time())]
    if quick:
        cmd.append("--quick")
    return subprocess.Popen(cmd, cwd=ROOT, env=child_env(tmpdir),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)


def hand_turn(proc: subprocess.Popen, go: bool = True) -> str:
    """Give ``proc`` the turn and wait for it to hand it back: "ready",
    "round" or "finished"; "gone" if it died or was killed instead."""
    try:
        if go:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        return proc.stdout.readline().strip() or "gone"
    except OSError:
        return "gone"


def stop(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def collect(name: str, proc: subprocess.Popen, tmpdir: str) -> dict:
    """Stop the scenario process and whatever it left running, and
    return its document."""
    for stream in (proc.stdin, proc.stdout):
        try:
            stream.close()
        except OSError:         # a "go" left unsent to a dead process
            pass
    try:
        code = proc.wait(timeout=30)
        problem = None if code == 0 else f"exit code {code}"
    except subprocess.TimeoutExpired:
        problem = "killed: it did not exit after its last round"
    stop(proc)
    proc.wait()
    if problem is None:
        with open(os.path.join(tmpdir, f"{name}.json")) as handle:
            return json.load(handle)
    return {"scenario": name, "attempted": 1, "failed": 1,
            "failures": [f"scenario {name}: {problem}"],
            "setup_s": None, "peak_rss_mb": 0.0, "end_to_end": {},
            "per_layer": {}, "exact": {}, "skipped": None}


# -- one run: a workload through the five scenarios ---------------------------

def run_once(spec: dict, group: str, seed: int, seconds: float, trace: int,
             quick: bool) -> dict:
    """Start the five scenario processes one at a time (each sets up
    alone, so its set-up time is its own), then let them take turns,
    one round each, until all have finished.  Every metric's samples
    thereby span the whole run instead of one 8-second block of it, so
    a slow spell of the host (they last 10-30 s here) costs each metric
    a few samples, which best-of-n discards, instead of costing one
    metric all of them (bench/README.md has the A/A numbers)."""
    OUT_DIR.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    started = time.perf_counter()
    procs: Dict[str, subprocess.Popen] = {}
    # past the deadline every scenario is killed and reads as "gone"
    watchdog = threading.Timer(
        RUN_DEADLINE_S, lambda: [stop(p) for p in list(procs.values())])
    watchdog.start()
    try:
        for name in SCENARIOS:
            procs[name] = spawn_scenario(name, group, seed,
                                         seconds * SHARES[name], trace,
                                         quick, tmpdir)
            hand_turn(procs[name], go=False)    # "ready": set-up is over
        active = list(procs.values())
        while active:
            for proc in list(active):
                if hand_turn(proc) != "round":  # "finished" or "gone"
                    active.remove(proc)
    finally:
        watchdog.cancel()
        docs = [collect(name, proc, tmpdir) for name, proc in procs.items()]
        shutil.rmtree(tmpdir, ignore_errors=True)
    run = {"workload": group, "seed": seed, "seconds": seconds,
           "trace": trace, "quick": quick,
           "wall_s": time.perf_counter() - started,
           "scenarios": {d["scenario"]: d for d in docs}}

    attempted = sum(d["attempted"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    run["attempted"], run["failed"] = attempted, failed
    run["failed_share"] = failed / max(1, attempted)
    run["failures"] = [f for d in docs for f in d["failures"]]
    run["skipped"] = {d["scenario"]: d["skipped"] for d in docs
                      if d.get("skipped")}

    metrics: Dict[str, dict] = {}
    if trace:
        overheads = {}
        for d in docs:
            for name, m in d["per_layer"].items():
                if name == "bench.trace_overhead_ratio":
                    overheads[d["scenario"]] = m["value"]
                else:
                    metrics[name] = dict(m, scenario=d["scenario"])
        if overheads:
            metrics["bench.trace_overhead_ratio"] = {
                "value": geomean(overheads.values()), "unit": "ratio",
                "n": len(overheads), "scenarios": overheads,
                "base": "the same replay with the recorder off"}
        for m in spec["per_layer"]:
            if m["name"].startswith(NOT_EXERCISED[group]):
                metrics.setdefault(m["name"], {
                    "value": 0, "unit": m["unit"], "n": 0,
                    "note": "no program of this workload reaches this layer"})
        run["limits"] = [
            {"name": f"bench.trace_overhead_ratio[{scenario}]",
             "value": ratio, "limit": TRACE_OVERHEAD_LIMIT,
             "ok": ratio <= TRACE_OVERHEAD_LIMIT}
            for scenario, ratio in overheads.items()]
        if "driver.overhead_share" in metrics:
            share = metrics["driver.overhead_share"]["value"]
            run["limits"].append(
                {"name": "abs(driver.overhead_share)", "value": abs(share),
                 "limit": UNACCOUNTED_LIMIT,
                 "ok": abs(share) <= UNACCOUNTED_LIMIT})
    else:
        for d in docs:
            for name, m in d["end_to_end"].items():
                metrics[name] = dict(m, scenario=d["scenario"])
        setups = {d["scenario"]: d["setup_s"] for d in docs}
        if None not in setups.values():     # a crashed scenario has none
            metrics["setup_s"] = {"value": sum(setups.values()), "unit": "s",
                                  "n": len(setups), "scenarios": setups}
        metrics["peak_rss_mb"] = {
            "value": max(d["peak_rss_mb"] for d in docs), "unit": "MB",
            "n": len(docs),
            "scenarios": {d["scenario"]: d["peak_rss_mb"] for d in docs}}
    run["metrics"] = metrics
    return run


def result_line(spec: dict, run: dict) -> Optional[str]:
    """The driver's last-line JSON, or None when a declared metric is
    missing (a skipped or crashed scenario): no result is better than a
    made-up one."""
    wanted = spec["per_layer"] if run["trace"] else spec["end_to_end"]
    out = {}
    for m in wanted:
        got = run["metrics"].get(m["name"])
        if got is None:
            return None
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return json.dumps({"correct": run["failed"] == 0,
                       "attempted": run["attempted"],
                       "failed": run["failed"], "metrics": out})


def print_run(run: dict) -> None:
    kind = "traced, per layer" if run["trace"] else "untraced, end to end"
    print(f"\n== workload {run['workload']} seed {run['seed']} ({kind}; "
          f"{run['wall_s']:.1f} s wall) ==")
    for name in SCENARIOS:
        d = run["scenarios"][name]
        if d.get("skipped"):
            state = f"skipped: {d['skipped']}"
        else:
            setup = d["setup_s"] if d["setup_s"] is not None else 0.0
            state = (f"setup {setup:.2f} s, rss {d['peak_rss_mb']:.0f} MB, "
                     f"{d['attempted']} ops, {d['failed']} failed")
        print(f"  scenario {name:<16} {state}")
    print(f"  {'metric (best of n)':<40} {'value':>14} {'unit':<6} {'n':>6}"
          "  dispersion")
    for name, m in sorted(run["metrics"].items()):
        disp = (f"median {m['median']:.4g}, p90/median "
                f"{m['p90_over_median']:.3f}"
                if "p90_over_median" in m and "median" in m else
                f"p90/median {m['p90_over_median']:.3f}"
                if "p90_over_median" in m else
                f"base: {m['base']}" if "base" in m else "")
        value = m["value"]
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"  {name:<40} {shown:>14} {m['unit']:<6} {m['n']:>6}  {disp}")
    print(f"  {'failed_share':<40} {run['failed_share']:>14.4f} {'ratio':<6} "
          f"{run['attempted']:>6}  {run['failed']} failed operations")
    for limit in run.get("limits", ()):
        print(f"  limit {limit['name']:<45} {limit['value']:.4f} <= "
              f"{limit['limit']:.2f}  {'ok' if limit['ok'] else 'OVER'}")
    for failure in run["failures"][:20]:
        print(f"  FAILED {failure}")


# -- the command ----------------------------------------------------------------

def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print("bench.run: src/repro is missing; the benchmark measures "
              "the compiler in this checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    groups = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(prog="bench.run", description=__doc__,
                                 formatter_class=argparse
                                 .RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=groups)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: untraced, end-to-end metrics (default); "
                         "1: traced replay, per-layer metrics")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--runs", type=int, default=1,
                    help="repeat with seeds seed..seed+runs-1")
    ap.add_argument("--out", default=str(OUT_DIR / "result.json"))
    ap.add_argument("--aa", action="store_true",
                    help="two alternating sets of --runs runs (default 5) "
                         "of this same code; fails if any end-to-end "
                         "median differs by more than its bound")
    args = ap.parse_args(argv)
    selected = [args.workload] if args.workload else groups
    if args.aa:
        from .compare import aa_check
        return aa_check(spec, selected, args, run_once)

    doc = {"host": host_facts(), "benchmark": spec, "runs": []}
    lines = []
    for index in range(args.runs):
        for group in selected:
            run = run_once(spec, group, args.seed + index, args.seconds,
                           args.trace, args.quick)
            doc["runs"].append(run)
            print_run(run)
            lines.append(result_line(spec, run))
    OUT_DIR.mkdir(exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=1)
    print(f"\nwrote {args.out}")
    # one result line per run, in run order; the driver runs one workload
    # once, so the last line of stdout is that run's line
    for line in lines:
        if line is not None:
            print(line)
    if None in lines:
        print("bench.run: a declared metric is missing (see the skipped / "
              "failed scenarios above); that run has no result line",
              file=sys.stderr)
    failed = sum(run["failed"] for run in doc["runs"])
    if failed:
        print(f"bench.run: {failed} operations failed", file=sys.stderr)
    return 1 if failed or None in lines else 0


if __name__ == "__main__":
    sys.exit(main())
