"""Smoke test of the benchmark itself: ``python3 -m pytest bench/test_smoke.py``.

Kept outside ``testpaths`` so tier-1 is unchanged.  Runs one workload
``--quick`` (1-2 rounds per scenario, no clock) untraced and traced, and
validates the metric names and the shape of the result line against
BENCHMARK.json.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def quick_run(trace: int, tmp_path):
    out = tmp_path / f"result-{trace}.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "image",
         "--seed", "5", "--quick", "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line, json.loads(out.read_text())


def test_spec_names_and_limits():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    # the driver's contract caps a bound at 0.25 and refuses the file above
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_reports_every_declared_metric(trace, tmp_path):
    line, doc = quick_run(trace, tmp_path)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    run = doc["runs"][0]
    if trace:
        # zero stands only for a layer the workload cannot reach
        zeros = {n for n, m in run["metrics"].items() if m["n"] == 0}
        assert all(n.startswith("runtime.taskgraph_") for n in zeros), zeros
        assert {l["name"] for l in run["limits"]} >= {
            "abs(driver.overhead_share)",
            "bench.trace_overhead_ratio[compile_cold]"}
    assert set(run["scenarios"]) == {"compile_cold", "compile_service",
                                     "run_cpu", "run_native", "search"}
    assert {"nproc", "python", "numpy", "gcc", "loadavg"} <= set(doc["host"])
