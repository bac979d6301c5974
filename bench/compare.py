"""Compare two sets of benchmark runs: ``python3 -m bench.compare A.json B.json``.

A set is what ``python3 -m bench.run --runs N --out FILE`` writes: N
untraced runs per workload.  Collect the two sets as alternating pairs
(A1 B1 B2 A2 ...) so drift in the host hits both alike.  Each workload
gets its own rows; every ratio is given with its base (A's median).

Verdict per (workload, metric), by the pairs rule:

``better`` / ``worse``  at least 10 pairs, B wins (loses) at least 9/10
                        of them, ties counting for neither, and the
                        medians differ by more than A's own
                        inter-quartile range;
``unchanged``           B's median is within the metric's bound of A's
                        and both sets' run-to-run spreads (IQR / median)
                        are within the bound;
``unresolved``          anything else — too few pairs, or a spread wider
                        than the bound.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

from .stats import quartiles

MIN_PAIRS = 10


def load_values(doc: dict) -> Dict[str, Dict[str, List[float]]]:
    """workload -> end-to-end metric -> one value per untraced run."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for run in doc["runs"]:
        if run["trace"]:
            continue
        per = out.setdefault(run["workload"], {})
        for name, m in run["metrics"].items():
            per.setdefault(name, []).append(float(m["value"]))
    return out


def spread(q) -> float:
    """Run-to-run spread of one set from its quartiles: IQR / median."""
    return (q[2] - q[0]) / q[1] if q[1] else 0.0


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    pairs = list(zip(a, b))
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    clear = abs(med_b - med_a) > (qa[2] - qa[0])
    if len(pairs) >= MIN_PAIRS and clear:
        if wins >= 0.9 * len(pairs) and sign * (med_b - med_a) > 0:
            return "better"
        if losses >= 0.9 * len(pairs) and sign * (med_b - med_a) < 0:
            return "worse"
    if (med_a and abs(med_b / med_a - 1.0) <= bound
            and max(spread(qa), spread(qb)) <= bound):
        return "unchanged"
    return "unresolved"


def compare(spec: dict, a_doc: dict, b_doc: dict) -> List[dict]:
    a_vals, b_vals = load_values(a_doc), load_values(b_doc)
    rows = []
    for workload in a_vals:
        for m in spec["end_to_end"]:
            a = a_vals[workload].get(m["name"])
            b = b_vals.get(workload, {}).get(m["name"])
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            rows.append({
                "workload": workload, "metric": m["name"],
                "unit": m["unit"], "bound": m["bound"],
                "pairs": min(len(a), len(b)), "a": qa, "b": qb,
                "ratio": qb[1] / qa[1] if qa[1] else float("nan"),
                "spread": max(spread(qa), spread(qb)),  # the wider set's
                "verdict": verdict(a, b, m["better"], m["bound"])})
    return rows


def print_rows(rows: List[dict]) -> None:
    print(f"{'workload':<8} {'metric':<22} {'unit':<5} {'pairs':>5} "
          f"{'A q1':>10} {'A median':>10} {'A q3':>10} "
          f"{'B q1':>10} {'B median':>10} {'B q3':>10} "
          f"{'B/A':>7}  verdict")
    for r in rows:
        a, b = r["a"], r["b"]
        print(f"{r['workload']:<8} {r['metric']:<22} {r['unit']:<5} "
              f"{r['pairs']:>5} {a[0]:>10.4g} {a[1]:>10.4g} {a[2]:>10.4g} "
              f"{b[0]:>10.4g} {b[1]:>10.4g} {b[2]:>10.4g} "
              f"{r['ratio']:>7.3f}  {r['verdict']} "
              f"(base: A median {a[1]:.4g} {r['unit']}, bound "
              f"{r['bound']:.2f}, spread {r['spread']:.3f})")


def aa_check(spec: dict, groups: List[str], args, run_once) -> int:
    """Two sets of runs of this same code, collected as alternating
    pairs, held to the rule the driver accepts a benchmark by: the two
    medians of every end-to-end metric agree within its bound, and its
    run-to-run spread (IQR / median; ``setup_s`` exempt) is within the
    bound too - a wider spread leaves the metric *unresolved*."""
    pairs = args.runs if args.runs > 1 else 5
    sets = {"A": {"benchmark": spec, "runs": []},
            "B": {"benchmark": spec, "runs": []}}
    for index in range(pairs):
        order = ("A", "B") if index % 2 == 0 else ("B", "A")
        for label in order:
            for group in groups:
                run = run_once(spec, group, args.seed + index, args.seconds,
                               0, args.quick)
                sets[label]["runs"].append(run)
                print(f"aa: set {label} pair {index} workload {group}: "
                      f"{run['wall_s']:.1f} s, {run['failed']} failed",
                      flush=True)
    stem = os.path.splitext(args.out)[0]
    for label, doc in sets.items():     # kept for bench.compare
        with open(f"{stem}-aa-{label}.json", "w") as handle:
            json.dump(doc, handle)
    rows = compare(spec, sets["A"], sets["B"])
    print_rows(rows)
    problems = []
    for r in rows:
        where = f"{r['workload']}/{r['metric']}"
        if abs(r["ratio"] - 1.0) > r["bound"]:
            problems.append(f"{where}: medians differ by "
                            f"{abs(r['ratio'] - 1.0):.3f} > bound "
                            f"{r['bound']:.2f}")
        if r["metric"] != "setup_s" and r["spread"] > r["bound"]:
            problems.append(f"{where}: unresolved, run-to-run spread "
                            f"{r['spread']:.3f} > bound {r['bound']:.2f}")
    failed = sum(run["failed"] for s in sets.values() for run in s["runs"])
    if failed:
        problems.append(f"{failed} operations failed")
    for problem in problems:
        print(f"aa: FAIL {problem}")
    print("aa: " + ("FAIL" if problems else
                    "ok: both sets agree within every bound"))
    return 1 if problems else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    docs = []
    for path in argv:
        with open(path) as handle:
            docs.append(json.load(handle))
    print_rows(compare(docs[0]["benchmark"], docs[0], docs[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
