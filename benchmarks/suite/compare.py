"""Compare two result files written by ``run.py --repeat N --out FILE``.

    python3 benchmarks/suite/compare.py A.json B.json

One row per (workload x end-to-end metric): each side's median and
quartiles over its runs, the ratio B/A with A as the base, and a verdict:

* ``unresolved`` — either side's run-to-run spread (interquartile
  distance / median) is wider than the metric's bound, so a difference of
  that size cannot be told from noise;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``ok`` — otherwise.

Exits non-zero on any ``regressed`` row or if B failed a larger share of
its operations than A.  Bounds and directions come from BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

from harness import ROOT
from stats import quartiles, spread


def load_bounds(path: str = os.path.join(ROOT, "BENCHMARK.json")) -> Dict[str, Tuple[str, float]]:
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def group(runs: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values`` over the untraced runs."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for run in runs:
        if run.get("traced"):
            continue
        for metric, entry in run["metrics"].items():
            values[(run["workload"], metric)].append(entry["value"])
    return values


def fail_ratio(runs: List[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def verdict(base: List[float], new: List[float], better: str, bound: float) -> str:
    if len(base) >= 2 and len(new) >= 2 and max(spread(base), spread(new)) > bound:
        return "unresolved"
    a, b = statistics.median(base), statistics.median(new)
    worse = (b - a) / a if better == "lower" else (a - b) / a
    return "regressed" if worse > bound else "ok"


def _summary(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, mid, q3 = quartiles(values)
    return f"{mid:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(a: dict, b: dict, bounds: Dict[str, Tuple[str, float]]) -> Tuple[List[tuple], bool]:
    """Rows ``(workload, metric, A, B, ratio, verdict)`` and overall success."""
    base, new = group(a["runs"]), group(b["runs"])
    rows, passed = [], True
    for key in sorted(base.keys() & new.keys()):
        workload, metric = key
        if metric not in bounds:
            continue
        better, bound = bounds[metric]
        outcome = verdict(base[key], new[key], better, bound)
        ratio = statistics.median(new[key]) / statistics.median(base[key])
        rows.append((workload, metric, _summary(base[key]), _summary(new[key]), ratio, outcome))
        passed = passed and outcome != "regressed"
    return rows, passed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        a = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        b = json.load(handle)
    rows, passed = compare(a, b, load_bounds())
    print(f"{'workload':22s} {'metric':12s} {'A median [q1, q3]':30s} "
          f"{'B median [q1, q3]':30s} {'B/A':>7s}  verdict")
    for workload, metric, left, right, ratio, outcome in rows:
        print(f"{workload:22s} {metric:12s} {left:30s} {right:30s} {ratio:7.3f}  {outcome}")
    fail_a, fail_b = fail_ratio(a["runs"]), fail_ratio(b["runs"])
    print(f"fail_ratio: A {fail_a:.6g}, B {fail_b:.6g} (base A)")
    if fail_b > fail_a:
        print("fail_ratio rose: B fails more operations than A")
        passed = False
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
