"""Compare two JSON-lines result files written by ``run.py --out``.

For each workload and end-to-end metric, prints each side's median and
quartiles over its untraced runs and marks B against A:

- worse: B's median is worse than A's by more than the metric's bound;
- better: B's median is better than A's by more than the distance between
  A's quartiles, and B wins at least 9 in 10 of the runs paired by seed
  (with no seed in common: every B run beats every A run);
- unresolved: anything else, including a change within the bound.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path: str) -> dict:
    """{workload: {metric: {seed: value}}} from the untraced runs in a file."""
    runs: dict = defaultdict(lambda: defaultdict(dict))
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["trace"] == 0:
                for name, metric in record["metrics"].items():
                    if metric["value"] is not None:  # None: no successful sample
                        runs[record["workload"]][name][record["seed"]] = metric["value"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # sign * (b - a) > 0 means worse
    a1, am, a3 = quartiles(list(a.values()))
    _, bm, _ = quartiles(list(b.values()))
    if sign * (bm - am) / am > bound:
        return "worse"
    paired = a.keys() & b.keys()
    if paired:
        wins = sum(sign * (b[s] - a[s]) < 0 for s in paired) >= 0.9 * len(paired)
    else:
        wins = all(sign * (y - x) < 0 for x in a.values() for y in b.values())
    if sign * (am - bm) > a3 - a1 and wins:
        return "better"
    return "unresolved"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    a, b = load(path_a), load(path_b)
    print(f"A = {path_a}\nB = {path_b}")
    for workload in sorted(set(a) | set(b)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = a[workload].get(name), b[workload].get(name)
            if not va or not vb:
                print(f"{workload:15} {name:12} missing on {'A' if not va else 'B'}")
                continue
            a1, am, a3 = quartiles(list(va.values()))
            b1, bm, b3 = quartiles(list(vb.values()))
            mark = verdict(va, vb, metric["better"], metric["bound"])
            print(
                f"{workload:15} {name:12} A {am:.6g} [{a1:.6g}, {a3:.6g}] n={len(va)}"
                f"  B {bm:.6g} [{b1:.6g}, {b3:.6g}] n={len(vb)}"
                f"  {(bm - am) / am:+.1%} (bound {metric['bound']:.0%}) {mark}"
            )
    return 0
