#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric.

    python3 e2ebench/compare.py A.json B.json

A and B are run records written by `run_e2e.sh --record FILE` (or
`run.py --all --record FILE`): {"workload": {"metric": [value, ...]}}, one
value per run, in the order the runs were made. A is the parent (baseline),
B the change. For every workload x metric present in both, this prints each
side's median and quartiles and a verdict:

  better      B won at least nine tenths of the runs paired in order (ties
              count for neither) and the medians differ by more than A's
              interquartile range (the rule for claiming a gain).
  worse       B's median is worse than A's by more than the metric's bound
              in BENCHMARK.json (a regression).
  unresolved  A's interquartile range is wider than the bound and not every
              run of B beats every run of A, so "no regression" cannot be
              told from noise; per-layer metrics, which have no bound, get
              this whenever they are neither better nor worse.
  same        none of the above: within the bound.
"""

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, better, bound):
    """better / worse / unresolved / same for parent runs `a`, change `b`."""
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    _, b_med, _ = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    spread = a_q3 - a_q1
    if pairs and wins >= 0.9 * len(pairs) and abs(b_med - a_med) > spread:
        if sign * (b_med - a_med) > 0:
            return "better"
    if bound is None:
        return "unresolved"
    scale = abs(a_med) if a_med else 1.0
    if sign * (a_med - b_med) > bound * scale:
        return "worse"
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound * scale and not all_better:
        return "unresolved"
    return "same"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a = json.loads(pathlib.Path(argv[1]).read_text())
    b = json.loads(pathlib.Path(argv[2]).read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"{'workload':14} {'metric':34} {'A q1/med/q3':>32} "
          f"{'B q1/med/q3':>32}  verdict")
    counts = {}
    for workload in sorted(set(a) & set(b)):
        for name in sorted(set(a[workload]) & set(b[workload])):
            meta = metrics.get(name)
            if meta is None:
                continue
            va, vb = a[workload][name], b[workload][name]
            v = verdict(va, vb, meta["better"], meta.get("bound"))
            counts[v] = counts.get(v, 0) + 1
            qa = "/".join(f"{x:.4g}" for x in quartiles(va))
            qb = "/".join(f"{x:.4g}" for x in quartiles(vb))
            print(f"{workload:14} {name:34} {qa:>32} {qb:>32}  {v}")
    print("verdicts: " + ", ".join(f"{k} {n}" for k, n in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
