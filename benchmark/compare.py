#!/usr/bin/env python3
"""Compare two sets of benchmark results (benchmark/README.md).

    python3 benchmark/compare.py A... -- B...

Each argument is a result file saved by benchmark/run.py or a directory of
them. A is the baseline (the parent commit), B the change. For every metric
and workload it prints one row: the median and quartiles of each side, the
change of the median, and a verdict.

End-to-end verdicts use the bounds in BENCHMARK.json:
  improved    B beats A in at least 9/10 of the pairs (runs paired by seed,
              else in order) and the medians differ by more than A's
              interquartile range;
  unresolved  the spread of either side, IQR over median, is wider than the
              bound, unless every B run is better than every A run;
  regressed   B's median is worse than A's by more than the bound;
  unchanged   otherwise.
Per-layer metrics have no bound and are printed as advisory.

Two sets from the same commit should come out all unchanged; that is the
repeatability check. The exit status is 1 if any end-to-end row regressed
or is unresolved.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(paths):
    """{(trace, workload): {metric: [(seed, value), ...]}} from result files."""
    files = []
    for p in map(Path, paths):
        files += sorted(f for f in p.glob("*.json") if not f.name.startswith("trace_")) if p.is_dir() else [p]
    runs = {}
    for f in files:
        saved = json.loads(f.read_text())
        metrics = runs.setdefault((saved["trace"], saved["workload"]), {})
        for name, m in saved["result"]["metrics"].items():
            metrics.setdefault(name, []).append((saved["seed"], m["value"]))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pairs(a, b):
    """Runs paired by seed when both sides used the same seeds, else in order."""
    da, db = dict(a), dict(b)
    if set(da) == set(db):
        return [(da[s], db[s]) for s in sorted(da)]
    return list(zip([v for _, v in sorted(a)], [v for _, v in sorted(b)]))


def verdict(a, b, better, bound):
    va, vb = [v for _, v in a], [v for _, v in b]
    ma, mb = statistics.median(va), statistics.median(vb)
    sign = 1 if better == "lower" else -1
    is_better = lambda x, y: sign * (y - x) < 0  # y better than x
    ps = pairs(a, b)
    wins = sum(is_better(x, y) for x, y in ps)
    qa, qb = quartiles(va), quartiles(vb)
    if ps and wins >= 0.9 * len(ps) and abs(mb - ma) > qa[1] - qa[0]:
        return "improved"
    spread = max((qa[1] - qa[0]) / abs(ma) if ma else 0.0, (qb[1] - qb[0]) / abs(mb) if mb else 0.0)
    if spread > bound and not all(is_better(x, y) for x in va for y in vb):
        return "unresolved"
    worse = sign * (mb - ma) / abs(ma) if ma else 0.0
    return "regressed" if worse > bound else "unchanged"


def describe(values):
    vs = [v for _, v in values]
    q1, q3 = quartiles(vs)
    return f"{statistics.median(vs):.6g} [{q1:.6g}, {q3:.6g}] n={len(vs)}"


def main(argv):
    if "--" not in argv or argv.index("--") == 0 or argv.index("--") == len(argv) - 1:
        sys.exit(__doc__)
    cut = argv.index("--")
    a, b = load(argv[:cut]), load(argv[cut + 1:])
    bad = 0
    for trace, specs in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        print("end-to-end" if trace == 0 else "per-layer (advisory)")
        print(f"  {'metric':38s} {'workload':16s} {'A median [q1, q3]':44s} {'B median [q1, q3]':44s} {'change':>8s}  verdict")
        for m in specs:
            for w in SPEC["workloads"]:
                key = (trace, w["name"])
                va, vb = a.get(key, {}).get(m["name"]), b.get(key, {}).get(m["name"])
                if not va or not vb:
                    continue
                ma, mb = statistics.median(v for _, v in va), statistics.median(v for _, v in vb)
                change = f"{(mb - ma) / abs(ma):+.2%}" if ma else "n/a"
                v = verdict(va, vb, m["better"], m["bound"]) if trace == 0 else "advisory"
                bad += v in ("regressed", "unresolved")
                print(f"  {m['name']:38s} {w['name']:16s} {describe(va):44s} {describe(vb):44s} {change:>8s}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
