#!/usr/bin/env python3
"""Run the benchmark that BENCHMARK.json describes (see benchmark/README.md).

One run of one workload; the last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
under --trace 0 and the per-layer metrics under --trace 1:

    python3 benchmark/run.py --workload aeba_n4096 --seed 3 --seconds 12 --trace 0

Every workload, untraced and then traced, printing every metric by name and
unit and writing <out>/trace_<workload>.json for each:

    python3 benchmark/run.py [--seed S] [--seconds X] [--out DIR]

Both forms first build ba_bench with cmake into $CARGO_TARGET_DIR (default
.bench_build) and save each result under --out for benchmark/compare.py.
The exit status is nonzero when the build or any correctness check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# An untraced run is split across PROCS fresh ba_bench processes; each one's
# cold first instance is one set-up sample.
PROCS = 3
# Each process runs at least this many timed instances whatever the clock
# says. The bit, round and agreement metrics use only these, so every
# commit measures them on the same seeds.
MIN_PER_PROC = 3
# Seeds in the traced pass.
MIN_TRACED = 3
CHILD_TIMEOUT_S = 170


def build():
    """Configure and build ba_bench; exit nonzero on failure."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "benchmark"
    for cmd in (["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir)],
                ["cmake", "--build", str(build_dir), "-j", str(min(4, os.cpu_count() or 1))]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return build_dir / "ba_bench"


def ba_bench(binary, workload, mode, *args):
    """One ba_bench process; its JSON line, or None if it failed."""
    cmd = [str(binary), "--workload", workload, "--mode", mode, *map(str, args)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: timed out: {' '.join(cmd)}", file=sys.stderr)
        return None
    if p.returncode != 0 or not p.stdout.strip():
        print(f"run.py: exit {p.returncode}: {' '.join(cmd)}", file=sys.stderr)
        return None
    return json.loads(p.stdout.strip().splitlines()[-1])


def untraced(binary, workload, seed, seconds):
    procs = [ba_bench(binary, workload, "timed", "--seed", seed, "--seconds", seconds / PROCS,
                    "--min", MIN_PER_PROC, "--proc", k, "--procs", PROCS)
             for k in range(PROCS)]
    if None in procs:
        return PROCS, PROCS, {}
    timed = [i for p in procs for i in p["instances"]]
    fixed = [i for p in procs for i in p["instances"][:MIN_PER_PROC]]
    failed = sum(p["failed"] for p in procs)
    if len({p["warm_fp"] for p in procs}) != 1:
        print("run.py: fresh processes disagree on the warm-up fingerprint", file=sys.stderr)
        failed += 1
    values = {
        "instance_s_p50": statistics.median(i["s"] for i in timed),
        "setup_s": statistics.median(p["setup_s"] for p in procs),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in procs),
        "max_bits_good_mean": statistics.mean(i["max_bits"] for i in fixed),
        "total_bits_good_mean": statistics.mean(i["total_bits"] for i in fixed),
        "rounds_p50": statistics.median(i["rounds"] for i in fixed),
        "agree_fraction_p50": statistics.median(i["agree"] for i in fixed),
    }
    return sum(p["attempted"] for p in procs), failed, values


def traced(binary, workload, seed, seconds, out):
    r = ba_bench(binary, workload, "traced", "--seed", seed, "--seconds", seconds,
               "--min", MIN_TRACED, "--trace-out", out / f"trace_{workload}.json")
    if r is None:
        return 1, 1, {}
    return r["attempted"], r["failed"], r["metrics"]


def run(binary, workload, seed, seconds, trace, out):
    out.mkdir(parents=True, exist_ok=True)
    if trace:
        attempted, failed, values = traced(binary, workload, seed, seconds, out)
        specs = SPEC["per_layer"]
    else:
        attempted, failed, values = untraced(binary, workload, seed, seconds)
        specs = SPEC["end_to_end"]
    names = {m["name"] for m in specs}
    correct = failed == 0 and set(values) == names
    if not trace:
        # End-to-end metrics are never 0; a 0 means a broken measurement.
        correct = correct and all(v > 0 for v in values.values())
    res = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs if m["name"] in values},
    }
    saved = {"workload": workload, "seed": seed, "trace": trace, "result": res}
    (out / f"{workload}.trace{trace}.seed{seed}.json").write_text(json.dumps(saved) + "\n")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if (a.workload is None) != (a.trace is None):
        ap.error("--workload and --trace go together")
    out = a.out.resolve()
    binary = build()

    if a.workload:
        res = run(binary, a.workload, a.seed, a.seconds, a.trace, out)
        print(json.dumps(res))
        return 0 if res["correct"] else 1

    ok = True
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            res = run(binary, w["name"], a.seed, a.seconds, trace, out)
            ok = ok and res["correct"]
            print(f"== {w['name']} ({'per-layer, traced' if trace else 'end-to-end, untraced'}): "
                  f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"traces: {out}/trace_<workload>.json; results: {out}/<workload>.trace<t>.seed{a.seed}.json")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
