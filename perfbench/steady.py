#!/usr/bin/env python3
"""Steadiness check: run one workload with seeds 1..N and print, per
end-to-end metric, the median, the quartiles and their distance as a share
of the median (the spread), next to the bound BENCHMARK.json gives it.

    python3 perfbench/steady.py --workload ingest [--runs 10] [--sets 2]

Run from the repository root. The workload is steady when
  - every metric's spread, `setup_s` included, is at most its bound;
  - the share of failed operations is the same in every run;
  - with `--sets 2`, the second set's median of every metric is not worse
    than the first set's by more than the metric's bound (both sets use
    seeds 1..N, so they differ only in when they ran).
Exits 0 when steady, 1 when not. A spread above a third of its bound is
marked `>1/3`: steady, but with little margin.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_set(workload, runs, seconds):
    """Runs seeds 1..runs; returns ({metric: [values]}, {failed share}, units)."""
    values, shares, units = {}, set(), {}
    for seed in range(1, runs + 1):
        started = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            sys.exit(f"seed {seed}: exit code {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: answers were wrong")
        shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        row = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"seed {seed} ({time.monotonic() - started:.0f} s): {result['attempted']} "
              f"attempted, {result['failed']} failed; {row}", flush=True)
    return values, shares, units


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    steady = True
    all_shares = set()
    medians = []
    for s in range(1, args.sets + 1):
        print(f"set {s}: {args.workload}, seeds 1..{args.runs}", flush=True)
        values, shares, units = run_set(args.workload, args.runs, bench["run_seconds"])
        all_shares |= shares
        print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        med = {}
        for name, m in metrics.items():
            xs = values[name]
            med[name] = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med[name]
            ok = spread <= m["bound"]
            steady &= ok
            mark = "WIDE" if not ok else "ok >1/3" if spread > m["bound"] / 3 else "ok"
            print(f"{name:<20} {med[name]:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.4f} "
                  f"{m['bound']:>6} {units[name]} {mark}")
        medians.append(med)
    if len(medians) == 2:
        print(f"{'metric':<20} {'median 1':>12} {'median 2':>12} {'worse by':>8} {'bound':>6}")
        for name, m in metrics.items():
            a, b = medians[0][name], medians[1][name]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok = worse <= m["bound"]
            steady &= ok
            print(f"{name:<20} {a:>12.4f} {b:>12.4f} {worse:>8.4f} {m['bound']:>6} "
                  f"{'ok' if ok else 'WORSE'}")
    print(f"failed share per run: {sorted(all_shares)}")
    steady &= len(all_shares) == 1
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
