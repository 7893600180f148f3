#!/usr/bin/env python3
"""Runs each workload N times with distinct seeds and prints, for every
metric, the median, the quartiles and the spread (quartile distance as a
share of the median).

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--seconds S]
                                [--trace 0|1] [--json out.json] [workload ...]

Run from the repository root. Workloads, run length and the end-to-end
bounds default to BENCHMARK.json; a spread at or above a third of its
metric's bound is flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (%s seed %d): %s" % (workload, seed, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    # The info line before the result carries every reported metric, the
    # ungated ones too, and the host's CPU-steal share of each round.
    info = json.loads(lines[-2])["info"] if len(lines) > 1 else {}
    result["reported"] = info.get("metrics", result["metrics"])
    result["failures"] = info.get("failures", {})
    steal = [r["host_steal_share"] for r in info.get("rounds", []) if "host_steal_share" in r]
    result["host_steal_share"] = statistics.median(steal) if steal else 0.0
    return result


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.get("run_seconds", 10))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args()
    workloads = args.workloads or [w["name"] for w in spec.get("workloads", [])]
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}

    report = {}
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            results.append(run_once(workload, seed, args.seconds, args.trace))
            print("%s seed %d: correct=%s attempted=%d failed=%d %s steal=%.2f" % (
                workload, seed, results[-1]["correct"], results[-1]["attempted"],
                results[-1]["failed"], results[-1]["failures"] or "",
                results[-1]["host_steal_share"]), file=sys.stderr)
        report[workload] = results
        print("\n%s (%d runs, seeds %d..%d)" % (workload, args.runs, args.first_seed,
                                               args.first_seed + args.runs - 1))
        shares = {r["failed"] / r["attempted"] for r in results}
        print("  correct: %s   failed share: %s   host steal: %s" % (
            all(r["correct"] for r in results), sorted(shares),
            " ".join("%.2f" % r["host_steal_share"] for r in results)))
        print("  %-36s %12s %12s %12s %8s" % ("metric", "q1", "median", "q3", "spread"))
        for name, first in results[0]["reported"].items():
            values = [r["reported"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
            spread = (q3 - q1) / med if med else 0.0
            flag = "" if name in results[0]["metrics"] else "  (not gated)"
            if name in bounds and name != "setup_s" and spread >= bounds[name] / 3:
                flag = "  <- over a third of bound %.2f" % bounds[name]
            print("  %-36s %12.6g %12.6g %12.6g %8.3f %s%s" % (
                name, q1, med, q3, spread, first["unit"], flag))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
