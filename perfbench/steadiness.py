#!/usr/bin/env python3
"""Run each workload once per seed and report how much each metric spreads.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1,2,3]
                                    [--seconds 10] [--out FILE]

For every end-to-end metric it prints the median over the seeds and the
quartile spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. The raw timings from
each run's metadata line are printed beside their host-normalized
counterparts, so the effect of the normalization is visible. The spread is
compared with the metric's bound from BENCHMARK.json; a spread at or above
a third of the bound is marked.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RAW_BESIDE = {
    "norm_throughput_rps": "raw_throughput_rps",
    "norm_latency_p50_ms": "raw_latency_p50_ms",
    "norm_latency_p99_ms": "raw_latency_p99_ms",
    "setup_s": "raw_setup_s",
}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    meta = json.loads(lines[-2])["perfbench_meta"]
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("%s seed %d: incorrect result" % (workload, seed))
    return result, meta


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="also write the summary as JSON")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds))
            print("  %s seed %d done" % (workload, seed), file=sys.stderr)
        rows = {}
        print("%s (%d seeds, %d s runs)" % (workload, len(seeds),
                                            args.seconds))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r, _ in runs]
            row = {"median": statistics.median(values),
                   "spread": spread(values), "bound": bound,
                   "values": values}
            raw = RAW_BESIDE.get(name)
            if raw:
                raw_values = [m[raw] for _, m in runs]
                row["raw_median"] = statistics.median(raw_values)
                row["raw_spread"] = spread(raw_values)
            rows[name] = row
            flag = "" if row["spread"] < bound / 3 else "  <-- >= bound/3"
            raw_text = ("  raw %.4g spread %.4f" %
                        (row["raw_median"], row["raw_spread"])
                        if raw else "")
            print("  %-22s median %-12.6g spread %.4f (bound %.2f)%s%s" %
                  (name, row["median"], row["spread"], bound, raw_text, flag))
        refs = [m["host_ref_median_s"] for _, m in runs]
        rows["host_ref_median_s"] = {"median": statistics.median(refs),
                                     "spread": spread(refs), "values": refs}
        print("  %-22s median %-12.6g spread %.4f" %
              ("host_ref_median_s", statistics.median(refs), spread(refs)))
        summary[workload] = rows
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=1)


if __name__ == "__main__":
    main()
