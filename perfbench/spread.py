"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1 2 3 4 5 [--seconds 20]

For each metric prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of
the median, next to the metric's bound in BENCHMARK.json; raw.* lines are
the times before normalization to the reference machine speed.  Run from
the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            sys.exit(f"seed {seed} failed: {proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        path = os.path.join(".perfbench", f"result-{args.workload}-{seed}-trace{args.trace}.json")
        with open(path) as handle:
            # the unnormalized times, for comparison
            for name, value in json.load(handle).get("raw", {}).items():
                result["metrics"][f"raw.{name}"] = {"value": value}
        runs.append(result)
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']}", flush=True)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print(f"{name:40s} median {median:.6g} spread {spread:.4f}"
              + (f" bound {bound}" if bound is not None else ""))


if __name__ == "__main__":
    main()
