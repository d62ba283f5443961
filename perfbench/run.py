"""detline benchmark: one seeded closed-loop workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up (a fresh interpreter, `import
detline`, building the inputs) is timed SETUP_SAMPLES times in fresh
processes, each right after a reference probe process, and reported as the
median at the reference machine speed; the last process then runs the
workload for S seconds, one job at a time (a closed loop with one client),
and checks every answer against an oracle that uses no detline code.
With --trace 0 the last line of stdout holds the end-to-end metrics; with
--trace 1 each job is also replayed as its chain of public calls inside
spans, and the last line holds the per-layer metrics.  Details, the
machine block and the spans go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
from common import REFERENCE_PROBE_S, probe  # noqa: E402

SETUP_SAMPLES = 5
DEADLINE_S = 170.0
# One BLAS thread everywhere: thread scheduling must not become a second
# source of noise on a 2-core machine.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def worker_env(root):
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def start_worker(args, env, root):
    started = time.perf_counter()
    # its own process group, so stop() also ends the CLI processes it runs
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"),
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - started
    if line.strip() != "ready":
        stop(proc)
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, elapsed


def setup_sample(args, env, root):
    """(worker process, set-up seconds, probe seconds)."""
    probe_s = probe(root, env)
    proc, elapsed = start_worker(args, env, root)
    return proc, elapsed, probe_s


def stop(proc):
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def measure(args, root):
    env = worker_env(root)
    outdir = os.path.join(root, ".perfbench")
    os.makedirs(outdir, exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_S
    setups = []  # (set-up seconds, probe seconds)
    for _ in range(SETUP_SAMPLES - 1):
        proc, elapsed, probe_s = setup_sample(args, env, root)
        setups.append((elapsed, probe_s))
        try:
            proc.communicate("exit\n", timeout=30)
        finally:
            stop(proc)
    proc, elapsed, probe_s = setup_sample(args, env, root)
    setups.append((elapsed, probe_s))
    try:
        stdout, _ = proc.communicate(
            f"run {args.seconds} {args.trace} {outdir}\n",
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_samples_s"] = [elapsed for elapsed, _ in setups]
    result["probe_samples_s"] = [probe_s for _, probe_s in setups]
    result.setdefault("raw", {})["setup_s"] = statistics.median(elapsed for elapsed, _ in setups)
    result["values"]["setup_s"] = statistics.median(
        elapsed * REFERENCE_PROBE_S / probe_s for elapsed, probe_s in setups
    )
    return result, outdir


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        result, outdir = measure(args, root)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        units = metrics.PER_LAYER
        values = result["layers"]
    else:
        units = metrics.END_TO_END
        values = result["values"]
    chosen = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = not result["unexpected_failures"] and not result.get("replay_mismatches")

    path = os.path.join(outdir, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "metrics": chosen, **result}, handle, indent=1)

    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} jobs in "
          f"{result['wall_s']:.1f} s, {result['jobs_beyond_p90']} beyond p90, "
          f"setup samples {['%.3f' % s for s in result['setup_samples_s']]}, "
          f"probes {['%.3f' % s for s in result['probe_samples_s']]}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    for line in result["known_defects"]:
        print(f"known defect still failing: {line}")
    for label in result["fixed_defects"]:
        print(f"known defect no longer failing: {label}")
    for label in result["unexpected_failures"]:
        print(f"UNEXPECTED FAILURE: {label}")
    for label in result.get("replay_mismatches", []):
        print(f"REPLAY DIFFERS FROM DIRECT CALL: {label}")
    for name, metric in chosen.items():
        print(f"{name:45s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
