"""One workload process: set up, report ready, then run when told to.

    python3 perfbench/worker.py --workload NAME --seed N

Set-up is `import detline` plus building the workload's inputs; the
process then prints "ready" and reads one command from stdin: "exit", or
"run SECONDS TRACE OUTDIR", after which it computes the oracle answers,
runs, prints one JSON line with the measurements and exits.  run.py starts
it, times set-up from process start to "ready", and owns the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import detline  # noqa: F401  (set-up includes the import)
import metrics
from common import (
    REFERENCE_CALIBRATION_S,
    REFERENCE_PROBE_S,
    calibrate,
    check,
    probe,
    resolve_oracles,
    same_answers,
    schedule,
)
from machine import machine_block
from tracer import NULL, Tracer, patched

PROBES = 3  # interpreter and import probes per traced run
ANCHOR = "torsion circle(64) ('cyclic', 5) right"  # the roadmap's baseline job


def build(name, seed, root):
    if name == "cellular-torsion":
        import wl_cellular

        return wl_cellular.build(seed)
    if name == "group-operators":
        import wl_groupops

        return wl_groupops.build(seed)
    if name == "torus-quadrature":
        import wl_torus

        return wl_torus.build(seed)
    import wl_cli

    return wl_cli.build(seed, root, dict(os.environ))


def attempt(fn, *args):
    """Run one job call: (answers, error text or None, seconds)."""
    out = {}
    start = time.perf_counter()
    try:
        fn(*args, out)
    except Exception as exc:  # every failure of a job is counted, none stops the run
        return out, f"{type(exc).__name__}: {exc}", time.perf_counter() - start
    return out, None, time.perf_counter() - start


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def run_untraced(workload, rng, seconds):
    """Job records, loop wall time without the calibration slices, and the
    calibration slice times (one after each job: a probe process after a
    job that is a process, calibrate() after any other)."""
    slice_of = probe if workload.subprocess_jobs else calibrate
    records = []
    slices = []
    start = time.perf_counter()
    for job in schedule(workload, rng, seconds):
        out, error, elapsed = attempt(job.call_direct)
        passed, worst = check(job, out)
        records.append((job, elapsed, passed and error is None, worst, error))
        slices.append(slice_of())
    return records, time.perf_counter() - start - sum(slices), slices


def _probe(tracer, name, code):
    for _ in range(PROBES):
        with tracer.span(name):
            # no timeout, which would poll for the exit in 50 ms steps
            subprocess.run([sys.executable, "-c", code], check=True)


def run_traced(workload, rng, seconds):
    tracer = Tracer()
    _probe(tracer, "cli.interpreter", "pass")
    _probe(tracer, "cli.import", "import detline")
    targets = workload.instrument(tracer) if workload.instrument else []
    records = []
    # (job label, direct call seconds, untraced replay seconds, traced replay
    # seconds, job span index)
    pairs = []
    mismatches = []
    start = time.perf_counter()
    for n, job in enumerate(schedule(workload, rng, seconds)):
        out, error, elapsed = attempt(job.call_direct)
        _, _, untraced = attempt(job.run, NULL)
        tracer.job = f"{n}:{job.label}"
        with patched(targets), tracer.span("job") as index:
            traced, traced_error, traced_elapsed = attempt(job.run, tracer)
        if job.extras is not None:
            tracer.job = f"{n}:extras"
            job.extras(tracer)
        tracer.job = None
        if (error is None) != (traced_error is None) or (
            error is None and not same_answers(out, traced)
        ):
            mismatches.append(job.label)
        passed, worst = check(job, out)
        records.append((job, elapsed, passed and error is None, worst, error))
        if error is None:
            pairs.append((job.label, elapsed, untraced, traced_elapsed, index))
    return records, time.perf_counter() - start, tracer, pairs, mismatches


def trace_report(tracer, pairs):
    """Per-layer metrics, and per job the duration of each stage span."""
    durations = {}
    stages = {}  # job span index -> [(stage name, seconds)]
    for name, start, end, parent, _ in tracer.spans:
        duration = end - start
        durations.setdefault(name, []).append(duration)
        stages.setdefault(parent, []).append((name, duration))
    out = {}
    for name in metrics.TIMED_SPANS:
        values = durations.get(name)
        out[f"{name}_ms"] = 1e3 * statistics.median(values) if values else 0.0
    for name in metrics.COUNTS:
        values = tracer.counts.get(name)
        out[name] = float(statistics.median(values)) if values else 0.0

    overhead, remainder, ratios, rows = [], [], [], []
    for label, direct, untraced, traced, index in pairs:
        job_stages = stages.get(index, [])
        overhead.append(100.0 * (traced - untraced) / untraced)
        remainder.append(100.0 * (direct - sum(d for _, d in job_stages)) / direct)
        by_name = {}
        for name, duration in job_stages:
            by_name[name] = by_name.get(name, 0.0) + duration
        if label == ANCHOR:
            ratios.append(
                (by_name["torsion.assemble_coefficients"]
                 + by_name["complexes.torsion_iso_via_exact_sequences"])
                / by_name["complexes.hodge"]
            )
        rows.append(
            {"job": label, "direct_ms": 1e3 * direct, "untraced_replay_ms": 1e3 * untraced,
             "traced_replay_ms": 1e3 * traced,
             "stages_ms": {name: 1e3 * d for name, d in by_name.items()}}
        )
    out["trace.overhead_pct"] = statistics.median(overhead) if overhead else 0.0
    out["trace.remainder_pct"] = statistics.median(remainder) if remainder else 0.0
    out["trace.circle64_c5_stage_ratio"] = statistics.median(ratios) if ratios else 0.0
    return out, rows


def normalized(records, slices, reference, window=5):
    """Job-time metrics at the reference machine speed.

    The machine's speed drifts by 10-40% within and between runs, and the
    calibration slice taken after each job drifts with it: each job time is
    scaled by the reference slice over the median of the slices taken after
    the 2 x window + 1 jobs around it.
    """
    times = []
    for i, (_, elapsed, _, _, _) in enumerate(records):
        near = slices[max(0, i - window): i + window + 1]
        times.append(1e3 * elapsed * reference / statistics.median(near))
    return {
        "job_ms_p50": percentile(times, 50),
        "job_ms_p90": percentile(times, 90),
        "jobs_per_s": len(times) / (1e-3 * sum(times)),
    }


def check_defects(workload):
    """Records of the known defects, each run once, untimed."""
    records = []
    for job in workload.defects:
        out, error, elapsed = attempt(job.call_direct)
        passed, worst = check(job, out)
        records.append((job, elapsed, passed and error is None, worst, error))
    return records


def summarize(records, defects, wall):
    """Run summary and values from the measured job records and the known
    defects' records; `failed` counts measured jobs only."""
    latencies = [1e3 * elapsed for _, elapsed, _, _, _ in records]
    failed = [r for r in records if not r[2]]
    p90 = percentile(latencies, 90)
    summary = {
        "attempted": len(records),
        "failed": len(failed),
        "unexpected_failures": sorted({r[0].label for r in failed}),
        "known_defects": sorted(f"{r[0].label}: {r[4] or 'outside tolerance'} ({r[0].defect})"
                                for r in defects if not r[2]),
        "fixed_defects": sorted(r[0].label for r in defects if r[2]),
        "jobs_beyond_p90": sum(1 for x in latencies if x > p90),
    }
    checked = records + defects
    inputs = {r[0].label for r in checked}
    failed_inputs = {r[0].label for r in checked if not r[2]}
    values = {
        "job_ms_p50": percentile(latencies, 50),
        "job_ms_p90": p90,
        "jobs_per_s": len(records) / wall,
        # share of the distinct inputs checked in the run, the known defects
        # included, on which the program fails; a per-job count would move
        # with how many cycles fit in the run
        "fail_ratio": len(failed_inputs) / len(inputs),
        "max_log_err": max(worst for _, _, _, worst, _ in checked),
    }
    return summary, values


def peak_rss_mb(workload):
    if workload.peak_rss_kb is not None:
        return workload.peak_rss_kb() / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    root = os.getcwd()

    workload = build(args.workload, args.seed, root)
    print("ready", flush=True)

    command = sys.stdin.readline().split()
    if not command or command[0] != "run":
        return 0
    resolve_oracles(workload)
    defects = check_defects(workload)
    for job in workload.warmup:
        attempt(job.call_direct)
    gc.collect()  # every run starts timing from the same heap state
    seconds, trace, outdir = float(command[1]), command[2] == "1", command[3]
    rng = np.random.default_rng(args.seed)
    result = {"machine": machine_block(root)}
    if trace:
        records, wall, tracer, pairs, mismatches = run_traced(workload, rng, seconds)
        tracer.dump(os.path.join(outdir, f"trace-{args.workload}-{args.seed}.json"))
        result["layers"], result["stages"] = trace_report(tracer, pairs)
        result["replay_mismatches"] = mismatches
        slices = []
    else:
        records, wall, slices = run_untraced(workload, rng, seconds)
    summary, values = summarize(records, defects, wall)
    if slices:
        result["raw"] = dict(values)
        if workload.subprocess_jobs:
            # a probe is the same kind of work as a job and long enough to
            # read alone, and the speed of process start changes from one
            # job to the next: the three probes nearest the job track it best
            values.update(normalized(records, slices, REFERENCE_PROBE_S, window=1))
        else:
            values.update(normalized(records, slices, REFERENCE_CALIBRATION_S))
    values["peak_rss_mb"] = peak_rss_mb(workload)
    result.update(summary)
    result["jobs"] = [[r[0].label, r[1]] for r in records]
    result["slices_s"] = slices
    result["values"] = values
    result["wall_s"] = wall
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
