"""Jobs, answer checks and the closed measurement loop shared by workloads."""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from tracer import NULL

# |log result - log oracle| allowed for every answer
TOL = 1e-8
# The machine's speed drifts by 10-40% within and between runs.  Job times
# and set-up times are scaled to a reference speed by a slice of fixed work
# timed next to them: calibrate() for in-process jobs, and for set-up and
# for jobs that are processes, a probe process that starts an interpreter
# and imports numpy (no detline code).  A probe that also imported scipy
# tracked the drift no better and took three times as long.  The
# references are their medians on the machine the benchmark was defined on
# (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4.6 with scipy-openblas
# 0.3.31, one BLAS thread).
REFERENCE_CALIBRATION_S = 3.7e-3
PROBE = "import numpy"
REFERENCE_PROBE_S = 0.21


@dataclass
class Job:
    """One closed-loop request.

    run(tracer, out) stores named answers in `out` as it computes them, so
    a job that fails part way keeps the answers it produced; names starting
    with "log" are natural logarithms and enter max_log_err.  direct(out)
    is the untraced call a user makes; it defaults to run(NULL, out).
    `expected` is a dict of answers, or a function returning one, so that
    oracle work can wait until set-up has been timed (see resolve_oracles).
    A job with a `defect` is a known defect of the program (see
    Workload.defects).
    """

    label: str
    run: Callable
    expected: dict | Callable
    direct: Callable | None = None
    defect: str | None = None
    extras: Callable | None = None  # traced-only side calls outside the job

    def call_direct(self, out):
        if self.direct is not None:
            self.direct(out)
        else:
            self.run(NULL, out)


@dataclass
class Workload:
    # known defects: checked once per run, untimed and outside the measured
    # jobs, so no measured job fails; they enter fail_ratio and max_log_err
    defects: list
    deck: list  # replayed in shuffled cycles for the whole run
    warmup: list = field(default_factory=list)
    instrument: Callable | None = None  # tracer -> targets for tracer.patched
    # each job is a fresh process: its cost is process start and import,
    # which the probe tracks and calibrate() does not
    subprocess_jobs: bool = False
    # peak resident memory of the job processes (kB), for subprocess jobs
    peak_rss_kb: Callable | None = None


def resolve_oracles(workload):
    """Compute every job's expected answers.  The worker calls this after it
    reports ready, so set-up times the import and the inputs only."""
    for job in workload.defects + workload.deck + workload.warmup:
        if callable(job.expected):
            job.expected = job.expected()


_RNG = np.random.default_rng(0)
_SMALL = _RNG.normal(size=(48, 48)) * (1 + 1j)
_SMALL = _SMALL + _SMALL.conj().T
_STACK = _RNG.normal(size=(256, 3, 3)) * (1 + 1j)
_STACK = _STACK + np.swapaxes(_STACK, -1, -2).conj()


def calibrate():
    """Seconds for one fixed slice of the work jobs are made of: small dense
    eigen and singular value decompositions, a batch of tiny ones as the
    torus grids use, and a plain Python loop.  Run between jobs, it tracks
    how fast the machine is at that moment."""
    start = time.perf_counter()
    for _ in range(3):
        np.linalg.eigvalsh(_SMALL)
        np.linalg.svd(_SMALL[:32, :32], compute_uv=False)
        np.linalg.eigvalsh(_STACK)
    total = 0
    for i in range(6000):
        total += i * i
    return time.perf_counter() - start


def probe(cwd=None, env=None):
    """Seconds for one probe process.  It runs without a timeout: waiting
    with one polls for the exit in steps of up to 50 ms."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROBE], cwd=cwd, env=env, check=True)
    return time.perf_counter() - start


def check(job, answers):
    """(passed, largest log error) of one job's answers against its oracle."""
    passed = True
    worst = 0.0
    for name, want in job.expected.items():
        if name not in answers:
            passed = False
            continue
        err = abs(float(answers[name]) - float(want))
        if name.startswith("log"):
            worst = max(worst, err)
        if not err <= TOL:
            passed = False
    return passed, worst


def same_answers(a, b):
    """Replay and direct call agree to the last few bits."""
    if a.keys() != b.keys():
        return False
    return all(abs(a[k] - b[k]) <= 1e-12 * max(1.0, abs(b[k])) for k in a)


def schedule(workload, rng, seconds, clock=time.perf_counter):
    """Jobs in run order: whole cycles of the deck, each in a fresh
    shuffled order.  The first cycle always runs; another
    starts only if a cycle as long as the last one still ends within
    `seconds`, so every run holds the same mix of jobs."""
    start = clock()
    while True:
        began = clock()
        for i in rng.permutation(len(workload.deck)):
            yield workload.deck[i]
        now = clock()
        if now - start + (now - began) > seconds:
            return
