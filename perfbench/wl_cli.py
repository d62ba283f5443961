"""cli-documents: one fresh `python -m detline.cli` process per job on
generated JSON documents.

The mix covers det (module and operator with each --method, and torus
symbols), betti, torsion, invariance, zeta and classcheck, in text and
structured form.  On documents this small the interpreter start and
`import detline` dominate, and document decoding runs the carrier-matrix
path, so cost moved between compute and I/O shows here.  The seed draws
every matrix and symbol; the document shapes are fixed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

import oracles as O
import wl_torus
from common import Job, Workload
from tracer import spanning

# algebra C + M2(C) + M3(C) with trace weights 1, 1/2, 1/3
BLOCKS = [[1, 1.0], [2, 0.5], [3, 1.0 / 3.0]]
MULTIPLICITIES = [3, 2, 2]


def _matrix(a):
    a = np.asarray(a, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in a]


def _block_operator(rng, positive):
    """Carrier matrix blkdiag_k(1_{n_k} (x) F_k) and sum_k w_k log |det F_k|."""
    blocks = []
    log_det = 0.0
    for (n, w), m in zip(BLOCKS, MULTIPLICITIES):
        z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        if positive:
            f = z @ z.conj().T / m + 0.5 * np.eye(m)
        else:
            f = math.exp(rng.uniform(-0.7, 0.7)) * (np.eye(m) + 0.4 * z / np.linalg.norm(z, 2))
        log_det += w * float(np.linalg.slogdet(f)[1])
        blocks.append(np.kron(np.eye(n), f))
    size = sum(b.shape[0] for b in blocks)
    dense = np.zeros((size, size), dtype=complex)
    at = 0
    for b in blocks:
        dense[at : at + b.shape[0], at : at + b.shape[0]] = b
        at += b.shape[0]
    return {"matrix": _matrix(dense)}, log_det


def _symbol_doc(terms):
    size = next(iter(terms.values())).shape[0]
    return {
        "rank": len(next(iter(terms))),
        "size": size,
        "coefficients": [
            {"exponent": list(k), "matrix": _matrix(c)} for k, c in terms.items()
        ],
    }


def _word(exponent):
    return "" if exponent == 0 else ("t" if exponent == 1 else f"t^{exponent}")


def _cells_doc(boundaries, cells):
    """Cell complex document from oracle-style boundary data over one generator."""
    rows = {}
    for d, matrix in enumerate(boundaries, start=1):
        rows[str(d)] = [
            [[[coeff, _word(k[0])] for k, coeff in entry.items()] for entry in row]
            for row in matrix
        ]
    return {
        "generators": ["t"],
        "cells": {str(d): labels for d, labels in enumerate(cells)},
        "boundaries": rows,
    }


def _circle_doc(k):
    cells = [[f"p{i}" for i in range(k)], [f"e{i}" for i in range(k)]]
    return _cells_doc(O.circle_cells(k), cells)


def _lens_doc(n):
    return _cells_doc(O.lens_cells(n), [["v"], ["e"], ["F"], ["S"]])


def _regular_rep_doc(n):
    shift = np.roll(np.eye(n), 1, axis=0)
    return {
        "module": {"action_generators": [shift.tolist()]},
        "generator_images": {"t": shift.tolist()},
    }


def _complex_doc(rng, rows, cols):
    d = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    doc = {
        "algebra": {"blocks": [[1, 1.0]]},
        "modules": [[rows], [cols]],
        "boundaries": [_matrix(d)],
        "convention": "chain",
    }
    sv = np.linalg.svd(d, compute_uv=False)
    zeta = -float(np.sum(np.log(sv**2)))
    betti = [rows - np.sum(sv > 1e-9), cols - np.sum(sv > 1e-9)]
    return doc, zeta, [float(b) for b in betti]


def parse_output(text, structured):
    if structured:
        return json.loads(text)
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        value = value.replace("True", "true").replace("False", "false")
        try:
            out[key] = json.loads(value)
        except ValueError:
            out[key] = value
    return out


def answers_of(subcommand, payload):
    if subcommand == "det":
        return {"log_value": payload["log_value"]}
    if subcommand == "betti":
        return {f"betti_{i}": b for i, b in enumerate(payload["betti"])}
    if subcommand == "torsion":
        return {"log_coordinate": math.log(payload["coordinate"])}
    if subcommand == "invariance":
        return {
            "log_before": math.log(payload["before"]),
            "log_after": math.log(payload["after"]),
            "log_predicted_over_after": math.log(payload["predicted"] / payload["after"]),
        }
    if subcommand == "zeta":
        return {f"log_zeta_prime_{i}": z for i, z in enumerate(payload["zeta_prime"])}
    out = {"passed": float(payload["passed"])}
    if "log_value" in payload:
        out["log_value"] = payload["log_value"]
    return out


def run_cli(root, env, argv):
    """Run `python -m detline.cli argv`: (exit code, stdout, stderr, peak
    resident memory in kB).  The output goes to files, so the process can be
    reaped with wait4, which reports its own peak memory.  There is no
    timeout: a wait with one polls for the exit in steps of up to 50 ms,
    which the job time would pick up; run.py ends the worker and its
    children at its deadline instead."""
    scratch = os.path.join(root, ".perfbench")
    with tempfile.TemporaryFile("w+", dir=scratch) as stdout, \
            tempfile.TemporaryFile("w+", dir=scratch) as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "detline.cli", *argv],
            cwd=root, env=env, stdout=stdout, stderr=stderr,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        return proc.returncode, stdout.read(), stderr.read(), usage.ru_maxrss


def cli_job(root, env, peaks, label, argv, expected, defect=None):
    """A job that runs `python -m detline.cli argv` in a fresh process and
    appends its peak memory to `peaks`; its traced replay runs
    cli.main(argv) in this process."""
    structured = "--format=structured" in argv
    subcommand = argv[0]

    def direct(out):
        code, stdout, stderr, peak_kb = run_cli(root, env, argv)
        peaks.append(peak_kb)
        if code != 0:
            raise RuntimeError(f"exit {code}: {stderr.strip()}")
        out.update(answers_of(subcommand, parse_output(stdout, structured)))

    def run(tr, out):
        from detline import cli

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = tr.call("cli.main", cli.main, argv)
        if code != 0:
            raise RuntimeError(f"exit {code}")
        out.update(answers_of(subcommand, parse_output(buffer.getvalue(), structured)))

    return Job(label, run, expected, direct=direct, defect=defect)


DECODERS = ("module", "operator", "complex", "cell_complex", "representation", "symbol")


def instrument(tracer):
    from detline import documents

    targets = [
        (documents, "load_document", spanning(tracer, "documents.load_document")),
        (documents, "structured_report", spanning(tracer, "documents.report")),
        (documents, "text_report", spanning(tracer, "documents.report")),
    ]
    for kind in DECODERS:
        targets.append((documents, f"decode_{kind}", spanning(tracer, f"documents.decode.{kind}")))
    return targets


def build(seed, root, env):
    rng = np.random.default_rng(seed)
    folder = os.path.join(".perfbench", f"docs-{seed}")
    os.makedirs(os.path.join(root, folder), exist_ok=True)

    def write(name, doc):
        path = os.path.join(folder, name)
        with open(os.path.join(root, path), "w") as handle:
            json.dump(doc, handle)
        return path

    peaks = []
    command_job = functools.partial(cli_job, root, env, peaks)
    module = write("module.json", {"algebra": {"blocks": BLOCKS}, "multiplicities": MULTIPLICITIES})
    positive, log_positive = _block_operator(rng, positive=True)
    general, log_general = _block_operator(rng, positive=False)
    pos = write("positive.json", positive)
    gen = write("general.json", general)

    sym1_terms = wl_torus.seeded_symbol(rng, 1, 2)
    sym2_terms = wl_torus.seeded_symbol(rng, 2, 2)
    sym1 = write("symbol1.json", _symbol_doc(sym1_terms))
    sym2 = write("symbol2.json", _symbol_doc(sym2_terms))
    herm_terms = wl_torus.seeded_symbol(rng, 1, 2)
    herm = {}
    for a, ca in herm_terms.items():
        for b, cb in herm_terms.items():
            key = (b[0] - a[0],)
            herm[key] = herm.get(key, 0) + ca.conj().T @ cb
    hsym = write("hermitian.json", _symbol_doc(herm))

    circle16 = write("circle16.json", _circle_doc(16))
    circle8 = write("circle8.json", _circle_doc(8))
    lens5 = write("lens5.json", _lens_doc(5))
    rep5 = write("rep5.json", _regular_rep_doc(5))
    rep4 = write("rep4.json", _regular_rep_doc(4))
    cx_doc, zeta, betti = _complex_doc(rng, 3, 4)
    cx = write("complex.json", cx_doc)

    @functools.cache
    def ref():
        """Oracle answers shared by several jobs, computed once."""
        t16, b16 = O.cellular_torsion(O.circle_cells(16), O.cyclic_characters(5))
        return {
            "t16": t16,
            "b16": {f"betti_{i}": b for i, b in enumerate(b16)},
            "t8": O.cellular_torsion(O.circle_cells(8), O.cyclic_characters(4))[0],
            "t9": O.cellular_torsion(O.circle_cells(9), O.cyclic_characters(4))[0],
            "lens": O.cellular_torsion(O.lens_cells(5), O.cyclic_characters(5))[0],
        }

    s = "--format=structured"
    deck = [
        command_job("det spectral", ["det", module, pos, "--method", "spectral"], {"log_value": log_positive}),
        command_job("det path", ["det", module, gen, "--method", "path", s], {"log_value": log_general}),
        command_job("det polar", ["det", module, gen], {"log_value": log_general}),
        command_job("det symbol rank 1", ["det", sym1], lambda: {"log_value": O.mahler(sym1_terms)}),
        command_job("det symbol rank 2", ["det", sym2, s], lambda: {"log_value": O.mahler(sym2_terms)}),
        command_job("betti cells", ["betti", circle16, rep5, s], lambda: ref()["b16"]),
        command_job("betti complex", ["betti", cx], {f"betti_{i}": b for i, b in enumerate(betti)}),
        command_job("torsion circle", ["torsion", circle16, rep5], lambda: {"log_coordinate": ref()["t16"]}),
        command_job("torsion lens", ["torsion", lens5, rep5, s], lambda: {"log_coordinate": ref()["lens"]}),
        command_job(
            "invariance circle",
            ["invariance", circle8, rep4, "--split-edge", "e0", s],
            lambda: {"log_before": ref()["t8"], "log_after": ref()["t9"], "log_predicted_over_after": 0.0},
        ),
        command_job("zeta complex", ["zeta", cx], {"log_zeta_prime_0": zeta, "log_zeta_prime_1": zeta}),
        command_job("classcheck complex", ["classcheck", cx, s], {"passed": 1.0}),
        command_job(
            "classcheck symbol",
            ["classcheck", hsym],
            lambda: {"passed": 1.0, "log_value": 2.0 * O.mahler(herm_terms)},
        ),
    ]
    one = np.eye(1)
    smyth = write("smyth.json", _symbol_doc({(0, 0): one, (1, 0): one, (0, 1): one}))
    diag = write("diag.json", _symbol_doc({(0,): np.diag([1.5e-3, 1.5e-4, 1.0])}))
    defects = [
        command_job(
            "det 1+x+y",
            ["det", smyth, s],
            {"log_value": O.SMYTH_1_X_Y},
            defect="rank-2 quadrature of 1+x+y misses Smyth's value by 1.8e-6",
        ),
        command_job(
            "det diag(1.5e-3, 1.5e-4, 1) spectral",
            ["det", diag, "--method", "spectral"],
            {"log_value": math.log(1.5e-3 * 1.5e-4)},
            defect="excision heuristic refuses a finite determinant (DivergentIntegral)",
        ),
    ]
    return Workload(
        defects=defects,
        deck=deck,
        warmup=[deck[6]],
        instrument=instrument,
        subprocess_jobs=True,
        peak_rss_kb=lambda: max(peaks),
    )
