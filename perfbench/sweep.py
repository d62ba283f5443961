"""Scaling sweep outside the gated workloads, run once by hand.

    python3 perfbench/sweep.py [--out perfbench/SWEEP.json]

Times torsion(circle(k), C[Z/3]) for k = 4..256, build_group_algebra and
the path and spectral determinant routes over C[Z/n] for n = 3..64, and
abelian_fk_det_general over torus grid resolutions, with each answer's
distance from its oracle.  It also records the baselines the roadmap
quotes: interpreter start, `import detline`, fk_det_path against
fk_det_spectral, and torsion(circle(64), C[Z/5]).  One BLAS thread, as in
the benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import detline as dl  # noqa: E402
import oracles as O  # noqa: E402
import wl_groupops  # noqa: E402
import wl_torus  # noqa: E402
from detline.modules import regular_module  # noqa: E402
from machine import machine_block  # noqa: E402


def timed(fn, repeat=1):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return result, 1e3 * statistics.median(times)


def subprocess_ms(code, repeat=5):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    _, ms = timed(lambda: subprocess.run([sys.executable, "-c", code], env=env, check=True),
                  repeat)
    return ms


def circle_sweep():
    rep = dl.regular_cyclic_representation(3)
    rows = []
    for k in (4, 8, 16, 32, 64, 128, 256):
        report, ms = timed(lambda: dl.torsion(dl.circle(k), rep), 1 if k > 64 else 3)
        want = O.cellular_torsion(O.circle_cells(k), O.cyclic_characters(3))[0]
        rows.append({"k": k, "group": "Z/3", "carrier_dim": 3 * k, "torsion_ms": ms,
                     "log_err": abs(math.log(report.coordinate) - want)})
        print("circle", rows[-1], flush=True)
    return rows


def cyclic_sweep():
    rng = np.random.default_rng(0)
    rows = []
    for n in (3, 4, 6, 8, 12, 16, 24, 32, 48, 64):
        table = dl.FiniteGroupTable.cyclic(n)
        dec, build_ms = timed(lambda: dl.build_group_algebra(table))
        module = regular_module(dec)
        dense = wl_groupops.operator_matrix(rng, table, 1)
        op = dl.CommutantOperator.from_matrix(module, dense)
        want = O.group_ring_log_det(dense, n)
        path, path_ms = timed(lambda: dl.fk_det_path(module, op), 3)
        star = op.adjoint() @ op
        spectral, spectral_ms = timed(lambda: dl.fk_det_spectral(module, star), 3)
        rows.append({"order": n, "build_group_algebra_ms": build_ms, "fk_det_path_ms": path_ms,
                     "fk_det_spectral_ms": spectral_ms,
                     "path_log_err": abs(path.log_value - want),
                     "spectral_log_err": abs(0.5 * spectral.log_value - want)})
        print("cyclic", rows[-1], flush=True)
    return rows


def grid_sweep():
    rng = np.random.default_rng(0)
    rows = []
    for rank, resolutions in ((1, (256, 1024, 4096, 8192)), (2, (16, 32, 64, 128))):
        terms = wl_torus.seeded_symbol(rng, rank, 2)
        symbol = dl.LaurentMatrix(rank, terms)
        want = O.mahler(terms)
        for res in resolutions:
            grid = dl.TorusGrid(rank, res)
            result, ms = timed(lambda: dl.abelian_fk_det_general(symbol, grid), 3)
            rows.append({"rank": rank, "size": 2, "resolution": res, "nodes": res**rank,
                         "abelian_fk_det_general_ms": ms,
                         "log_err": abs(result.log_value - want)})
            print("grid", rows[-1], flush=True)
    return rows


def baselines():
    dec = dl.build_group_algebra(dl.FiniteGroupTable.cyclic(6))
    module = regular_module(dec)
    dense = wl_groupops.operator_matrix(np.random.default_rng(1), dec.table, 1)
    op = dl.CommutantOperator.from_matrix(module, dense)
    _, path_ms = timed(lambda: dl.fk_det_path(module, op), 5)
    star = op.adjoint() @ op
    _, spectral_ms = timed(lambda: dl.fk_det_spectral(module, star), 5)
    rep = dl.regular_cyclic_representation(5)
    _, torsion_ms = timed(lambda: dl.torsion(dl.circle(64), rep), 3)
    return {
        "interpreter_ms": subprocess_ms("pass"),
        "import_detline_ms": subprocess_ms("import detline"),
        "fk_det_path_ms_C6": path_ms,
        "fk_det_spectral_ms_C6": spectral_ms,
        "torsion_circle64_C5_ms": torsion_ms,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=os.path.join(HERE, "SWEEP.json"))
    args = parser.parse_args()
    result = {
        "machine": machine_block(ROOT),
        "baselines": baselines(),
        "circle": circle_sweep(),
        "cyclic": cyclic_sweep(),
        "torus_grid": grid_sweep(),
    }
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
