"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

Kept out of the repository's default test collection (the file name does
not match test_*.py); they run the benchmark's own code and a few short
benchmark invocations.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import common  # noqa: E402
import metrics  # noqa: E402
import oracles as O  # noqa: E402
from tracer import Tracer  # noqa: E402

# metric names as specified for this benchmark (the tables in README.md)
SPEC_END_TO_END = [
    "setup_s", "job_ms_p50", "job_ms_p90", "jobs_per_s", "fail_ratio", "max_log_err",
    "peak_rss_mb",
]
SPEC_PER_LAYER = [
    "torsion.assemble_coefficients_ms", "modules.direct_sum_many_ms", "torsion.carrier_dim",
    "torsion.block_dim", "complexes.torsion_iso_via_exact_sequences_ms",
    "complexes.torsion_iso_via_laplacians_ms", "complexes.hodge_ms",
    "complexes.determinant_class_check_ms", "torsion.check_unimodular_ms",
    "torsion.invariance_check_ms", "fixtures.split_edge_ms", "algebra.build_group_algebra_ms",
    "algebra.group_order", "modules.regular_module_ms",
    "modules.CommutantOperator.from_matrix_ms", "determinant.fk_det_spectral_ms",
    "determinant.fk_det_ms", "determinant.fk_det_path_ms", "lines.pushforward_ms",
    "lines.exact_sequence_iso_ms", "symbols.evaluate_grid.L0_ms",
    "symbols.evaluate_grid.L1_ms", "symbols.evaluate_grid.L2_ms", "symbols.grid_nodes",
    "symbols.branches", "symbols.abelian_fk_det_ms", "symbols.abelian_fk_det_general_ms",
    "symbols.abelian_dense_isomorphism_check_ms", "symbols.abelian_torsion_ms",
    "cli.interpreter_ms", "cli.import_ms", "documents.load_document_ms",
    "documents.decode.module_ms", "documents.decode.operator_ms",
    "documents.decode.complex_ms", "documents.decode.cell_complex_ms",
    "documents.decode.representation_ms", "documents.decode.symbol_ms",
    "documents.report_ms", "cli.main_ms",
]
TRACE_EXTRAS = ["trace.overhead_pct", "trace.remainder_pct", "trace.circle64_c5_stage_ratio"]


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


# -- seeds -------------------------------------------------------------------


def _groupops_inputs(seed):
    import wl_groupops

    rng = np.random.default_rng(seed)
    return [
        wl_groupops.operator_matrix(rng, factory(), m) for _, factory, m in wl_groupops.DECK
    ]


def test_seed_reproduces_operators():
    a, b, c = _groupops_inputs(5), _groupops_inputs(5), _groupops_inputs(6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_seed_reproduces_symbols():
    import wl_torus

    def draw(seed):
        rng = np.random.default_rng(seed)
        return [wl_torus.seeded_symbol(rng, r, s) for r, s in wl_torus.SHAPES]

    a, b, c = draw(5), draw(5), draw(6)
    for x, y in zip(a, b):
        assert x.keys() == y.keys()
        assert all(np.array_equal(x[k], y[k]) for k in x)
    assert not all(np.array_equal(x[(0,) * len(k)], y[(0,) * len(k)])
                   for x, y, k in zip(a, c, [next(iter(x)) for x in a]))


def test_seed_reproduces_documents(tmp_path):
    import wl_cli

    def docs(seed, folder):
        wl_cli.build(seed, str(folder), _env())
        base = folder / ".perfbench" / f"docs-{seed}"
        return {p.name: p.read_text() for p in sorted(base.iterdir())}

    first = docs(7, tmp_path / "a")
    assert first == docs(7, tmp_path / "b")
    assert first != docs(8, tmp_path / "c")


# -- oracles -----------------------------------------------------------------


def test_oracles_reproduce_known_values():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    smyth = 3 * mpmath.sqrt(3) / (4 * mpmath.pi) * (
        mpmath.psi(1, mpmath.mpf(1) / 3) - mpmath.psi(1, mpmath.mpf(2) / 3)
    ) / 9
    assert abs(float(smyth) - O.SMYTH_1_X_Y) < 1e-16
    log_t, betti = O.cellular_torsion(O.circle_cells(64), O.cyclic_characters(5))
    assert abs(math.exp(log_t) - 0.3154786722401) < 1e-12
    assert betti == pytest.approx([0.2, 0.2])
    # circle through the sign character: coordinate 1/2
    assert O.cellular_torsion(O.circle_cells(1), [((-1.0,), 1.0)])[0] == pytest.approx(
        math.log(0.5)
    )
    # t - 2 has Mahler measure log 2; 2 + x + y has no zero on the torus
    assert O.mahler({(0,): np.array([[-2.0]]), (1,): np.eye(1)}) == pytest.approx(math.log(2))
    one = np.eye(1)
    two = {(0, 0): 2 * one, (1, 0): one, (0, 1): one}
    assert O.mahler(two, outer=256) == pytest.approx(O.mahler(two, outer=512), abs=1e-13)


def test_check_fails_perturbed_answer():
    import wl_cellular

    workload = wl_cellular.build(0)
    common.resolve_oracles(workload)
    job = workload.deck[0]
    out = {}
    job.call_direct(out)
    assert common.check(job, out)[0]
    bad = dict(out, log_coordinate=out["log_coordinate"] + 1e-6)
    passed, worst = common.check(job, bad)
    assert not passed and worst == pytest.approx(1e-6, rel=1e-3)
    assert not common.check(job, {"log_exact_route": out["log_exact_route"]})[0]


# -- tracing -----------------------------------------------------------------


def test_traced_replay_equals_direct_call():
    import wl_cellular

    workload = wl_cellular.build(0)
    tracer = Tracer()
    for job in workload.deck[:3] + [workload.deck[9]]:
        direct, replay = {}, {}
        job.call_direct(direct)
        with tracer.span("job"):
            job.run(tracer, replay)
        assert common.same_answers(direct, replay), job.label
    names = {s[0] for s in tracer.spans}
    assert {"torsion.assemble_coefficients", "complexes.hodge",
            "complexes.torsion_iso_via_exact_sequences"} <= names


def test_schedule_runs_a_whole_cycle_without_the_defects():
    workload = common.Workload(defects=["p"], deck=list("abcd"))
    order = list(common.schedule(workload, np.random.default_rng(0), seconds=0.0))
    assert sorted(order) == list("abcd")


# -- metric names --------------------------------------------------------------


def test_metric_names_match_spec_and_benchmark_json():
    bench = _bench()
    assert list(metrics.END_TO_END) == SPEC_END_TO_END
    assert sorted(metrics.PER_LAYER) == sorted(SPEC_PER_LAYER + TRACE_EXTRAS)
    assert [m["name"] for m in bench["end_to_end"]] == list(metrics.END_TO_END)
    assert [m["unit"] for m in bench["end_to_end"]] == list(metrics.END_TO_END.values())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(metrics.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "torus-quadrature",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in _bench()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cellular-torsion",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
