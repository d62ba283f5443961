"""Document codecs and command-line entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from detline._linalg import random_complex
from detline.algebra import FiniteGroupTable, build_group_algebra
from detline.cli import main, run_fixture_suite
from detline.documents import (
    decode_algebra,
    decode_cell_complex,
    decode_matrix,
    decode_module,
    decode_representation,
    decode_symbol,
    document_kind,
    encode_matrix,
    encode_symbol,
    structured_report,
    text_report,
)
from detline.errors import ParseError, ValidationError
from detline.fixtures import circle, scalar_representation
from detline.symbols import LaurentMatrix
from detline.torsion import torsion


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CIRCLE_DOC = {
    "generators": ["t"],
    "cells": {"0": ["p"], "1": ["e"]},
    "boundaries": {"1": [[[[1, "t"], [-1, ""]]]]},
}


def rep_doc(value):
    return {
        "module": {"algebra": {"blocks": [[1, 1.0]]}, "multiplicities": [1]},
        "generator_images": {"t": [[value]]},
    }


def symbol_doc(entries, rank=1, size=1):
    return {
        "rank": rank,
        "size": size,
        "coefficients": [{"exponent": e, "matrix": m} for e, m in entries],
    }


# -- matrices -----------------------------------------------------------------


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    mat = random_complex(rng, (3, 4))
    out = decode_matrix(encode_matrix(mat))
    assert out.shape == (3, 4)
    assert np.max(np.abs(out - mat)) == 0.0


def test_matrix_accepts_bare_reals():
    out = decode_matrix([[1, -2.5], [0, 3]])
    assert out.dtype == complex
    assert np.max(np.abs(out - np.array([[1, -2.5], [0, 3.0]]))) == 0.0


def test_matrix_rejects_malformed():
    with pytest.raises(ParseError):
        decode_matrix([[1, 2], [3]])  # ragged
    with pytest.raises(ParseError):
        decode_matrix([[[1, 2, 3]]])  # triple is not re/im
    with pytest.raises(ParseError):
        decode_matrix([["one"]])
    with pytest.raises(ParseError):
        decode_matrix("not a matrix")


# -- algebras and modules -----------------------------------------------------


def test_algebra_from_blocks():
    alg = decode_algebra({"blocks": [[1, 1.0], [2, 0.5]]})
    assert alg.blocks == ((1, 1.0), (2, 0.5))
    with pytest.raises(ParseError):
        decode_algebra({"blocks": [[1, 1.0]], "extra": 0})


def test_algebra_from_group_table():
    table = FiniteGroupTable.cyclic(3)
    product = [[table.product[g][h] for h in range(3)] for g in range(3)]
    doc = {"group_table": {"order": 3, "product": product, "identity": 0}}
    alg = decode_algebra(doc)
    assert alg == build_group_algebra(table).algebra
    doc["group_table"]["order"] = 4
    with pytest.raises(ParseError):
        decode_algebra(doc)


def test_module_explicit_and_generated():
    doc = {"algebra": {"blocks": [[1, 1.0], [2, 0.5]]}, "multiplicities": [2, 1]}
    mod = decode_module(doc)
    assert mod.multiplicities == (2, 1)

    swap = [[0, 1], [1, 0]]
    gen = decode_module({"action_generators": [swap]})
    assert gen.algebra.blocks == ((1, 0.5), (1, 0.5))
    assert gen.carrier_dim == 2


def test_generated_module_order_cap():
    angle = 2.0 * np.pi / 300.0
    rot = [
        [np.cos(angle), -np.sin(angle)],
        [np.sin(angle), np.cos(angle)],
    ]
    with pytest.raises(ValidationError):
        decode_module({"action_generators": [encode_matrix(np.array(rot))]})


# -- cell complexes and representations ---------------------------------------


def test_cell_complex_matches_fixture():
    decoded = decode_cell_complex(CIRCLE_DOC)
    built = circle()
    assert [len(c) for c in decoded.cells] == [len(c) for c in built.cells]
    assert decoded.generators == built.generators
    rep = scalar_representation({"t": -1.0})
    a = torsion(decoded, rep).coordinate
    b = torsion(built, rep).coordinate
    assert abs(a - b) < 1e-12
    assert abs(a - 0.5) < 1e-12


def test_cell_complex_rejects_gaps_and_ragged_rows():
    bad = dict(CIRCLE_DOC, cells={"0": ["p"], "2": ["f"]})
    with pytest.raises(ParseError):
        decode_cell_complex(bad)
    bad = dict(CIRCLE_DOC, boundaries={"1": [["not a row entry list"]]})
    with pytest.raises(ParseError):
        decode_cell_complex(bad)


def test_representation_forms():
    by_name = decode_representation(rep_doc(-1.0), ["t"])
    as_list = decode_representation(
        dict(rep_doc(-1.0), generator_images=[[[-1.0]]]), ["t"]
    )
    assert np.allclose(
        by_name.images["t"].to_matrix(), as_list.images["t"].to_matrix()
    )
    with pytest.raises(ParseError):
        decode_representation(dict(rep_doc(1.0), generator_images=[]), ["t"])
    with pytest.raises(ParseError):
        decode_representation(
            dict(rep_doc(1.0), generator_images={"s": [[1.0]]}), ["t"]
        )


# -- symbols -------------------------------------------------------------------


def test_symbol_roundtrip():
    rng = np.random.default_rng(3)
    coeffs = {
        (0,): random_complex(rng, (2, 2)),
        (1,): random_complex(rng, (2, 2)),
        (-2,): random_complex(rng, (2, 2)),
    }
    symbol = LaurentMatrix(1, coeffs)
    back = decode_symbol(encode_symbol(symbol))
    assert back.rank == 1 and back.size == 2
    for key, mat in coeffs.items():
        assert np.max(np.abs(back.coefficients[key] - mat)) == 0.0


def test_symbol_rejects_duplicates_and_shape():
    doc = symbol_doc([(0, [[1.0]]), ([0], [[2.0]])])
    with pytest.raises(ParseError):
        decode_symbol(doc)
    with pytest.raises(ParseError):
        decode_symbol(symbol_doc([(0, [[1.0, 0.0]])]))


# -- document kinds and reports ------------------------------------------------


def test_document_kind_dispatch():
    assert document_kind(symbol_doc([(0, [[1.0]])])) == "symbol"
    assert document_kind(CIRCLE_DOC) == "cell_complex"
    assert document_kind(rep_doc(1.0)) == "representation"
    assert document_kind({"algebra": {}, "multiplicities": []}) == "module"
    assert document_kind({"action_generators": []}) == "module"
    assert (
        document_kind({"algebra": {}, "modules": [], "boundaries": []}) == "complex"
    )


def test_structured_report_deterministic():
    a = structured_report({"b": 1, "a": [1.5, 2.0], "z": {"y": 1, "x": 2}})
    b = structured_report({"z": {"x": 2, "y": 1}, "a": [1.5, 2.0], "b": 1})
    assert a == b
    parsed = json.loads(a)
    assert parsed["format_version"] == 1

    flat = text_report({"value": 2.0, "nested": {"inner": "ok"}})
    assert "value: 2" in flat
    assert "nested.inner: ok" in flat


# -- command line ---------------------------------------------------------------


def test_cli_torsion_circle(tmp_path, capsys):
    cc = write_doc(tmp_path, "circle.json", CIRCLE_DOC)
    rep = write_doc(tmp_path, "rep.json", rep_doc(-1.0))
    code, out, err = run_cli(capsys, ["torsion", cc, rep])
    assert code == 0 and err == ""
    assert "coordinate: 0.5" in out
    assert "chi: 0" in out


def test_cli_torsion_refuses_nonunimodular(tmp_path, capsys):
    cc = write_doc(tmp_path, "circle.json", CIRCLE_DOC)
    rep = write_doc(tmp_path, "rep.json", rep_doc(2.0))
    code, out, err = run_cli(capsys, ["torsion", cc, rep])
    assert code == 2 and out == ""
    assert err.startswith("refusal: NotUnimodular")
    assert "2" in err  # names the offending determinant


def test_cli_det_module_routes_agree(tmp_path, capsys):
    rng = np.random.default_rng(11)
    doc = {"algebra": {"blocks": [[1, 1.0], [2, 0.5]]}, "multiplicities": [2, 1]}
    mod = decode_module(doc)
    blocks = []
    for m in mod.multiplicities:
        b = random_complex(rng, (m, m))
        blocks.append(b.conj().T @ b + np.eye(m))
    full = np.zeros((mod.carrier_dim,) * 2, dtype=complex)
    full[:2, :2] = np.kron(blocks[0], np.eye(1))
    full[2:, 2:] = np.kron(np.eye(2), blocks[1])
    mod_path = write_doc(tmp_path, "module.json", doc)
    op_path = write_doc(tmp_path, "op.json", {"matrix": encode_matrix(full)})

    values = {}
    for method in ("path", "spectral"):
        code, out, err = run_cli(
            capsys,
            ["--format", "structured", "det", mod_path, op_path, "--method", method],
        )
        assert code == 0, err
        values[method] = json.loads(out)
    assert values["path"]["backend"] == "module"
    rel = abs(values["path"]["value"] - values["spectral"]["value"])
    assert rel <= 1e-8 * values["spectral"]["value"]


def test_cli_det_symbol(tmp_path, capsys):
    sym = write_doc(tmp_path, "sym.json", symbol_doc([(0, [[-2.0]]), (1, [[1.0]])]))
    code, out, err = run_cli(capsys, ["--format", "structured", "det", sym])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["backend"] == "torus"
    assert abs(payload["value"] - 2.0) < 1e-8
    assert payload["convergence"]["status"] == "convergent"


def test_cli_det_symbol_divergent_refuses(tmp_path, capsys):
    mat = [[1.5e-3, 0, 0], [0, 1.5e-4, 0], [0, 0, 1]]
    sym = write_doc(tmp_path, "sym.json", symbol_doc([(0, mat)], size=3))
    code, out, err = run_cli(capsys, ["det", sym])
    assert code == 2 and out == ""
    assert err.startswith("refusal: DivergentIntegral")


def test_cli_classcheck_divergent_is_a_result(tmp_path, capsys):
    mat = [[1.5e-3, 0, 0], [0, 1.5e-4, 0], [0, 0, 1]]
    sym = write_doc(tmp_path, "sym.json", symbol_doc([(0, mat)], size=3))
    code, out, err = run_cli(capsys, ["--format", "structured", "classcheck", sym])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["refusal"] == "DivergentIntegral"
    assert "value" not in payload


def test_cli_betti_and_zeta(tmp_path, capsys):
    doc = {
        "algebra": {"blocks": [[1, 1.0]]},
        "modules": [[1], [1]],
        "boundaries": [[[2.0]]],
    }
    cx = write_doc(tmp_path, "cx.json", doc)
    code, out, err = run_cli(capsys, ["--format", "structured", "betti", cx])
    assert code == 0, err
    assert json.loads(out)["betti"] == [0, 0]

    code, out, err = run_cli(capsys, ["--format", "structured", "zeta", cx])
    assert code == 0, err
    payload = json.loads(out)
    assert abs(payload["normalization"] - 2.0) < 1e-12
    assert abs(payload["laplacian_product"] - 2.0) < 1e-12
    assert abs(payload["zeta_prime"][0] + np.log(4.0)) < 1e-12


def test_cli_betti_cell_complex(tmp_path, capsys):
    cc = write_doc(tmp_path, "circle.json", CIRCLE_DOC)
    rep = write_doc(tmp_path, "rep.json", rep_doc(1.0))
    code, out, err = run_cli(capsys, ["--format", "structured", "betti", cc, rep])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["betti"] == [1.0, 1.0]
    assert payload["euler_characteristic"] == 0


def test_cli_invariance(tmp_path, capsys):
    cc = write_doc(tmp_path, "circle.json", CIRCLE_DOC)
    rep = write_doc(tmp_path, "rep.json", rep_doc(-1.0))
    code, out, err = run_cli(capsys, ["--format", "structured", "invariance", cc, rep])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["discrepancy"] < 1e-10
    assert abs(payload["before"] - 0.5) < 1e-12


def test_cli_input_errors(tmp_path, capsys):
    code, out, err = run_cli(capsys, ["torsion", "missing.json", "also_missing.json"])
    assert code == 1
    assert err.startswith("error:")

    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    cc = write_doc(tmp_path, "circle.json", CIRCLE_DOC)
    code, out, err = run_cli(capsys, ["torsion", str(bad), cc])
    assert code == 1
    assert err.startswith("error:")


def test_cli_fixture_suite(capsys):
    code = run_fixture_suite("text")
    out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert all(line.startswith("ok") for line in lines)
    assert lines[-1].startswith("ok   fixture suite")
    assert len(lines) >= 16


def test_cli_import_loads_no_scipy():
    # scipy is loaded only by the polar path route and ZetaReport.mellin_zeta
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = (
        "import detline.cli, sys; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
