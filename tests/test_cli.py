"""Document codecs and command-line entry point."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from detline._linalg import gram_hash, random_complex
from detline.algebra import FiniteGroupTable, FiniteVonNeumannAlgebra, build_group_algebra
from detline.complexes import HilbertianChainComplex, determinant_class_check, hodge, zeta_suite
from detline.cli import main, run_fixture_suite
from detline.documents import (
    FORMAT_VERSION,
    decode_algebra,
    decode_cell_complex,
    decode_complex,
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
from test_acceptance import make_complex, random_gram_matrix


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


CYCLIC3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def test_oversized_group_table_is_refused_before_its_rows_are_decoded(monkeypatch):
    # decoding and validating the rows of an order-1024 table took seconds
    # before build_group_algebra refused it
    from detline import documents

    def refuse(*args):
        raise AssertionError("the table was decoded")

    monkeypatch.setattr(documents, "_decode_rows", refuse)
    monkeypatch.setattr(FiniteGroupTable, "validate", refuse)
    rows = [list(range(1024))] * 1024
    for order, product in [(1024, rows), (3, rows), (1024, CYCLIC3)]:
        doc = {"group_table": {"order": order, "product": product}}
        with pytest.raises(ValidationError, match="^group order 1024 exceeds limit 256$"):
            decode_algebra(doc)


@pytest.mark.parametrize(
    "group_table,where",
    [
        ({"order": 2, "product": [[0, 1], [1]]}, "product[1]"),
        ({"order": "3", "product": CYCLIC3}, "order"),
        ({"order": 3, "product": CYCLIC3, "identity": "0"}, "identity"),
        ({"order": 2, "product": [[0, 1.5], [1, 0]]}, "product[0][1]"),
    ],
    ids=["ragged-product", "string-order", "string-identity", "fractional-entry"],
)
def test_malformed_group_table_is_a_parse_error(group_table, where):
    with pytest.raises(ParseError, match=rf"algebra\.group_table\.{re.escape(where)}:"):
        decode_algebra({"group_table": group_table})


@pytest.mark.parametrize(
    "generators,where",
    [
        ([[[0, 1, 0], [1, 0, 0]]], "[0]"),
        ([[[0, 1], [1, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 1]]], "[1]"),
    ],
    ids=["non-square", "mixed-shapes"],
)
def test_malformed_action_generators_are_a_parse_error(generators, where):
    with pytest.raises(ParseError, match=rf"module\.action_generators{re.escape(where)}:"):
        decode_module({"action_generators": generators})


def test_fractional_multiplicity_is_a_parse_error():
    alg = {"blocks": [[1, 1.0]]}
    with pytest.raises(ParseError, match=r"module\.multiplicities\[0\]:"):
        decode_module({"algebra": alg, "multiplicities": [1.5]})
    doc = {"algebra": alg, "modules": [[1], [1.5]], "boundaries": [[[1]]]}
    with pytest.raises(ParseError, match=r"complex\.modules\[1\]\.multiplicities\[0\]:"):
        decode_complex(doc)


def test_generated_group_past_the_order_limit_is_refused():
    # e^(2 pi i / 257) generates Z/257, one element past the group-algebra
    # limit of 256
    z = np.exp(2j * np.pi / 257)
    with pytest.raises(ValidationError, match="generated group exceeds 256 elements$"):
        decode_module({"action_generators": [[[[z.real, z.imag]]]]})


def test_module_explicit_and_generated():
    doc = {"algebra": {"blocks": [[1, 1.0], [2, 0.5]]}, "multiplicities": [2, 1]}
    mod = decode_module(doc)
    assert mod.multiplicities == (2, 1)

    swap = [[0, 1], [1, 0]]
    gen = decode_module({"action_generators": [swap]})
    assert gen.algebra.blocks == ((1, 0.5), (1, 0.5))
    assert gen.carrier_dim == 2


def permutation(images):
    mat = np.zeros((len(images), len(images)))
    mat[images, np.arange(len(images))] = 1.0
    return mat.tolist()


def test_generated_module_from_two_generators():
    # S3 from a transposition and a 3-cycle: trivial plus standard
    s3 = decode_module({"action_generators": [permutation([1, 0, 2]), permutation([1, 2, 0])]})
    assert s3.algebra.block_dims == (1, 1, 2)
    assert sorted(s3.multiplicities) == [0, 1, 1]
    # Q8 from the quaternion units i and j: its one 2-dimensional block
    i = np.array([[1j, 0], [0, -1j]])
    j = np.array([[0, 1], [-1, 0]], dtype=complex)
    q8 = decode_module({"action_generators": [encode_matrix(i), encode_matrix(j)]})
    assert q8.algebra.block_dims == (1, 1, 1, 1, 2)
    assert q8.multiplicities == (0, 0, 0, 0, 1)
    assert q8.algebra.weights == pytest.approx((1 / 8,) * 4 + (1 / 4,))


def test_generated_module_takes_linearly_many_svds(monkeypatch):
    # the closure's find confirms a Frobenius prefilter match with one
    # 2-norm, and the product check uses Frobenius residuals, so no SVD is
    # taken per pair of group elements (order 24 took more than 2n^2)
    n = 24
    counts = [0]
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        counts[0] += 1
        return svd(*args, **kwargs)

    # np.linalg.norm(x, 2) calls the svd of numpy's implementation module
    impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(impl, "svd", counted)
    shift = np.roll(np.eye(n), 1, axis=0)
    module = decode_module({"action_generators": [shift.tolist()]})
    assert module.multiplicities == (1,) * n
    assert counts[0] <= 4 * n


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
    assert parsed["format_version"] == 3

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


# v v^H with v = (1, 1/t): det vanishes at every point of the circle
RANK_ONE_DOC = symbol_doc(
    [(0, [[1, 0], [0, 1]]), (1, [[0, 1], [0, 0]]), (-1, [[0, 0], [1, 0]])], size=2
)


def test_cli_det_symbol_divergent_refuses(tmp_path, capsys):
    # the small constant determinant 2.25e-7 is a value; det = 0 is refused
    mat = [[1.5e-3, 0, 0], [0, 1.5e-4, 0], [0, 0, 1]]
    sym = write_doc(tmp_path, "sym.json", symbol_doc([(0, mat)], size=3))
    code, out, err = run_cli(capsys, ["--format", "structured", "det", sym])
    assert code == 0, err
    payload = json.loads(out)
    assert abs(payload["log_value"] - np.log(2.25e-7)) < 1e-12
    assert payload["convergence"]["route"] == "jensen"

    sym = write_doc(tmp_path, "rank_one.json", RANK_ONE_DOC)
    code, out, err = run_cli(capsys, ["det", sym])
    assert code == 2 and out == ""
    assert err.startswith("refusal: KernelDetected")


def test_cli_classcheck_divergent_is_a_result(tmp_path, capsys):
    mat = [[1.5e-3, 0, 0], [0, 1.5e-4, 0], [0, 0, 1]]
    sym = write_doc(tmp_path, "sym.json", symbol_doc([(0, mat)], size=3))
    code, out, err = run_cli(capsys, ["--format", "structured", "classcheck", sym])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["passed"] is True
    assert abs(payload["log_value"] - np.log(2.25e-7)) < 1e-12

    sym = write_doc(tmp_path, "rank_one.json", RANK_ONE_DOC)
    code, out, err = run_cli(capsys, ["--format", "structured", "classcheck", sym])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["refusal"] == "KernelDetected"
    assert "value" not in payload


COMPLEX_DOC = {
    "algebra": {"blocks": [[1, 1.0]]},
    "modules": [[1], [1]],
    "boundaries": [[[2.0]]],
}


def test_cli_betti_and_zeta(tmp_path, capsys):
    cx = write_doc(tmp_path, "cx.json", COMPLEX_DOC)
    code, out, err = run_cli(capsys, ["--format", "structured", "betti", cx])
    assert code == 0, err
    assert json.loads(out)["betti"] == [0, 0]

    code, out, err = run_cli(capsys, ["--format", "structured", "zeta", cx])
    assert code == 0, err
    payload = json.loads(out)
    assert abs(payload["normalization"] - 2.0) < 1e-12
    assert abs(payload["laplacian_product"] - 2.0) < 1e-12
    assert abs(payload["zeta_prime"][0] + np.log(4.0)) < 1e-12


@pytest.mark.parametrize("convention", ["chain", "cochain"])
def test_complex_document_grams(tmp_path, capsys, convention):
    # degree 0 carries a reference_gram, degree 1 a reference_gram that
    # grams[1] overrides, and degree 2 only grams[2]; the decoded complex
    # and the one built in the library give the same betti, zeta and
    # classcheck answers
    rng = np.random.default_rng(43)
    blocks = [[1, 1.0], [2, 0.5]]
    plain = make_complex(
        rng, FiniteVonNeumannAlgebra(tuple(map(tuple, blocks))),
        [(1, 2), (2, 2), (1, 1)], convention, grams=False,
    )
    ref = [random_gram_matrix(rng, m) for m in plain.modules[:2]]
    over = [None] + [random_gram_matrix(rng, m) for m in plain.modules[1:]]
    doc = {
        "algebra": {"blocks": blocks},
        "modules": [
            {"multiplicities": list(m.multiplicities), "reference_gram": encode_matrix(g)}
            for m, g in zip(plain.modules, ref)
        ] + [list(plain.modules[2].multiplicities)],
        "boundaries": [encode_matrix(f.to_matrix()) for f in plain.maps],
        "convention": convention,
        "grams": [None] + [encode_matrix(g) for g in over[1:]],
    }
    decoded = decode_complex(doc)
    grams = [ref[0], over[1], over[2]]
    for m, g in zip(decoded.modules, grams):
        assert np.array_equal(m.reference_gram.matrix, g)
    cx = HilbertianChainComplex(
        [m.with_reference_gram(g) for m, g in zip(plain.modules, grams)], plain.maps, convention
    )

    path = write_doc(tmp_path, "cx.json", doc)
    answers = {}
    for sub in ("betti", "zeta", "classcheck"):
        code, out, err = run_cli(capsys, ["--format", "structured", sub, path])
        assert code == 0, err
        answers[sub] = json.loads(out)
    data = hodge(cx)
    assert answers["betti"]["betti"] == list(data.betti)
    assert answers["betti"]["grams"] == [gram_hash(g) for g in grams]
    zeta = zeta_suite(cx, data)
    assert answers["zeta"]["zeta_prime"] == list(zeta.zeta_prime)
    for key in ("combined_prime", "normalization", "laplacian_product"):
        assert answers["zeta"][key] == getattr(zeta, key)
    verdicts = determinant_class_check(cx, data)
    assert answers["classcheck"]["passed"] is verdicts.passed
    assert answers["classcheck"]["per_degree"] == [{"status": r.status} for r in verdicts.per_degree]


@pytest.mark.parametrize("subcommand", ["det", "betti"])
def test_cli_hashes_an_identity_gram_from_its_size(
    tmp_path, capsys, refuse_carrier_matrices, subcommand
):
    # M_40(C) at multiplicity 1: a carrier of 40 with 1 x 1 blocks, whose
    # identity gram is reported by its digest with no 40 x 40 identity built
    alg = {"blocks": [[40, 1.0]]}
    op = encode_matrix(2.0 * np.eye(40))
    want = gram_hash(np.eye(40))
    if subcommand == "det":
        docs = [{"algebra": alg, "multiplicities": [1]}, {"matrix": op}]
    else:
        docs = [{"algebra": alg, "modules": [[1], [1]], "boundaries": [op]}]
    paths = [write_doc(tmp_path, f"doc{i}.json", d) for i, d in enumerate(docs)]
    refuse_carrier_matrices(8)
    code, out, err = run_cli(capsys, ["--format", "structured", subcommand, *paths])
    assert code == 0, err
    payload = json.loads(out)
    if subcommand == "det":
        assert payload["module_gram"] == want
        assert payload["log_value"] == pytest.approx(np.log(2.0))
    else:
        assert payload["grams"] == [want, want] and payload["betti"] == [0, 0]


def test_cli_betti_cell_complex(tmp_path, capsys):
    cc = write_doc(tmp_path, "circle.json", CIRCLE_DOC)
    rep = write_doc(tmp_path, "rep.json", rep_doc(1.0))
    code, out, err = run_cli(capsys, ["--format", "structured", "betti", cc, rep])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["betti"] == [1.0, 1.0]
    assert payload["euler_characteristic"] == 0


@pytest.mark.parametrize("subcommand", ["betti", "torsion"])
@pytest.mark.parametrize(
    "exponent, message",
    [
        (400, "boundary 1 has a coefficient past the float range"),
    ],
)
def test_cli_refuses_a_boundary_coefficient_past_the_float_range(
    tmp_path, capsys, subcommand, exponent, message
):
    # circle(1) with boundary entry 10**exponent t - 1 and t -> 1: the
    # coefficient itself is no float
    doc = dict(CIRCLE_DOC, boundaries={"1": [[[[10**exponent, "t"], [-1, ""]]]]})
    cc = write_doc(tmp_path, "circle.json", doc)
    rep = write_doc(tmp_path, "rep.json", rep_doc(1.0))
    code, out, err = run_cli(capsys, [subcommand, cc, rep])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_cli_betti_answers_where_the_laplacian_is_past_the_float_range(tmp_path, capsys):
    # a map with singular value 1e200, or 10**300 - 1: Betti numbers need
    # only the singular values, which are floats, while its Laplacian,
    # sigma^2, is not; so betti answers and every command that forms
    # sigma^2 refuses.  A singular value past the float range is refused
    doc = {"algebra": {"blocks": [[1, 1.0]]}, "modules": [[1], [1]], "boundaries": [[[1e200]]]}
    cx = write_doc(tmp_path, "cx.json", doc)
    code, out, err = run_cli(capsys, ["--format", "structured", "betti", cx])
    assert (code, err) == (0, "")
    assert json.loads(out)["betti"] == [0.0, 0.0]
    for subcommand in ("zeta", "classcheck"):
        code, out, err = run_cli(capsys, [subcommand, cx])
        assert (code, out, err) == (1, "", "error: degree 0: the Laplacian is past the float range\n")
    circle_doc = dict(CIRCLE_DOC, boundaries={"1": [[[[10**300, "t"], [-1, ""]]]]})
    cc = write_doc(tmp_path, "circle.json", circle_doc)
    rep = write_doc(tmp_path, "rep.json", rep_doc(1.0))
    code, out, err = run_cli(capsys, ["--format", "structured", "betti", cc, rep])
    assert (code, err) == (0, "")
    assert json.loads(out)["betti"] == [0.0, 0.0]
    code, out, err = run_cli(capsys, ["torsion", cc, rep])
    assert (code, out, err) == (1, "", "error: degree 1: the Laplacian is past the float range\n")
    # entries 1e308 are floats, but the singular value 2e308 is not
    big = [[1e308, 1e308], [1e308, 1e308]]
    doc = {"algebra": {"blocks": [[1, 1.0]]}, "modules": [[2], [2]], "boundaries": [big]}
    code, out, err = run_cli(capsys, ["betti", write_doc(tmp_path, "big.json", doc)])
    assert (code, out, err) == (1, "", "error: map 0: a singular value is past the float range\n")


def test_cli_torsion_past_the_float_range_is_one_error_line(tmp_path, capsys):
    # lens_space(3) with t -> e^(2 pi i / 3) on C with trace weight 450: the
    # Laplacian route's degree-3 factor e^(741.6) overflows; the error is
    # reported as one line, with no floating-point warning (pytest turns
    # warnings into errors)
    root = np.exp(2j * np.pi / 3)
    lens = {
        "generators": ["t"],
        "cells": {"0": ["v"], "1": ["e"], "2": ["F"], "3": ["S"]},
        "boundaries": {
            "1": [[[[1, "t"], [-1, ""]]]],
            "2": [[[[1, ""], [1, "t"], [1, "t^2"]]]],
            "3": [[[[1, "t"], [-1, ""]]]],
        },
    }
    rep = {
        "module": {"algebra": {"blocks": [[1, 450.0]]}, "multiplicities": [1]},
        "generator_images": {"t": [[[root.real, root.imag]]]},
    }
    argv = ["torsion", write_doc(tmp_path, "lens.json", lens), write_doc(tmp_path, "rep.json", rep)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: determinant line coordinate must be positive, got inf\n"


@pytest.mark.parametrize("kernel_tol", ["-1", "0", "1", "nan", "inf"])
@pytest.mark.parametrize("kind", ["complex", "cell_complex"])
def test_cli_betti_refuses_a_kernel_tol_outside_the_unit_interval(tmp_path, capsys, kind, kernel_tol):
    if kind == "complex":
        inputs = [write_doc(tmp_path, "cx.json", COMPLEX_DOC)]
    else:
        inputs = [
            write_doc(tmp_path, "circle.json", CIRCLE_DOC),
            write_doc(tmp_path, "rep.json", rep_doc(1.0)),
        ]
    code, out, err = run_cli(capsys, ["betti", *inputs, "--kernel-tol", kernel_tol])
    assert code == 1
    assert out == ""
    assert err.startswith("error: kernel_tol must lie in (0, 1)")


def test_cli_betti_cell_complex_refuses_a_convention_the_side_contradicts(tmp_path, capsys):
    # a right-side representation gives the chain complex; --convention
    # cochain used to be dropped and the chain report printed
    cc = write_doc(tmp_path, "circle.json", CIRCLE_DOC)
    rep = write_doc(tmp_path, "rep.json", rep_doc(1.0))
    code, out, err = run_cli(capsys, ["betti", cc, rep, "--convention", "cochain"])
    assert code == 1
    assert out == ""
    assert "right side gives the chain complex" in err
    code, out, err = run_cli(capsys, ["--format", "structured", "betti", cc, rep, "--convention", "chain"])
    assert code == 0, err
    assert json.loads(out)["convention"] == "chain"


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


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, which strict JSON has not."""

    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


def test_cli_fixture_suite_structured(capsys):
    code = run_fixture_suite("structured")
    payload = _strict_json(capsys.readouterr().out)
    assert code == 0
    assert payload["format_version"] == FORMAT_VERSION
    assert payload["passed"] is True
    rows = payload["fixtures"]
    assert len(rows) == len({row["name"] for row in rows}) == 23
    assert all(row["passed"] is True for row in rows)


def test_cli_fixture_suite(capsys):
    code = run_fixture_suite("text")
    out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert all(line.startswith("ok") for line in lines)
    assert lines[-1].startswith("ok   fixture suite")
    assert len(lines) >= 16


def test_cli_import_loads_no_scipy():
    # detline depends on numpy only; no module of it imports scipy
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


def test_cli_import_module_set():
    # beyond numpy itself, the CLI loads detline and these standard library
    # modules only; no numpy submodule such as numpy.polynomial
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = (
        "import sys, numpy; before = set(sys.modules); import detline.cli; "
        "print(sorted(m for m in set(sys.modules) - before if not m.startswith('detline')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    gained = set(json.loads(done.stdout.replace("'", '"')))
    allowed = {
        "__future__", "_blake2", "_hashlib", "_json", "argparse", "copy", "dataclasses",
        "gettext", "hashlib", "json", "json.decoder", "json.encoder", "json.scanner",
    }
    assert gained <= allowed, sorted(gained - allowed)


MODULE_LAYER = {"errors", "_linalg", "algebra", "modules", "determinant", "documents"}
TORUS_LAYER = {"errors", "_linalg", "determinant", "documents", "symbols", "_mahler"}
COMPLEX_LAYER = MODULE_LAYER | {"lines", "complexes"}
CELL_LAYER = COMPLEX_LAYER | {"torsion"}


def _cli_module_set(tmp_path, argv):
    """The detline modules one `python -m detline.cli argv` run imports
    (besides the package and cli), read from -X importtime."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "detline.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    names = re.findall(r"\|\s*detline\.(\w+)$", done.stderr, re.M)
    return set(names) - {"cli"}


MODULE_SET_CASES = [
    (["det", "module.json", "operator.json"], MODULE_LAYER, {"symbols", "complexes", "torsion"}),
    (["det", "symbol.json"], TORUS_LAYER, {"algebra", "modules"}),
    (["classcheck", "symbol.json"], TORUS_LAYER, {"algebra", "modules"}),
    (["betti", "complex.json"], COMPLEX_LAYER, {"torsion", "fixtures", "symbols"}),
    (["zeta", "complex.json"], COMPLEX_LAYER, {"torsion", "fixtures", "symbols"}),
    (["classcheck", "complex.json"], COMPLEX_LAYER, {"torsion", "fixtures", "symbols"}),
    (["betti", "circle.json", "rep.json"], CELL_LAYER, {"fixtures", "symbols"}),
    (["torsion", "circle.json", "rep.json"], CELL_LAYER, {"fixtures", "symbols"}),
    (["invariance", "circle.json", "rep.json"], CELL_LAYER | {"fixtures"}, {"symbols"}),
]


@pytest.mark.parametrize(
    "argv, expected, absent",
    MODULE_SET_CASES,
    ids=[" ".join(argv) for argv, _, _ in MODULE_SET_CASES],
)
def test_cli_subcommand_module_set(tmp_path, argv, expected, absent):
    # a run imports, and with bytecode caching off compiles, only what its
    # subcommand and input kind use
    write_doc(tmp_path, "module.json", {"algebra": {"blocks": [[1, 1.0], [2, 0.5]]}, "multiplicities": [1, 1]})
    write_doc(tmp_path, "operator.json", np.diag([2.0, 3.0, 3.0]).tolist())
    # 3 + t + 1/t: positive on the circle, so classcheck passes too
    write_doc(tmp_path, "symbol.json", symbol_doc([([0], [[3.0]]), ([1], [[1.0]]), ([-1], [[1.0]])]))
    write_doc(tmp_path, "complex.json", COMPLEX_DOC)
    write_doc(tmp_path, "circle.json", CIRCLE_DOC)
    write_doc(tmp_path, "rep.json", rep_doc(-1.0))
    loaded = _cli_module_set(tmp_path, argv)
    assert not loaded & absent
    assert loaded == expected


def test_mellin_zeta_loads_no_scipy():
    # the Mellin cross-check integrates by Gauss-Legendre panels in log t
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = (
        "import sys, numpy as np\n"
        "from detline import CommutantOperator, FiniteVonNeumannAlgebra, HilbertianChainComplex\n"
        "from detline import HilbertianModule, zeta_suite\n"
        "mod = HilbertianModule(FiniteVonNeumannAlgebra(((1, 1.0),)), [1])\n"
        "cx = HilbertianChainComplex([mod, mod], [CommutantOperator(mod, [np.array([[2.0]])])])\n"
        "report = zeta_suite(cx)\n"
        "assert abs(report.mellin_zeta(0, 1.0, lam=0.5) - 1.0 / 4.5) < 1e-4\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_cellular_torsion_loads_no_numpy_ma():
    # numpy imports numpy.ma on first use of np.unique and a few other
    # helpers, about 25 ms of a CLI process; the per-shape Hodge, route and
    # assembly code avoids them
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = (
        "import sys\n"
        "from detline import circle, invariance_check, regular_cyclic_representation\n"
        "from detline import split_edge, torsion\n"
        "cx = circle(4)\n"
        "invariance_check(cx, *split_edge(cx, 'e0'), regular_cyclic_representation(3))\n"
        "torsion(cx, regular_cyclic_representation(3, side='left'))\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_polar_path_loads_no_scipy():
    # the path route takes its log-determinant from numpy's LU
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = (
        "import sys, numpy as np\n"
        "from detline import CommutantOperator, FiniteVonNeumannAlgebra, HilbertianModule\n"
        "from detline.determinant import fk_det_path\n"
        "mod = HilbertianModule(FiniteVonNeumannAlgebra(((1, 1.0),)), [2])\n"
        "op = CommutantOperator(mod, [np.diag([-1.0, -2.0])])\n"
        "assert abs(fk_det_path(mod, op).log_value - np.log(2.0)) < 1e-8\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["det", "x.json", "--method", "foo"],
        ["det", "x.json", "--bogus"],
        ["det", "x.json", "--grid", "64"],
        ["frobnicate"],
    ],
    ids=["bad choice", "unknown option", "removed option", "unknown subcommand"],
)
def test_cli_usage_error_is_an_input_error(argv, capsys):
    # exit code 2 is kept for mathematical refusals
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["det", "--help"])
    assert exc.value.code == 0
    assert "--method" in capsys.readouterr().out
