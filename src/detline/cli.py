"""Command line entry point.

Loads JSON documents, runs the pipelines, and emits reports in either a
human-readable text form or a versioned machine-readable JSON form.  Exit
codes separate the three ways a run can end: 0 for a computed report, 1 for
a validation or parse problem (the input is at fault), 2 for a mathematical
refusal (the input is well-formed but the requested quantity does not exist
under the standing hypotheses, such as a non-unimodular representation or a
symbol whose determinant vanishes identically).

Each handler imports the layers it runs, and each input kind its own: a
process compiles only the modules of its subcommand.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import documents
from .errors import (
    DetlineError,
    MathematicalRefusal,
    ParseError,
    ValidationError,
)

FIXTURE_TOL = 1e-8  # absolute error a fixture value may carry


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # an input error: exit code 2 means a refusal
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="detline",
        description="determinant lines, torsion and determinant-class checks",
    )
    parser.add_argument(
        "--fixtures",
        action="store_true",
        help="run the built-in fixture suite and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="report format (structured is versioned JSON)",
    )

    # SUPPRESS keeps the subparser from clobbering a --format given before
    # the subcommand name
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "structured"), default=argparse.SUPPRESS
    )

    sub = parser.add_subparsers(dest="subcommand")

    det = sub.add_parser(
        "det",
        parents=[common],
        help="determinant of an operator over a module, or of a torus symbol",
    )
    det.add_argument("inputs", nargs="+", help="module and operator documents, or one symbol document")
    det.add_argument(
        "--method",
        choices=("auto", "spectral", "path", "polar"),
        default="auto",
    )

    betti = sub.add_parser(
        "betti",
        parents=[common],
        help="dimensions of the harmonic spaces of a complex",
    )
    betti.add_argument("inputs", nargs="+", help="complex document, or cell complex and representation")
    betti.add_argument("--convention", choices=("chain", "cochain"))
    # None: hodge's own default, without importing complexes to parse
    betti.add_argument("--kernel-tol", type=float)

    tors = sub.add_parser(
        "torsion",
        parents=[common],
        help="torsion coordinate of a cell complex through a representation",
    )
    tors.add_argument("inputs", nargs=2, help="cell complex and representation documents")

    inv = sub.add_parser(
        "invariance",
        parents=[common],
        help="compare torsion before and after an elementary edge split",
    )
    inv.add_argument("inputs", nargs=2, help="cell complex and representation documents")
    inv.add_argument("--split-edge", help="label of the edge to split (default: first edge)")

    zeta = sub.add_parser(
        "zeta",
        parents=[common],
        help="zeta regularization report for a complex",
    )
    zeta.add_argument("inputs", nargs=1, help="complex document")
    zeta.add_argument("--convention", choices=("chain", "cochain"))

    check = sub.add_parser(
        "classcheck",
        parents=[common],
        help="determinant-class verdicts for a complex or a torus symbol",
    )
    check.add_argument("inputs", nargs=1, help="complex or symbol document")
    check.add_argument("--convention", choices=("chain", "cochain"))

    return parser


def _load(paths):
    return [(path, documents.load_document(path)) for path in paths]


def _convergence_payload(report) -> dict:
    out = {"status": report.status}
    for key in ("route", "breakpoints", "panels", "error", "reason"):
        if key in report.diagnostics:
            out[key] = report.diagnostics[key]
    return out


def cmd_det(args) -> dict:
    docs = _load(args.inputs)
    kind = documents.document_kind(docs[0][1])
    if kind == "symbol":
        if len(docs) != 1:
            raise ParseError("det over the torus takes exactly one symbol document")
        from .symbols import abelian_fk_det, abelian_fk_det_general

        symbol = documents.decode_symbol(docs[0][1], docs[0][0])
        if args.method == "spectral":
            result = abelian_fk_det(symbol)
        elif args.method in ("auto", "polar"):
            result = abelian_fk_det_general(symbol)
        else:
            raise ValidationError("the path method does not apply to torus symbols")
        return {
            "subcommand": "det",
            "backend": "torus",
            "value": result.value,
            "log_value": result.log_value,
            "method": result.method,
            "convergence": _convergence_payload(result.convergence),
        }
    if kind != "module":
        raise ParseError(f"{docs[0][0]}: expected a module or symbol document")
    if len(docs) != 2:
        raise ParseError("det over a module takes module and operator documents")
    from .determinant import fk_det, fk_det_path, fk_det_spectral

    module = documents.decode_module(docs[0][1], docs[0][0])
    op = documents.decode_operator(docs[1][1], module, docs[1][0])
    if args.method == "spectral":
        result = fk_det_spectral(module, op)
    elif args.method == "path":
        result = fk_det_path(module, op)
    else:
        result = fk_det(module, op)
    return {
        "subcommand": "det",
        "backend": "module",
        "value": result.value,
        "log_value": result.log_value,
        "method": result.method,
        "convergence": _convergence_payload(result.convergence),
        "module_gram": module.reference_gram.digest,
    }


def _betti_payload(data, convention) -> dict:
    return {
        "subcommand": "betti",
        "betti": list(data.betti),
        "convention": convention,
        "kernel_tol": data.kernel_tol,
    }


def cmd_betti(args) -> dict:
    from .complexes import HODGE_KERNEL_TOL, hodge

    docs = _load(args.inputs)
    kind = documents.document_kind(docs[0][1])
    kernel_tol = HODGE_KERNEL_TOL if args.kernel_tol is None else args.kernel_tol
    if kind == "complex":
        if len(docs) != 1:
            raise ParseError("betti of a complex takes one document")
        cx = documents.decode_complex(docs[0][1], docs[0][0], convention=args.convention)
        data = hodge(cx, kernel_tol=kernel_tol)
        payload = _betti_payload(data, cx.convention)
        payload["grams"] = [m.reference_gram.digest for m in cx.modules]
        return payload
    if kind != "cell_complex" or len(docs) != 2:
        raise ParseError("betti takes a complex document, or a cell complex and a representation")
    from .torsion import assemble_coefficients

    cell = documents.decode_cell_complex(docs[0][1], docs[0][0])
    rep = documents.decode_representation(docs[1][1], cell.generators, docs[1][0])
    assembled = assemble_coefficients(cell, rep)
    if args.convention not in (None, assembled.convention):
        raise ValidationError(
            f"--convention {args.convention}: a representation on the {rep.side} "
            f"side gives the {assembled.convention} complex"
        )
    data = hodge(assembled, kernel_tol=kernel_tol)
    payload = _betti_payload(data, assembled.convention)
    payload["euler_characteristic"] = cell.euler_characteristic()
    payload["module_gram"] = rep.module.reference_gram.digest
    return payload


def cmd_torsion(args) -> dict:
    from .torsion import torsion

    docs = _load(args.inputs)
    cell = documents.decode_cell_complex(docs[0][1], docs[0][0])
    rep = documents.decode_representation(docs[1][1], cell.generators, docs[1][0])
    report = torsion(cell, rep)
    return {
        "subcommand": "torsion",
        "coordinate": report.coordinate,
        "chi": report.chi,
        "betti": list(report.betti),
        "convention": report.convention,
        "routes": dict(report.route_coordinates),
        "unimodularity": {k: v for k, v in report.unimodularity.determinants.items()},
        "reference_hashes": dict(report.reference_hashes),
    }


def cmd_invariance(args) -> dict:
    from .fixtures import split_edge
    from .torsion import invariance_check

    docs = _load(args.inputs)
    cell = documents.decode_cell_complex(docs[0][1], docs[0][0])
    rep = documents.decode_representation(docs[1][1], cell.generators, docs[1][0])
    if cell.dimension < 1 or not cell.cells[1]:
        raise ValidationError("the complex has no edge to split")
    label = args.split_edge or cell.cells[1][0]
    refined, psi = split_edge(cell, label)
    report = invariance_check(cell, refined, psi, rep)
    return {
        "subcommand": "invariance",
        "split_edge": label,
        "before": report.before.coordinate,
        "after": report.after.coordinate,
        "predicted": report.predicted,
        "discrepancy": report.discrepancy,
        "homology_factors": list(report.homology_factors),
        "convention": report.before.convention,
    }


def cmd_zeta(args) -> dict:
    from .complexes import zeta_suite

    docs = _load(args.inputs)
    cx = documents.decode_complex(docs[0][1], docs[0][0], convention=args.convention)
    report = zeta_suite(cx)
    return {
        "subcommand": "zeta",
        "convention": report.convention,
        "zeta_prime": list(report.zeta_prime),
        "combined_prime": report.combined_prime,
        "normalization": report.normalization,
        "laplacian_product": report.laplacian_product,
        "grid_points": int(np.asarray(report.grid).size),
    }


def cmd_classcheck(args) -> dict:
    docs = _load(args.inputs)
    kind = documents.document_kind(docs[0][1])
    if kind == "symbol":
        from .symbols import abelian_determinant_class_check

        symbol = documents.decode_symbol(docs[0][1], docs[0][0])
        report = abelian_determinant_class_check(symbol)
        payload = {
            "subcommand": "classcheck",
            "backend": "torus",
            "passed": report.passed,
            "verdict": _convergence_payload(report.verdict),
        }
        if report.refusal is not None:
            payload["refusal"] = report.refusal
        if report.value is not None:
            payload["value"] = report.value
            payload["log_value"] = report.log_value
        return payload
    if kind != "complex":
        raise ParseError(f"{docs[0][0]}: expected a complex or symbol document")
    from .complexes import determinant_class_check

    cx = documents.decode_complex(docs[0][1], docs[0][0], convention=args.convention)
    report = determinant_class_check(cx)
    return {
        "subcommand": "classcheck",
        "backend": "module",
        "passed": report.passed,
        "per_degree": [_convergence_payload(r) for r in report.per_degree],
        "convention": cx.convention,
    }


HANDLERS = {
    "det": cmd_det,
    "betti": cmd_betti,
    "torsion": cmd_torsion,
    "invariance": cmd_invariance,
    "zeta": cmd_zeta,
    "classcheck": cmd_classcheck,
}


# -- built-in fixture suite --------------------------------------------------


def _fixture_checks():
    from .algebra import FiniteGroupTable, build_group_algebra
    from .determinant import fk_det
    from .fixtures import (
        circle,
        interval,
        klein_bottle,
        lens_space,
        projective_plane,
        regular_cyclic_representation,
        regular_product_representation,
        scalar_representation,
        sign_representation,
        split_edge,
        split_torus_face,
        torus,
        trivial_representation,
    )
    from .modules import CommutantOperator, regular_module
    from .symbols import LaurentMatrix, abelian_fk_det, abelian_fk_det_general, abelian_torsion
    from .torsion import invariance_check, torsion

    half = 0.5
    yield (
        "torsion interval trivial",
        lambda: torsion(interval(), trivial_representation(())).coordinate,
        2.0 ** -0.5,
    )
    yield (
        "torsion circle sign",
        lambda: torsion(circle(), sign_representation(("t",))).coordinate,
        half,
    )
    yield (
        "torsion circle regular order 3",
        lambda: torsion(circle(), regular_cyclic_representation(3)).coordinate,
        3.0 ** (-1.0 / 3.0),
    )
    yield (
        "torsion torus trivial",
        lambda: torsion(torus(), trivial_representation(("a", "b"))).coordinate,
        1.0,
    )
    yield (
        "torsion klein bottle trivial",
        lambda: torsion(klein_bottle(), trivial_representation(("a", "b"))).coordinate,
        2.0,
    )
    yield (
        "torsion projective plane sign",
        lambda: torsion(projective_plane(), sign_representation(("t",))).coordinate,
        half,
    )
    yield (
        "torsion lens space regular order 3",
        lambda: torsion(lens_space(3), regular_cyclic_representation(3)).coordinate,
        3.0 ** (-1.0 / 3.0),
    )

    def _two_plus_involution(table, g):
        # right translation by an element of order 2 swaps the elements in
        # pairs, so its eigenvalues are +1 and -1 in equal number, and
        # (1/|G|) log |det(2 + R_g)| = (1/2) log 3
        module = regular_module(build_group_algebra(table))
        op = 2.0 * np.eye(table.order) + table.right_translation(g)
        return fk_det(module, CommutantOperator.from_matrix(module, op)).value

    s3 = FiniteGroupTable.symmetric(3)
    yield ("fk_det of 2 + transposition in C[S3]", lambda: _two_plus_involution(s3, 1), 3.0**0.5)
    # the same table with no recorded structure takes the numerical path
    yield (
        "fk_det of 2 + transposition in C[S3] given as an array",
        lambda: _two_plus_involution(FiniteGroupTable(s3.product), 1),
        3.0**0.5,
    )
    yield (
        "fk_det of 2 + (1, transposition) in C[Z/2 x S3]",
        lambda: _two_plus_involution(FiniteGroupTable.direct_product(FiniteGroupTable.cyclic(2), s3), 7),
        3.0**0.5,
    )

    def _invariance(complex_, rep, label=None):
        if label is None:
            label = complex_.cells[1][0]
        refined, psi = split_edge(complex_, label)
        return invariance_check(complex_, refined, psi, rep).discrepancy

    yield (
        "invariance interval split",
        lambda: _invariance(interval(), trivial_representation(())),
        0.0,
    )
    yield (
        "invariance circle split",
        lambda: _invariance(circle(), sign_representation(("t",))),
        0.0,
    )

    def _torus_face():
        refined, psi = split_torus_face(torus())
        rep = regular_product_representation((2, 2), ("a", "b"))
        return invariance_check(torus(), refined, psi, rep).discrepancy

    yield ("invariance torus face split", _torus_face, 0.0)

    yield (
        "torus determinant of t - 2",
        lambda: abelian_fk_det_general(
            LaurentMatrix.from_scalar({1: 1.0, 0: -2.0})
        ).value,
        2.0,
    )
    yield (
        "torus determinant of t - 1",
        lambda: abelian_fk_det_general(
            LaurentMatrix.from_scalar({1: 1.0, 0: -1.0})
        ).value,
        1.0,
    )
    yield (
        "torus monomial unimodularity",
        lambda: abelian_fk_det_general(LaurentMatrix.monomial(3)).value,
        1.0,
    )
    # no root of 3 + x + y crosses the circle, so the trapezoid rule
    # integrates it; those of 1 + x + y cross at 1/3 and 2/3, and the panels do
    yield (
        "torus Mahler measure of 3 + x + y",
        lambda: abelian_fk_det_general(
            LaurentMatrix.from_scalar({(0, 0): 3.0, (1, 0): 1.0, (0, 1): 1.0}, 2)
        ).log_value,
        float(np.log(3.0)),
    )
    yield (
        "torus Mahler measure of 1 + x + y",
        lambda: abelian_fk_det_general(
            LaurentMatrix.from_scalar({(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0}, 2)
        ).log_value,
        # Smyth: 3 sqrt(3) / (4 pi) L(chi_-3, 2)
        0.323065947219450514,
    )
    yield (
        "torus torsion of (t - 1)^4",
        lambda: abelian_torsion(
            [LaurentMatrix.from_scalar({4: 1.0, 3: -4.0, 2: 6.0, 1: -4.0, 0: 1.0})]
        ).coordinate,
        1.0,
    )

    def _expect_refusal(thunk, expected):
        try:
            thunk()
        except MathematicalRefusal as exc:
            return 0.0 if type(exc).__name__ == expected else 1.0
        return 1.0

    yield (
        "refusal non-unimodular representation",
        lambda: _expect_refusal(
            lambda: torsion(circle(), scalar_representation({"t": 2.0})),
            "NotUnimodular",
        ),
        0.0,
    )
    yield (
        "refusal kernel-bearing symbol",
        lambda: _expect_refusal(
            lambda: abelian_fk_det(LaurentMatrix.constant(np.diag([0.0, 1.0]))),
            "KernelDetected",
        ),
        0.0,
    )
    yield (
        "torus log-determinant of diag(1.5e-3, 1.5e-4, 1)",
        lambda: abelian_fk_det(
            LaurentMatrix.constant(np.diag([1.5e-3, 1.5e-4, 1.0]))
        ).log_value,
        float(np.log(1.5e-3 * 1.5e-4)),
    )
    yield (
        "refusal vanishing-determinant symbol",
        lambda: _expect_refusal(
            lambda: abelian_fk_det(
                LaurentMatrix(
                    1,
                    {
                        (0,): np.eye(2),
                        (1,): [[0.0, 1.0], [0.0, 0.0]],
                        (-1,): [[0.0, 0.0], [1.0, 0.0]],
                    },
                )
            ),
            "KernelDetected",
        ),
        0.0,
    )


def run_fixture_suite(fmt: str = "text", out=None) -> int:
    out = out or sys.stdout
    rows = []
    for name, thunk, expected in _fixture_checks():
        try:
            value = float(thunk())
            passed = abs(value - expected) <= FIXTURE_TOL
            detail = f"value {value:.12g}, expected {expected:.12g}"
        except DetlineError as exc:
            value, passed = None, False
            detail = f"{type(exc).__name__}: {exc}"
        rows.append({"name": name, "passed": passed, "detail": detail})
    all_passed = all(r["passed"] for r in rows)
    if fmt == "structured":
        print(
            documents.structured_report({"fixtures": rows, "passed": all_passed}),
            file=out,
        )
    else:
        for r in rows:
            print(f"{'ok' if r['passed'] else 'FAIL':4s} {r['name']}: {r['detail']}", file=out)
        print(f"{'ok' if all_passed else 'FAIL':4s} fixture suite", file=out)
    return 0 if all_passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = getattr(args, "format", "text")
    if args.fixtures:
        return run_fixture_suite(fmt)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        payload = HANDLERS[args.subcommand](args)
    except MathematicalRefusal as exc:
        print(f"refusal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DetlineError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if fmt == "structured":
        print(documents.structured_report(payload))
    else:
        print(documents.text_report(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
