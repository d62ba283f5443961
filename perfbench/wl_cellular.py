"""cellular-torsion: torsion() and invariance_check() on cell fixtures
through group-algebra representations.

Two shapes share the deck: many cells over small groups (circle(k) with
C[Z/3] to C[Z/6]) and few cells over larger representations (lens spaces,
torus and Klein bottle through regular product representations), plus the
cohomology (side="left") variant.  circle(64) x C[Z/5], the baseline named
in the roadmap, is always in the deck.  The fixtures are exact objects, so
the seed only orders the jobs.
"""

from __future__ import annotations

import math

import numpy as np

import detline as dl
import oracles as O
from common import Job, Workload
from detline.algebra import FiniteVonNeumannAlgebra
from detline.complexes import (
    determinant_class_check,
    hodge,
    torsion_iso_via_exact_sequences,
    torsion_iso_via_laplacians,
)
from detline.errors import NotDeterminantClass, NotUnimodular
from detline.modules import direct_sum_many
from detline.torsion import assemble_coefficients, check_unimodular

# (fixture, parameter, representation, side)
TORSION_DECK = [
    ("circle", 4, ("cyclic", 3), "right"),
    ("circle", 8, ("cyclic", 4), "right"),
    ("circle", 8, ("cyclic", 6), "right"),
    ("circle", 12, ("cyclic", 5), "right"),
    ("circle", 16, ("cyclic", 3), "right"),
    ("circle", 16, ("cyclic", 6), "right"),
    ("circle", 24, ("cyclic", 4), "right"),
    ("circle", 32, ("cyclic", 3), "right"),
    ("circle", 32, ("cyclic", 5), "right"),
    # four jobs of similar cost (about 230 ms here) hold the 90th percentile
    # in their middle, so p90 does not sit on a jump between cost levels
    ("circle", 32, ("cyclic", 6), "right"),
    ("circle", 40, ("cyclic", 5), "right"),
    ("circle", 48, ("cyclic", 4), "right"),
    ("circle", 56, ("cyclic", 3), "right"),
    ("circle", 64, ("cyclic", 5), "right"),
    ("circle", 8, ("cyclic", 3), "left"),
    ("circle", 16, ("cyclic", 5), "left"),
    ("lens", 3, ("cyclic", 3), "right"),
    ("lens", 5, ("cyclic", 5), "right"),
    ("lens", 8, ("cyclic", 8), "right"),
    ("lens", 12, ("cyclic", 12), "right"),
    ("lens", 5, ("cyclic", 5), "left"),
    ("torus", None, ("product", (2, 3)), "right"),
    ("torus", None, ("product", (3, 4)), "right"),
    ("torus", None, ("product", (2, 3)), "left"),
    ("klein", None, ("product", (2, 3)), "right"),
    ("klein", None, ("product", (2, 4)), "right"),
]
# circle(k) split at its first edge is circle(k + 1)
INVARIANCE_DECK = [(4, 3), (8, 5), (16, 4)]

DEFECT_DIM = 400  # circle(1) through t -> 1.1 on C^400: C^400 --0.1 I--> C^400


def _fixture(kind, param):
    if kind == "circle":
        return dl.circle(param), O.circle_cells(param)
    if kind == "lens":
        return dl.lens_space(param), O.lens_cells(param)
    if kind == "torus":
        return dl.torus(), O.torus_cells()
    return dl.klein_bottle(), O.klein_cells()


def _representation(spec, side):
    kind, param = spec
    if kind == "cyclic":
        return dl.regular_cyclic_representation(param, side=side), O.cyclic_characters(param)
    return (
        dl.regular_product_representation(param, ("a", "b"), side=side),
        O.product_characters(param),
    )


def _torsion_answers(laplacian, exact):
    return {"log_coordinate": math.log(laplacian), "log_exact_route": math.log(exact)}


def replay_torsion(tr, cx, rep, require_unimodular=True):
    """torsion() as its chain of public calls."""
    uni = tr.call("torsion.check_unimodular", check_unimodular, rep)
    if require_unimodular and not uni.passed:
        raise NotUnimodular(f"generator determinants differ from 1: {uni.determinants}")
    assembled = tr.call("torsion.assemble_coefficients", assemble_coefficients, cx, rep)
    tr.count("torsion.carrier_dim", max(m.carrier_dim for m in assembled.modules))
    tr.count("torsion.block_dim", max(max(m.multiplicities) for m in assembled.modules))
    data = tr.call("complexes.hodge", hodge, assembled)
    verdicts = tr.call(
        "complexes.determinant_class_check", determinant_class_check, assembled, data
    )
    if not verdicts.passed:
        raise NotDeterminantClass("the coefficient complex is not determinant class")
    graded = tr.call(
        "complexes.torsion_iso_via_laplacians", torsion_iso_via_laplacians, assembled, data
    )
    cross = tr.call(
        "complexes.torsion_iso_via_exact_sequences",
        torsion_iso_via_exact_sequences,
        assembled,
        data,
    )
    return _torsion_answers(graded.coordinate, cross.coordinate)


def _direct_sums(tr, cx, rep):
    """direct_sum_many on the inputs assembly uses, timed as its own call."""
    for count in cx.cell_counts():
        if count:
            tr.call("modules.direct_sum_many", direct_sum_many, [rep.module] * count)


def _torsion_oracle(cells, characters, side="right"):
    def expected():
        log_t = O.cellular_torsion(cells, characters, side)[0]
        return {"log_coordinate": log_t, "log_exact_route": log_t}

    return expected


def _torsion_job(label, cx, rep, expected, require_unimodular=True, defect=None):
    def direct(out):
        report = dl.torsion(cx, rep, require_unimodular=require_unimodular)
        out.update(
            _torsion_answers(report.coordinate, report.route_coordinates["exact_sequence"])
        )

    return Job(
        label,
        lambda tr, out: out.update(replay_torsion(tr, cx, rep, require_unimodular)),
        expected,
        direct=direct,
        defect=defect,
        extras=lambda tr: _direct_sums(tr, cx, rep),
    )


def _invariance_job(k, n, rep):
    cx = dl.circle(k)

    def run(tr, out):
        refined, psi = tr.call("fixtures.split_edge", dl.split_edge, cx, "e0")
        report = tr.call(
            "torsion.invariance_check", dl.invariance_check, cx, refined, psi, rep
        )
        out["log_before"] = math.log(report.before.coordinate)
        out["log_after"] = math.log(report.after.coordinate)
        out["log_predicted_over_after"] = math.log(report.predicted / report.after.coordinate)

    def expected():
        characters = O.cyclic_characters(n)
        return {
            "log_before": O.cellular_torsion(O.circle_cells(k), characters)[0],
            "log_after": O.cellular_torsion(O.circle_cells(k + 1), characters)[0],
            "log_predicted_over_after": 0.0,
        }

    return Job(f"invariance circle({k}) C[Z/{n}]", run, expected)


def build(seed):
    reps = {}

    def rep_for(spec, side):
        if (spec, side) not in reps:
            reps[spec, side] = _representation(spec, side)
        return reps[spec, side]

    deck = []
    for kind, param, spec, side in TORSION_DECK:
        cx, cells = _fixture(kind, param)
        rep, characters = rep_for(spec, side)
        name = f"{kind}({param})" if param is not None else kind
        deck.append(_torsion_job(
            f"torsion {name} {spec} {side}", cx, rep, _torsion_oracle(cells, characters, side)
        ))
    for k, n in INVARIANCE_DECK:
        deck.append(_invariance_job(k, n, rep_for(("cyclic", n), "right")[0]))

    algebra = FiniteVonNeumannAlgebra(((1, 1.0),))
    module = dl.HilbertianModule(algebra, (DEFECT_DIM,))
    big = dl.GroupRepresentation(module, {"t": 1.1 * np.eye(DEFECT_DIM)})
    defect = _torsion_job(
        f"torsion circle(1) t->1.1 on C^{DEFECT_DIM}",
        dl.circle(1),
        big,
        _torsion_oracle(O.circle_cells(1), [((1.1,), float(DEFECT_DIM))]),
        require_unimodular=False,
        defect="linear determinant-line coordinate underflows (C^400 --0.1 I--> C^400)",
    )
    return Workload(defects=[defect], deck=deck, warmup=deck)
