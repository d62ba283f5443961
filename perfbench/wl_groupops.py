"""group-operators: group-algebra decomposition and the three determinant
routes on operators over C[G], with no cellular assembly.

Each job decomposes a finite group's algebra, builds l2(G)^m, turns a
seeded m x m matrix over C[G] into a commutant operator, and computes
fk_det_spectral (on A*A), fk_det, fk_det_path, lines.pushforward and
lines.exact_sequence_iso on the direct-sum sequence
0 -> l2(G)^m -(A,0)-> l2(G)^m + l2(G) -> l2(G) -> 0.
The group of each deck slot is fixed, so every seed has the same cost
profile; the seed draws the operators.  Each is the identity plus a
perturbation of norm 1/2 (condition number at most 3), so every answer
exists.
"""

from __future__ import annotations

import math

import numpy as np

import detline as dl
import oracles as O
from common import Job, Workload
from detline.modules import direct_sum_many, regular_module

T = dl.FiniteGroupTable

# (name, table factory, m)
DECK = [
    ("C6", lambda: T.cyclic(6), 1),
    ("C6", lambda: T.cyclic(6), 2),
    ("C6", lambda: T.cyclic(6), 3),
    ("C7", lambda: T.cyclic(7), 1),
    ("C8", lambda: T.cyclic(8), 1),
    ("C9", lambda: T.cyclic(9), 1),
    ("C10", lambda: T.cyclic(10), 1),
    ("C12", lambda: T.cyclic(12), 1),
    # C15, C16, C2xC8 and C4xC4 cost about the same and hold the 90th
    # percentile; C24 lies beyond it
    ("C15", lambda: T.cyclic(15), 1),
    ("C16", lambda: T.cyclic(16), 1),
    ("C24", lambda: T.cyclic(24), 1),
    ("S3", lambda: T.symmetric(3), 1),
    ("S3", lambda: T.symmetric(3), 2),
    ("S3", lambda: T.symmetric(3), 3),
    ("S4", lambda: T.symmetric(4), 1),
    ("C2xC3", lambda: T.direct_product(T.cyclic(2), T.cyclic(3)), 1),
    ("C2xS3", lambda: T.direct_product(T.cyclic(2), T.symmetric(3)), 1),
    ("C2xC8", lambda: T.direct_product(T.cyclic(2), T.cyclic(8)), 1),
    ("C4xC4", lambda: T.direct_product(T.cyclic(4), T.cyclic(4)), 1),
]
DEFECT_DIM = 400  # 0.1 I on C^400: its determinant-line coordinate underflows


def operator_matrix(rng, table, m):
    """Dense matrix of a seeded m x m matrix over C[G] acting on l2(G)^m by
    right multiplication, in group-element coordinates."""
    n = table.order
    shifts = np.stack([table.right_translation(g) for g in range(n)])
    coeffs = rng.normal(size=(m, m, n)) + 1j * rng.normal(size=(m, m, n))
    dense = np.block(
        [[np.tensordot(coeffs[i, j], shifts, axes=1) for j in range(m)] for i in range(m)]
    )
    # identity plus a perturbation of norm 0.5: the path route subdivides
    # about as often for every seed
    dense *= 0.5 / np.linalg.norm(dense, 2)
    return np.eye(m * n) + dense


def replay(tr, out, table, m, dense, path=True):
    n = table.order
    dec = tr.call("algebra.build_group_algebra", dl.build_group_algebra, table)
    tr.count("algebra.group_order", n)
    reg = tr.call("modules.regular_module", regular_module, dec)
    mod = reg if m == 1 else tr.call("modules.direct_sum_many", direct_sum_many, [reg] * m)
    op = tr.call(
        "modules.CommutantOperator.from_matrix", dl.CommutantOperator.from_matrix, mod, dense
    )
    spectral = tr.call("determinant.fk_det_spectral", dl.fk_det_spectral, mod, op.adjoint() @ op)
    out["log_spectral_half"] = 0.5 * spectral.log_value
    out["log_fk_det"] = tr.call("determinant.fk_det", dl.fk_det, mod, op).log_value
    if path:
        out["log_path"] = tr.call("determinant.fk_det_path", dl.fk_det_path, mod, op).log_value
    pushed = tr.call("lines.pushforward", dl.pushforward, op, dl.reference_element(mod))
    out["log_pushforward"] = math.log(pushed.coefficient)

    total = tr.call("modules.direct_sum_many", direct_sum_many, [mod, reg])
    alpha = np.vstack([dense, np.zeros((n, mod.carrier_dim))])
    beta = np.hstack([np.zeros((n, mod.carrier_dim)), np.eye(n)])
    iso = tr.call(
        "lines.exact_sequence_iso",
        dl.exact_sequence_iso,
        dl.ModuleMorphism.from_matrix(mod, total, alpha),
        dl.ModuleMorphism.from_matrix(total, reg, beta),
        dl.reference_element(mod),
        dl.reference_element(reg),
    )
    out["log_exact_sequence"] = math.log(iso.coefficient)


def _job(label, table, m, dense, path=True, defect=None):
    names = ["log_spectral_half", "log_fk_det", "log_pushforward", "log_exact_sequence"]
    if path:
        names.append("log_path")
    return Job(
        label,
        lambda tr, out: replay(tr, out, table, m, dense, path),
        lambda: dict.fromkeys(names, O.group_ring_log_det(dense, table.order)),
        defect=defect,
    )


def build(seed):
    rng = np.random.default_rng(seed)
    deck = []
    for name, factory, m in DECK:
        table = factory()
        deck.append(_job(f"{name} m={m}", table, m, operator_matrix(rng, table, m)))
    # the path route on C^400 alone takes about 20 s, so this job skips it
    defect = _job(
        f"trivial group m={DEFECT_DIM} 0.1 I",
        T.trivial(),
        DEFECT_DIM,
        0.1 * np.eye(DEFECT_DIM),
        path=False,
        defect="linear determinant-line coordinate underflows (C^400 --0.1 I--> C^400)",
    )
    return Workload(defects=[defect], deck=deck, warmup=deck)
