"""Fuglede-Kadison determinant tests.

Ground truth throughout: for blockwise operators the determinant is
prod_k |det B_k|^(w_k), independent of the admissible gram.  The routes
under test never compute that formula directly.
"""

import numpy as np
import pytest

from detline._linalg import random_complex
from detline.algebra import FiniteGroupTable, build_group_algebra, FiniteVonNeumannAlgebra
from detline.determinant import (
    SELF_ADJOINT_TOL,
    DeterminantResult,
    fk_det,
    fk_det_path,
    fk_det_spectral,
    spectral_density,
)
from detline.errors import (
    KernelDetected,
    NegativeSpectrum,
    NonInvertible,
    NotSelfAdjoint,
    PathLeavesGL,
    ValidationError,
)
from detline.modules import (
    CommutantOperator,
    HilbertianModule,
    direct_sum,
    standard_module,
    von_neumann_dimension,
)


def _algebras():
    out = {"C": FiniteVonNeumannAlgebra(((1, 1.0),))}
    out["C[Z/2]"] = build_group_algebra(FiniteGroupTable.cyclic(2)).algebra
    out["C[Z/3]"] = build_group_algebra(FiniteGroupTable.cyclic(3)).algebra
    out["C[S3]"] = build_group_algebra(FiniteGroupTable.symmetric(3)).algebra
    return out


ALGEBRAS = _algebras()


def naive_log_det(module, op):
    total = 0.0
    for (_, w), b in zip(module.algebra.blocks, op.blocks):
        if b.size:
            total += w * np.log(abs(np.linalg.det(b)))
    return total


def random_operator(rng, module):
    return CommutantOperator(
        module, [random_complex(rng, (m, m)) for m in module.multiplicities]
    )


def remetrised(rng, module, floor=0.3):
    """module with a random admissible reference gram."""
    blocks = []
    for m in module.multiplicities:
        r = random_complex(rng, (m, m))
        blocks.append(r.conj().T @ r + floor * np.eye(m))
    return module.with_reference_gram(CommutantOperator(module, blocks))


def random_positive(rng, module, floor=0.2):
    a = random_operator(rng, module)
    return a.adjoint() @ a + CommutantOperator.identity(module) * floor


def test_frozen_diagonal_value():
    # weights (1/2, 1/2): det = 2^(1/2) * 8^(1/2) = 4 exactly
    mod = standard_module(ALGEBRAS["C[Z/2]"])
    op = CommutantOperator(mod, [np.array([[2.0]]), np.array([[8.0]])])
    res = fk_det_spectral(mod, op)
    assert abs(res.value - 4.0) < 1e-12
    assert res.method == "spectral"


def test_frozen_multiplicity_value():
    # trivial algebra, multiplicity 3 carrier: det diag(1, 4, 9) = 36
    mod = HilbertianModule(ALGEBRAS["C"], [3])
    op = CommutantOperator(mod, [np.diag([1.0, 4.0, 9.0])])
    res = fk_det_spectral(mod, op)
    assert abs(res.value - 36.0) < 1e-12


def test_spectral_density_counting():
    mod = standard_module(ALGEBRAS["C[Z/3]"])
    op = CommutantOperator(mod, [np.array([[v]]) for v in (1.0, 4.0, 9.0)])
    dens = spectral_density(mod, op)
    assert dens.kind == "atomic"
    assert abs(dens.total_mass - von_neumann_dimension(mod)) < 1e-12
    assert abs(dens.counting(0.5) - 0.0) < 1e-12
    assert abs(dens.counting(4.0) - 2.0 / 3.0) < 1e-12
    assert abs(dens.counting(100.0) - 1.0) < 1e-12
    assert np.all(np.diff(dens.values) >= 0)


def test_kernel_refusal():
    mod = HilbertianModule(ALGEBRAS["C"], [2])
    op = CommutantOperator(mod, [np.diag([1.0, 0.0])])
    with pytest.raises(KernelDetected):
        fk_det_spectral(mod, op)


def test_negative_spectrum_refusal():
    mod = HilbertianModule(ALGEBRAS["C"], [2])
    op = CommutantOperator(mod, [np.diag([1.0, -1.0])])
    with pytest.raises(NegativeSpectrum):
        fk_det_spectral(mod, op)


def test_not_self_adjoint_rejected():
    mod = HilbertianModule(ALGEBRAS["C"], [2])
    op = CommutantOperator(mod, [np.array([[1.0, 1.0], [0.0, 1.0]])])
    with pytest.raises(NotSelfAdjoint):
        spectral_density(mod, op)


def test_self_adjoint_check_refuses_just_past_spectral_threshold():
    # ||b - b^H||_2 is 1.01 times SELF_ADJOINT_TOL * ||b||_2, the bound the
    # check had with spectral norms; its Frobenius residual against the
    # eigenvalue scale still refuses
    mod = HilbertianModule(ALGEBRAS["C"], [2])
    b = np.diag([4.0, 1.0]).astype(complex)
    b[0, 1] = 1.01 * SELF_ADJOINT_TOL * 4.0 * (1 + 1e-9)
    assert np.linalg.norm(b - b.conj().T, 2) > SELF_ADJOINT_TOL * np.linalg.norm(b, 2)
    with pytest.raises(NotSelfAdjoint):
        spectral_density(mod, CommutantOperator(mod, [b]))


def test_self_adjointness_depends_on_gram():
    # G-self-adjoint but not Hermitian: B = G^{-1} H with H Hermitian
    mod = HilbertianModule(ALGEBRAS["C"], [2])
    g = np.array([[2.0, 0.5], [0.5, 1.0]])
    h = np.array([[3.0, 1.0], [1.0, 2.0]])
    op = CommutantOperator(mod, [np.linalg.inv(g) @ h])
    with pytest.raises(NotSelfAdjoint):
        spectral_density(mod, op)
    gmod = mod.with_reference_gram(CommutantOperator(mod, [g]))
    gop = CommutantOperator(gmod, op.blocks)
    dens = spectral_density(gmod, gop)
    assert np.all(dens.values > 0)
    res = fk_det_spectral(gmod, gop)
    assert abs(res.log_value - naive_log_det(mod, op)) < 1e-10


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_routes_agree_on_positives(name):
    rng = np.random.default_rng(7)
    alg = ALGEBRAS[name]
    mod = standard_module(alg)
    for trial in range(6):
        gmod = remetrised(rng, mod)
        op = random_positive(rng, gmod)
        by_spectrum = fk_det_spectral(gmod, op)
        path = fk_det_path(gmod, op)
        general = fk_det(gmod, op)
        truth = naive_log_det(gmod, op)
        assert abs(by_spectrum.log_value - truth) < 1e-8
        assert abs(path.log_value - truth) < 1e-8
        assert abs(general.log_value - truth) < 1e-8
        assert path.method == "path"
        assert general.method == "polar"


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_general_route_matches_truth(name):
    rng = np.random.default_rng(11)
    alg = ALGEBRAS[name]
    mod = standard_module(alg)
    for trial in range(6):
        gmod = remetrised(rng, mod)
        op = random_operator(rng, gmod)
        res = fk_det(gmod, op)
        assert abs(res.log_value - naive_log_det(gmod, op)) < 1e-8


def test_multiplicative():
    rng = np.random.default_rng(3)
    mod = remetrised(rng, standard_module(ALGEBRAS["C[S3]"]))
    a = random_operator(rng, mod)
    b = random_operator(rng, mod)
    da = fk_det(mod, a).log_value
    db = fk_det(mod, b).log_value
    dab = fk_det(mod, a @ b).log_value
    assert abs(dab - da - db) < 1e-8


def test_scalar_rule():
    mod = standard_module(ALGEBRAS["C[S3]"])
    lam = -2.0 + 0.5j
    op = CommutantOperator.identity(mod) * lam
    res = fk_det(mod, op)
    expect = abs(lam) ** von_neumann_dimension(mod)
    assert abs(res.value - expect) < 1e-10


def test_adjoint_preserves_determinant():
    rng = np.random.default_rng(5)
    mod = remetrised(rng, standard_module(ALGEBRAS["C[Z/3]"]))
    op = random_operator(rng, mod)
    star = op.adjoint()
    d1 = fk_det(mod, op).log_value
    d2 = fk_det(mod, star).log_value
    assert abs(d1 - d2) < 1e-8


def test_trace_scaling_raises_determinant_to_power():
    rng = np.random.default_rng(9)
    alg = ALGEBRAS["C[Z/2]"]
    scaled = alg.with_scaled_trace(2.5)
    mod = standard_module(alg)
    mod2 = HilbertianModule(scaled, mod.multiplicities)
    blocks = [random_complex(rng, (m, m)) for m in mod.multiplicities]
    d1 = fk_det(mod, CommutantOperator(mod, blocks)).log_value
    d2 = fk_det(mod2, CommutantOperator(mod2, blocks)).log_value
    assert abs(d2 - 2.5 * d1) < 1e-10


def test_block_triangular():
    rng = np.random.default_rng(13)
    mod = standard_module(ALGEBRAS["C[S3]"])
    total = direct_sum(mod, mod)
    a = random_operator(rng, mod)
    b = random_operator(rng, mod)
    blocks = []
    for ak, bk, m in zip(a.blocks, b.blocks, mod.multiplicities):
        x = random_complex(rng, (m, m))
        blocks.append(np.block([[ak, x], [np.zeros((m, m)), bk]]))
    op = CommutantOperator(total, blocks)
    d = fk_det(total, op).log_value
    da = fk_det(mod, a).log_value
    db = fk_det(mod, b).log_value
    assert abs(d - da - db) < 1e-8


def test_unitary_has_determinant_one():
    rng = np.random.default_rng(17)
    mod = standard_module(ALGEBRAS["C[S3]"])
    blocks = []
    for m in mod.multiplicities:
        q, _ = np.linalg.qr(random_complex(rng, (m, m)))
        blocks.append(q)
    op = CommutantOperator(mod, blocks)
    assert abs(fk_det(mod, op).log_value) < 1e-10
    assert abs(fk_det_path(mod, op, path="polar").log_value) < 1e-8


def test_path_independence_segment_vs_polar():
    rng = np.random.default_rng(19)
    mod = standard_module(ALGEBRAS["C[Z/3]"])
    for trial in range(8):
        op = random_operator(rng, mod) + CommutantOperator.identity(mod) * 3.0
        seg = fk_det_path(mod, op, path="segment")
        pol = fk_det_path(mod, op, path="polar")
        assert abs(seg.log_value - pol.log_value) < 1e-7


def test_segment_path_leaves_gl():
    mod = HilbertianModule(ALGEBRAS["C"], [2])
    op = CommutantOperator(mod, [np.diag([-1.0, -2.0])])
    with pytest.raises(PathLeavesGL):
        fk_det_path(mod, op, path="segment")
    # auto falls back to the polar path and matches |det| = 2
    res = fk_det_path(mod, op, path="auto")
    assert abs(res.log_value - np.log(2.0)) < 1e-8


def test_non_invertible_refusal():
    mod = HilbertianModule(ALGEBRAS["C"], [2])
    op = CommutantOperator(mod, [np.diag([1.0, 0.0])])
    with pytest.raises(NonInvertible):
        fk_det(mod, op)
    with pytest.raises(NonInvertible):
        fk_det_path(mod, op)


def test_rejects_foreign_module():
    mod = standard_module(ALGEBRAS["C[Z/2]"])
    other = HilbertianModule(ALGEBRAS["C[Z/2]"], [2, 1])
    op = CommutantOperator.identity(other)
    with pytest.raises(ValidationError):
        fk_det_spectral(mod, op)


def test_bad_path_name():
    mod = standard_module(ALGEBRAS["C"])
    op = CommutantOperator.identity(mod)
    with pytest.raises(ValidationError):
        fk_det_path(mod, op, path="spiral")


def test_result_shape():
    mod = standard_module(ALGEBRAS["C"])
    op = CommutantOperator.identity(mod) * 2.0
    res = fk_det_spectral(mod, op)
    assert isinstance(res, DeterminantResult)
    assert res.convergence.passed
    assert abs(np.exp(res.log_value) - res.value) < 1e-12
