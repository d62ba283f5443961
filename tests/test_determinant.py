"""Fuglede-Kadison determinant tests.

Ground truth throughout: for blockwise operators the determinant is
prod_k |det B_k|^(w_k), independent of the admissible gram.  The routes
under test never compute that formula directly.
"""

import numpy as np
import pytest

from detline._linalg import INVERTIBLE_RTOL, random_complex
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
    NotExact,
    NotIso,
    NotSelfAdjoint,
    ValidationError,
)
from detline.lines import exact_sequence_iso, pushforward, reference_element
from detline.modules import (
    COND_LIMIT,
    CommutantOperator,
    HilbertianModule,
    ModuleMorphism,
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
    assert abs(fk_det_path(mod, op).log_value) < 1e-8


def test_path_independence_segment_vs_polar():
    rng = np.random.default_rng(19)
    mod = standard_module(ALGEBRAS["C[Z/3]"])
    for trial in range(8):
        op = random_operator(rng, mod) + CommutantOperator.identity(mod) * 3.0
        # the segment from the identity stays invertible here; the value is
        # that of the polar route through |A|
        path = fk_det_path(mod, op)
        assert abs(path.log_value - fk_det(mod, op).log_value) < 1e-7


def test_segment_path_leaves_gl():
    # the segment from the identity to diag(-1, -2) passes a singular
    # operator; other paths do not, and every path gives log|det| = log 2
    mod = HilbertianModule(ALGEBRAS["C"], [2])
    op = CommutantOperator(mod, [np.diag([-1.0, -2.0])])
    res = fk_det_path(mod, op)
    assert abs(res.log_value - np.log(2.0)) < 1e-12
    assert abs(res.log_value - fk_det(mod, op).log_value) < 1e-12


def test_non_invertible_refusal():
    mod = HilbertianModule(ALGEBRAS["C"], [2])
    op = CommutantOperator(mod, [np.diag([1.0, 0.0])])
    with pytest.raises(NonInvertible):
        fk_det(mod, op)
    with pytest.raises(NonInvertible):
        fk_det_path(mod, op)


def test_polar_route_keeps_ill_conditioned_invertibles():
    # A* A of diag(1, 1e-7) has relative eigenvalue 1e-14, under the kernel
    # cut of the spectral route; the singular values of A are far from it
    mod = HilbertianModule(ALGEBRAS["C"], [2])
    for small in (1e-7, 1e-11):
        op = CommutantOperator(mod, [np.diag([1.0, small])])
        polar, path = fk_det(mod, op), fk_det_path(mod, op)
        assert polar.method == "polar"
        assert abs(polar.log_value - path.log_value) <= 1e-14
        assert abs(polar.log_value - np.log(small)) <= 1e-14
    with pytest.raises(NonInvertible):
        fk_det(mod, CommutantOperator(mod, [np.diag([1.0, 1e-13])]))


def test_rejects_foreign_module():
    mod = standard_module(ALGEBRAS["C[Z/2]"])
    other = HilbertianModule(ALGEBRAS["C[Z/2]"], [2, 1])
    op = CommutantOperator.identity(other)
    with pytest.raises(ValidationError):
        fk_det_spectral(mod, op)


def test_non_finite_entries_refused_at_input():
    alg = FiniteVonNeumannAlgebra(((1, 1.0), (2, 0.5)))
    mod = HilbertianModule(alg, (1, 1))
    with pytest.raises(ValidationError, match="finite"):
        fk_det(mod, CommutantOperator.from_matrix(mod, np.diag([np.nan, 1.0, 1.0])))
    with pytest.raises(ValidationError, match="finite"):
        fk_det_spectral(mod, CommutantOperator.from_matrix(mod, np.diag([np.inf, 1.0, 1.0])))


def test_result_shape():
    mod = standard_module(ALGEBRAS["C"])
    op = CommutantOperator.identity(mod) * 2.0
    res = fk_det_spectral(mod, op)
    assert isinstance(res, DeterminantResult)
    assert res.convergence.passed
    assert abs(np.exp(res.log_value) - res.value) < 1e-12


def test_value_past_the_float_range_is_inf_without_a_warning():
    # log Det(100 I on C^400) = 1842.07; exp of it overflows a float, which
    # gives value inf (under pytest's error::RuntimeWarning filter) and
    # leaves log_value alone
    mod = HilbertianModule(ALGEBRAS["C"], [400])
    res = fk_det_spectral(mod, CommutantOperator.identity(mod) * 100.0)
    assert res.log_value == pytest.approx(400 * np.log(100.0), rel=1e-15)
    assert res.value == np.inf
    tiny = fk_det(mod, CommutantOperator.identity(mod) * 0.01)
    assert tiny.log_value == pytest.approx(400 * np.log(0.01), rel=1e-15)
    assert tiny.value == 0.0


# -- batched blocks: one LAPACK call per block shape ---------------------------

Z5 = build_group_algebra(FiniteGroupTable.cyclic(5)).algebra


def z5_operator(values):
    """Five 1 x 1 blocks, one stack: a single bad block sits among good ones."""
    mod = standard_module(Z5)
    return mod, CommutantOperator(mod, [np.array([[v]], dtype=complex) for v in values])


def test_one_singular_block_among_equal_shapes_refuses():
    mod, op = z5_operator([1.5, 2.0, 0.0, 0.5, 3.0])
    with pytest.raises(NonInvertible):
        fk_det(mod, op)
    with pytest.raises(NonInvertible):
        fk_det_path(mod, op)


def test_one_negative_block_among_equal_shapes_leaves_the_segment():
    # the block -1 puts the segment from the identity through a singular
    # operator; the value is the weighted sum of log|det| all the same
    mod, op = z5_operator([1.5, 2.0, -1.0, 0.5, 3.0])
    res = fk_det_path(mod, op)
    closed_form = np.log([1.5, 2.0, 1.0, 0.5, 3.0]).sum() / 5
    assert abs(res.log_value - closed_form) < 1e-12
    assert abs(res.log_value - fk_det(mod, op).log_value) < 1e-12
    assert abs(res.log_value - naive_log_det(mod, op)) < 1e-12
    with pytest.raises(NegativeSpectrum):
        spectral_density(mod, op)


def test_one_non_hermitian_block_among_equal_shapes_is_refused():
    mod, op = z5_operator([1.5, 2.0, 1.0 + 1.0j, 0.5, 3.0])
    with pytest.raises(NotSelfAdjoint):
        fk_det_spectral(mod, op)


BATCHED = {
    "C[Z/24]": FiniteGroupTable.cyclic(24),
    "C[S4]": FiniteGroupTable.symmetric(4),
    "C2xS3": FiniteGroupTable.direct_product(
        FiniteGroupTable.cyclic(2), FiniteGroupTable.symmetric(3)
    ),
}


def rel_close(a, b, rtol=1e-14):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_batched_routes_agree_with_a_per_block_loop(name):
    rng = np.random.default_rng(31)
    mod = standard_module(build_group_algebra(BATCHED[name]).algebra)
    weights = mod.algebra.weights
    for module in (mod, remetrised(rng, mod)):
        blocks = [3.0 * np.eye(m) + 0.3 * random_complex(rng, (m, m)) for m in module.multiplicities]
        op = CommutantOperator(module, blocks)
        loop = sum(w * np.linalg.slogdet(b)[1] for w, b in zip(weights, blocks))
        for res in (fk_det(module, op), fk_det_path(module, op)):
            assert rel_close(res.log_value, loop)
        pos = op.adjoint() @ op
        loop_pos = sum(w * np.linalg.slogdet(b)[1] for w, b in zip(weights, pos.blocks))
        assert rel_close(fk_det_spectral(module, pos).log_value, loop_pos)

        assert op.is_iso()
        inverse = op.inverse()
        for b, inv in zip(blocks, inverse.blocks):
            loop_inv = np.linalg.inv(b)
            assert np.linalg.norm(inv - loop_inv) <= 1e-14 * np.linalg.norm(loop_inv)
        # one block past COND_LIMIT among blocks of its shape
        bad = list(blocks)
        k = max(range(len(bad)), key=lambda j: bad[j].shape[0])
        bad[k] = np.diag([1.0] + [0.5 / COND_LIMIT] * (bad[k].shape[0] - 1))
        if bad[k].shape[0] == 1:
            bad[k] = np.zeros((1, 1))
        assert not all(np.linalg.cond(b) <= COND_LIMIT for b in bad)
        assert not CommutantOperator(module, bad).is_iso()


@pytest.mark.parametrize("x", [1e-11, 2e-12, 5e-13, 1e-13])
def test_every_invertibility_test_decides_alike(x):
    # is_iso, inverse, pushforward and the polar and path routes read one
    # singular-value pass: full rank at INVERTIBLE_RTOL
    mod = HilbertianModule(ALGEBRAS["C"], (2,))
    op = CommutantOperator(mod, [np.diag([1.0, x])])
    verdicts = [op.is_iso()]
    for call, refusal in (
        (op.inverse, NotIso),
        (lambda: pushforward(op, reference_element(mod)), NotIso),
        (lambda: fk_det(mod, op), NonInvertible),
        (lambda: fk_det_path(mod, op), NonInvertible),
    ):
        try:
            call()
            verdicts.append(True)
        except refusal:
            verdicts.append(False)
    assert verdicts == [x > INVERTIBLE_RTOL] * 5


def _counting(monkeypatch, name):
    """Count the calls of np.linalg.<name> for the rest of the test."""
    calls = [0]
    original = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_path_route_takes_one_slogdet_per_block_shape(monkeypatch):
    mod = standard_module(build_group_algebra(BATCHED["C[S4]"]).algebra)
    shapes = len(set(mod.multiplicities))
    assert shapes == 3  # multiplicities 1, 1, 2, 3, 3
    rng = np.random.default_rng(37)
    op = CommutantOperator(
        mod, [3.0 * np.eye(m) + 0.3 * random_complex(rng, (m, m)) for m in mod.multiplicities]
    )
    slogdet = _counting(monkeypatch, "slogdet")
    eigvals = _counting(monkeypatch, "eigvals")
    res = fk_det_path(mod, op)
    assert slogdet[0] == shapes
    # no path is chosen, so nothing asks where the spectrum lies
    assert eigvals[0] == 0
    assert rel_close(res.log_value, naive_log_det(mod, op), 1e-12)


def test_path_route_on_a_large_scalar_block():
    # 0.1 I on C^400: log Det = -400 log 10, past the linear float range
    mod = HilbertianModule(ALGEBRAS["C"], [400])
    op = CommutantOperator.identity(mod) * 0.1
    res = fk_det_path(mod, op)
    assert res.log_value == pytest.approx(-400 * np.log(10.0), rel=1e-14)


def test_segment_near_the_negative_ray():
    # 2 R(pi - 0.01) has eigenvalues 2 exp(+-i(pi - 0.01)), 0.02 off the
    # negative real ray, and |det| = 4
    mod = HilbertianModule(ALGEBRAS["C"], [2])
    theta = np.pi - 0.01
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    op = CommutantOperator(mod, [2.0 * rot])
    res = fk_det_path(mod, op)
    assert abs(res.log_value - 2 * np.log(2.0)) < 1e-14
    assert abs(res.log_value - fk_det(mod, op).log_value) < 1e-12


def first_inexact_block(alpha, beta, tol):
    """The block a per-block loop finds first failing injectivity,
    surjectivity or a vanishing composite, or None."""
    for k, (a, b) in enumerate(zip(alpha.blocks, beta.blocks)):
        if a.shape[1] and np.linalg.matrix_rank(a, tol * max(1.0, np.linalg.norm(a, 2))) < a.shape[1]:
            return k
        if b.shape[0] and np.linalg.matrix_rank(b, tol * max(1.0, np.linalg.norm(b, 2))) < b.shape[0]:
            return k
        if np.linalg.norm(b @ a) > tol:
            return k
    return None


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_batched_exactness_check_agrees_with_a_per_block_loop(name):
    # 0 -> M -(a)-> M + M -(b)-> M -> 0 with a = (A, 1)^T and b = (1, -A):
    # every block is gapped
    rng = np.random.default_rng(37)
    mod = standard_module(build_group_algebra(BATCHED[name]).algebra)
    total = direct_sum(mod, mod)
    e = reference_element(mod)
    a_blocks = [random_complex(rng, (m, m)) for m in mod.multiplicities]
    alpha = ModuleMorphism(mod, total, [np.vstack([a, np.eye(len(a))]) for a in a_blocks])
    beta = ModuleMorphism(total, mod, [np.hstack([np.eye(len(a)), -a]) for a in a_blocks])
    assert first_inexact_block(alpha, beta, 1e-8) is None
    exact_sequence_iso(alpha, beta, e, e)
    # break the last block, which shares its shape with another: beta no
    # longer kills alpha there
    k = len(a_blocks) - 1
    broken = list(beta.blocks)
    broken[k] = np.hstack([np.eye(len(a_blocks[k])), a_blocks[k]])
    beta = ModuleMorphism(total, mod, broken)
    assert first_inexact_block(alpha, beta, 1e-8) == k
    with pytest.raises(NotExact, match=f"composite is nonzero in block {k}$"):
        exact_sequence_iso(alpha, beta, e, e)
    # a zero alpha in block 1, one of the 1 x 1 blocks, fails first
    broken = list(alpha.blocks)
    broken[1] = np.zeros_like(broken[1])
    alpha = ModuleMorphism(mod, total, broken)
    assert first_inexact_block(alpha, beta, 1e-8) == 1
    with pytest.raises(NotExact, match="first map fails to be injective in block 1$"):
        exact_sequence_iso(alpha, beta, e, e)
