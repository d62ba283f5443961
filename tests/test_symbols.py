"""Abelian backend tests.

Ground truth is classical: the log-determinant of |p| over the torus is the
Mahler measure m(p), so t - 2 has determinant 2, t - 1 has determinant 1,
and m(1 + x + y) is Smyth's closed form 3 sqrt(3) / (4 pi) L(chi_-3, 2).
Expected values come from such closed forms, never from the code under
test.
"""

import numpy as np
import pytest

from detline import _mahler
from detline._mahler import CHECK_CIRCLE, CLUSTER_RADII, map_log_det, positive_log_det
from detline.errors import (
    AlgebraMismatch,
    BackendUnsupported,
    DetlineError,
    IllConditionedKernel,
    IndeterminateConvergence,
    KernelDetected,
    MathematicalRefusal,
    NegativeSpectrum,
    NotDenselyExact,
    NotHermitianSymbol,
    ShapeMismatch,
    ValidationError,
)
from detline.symbols import (
    HERMITIAN_SYMBOL_TOL,
    TORSION_KERNEL_TOL,
    LaurentMatrix,
    TorusGrid,
    abelian_dense_isomorphism_check,
    abelian_determinant_class_check,
    abelian_fk_det,
    abelian_fk_det_general,
    abelian_torsion,
    laurent_trace,
)


def scalar(coeffs, rank=1):
    return LaurentMatrix.from_scalar(coeffs, rank)


T_MINUS_1 = scalar({1: 1.0, 0: -1.0})
T_MINUS_2 = scalar({1: 1.0, 0: -2.0})


def symbol_power(base, exponent):
    out = base
    for _ in range(exponent - 1):
        out = out @ base
    return out


def random_symbol(rng, size, degree=2, rank=1):
    terms = {}
    for _ in range(2 * degree + 1):
        if rank == 1:
            key = (int(rng.integers(-degree, degree + 1)),)
        else:
            key = tuple(int(k) for k in rng.integers(-degree, degree + 1, size=rank))
        terms[key] = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    return LaurentMatrix(rank, terms, shape=(size, size))


def random_positive_symbol(rng, size, degree=2, rank=1, shift=1.0):
    base = random_symbol(rng, size, degree, rank)
    return (base.adjoint() @ base) + shift * LaurentMatrix.identity(rank, size)


# ---------------------------------------------------------------------------
# LaurentMatrix arithmetic


def test_non_finite_coefficients_refused():
    with pytest.raises(ValidationError, match="finite"):
        abelian_fk_det_general(LaurentMatrix(1, {(0,): [[np.nan]]}))


def test_constructor_validation():
    with pytest.raises(BackendUnsupported):
        LaurentMatrix(3, {(0, 0, 0): [[1.0]]})
    with pytest.raises(ValidationError):
        LaurentMatrix(0, {})
    with pytest.raises(ValidationError):
        LaurentMatrix(1, {})  # no coefficients and no shape
    with pytest.raises(ShapeMismatch):
        LaurentMatrix(1, {(0, 0): [[1.0]]})  # exponent length 2 on rank 1
    with pytest.raises(ShapeMismatch):
        LaurentMatrix(1, {0: [[1.0]], 1: [[1.0, 0.0]]})
    with pytest.raises(ValidationError):
        LaurentMatrix(1, {0: [[1.0]], (0,): [[2.0]]})  # same exponent twice


def test_zero_coefficients_are_dropped():
    f = LaurentMatrix(1, {0: [[1.0]], 5: [[0.0]]})
    assert list(f.coefficients) == [(0,)]
    z = LaurentMatrix.zero(1, (2, 2))
    assert z.coefficients == {} and z.shape == (2, 2)


def test_arithmetic_matches_pointwise_evaluation():
    rng = np.random.default_rng(3)
    nodes = TorusGrid(1, 16).nodes()
    for _ in range(5):
        f = random_symbol(rng, 2)
        g = random_symbol(rng, 2)
        fg = f @ g
        s = f + g
        adj = f.adjoint()
        for theta in nodes:
            fv, gv = f.evaluate(theta), g.evaluate(theta)
            assert np.allclose(fg.evaluate(theta), fv @ gv)
            assert np.allclose(s.evaluate(theta), fv + gv)
            assert np.allclose(adj.evaluate(theta), fv.conj().T)
            assert np.allclose((2.5 * f).evaluate(theta), 2.5 * fv)
            assert np.allclose((-f).evaluate(theta), -fv)


def test_arithmetic_matches_pointwise_on_the_two_torus():
    rng = np.random.default_rng(4)
    f = random_symbol(rng, 2, degree=1, rank=2)
    g = random_symbol(rng, 2, degree=1, rank=2)
    nodes = TorusGrid(2, 5).nodes()
    values_fg = (f @ g).evaluate_grid(nodes)
    values_f = f.evaluate_grid(nodes)
    values_g = g.evaluate_grid(nodes)
    assert np.allclose(values_fg, values_f @ values_g)
    assert np.allclose(
        f.adjoint().evaluate_grid(nodes), np.conj(np.swapaxes(values_f, -1, -2))
    )


def test_evaluate_grid_matches_single_points():
    f = random_symbol(np.random.default_rng(5), 3)
    nodes = TorusGrid(1, 8).nodes()
    stacked = f.evaluate_grid(nodes)
    for row, theta in zip(stacked, nodes):
        assert np.allclose(row, f.evaluate(theta))


def test_shape_and_rank_mismatches():
    f = scalar({0: 1.0})
    wide = LaurentMatrix(1, {0: [[1.0, 0.0]]})
    two_torus = scalar({(0, 0): 1.0}, rank=2)
    with pytest.raises(ShapeMismatch):
        f + wide
    with pytest.raises(ShapeMismatch):
        wide @ wide
    with pytest.raises(AlgebraMismatch):
        f @ two_torus
    with pytest.raises(ShapeMismatch):
        wide.size
    assert wide.adjoint().shape == (2, 1)


def test_hermitian_detection():
    assert scalar({1: 1.0, -1: 1.0}).is_hermitian()
    assert scalar({1: 2j, -1: -2j}).is_hermitian()
    assert not T_MINUS_1.is_hermitian()
    assert (T_MINUS_1.adjoint() @ T_MINUS_1).is_hermitian()
    with pytest.raises(NotHermitianSymbol):
        T_MINUS_1.require_hermitian()
    assert not LaurentMatrix(1, {0: [[1.0, 0.0]]}).is_hermitian()


def test_hermitian_check_refuses_just_past_spectral_threshold():
    # c_0 - c_0^H has spectral norm 1.01 times HERMITIAN_SYMBOL_TOL * ||c_0||,
    # the bound the check had with spectral norms; the Frobenius residual
    # against the largest entry modulus still refuses
    c0 = np.diag([4.0, 1.0]).astype(complex)
    c0[0, 1] = 1.01 * HERMITIAN_SYMBOL_TOL * 4.0 * (1 + 1e-6)
    f = LaurentMatrix(1, {0: c0, 1: np.eye(2), -1: np.eye(2)})
    assert np.linalg.norm(c0 - c0.conj().T, 2) > HERMITIAN_SYMBOL_TOL * np.linalg.norm(c0, 2)
    with pytest.raises(NotHermitianSymbol):
        f.require_hermitian()


def test_trace_examples():
    assert laurent_trace(LaurentMatrix.identity(1, 3)) == 3.0
    assert laurent_trace(LaurentMatrix.monomial(1)) == 0.0
    square = symbol_power(scalar({1: 1.0, -1: 1.0}), 2)
    assert laurent_trace(square) == pytest.approx(2.0)
    with pytest.raises(ShapeMismatch):
        laurent_trace(LaurentMatrix(1, {0: [[1.0, 0.0]]}))


def test_trace_matches_quadrature():
    rng = np.random.default_rng(11)
    nodes = TorusGrid(1, 512).nodes()
    for _ in range(10):
        f = random_symbol(rng, 2, degree=4)
        quad = np.mean(np.trace(f.evaluate_grid(nodes), axis1=-2, axis2=-1))
        assert abs(laurent_trace(f) - quad) < 1e-8


# ---------------------------------------------------------------------------
# grids


def test_grid_validation_and_refinement():
    with pytest.raises(ValidationError):
        TorusGrid(1, 1)
    with pytest.raises(BackendUnsupported):
        TorusGrid(3, 8)
    g = TorusGrid.default(1)
    assert g.resolution == 4096 and g.total == 4096
    assert TorusGrid.default(2).resolution == 64
    nodes = TorusGrid(1, 4).nodes()
    assert np.allclose(nodes[:, 0], [0.125, 0.375, 0.625, 0.875])
    assert TorusGrid(2, 4).nodes().shape == (16, 2)
    # a fractional resolution would weight its nodes by 1 / 100.5 while
    # sampling 101 of them
    for rank, resolution in [(1, 100.5), (1, 64.0), (True, 8)]:
        with pytest.raises(ValidationError):
            TorusGrid(rank, resolution)


# ---------------------------------------------------------------------------
# determinants


def test_jensen_determinant_of_t_minus_2():
    result = abelian_fk_det_general(T_MINUS_2)
    assert abs(result.value - 2.0) < 1e-9
    assert result.convergence.passed
    assert result.method == "polar"


def test_determinant_of_t_minus_1_converges_to_one():
    result = abelian_fk_det_general(T_MINUS_1)
    assert abs(result.value - 1.0) < 1e-9
    assert result.convergence.passed
    # the positive route through |t-1|^2 agrees and also passes
    herm = T_MINUS_1.adjoint() @ T_MINUS_1
    result = abelian_fk_det(herm)
    assert abs(result.value - 1.0) < 1e-9
    assert result.convergence.passed


def test_determinants_of_shifted_circles():
    # roots inside the unit circle contribute nothing, outside their modulus
    for a in (3.0, 0.5, -2.5, 0.25j):
        f = scalar({1: 1.0, 0: -a})
        expected = max(1.0, abs(a))
        assert abs(abelian_fk_det_general(f).value - expected) < 1e-6


def test_monomial_unimodularity():
    for exponent in (0, 1, 3, -5):
        result = abelian_fk_det_general(LaurentMatrix.monomial(exponent))
        assert abs(result.value - 1.0) < 1e-10
    result = abelian_fk_det_general(LaurentMatrix.monomial((2, -1)))
    assert abs(result.value - 1.0) < 1e-10


def test_two_torus_determinant_is_slicewise():
    # symbol depending on one angle only integrates to the circle answer
    f = scalar({(1, 0): 1.0, (0, 0): -2.0}, rank=2)
    assert abs(abelian_fk_det_general(f).value - 2.0) < 1e-9


def test_multiplicativity_for_commuting_positives():
    rng = np.random.default_rng(23)
    for _ in range(10):
        f = random_positive_symbol(rng, 1)
        g = random_positive_symbol(rng, 1)
        lhs = abelian_fk_det(f @ g).value
        rhs = abelian_fk_det(f).value * abelian_fk_det(g).value
        assert abs(lhs - rhs) / rhs < 1e-8


def test_determinant_scaling_matches_mass():
    rng = np.random.default_rng(29)
    f = random_positive_symbol(rng, 2)
    base = abelian_fk_det(f)
    scaled = abelian_fk_det(3.0 * f)
    # trace is unnormalized, so scaling by c multiplies by c^size
    assert abs(scaled.value / base.value - 9.0) < 1e-8


SINE = scalar({1: -0.5j, -1: 0.5j})  # sin(2 pi theta)
# sin(2 pi (theta - 0.01))
SINE_SHIFTED = scalar({1: -0.5j * np.exp(-0.02j * np.pi), -1: 0.5j * np.exp(0.02j * np.pi)})


def test_negative_spectrum_refused():
    for f in [
        LaurentMatrix.constant(np.diag([-1.0, 1.0])),
        # dips narrower than the spacing of a midpoint grid of 16384 nodes
        # on the circle and of 256 per axis on the torus; the first reaches
        # -1e-9, five times below the floor
        scalar({0: 1.0 - 1e-9, 1: 0.5, -1: 0.5}),
        scalar({(0, 0): 2.0 - 1e-5, (1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.5, (0, -1): 0.5}, 2),
        # the same with y of higher degree, so x stays the inner variable,
        # and with x of higher degree, so the probe points of the swapped
        # inner variable y must be swapped back
        scalar({(0, 0): 2.0 - 1e-5, (1, 0): 0.5, (-1, 0): 0.5, (0, 2): 0.5, (0, -2): 0.5}, 2),
        scalar({(0, 0): 2.0 - 1e-5, (2, 0): 0.5, (-2, 0): 0.5, (0, 1): 0.5, (0, -1): 0.5}, 2),
        # negative on (0, 0.01) and (1/2, 0.51), down to -4.1e-9, between a
        # simple root and one of multiplicity 5, whose computed roots lie
        # up to 8e-4 off the circle
        symbol_power(SINE, 5) @ SINE_SHIFTED,
    ]:
        with pytest.raises(NegativeSpectrum):
            abelian_fk_det(f)
        with pytest.raises(NegativeSpectrum):
            abelian_determinant_class_check(f)


def test_positive_route_requires_hermitian_symbol():
    with pytest.raises(NotHermitianSymbol):
        abelian_fk_det(T_MINUS_1)


# ---------------------------------------------------------------------------
# verdicts and refusals

# v v^H with v = (1, 1/t): Hermitian, positive, and det vanishes identically
# although no constant vector lies in the kernel
RANK_ONE = LaurentMatrix(
    1, {(0,): np.eye(2), (1,): [[0.0, 1.0], [0.0, 0.0]], (-1,): [[0.0, 0.0], [1.0, 0.0]]}
)


def test_divergence_engineered_symbol_refused():
    # the constant diag(1.5e-3, 1.5e-4, 1) has a finite determinant, 2.25e-7;
    # only a determinant that vanishes identically is refused
    f = LaurentMatrix.constant(np.diag([1.5e-3, 1.5e-4, 1.0]))
    assert abs(abelian_fk_det(f).log_value - np.log(2.25e-7)) < 1e-12
    report = abelian_determinant_class_check(f)
    assert report.passed and report.verdict.diagnostics["route"] == "jensen"
    with pytest.raises(KernelDetected):
        abelian_fk_det(RANK_ONE)
    report = abelian_determinant_class_check(RANK_ONE)
    assert report.refusal == "KernelDetected"
    assert report.value is None


def test_indeterminate_tail_refused(monkeypatch):
    # |t - 1|^40 has determinant 1; roots that do not reproduce the
    # polynomial are the honest IndeterminateConvergence
    power = symbol_power(T_MINUS_1.adjoint() @ T_MINUS_1, 20)
    assert abs(abelian_fk_det(power).log_value) < 1e-12
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: 1.01 * eigvals(a))
    with pytest.raises(IndeterminateConvergence):
        abelian_fk_det(power)
    report = abelian_determinant_class_check(power)
    assert report.refusal == "IndeterminateConvergence"
    assert not report.passed


def test_kernel_bearing_symbol_refused():
    f = LaurentMatrix.constant(np.diag([0.0, 1.0]))
    with pytest.raises(KernelDetected):
        abelian_fk_det(f)
    # same kernel conjugated away from the diagonal
    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    g = LaurentMatrix.constant(u @ np.diag([0.0, 1.0]) @ u.T)
    with pytest.raises(KernelDetected):
        abelian_fk_det(g)


def test_class_check_passes_cleanly():
    report = abelian_determinant_class_check(T_MINUS_2.adjoint() @ T_MINUS_2)
    assert report.passed and report.refusal is None
    assert abs(report.value - 4.0) < 1e-9
    assert report.verdict.status == "convergent"


# ---------------------------------------------------------------------------
# dense isomorphism checks


def test_dense_isomorphism_accepts_t_minus_1():
    report = abelian_dense_isomorphism_check(T_MINUS_1)
    assert abs(report.determinant - 1.0) < 1e-9
    assert report.verdict.passed
    # the infimum of |t - 1|, reached at the Newton node theta = 0
    assert report.minimum_modulus == 0.0


def test_dense_isomorphism_rejects_vanishing_determinant():
    f = LaurentMatrix.constant(np.diag([0.0, 1.0]))
    with pytest.raises(NotDenselyExact):
        abelian_dense_isomorphism_check(f)


def test_dense_isomorphism_rejects_divergent_integral():
    # a small constant determinant is dense image with determinant 2.25e-7;
    # [[1, t], [1, t]] has det = 0 everywhere and is refused
    f = LaurentMatrix.constant(np.diag([1.5e-3, 1.5e-4, 1.0]))
    report = abelian_dense_isomorphism_check(f)
    assert abs(report.log_determinant - np.log(2.25e-7)) < 1e-12
    # so is det F = 1e-14 everywhere: no absolute floor calls it vanishing
    tiny = LaurentMatrix.constant(1e-7 * np.eye(2))
    report = abelian_dense_isomorphism_check(tiny)
    assert report.log_determinant == abelian_fk_det_general(tiny).log_value
    assert abs(report.log_determinant - np.log(1e-14)) < 1e-12
    assert report.minimum_modulus == pytest.approx(1e-14, rel=1e-9)
    g = LaurentMatrix(1, {(0,): [[1.0, 0.0], [1.0, 0.0]], (1,): [[0.0, 1.0], [0.0, 1.0]]})
    with pytest.raises(NotDenselyExact):
        abelian_dense_isomorphism_check(g)


# ---------------------------------------------------------------------------
# torsion of symbol complexes


def test_two_term_torsion_is_inverse_determinant():
    report = abelian_torsion([T_MINUS_2])
    assert abs(report.coordinate - 0.5) < 1e-9
    assert report.betti == (0.0, 0.0)
    assert report.euler_characteristic == 0
    cochain = abelian_torsion([T_MINUS_2], convention="cochain")
    assert abs(cochain.coordinate - 2.0) < 1e-9


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12])
def test_torsion_kernel_cut_scales_with_the_maps(scale):
    # s (t - 2) is injective with dense image at every scale s, and its
    # torsion is 1 / Det = 1 / (2 s)
    report = abelian_torsion([T_MINUS_2 * scale])
    assert report.betti == (0.0, 0.0)
    assert report.log_coordinate == pytest.approx(-np.log(2.0 * scale), abs=1e-9)


def test_circle_over_the_integers_has_trivial_torsion():
    report = abelian_torsion([T_MINUS_1])
    assert abs(report.coordinate - 1.0) < 1e-9
    assert report.betti == (0.0, 0.0)


# cells of the square torus with both loops sent to coordinate shifts
DECK_D2 = LaurentMatrix(
    2,
    {(0, 0): [[1.0], [-1.0]], (0, 1): [[-1.0], [0.0]], (1, 0): [[0.0], [1.0]]},
)
DECK_D1 = LaurentMatrix(
    2, {(1, 0): [[1.0, 0.0]], (0, 0): [[-1.0, -1.0]], (0, 1): [[0.0, 1.0]]}
)


def test_torus_over_its_deck_group():
    report = abelian_torsion([DECK_D1, DECK_D2])
    assert report.betti == (0.0, 0.0, 0.0)
    assert report.euler_characteristic == 0
    assert abs(report.log_coordinate) < 1e-9


@pytest.mark.parametrize("scale", [1e3, 1e6])
def test_kernel_cut_does_not_mix_the_scales_of_two_maps(scale):
    # s d1 scales Det+ of the degree 0 and 1 Laplacian pieces by s^2 and
    # leaves d2's alone, so the torsion is 1 / s.  A cut against one
    # Laplacian's largest eigenvalue would put d2's branches (of order 1)
    # next to s^2
    chain = abelian_torsion([scale * DECK_D1, DECK_D2])
    cochain = abelian_torsion(
        [(scale * DECK_D1).adjoint(), DECK_D2.adjoint()], convention="cochain"
    )
    for report, sign in [(chain, -1.0), (cochain, 1.0)]:
        assert report.betti == (0.0, 0.0, 0.0)
        assert report.log_coordinate == pytest.approx(sign * np.log(scale), abs=1e-9)


def test_zero_map_complex_has_full_homology():
    report = abelian_torsion([LaurentMatrix.zero(1, (1, 1))])
    assert report.betti == (1.0, 1.0)
    assert report.coordinate == pytest.approx(1.0)


def test_torsion_validates_composites_and_shapes():
    with pytest.raises(ValidationError):
        abelian_torsion([T_MINUS_1, LaurentMatrix.identity(1, 1)])
    wide = LaurentMatrix(1, {0: [[1.0, 0.0]]})
    with pytest.raises(ShapeMismatch):
        abelian_torsion([wide, wide])
    with pytest.raises(ValidationError):
        abelian_torsion([])
    with pytest.raises(ValidationError):
        abelian_torsion([T_MINUS_1], convention="sideways")


def test_isolated_zero_keeps_the_generic_rank():
    # |t-1|^8 vanishes at theta = 0 only, a set of measure zero: both
    # Laplacians have full rank and m(|t - 1|^8) = 0
    report = abelian_torsion([symbol_power(T_MINUS_1, 4)])
    assert report.betti == (0.0, 0.0)
    assert abs(report.log_coordinate) < 1e-12


def doubled_row(p):
    """The 1 x 2 map [p, p] of a scalar symbol p."""
    return LaurentMatrix(p.rank, {k: np.tile(c, (1, 2)) for k, c in p.coefficients.items()})


X_MINUS_1 = scalar({(1, 0): 1.0, (0, 0): -1.0}, rank=2)
Y_MINUS_1 = scalar({(0, 1): 1.0, (0, 0): -1.0}, rank=2)
ONE_X_Y = scalar({(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0}, rank=2)


@pytest.mark.parametrize(
    "p", [symbol_power(T_MINUS_1, 4), symbol_power(X_MINUS_1, 3)], ids=["t-1^4", "x-1^3"]
)
def test_kernel_with_a_zero_of_high_order(p):
    # [p, p] keeps a kernel of rank 1 in degree 1, and the positive part of
    # its Laplacian is e_1 = 2 |p|^2 with m(|p|^2) = 0, although the zero of
    # p at 1 is of order 4 or 3
    report = abelian_torsion([doubled_row(p)])
    assert report.betti == (0.0, 1.0)
    assert abs(report.log_coordinate + 0.5 * np.log(2.0)) < 1e-12


def test_torsion_samples_each_map_once(monkeypatch):
    # a 3 x 3 map with Newton box [-1, 1] x [0, 1]: three times it is a
    # 7 x 4 grid, which fixes its 3 x 3 minors
    rng = np.random.default_rng(5)
    terms = {k: rng.normal(size=(3, 3)) for k in [(1, 0), (0, 1), (-1, 1)]}
    terms[(0, 0)] = 10.0 * np.eye(3)
    nodes = []
    evaluate_grid = LaurentMatrix.evaluate_grid
    monkeypatch.setattr(
        LaurentMatrix,
        "evaluate_grid",
        lambda self, grid: nodes.append(len(grid)) or evaluate_grid(self, grid),
    )
    report = abelian_torsion([LaurentMatrix(2, terms)])
    assert report.betti == (0.0, 0.0)
    assert sum(nodes) <= 7 * 4


def test_positive_part_below_the_vanishing_tolerance_refuses():
    # degree 0 has generic rank 3 < 4, and e_3 = 1e-18 vanishes to
    # SYMBOL_KERNEL_REL_TOL against a Laplacian of norm 1
    f = LaurentMatrix.constant(np.diag(np.sqrt([1.0, 1e-9, 1e-9, 0.0])))
    with pytest.raises(IllConditionedKernel):
        abelian_torsion([f])


@pytest.mark.parametrize(
    "p",
    [symbol_power(ONE_X_Y, 2), symbol_power(X_MINUS_1, 2) @ Y_MINUS_1],
    ids=["(1+x+y)^2", "(x-1)^2(y-1)"],
)
def test_repeated_factors_on_the_two_torus_refuse(p):
    # e_1 = 2 |p|^2 has a repeated factor whose roots cross the unit circle;
    # Boyd's quadrature does not settle there, and no number is returned
    with pytest.raises(MathematicalRefusal):
        abelian_torsion([doubled_row(p)])


def laplacian_torsion(boundaries):
    """(betti, log coordinate) of a chain complex from one positive_log_det
    per degree Laplacian, with exponent (-1)^i i/2 on degree i."""
    ranks = [boundaries[0].shape[0]] + [b.shape[1] for b in boundaries]
    betti, log_coordinate = [], 0.0
    for i, m in enumerate(ranks):
        laplacian = LaurentMatrix.zero(boundaries[0].rank, (m, m))
        if i >= 1:
            laplacian = laplacian + boundaries[i - 1].adjoint() @ boundaries[i - 1]
        if i < len(boundaries):
            laplacian = laplacian + boundaries[i] @ boundaries[i].adjoint()
        kernel, log_value, _ = positive_log_det(
            laplacian, TORSION_KERNEL_TOL, IllConditionedKernel, "vanishes"
        )
        betti.append(float(kernel))
        log_coordinate += (-1.0) ** i * (i / 2.0) * log_value
    return tuple(betti), log_coordinate


def random_square_map(seed, rank):
    rng = np.random.default_rng(seed)
    return random_symbol(rng, 2, degree=1, rank=rank) + 4.0 * LaurentMatrix.identity(rank, 2)


@pytest.mark.parametrize(
    "boundaries",
    [
        [DECK_D1, DECK_D2],
        [doubled_row(symbol_power(T_MINUS_1, 4))],
        [doubled_row(symbol_power(X_MINUS_1, 3))],
        [random_square_map(7, 1)],
        [random_square_map(8, 2)],
    ],
    ids=["deck", "t-1^4", "x-1^3", "square rank 1", "square rank 2"],
)
def test_per_map_torsion_matches_the_laplacian_route(boundaries):
    report = abelian_torsion(boundaries)
    betti, log_coordinate = laplacian_torsion(boundaries)
    assert report.betti == betti
    assert abs(report.log_coordinate - log_coordinate) < 1e-12
    map_logs = [0.0]
    for d in boundaries:
        map_logs.append(map_log_det(d, TORSION_KERNEL_TOL, IllConditionedKernel, "vanishes")[1])
    map_logs.append(0.0)
    assert len(report.verdicts) == len(boundaries)
    for i, log_value in enumerate(report.degree_log_determinants):
        assert log_value == map_logs[i] + map_logs[i + 1]


def test_torsion_agrees_with_general_determinant():
    rng = np.random.default_rng(41)
    for _ in range(3):
        f = random_symbol(rng, 2, degree=1) + 4.0 * LaurentMatrix.identity(1, 2)
        report = abelian_torsion([f])
        det = abelian_fk_det_general(f)
        assert abs(report.log_coordinate + det.log_value) < 1e-8


# ---------------------------------------------------------------------------
# Mahler measures on the torus

SMYTH_1_X_Y = 0.323065947219450514093636510724
CATALAN = 0.915965594177219015054603514932


def test_smyth_measure_of_one_plus_x_plus_y():
    f = scalar({(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0}, rank=2)
    result = abelian_fk_det_general(f)
    assert abs(result.log_value - SMYTH_1_X_Y) < 1e-13
    # the roots cross the unit circle at theta = 1/3 and 2/3; a crossing
    # counts once a root is CIRCLE_BAND = 1e-9 past the circle
    diagnostics = result.convergence.diagnostics
    assert diagnostics["route"] == "boyd"
    assert np.max(np.abs(np.subtract(diagnostics["breakpoints"], [1 / 3, 2 / 3]))) < 1e-9
    assert diagnostics["error"] < 1e-13


def test_breakpoints_belong_to_the_outer_axis():
    # 1 + x^2 + y has x of higher degree, so y is the inner variable and the
    # breakpoints are the x angles where |1 + x^2| = 1; x -> x^2 keeps m
    f = scalar({(0, 0): 1.0, (2, 0): 1.0, (0, 1): 1.0}, rank=2)
    result = abelian_fk_det_general(f)
    assert abs(result.log_value - SMYTH_1_X_Y) < 1e-13
    diagnostics = result.convergence.diagnostics
    assert diagnostics["route"] == "boyd" and diagnostics["outer_axis"] == 0
    expected = [1 / 6, 1 / 3, 2 / 3, 5 / 6]
    assert np.max(np.abs(np.subtract(diagnostics["breakpoints"], expected))) < 1e-9
    smyth = abelian_fk_det_general(ONE_X_Y).convergence.diagnostics
    assert smyth["outer_axis"] == 1


def swapped_variables(f):
    """F(y, x) for a symbol F(x, y) on the 2-torus."""
    return LaurentMatrix(2, {k[::-1]: c for k, c in f.coefficients.items()}, shape=f.shape)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_the_inner_variable_has_the_lower_degree(monkeypatch, size):
    # x-degree 1 and y-degree 2: the circle solves take x, in blocks of
    # width 2 for F and 3 for F*F, and the swapped copy gives the same value
    rng = np.random.default_rng(60 + size)
    terms = {(0, 0): 3.0 * np.eye(size)}
    for exponent in [(1, 0), (0, 1), (1, 2), (0, 2)]:
        z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        terms[exponent] = 0.2 * z
    f = LaurentMatrix(2, terms)
    widths = []
    jensen_rows = _mahler._jensen_rows
    monkeypatch.setattr(
        _mahler,
        "_jensen_rows",
        lambda blocks: widths.append(blocks.shape[1]) or jensen_rows(blocks),
    )
    for symbol, determinant, width in [
        (f, abelian_fk_det_general, 2),
        (f.adjoint() @ f, abelian_fk_det, 3),
    ]:
        widths.clear()
        result = determinant(symbol)
        swapped = determinant(swapped_variables(symbol))
        assert set(widths) == {width}
        assert result.convergence.diagnostics["outer_axis"] == 1
        assert swapped.convergence.diagnostics["outer_axis"] == 0
        assert abs(result.log_value - swapped.log_value) < 1e-13


@pytest.mark.parametrize("p", [symbol_power(X_MINUS_1, 3), symbol_power(Y_MINUS_1, 3)])
def test_symbols_constant_in_one_variable_take_jensen(p):
    result = abelian_fk_det_general(p)
    assert result.convergence.diagnostics["route"] == "jensen"
    assert abs(result.log_value) < 1e-12


def test_tangent_without_crossing():
    # 2 + x + y touches zero at x = y = -1 only; no root crosses the circle
    f = scalar({(0, 0): 2.0, (1, 0): 1.0, (0, 1): 1.0}, rank=2)
    assert abs(abelian_fk_det_general(f).log_value - np.log(2.0)) < 1e-13


@pytest.mark.parametrize("axis", [0, 1])
def test_tangential_toric_zero(axis):
    # m(4 - x - 1/x - y - 1/y) = 4G/pi, unchanged by rotating one variable;
    # the zero at x = 1/a, y = 1 changes no root count
    a = np.exp(2j * np.pi * 0.3)
    rotated, plain = [(1, 0), (-1, 0)], [(0, 1), (0, -1)]
    if axis:
        rotated, plain = plain, rotated
    terms = {(0, 0): 4.0, rotated[0]: -a, rotated[1]: -1 / a, plain[0]: -1.0, plain[1]: -1.0}
    result = abelian_fk_det_general(scalar(terms, rank=2))
    assert abs(result.log_value - 4 * CATALAN / np.pi) < 1e-12


@pytest.mark.parametrize("seed", [68, 102])
def test_boyd_panels_stop_at_the_rounding_level(seed):
    # F*F for F a scaled unitary plus perturbations of 0.6 of its norm has a
    # smooth integrand: a panel test above the integrand's rounding passes on
    # the first partition, one below it splits on noise (19 and 15 panels)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    scale = np.exp(rng.uniform(-0.7, 0.7))
    terms = {(0, 0): scale * np.linalg.qr(z)[0]}
    exponents = [(1, 0), (0, 1), (-1, 1)]
    for exponent, share in zip(exponents, rng.dirichlet(np.ones(len(exponents)))):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        terms[exponent] = 0.6 * scale * share * a / np.linalg.norm(a, 2)
    f = LaurentMatrix(2, terms)
    result = abelian_fk_det(f.adjoint() @ f)
    assert result.convergence.diagnostics["panels"] <= 6
    assert abs(result.log_value - 2 * abelian_fk_det_general(f).log_value) < 1e-12


def test_root_on_the_circle_at_every_angle():
    f = scalar({(1, 0): 1.0, (0, 1): -1.0}, rank=2)
    assert abs(abelian_fk_det_general(f).log_value) < 1e-13


def test_multiple_roots_on_the_circle():
    # np.roots alone puts (t - 1)^20 at log M = 1.98
    power = symbol_power(T_MINUS_1, 20)
    assert abs(abelian_fk_det_general(power).log_value) < 1e-12
    assert abs(abelian_fk_det(power.adjoint() @ power).log_value) < 1e-12


def test_multiplicity_from_the_matrix_structure():
    # det(P I) = P^2 with P = 1 + x + y; the block companion keeps the
    # doubled roots as well conditioned as those of P
    one = np.eye(2)
    f = LaurentMatrix(2, {(0, 0): one, (1, 0): one, (0, 1): one})
    assert abs(abelian_fk_det_general(f).log_value - 2 * SMYTH_1_X_Y) < 1e-13


def test_singular_end_blocks():
    # t diag(t - 2, 1/t - 3) has singular leading and constant blocks, so its
    # roots come from the scalar determinant (t - 2)(1 - 3t)
    f = LaurentMatrix(
        1, {(1,): np.diag([1.0, 0.0]), (0,): np.diag([-2.0, -3.0]), (-1,): np.diag([0.0, 1.0])}
    )
    assert abs(abelian_fk_det_general(f).log_value - np.log(6.0)) < 1e-13


def test_rank_deficient_map_torsion():
    # [t - 2, t - 2]: degree 1 keeps a kernel of rank 1, and the positive
    # part of its Laplacian is e_1 = 2 |t - 2|^2
    row = LaurentMatrix(1, {(1,): [[1.0, 1.0]], (0,): [[-2.0, -2.0]]})
    report = abelian_torsion([row])
    assert report.betti == (0.0, 1.0)
    assert abs(report.log_coordinate + 1.5 * np.log(2.0)) < 1e-12


# ---------------------------------------------------------------------------
# numerical multiple roots


def linked_reference(points, radius):
    """Index arrays of the single-linkage clusters of one row of points."""
    moduli = np.maximum(1.0, np.abs(points))
    near = np.abs(points[:, None] - points[None, :]) <= radius * np.maximum(
        moduli[:, None], moduli[None, :]
    )
    label = np.arange(points.size)
    while True:
        merged = np.min(np.where(near, label[None, :], points.size), axis=1)
        merged = merged[merged]
        if np.array_equal(merged, label):
            return [np.nonzero(label == k)[0] for k in sorted(set(label.tolist()))]
        label = merged


def merge_clusters_reference(direct, lead, roots, tol):
    """(root, multiplicity) pairs of one row, by recursion over the linkage
    radii: a cluster straddling the unit circle merges into its centroid
    when the product still reproduces direct to tol, otherwise it splits."""
    factors = CHECK_CIRCLE[:, None] - roots[None, :]
    groups = []

    def resolve(members, level, failed):
        for part in linked_reference(roots[members], CLUSTER_RADII[level]):
            ids = members[part]
            centroid = complex(np.mean(roots[ids]))
            outside = np.abs(roots[ids]) > 1.0
            if ids.size == 1 or np.all(outside == (abs(centroid) > 1.0)):
                groups.extend((r, 1) for r in roots[ids])
                continue
            if not (failed and ids.size == members.size):
                rest = np.prod(np.delete(factors, ids, axis=1), axis=1)
                trial = lead * rest * (CHECK_CIRCLE - centroid) ** ids.size
                if np.max(np.abs(direct - trial)) <= tol:
                    groups.append((centroid, ids.size))
                    continue
            if level + 1 < len(CLUSTER_RADII):
                resolve(ids, level + 1, True)
            else:
                groups.extend((r, 1) for r in roots[ids])

    resolve(np.arange(roots.size), 0, False)
    return groups


def test_batched_merge_matches_the_per_row_recursion():
    # each row holds clusters of multiplicity 1 to 3 within 1e-8 to 1e-5 of
    # the unit circle, each spread as a star of radius 1e-6 the way a
    # computed multiple root spreads, and a tolerance from 1e-15 to 1e-9 of
    # the polynomial's size, so that some clusters merge, others split and
    # others lie on one side of the circle
    rng = np.random.default_rng(3)
    merged = kept = 0
    for _ in range(10):
        multiplicity = rng.integers(1, 4, size=rng.integers(2, 5))
        rows, count = 30, multiplicity.size
        centres = np.exp(2j * np.pi * rng.uniform(size=(rows, count)))
        offset = 10.0 ** rng.uniform(-8, -5, size=(rows, count))
        centres *= 1.0 + offset * rng.normal(size=(rows, count))
        exact = np.repeat(centres, multiplicity, axis=1)
        star = np.concatenate([np.exp(2j * np.pi * np.arange(k) / k) for k in multiplicity])
        turn = np.exp(2j * np.pi * rng.uniform(size=(rows, count)))
        roots = exact + 1e-6 * star * np.repeat(turn, multiplicity, axis=1)
        lead = rng.normal(size=rows) + 1j * rng.normal(size=rows)
        direct = lead[:, None] * np.prod(CHECK_CIRCLE[None, :, None] - exact[:, None, :], axis=2)
        tol = np.abs(lead) * 2.0 ** exact.shape[1] * 10.0 ** rng.uniform(-15, -9, size=rows)
        batched = _mahler._merge_clusters(direct, lead, roots, tol)
        for i in range(rows):
            groups = merge_clusters_reference(direct[i], lead[i], roots[i], tol[i])
            centre = np.array([r for r, _ in groups])
            mult = np.array([k for _, k in groups])
            expected = np.sum(mult * np.log(np.maximum(1.0, np.abs(centre))))
            assert abs(batched[i] - expected) < 1e-15
            merged += int(np.sum(mult > 1))
            kept += int(np.sum(mult == 1))
    assert merged > 50 and kept > 50


# ---------------------------------------------------------------------------
# determinants outside the float range


def scaled_symbols():
    """A 4 x 4 constant, rank-1 and rank-2 symbol, each invertible on the torus."""
    rng = np.random.default_rng(17)
    def symbol(rank, exponents):
        terms = {(0,) * rank: 4.0 * np.eye(4)}
        for exponent in exponents:
            terms[exponent] = 0.3 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        return LaurentMatrix(rank, terms)

    constant = LaurentMatrix.constant(np.diag([1.0, 2.0, 0.5, 3.0]))
    return [constant, symbol(1, [(1,), (-1,)]), symbol(2, [(1, 0), (0, 1), (1, 1)])]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", [1e60, 1e-60, 1e80, 1e-80, 1e200, 1e-200])
@pytest.mark.parametrize("f", scaled_symbols(), ids=["constant", "rank 1", "rank 2"])
def test_determinants_past_the_float_range(f, c):
    # det(c F) = c^4 det F for 4 x 4 F: every route adds 4 log c, and the
    # torsion of c F keeps no kernel
    shift = 4.0 * np.log(c)
    hermitian = f.adjoint() @ f
    cases = [
        (abelian_fk_det_general(f).log_value, lambda: abelian_fk_det_general(c * f).log_value),
        (abelian_fk_det(hermitian).log_value, lambda: abelian_fk_det(c * hermitian).log_value),
        (
            abelian_dense_isomorphism_check(f).log_determinant,
            lambda: abelian_dense_isomorphism_check(c * f).log_determinant,
        ),
        (-abelian_torsion([f]).log_coordinate, lambda: -abelian_torsion([c * f]).log_coordinate),
    ]
    for base, scaled in cases:
        try:
            value = scaled()
        except DetlineError as exc:
            pytest.fail(f"refused: {exc!r}")
        assert abs(value - (base + shift)) <= 1e-12 * abs(base + shift)
    assert abelian_torsion([c * f]).betti == (0.0, 0.0)
