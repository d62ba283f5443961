import itertools
import tracemalloc

import numpy as np
import pytest

from detline import algebra
from detline._linalg import random_complex
from detline.algebra import (
    VERIFY_TOL,
    AlgebraElement,
    FiniteGroupTable,
    FiniteVonNeumannAlgebra,
    _commutant_element,
    _verify_decomposition,
    build_group_algebra,
)
from detline.errors import (
    AlgebraMismatch,
    DecompositionFailure,
    NonAssociativeTable,
    ValidationError,
)


def blkdiag_model(dec, g):
    # independent reconstruction of the expected block action of element g
    mats = [
        np.kron(b, np.eye(n))
        for (n, _), b in zip(dec.algebra.blocks, dec.group_images[g].block_matrices)
    ]
    total = sum(m.shape[0] for m in mats)
    out = np.zeros((total, total), dtype=complex)
    at = 0
    for m in mats:
        out[at : at + m.shape[0], at : at + m.shape[0]] = m
        at += m.shape[0]
    return out


def test_algebra_validation():
    with pytest.raises(ValidationError):
        FiniteVonNeumannAlgebra(())
    with pytest.raises(ValidationError):
        FiniteVonNeumannAlgebra(((0, 1.0),))
    with pytest.raises(ValidationError):
        FiniteVonNeumannAlgebra(((2, -0.5),))
    alg = FiniteVonNeumannAlgebra(((2, 0.25), (1, 1.0)))
    assert alg.trace_of_identity == pytest.approx(1.5)
    assert alg.total_matrix_dim == 5


def test_trace_is_tracial_faithful_linear():
    alg = FiniteVonNeumannAlgebra(((1, 0.5), (2, 0.25)))
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = alg.random_element(rng)
        y = alg.random_element(rng)
        assert alg.trace(x * y) == pytest.approx(alg.trace(y * x), abs=1e-12)
        assert alg.trace(x + y) == pytest.approx(alg.trace(x) + alg.trace(y), abs=1e-12)
        assert np.conj(alg.trace(x)) == pytest.approx(alg.trace(x.adjoint()), abs=1e-12)
        positive = alg.trace(x.adjoint() * x)
        assert positive.imag == pytest.approx(0.0, abs=1e-12)
        assert positive.real > 0
    assert alg.trace(alg.identity()) == pytest.approx(alg.trace_of_identity)


def test_scaled_trace():
    alg = FiniteVonNeumannAlgebra(((1, 0.5), (2, 0.25)))
    doubled = alg.with_scaled_trace(2.0)
    rng = np.random.default_rng(3)
    x = alg.random_element(rng)
    y = AlgebraElement(doubled, x.block_matrices)
    assert doubled.trace(y) == pytest.approx(2.0 * alg.trace(x), abs=1e-12)


def test_algebra_mismatch_rejected():
    a = FiniteVonNeumannAlgebra(((1, 1.0),))
    b = FiniteVonNeumannAlgebra(((1, 0.5),))
    with pytest.raises(AlgebraMismatch):
        a.identity() + b.identity()


def test_bad_tables_rejected():
    with pytest.raises(NonAssociativeTable):
        FiniteGroupTable([[0, 1], [1, 1]])  # not a latin square
    # latin square that is not associative (order-5 quasigroup)
    q = np.array(
        [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
    )
    with pytest.raises(NonAssociativeTable):
        FiniteGroupTable(q)


def test_table_validation_runs_in_quadratic_memory():
    # associativity is compared a bounded block of rows at a time; comparing
    # the two whole n^3 gathers peaked at 272 MiB on C16 x C16
    c16 = FiniteGroupTable.cyclic(16)
    table = FiniteGroupTable.direct_product(c16, c16)
    tracemalloc.start()
    try:
        table.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _loop_with_left_nucleus_of_index_2(m):
    """A loop on Z/m x Z/2, element (x, t) at index t m + x:
    (x, 0)(y, t) = (x + y, t) and (x, 1)(y, t) = (x + s(y), 1 + t), where s
    swaps 1 and 2 and so is not additive.  Every triple with a first factor
    (x, 0) associates; every (x, 1) fails with b = (1, 0), c = (1, 0)."""
    s = np.arange(m)
    s[[1, 2]] = s[[2, 1]]
    t, x = np.divmod(np.arange(2 * m), m)
    right = np.where(t[:, None] == 1, s[x][None, :], x[None, :])
    return (t[:, None] + t[None, :]) % 2 * m + (x[:, None] + right) % m


def test_associativity_failure_in_the_last_row_block_is_found():
    table = _loop_with_left_nucleus_of_index_2(32)
    n = len(table)
    # two row blocks of 32, and every failing triple has a in the second
    assert algebra.ASSOCIATIVITY_BLOCK // (n * n) == n // 2
    failing = [a for a in range(n) if not np.array_equal(table[table[a]], table[a][table])]
    assert failing == list(range(n // 2, n))
    with pytest.raises(NonAssociativeTable, match="not associative"):
        FiniteGroupTable(table)


def test_table_constructors_match_their_definitions():
    # reference loops: symmetric composes permutations, (a b)[k] = a[b[k]],
    # and direct_product multiplies pairs coordinatewise
    for n in range(5):
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        want = [[index[tuple(a[b[k]] for k in range(n))] for b in perms] for a in perms]
        assert np.array_equal(FiniteGroupTable.symmetric(n).product, want)
    c, s = FiniteGroupTable.cyclic, FiniteGroupTable.symmetric
    for t1, t2 in [(c(2), s(3)), (c(4), c(4)), (s(3), c(5))]:
        n2 = t2.order
        pairs = [(a1, a2) for a1 in range(t1.order) for a2 in range(n2)]
        want = [
            [t1.product[a1, b1] * n2 + t2.product[a2, b2] for b1, b2 in pairs]
            for a1, a2 in pairs
        ]
        table = FiniteGroupTable.direct_product(t1, t2)
        assert np.array_equal(table.product, want)
        assert table.identity == t1.identity * n2 + t2.identity


def _c2_s3():
    c2, s3 = FiniteGroupTable.cyclic(2), FiniteGroupTable.symmetric(3)
    return FiniteGroupTable.direct_product(c2, s3)


@pytest.mark.parametrize(
    "table",
    [FiniteGroupTable.cyclic(12), FiniteGroupTable.symmetric(4), _c2_s3()],
    ids=["C12", "S4", "C2xS3"],
)
def test_commutant_element_is_the_right_translation_sum(table):
    # The decomposition takes commutation with every left translation from
    # associativity instead of checking it; pin that theorem on the gather.
    coeffs = random_complex(np.random.default_rng(5), table.order)
    gathered = _commutant_element(table, coeffs)
    dense = sum(c * table.right_translation(h) for h, c in enumerate(coeffs))
    assert np.array_equal(gathered, dense)
    for g in range(table.order):
        left = table.left_translation(g)
        assert np.array_equal(left @ gathered, gathered @ left)


@pytest.mark.parametrize(
    "table",
    [FiniteGroupTable.cyclic(24), FiniteGroupTable.symmetric(4), _c2_s3()],
    ids=["C24", "S4", "C2xS3"],
)
def test_decomposition_builds_no_translation_matrix(table, monkeypatch):
    def refuse(self, g):
        raise AssertionError("dense translation matrix built")

    monkeypatch.setattr(FiniteGroupTable, "left_translation", refuse)
    monkeypatch.setattr(FiniteGroupTable, "right_translation", refuse)
    dec = build_group_algebra(table)
    assert dec.algebra.trace_of_identity == pytest.approx(1.0, abs=1e-12)


def test_decomposition_takes_at_most_one_svd_per_attempt(monkeypatch):
    # families come from the Frobenius block norms of one intertwiner
    # matrix and the checks use Frobenius residuals; only the probe's
    # operator norm is an SVD (C64 took 2082 when each was its own SVD)
    counts = {"svd": 0, "attempts": 0}
    svd = np.linalg.svd
    attempt = algebra._decompose_once

    def counted_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counted_attempt(*args):
        counts["attempts"] += 1
        return attempt(*args)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(algebra, "_decompose_once", counted_attempt)
    dec = build_group_algebra(FiniteGroupTable.cyclic(64))
    assert dec.algebra.block_dims == (1,) * 64
    assert 1 <= counts["attempts"] and counts["svd"] <= counts["attempts"]


@pytest.mark.parametrize(
    "table,dims,weights",
    [
        (FiniteGroupTable.trivial(), (1,), (1.0,)),
        (FiniteGroupTable.cyclic(2), (1, 1), (0.5, 0.5)),
        (FiniteGroupTable.cyclic(3), (1, 1, 1), (1 / 3, 1 / 3, 1 / 3)),
        (FiniteGroupTable.symmetric(3), (1, 1, 2), (1 / 6, 1 / 6, 1 / 3)),
        (
            FiniteGroupTable.direct_product(FiniteGroupTable.cyclic(2), FiniteGroupTable.cyclic(2)),
            (1, 1, 1, 1),
            (0.25, 0.25, 0.25, 0.25),
        ),
    ],
)
def test_group_algebra_block_structure(table, dims, weights):
    dec = build_group_algebra(table)
    assert dec.algebra.block_dims == dims
    assert np.allclose(dec.algebra.weights, weights)
    assert dec.algebra.trace_of_identity == pytest.approx(1.0, abs=1e-12)


def test_group_algebra_is_homomorphism_and_trace_normalized():
    table = FiniteGroupTable.symmetric(3)
    dec = build_group_algebra(table)
    for g in range(table.order):
        for h in range(table.order):
            prod = dec.group_images[g] * dec.group_images[h]
            assert prod.is_close_to(dec.group_images[table.product[g, h]], tol=1e-9)
        want = 1.0 if g == table.identity else 0.0
        assert dec.algebra.trace(dec.group_images[g]) == pytest.approx(want, abs=1e-10)
        # group elements map to unitaries
        u = dec.group_images[g]
        assert (u * u.adjoint()).is_close_to(dec.algebra.identity(), tol=1e-9)


def test_change_of_basis_conjugates_left_translation():
    table = FiniteGroupTable.symmetric(3)
    dec = build_group_algebra(table)
    u = dec.change_of_basis
    assert np.allclose(u.conj().T @ u, np.eye(table.order), atol=1e-9)
    for g in range(table.order):
        left = table.left_translation(g)
        assert np.allclose(u.conj().T @ left @ u, blkdiag_model(dec, g), atol=1e-8)


def test_characters_match_z3():
    dec = build_group_algebra(FiniteGroupTable.cyclic(3))
    omega = np.exp(2j * np.pi / 3)
    key = lambda z: (round(z.real, 9), round(z.imag, 9))
    gen = dec.group_images[1]
    chars = sorted((complex(gen.block_matrices[k][0, 0]) for k in range(3)), key=key)
    expected = sorted([1 + 0j, omega, omega**2], key=key)
    assert np.allclose(chars, expected, atol=1e-9)


def test_s4_decomposition():
    # two inequivalent 3-dimensional blocks must not be merged
    table = FiniteGroupTable.symmetric(4)
    dec = build_group_algebra(table)
    assert dec.algebra.block_dims == (1, 1, 2, 3, 3)
    assert dec.algebra.trace_of_identity == pytest.approx(1.0, abs=1e-12)


def _verify(dec, images):
    _verify_decomposition(dec.table, dec.change_of_basis, dec.algebra, images)


def test_verification_rejects_swapped_images():
    dec = build_group_algebra(FiniteGroupTable.symmetric(3))
    _verify(dec, dec.group_images)
    swapped = list(dec.group_images)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    with pytest.raises(DecompositionFailure):
        _verify(dec, swapped)


def test_verification_bounds_the_product_residual():
    # The check never forms the n^2 group products; at the largest
    # perturbation of the images it still accepts, the explicit product
    # residual must stay within VERIFY_TOL.
    table = FiniteGroupTable.symmetric(4)
    dec = build_group_algebra(table)
    alg = dec.algebra
    rng = np.random.default_rng(23)
    directions = []
    for _ in range(table.order):
        e = alg.random_element(rng)
        # trace free, so the trace check cannot be what rejects
        e = e - (alg.trace(e) / alg.trace_of_identity) * alg.identity()
        directions.append(e * (1.0 / e.norm()))

    def images(delta):
        return [img + delta * e for img, e in zip(dec.group_images, directions)]

    def accepted(delta):
        try:
            _verify(dec, images(delta))
        except DecompositionFailure:
            return False
        return True

    lo, hi = 0.0, VERIFY_TOL
    assert accepted(lo) and not accepted(hi)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
    perturbed = images(lo)
    residual = max(
        (perturbed[table.product[g, h]] - perturbed[g] * perturbed[h]).norm()
        for g in range(table.order)
        for h in range(table.order)
    )
    assert residual <= VERIFY_TOL


def test_determinism_same_seed():
    table = FiniteGroupTable.symmetric(3)
    a = build_group_algebra(table)
    b = build_group_algebra(table)
    assert np.allclose(a.change_of_basis, b.change_of_basis)
    for x, y in zip(a.group_images, b.group_images):
        assert x.is_close_to(y, tol=1e-14)


@pytest.mark.parametrize(
    "table",
    [FiniteGroupTable.cyclic(4), FiniteGroupTable.symmetric(3), FiniteGroupTable.symmetric(4)],
    ids=["C4", "S3", "S4"],
)
def test_coefficient_round_trip(table):
    dec = build_group_algebra(table)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(table.order) + 1j * rng.standard_normal(table.order)
    x = dec.element_from_coefficients(coeffs)
    back = dec.coefficients_from_element(x)
    assert np.allclose(back, coeffs, atol=1e-10)
    # the trace picks out the identity coefficient
    assert dec.algebra.trace(x) == pytest.approx(complex(coeffs[0]), abs=1e-10)
    # Fourier inversion sends the image of g to the unit vector e_g
    units = np.eye(table.order)
    for g, img in enumerate(dec.group_images):
        assert np.allclose(dec.coefficients_from_element(img), units[g], atol=1e-10)
