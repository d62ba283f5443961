"""Acceptance suite: one test per release criterion, run with -v for the
per-criterion pass/fail lines.

Every expected value is computed inside the test from an independent route
(brute-force small-matrix arithmetic, algebraic identities, character
decompositions, Jensen/Mahler closed forms), never read back from the code
under test.
"""

import numpy as np
import pytest

from detline._linalg import random_complex
from detline.algebra import (
    FiniteGroupTable,
    FiniteVonNeumannAlgebra,
    build_group_algebra,
    trace as algebra_trace,
)
from detline.complexes import (
    HilbertianChainComplex,
    determinant_class_check,
    hodge,
    torsion_iso_via_exact_sequences,
    torsion_iso_via_laplacians,
    zeta_suite,
)
from detline.determinant import fk_det, fk_det_path, fk_det_spectral
from detline.errors import KernelDetected, NotUnimodular
from detline.fixtures import (
    circle,
    interval,
    lens_space,
    regular_cyclic_representation,
    regular_product_representation,
    scalar_representation,
    sign_representation,
    split_edge,
    split_torus_face,
    torus,
    trivial_representation,
)
from detline.lines import element_from_product, exact_sequence_iso, pushforward
from detline.modules import (
    CommutantOperator,
    HilbertianModule,
    ModuleMorphism,
    canonical_trace,
    direct_sum,
    free_module,
    right_action_operator,
    von_neumann_dimension,
)
from detline.symbols import LaurentMatrix, abelian_fk_det, abelian_fk_det_general
from detline.torsion import invariance_check, torsion

SCALAR = FiniteVonNeumannAlgebra(((1, 1.0),))
Z2 = build_group_algebra(FiniteGroupTable.cyclic(2)).algebra
Z3 = build_group_algebra(FiniteGroupTable.cyclic(3)).algebra
S3 = build_group_algebra(FiniteGroupTable.symmetric(3)).algebra
ALGEBRAS = {"C": SCALAR, "C[Z/2]": Z2, "C[Z/3]": Z3, "C[S3]": S3}


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def random_mult(rng, alg, high=3):
    return tuple(int(rng.integers(1, high + 1)) for _ in alg.blocks)


def random_operator(rng, module):
    return CommutantOperator(
        module, [random_complex(rng, (m, m)) for m in module.multiplicities]
    )


def random_invertible(rng, module, shift=2.0):
    return random_operator(rng, module) + CommutantOperator.identity(module) * shift


def random_positive(rng, module, floor=0.5):
    blocks = []
    for m in module.multiplicities:
        b = random_complex(rng, (m, m))
        blocks.append(b.conj().T @ b + floor * np.eye(m))
    return CommutantOperator(module, blocks)


def random_gram_matrix(rng, module, floor=0.3):
    return random_positive(rng, module, floor=floor).to_matrix()


def _unit_frame(rng, m):
    if m == 0:
        return np.zeros((0, 0), dtype=complex)
    q, _ = np.linalg.qr(random_complex(rng, (m, m)))
    return q


def make_complex(rng, alg, mults, convention="chain", grams=True):
    """Random complex with exactly composing maps: images and coimages are
    laid out in disjoint columns of one unitary frame per degree and block."""
    modules = [HilbertianModule(alg, m) for m in mults]
    nmaps = len(mults) - 1
    nblocks = len(alg.blocks)
    frames = [[_unit_frame(rng, m) for m in mod.multiplicities] for mod in modules]
    ranks = [[0] * nblocks for _ in range(nmaps + 1)]
    maps = []
    if convention == "chain":
        blocks_by_map = [None] * nmaps
        for j in range(nmaps - 1, -1, -1):
            blks = []
            for k in range(nblocks):
                src_m, tgt_m = mults[j + 1][k], mults[j][k]
                used = ranks[j + 1][k]
                r = int(rng.integers(0, min(src_m - used, tgt_m) + 1))
                ranks[j][k] = r
                sv = 0.5 + 1.5 * rng.random(r)
                left = frames[j][k][:, :r]
                right = frames[j + 1][k][:, used:used + r]
                blks.append((left * sv) @ right.conj().T)
            blocks_by_map[j] = blks
        maps = [
            ModuleMorphism(modules[j + 1], modules[j], blocks_by_map[j])
            for j in range(nmaps)
        ]
    else:
        for j in range(nmaps):
            blks = []
            for k in range(nblocks):
                src_m, tgt_m = mults[j][k], mults[j + 1][k]
                used = ranks[j - 1][k] if j else 0
                r = int(rng.integers(0, min(src_m - used, tgt_m) + 1))
                ranks[j][k] = r
                sv = 0.5 + 1.5 * rng.random(r)
                left = frames[j + 1][k][:, :r]
                right = frames[j][k][:, used:used + r]
                blks.append((left * sv) @ right.conj().T)
            maps.append(ModuleMorphism(modules[j], modules[j + 1], blks))
    if grams:
        modules = [m.with_reference_gram(random_gram_matrix(rng, m)) for m in modules]
    return HilbertianChainComplex(modules, maps, convention=convention)


def random_complexes(seed):
    """The shared pool: 50 complexes per algebra, both conventions."""
    rng = np.random.default_rng(seed)
    for alg in ALGEBRAS.values():
        for i in range(50):
            length = 3 + i % 2
            mults = [random_mult(rng, alg) for _ in range(length)]
            convention = "chain" if i % 2 == 0 else "cochain"
            yield make_complex(rng, alg, mults, convention=convention)


def scalar_symbol(*pairs):
    return LaurentMatrix(1, {(k,): np.array([[v]], dtype=complex) for k, v in pairs})


# -- criterion 1: determinant laws on random invertibles -----------------------


def test_c01_fk_determinant_laws():
    rng = np.random.default_rng(101)
    for alg in ALGEBRAS.values():
        for _ in range(25):
            module = HilbertianModule(alg, random_mult(rng, alg))
            dim = von_neumann_dimension(module)
            a = random_invertible(rng, module)
            b = random_invertible(rng, module)
            det_a = fk_det(module, a).value
            det_b = fk_det(module, b).value

            # multiplicativity
            assert rel(fk_det(module, a @ b).value, det_a * det_b) <= 1e-8

            # scalars scale by modulus to the module dimension
            lam = complex(rng.normal(), rng.normal())
            lam *= (0.3 + 2.0 * rng.random()) / abs(lam)
            det_lam = fk_det(module, CommutantOperator.identity(module) * lam).value
            assert rel(det_lam, abs(lam) ** dim) <= 1e-8

            # scaling the trace raises the determinant to the same power
            c = 0.4 + 2.0 * rng.random()
            scaled = HilbertianModule(alg.with_scaled_trace(c), module.multiplicities)
            det_c = fk_det(scaled, CommutantOperator(scaled, a.blocks)).value
            assert rel(det_c, det_a ** c) <= 1e-8

            # block-triangular operators drop the off-diagonal corner
            other = HilbertianModule(alg, random_mult(rng, alg))
            d = random_invertible(rng, other)
            total = direct_sum(module, other)
            blocks = []
            for ma, mb, ba, bd in zip(
                module.multiplicities, other.multiplicities, a.blocks, d.blocks
            ):
                corner = random_complex(rng, (ma, mb))
                blocks.append(
                    np.block([[ba, corner], [np.zeros((mb, ma)), bd]])
                )
            tri = CommutantOperator(total, blocks)
            det_d = fk_det(other, d).value
            assert rel(fk_det(total, tri).value, det_a * det_d) <= 1e-8


# -- criterion 2: path route against the spectral route ------------------------


def test_c02_path_and_spectral_routes():
    rng = np.random.default_rng(202)
    for alg in ALGEBRAS.values():
        for _ in range(25):
            module = HilbertianModule(alg, random_mult(rng, alg))
            op = random_positive(rng, module)
            spectral = fk_det_spectral(module, op).value
            assert rel(fk_det_path(module, op).value, spectral) <= 1e-8

            # the path route and the polar route through |A| give one value
            assert rel(fk_det_path(module, op).value, fk_det(module, op).value) <= 1e-7


# -- criterion 3: trace identities ----------------------------------------------


def test_c03_trace_identities():
    rng = np.random.default_rng(303)
    for alg in ALGEBRAS.values():
        # the trace of a matrix over A is the sum of the traces of its
        # diagonal entries, exactly, on free modules of every small rank
        for rank in (1, 2, 3):
            free = free_module(alg, rank)
            for _ in range(8):
                alpha = [
                    [alg.random_element(rng) for _ in range(rank)]
                    for _ in range(rank)
                ]
                op = right_action_operator(free, alpha)
                direct = canonical_trace(free, op)
                by_entries = sum(
                    algebra_trace(alg, alpha[i][i]) for i in range(rank)
                )
                assert abs(direct - by_entries) <= 1e-10

        # additivity across direct sums
        for _ in range(25):
            m = HilbertianModule(alg, random_mult(rng, alg))
            n = HilbertianModule(alg, random_mult(rng, alg))
            f = random_operator(rng, m)
            g = random_operator(rng, n)
            total = direct_sum(m, n)
            blocks = []
            for ma, mb, bf, bg in zip(
                m.multiplicities, n.multiplicities, f.blocks, g.blocks
            ):
                blocks.append(
                    np.block(
                        [
                            [bf, np.zeros((ma, mb))],
                            [np.zeros((mb, ma)), bg],
                        ]
                    )
                )
            summed = canonical_trace(total, CommutantOperator(total, blocks))
            split = canonical_trace(m, f) + canonical_trace(n, g)
            assert abs(summed - split) <= 1e-10


# -- criterion 4: determinant line calculus -------------------------------------


def _random_exact_sequence(rng, alg, sub_mult, total_mult):
    sub = HilbertianModule(alg, sub_mult)
    total = HilbertianModule(alg, total_mult)
    quot_mult = tuple(t - s for t, s in zip(total_mult, sub_mult))
    quot = HilbertianModule(alg, quot_mult)
    a_blocks, b_blocks = [], []
    for ms, mt, mq in zip(sub_mult, total_mult, quot_mult):
        q, _ = np.linalg.qr(random_complex(rng, (mt, mt)))
        a = q[:, :ms] @ (random_complex(rng, (ms, ms)) + 2.0 * np.eye(ms))
        g = random_complex(rng, (mq, mq)) + 2.0 * np.eye(mq)
        a_blocks.append(a)
        b_blocks.append(g @ q[:, ms:].conj().T)
    alpha = ModuleMorphism(sub, total, a_blocks)
    beta = ModuleMorphism(total, quot, b_blocks)
    return sub, total, quot, alpha, beta


def test_c04_det_line_calculus():
    rng = np.random.default_rng(404)
    for alg in ALGEBRAS.values():
        for _ in range(10):
            m = HilbertianModule(alg, random_mult(rng, alg))
            n = HilbertianModule(alg, m.multiplicities)
            p = HilbertianModule(alg, m.multiplicities)
            f = ModuleMorphism(m, n, random_invertible(rng, m).blocks)
            g = ModuleMorphism(n, p, random_invertible(rng, n).blocks)
            e = element_from_product(m, random_gram_matrix(rng, m))

            # pushforward is a cocycle under composition
            once = pushforward(g @ f, e)
            twice = pushforward(g, pushforward(f, e))
            assert rel(once.coefficient, twice.coefficient) <= 1e-9

            # scaling a product by lam^2 scales its element by lam^(-dim)
            gram = random_gram_matrix(rng, m)
            lam = 0.3 + 2.2 * rng.random()
            base = element_from_product(m, gram).coefficient
            scaled = element_from_product(m, lam ** 2 * gram).coefficient
            expected = lam ** -von_neumann_dimension(m) * base
            assert rel(scaled, expected) <= 1e-9

            # the pushforward multiplier does not depend on the product used:
            # pushing [G] lands on the element of the transported product
            finv = f.inverse().to_matrix()
            transported = finv.conj().T @ gram @ finv
            via_push = pushforward(f, element_from_product(m, gram))
            via_product = element_from_product(n, transported)
            assert rel(via_push.coefficient, via_product.coefficient) <= 1e-9
            e2 = element_from_product(m, random_gram_matrix(rng, m))
            ratio_before = e.coefficient / e2.coefficient
            ratio_after = (
                pushforward(f, e).coefficient / pushforward(f, e2).coefficient
            )
            assert rel(ratio_before, ratio_after) <= 1e-9

            # the exact-sequence isomorphism is independent of the splitting:
            # under identity grams the element of <r v, r w> + <b v, b w> is
            # Det(r^H r + b^H b)^(-1/2), the same for the orthogonal
            # retraction r and for a sheared one
            total_mult = tuple(s + 1 + int(rng.integers(0, 2)) for s in m.multiplicities)
            sub, total, quot, alpha, beta = _random_exact_sequence(
                rng, alg, m.multiplicities, total_mult
            )
            e_sub = element_from_product(sub, random_gram_matrix(rng, sub))
            e_quot = element_from_product(quot, random_gram_matrix(rng, quot))
            default = exact_sequence_iso(alpha, beta, e_sub, e_quot)
            orthogonal, skew = [], []
            for a, b in zip(alpha.blocks, beta.blocks):
                pinv = np.linalg.solve(a.conj().T @ a, a.conj().T)
                gamma = random_complex(rng, (a.shape[1], b.shape[0]))
                orthogonal.append(pinv)
                skew.append(pinv + gamma @ b)
            for r_blocks in (orthogonal, skew):
                log_det = sum(
                    w * np.linalg.slogdet(r.conj().T @ r + b.conj().T @ b)[1]
                    for w, r, b in zip(total.algebra.weights, r_blocks, beta.blocks)
                )
                split = np.exp(-0.5 * log_det) * e_sub.coefficient * e_quot.coefficient
                assert rel(default.coefficient, split) <= 1e-9


# -- criterion 5: the two torsion routes agree on random complexes ---------------


def test_c05_torsion_route_equivalence():
    for cx in random_complexes(505):
        assert determinant_class_check(cx).passed
        via_lap = torsion_iso_via_laplacians(cx).coordinate
        via_seq = torsion_iso_via_exact_sequences(cx).coordinate
        assert rel(via_lap, via_seq) <= 1e-8


# -- criterion 6: zeta normalization --------------------------------------------


def test_c06_zeta_normalization():
    mellin_checked = 0
    for index, cx in enumerate(random_complexes(505)):
        data = hodge(cx)
        report = zeta_suite(cx, hodge_data=data)

        # exp(zeta'/2) against the alternating product of determinants of
        # the positive Laplacians, the latter through the determinant
        # machinery (kernel filled with the harmonic projector)
        log_product = 0.0
        for j, module in enumerate(cx.modules):
            shifted = data.laplacians[j] + data.harmonic_projectors[j]
            det = fk_det_spectral(module, shifted).value
            log_product += (-1.0) ** (j + 1) * 0.5 * j * np.log(det)
        assert rel(report.normalization, np.exp(log_product)) <= 1e-9

        # quadrature of the Mellin integral against the closed form, on the
        # first complex of each algebra that has spectrum in degree 0
        if index % 50 == 0 and report.densities[0].values.size:
            closed = report.zeta_value(0, 1.0, lam=0.5)
            integral = report.mellin_zeta(0, 1.0, lam=0.5)
            assert abs(closed - integral) <= 1e-4
            mellin_checked += 1
    assert mellin_checked >= 3


# -- criterion 7: subdivision invariance -----------------------------------------


def test_c07_subdivision_invariance():
    cases = []
    cx = interval()
    cases.append((cx, split_edge(cx, "e"), trivial_representation(())))

    cx = circle()
    for rep in (
        trivial_representation(("t",)),
        sign_representation(("t",)),
        regular_cyclic_representation(3),
    ):
        cases.append((cx, split_edge(cx, "e0"), rep))

    cx = torus()
    for rep in (
        trivial_representation(("a", "b")),
        sign_representation(("a", "b")),
        regular_product_representation((2, 2), ("a", "b")),
    ):
        cases.append((cx, split_edge(cx, "ea"), rep))
        cases.append((cx, split_torus_face(cx), rep))

    for cx, (refined, psi), rep in cases:
        report = invariance_check(cx, refined, psi, rep)
        assert report.discrepancy < 1e-8


# -- criterion 8: documented torsion values --------------------------------------


def test_c08_documented_torsion_values():
    # circle with the deck transformation acting by -1: the assembled
    # complex is the 1x1 matrix rho(t) - 1, and the brute-force value of
    # the torsion is Det(Delta_1)^(-1/2)
    boundary = -1.0 - 1.0
    oracle = (abs(boundary) ** 2) ** -0.5
    report = torsion(circle(), scalar_representation({"t": -1.0}))
    assert abs(report.coordinate - oracle) <= 1e-12
    assert abs(report.coordinate - 0.5) <= 1e-12

    # lens space L(3,1) with regular Z/3 coefficients: decompose into the
    # three characters, compute each 1x1 torsion by hand, and recombine
    # with the trace weight 1/3 per character
    combined = 1.0
    for j in range(3):
        omega = np.exp(2.0j * np.pi * j / 3.0)
        d = [omega - 1.0, 1.0 + omega + omega * omega, omega - 1.0]
        laplacians = [
            abs(d[0]) ** 2,
            abs(d[0]) ** 2 + abs(d[1]) ** 2,
            abs(d[1]) ** 2 + abs(d[2]) ** 2,
            abs(d[2]) ** 2,
        ]
        for i, lam in enumerate(laplacians):
            if lam > 1e-12:
                combined *= lam ** ((0.5 * i * (-1.0) ** i) / 3.0)
    report = torsion(lens_space(3), regular_cyclic_representation(3))
    assert rel(report.coordinate, combined) <= 1e-8
    assert rel(report.coordinate, 3.0 ** (-1.0 / 3.0)) <= 1e-8


# -- criterion 9: determinants over the torus algebra ----------------------------


def test_c09_torus_symbol_determinants():
    # Mahler: m(t - a) = log max(1, |a|), so Det(t - 2) = 2
    det = abelian_fk_det_general(scalar_symbol((0, -2.0), (1, 1.0)))
    assert abs(det.value - 2.0) <= 1e-6 * 2.0
    assert det.convergence.passed

    # t - 1 vanishes on the circle but the log integral converges to 0
    det = abelian_fk_det_general(scalar_symbol((0, -1.0), (1, 1.0)))
    assert det.convergence.passed
    assert abs(det.value - 1.0) <= 1e-6

    # unimodularity of monomials, including a phase and a rank-2 exponent
    for symbol in (
        scalar_symbol((1, 1.0)),
        scalar_symbol((3, 1.0)),
        scalar_symbol((-2, np.exp(0.7j))),
        LaurentMatrix(2, {(1, -1): np.array([[1.0j]], dtype=complex)}),
    ):
        det = abelian_fk_det_general(symbol)
        assert abs(det.value - 1.0) <= 1e-10


# -- criterion 10: refusals are typed errors, not numbers -------------------------


def test_c10_refusal_paths():
    with pytest.raises(NotUnimodular):
        torsion(circle(), scalar_representation({"t": 2.0}))

    module = HilbertianModule(SCALAR, (2,))
    singular = CommutantOperator(module, [np.diag([0.0, 1.0]).astype(complex)])
    with pytest.raises(KernelDetected):
        fk_det_spectral(module, singular)

    kernel_symbol = LaurentMatrix(
        1, {(0,): np.diag([0.0, 1.0]).astype(complex)}
    )
    with pytest.raises(KernelDetected):
        abelian_fk_det(kernel_symbol)

    # a nonzero Laurent polynomial has a finite Mahler measure: the small
    # constant determinant 2.25e-7 is a value, not a divergence
    engineered = LaurentMatrix(
        1, {(0,): np.diag([1.5e-3, 1.5e-4, 1.0]).astype(complex)}
    )
    assert abs(abelian_fk_det(engineered).log_value - np.log(2.25e-7)) < 1e-12
    # v v^H with v = (1, 1/t) has det = 0 at every point: refused
    rank_one = LaurentMatrix(
        1,
        {
            (0,): np.eye(2, dtype=complex),
            (1,): np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
            (-1,): np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
        },
    )
    with pytest.raises(KernelDetected):
        abelian_fk_det(rank_one)
