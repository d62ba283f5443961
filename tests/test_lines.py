"""Determinant line calculus tests."""

import numpy as np
import pytest

from detline._linalg import random_complex
from detline.algebra import FiniteGroupTable, FiniteVonNeumannAlgebra, build_group_algebra
from detline.determinant import fk_det
from detline.errors import (
    DetlineError,
    DuplicateDegree,
    KernelDetected,
    NotAdmissible,
    NotExact,
    NotIso,
    ValidationError,
)
from detline.lines import (
    EXACTNESS_TOL,
    DetLineElement,
    element_from_extended_product,
    element_from_product,
    exact_sequence_iso,
    graded_assemble,
    pushforward,
    reference_element,
    tensor_sum,
)
from detline.modules import (
    CommutantOperator,
    HilbertianModule,
    ModuleMorphism,
    direct_sum,
    direct_sum_many,
    inclusion_morphisms,
    regular_module,
    standard_module,
    von_neumann_dimension,
    zero_module,
)

S3 = build_group_algebra(FiniteGroupTable.symmetric(3)).algebra
Z3 = build_group_algebra(FiniteGroupTable.cyclic(3)).algebra
SCALAR = FiniteVonNeumannAlgebra(((1, 1.0),))


def random_gram_matrix(rng, module, floor=0.3):
    blocks = []
    for m in module.multiplicities:
        r = random_complex(rng, (m, m))
        blocks.append(r.conj().T @ r + floor * np.eye(m))
    return CommutantOperator(module, blocks).to_matrix()


def random_invertible(rng, module, shift=2.0):
    op = CommutantOperator(
        module, [random_complex(rng, (m, m)) for m in module.multiplicities]
    )
    return op + CommutantOperator.identity(module) * shift


def test_reference_gives_unit_coefficient():
    mod = standard_module(S3)
    e = element_from_product(mod, np.eye(mod.carrier_dim))
    assert abs(e.coefficient - 1.0) < 1e-12


def test_scaling_law():
    mod = standard_module(S3)
    lam = 1.7
    e = element_from_product(mod, lam**2 * np.eye(mod.carrier_dim))
    expect = lam ** -von_neumann_dimension(mod)
    assert abs(e.coefficient - expect) < 1e-10


def test_cocycle_through_intermediate_reference():
    rng = np.random.default_rng(21)
    mod = standard_module(S3)
    for trial in range(4):
        g1 = random_gram_matrix(rng, mod)
        g2 = random_gram_matrix(rng, mod)
        c1 = element_from_product(mod, g1).coefficient
        c2 = element_from_product(mod, g2).coefficient
        mod1 = HilbertianModule(S3, mod.multiplicities, reference_gram=g1)
        c12 = element_from_product(mod1, g2).coefficient
        assert abs(c2 - c1 * c12) < 1e-10 * max(1.0, abs(c2))


def test_not_admissible_rejected():
    mod = standard_module(Z3)
    with pytest.raises(NotAdmissible):
        element_from_product(mod, -np.eye(mod.carrier_dim))


def test_extended_agrees_with_product_when_admissible():
    rng = np.random.default_rng(23)
    mod = standard_module(Z3)
    g = random_gram_matrix(rng, mod)
    a = element_from_product(mod, g)
    b = element_from_extended_product(mod, g)
    assert abs(a.coefficient - b.coefficient) < 1e-10


def test_extended_kernel_refusal():
    mod = HilbertianModule(SCALAR, [2])
    with pytest.raises(KernelDetected):
        element_from_extended_product(mod, np.diag([1.0, 0.0]))


def test_pushforward_identity():
    mod = standard_module(S3)
    e = DetLineElement(mod, 1.3)
    out = pushforward(CommutantOperator.identity(mod), e)
    assert abs(out.coefficient - 1.3) < 1e-12


def test_pushforward_automorphism_multiplies_by_determinant():
    rng = np.random.default_rng(29)
    mod = standard_module(S3)
    for trial in range(4):
        f = random_invertible(rng, mod)
        e = DetLineElement(mod, 0.8)
        out = pushforward(f, e)
        det = fk_det(mod, f).value
        assert abs(out.coefficient - 0.8 * det) < 1e-9 * max(1.0, det)


def test_pushforward_doubling_on_trace_one_module():
    # dim_tau = 1: doubling map scales the coordinate by exactly 2
    alg = build_group_algebra(FiniteGroupTable.cyclic(2)).algebra
    mod = standard_module(alg)
    assert abs(von_neumann_dimension(mod) - 1.0) < 1e-12
    f = CommutantOperator.identity(mod) * 2.0
    out = pushforward(f, reference_element(mod))
    assert abs(out.coefficient - 2.0) < 1e-10


def test_pushforward_functorial():
    rng = np.random.default_rng(31)
    mod = standard_module(Z3)
    f = random_invertible(rng, mod)
    g = random_invertible(rng, mod)
    e = DetLineElement(mod, 2.2)
    once = pushforward(g @ f, e)
    twice = pushforward(g, pushforward(f, e))
    assert abs(once.coefficient - twice.coefficient) < 1e-10 * once.coefficient


def test_pushforward_roundtrip_is_identity():
    rng = np.random.default_rng(37)
    mod = standard_module(S3)
    f = random_invertible(rng, mod)
    e = DetLineElement(mod, 1.9)
    back = pushforward(f.inverse(), pushforward(f, e))
    assert abs(back.coefficient - e.coefficient) < 1e-9 * e.coefficient


def test_pushforward_independent_of_representative():
    # the same abstract element viewed from two reference products pushes
    # to the same coordinate downstream
    rng = np.random.default_rng(41)
    mod = standard_module(S3)
    g = random_gram_matrix(rng, mod)
    f = random_invertible(rng, mod)
    via_identity = pushforward(f, element_from_product(mod, g))
    mod_g = HilbertianModule(S3, mod.multiplicities, reference_gram=g)
    f_g = ModuleMorphism(mod_g, mod, [b.copy() for b in f.blocks])
    via_g = pushforward(f_g, reference_element(mod_g))
    assert abs(via_identity.coefficient - via_g.coefficient) < 1e-9 * via_g.coefficient


def test_pushforward_requires_iso():
    mod = standard_module(Z3)
    with pytest.raises(NotIso, match="pushforward needs an isomorphism"):
        pushforward(CommutantOperator.zero(mod), reference_element(mod))


def test_pushforward_takes_one_condition_number_per_block_stack(monkeypatch):
    # the regular module of C[S3] has multiplicities (1, 1, 2): two stacks,
    # and one singular-value call per stack gives both the condition number
    # and the coefficient
    dec = build_group_algebra(FiniteGroupTable.symmetric(3))
    mod = regular_module(dec)
    f = random_invertible(np.random.default_rng(43), mod)
    calls = [0]
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    out = pushforward(f, reference_element(mod))
    assert calls[0] == 2
    assert out.coefficient == pytest.approx(fk_det(mod, f).value, rel=1e-9)


def test_pushforward_of_an_ill_conditioned_isomorphism():
    # f* f of diag(1, 1e-7) has relative eigenvalue 1e-14, under the kernel
    # cut; f itself passes the condition-number test of is_iso
    mod = HilbertianModule(SCALAR, (2,))
    f = CommutantOperator(mod, [np.diag([1.0, 1e-7])])
    assert f.is_iso()
    out = pushforward(f, reference_element(mod))
    assert abs(np.log(out.coefficient) - np.log(1e-7)) <= 1e-14


def test_tensor_sum_of_references_is_unit():
    m = standard_module(S3)
    n = HilbertianModule(S3, [2, 1, 1])
    e = tensor_sum(reference_element(m), reference_element(n))
    assert abs(e.coefficient - 1.0) < 1e-12
    assert e.module.is_same_space(direct_sum(m, n))


def test_tensor_sum_bilinear():
    m = standard_module(Z3)
    e = tensor_sum(2.0 * reference_element(m), reference_element(m))
    assert abs(e.coefficient - 2.0) < 1e-12


def test_tensor_sum_independent_of_reference_choice():
    rng = np.random.default_rng(43)
    m = standard_module(S3)
    n = HilbertianModule(S3, [1, 2, 1])
    gm = random_gram_matrix(rng, m)
    gn = random_gram_matrix(rng, n)
    total = direct_sum(m, n)
    direct = tensor_sum(
        element_from_product(m, gm), element_from_product(n, gn)
    ).coefficient

    # same abstract element built from a rescaled copy of m
    r = random_gram_matrix(rng, m)
    m_r = HilbertianModule(S3, m.multiplicities, reference_gram=r)
    c_prime = element_from_product(m_r, gm).coefficient
    via_r = c_prime * element_from_product(n, gn).coefficient
    # re-express against the block sum of the original references
    r_on_total = np.block(
        [
            [r, np.zeros((m.carrier_dim, n.carrier_dim))],
            [np.zeros((n.carrier_dim, m.carrier_dim)), np.eye(n.carrier_dim)],
        ]
    )
    bridge = element_from_product(total, r_on_total).coefficient
    assert abs(via_r * bridge - direct) < 1e-10 * max(1.0, direct)


def test_tensor_sum_associative():
    rng = np.random.default_rng(47)
    mods = [standard_module(S3), HilbertianModule(S3, [1, 0, 2]), HilbertianModule(S3, [2, 1, 1])]
    elems = [
        element_from_product(mod, random_gram_matrix(rng, mod)) for mod in mods
    ]
    flat = direct_sum_many(mods)
    left = tensor_sum(tensor_sum(elems[0], elems[1]), elems[2])
    right = tensor_sum(elems[0], tensor_sum(elems[1], elems[2]))
    assert left.is_close_to(right)
    assert left.module.is_same_space(flat) and right.module.is_same_space(flat)


def _random_exact_sequence(rng, alg, sub_mult, total_mult):
    """alpha random injective, beta onto the orthogonal complement."""
    sub = HilbertianModule(alg, sub_mult)
    total = HilbertianModule(alg, total_mult)
    quot_mult = [t - s for t, s in zip(total_mult, sub_mult)]
    quot = HilbertianModule(alg, quot_mult)
    a_blocks = []
    b_blocks = []
    for ms, mt, mq in zip(sub_mult, total_mult, quot_mult):
        q, _ = np.linalg.qr(random_complex(rng, (mt, mt)))
        # image of alpha spans the first ms columns of q, kernel of beta too
        a = q[:, :ms] @ (random_complex(rng, (ms, ms)) + 2.0 * np.eye(ms))
        g = random_complex(rng, (mq, mq)) + 2.0 * np.eye(mq)
        a_blocks.append(a)
        b_blocks.append(g @ q[:, ms:].conj().T)
    alpha = ModuleMorphism(sub, total, a_blocks)
    beta = ModuleMorphism(total, quot, b_blocks)
    return sub, total, quot, alpha, beta


def test_exact_sequence_split_reproduces_tensor_sum():
    m = standard_module(S3)
    n = HilbertianModule(S3, [2, 1, 1])
    total = direct_sum(m, n)
    incl_m, incl_n = inclusion_morphisms([m, n], total)
    proj_blocks = [
        np.hstack([np.zeros((mn, mm)), np.eye(mn)])
        for mm, mn in zip(m.multiplicities, n.multiplicities)
    ]
    proj = ModuleMorphism(total, n, proj_blocks)
    out = exact_sequence_iso(incl_m, proj, reference_element(m), reference_element(n))
    assert abs(out.coefficient - 1.0) < 1e-10


def test_exact_sequence_retraction_independence():
    rng = np.random.default_rng(53)
    sub, total, quot, alpha, beta = _random_exact_sequence(
        rng, S3, [1, 1, 1], [2, 2, 3]
    )
    e1 = reference_element(sub)
    e2 = reference_element(quot)
    base = exact_sequence_iso(alpha, beta, e1, e2)

    # orthogonal retraction, then a sheared one r' = r + gamma.beta
    r_blocks = [np.linalg.pinv(a) for a in alpha.blocks]
    retraction = ModuleMorphism(total, sub, r_blocks)
    gamma = ModuleMorphism(
        quot, sub, [random_complex(rng, (ms, mq)) for ms, mq in zip(sub.multiplicities, quot.multiplicities)]
    )
    sheared = retraction + (gamma @ beta)
    for r in (retraction, sheared):
        want = _transition_coordinate(alpha, beta, r)
        assert abs(want - base.coefficient) < 1e-10 * base.coefficient


def _transition_coordinate(alpha, beta, retraction=None):
    """Det(T)^(-1/2) from the transition itself, one eigvalsh per block:
    G^{-1/2} (r^H G' r + beta^H G'' beta) G^{-1/2}, for the given retraction
    r or the orthogonal one for G."""
    grams = [m.reference_gram.blocks for m in (alpha.source, alpha.target, beta.target)]
    log_det = 0.0
    for k, w in enumerate(alpha.target.algebra.weights):
        a, b = alpha.blocks[k], beta.blocks[k]
        g_sub, g, g_quot = (blocks[k] for blocks in grams)
        ah = a.conj().T
        r = np.linalg.solve(ah @ g @ a, ah @ g) if retraction is None else retraction.blocks[k]
        vals, vecs = np.linalg.eigh(g)
        inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
        t = r.conj().T @ g_sub @ r + b.conj().T @ g_quot @ b
        log_det += w * np.sum(np.log(np.linalg.eigvalsh(inv_sqrt @ t @ inv_sqrt)))
    return np.exp(-0.5 * log_det)


def test_exact_sequence_matches_the_transition_eigenvalues_under_grams():
    rng = np.random.default_rng(61)
    for sub_mult, total_mult in (([1, 1, 1], [2, 2, 3]), ([1, 2, 1], [3, 2, 2])):
        sub, total, quot, alpha, beta = _random_exact_sequence(rng, S3, sub_mult, total_mult)
        sub, total, quot = (
            HilbertianModule(S3, m.multiplicities, reference_gram=random_gram_matrix(rng, m))
            for m in (sub, total, quot)
        )
        alpha = ModuleMorphism(sub, total, alpha.blocks)
        beta = ModuleMorphism(total, quot, beta.blocks)
        e1 = element_from_product(sub, random_gram_matrix(rng, sub))
        e2 = element_from_product(quot, random_gram_matrix(rng, quot))
        # a sheared retraction r + gamma beta, r a left inverse of alpha
        gamma = [random_complex(rng, (ms, mq)) for ms, mq in zip(sub_mult, quot.multiplicities)]
        sheared = ModuleMorphism(total, sub, [
            np.linalg.pinv(a) + c @ b for a, b, c in zip(alpha.blocks, beta.blocks, gamma)
        ])
        got = exact_sequence_iso(alpha, beta, e1, e2).coefficient
        for retraction in (None, sheared):
            want = _transition_coordinate(alpha, beta, retraction) * e1.coefficient * e2.coefficient
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_exact_sequence_with_an_ill_conditioned_quotient_map():
    # 0 -> 0 -> C^2 -> C^2 -> 0 with beta = diag(1, 1e-7): beta beta* has
    # relative eigenvalue 1e-14, under the kernel cut of a transition
    # spectrum, but beta passes the exactness check and Det|beta|^-1 = 1e7
    zero, two = HilbertianModule(SCALAR, (0,)), HilbertianModule(SCALAR, (2,))
    alpha = ModuleMorphism(zero, two, [np.zeros((2, 0))])
    beta = ModuleMorphism(two, two, [np.diag([1.0, 1e-7])])
    out = exact_sequence_iso(alpha, beta, reference_element(zero), reference_element(two))
    assert out.coefficient == pytest.approx(1e7, rel=1e-14, abs=0.0)


def _scaled_quotient_sequence(blocks):
    """0 -> 0 -> C^2 -> C^2 -> 0 with beta the given 2 x 2 matrix."""
    zero, two = HilbertianModule(SCALAR, (0,)), HilbertianModule(SCALAR, (2,))
    alpha = ModuleMorphism(zero, two, [np.zeros((2, 0))])
    beta = ModuleMorphism(two, two, [np.asarray(blocks, dtype=float)])
    return exact_sequence_iso(alpha, beta, reference_element(zero), reference_element(two))


@pytest.mark.parametrize("scale", [1e-9, 1e-7])
def test_exact_sequence_of_a_small_invertible_map(scale):
    # beta = s I is surjective at every s > 0: the rank is cut relative to
    # the block's largest singular value, with no floor at 1, so the
    # sequence measures Det|beta|^-1 = s^-2 instead of refusing
    out = _scaled_quotient_sequence(scale * np.eye(2))
    assert out.coefficient == pytest.approx(scale**-2, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("values", [(1.0, 1e-12), (1e-9, 1e-21)])
def test_exact_sequence_refuses_a_map_singular_relative_to_its_norm(values):
    with pytest.raises(NotExact, match="second map fails to be surjective in block 0"):
        _scaled_quotient_sequence(np.diag(values))


def test_exact_sequence_matches_pushforward_route():
    # assemble phi: M' + M'' -> M from alpha and the compatible section;
    # the exact sequence element must be the pushforward of the tensor sum
    rng = np.random.default_rng(59)
    sub, total, quot, alpha, beta = _random_exact_sequence(
        rng, Z3, [1, 0, 1], [2, 1, 2]
    )
    e1 = element_from_product(sub, random_gram_matrix(rng, sub))
    e2 = element_from_product(quot, random_gram_matrix(rng, quot))
    via_sequence = exact_sequence_iso(alpha, beta, e1, e2)

    summed = direct_sum(sub, quot)
    phi_blocks = []
    for a, b in zip(alpha.blocks, beta.blocks):
        r = np.linalg.pinv(a)
        b_right = b.conj().T @ np.linalg.inv(b @ b.conj().T) if b.shape[0] else b.conj().T
        section = (np.eye(a.shape[0]) - a @ r) @ b_right
        phi_blocks.append(np.hstack([a, section]))
    phi = ModuleMorphism(summed, total, phi_blocks)
    via_pushforward = pushforward(phi, tensor_sum(e1, e2))
    assert (
        abs(via_sequence.coefficient - via_pushforward.coefficient)
        < 1e-9 * via_sequence.coefficient
    )


def test_pushforward_raises_only_detline_errors_past_float_range():
    # Det(0.01 I on C^400) = 1e-800 underflows; its -1/2 power, 1e400,
    # overflows as a float, which is refused rather than raised by math.exp
    mod = HilbertianModule(FiniteVonNeumannAlgebra(((1, 1.0),)), (400,))
    op = CommutantOperator.identity(mod) * 10.0
    try:
        pushforward(op, reference_element(mod))
    except DetlineError:
        pass


def test_pushforward_of_a_small_scalar_still_underflows():
    # 0.1 I on C^400: the transition 100 I has log Det = 1842.07, whose exp
    # is inf without a floating-point warning; the coordinate Det^(-1/2)
    # underflows to 0 and is refused (the open defect of the benchmark's
    # group-operators workload)
    mod = HilbertianModule(FiniteVonNeumannAlgebra(((1, 1.0),)), (400,))
    op = CommutantOperator.identity(mod) * 0.1
    with pytest.raises(ValidationError, match="must be positive"):
        pushforward(op, reference_element(mod))


def test_not_exact_detected():
    m = standard_module(Z3)
    total = direct_sum(m, m)
    e = reference_element(m)
    incl, _ = inclusion_morphisms([m, m], total)

    def per_block(make):
        return [make(k) for k in m.multiplicities]

    proj_first = ModuleMorphism(
        total, m, per_block(lambda k: np.hstack([np.eye(k), np.zeros((k, k))]))
    )
    proj_second = ModuleMorphism(
        total, m, per_block(lambda k: np.hstack([np.zeros((k, k)), np.eye(k)]))
    )
    zero_in = ModuleMorphism(m, total, per_block(lambda k: np.zeros((2 * k, k))))
    with pytest.raises(NotExact, match="injective"):
        exact_sequence_iso(zero_in, proj_second, e, e)
    with pytest.raises(NotExact, match="surjective"):
        exact_sequence_iso(incl, proj_second * 0.0, e, e)
    # beta alpha != 0: project back onto the first summand
    with pytest.raises(NotExact, match="composite"):
        exact_sequence_iso(incl, proj_first, e, e)
    # middle homology nonzero: nothing maps in, the first summand survives
    zero = zero_module(Z3)
    from_zero = ModuleMorphism(zero, total, per_block(lambda k: np.zeros((2 * k, 0))))
    with pytest.raises(NotExact, match="rank mismatch"):
        exact_sequence_iso(from_zero, proj_second, reference_element(zero), e)
    # scaled so the composite (1e-9) passes, but im(alpha) is tilted 1e-3
    # off ker(beta)
    tilted = ModuleMorphism(
        m, total, per_block(lambda k: np.vstack([np.eye(k), 1e-3 * np.eye(k)]))
    )
    with pytest.raises(NotExact, match="differ"):
        exact_sequence_iso(tilted, proj_second * 1e-6, e, e)


def test_gap_bound_leaves_an_ill_conditioned_block_to_the_singular_vectors(monkeypatch):
    # 0 -> C -> C^3 -> C^2 -> 0, exact: beta has singular values 1 and
    # 1e-5, and im(alpha) is tilted 1e-12 toward beta's large direction.
    # The bound sqrt(2) 1e-12 / 1e-5 = 1.4e-7 exceeds half the tolerance,
    # so the block's gap comes from singular vectors, and it is 1.4e-12
    one, three, two = (HilbertianModule(SCALAR, (k,)) for k in (1, 3, 2))
    alpha = ModuleMorphism(one, three, [np.array([[1.0], [1e-12], [0.0]])])
    beta = ModuleMorphism(three, two, [np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1e-5]])])
    vectors = []
    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        vectors.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    out = exact_sequence_iso(alpha, beta, reference_element(one), reference_element(two))
    assert vectors.count(True) == 2  # the image frame of alpha, the kernel frame of beta
    # Det T = Det(beta beta*) / Det(alpha* alpha) with s(alpha) = 1 to 1e-24,
    # so the coordinate is 1 / s_min(beta) = 1e5
    assert out.coefficient == pytest.approx(1e5, rel=1e-15, abs=0.0)


def test_composite_check_refuses_just_past_spectral_threshold():
    # beta alpha = eps * 1 with eps 1.01 times EXACTNESS_TOL * ||a|| ||b||,
    # the bound the check had with spectral norms; the Frobenius norm of
    # the composite still refuses
    m = standard_module(S3)
    total = direct_sum(m, m)
    e = reference_element(m)
    incl, _ = inclusion_morphisms([m, m], total)
    eps = 1.01 * EXACTNESS_TOL * (1 + 1e-6)
    beta = ModuleMorphism(
        total, m, [np.hstack([eps * np.eye(k), np.eye(k)]) for k in m.multiplicities]
    )
    worst = max(np.linalg.norm(b @ a, 2) for a, b in zip(incl.blocks, beta.blocks))
    top_a = max(np.linalg.norm(a, 2) for a in incl.blocks)
    top_b = max(np.linalg.norm(b, 2) for b in beta.blocks)
    assert worst > EXACTNESS_TOL * max(top_a * top_b, 1.0)
    with pytest.raises(NotExact, match="composite"):
        exact_sequence_iso(incl, beta, e, e)


def test_graded_coordinate():
    mod = standard_module(SCALAR)
    e0 = DetLineElement(mod, 6.0)
    e1 = DetLineElement(mod, 3.0)
    graded = graded_assemble([(0, e0), (1, e1)])
    assert abs(graded.coordinate - 2.0) < 1e-12
    single = graded_assemble([(0, e0)])
    assert abs(single.coordinate - 6.0) < 1e-12


def test_graded_shift_inverts():
    mod = standard_module(SCALAR)
    graded = graded_assemble([(0, DetLineElement(mod, 6.0)), (1, DetLineElement(mod, 3.0))])
    shifted = graded.shift(1)
    assert abs(shifted.coordinate - 1.0 / graded.coordinate) < 1e-12
    assert abs(graded.dual().coordinate - 1.0 / graded.coordinate) < 1e-12


def test_graded_duplicate_degree():
    mod = standard_module(SCALAR)
    e = DetLineElement(mod, 1.0)
    with pytest.raises(DuplicateDegree):
        graded_assemble([(0, e), (0, e)])


def test_positive_coordinate_enforced():
    mod = standard_module(SCALAR)
    with pytest.raises(ValidationError):
        DetLineElement(mod, -1.0)
    with pytest.raises(ValidationError):
        DetLineElement(mod, 0.0)