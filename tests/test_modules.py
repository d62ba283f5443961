import numpy as np
import pytest

from detline._linalg import random_complex
from detline.algebra import FiniteGroupTable, FiniteVonNeumannAlgebra, build_group_algebra
from detline.determinant import fk_det, fk_det_spectral
from detline.documents import decode_module
from detline.errors import (
    AlgebraMismatch,
    DetlineError,
    NotAdmissible,
    NotInCommutant,
    NotIso,
    ShapeMismatch,
    ValidationError,
)
from detline import modules
from detline.lines import reference_element
from detline.modules import (
    CommutantOperator,
    HilbertianModule,
    ModuleMorphism,
    canonical_trace,
    check_admissible,
    commutant_basis,
    direct_sum,
    direct_sum_many,
    free_module,
    image_submodule,
    inclusion_morphisms,
    kernel_submodule,
    module_from_group_action,
    regular_module,
    resolve_gram,
    right_action_operator,
    standard_module,
    submodule_from_blocks,
    von_neumann_dimension,
    zero_module,
)
from detline.symbols import LaurentMatrix

ALG = FiniteVonNeumannAlgebra(((1, 0.5), (2, 0.25)))


def random_commutant_op(module, rng):
    blocks = [
        rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        for m in module.multiplicities
    ]
    return CommutantOperator(module, blocks)


def test_carrier_dim_and_dimension():
    m = HilbertianModule(ALG, (3, 2))
    assert m.carrier_dim == 1 * 3 + 2 * 2
    assert von_neumann_dimension(m) == pytest.approx(0.5 * 3 + 0.25 * 2)
    assert von_neumann_dimension(standard_module(ALG)) == pytest.approx(ALG.trace_of_identity)
    assert von_neumann_dimension(zero_module(ALG)) == 0.0


def test_action_is_star_homomorphism():
    m = HilbertianModule(ALG, (2, 3))
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = ALG.random_element(rng)
        y = ALG.random_element(rng)
        assert np.allclose(m.action(x) @ m.action(y), m.action(x * y), atol=1e-12)
        assert np.allclose(m.action(x.adjoint()), m.action(x).conj().T, atol=1e-12)


def test_commutant_operator_round_trip_and_commutation():
    m = HilbertianModule(ALG, (2, 3))
    rng = np.random.default_rng(1)
    f = random_commutant_op(m, rng)
    mat = f.to_matrix()
    # really commutes with the action
    for _ in range(4):
        x = ALG.random_element(rng)
        assert np.allclose(mat @ m.action(x), m.action(x) @ mat, atol=1e-10)
    back = CommutantOperator.from_matrix(m, mat)
    for a, b in zip(back.blocks, f.blocks):
        assert np.allclose(a, b, atol=1e-12)


def test_non_commutant_matrix_rejected():
    m = HilbertianModule(ALG, (2, 2))
    bad = np.zeros((m.carrier_dim, m.carrier_dim), dtype=complex)
    bad[0, -1] = 1.0  # couples inequivalent blocks
    with pytest.raises(NotInCommutant):
        CommutantOperator.from_matrix(m, bad)


def test_commutant_basis_size():
    m = HilbertianModule(ALG, (2, 3))
    basis = commutant_basis(m)
    assert len(basis) == 2 * 2 + 3 * 3
    # orthogonality under the canonical trace pairing <f, g> = Tr(f* g)
    seen = set()
    for i, f in enumerate(basis):
        for j, g in enumerate(basis):
            val = canonical_trace(m, f.adjoint() @ g)
            if i == j:
                assert abs(val) > 0
            else:
                assert abs(val) < 1e-14
            seen.add((i, j))


def test_canonical_trace_free_embedding_identity():
    # the blockwise trace must equal sum_i tau(alpha_ii) for right
    # multiplication by a matrix over the algebra on a free module
    rng = np.random.default_rng(7)
    for rank in (1, 2, 3):
        free = free_module(ALG, rank)
        alpha = [[ALG.random_element(rng) for _ in range(rank)] for _ in range(rank)]
        op = right_action_operator(free, alpha)
        lhs = canonical_trace(free, op)
        rhs = sum(ALG.trace(alpha[i][i]) for i in range(rank))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_right_action_reverses_products():
    rng = np.random.default_rng(8)
    free = free_module(ALG, 2)
    a = [[ALG.random_element(rng) for _ in range(2)] for _ in range(2)]
    b = [[ALG.random_element(rng) for _ in range(2)] for _ in range(2)]
    ab = [[sum((a[i][k] * b[k][j] for k in range(2)), ALG.zero()) for j in range(2)] for i in range(2)]
    lhs = right_action_operator(free, b) @ right_action_operator(free, a)
    rhs = right_action_operator(free, ab)
    assert np.allclose(lhs.to_matrix(), rhs.to_matrix(), atol=1e-10)


def test_trace_additive_on_operators():
    m = HilbertianModule(ALG, (2, 3))
    rng = np.random.default_rng(2)
    f = random_commutant_op(m, rng)
    g = random_commutant_op(m, rng)
    assert canonical_trace(m, f + g) == pytest.approx(
        canonical_trace(m, f) + canonical_trace(m, g), abs=1e-12
    )


def test_admissibility_conditions():
    m = HilbertianModule(ALG, (1, 2))
    d = m.carrier_dim
    ok = check_admissible(m, 2.0 * np.eye(d))
    assert ok.ok and ok.transition is not None
    assert np.allclose(ok.transition.to_matrix(), 2.0 * np.eye(d), atol=1e-12)

    not_sa = np.eye(d, dtype=complex)
    not_sa[0, 1] = 1.0
    rep = check_admissible(m, not_sa)
    assert not rep.self_adjoint and not rep.ok

    indefinite = np.eye(d, dtype=complex)
    indefinite[0, 0] = -1.0
    rep = check_admissible(m, indefinite)
    assert not rep.positive and not rep.ok

    # positive, self-adjoint, but not module-linear
    non_linear = np.eye(d, dtype=complex)
    non_linear[1, 1] = 3.0  # breaks 1 kron B structure inside the 2x2 block
    non_linear[1, 3] = 0.0
    rep = check_admissible(m, non_linear)
    assert not rep.commutes and not rep.ok

    near_singular = np.eye(d, dtype=complex)
    with pytest.raises(NotAdmissible):
        HilbertianModule(ALG, (1, 2), reference_gram=0.0 * near_singular)


def test_transition_operator_reproduces_gram():
    # gram = reference . transition in matrix form
    rng = np.random.default_rng(5)
    m = HilbertianModule(ALG, (2, 2))
    t = random_commutant_op(m, rng)
    pos = t.adjoint() @ t + CommutantOperator.identity(m)
    gram = pos.to_matrix()
    rep = check_admissible(m, gram)
    assert rep.ok
    assert np.allclose(rep.transition.to_matrix(), gram, atol=1e-10)

    # now against a non-identity reference
    ref = (t.adjoint() @ t + 2.0 * CommutantOperator.identity(m)).to_matrix()
    m2 = HilbertianModule(ALG, (2, 2), reference_gram=ref)
    rep2 = check_admissible(m2, gram)
    assert rep2.ok
    assert np.allclose(ref @ rep2.transition.to_matrix(), gram, atol=1e-10)


def test_direct_sum_layout():
    a = HilbertianModule(ALG, (1, 2))
    b = HilbertianModule(ALG, (2, 0))
    s = direct_sum(a, b)
    assert s.multiplicities == (3, 2)
    assert s.carrier_dim == a.carrier_dim + b.carrier_dim
    rng = np.random.default_rng(3)
    x = ALG.random_element(rng)
    blk = np.zeros((s.carrier_dim, s.carrier_dim), dtype=complex)
    blk[: a.carrier_dim, : a.carrier_dim] = a.action(x)
    blk[a.carrier_dim :, a.carrier_dim :] = b.action(x)
    assert np.allclose(s.action(x), blk, atol=1e-12)


def test_inclusions_are_isometric_and_commute_with_action():
    mods = [HilbertianModule(ALG, (1, 1)), HilbertianModule(ALG, (0, 2)), standard_module(ALG)]
    total = direct_sum_many(mods)
    incs = inclusion_morphisms(mods, total)
    at = 0
    for mod, inc in zip(mods, incs):
        mat = inc.to_matrix()
        expect = np.zeros((total.carrier_dim, mod.carrier_dim), dtype=complex)
        expect[at : at + mod.carrier_dim] = np.eye(mod.carrier_dim)
        assert np.allclose(mat, expect, atol=1e-12)
        at += mod.carrier_dim


def test_regular_module_action_is_left_translation():
    table = FiniteGroupTable.symmetric(3)
    dec = build_group_algebra(table)
    reg = regular_module(dec)
    for g in range(table.order):
        assert np.allclose(
            reg.action(dec.group_images[g]), table.left_translation(g), atol=1e-8
        )
    # right translations are commutant operators
    for g in range(table.order):
        CommutantOperator.from_matrix(reg, table.right_translation(g))


def _c3_regular_twice_plus_trivial(table):
    # two copies of the regular rep plus one extra trivial summand
    images = []
    for g in range(3):
        l = table.left_translation(g)
        images.append(
            np.block(
                [
                    [l, np.zeros((3, 4))],
                    [np.zeros((3, 3)), l, np.zeros((3, 1))],
                    [np.zeros((1, 6)), np.eye(1)],
                ]
            )
        )
    return images


def _regular_images(table):
    return [table.left_translation(g) for g in range(table.order)]


@pytest.mark.parametrize(
    "table,images_of,mult",
    [
        (FiniteGroupTable.cyclic(3), _c3_regular_twice_plus_trivial, (3, 2, 2)),
        # blocks (1, 1, 2) with multiplicities (1, 1, 2): n_k = m_k = 2
        (FiniteGroupTable.symmetric(3), _regular_images, (1, 1, 2)),
    ],
    ids=["C3", "S3"],
)
def test_module_from_group_action_round_trip(table, images_of, mult):
    dec = build_group_algebra(table)
    images = images_of(table)
    mod = module_from_group_action(dec, images)
    assert sorted(mod.multiplicities) == sorted(mult)
    assert mod.carrier_dim == len(images[0])
    for g in range(table.order):
        assert np.allclose(mod.action(dec.group_images[g]), images[g], atol=1e-8)


def test_carrier_input_takes_no_kron_lstsq_or_svd(monkeypatch):
    # blocks are read by Fourier inversion and in-place block-model
    # residuals; np.kron is left to the exports (action, to_matrix)
    reg = regular_module(build_group_algebra(FiniteGroupTable.cyclic(6)))
    total = direct_sum(reg, reg)
    rng = np.random.default_rng(4)
    inputs = [(mod, random_commutant_op(mod, rng).to_matrix()) for mod in (reg, total)]
    shift = np.roll(np.eye(24), 1, axis=0).tolist()

    def refuse(*args, **kwargs):
        raise AssertionError("carrier kron or lstsq")

    monkeypatch.setattr(np, "kron", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    assert decode_module({"action_generators": [shift]}).multiplicities == (1,) * 24

    counts = [0]
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        counts[0] += 1
        return svd(*args, **kwargs)

    # np.linalg.norm(x, 2) calls the svd of numpy's implementation module
    impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(impl, "svd", counted)
    for mod, mat in inputs:
        CommutantOperator.from_matrix(mod, mat)
    assert counts[0] == 0


def test_module_from_group_action_refuses_a_broken_product():
    # C3's regular images with those of the identity and the generator
    # swapped: each is unitary, but images[0] images[0] != images[0]
    table = FiniteGroupTable.cyclic(3)
    dec = build_group_algebra(table)
    images = [table.left_translation(g) for g in range(3)]
    images[0], images[1] = images[1], images[0]
    with pytest.raises(ValidationError, match=r"do not respect the product at \(0,0\)"):
        module_from_group_action(dec, images)


BAD_MATRIX_INPUT = {
    "gram of ndim 1": (
        ShapeMismatch,
        lambda: HilbertianModule(ALG, (1, 1), reference_gram=[1, 2]),
    ),
    "gram of text": (
        ValidationError,
        lambda: HilbertianModule(ALG, (1, 1), reference_gram="x"),
    ),
    "operator of ndim 1": (
        ShapeMismatch,
        lambda: CommutantOperator.from_matrix(HilbertianModule(ALG, (1, 1)), [1, 2]),
    ),
    "basis map of ndim 3": (
        ShapeMismatch,
        lambda: HilbertianModule(ALG, (1, 1), basis_map=np.zeros((3, 3, 3))),
    ),
    "symbol coefficient of ndim 1": (ShapeMismatch, lambda: LaurentMatrix(1, {(0,): [1, 2]})),
    "group images of ndim 1": (
        ShapeMismatch,
        lambda: module_from_group_action(
            build_group_algebra(FiniteGroupTable.cyclic(2)), [np.ones(2), np.ones(2)]
        ),
    ),
    "operator with a block too many": (
        ShapeMismatch,
        lambda: CommutantOperator(HilbertianModule(ALG, (1, 1)), [np.eye(1)] * 3),
    ),
    "algebra element with a block too few": (
        ShapeMismatch,
        lambda: ALG.element([np.eye(1)]),
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_MATRIX_INPUT))
def test_bad_matrix_input_raises_a_detline_error(case):
    expected, call = BAD_MATRIX_INPUT[case]
    with pytest.raises(DetlineError) as err:
        call()
    assert err.type is expected


def test_morphism_intertwining_enforced():
    m = HilbertianModule(ALG, (2, 1))
    n = HilbertianModule(ALG, (1, 2))
    rng = np.random.default_rng(4)
    blocks = [rng.standard_normal((1, 2)), rng.standard_normal((2, 1))]
    f = ModuleMorphism(m, n, blocks)
    mat = f.to_matrix()
    for _ in range(4):
        x = ALG.random_element(rng)
        assert np.allclose(mat @ m.action(x), n.action(x) @ mat, atol=1e-10)
    back = ModuleMorphism.from_matrix(m, n, mat)
    for a, b in zip(back.blocks, f.blocks):
        assert np.allclose(a, b, atol=1e-12)
    bad = mat.copy()
    bad[0, 2] += 1.0  # couples the two inequivalent blocks
    with pytest.raises(NotInCommutant):
        ModuleMorphism.from_matrix(m, n, bad)


def test_morphism_inverse_and_notiso():
    m = HilbertianModule(ALG, (2, 2))
    rng = np.random.default_rng(9)
    f = random_commutant_op(m, rng) + 3.0 * CommutantOperator.identity(m)
    inv = f.inverse()
    assert np.allclose((inv @ f).to_matrix(), np.eye(m.carrier_dim), atol=1e-8)
    n = HilbertianModule(ALG, (2, 1))
    g = ModuleMorphism(m, n, [np.eye(2), np.zeros((1, 2))])
    with pytest.raises(NotIso):
        g.inverse()


def test_adjoint_respects_gram():
    rng = np.random.default_rng(10)
    m = HilbertianModule(ALG, (2, 2))
    t = random_commutant_op(m, rng)
    gram_op = t.adjoint() @ t + CommutantOperator.identity(m)
    gram = gram_op.to_matrix()
    f = random_commutant_op(m.with_reference_gram(gram), rng)
    fstar = f.adjoint()
    # <f v, w>_G == <v, f* w>_G on random vectors
    for _ in range(5):
        v = rng.standard_normal(m.carrier_dim) + 1j * rng.standard_normal(m.carrier_dim)
        w = rng.standard_normal(m.carrier_dim) + 1j * rng.standard_normal(m.carrier_dim)
        lhs = np.vdot(w, gram @ f.to_matrix() @ v)
        rhs = np.vdot(fstar.to_matrix() @ w, gram @ v)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_gram_powers():
    # W = G^(1/2), G^(-1/2) and G^(-1) all come from one eigendecomposition
    # per block; each must be the power it claims to be
    rng = np.random.default_rng(61)
    m = HilbertianModule(ALG, (3, 2))
    t = random_commutant_op(m, rng)
    g = resolve_gram(m, t.adjoint() @ t + CommutantOperator.identity(m))
    for b, w, wi, gi in zip(g.blocks, g.sqrt.blocks, g.inv_sqrt.blocks, g.inv.blocks):
        eye = np.eye(b.shape[0])
        assert np.linalg.norm(w @ w - b) <= 1e-12 * np.linalg.norm(b)
        assert np.linalg.norm(wi @ b @ wi - eye) <= 1e-12
        assert np.linalg.norm(gi @ b - eye) <= 1e-12


def test_identity_gram_builds_its_blocks_when_read():
    m = HilbertianModule(ALG, (3, 2))
    g = m.reference_gram
    assert g.is_identity and g._stacked is None
    assert g.inv_times("x") == "x" and g.right_times("x") == "x"
    assert g._stacked is None
    for blocks in (g.sqrt.blocks, g.inv_sqrt.blocks, g.inv.blocks, g.blocks):
        assert [b.tolist() for b in blocks] == [np.eye(k).tolist() for k in (3, 2)]


def test_extract_blocks_per_shape_matches_one_einsum_per_block():
    # blocks of one (n, m_target, m_source) are read as one stack; each
    # block, the residual and the scale stay those of a per-block reading
    alg = FiniteVonNeumannAlgebra(tuple((n, 0.1) for n in (2, 1, 2, 3, 2, 1)))
    source = HilbertianModule(alg, (2, 1, 2, 1, 2, 0))
    target = HilbertianModule(alg, (3, 1, 3, 2, 3, 1))
    rng = np.random.default_rng(67)
    mat = rng.standard_normal((target.carrier_dim, source.carrier_dim)) * (1 + 0.5j)
    stacked, resid, scale = modules._extract_blocks(source, target, mat)
    blocks = stacked.blocks
    can = mat.copy()
    for k, n in enumerate(alg.block_dims):
        piece = can[target.block_slice(k), source.block_slice(k)]
        piece = piece.reshape(n, target.multiplicities[k], n, source.multiplicities[k])
        f = np.einsum("aiaj->ij", piece) / n
        assert np.array_equal(blocks[k], f)
        piece[np.arange(n), :, np.arange(n), :] -= f
    assert resid == float(np.linalg.norm(can)) and resid > 0
    assert scale == max(1.0, float(np.max(np.abs(mat))))


def test_norm_is_the_largest_block_norm():
    # blocks 0 and 1 share a shape and the larger one comes second
    alg = FiniteVonNeumannAlgebra(((1, 0.25), (1, 0.25), (2, 0.25)))
    src, tgt = HilbertianModule(alg, (3, 3, 1)), HilbertianModule(alg, (2, 2, 0))
    rng = np.random.default_rng(59)
    blocks = [rng.standard_normal((2, 3)), 5.0 * rng.standard_normal((2, 3)), np.zeros((0, 1))]
    f = ModuleMorphism(src, tgt, blocks)
    want = max(float(np.linalg.svd(b, compute_uv=False)[0]) for b in blocks[:2])
    assert f.norm() == want == float(np.linalg.norm(blocks[1], 2))
    zero = ModuleMorphism(tgt, src, [np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((1, 0))])
    assert zero.norm() == 0.0


def test_stored_stacks_are_read_only_and_keep_their_singular_values(monkeypatch):
    # a write into a stored stack raises instead of leaving the kept
    # singular values stale; that holds for the stacks _place fills too
    alg = FiniteVonNeumannAlgebra(((1, 0.25), (1, 0.25), (2, 0.25)))
    src, mid, tgt = (HilbertianModule(alg, m) for m in ((2, 2, 1), (2, 3, 1), (2, 2, 1)))
    rng = np.random.default_rng(61)
    a = ModuleMorphism(mid, tgt, [random_complex(rng, s) for s in ((2, 2), (2, 3), (1, 1))])
    b = ModuleMorphism(src, mid, [random_complex(rng, s) for s in ((2, 2), (3, 2), (1, 1))])
    op = a @ b  # blocks 0 and 1 share a stack here, one product per block
    assert [len(s) for s in op.stacked.stacks] == [2, 1]
    with pytest.raises(ValueError):
        op.stacked.stacks[0][0] = 0.0
    for x in (op.stacked, a.stacked, op.stacked.H, (op + op).stacked, op.inverse().stacked):
        for s in x.stacks:
            with pytest.raises(ValueError):
                s[...] = 0.0
    # norm, ranks, invertibility and the polar determinant read one
    # svd(compute_uv=False) per stack, taken on the first request
    counts = [0]
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        counts[0] += 1
        return svd(*args, **kwargs)

    impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(impl, "svd", counted)
    fresh = CommutantOperator(tgt, op.blocks)
    for _ in range(2):
        fresh.norm(), fresh.is_iso(), fresh.stacked.singular_values(), fk_det(tgt, fresh)
    assert counts[0] == len(fresh.stacked.stacks) == 2
    monkeypatch.undo()
    assert fresh.norm() == max(float(np.linalg.norm(x, 2)) for x in op.blocks)


def test_kernel_and_image_submodules():
    m = HilbertianModule(ALG, (2, 3))
    n = HilbertianModule(ALG, (1, 2))
    f = ModuleMorphism(m, n, [np.array([[1.0, 0.0]]), np.array([[1, 0, 0], [0, 1, 0.0]])])
    ker, ker_embed = kernel_submodule(f)
    assert ker.multiplicities == (1, 1)
    assert np.allclose((_compose(f, ker_embed)).norm(), 0.0, atol=1e-12)
    img, img_embed = image_submodule(f)
    assert img.multiplicities == (1, 2)
    # embeddings are isometries for the chosen gram (identity here)
    jmat = img_embed.to_matrix()
    assert np.allclose(jmat.conj().T @ jmat, np.eye(img.carrier_dim), atol=1e-12)


def _compose(f, g):
    return f @ g


def test_submodule_respects_nontrivial_gram():
    m = HilbertianModule(ALG, (2, 2))
    gram = np.eye(m.carrier_dim, dtype=complex) * 4.0
    sub, embed = submodule_from_blocks(
        m.with_reference_gram(gram), [np.eye(2)[:, :1], np.eye(2)]
    )
    j = embed.to_matrix()
    assert np.allclose(j.conj().T @ gram @ j, np.eye(sub.carrier_dim), atol=1e-12)


def test_algebra_mismatch_guard():
    other = FiniteVonNeumannAlgebra(((1, 1.0), (2, 0.25)))
    m = HilbertianModule(ALG, (1, 1))
    n = HilbertianModule(other, (1, 1))
    with pytest.raises(AlgebraMismatch):
        ModuleMorphism(m, n, [np.eye(1), np.eye(1)])
    with pytest.raises(ShapeMismatch):
        HilbertianModule(ALG, (1,))


# -- block-native layout -------------------------------------------------------


def _positive_op(module, rng):
    blocks = []
    for m in module.multiplicities:
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        blocks.append(a @ a.conj().T + m * np.eye(m))
    return CommutantOperator(module, blocks)


def test_direct_sum_of_user_bases_matches_carrier_construction():
    dec = build_group_algebra(FiniteGroupTable.symmetric(3))
    alg = dec.algebra
    rng = np.random.default_rng(11)
    plain = regular_module(dec)
    canon = HilbertianModule(alg, (2, 1, 1))
    summands = [
        regular_module(dec).with_reference_gram(_positive_op(plain, rng).to_matrix()),
        HilbertianModule(alg, (2, 1, 1), reference_gram=_positive_op(canon, rng).to_matrix()),
        regular_module(dec).with_reference_gram(_positive_op(plain, rng).to_matrix()),
    ]
    total = direct_sum_many(summands)

    # explicit carrier construction: walk the canonical coordinates of the
    # sum (block k, copy a, concatenated multiplicity index) and place the
    # matching canonical basis vector of each summand in its user slot
    d = sum(s.carrier_dim for s in summands)
    user_at = np.cumsum([0] + [s.carrier_dim for s in summands])
    u = np.zeros((d, d), dtype=complex)
    col = 0
    for k, n in enumerate(alg.block_dims):
        for a in range(n):
            for s, at in zip(summands, user_at):
                us = np.eye(s.carrier_dim) if s.basis_map is None else s.basis_map
                start = sum(nn * mm for nn, mm in zip(alg.block_dims[:k], s.multiplicities[:k]))
                for i in range(s.multiplicities[k]):
                    u[at : at + s.carrier_dim, col] = us[:, start + a * s.multiplicities[k] + i]
                    col += 1
    gram = np.zeros((d, d), dtype=complex)
    for s, at in zip(summands, user_at):
        gram[at : at + s.carrier_dim, at : at + s.carrier_dim] = s.reference_gram.matrix

    assert np.array_equal(total.basis_map, u)
    assert np.array_equal(total.reference_gram.matrix, gram)
    carrier = HilbertianModule(alg, total.multiplicities, basis_map=u, reference_gram=gram)
    assert total.is_same_space(carrier) and carrier.is_same_space(total)
    for got, want in zip(total.reference_gram.blocks, carrier.reference_gram.blocks):
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    f = random_commutant_op(total, rng)
    canonical = np.zeros((d, d), dtype=complex)
    for k, n in enumerate(alg.block_dims):
        sl = total.block_slice(k)
        canonical[sl, sl] = np.kron(np.eye(n), f.blocks[k])
    mat = f.to_matrix()
    assert np.allclose(mat, u @ canonical @ u.conj().T, rtol=0.0, atol=1e-12)
    back = CommutantOperator.from_matrix(total, mat)
    for got, want in zip(back.blocks, f.blocks):
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def test_is_same_space_tolerance_is_scale_relative():
    dec = build_group_algebra(FiniteGroupTable.cyclic(3))
    plain = regular_module(dec)
    near = regular_module(dec).with_reference_gram((1 + 5e-6) * np.eye(3))
    assert not plain.is_same_space(near)
    assert not reference_element(plain).is_close_to(reference_element(near))
    with pytest.raises(ValidationError):
        fk_det_spectral(plain, CommutantOperator.identity(near))
    assert plain.same_coordinates(near)
    # roundoff in a large gram still counts as the same space
    big = 1e6 * np.eye(3)
    a = regular_module(dec).with_reference_gram(big)
    b = regular_module(dec).with_reference_gram(big * (1 + 1e-14))
    assert a.is_same_space(b)


def test_stacked_blocks_match_a_per_block_loop_bit_for_bit():
    # C[S4] has blocks of dimensions 1, 1, 2, 3, 3.  Block 1 is empty
    # everywhere; f and g have shape (3, 2) in blocks 2 and 4 and a shape
    # of their own in blocks 0 and 3.  h @ f has shape (1, 2) in blocks 0, 2
    # and 4, so its stack is put together from the products of two groups.
    alg = build_group_algebra(FiniteGroupTable.symmetric(4)).algebra
    assert alg.block_dims == (1, 1, 2, 3, 3)
    rng = np.random.default_rng(97)
    mult = {"src": (2, 0, 2, 3, 2), "tgt": (1, 0, 3, 1, 3), "far": (1, 0, 1, 2, 1)}

    def blocks(rows, cols):
        return [
            rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
            for r, c in zip(rows, cols)
        ]

    def powers(b):  # G^(1/2), G^(-1/2) and G^(-1) of one gram block
        vals, vecs = np.linalg.eigh(0.5 * (b + b.conj().T))
        vh = vecs.conj().T
        return [(vecs * np.sqrt(vals)) @ vh, (vecs / np.sqrt(vals)) @ vh, (vecs / vals) @ vh]

    for with_grams in (False, True):
        mods = {name: HilbertianModule(alg, m) for name, m in mult.items()}
        if with_grams:
            for name, mod in mods.items():
                m = mod.multiplicities
                pos = [b.conj().T @ b + np.eye(len(b)) for b in blocks(m, m)]
                mods[name] = mod.with_reference_gram(CommutantOperator(mod, pos))
        src, tgt, far = mods["src"], mods["tgt"], mods["far"]
        fb, gb = blocks(mult["tgt"], mult["src"]), blocks(mult["tgt"], mult["src"])
        hb = blocks(mult["far"], mult["tgt"])
        ab = [b + 3 * np.eye(len(b)) for b in blocks(mult["src"], mult["src"])]
        f, g = ModuleMorphism(src, tgt, fb), ModuleMorphism(src, tgt, gb)
        h = ModuleMorphism(tgt, far, hb)
        a = CommutantOperator(src, ab)
        grams = {name: [b.copy() for b in mod.reference_gram.blocks] for name, mod in mods.items()}
        inv_src = [powers(b)[2] for b in grams["src"]]
        wants = [
            (f, fb),
            (h @ f, [y @ x for x, y in zip(fb, hb)]),
            (f + g, [x + y for x, y in zip(fb, gb)]),
            (f - g, [x - y for x, y in zip(fb, gb)]),
            (2.5 * f, [2.5 * x for x in fb]),
            (a.inverse(), [np.linalg.inv(x) if x.size else x for x in ab]),
            (
                f.adjoint(),
                [
                    (gi @ x.conj().T) @ gt if with_grams else x.conj().T
                    for x, gi, gt in zip(fb, inv_src, grams["tgt"])
                ],
            ),
        ]
        for got, want in wants:
            assert len(got.blocks) == len(want)
            for x, y in zip(got.blocks, want):
                assert x.shape == y.shape and np.array_equal(x, y)
        for name, mod in mods.items():
            g_data = mod.reference_gram
            for k, b in enumerate(grams[name]):
                want = powers(b) if with_grams else [np.eye(len(b))] * 3
                got = (g_data.sqrt.blocks[k], g_data.inv_sqrt.blocks[k], g_data.inv.blocks[k])
                assert all(np.array_equal(x, y) for x, y in zip(got, want))
        assert f.norm() == max(np.linalg.svd(x, compute_uv=False)[0] for x in fb if x.size)
        dense = np.zeros((tgt.carrier_dim, src.carrier_dim), dtype=complex)
        for k, (n, x) in enumerate(zip(alg.block_dims, fb)):
            dense[tgt.block_slice(k), src.block_slice(k)] = np.kron(np.eye(n), x)
        assert np.array_equal(f.to_matrix(), dense)
        assert not any(x.flags.writeable for x in f.blocks)
        with pytest.raises(ValueError):
            f.blocks[0][0, 0] = 1.0
