"""Chain complex, Hodge, torsion-isomorphism and zeta tests."""

import dataclasses
import importlib

import numpy as np
import pytest

from detline._linalg import RANK_RTOL, operator_norm, random_complex, stacks
from detline.algebra import FiniteGroupTable, FiniteVonNeumannAlgebra, build_group_algebra
from detline.complexes import (
    HilbertianChainComplex,
    determinant_class_check,
    hodge,
    torsion_iso_via_exact_sequences,
    torsion_iso_via_laplacians,
    validate_complex,
    zeta_suite,
)
from detline import complexes, lines
from detline.determinant import SpectralDensity, _tilde_blocks, fk_det, spectral_density
from detline.errors import IllConditionedKernel, NotExact, ValidationError
from detline.fixtures import (
    circle,
    klein_bottle,
    lens_space,
    regular_cyclic_representation,
    regular_product_representation,
    sign_representation,
    torus,
)
from detline.lines import reference_element
from detline.modules import (
    BlockStacks,
    CommutantOperator,
    HilbertianModule,
    ModuleMorphism,
    direct_sum,
    frame_submodule,
    gram_coordinates,
    standard_module,
    von_neumann_dimension,
)
from detline.torsion import assemble_coefficients
from test_acceptance import random_complexes

SCALAR = FiniteVonNeumannAlgebra(((1, 1.0),))
Z2 = build_group_algebra(FiniteGroupTable.cyclic(2)).algebra
Z3 = build_group_algebra(FiniteGroupTable.cyclic(3)).algebra
S3 = build_group_algebra(FiniteGroupTable.symmetric(3)).algebra
ALGEBRAS = {"C": SCALAR, "C[Z/2]": Z2, "C[Z/3]": Z3, "C[S3]": S3}


def _unit_frame(rng, m):
    if m == 0:
        return np.zeros((0, 0), dtype=complex)
    q, _ = np.linalg.qr(random_complex(rng, (m, m)))
    return q


def random_gram_matrix(rng, module, floor=0.3):
    blocks = []
    for m in module.multiplicities:
        r = random_complex(rng, (m, m))
        blocks.append(r.conj().T @ r + floor * np.eye(m))
    return CommutantOperator(module, blocks).to_matrix()


def make_complex(rng, alg, mults, convention="chain", grams=True):
    """Random complex with exactly composing maps.

    Images and coimages are laid out in disjoint columns of one unitary
    frame per degree and block, so consecutive maps compose to exact zero
    and every rank is explicit.
    """
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


def two_term_acyclic(alg, f_blocks, convention="chain", grams=(None, None)):
    mod = standard_module(alg)
    f = CommutantOperator(mod, f_blocks)
    modules = [mod if g is None else mod.with_reference_gram(g) for g in grams]
    return HilbertianChainComplex(modules, [f], convention=convention)


def test_rejects_nonzero_composition():
    mod = HilbertianModule(SCALAR, [1])
    one = CommutantOperator.identity(mod)
    with pytest.raises(ValidationError):
        HilbertianChainComplex([mod, mod, mod], [one, one])
    unchecked = HilbertianChainComplex([mod, mod, mod], [one, one], validate=False)
    report = validate_complex(unchecked)
    assert not report.valid
    assert report.boundary_residual > 0.1


def test_composites_past_the_float_range_are_violations():
    # [c, c] then [c, -1.5 c]^T compose to -c^2 / 2: at c = 1e100 the
    # residual is 0.196, and at 1e200 the composite is inf - inf = nan, which
    # must read as a violation, not as 0
    one, two = HilbertianModule(SCALAR, [1]), HilbertianModule(SCALAR, [2])

    def maps(c):
        return [np.array([[c, c]]), np.array([[c], [-1.5 * c]])]

    for c, want in [(1e100, 0.19611613513818402), (1e200, np.inf)]:
        with pytest.raises(ValidationError, match="do not compose to zero"):
            HilbertianChainComplex([one, two, one], maps(c))
        unchecked = HilbertianChainComplex([one, two, one], maps(c), validate=False)
        assert unchecked.boundary_residual() == pytest.approx(want)
        assert not validate_complex(unchecked).valid
    # norms whose product overflows divide the composite one at a time: a
    # zero composite stays valid, and 0.6e308 over 1.9e308 is still refused
    c = 1e200
    zero = HilbertianChainComplex(
        [one, two, one], [np.array([[c, 0.0]]), np.array([[0.0], [c]])]
    )
    assert zero.boundary_residual() == 0.0
    big = [np.array([[c, c]]), np.array([[1.2e108], [-0.6e108]])]
    with pytest.raises(ValidationError, match="do not compose to zero"):
        HilbertianChainComplex([one, two, one], big)
    unchecked = HilbertianChainComplex([one, two, one], big, validate=False)
    assert unchecked.boundary_residual() == pytest.approx(0.6 / np.sqrt(2 * 1.8))


def test_validate_clean_complexes():
    mod = standard_module(S3)
    zero = CommutantOperator.zero(mod)
    c = HilbertianChainComplex([mod, mod], [zero])
    report = validate_complex(c)
    assert report.valid
    assert report.boundary_residual == 0.0
    rng = np.random.default_rng(1)
    c2 = make_complex(rng, S3, [(1, 1, 2), (2, 1, 1), (1, 1, 1)])
    assert validate_complex(c2).valid


def test_convention_flag_checked():
    mod = standard_module(Z2)
    zero = CommutantOperator.zero(mod)
    with pytest.raises(ValidationError):
        HilbertianChainComplex([mod, mod], [zero], convention="spooky")


def test_hodge_zero_differentials():
    mod = standard_module(S3)
    zero = CommutantOperator.zero(mod)
    c = HilbertianChainComplex([mod, mod], [zero])
    data = hodge(c)
    for i in (0, 1):
        assert abs(data.betti[i] - von_neumann_dimension(mod)) < 1e-12
        assert data.laplacians[i].norm() < 1e-14
        assert data.positive_densities[i].values.size == 0


@pytest.mark.parametrize("kernel_tol", [-1.0, 0.0, 1.0, float("nan"), float("inf")])
def test_hodge_refuses_a_kernel_tol_outside_the_unit_interval(kernel_tol):
    # at -1 every eigenvalue counted as positive and betti read 0; nan did
    # the same silently
    mod = standard_module(S3)
    c = HilbertianChainComplex([mod, mod], [CommutantOperator.zero(mod)])
    with pytest.raises(ValidationError, match="kernel_tol"):
        hodge(c, kernel_tol=kernel_tol)


def test_hodge_two_term_identity_map():
    mod = standard_module(Z3)
    c = HilbertianChainComplex([mod, mod], [CommutantOperator.identity(mod)])
    data = hodge(c)
    for i in (0, 1):
        assert data.betti[i] == 0.0
        resid = (data.laplacians[i] - CommutantOperator.identity(mod)).norm()
        assert resid < 1e-12


def test_hodge_circle_with_degree_two_map():
    # 1x1 chain over C with the map (-2): both Laplacians are 4, no homology
    c = two_term_acyclic(SCALAR, [np.array([[-2.0]])])
    data = hodge(c)
    for i in (0, 1):
        assert data.betti[i] == 0.0
        assert abs(data.laplacians[i].blocks[0][0, 0] - 4.0) < 1e-14


def test_hodge_consistency_random():
    rng = np.random.default_rng(5)
    for name, alg in ALGEBRAS.items():
        c = make_complex(rng, alg, [tuple(2 for _ in alg.blocks)] * 3)
        data = hodge(c)
        for i in c.degrees:
            mod = c.modules[i]
            p = data.harmonic_projectors[i]
            assert ((p @ p) - p).norm() < 1e-10
            assert (data.laplacians[i] @ p).norm() < 1e-10 * max(
                1.0, data.laplacians[i].norm()
            )
            out = c.outgoing(i)
            inc = c.incoming(i)
            rank_out = sum(
                w * np.linalg.matrix_rank(b, tol=1e-10)
                for (_, w), b in zip(alg.blocks, out.blocks)
            ) if out is not None else 0.0
            rank_in = sum(
                w * np.linalg.matrix_rank(b, tol=1e-10)
                for (_, w), b in zip(alg.blocks, inc.blocks)
            ) if inc is not None else 0.0
            total = data.betti[i] + rank_out + rank_in
            assert abs(total - von_neumann_dimension(mod)) < 1e-9


def test_spectral_density_takes_no_svd(monkeypatch):
    # every norm spectral_density needs is max |eigenvalue| of the Hermitian
    # blocks it diagonalises anyway; identity grams have no powers to take
    rng = np.random.default_rng(53)
    c = make_complex(rng, S3, [(2, 2, 2), (3, 3, 3), (2, 2, 2)], grams=False)
    laplacians = hodge(c).laplacians

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for mod, delta in zip(c.modules, laplacians):
        assert spectral_density(mod, delta).total_mass > 0


def _check_route_factors_each_map_block_once(monkeypatch, c):
    """On circle(16) x C[Z/6]: Hodge's one singular-value call per map stack
    decides the ranks, measures 0 -> Z -> C -> B -> 0 and gives the sigma_r
    of the bounds, and the route takes no other; no singular vectors, no
    frames and no frame check; the exact-sequence core never runs, and each
    degree's 0 -> B -> Z -> H -> 0 is bounded from products as wide as its
    Betti counts."""
    bounded = []
    bounds = complexes._homology_bounds

    def counted_bounds(harmonic, out, inc):
        bounded.append(harmonic.layout.cols)
        return bounds(harmonic, out, inc)

    def refuse(name):
        def called(*args, **kwargs):
            raise AssertionError(f"{name} called")

        return called

    calls = []  # (computes vectors, argument)
    svd = np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        calls.append((kwargs.get("compute_uv", True), a))
        return svd(a, *args, **kwargs)

    impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    monkeypatch.setattr(lines, "_first_inexact", refuse("lines._first_inexact"))
    monkeypatch.setattr(complexes, "_check_homology", refuse("_check_homology"))
    monkeypatch.setattr(complexes, "range_and_kernel", refuse("range_and_kernel"))
    monkeypatch.setattr(complexes, "_homology_bounds", counted_bounds)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(impl, "svd", counted_svd)
    # no transition spectrum, retraction solve, inverse or orthonormalization
    solvers = [_counting(monkeypatch, name) for name in ("eigvalsh", "solve", "inv", "qr")]
    data = hodge(c)
    got = torsion_iso_via_exact_sequences(c, data).coordinate
    # six 16 x 16 characters in one stack
    assert [len(f.stacked.stacks) for f in c.maps] == [1]
    assert [(uv, a.shape) for uv, a in calls] == [(False, (6, 16, 16))]
    assert [n[0] for n in solvers] == [0, 0, 0, 0]
    # one bound per degree, h columns wide: the trivial character in each
    assert bounded == [h.multiplicities for h in data.harmonic_modules]
    assert [sum(cols) for cols in bounded] == [1, 1]
    assert got == _blockwise_route(c, data)
    assert abs(np.log(got) - np.log(torsion_iso_via_laplacians(c, data).coordinate)) <= 1e-12


def test_exact_sequence_route_factors_each_map_block_once(monkeypatch):
    c = assemble_coefficients(circle(16), regular_cyclic_representation(6))
    _check_route_factors_each_map_block_once(monkeypatch, c)


def test_exact_sequence_route_with_a_gram_on_a_degree_without_outgoing_map(monkeypatch):
    # degree 0 has no outgoing map, so its cycle frame is the whole degree:
    # G^(-1/2) in the module's coordinates, the identity in the route's
    c = assemble_coefficients(circle(16), regular_cyclic_representation(6))
    g = random_gram_matrix(np.random.default_rng(29), c.modules[0])
    c = HilbertianChainComplex([c.modules[0].with_reference_gram(g), c.modules[1]], c.maps)
    assert not c.modules[0].reference_gram.is_identity
    _check_route_factors_each_map_block_once(monkeypatch, c)


def _blockwise_laplacians(c):
    """Each degree's Laplacian in the coordinates where the grams are the
    identity, block by block: the Hermitian part of d~_out^H d~_out + d~_in
    d~_in^H, summed from zero with the out term first, for each map's
    blocks d~ = G_t^(1/2) d G_s^(-1/2), a gram power applied only where the
    gram is not the identity (as modules.gram_coordinates does)."""

    def tilde(f, k):
        gs, gt = f.source.reference_gram, f.target.reference_gram
        b = f.blocks[k] if gt.is_identity else gt.sqrt.blocks[k] @ f.blocks[k]
        return b if gs.is_identity else b @ gs.inv_sqrt.blocks[k]

    out = []
    for i, mod in enumerate(c.modules):
        blocks = []
        for k, m in enumerate(mod.multiplicities):
            total = np.zeros((m, m), dtype=complex)
            if c.outgoing(i) is not None:
                d = tilde(c.outgoing(i), k)
                total = total + d.conj().T @ d
            if c.incoming(i) is not None:
                d = tilde(c.incoming(i), k)
                total = total + d @ d.conj().T
            blocks.append(0.5 * (total + total.conj().T))
        out.append(blocks)
    return out


def _blockwise_hodge(c, data):
    """The dense eigh-of-Laplacian Hodge decomposition, the oracle of the
    singular-value one: kernel frames, projectors, positive spectra and
    Betti numbers of each degree from one eigh per block of the whole
    Laplacian (_blockwise_laplacians), cut at kernel_tol times its largest
    |eigenvalue|, products with the gram powers taken even where they are
    the identity."""
    out = []
    for mod, laplacian in zip(c.modules, _blockwise_laplacians(c)):
        g = mod.reference_gram
        eighs = [np.linalg.eigh(b) for b in laplacian]
        top = max((float(np.max(np.abs(v))) for v, _ in eighs if v.size), default=0.0)
        cut = data.kernel_tol * max(top, 1e-300)
        frames, projectors, values, weights = [], [], [], []
        for (_, w), (v, u), wi, gb in zip(mod.algebra.blocks, eighs, g.inv_sqrt.blocks, g.blocks):
            zero = v <= cut
            j = wi @ u[:, zero]
            frames.append(j)
            projectors.append(j @ j.conj().T @ gb)
            values.append(v[~zero])
            weights.append(np.full(int(np.sum(~zero)), w))
        values, weights = np.concatenate(values), np.concatenate(weights)
        order = np.argsort(values)
        counts = [f.shape[1] for f in frames]
        betti = von_neumann_dimension(HilbertianModule(mod.algebra, counts))
        out.append((frames, projectors, values[order], weights[order], betti))
    return out


def _blockwise_squares(c, data):
    """Each degree's positive spectrum as sigma^2 of its two maps, one
    svd(compute_uv=False) per block of d~ = G_t^(1/2) d G_s^(-1/2), cut at
    Hodge's cut: (values, weights) listed block by block, the lower map
    first, then sorted as SpectralDensity.from_parts sorts them."""
    out = []
    for i, mod in enumerate(c.modules):
        per_block = [[] for _ in mod.multiplicities]
        for j, f in enumerate(c.maps):
            if i not in c.ends(j):
                continue
            gs, gt = f.source.reference_gram, f.target.reference_gram
            for k, (r, b, w) in enumerate(zip(gt.sqrt.blocks, f.blocks, gs.inv_sqrt.blocks)):
                if b.size:
                    sq = np.linalg.svd((r @ b) @ w, compute_uv=False) ** 2
                    per_block[k].append(sq[sq > data.cuts[i]])
        values = np.concatenate([v for vs in per_block for v in vs] or [np.zeros(0)])
        weights = np.concatenate(
            [np.full(len(v), w) for (_, w), vs in zip(mod.algebra.blocks, per_block) for v in vs]
            or [np.zeros(0)]
        )
        order = np.argsort(values)
        out.append((values[order], weights[order]))
    return out


def _eigh_route(c, data):
    """The Laplacian route's coordinate from one eigh per block of each
    Delta_i with i >= 1, cut at kernel_tol times the degree's largest
    |eigenvalue|; degree 0 carries 1."""
    sign = 1.0 if c.convention == "chain" else -1.0
    coordinate = 1.0
    laplacians = _blockwise_laplacians(c)
    for i in c.degrees[1:]:
        mod = c.modules[i]
        vals = [np.linalg.eigh(b)[0] for b in laplacians[i]]
        cut = data.kernel_tol * max(max((float(np.max(np.abs(v))) for v in vals if v.size), default=0.0), 1e-300)
        parts = [(np.full(int(np.sum(v > cut)), k), v[v > cut]) for k, v in enumerate(vals)]
        log_det = SpectralDensity.from_parts(mod.algebra.weights, parts).log_moment()
        coordinate *= float(np.exp(sign * 0.5 * i * log_det)) ** (1 if i % 2 == 0 else -1)
    return coordinate


def _blockwise_route(c, data):
    """The exact-sequence coordinate with one singular-value call per map
    block, in the coordinates where the grams are the identity (d~ =
    G_t^(1/2) d G_s^(-1/2)), and a full SVD only for a block that is not
    square of full rank, whose frames are otherwise the identity and an
    empty one; kappa from d~'s singular values.  0 -> B -> Z -> H -> 0 is
    checked block by block, degree by degree, with H~ = G^(1/2) H: H~^H Z~
    a co-isometry, H~^H B~ zero, cols(Z) = cols(B) + cols(H), and it
    contributes 1.  Products with the gram powers are taken even where they
    are the identity."""
    weights = np.asarray(c.algebra.weights)

    def frames(b):
        if b.size == 0:
            return np.zeros((b.shape[0], 0), dtype=complex), np.eye(b.shape[1], dtype=complex), 0.0
        s = np.linalg.svd(b, compute_uv=False)
        kept = s > 1e-10 * max(1.0, float(s[0]))
        rank, log = int(np.sum(kept)), float(np.sum(np.log(np.where(kept, s, 1.0))))
        if rank == b.shape[0] == b.shape[1]:
            return np.eye(rank, dtype=complex), np.zeros((rank, 0), dtype=complex), log
        u, _, vh = np.linalg.svd(b)
        return u[:, :rank], vh[rank:].conj().T, log

    chain = c.convention == "chain"
    ranges = [[np.zeros((m, 0), dtype=complex) for m in mod.multiplicities] for mod in c.modules]
    kernels = [[np.eye(m, dtype=complex) for m in mod.multiplicities] for mod in c.modules]
    kappas = [1.0] * len(c.modules)
    for i, f in enumerate(c.maps):
        src, tgt = (i + 1, i) if chain else (i, i + 1)
        gs, gt = c.modules[src].reference_gram, c.modules[tgt].reference_gram
        tilde = [(r @ b) @ w for r, b, w in zip(gt.sqrt.blocks, f.blocks, gs.inv_sqrt.blocks)]
        triples = [frames(b) for b in tilde]
        ranges[tgt] = [r for r, _, _ in triples]
        kernels[src] = [k for _, k, _ in triples]
        kappas[src] = lines._inv_sqrt(2.0 * float(weights @ np.array([x for _, _, x in triples])))
    for i, mod in enumerate(c.modules):
        harmonic = zip(mod.reference_gram.sqrt.blocks, data.harmonic_embeddings[i].blocks)
        for k, ((r, h), z, b) in enumerate(zip(harmonic, kernels[i], ranges[i])):
            beta = (r @ h).conj().T @ z
            if np.linalg.norm(beta @ beta.conj().T - np.eye(len(beta))) > 1e-8:
                raise NotExact(f"second map fails to be surjective in block {k}")
            if np.linalg.norm((r @ h).conj().T @ b) > 1e-8:
                raise NotExact(f"composite is nonzero in block {k}")
            if z.shape[1] != b.shape[1] + h.shape[1]:
                raise NotExact(f"rank mismatch in block {k}: middle homology is nonzero")
    coordinate = 1.0
    for i, kappa in enumerate(kappas):
        coordinate *= (1.0 / kappa) ** (1 if i % 2 == 0 else -1)
    return coordinate


def _composed_route(c, data):
    """The exact-sequence coordinate composed of public calls: one full SVD
    per map block for its frames, orthonormalized for the gram by
    frame_submodule, and both sequences of each degree by their own
    exact_sequence_iso calls, with one frame product per block, the gram
    included where it is the identity."""

    def frames(b):
        if b.size == 0:
            return np.zeros((b.shape[0], 0), dtype=complex), np.eye(b.shape[1], dtype=complex)
        u, s, vh = np.linalg.svd(b)
        rank = int(np.sum(s > 1e-10 * max(1.0, float(s[0]))))
        return u[:, :rank], vh[rank:].conj().T

    def coords(embed, vectors):
        g = embed.target.reference_gram
        return [j.conj().T @ gb @ v for j, gb, v in zip(embed.blocks, g.blocks, vectors)]

    chain = c.convention == "chain"
    ranges = [[np.zeros((m, 0), dtype=complex) for m in mod.multiplicities] for mod in c.modules]
    kernels = [[np.eye(m, dtype=complex) for m in mod.multiplicities] for mod in c.modules]
    for i, f in enumerate(c.maps):
        src, tgt = (i + 1, i) if chain else (i, i + 1)
        pairs = [frames(b) for b in f.blocks]
        ranges[tgt] = [r for r, _ in pairs]
        kernels[src] = [k for _, k in pairs]
    def submodule(mod, frames):
        cols = [f.shape[1] for f in frames]
        return frame_submodule(mod, BlockStacks.from_blocks(mod.multiplicities, cols, frames))

    bounds = [submodule(mod, r) for mod, r in zip(c.modules, ranges)]
    coordinate = 1.0
    for i in c.degrees:
        mod, out = c.modules[i], c.outgoing(i)
        z_mod, z_embed = submodule(mod, kernels[i])
        kappa = 1.0
        if out is not None:
            b_mod, b_embed = bounds[i - 1 if chain else i + 1]
            kappa = lines.exact_sequence_iso(
                z_embed, ModuleMorphism(mod, b_mod, coords(b_embed, out.blocks)),
                reference_element(z_mod), reference_element(b_mod),
            ).coefficient
        b_mod, b_embed = bounds[i]
        h_mod, h_embed = data.harmonic_modules[i], data.harmonic_embeddings[i]
        kappa_prime = lines.exact_sequence_iso(
            ModuleMorphism(b_mod, z_mod, coords(z_embed, b_embed.blocks)),
            ModuleMorphism(z_mod, h_mod, coords(h_embed, z_embed.blocks)),
            reference_element(b_mod), reference_element(h_mod),
        ).coefficient
        coordinate *= (1.0 / (kappa * kappa_prime)) ** (1 if i % 2 == 0 else -1)
    return coordinate


def _shape_batched_cases():
    rng = np.random.default_rng(71)
    # C[S3] blocks of dimensions 1, 1, 2: the first two share a shape in
    # every degree, the third differs, and the grams are not the identity
    mixed = make_complex(rng, S3, [(2, 2, 3), (3, 3, 2), (2, 2, 1)], grams=True)
    # six 16 x 16 characters of one shape; only the trivial one has a kernel
    cochain = assemble_coefficients(circle(16), regular_cyclic_representation(6, side="left"))
    # eigenvalue 1 in every block, with weights 1/6, 1/6 and 1/3: the tied
    # values keep their block order although block 1 has its own shape
    mod = HilbertianModule(S3, (2, 3, 2))
    f = CommutantOperator(mod, [np.diag([1.0] + [0.0] * (m - 1)) for m in (2, 3, 2)])
    tied = HilbertianChainComplex([mod, mod], [f])
    return {
        "mixed C[S3] grams": mixed,
        "cochain circle(16) C[Z/6]": cochain,
        "tied C[S3] spectra": tied,
    }


@pytest.mark.parametrize("name", sorted(_shape_batched_cases()))
def test_shape_batched_hodge_and_route_match_blockwise_bit_for_bit(name):
    # harmonic frames and projectors as the eigh oracle's, sigma^2 densities
    # as a blockwise SVD's, and each route as its blockwise computation
    c = _shape_batched_cases()[name]
    data = hodge(c)
    assert any(0 < b < von_neumann_dimension(m) for b, m in zip(data.betti, c.modules))
    blockwise = zip(_blockwise_hodge(c, data), _blockwise_squares(c, data))
    for i, ((frames, projectors, _, _, betti), (values, weights)) in enumerate(blockwise):
        assert data.betti[i] == betti
        for got, want in zip(data.harmonic_embeddings[i].blocks, frames):
            assert got.shape == want.shape and np.array_equal(got, want)
        for got, want in zip(data.harmonic_projectors[i].blocks, projectors):
            assert np.array_equal(got, want)
        assert np.array_equal(data.positive_densities[i].values, values)
        assert np.array_equal(data.positive_densities[i].weights, weights)
    assert torsion_iso_via_laplacians(c, data).coordinate == _eigh_route(c, data)
    assert torsion_iso_via_exact_sequences(c, data).coordinate == _blockwise_route(c, data)


def _oracle_cases():
    """(cell complex, representation) of every kind the deck runs: circles
    over C[Z/3], C[Z/5] and C[Z/6], lens spaces, the torus and the Klein
    bottle through product representations, the left side, and a module
    gram that is not the identity."""
    cases = {
        f"circle({k}) C[Z/{n}]": (circle(k), regular_cyclic_representation(n))
        for k in (4, 16, 64) for n in (3, 5, 6)
    }
    cases.update({
        f"lens({n}) C[Z/{n}]": (lens_space(n), regular_cyclic_representation(n))
        for n in (3, 5, 8, 12)
    })
    cases.update({
        "torus C[Z/2 x Z/3]": (torus(), regular_product_representation((2, 3), ("a", "b"))),
        "torus C[Z/3 x Z/4]": (torus(), regular_product_representation((3, 4), ("a", "b"))),
        "klein C[Z/2 x Z/4]": (klein_bottle(), regular_product_representation((2, 4), ("a", "b"))),
        "circle(8) C[Z/3] left": (circle(8), regular_cyclic_representation(3, side="left")),
        "lens(5) C[Z/5] left": (lens_space(5), regular_cyclic_representation(5, side="left")),
        "torus C[Z/2 x Z/3] left": (
            torus(), regular_product_representation((2, 3), ("a", "b"), side="left")
        ),
    })
    rep = regular_cyclic_representation(5)
    rng = np.random.default_rng(89)
    gram = [r.conj().T @ r + 0.5 * np.eye(m) for r, m in (
        (random_complex(rng, (m, m)), m) for m in rep.module.multiplicities
    )]
    cases["circle(8) C[Z/5] gram"] = (
        circle(8), rep.with_module_gram(CommutantOperator(rep.module, gram))
    )
    return cases


@pytest.mark.parametrize("name", sorted(_oracle_cases()))
def test_hodge_matches_the_eigh_oracle(name):
    # Betti numbers exactly, projectors to 1e-10 and sigma^2 densities to
    # 1e-12 against eigh of the whole Laplacian, relative to the degree's
    # largest value: eigh resolves an eigenvalue to a few eps times the
    # Laplacian's norm (4.8e-16 at 2.7e-4 on circle(64) C[Z/6]), not to eps
    # times the value
    cx, rep = _oracle_cases()[name]
    c = assemble_coefficients(cx, rep)
    data = hodge(c)
    for i, (_, projectors, values, weights, betti) in enumerate(_blockwise_hodge(c, data)):
        # the Hermitian stacks built from Hodge's pass are the operator
        # Laplacian's in gram coordinates: the same bits under identity grams
        delta = _tilde_blocks(c.modules[i], data.laplacians[i])
        for (_, got), want in zip(data.laplacians.hermitian(i), delta.stacks):
            want = 0.5 * (want + want.conj().swapaxes(1, 2))
            if all(m.reference_gram.is_identity for m in c.modules):
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max(initial=0.0) <= 1e-13 * np.abs(want).max()
        assert data.betti[i] == betti
        for got, want in zip(data.harmonic_projectors[i].blocks, projectors):
            assert np.linalg.norm(got - want) <= 1e-10
        density = data.positive_densities[i]
        assert np.array_equal(density.weights, weights)
        assert np.all(np.abs(density.values - values) <= 1e-12 * values.max(initial=0.0))


def test_batched_route_matches_blockwise_bit_for_bit_on_larger_representations():
    # many sequences share one stack per block shape: twelve 1 x 1 blocks
    # per lens space degree, and the C[Z/2 x Z/3] blocks of the torus
    for cx, rep in (
        (lens_space(12), regular_cyclic_representation(12)),
        (torus(), regular_product_representation((2, 3), ("a", "b"))),
    ):
        c = assemble_coefficients(cx, rep)
        data = hodge(c)
        assert torsion_iso_via_exact_sequences(c, data).coordinate == _blockwise_route(c, data)


def _map_passes(c, data):
    """The route's reading of Hodge's pass for the map out of and into each
    degree, (d~, sigma_r, rank) in the coordinates where the grams are the
    identity, ranks cut against the complex's largest singular value."""
    tops = [float(sv[:, 0].max()) for _, values in data.passes for _, sv in values]
    scale = max(tops, default=0.0)
    outs, ins = [None] * len(c.modules), [None] * len(c.modules)
    for i, f in enumerate(c.maps):
        src, tgt = c.ends(i)
        tilde = gram_coordinates(f.stacked, f.source, f.target)
        _, low, rank, _ = tilde.singular_values(RANK_RTOL, scale)
        outs[src] = ins[tgt] = (tilde, low, rank)
    return outs, ins, scale


def _frame_products(harmonic, out, inc, mult, scale):
    """||beta beta^H - 1||_F and ||H~^H B~||_F of each block, from the
    frames of the maps' SVDs, as _check_homology measures them."""
    cycles, bounds = complexes._homology_frames(mult, out, inc, scale)
    beta = harmonic.H @ cycles
    inside = complexes._frobenius(beta @ beta.H - BlockStacks.identity(beta.layout.rows))
    return inside, complexes._frobenius(harmonic.H @ bounds)


def test_homology_bounds_hold_on_random_complexes_with_homology():
    # each bound is at least the frame product it bounds, up to the frames'
    # own rounding (a few ulps): on Hodge's harmonic frames, where both read
    # about 1e-15, and on frames moved off the harmonic space by 1e-3, where
    # the products are large and the bounds must follow them
    rng = np.random.default_rng(83)
    slack = 16 * np.finfo(float).eps
    with_homology = 0
    for alg in ALGEBRAS.values():
        for grams in (False, True):
            for convention in ("chain", "cochain"):
                for _ in range(3):
                    mults = [tuple(int(m) for m in rng.integers(1, 5, len(alg.blocks)))] * 3
                    c = make_complex(rng, alg, mults, convention=convention, grams=grams)
                    data = hodge(c)
                    with_homology += any(b > 0 for b in data.betti)
                    outs, ins, scale = _map_passes(c, data)
                    for i, h in enumerate(data.harmonic_embeddings):
                        mult = c.modules[i].multiplicities
                        moved = h.stacked.map(lambda s: s + 1e-3 * random_complex(rng, s.shape))
                        for frames in (h.stacked, moved):
                            harmonic = gram_coordinates(frames, h.source, h.target)
                            bound = complexes._homology_bounds(harmonic, outs[i], ins[i])
                            products = _frame_products(harmonic, outs[i], ins[i], mult, scale)
                            for b, p in zip(bound, products):
                                assert np.all(p <= b + slack)
                    assert torsion_iso_via_exact_sequences(c, data).coordinate == _blockwise_route(c, data)
    assert with_homology >= 40


def test_route_matches_the_composed_reference_on_random_complexes():
    # the route reads kappa from singular values and keeps its frames in the
    # coordinates where the grams are the identity; composing public
    # exact_sequence_iso calls over frames orthonormalized for the grams
    # measures the same sequences another way
    cases = list(_shape_batched_cases().values())
    for seed in (505, 17, 29):
        cases += list(random_complexes(seed))
    assert len(cases) == 603
    worst = 0.0
    for c in cases:
        data = hodge(c)
        got = torsion_iso_via_exact_sequences(c, data).coordinate
        worst = max(worst, abs(np.log(got) - np.log(_composed_route(c, data))))
    assert worst <= 1e-13


def test_batched_route_refuses_as_the_blockwise_route():
    # d = diag(1, 1e-6): Hodge counts the 1e-6 direction as kernel (its
    # Laplacian eigenvalue 1e-12 is under the cut), the frames count it as
    # rank, so the harmonic frame does not kill the boundaries of degree 0;
    # in the cochain mirror degree 0 has, for the frames, no cycles at all
    mod = HilbertianModule(SCALAR, (2,))
    d = CommutantOperator(mod, [np.diag([1.0, 1e-6])])
    refusals = []
    for convention in ("chain", "cochain"):
        c = HilbertianChainComplex([mod, mod], [d], convention=convention)
        data = hodge(c)
        assert data.betti == (1.0, 1.0)
        for route in (torsion_iso_via_exact_sequences, _blockwise_route):
            with pytest.raises(NotExact) as err:
                route(c, data)
            refusals.append(str(err.value))
    assert refusals == ["composite is nonzero in block 0"] * 2 + [
        "second map fails to be surjective in block 0"
    ] * 2


def _sign_complex():
    """Over C[Z/2], d = (1, diag(1, 0)): the first character is an
    isomorphism, the second has Z_1 = span(e_2) and B_0 = span(e_1), and
    Hodge gives e_2 as the harmonic frame of either degree."""
    mod = HilbertianModule(Z2, (2, 2))
    c = HilbertianChainComplex([mod, mod], [CommutantOperator(mod, [np.eye(2), np.diag([1.0, 0.0])])])
    data = hodge(c)
    assert data.betti == (0.5, 0.5)
    return c, data


def _with_harmonic_frame(data, degree, frame):
    """data with the degree's harmonic frame in the second character
    replaced by frame."""
    mod = data.harmonic_embeddings[degree].target
    h_mod = HilbertianModule(Z2, (0, frame.shape[1]))
    h = ModuleMorphism(h_mod, mod, [np.zeros((2, 0)), frame])
    def swap(entries, entry):
        return tuple(entry if i == degree else e for i, e in enumerate(entries))

    return dataclasses.replace(
        data,
        harmonic_modules=swap(data.harmonic_modules, h_mod),
        harmonic_embeddings=swap(data.harmonic_embeddings, h),
    )


@pytest.mark.parametrize(
    "degree, frame, message",
    [
        # e_1 is not a cycle of degree 1
        (1, np.array([[1.0], [0.0]]), "second map fails to be surjective in block 1"),
        # e_1 is the boundary of degree 0
        (0, np.array([[1.0], [0.0]]), "composite is nonzero in block 1"),
        # Z_0 = C^2 and B_0 = span(e_1) leave one dimension no frame fills
        (0, np.zeros((2, 0)), "rank mismatch in block 1: middle homology is nonzero"),
    ],
)
def test_route_reaches_each_refusal_as_the_blockwise_route(degree, frame, message):
    c, data = _sign_complex()
    assert torsion_iso_via_exact_sequences(c, data).coordinate == _blockwise_route(c, data) == 1.0
    data = _with_harmonic_frame(data, degree, frame)
    for route in (torsion_iso_via_exact_sequences, _blockwise_route):
        with pytest.raises(NotExact, match=f"^{message}$"):
            route(c, data)


@pytest.mark.parametrize("eps", [1e-3, 1e-9, 1e-11, 1e-13])
def test_routes_agree_on_a_small_invertible_map(eps):
    # C^2 -(eps I)-> C^2 is acyclic at every eps; the route cuts ranks
    # against the complex's largest singular value, eps here, so an eps
    # below 1e-10 is not read as a kernel
    mod = HilbertianModule(SCALAR, (2,))
    c = HilbertianChainComplex([mod, mod], [CommutantOperator(mod, [eps * np.eye(2)])])
    data = hodge(c)
    assert data.betti == (0.0, 0.0)
    for route in (torsion_iso_via_laplacians, torsion_iso_via_exact_sequences):
        assert abs(np.log(route(c, data).coordinate) + 2.0 * np.log(eps)) <= 1e-12


def _counting(monkeypatch, name):
    """Count the calls of np.linalg.<name> for the rest of the test."""
    calls = [0]
    original = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _recording(monkeypatch, name):
    """Record (shape, compute_uv) of the argument of each np.linalg.<name>
    call for the rest of the test; compute_uv reads None for a function
    without it."""
    calls = []
    original = getattr(np.linalg, name)
    impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg

    def recorded(a, *args, **kwargs):
        calls.append((a.shape, kwargs.get("compute_uv") if name == "svd" else None))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recorded)
    monkeypatch.setattr(impl, name, recorded)
    return calls


def test_hodge_takes_eigh_only_on_blocks_with_homology(monkeypatch):
    rng = np.random.default_rng(73)
    cases = [
        make_complex(rng, S3, [(2, 2, 3), (3, 3, 2), (2, 2, 1)], grams=False),
        assemble_coefficients(circle(16), regular_cyclic_representation(6, side="left")),
        # t -> -1: acyclic, so no eigh and no Laplacian at all
        assemble_coefficients(circle(16), sign_representation(("t",))),
    ]
    for c in cases:
        # the relation check of a complex with two maps has taken their
        # singular values already; a lone map has had none taken
        fresh = [f.stacked._values is None for f in c.maps]
        assert fresh == [len(c.maps) < 2] * len(c.maps)
        eighs = _recording(monkeypatch, "eigh")
        svds = _recording(monkeypatch, "svd")
        data = hodge(c)
        # one call per stack that has a block with homology, over those blocks
        want = []
        for i, (mod, h) in enumerate(zip(c.modules, data.harmonic_modules)):
            for m in dict.fromkeys(mod.multiplicities):
                count = sum(
                    1 for mk, hk in zip(mod.multiplicities, h.multiplicities) if mk == m and hk
                )
                if count:
                    want.append(((count, m, m), None))
        assert eighs == want
        # Hermitian Laplacian stacks only where there is homology, and no
        # Laplacian operator
        built = [h is not None for h in data.laplacians._hermitian]
        assert built == [any(h.multiplicities) for h in data.harmonic_modules]
        assert data.laplacians._formed == [None] * len(c.modules)
        # one singular-value call per stored stack of each map: Hodge takes
        # those the relation check did not, and a second pass takes none
        assert svds == [
            (s.shape, False)
            for f, new in zip(c.maps, fresh) if new for s in f.stacked.stacks if s.size
        ]
        svds.clear()
        hodge(c)
        assert svds == []
        monkeypatch.undo()
    assert data.betti == (0.0, 0.0)


@pytest.mark.parametrize(
    "cx, rep, svds, eighs, formed",
    [
        # the trivial character has homology in both degrees: eigh of its
        # block in Hodge, and of the other five in the route's degree 1; one
        # map, so no relation check, and Hodge takes the map's stack
        (
            circle(16), regular_cyclic_representation(6),
            [(6, 16, 16)], [(1, 16, 16), (1, 16, 16), (5, 16, 16)], [0, 1],
        ),
        # homology in degrees 0 and 3 only; the route takes degrees 1 to 3,
        # and in degree 3 the blocks Hodge did not take; the relation check
        # takes the three maps' stacks and the two composites'
        (
            lens_space(5), regular_cyclic_representation(5, side="left"),
            [(5, 1, 1)] * 5, [(1, 1, 1), (1, 1, 1), (5, 1, 1), (5, 1, 1), (4, 1, 1)], [0, 3, 1, 2],
        ),
        (
            torus(), regular_product_representation((2, 3), ("a", "b")),
            [(6, 1, 2), (6, 2, 1), (6, 1, 1)],
            [(1, 1, 1), (1, 2, 2), (1, 1, 1), (5, 2, 2), (5, 1, 1)],
            [0, 1, 2],
        ),
        # acyclic: Delta_0 is never formed
        (circle(16), sign_representation(("t",)), [(1, 16, 16)], [(1, 16, 16)], [1]),
    ],
)
def test_torsion_takes_one_svd_per_map_stack_and_forms_each_laplacian_once(
    monkeypatch, cx, rep, svds, eighs, formed
):
    # one svd(compute_uv=False) per stored stack over the whole call: the
    # images' stacks were taken when the representation was built, and the
    # unimodularity check reads them; each map stack is taken once, by the
    # relation check or else by Hodge, and read by Hodge and both routes;
    # each composite of the relation check is taken once.  eigh in Hodge
    # only on blocks with homology (none on a Delta_0 block without it) and
    # in the Laplacian route on the other blocks of Delta_i, i >= 1; each
    # Delta_i's Hermitian stacks built at most once, from Hodge's pass, and
    # no Laplacian operator formed
    cellular = importlib.import_module("detline.torsion")
    eigh_calls = _recording(monkeypatch, "eigh")
    taken = []  # (argument, compute_uv) of each svd call
    svd = np.linalg.svd

    def taking(a, *args, **kwargs):
        taken.append((a, kwargs.get("compute_uv")))
        return svd(a, *args, **kwargs)

    impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    monkeypatch.setattr(np.linalg, "svd", taking)
    monkeypatch.setattr(impl, "svd", taking)
    hermitian, formed_degrees = complexes._Laplacians.hermitian, []

    def building(laplacians, i):
        if laplacians._hermitian[i] is None:
            formed_degrees.append(i)
        return hermitian(laplacians, i)

    def refuse(*args):
        raise AssertionError("a Laplacian operator was formed")

    monkeypatch.setattr(complexes._Laplacians, "hermitian", building)
    monkeypatch.setattr(complexes, "_laplacian", refuse)
    images = [s for op in rep.images.values() for s in op.stacked.stacks]
    report = cellular.torsion(cx, rep)
    assert [(a.shape, uv) for a, uv in taken] == [(shape, False) for shape in svds]
    assert not any(a is s for a, _ in taken for s in images)
    for f in report.coefficients.maps:
        assert all(sum(a is s for a, _ in taken) == 1 for s in f.stacked.stacks if s.size)
    assert [shape for shape, _ in eigh_calls] == eighs
    assert formed_degrees == formed
    # the coordinate is the eigh formula and the exact-sequence value is
    # sum log sigma, bit for bit
    c, data = report.coefficients, report.hodge_data
    assert report.coordinate == _eigh_route(c, data)
    assert report.route_coordinates["exact_sequence"] == _blockwise_route(c, data)


def test_hodge_refuses_maps_whose_ranks_exceed_a_degree():
    # C -1-> C -1-> C does not compose to zero: degree 1 would have Betti
    # count 1 - 1 - 1
    mod = HilbertianModule(SCALAR, [1])
    one = CommutantOperator.identity(mod)
    c = HilbertianChainComplex([mod, mod, mod], [one, one], validate=False)
    with pytest.raises(ValidationError, match="^degree 1: the maps at it have more rank"):
        hodge(c)


def test_boundary_residual_takes_one_svd_per_block_shape_and_map(monkeypatch):
    rng = np.random.default_rng(79)
    c = make_complex(rng, S3, [(2, 2, 3), (3, 3, 2), (1, 1, 2)], grams=False)
    composite = c.maps[0] @ c.maps[1]
    shapes = sum(len(stacks(f.blocks)) for f in (*c.maps, composite))
    assert shapes == 6  # two shapes for each of the three norms
    calls = _counting(monkeypatch, "svd")
    # maps with fresh stacks: one svd per stack of each map and of the
    # composite
    fresh = [ModuleMorphism(f.source, f.target, f.blocks) for f in c.maps]
    fresh = HilbertianChainComplex(c.modules, fresh, validate=False)
    assert fresh.boundary_residual() < 1e-12
    assert calls[0] == shapes
    # the maps keep their singular values: a second check, and Hodge, take
    # only the new composite's
    calls[0] = 0
    assert fresh.boundary_residual() < 1e-12
    hodge(fresh)
    assert calls[0] == len(stacks(composite.blocks)) == 2


def test_boundary_residual_takes_norms_only_with_two_maps(monkeypatch):
    # circle(k) has one map and no composite to scale
    c = assemble_coefficients(circle(8), regular_cyclic_representation(3))
    assert len(c.maps) == 1
    calls = _counting(monkeypatch, "svd")
    assert c.boundary_residual() == 0.0
    assert calls[0] == 0
    monkeypatch.undo()
    lens = assemble_coefficients(lens_space(5), regular_cyclic_representation(5))
    assert len(lens.maps) == 3
    assert lens.boundary_residual() == float.fromhex("0x1.7bb85756cb194p-54")


def test_ill_conditioned_kernel_refused():
    # squared map has eigenvalues {1, 8.1e-11, 4e-10}: the middle one falls
    # in the kernel cluster but sits within a factor 10 of the smallest
    # positive one
    mod = HilbertianModule(SCALAR, [3])
    f = CommutantOperator(mod, [np.diag([1.0, 0.9e-5, 2e-5])])
    c = HilbertianChainComplex([mod, mod], [f])
    with pytest.raises(IllConditionedKernel):
        hodge(c)


def test_determinant_class_finite_always_passes():
    rng = np.random.default_rng(7)
    c = make_complex(rng, Z2, [(2, 1), (1, 2), (2, 2)])
    report = determinant_class_check(c)
    assert report.passed
    for r in report.per_degree:
        assert r.status == "convergent"
        assert "smallest_positive" in r.diagnostics


def test_torsion_iso_zero_differentials_is_unit():
    mod = standard_module(S3)
    zero = CommutantOperator.zero(mod)
    c = HilbertianChainComplex([mod, mod, mod], [zero, zero])
    for route in (torsion_iso_via_laplacians, torsion_iso_via_exact_sequences):
        graded = route(c)
        assert abs(graded.coordinate - 1.0) < 1e-10
        for _, element in graded.entries:
            assert abs(element.coefficient - 1.0) < 1e-10


@pytest.mark.parametrize("convention,power", [("chain", -1.0), ("cochain", 1.0)])
def test_torsion_iso_acyclic_two_term(convention, power):
    rng = np.random.default_rng(11)
    mod = standard_module(S3)
    blocks = [
        random_complex(rng, (m, m)) + 2.0 * np.eye(m) for m in mod.multiplicities
    ]
    c = two_term_acyclic(S3, blocks, convention=convention)
    det = fk_det(mod, CommutantOperator(mod, blocks)).value
    expect = det**power
    for route in (torsion_iso_via_laplacians, torsion_iso_via_exact_sequences):
        graded = route(c)
        assert abs(graded.coordinate - expect) < 1e-8 * expect


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@pytest.mark.parametrize("convention", ["chain", "cochain"])
def test_route_equivalence_random(name, convention):
    rng = np.random.default_rng(13)
    alg = ALGEBRAS[name]
    shapes = [
        [tuple(2 for _ in alg.blocks)] * 3,
        [tuple(int(rng.integers(0, 3)) for _ in alg.blocks) for _ in range(4)],
        [tuple(3 for _ in alg.blocks), tuple(2 for _ in alg.blocks)],
    ]
    for mults in shapes:
        c = make_complex(rng, alg, mults, convention=convention)
        data = hodge(c)
        a = torsion_iso_via_laplacians(c, data)
        b = torsion_iso_via_exact_sequences(c, data)
        assert abs(a.coordinate - b.coordinate) < 1e-8 * max(a.coordinate, b.coordinate)


def test_direct_sum_multiplies_coordinates():
    rng = np.random.default_rng(17)
    alg = Z3
    c1 = make_complex(rng, alg, [(2, 1, 1), (1, 2, 1), (1, 1, 2)], grams=False)
    c2 = make_complex(rng, alg, [(1, 1, 1), (2, 1, 2), (1, 1, 1)], grams=False)
    summed_modules = [direct_sum(m1, m2) for m1, m2 in zip(c1.modules, c2.modules)]
    summed_maps = []
    for f1, f2, src, tgt in zip(
        c1.maps, c2.maps, summed_modules[1:], summed_modules[:-1]
    ):
        blocks = []
        for b1, b2 in zip(f1.blocks, f2.blocks):
            blocks.append(
                np.block(
                    [
                        [b1, np.zeros((b1.shape[0], b2.shape[1]))],
                        [np.zeros((b2.shape[0], b1.shape[1])), b2],
                    ]
                )
            )
        summed_maps.append(ModuleMorphism(src, tgt, blocks))
    total = HilbertianChainComplex(summed_modules, summed_maps)
    coord = torsion_iso_via_laplacians(total).coordinate
    expect = (
        torsion_iso_via_laplacians(c1).coordinate
        * torsion_iso_via_laplacians(c2).coordinate
    )
    assert abs(coord - expect) < 1e-9 * expect
    cross = torsion_iso_via_exact_sequences(total).coordinate
    assert abs(cross - coord) < 1e-8 * coord


def test_homotopy_stability_of_verdict_and_det_factor():
    rng = np.random.default_rng(19)
    alg = Z2
    c = make_complex(rng, alg, [(2, 1), (1, 2), (1, 1)], grams=False)
    assert determinant_class_check(c).passed
    coord = torsion_iso_via_laplacians(c).coordinate

    # direct-sum an acyclic two-term piece in degrees 0 and 1
    mod = standard_module(alg)
    blocks = [random_complex(rng, (m, m)) + 2.0 * np.eye(m) for m in mod.multiplicities]
    det = fk_det(mod, CommutantOperator(mod, blocks)).value
    bigger_modules = [
        direct_sum(c.modules[0], mod),
        direct_sum(c.modules[1], mod),
        c.modules[2],
    ]
    f0 = c.maps[0]
    blocks0 = [
        np.block(
            [
                [b1, np.zeros((b1.shape[0], m))],
                [np.zeros((m, b1.shape[1])), b2],
            ]
        )
        for b1, b2, m in zip(f0.blocks, blocks, mod.multiplicities)
    ]
    f1 = c.maps[1]
    blocks1 = [
        np.vstack([b, np.zeros((m, b.shape[1]))])
        for b, m in zip(f1.blocks, mod.multiplicities)
    ]
    bigger_maps = [
        ModuleMorphism(bigger_modules[1], bigger_modules[0], blocks0),
        ModuleMorphism(bigger_modules[2], bigger_modules[1], blocks1),
    ]
    bigger = HilbertianChainComplex(bigger_modules, bigger_maps)
    assert determinant_class_check(bigger).passed
    new_coord = torsion_iso_via_laplacians(bigger).coordinate
    assert abs(new_coord - coord / det) < 1e-8 * max(new_coord, coord / det)


def test_metric_covariance_acyclic():
    rng = np.random.default_rng(23)
    alg = Z3
    mod = standard_module(alg)
    blocks = [random_complex(rng, (m, m)) + 2.0 * np.eye(m) for m in mod.multiplicities]
    lam = 1.9
    for degree in (0, 1):
        base = two_term_acyclic(alg, blocks)
        coord = torsion_iso_via_laplacians(base).coordinate
        grams = [None, None]
        grams[degree] = lam**2 * np.eye(mod.carrier_dim)
        scaled = two_term_acyclic(alg, blocks, grams=grams)
        new = torsion_iso_via_laplacians(scaled).coordinate
        factor = lam ** (-((-1) ** degree) * von_neumann_dimension(mod))
        assert abs(new - coord * factor) < 1e-9 * max(new, coord * factor)
        cross = torsion_iso_via_exact_sequences(scaled).coordinate
        assert abs(cross - new) < 1e-8 * new


def test_unitary_naturality():
    # conjugating every degree by a commutant unitary and transporting the
    # grams leaves both route coordinates unchanged
    rng = np.random.default_rng(29)
    alg = S3
    mults = [(2, 1, 1), (1, 2, 1), (1, 1, 2)]
    c = make_complex(rng, alg, mults)
    unitaries = []
    for m in c.modules:
        blocks = [_unit_frame(rng, mm) for mm in m.multiplicities]
        unitaries.append(CommutantOperator(m, blocks))
    new_maps = []
    for j, f in enumerate(c.maps):
        # chain: maps[j]: C_{j+1} -> C_j
        new_maps.append(unitaries[j] @ f @ unitaries[j + 1].inverse())
    new_grams = []
    for m, u in zip(c.modules, unitaries):
        ui = u.inverse().to_matrix()
        new_grams.append(ui.conj().T @ m.reference_gram.matrix @ ui)
    plain_modules = [HilbertianModule(alg, m.multiplicities) for m in c.modules]
    conj = HilbertianChainComplex(
        [m.with_reference_gram(g) for m, g in zip(plain_modules, new_grams)],
        [
            ModuleMorphism(plain_modules[j + 1], plain_modules[j], f.blocks)
            for j, f in enumerate(new_maps)
        ],
    )
    for route in (torsion_iso_via_laplacians, torsion_iso_via_exact_sequences):
        a = route(c).coordinate
        b = route(conj).coordinate
        assert abs(a - b) < 1e-8 * max(a, b)


def test_zeta_two_term_doubling():
    # one positive eigenvalue 4 in each degree; only degree 1 contributes:
    # zeta'(0,0) = (-1)^1 * 1 * (-log 4) = log 4, so exp(zeta'/2) = 2,
    # matching the cochain-exponent product 4^(1/2)
    c = two_term_acyclic(SCALAR, [np.array([[2.0]])], convention="cochain")
    report = zeta_suite(c)
    assert abs(report.zeta_prime[0] + np.log(4.0)) < 1e-12
    assert abs(report.zeta_prime[1] + np.log(4.0)) < 1e-12
    assert abs(report.combined_prime - np.log(4.0)) < 1e-12
    assert abs(report.normalization - 2.0) < 1e-12
    assert abs(report.laplacian_product - 2.0) < 1e-12


def test_zeta_zero_complex():
    mod = standard_module(Z2)
    zero = CommutantOperator.zero(mod)
    c = HilbertianChainComplex([mod, mod], [zero])
    report = zeta_suite(c)
    assert report.combined_prime == 0.0
    assert report.normalization == 1.0
    assert report.laplacian_product == 1.0


def test_zeta_identity_on_random_complexes():
    rng = np.random.default_rng(31)
    for name, alg in ALGEBRAS.items():
        c = make_complex(rng, alg, [tuple(2 for _ in alg.blocks)] * 3, convention="cochain")
        report = zeta_suite(c)
        assert (
            abs(report.normalization - report.laplacian_product)
            < 1e-9 * report.laplacian_product
        )


def test_zeta_past_the_float_range_reads_inf_without_a_warning():
    # 10 I on C^400: zeta'_0 = zeta'_1 = -400 log 100, so exp(zeta'/2) and
    # the Laplacian product are 10^400; pytest turns warnings into errors
    mod = HilbertianModule(SCALAR, [400])
    c = HilbertianChainComplex([mod, mod], [CommutantOperator.identity(mod) * 10.0])
    report = zeta_suite(c)
    assert report.combined_prime == pytest.approx(400 * np.log(100.0), rel=1e-12)
    assert report.normalization == np.inf and report.laplacian_product == np.inf
    with pytest.raises(ValidationError, match="must be positive, got inf$"):
        torsion_iso_via_laplacians(c)


def test_zeta_closed_form_values():
    c = two_term_acyclic(SCALAR, [np.array([[2.0]])])
    report = zeta_suite(c)
    # zeta_1(s, lam) = (4 + lam)^(-s)
    assert abs(report.zeta_value(1, 2.0, 1.0) - 5.0**-2.0) < 1e-14
    assert abs(report.theta_value(1, 0.25) - np.exp(-1.0)) < 1e-14
    assert abs(report.zeta_prime_value(1, 0.0) + np.log(4.0)) < 1e-14


def test_zeta_mellin_cross_check():
    rng = np.random.default_rng(37)
    c = make_complex(rng, Z3, [(2, 2, 2), (2, 2, 2), (2, 2, 2)])
    report = zeta_suite(c)
    for degree in c.degrees:
        if report.densities[degree].values.size == 0:
            continue
        for s, lam in ((1.0, 0.3), (1.5, 0.0)):
            closed = report.zeta_value(degree, s, lam)
            quad = report.mellin_zeta(degree, s, lam)
            assert abs(quad - closed) < 1e-4 * max(1.0, abs(closed))


def test_grams_are_baked_into_modules():
    rng = np.random.default_rng(41)
    mod = standard_module(Z2)
    g = random_gram_matrix(rng, mod)
    c = HilbertianChainComplex(
        [mod.with_reference_gram(g), mod], [CommutantOperator.identity(mod)]
    )
    assert operator_norm(c.modules[0].reference_gram.matrix - g) < 1e-12
    assert operator_norm(c.modules[1].reference_gram.matrix - np.eye(mod.carrier_dim)) < 1e-12