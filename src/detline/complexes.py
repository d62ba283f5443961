"""Chain and cochain complexes of Hilbertian modules.

A complex stores one module per degree plus the connecting maps; the
convention flag decides whether maps[i] runs from degree i+1 down to i
(chain) or from degree i up to i+1 (cochain).  Chosen scalar products are
baked into the degree modules as their reference grams, so every adjoint,
Laplacian and determinant downstream is taken with respect to them.

The torsion isomorphism between det(C) and det(H_*) is computed by two
deliberately independent routes: factorization through the exact sequences
0 -> Z -> C -> B -> 0 and 0 -> B -> Z -> H -> 0, and the closed Laplacian
formula prod Det(Delta_i^+)^(+-i/2).  Their agreement is a theorem; here it
is a test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import gram_orthonormalize, nullspace, operator_norm, orthonormal_range
from .determinant import ConvergenceReport, SpectralDensity
from .errors import (
    IllConditionedKernel,
    NotDeterminantClass,
    ValidationError,
)
from .lines import (
    DetLineElement,
    GradedDetLineElement,
    exact_sequence_iso,
    graded_assemble,
    reference_element,
)
from .modules import (
    CommutantOperator,
    HilbertianModule,
    ModuleMorphism,
    von_neumann_dimension,
)

HODGE_KERNEL_TOL = 1e-10
HODGE_GAP_RATIO = 10.0
BOUNDARY_TOL = 1e-10

CHAIN = "chain"
COCHAIN = "cochain"


def _same_coordinates(a: HilbertianModule, b: HilbertianModule) -> bool:
    """Same carrier and layout; the reference products may differ."""
    if a.algebra != b.algebra or a.multiplicities != b.multiplicities:
        return False
    ua = np.eye(a.carrier_dim) if a.basis_map is None else a.basis_map
    ub = np.eye(b.carrier_dim) if b.basis_map is None else b.basis_map
    return bool(np.allclose(ua, ub, atol=1e-12))


class HilbertianChainComplex:
    """Finite complex 0 <- C_0 <- ... <- C_N <- 0 (chain) or its cochain
    mirror 0 -> C_0 -> ... -> C_N -> 0.

    maps[i] connects degrees i and i+1: for the chain convention it is a
    morphism C_{i+1} -> C_i, for the cochain convention C_i -> C_{i+1}.
    grams optionally overrides the scalar product per degree; the modules
    are rebuilt so their reference IS the chosen product.
    """

    def __init__(self, modules, maps, convention=CHAIN, grams=None, validate=True,
                 tol=BOUNDARY_TOL):
        if convention not in (CHAIN, COCHAIN):
            raise ValidationError(f"unknown convention {convention!r}")
        modules = list(modules)
        maps = list(maps)
        if not modules:
            raise ValidationError("a complex needs at least one degree")
        if len(maps) != len(modules) - 1:
            raise ValidationError("need exactly one connecting map per adjacent pair")
        alg = modules[0].algebra
        for m in modules:
            if m.algebra != alg:
                raise ValidationError("all degrees must share one algebra")

        if grams is not None:
            grams = list(grams)
            if len(grams) != len(modules):
                raise ValidationError("need one gram per degree")
            rebuilt = []
            for m, g in zip(modules, grams):
                if g is None:
                    rebuilt.append(m)
                    continue
                if isinstance(g, ModuleMorphism):
                    g = g.to_matrix()
                elif hasattr(g, "matrix"):
                    g = g.matrix
                rebuilt.append(
                    HilbertianModule(
                        m.algebra, m.multiplicities, basis_map=m.basis_map,
                        reference_gram=g,
                    )
                )
            modules = rebuilt

        self.algebra = alg
        self.modules = tuple(modules)
        self.convention = convention

        wrapped = []
        for i, f in enumerate(maps):
            lo, hi = modules[i], modules[i + 1]
            src, tgt = (hi, lo) if convention == CHAIN else (lo, hi)
            if isinstance(f, ModuleMorphism):
                if not (_same_coordinates(f.source, src) and _same_coordinates(f.target, tgt)):
                    raise ValidationError(f"map {i} does not connect degrees {i} and {i + 1}")
                f = ModuleMorphism(src, tgt, [b.copy() for b in f.blocks])
            else:
                f = ModuleMorphism.from_matrix(src, tgt, f)
            wrapped.append(f)
        self.maps = tuple(wrapped)

        if validate:
            resid = self.boundary_residual()
            if resid > tol:
                raise ValidationError(
                    f"consecutive maps do not compose to zero (residual {resid:.2e})"
                )

    # -- shape ---------------------------------------------------------------

    def __len__(self):
        return len(self.modules)

    @property
    def degrees(self):
        return range(len(self.modules))

    def outgoing(self, i: int):
        """The map out of degree i, or None at the end of the complex."""
        if self.convention == CHAIN:
            return self.maps[i - 1] if i >= 1 else None
        return self.maps[i] if i < len(self.maps) else None

    def incoming(self, i: int):
        """The map into degree i, or None."""
        if self.convention == CHAIN:
            return self.maps[i] if i < len(self.maps) else None
        return self.maps[i - 1] if i >= 1 else None

    def boundary_residual(self) -> float:
        worst = 0.0
        for i in range(len(self.maps) - 1):
            a, b = self.maps[i], self.maps[i + 1]
            comp = a @ b if self.convention == CHAIN else b @ a
            scale = max(a.norm() * b.norm(), 1.0)
            worst = max(worst, comp.norm() / scale)
        return worst

    def euler_characteristic(self) -> float:
        return float(
            sum((-1) ** i * von_neumann_dimension(m) for i, m in enumerate(self.modules))
        )


@dataclass
class ComplexValidationReport:
    boundary_residual: float
    action_residual: float
    grams_admissible: tuple
    valid: bool


def validate_complex(complex_, seed: int = 0) -> ComplexValidationReport:
    """Report-style health check: composition residual, A-linearity of the
    maps, admissibility of the per-degree products."""
    rng = np.random.default_rng(seed)
    boundary = complex_.boundary_residual()

    action = 0.0
    x = complex_.algebra.random_element(rng)
    for f in complex_.maps:
        mat = f.to_matrix()
        left = f.source.action(x)
        right = f.target.action(x)
        scale = max(operator_norm(mat) * x.norm(), 1.0)
        action = max(action, operator_norm(right @ mat - mat @ left) / scale)

    grams_ok = []
    for m in complex_.modules:
        g = m.reference_gram.matrix
        herm = operator_norm(g - g.conj().T) <= 1e-10 * max(1.0, operator_norm(g))
        if m.carrier_dim:
            vals = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
            pos = bool(np.min(vals) > 1e-10 * max(1.0, np.max(np.abs(vals))))
        else:
            pos = True
        grams_ok.append(bool(herm and pos))

    valid = boundary <= BOUNDARY_TOL and action <= BOUNDARY_TOL and all(grams_ok)
    return ComplexValidationReport(boundary, action, tuple(grams_ok), valid)


# -- Hodge ---------------------------------------------------------------


@dataclass
class HodgeData:
    laplacians: tuple
    harmonic_modules: tuple
    harmonic_embeddings: tuple
    harmonic_projectors: tuple
    positive_densities: tuple
    betti: tuple
    kernel_tol: float

    def betti_number(self, i: int) -> float:
        return self.betti[i]


def _laplacian(complex_, i) -> CommutantOperator:
    mod = complex_.modules[i]
    out = complex_.outgoing(i)
    inc = complex_.incoming(i)
    total = CommutantOperator.zero(mod)
    if out is not None:
        total = total + (out.adjoint() @ out)
    if inc is not None:
        total = total + (inc @ inc.adjoint())
    return total


def hodge(complex_, kernel_tol: float = HODGE_KERNEL_TOL,
          gap_ratio: float = HODGE_GAP_RATIO) -> HodgeData:
    """Per-degree Laplacians, harmonic modules and positive spectral parts.

    The Laplacian is out*out + in in* for the chosen products.  Its kernel
    is the zero eigenvalue cluster below kernel_tol times the spectral norm;
    if the smallest positive eigenvalue sits within gap_ratio of the largest
    "zero" one, the kernel dimension is numerically ambiguous and the
    decomposition refuses.
    """
    laplacians = []
    h_modules = []
    h_embeddings = []
    h_projectors = []
    densities = []
    betti = []
    for i in complex_.degrees:
        mod = complex_.modules[i]
        delta = _laplacian(complex_, i)
        laplacians.append(delta)

        g = mod.reference_gram
        tilde = [
            w @ b @ wi
            for w, b, wi in zip(g.sqrt_blocks, delta.blocks, g.inv_sqrt_blocks)
        ]
        herm = [0.5 * (b + b.conj().T) for b in tilde]
        spectral_norm = max((operator_norm(b) for b in herm), default=0.0)
        cut = kernel_tol * max(spectral_norm, 1e-300)

        j_blocks = []
        counts = []
        val_chunks = []
        weight_chunks = []
        zero_top = 0.0
        pos_bottom = np.inf
        for (n, w), hb, wi in zip(mod.algebra.blocks, herm, g.inv_sqrt_blocks):
            if hb.size == 0:
                j_blocks.append(np.zeros((0, 0), dtype=complex))
                counts.append(0)
                continue
            vals, vecs = np.linalg.eigh(hb)
            zero = vals <= cut
            if np.any(zero):
                zero_top = max(zero_top, float(np.max(vals[zero])))
            if np.any(~zero):
                pos_bottom = min(pos_bottom, float(np.min(vals[~zero])))
            j_blocks.append(wi @ vecs[:, zero])
            counts.append(int(np.sum(zero)))
            val_chunks.append(vals[~zero])
            weight_chunks.append(np.full(int(np.sum(~zero)), w))
        if zero_top > 0.0 and np.isfinite(pos_bottom):
            if pos_bottom / zero_top < gap_ratio:
                raise IllConditionedKernel(
                    f"degree {i}: kernel gap ratio {pos_bottom / zero_top:.2f} "
                    f"is too small to trust the Betti number"
                )

        h_mod = HilbertianModule(mod.algebra, counts)
        embed = ModuleMorphism(h_mod, mod, j_blocks)
        proj_blocks = [
            j @ j.conj().T @ gb for j, gb in zip(j_blocks, g.blocks)
        ]
        h_modules.append(h_mod)
        h_embeddings.append(embed)
        h_projectors.append(CommutantOperator(mod, proj_blocks))
        if val_chunks:
            values = np.concatenate(val_chunks)
            weights = np.concatenate(weight_chunks)
            order = np.argsort(values)
            densities.append(SpectralDensity(values[order], weights[order]))
        else:
            densities.append(SpectralDensity(np.zeros(0), np.zeros(0)))
        betti.append(von_neumann_dimension(h_mod))
    return HodgeData(
        tuple(laplacians), tuple(h_modules), tuple(h_embeddings),
        tuple(h_projectors), tuple(densities), tuple(betti), kernel_tol,
    )


# -- determinant class -----------------------------------------------------


@dataclass
class DeterminantClassReport:
    per_degree: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.per_degree)


def determinant_class_check(complex_, hodge_data: HodgeData | None = None) -> DeterminantClassReport:
    """Per-degree convergence verdict for the log integral of Delta^+.

    Finite-dimensional spectra always converge; the report carries the
    margin (smallest positive eigenvalue and spectral mass at zero) so
    callers can see how close to degenerate the complex sits.
    """
    if hodge_data is None:
        hodge_data = hodge(complex_)
    reports = []
    for dens, b in zip(hodge_data.positive_densities, hodge_data.betti):
        smallest = float(dens.values[0]) if dens.values.size else np.inf
        reports.append(
            ConvergenceReport(
                "convergent",
                {"smallest_positive": smallest, "kernel_mass": float(b)},
            )
        )
    return DeterminantClassReport(tuple(reports))


# -- torsion isomorphism ---------------------------------------------------


def _positive_log_det(density: SpectralDensity) -> float:
    return density.log_moment()


def torsion_iso_via_laplacians(complex_, hodge_data: HodgeData | None = None) -> GradedDetLineElement:
    """The image of the chosen-gram element of det(C) in det(H_*), via the
    closed formula: degree i carries Det(Delta_i^+)^(i/2) for the chain
    convention and Det(Delta_i^+)^(-i/2) for the cochain convention, so the
    combined coordinate is prod Det(Delta_i^+)^((-1)^i i/2) respectively
    prod Det(Delta_i^+)^((-1)^(i+1) i/2)."""
    if hodge_data is None:
        hodge_data = hodge(complex_)
    check = determinant_class_check(complex_, hodge_data)
    if not check.passed:
        raise NotDeterminantClass("log integral of a Laplacian diverges")
    sign = 1.0 if complex_.convention == CHAIN else -1.0
    entries = []
    for i in complex_.degrees:
        log_det = _positive_log_det(hodge_data.positive_densities[i])
        coeff = float(np.exp(sign * 0.5 * i * log_det))
        entries.append((i, DetLineElement(hodge_data.harmonic_modules[i], coeff, "torsion_iso")))
    return graded_assemble(entries)


def _orthonormal_frame(module, block_frames):
    """Reference-orthonormalize the given per-block spanning frames."""
    g = module.reference_gram
    out = []
    counts = []
    for frame, gb in zip(block_frames, g.blocks):
        if frame.shape[1] == 0:
            out.append(frame.astype(complex))
            counts.append(0)
            continue
        on = gram_orthonormalize(frame, gb)
        out.append(on)
        counts.append(on.shape[1])
    sub = HilbertianModule(module.algebra, counts)
    embed = ModuleMorphism(sub, module, out)
    return sub, embed


def _coords_in_frame(embed, vectors_blocks):
    """Coordinates of given vectors in a reference-orthonormal frame."""
    g = embed.target.reference_gram
    return [
        j.conj().T @ gb @ v for j, gb, v in zip(embed.blocks, g.blocks, vectors_blocks)
    ]


def torsion_iso_via_exact_sequences(complex_, hodge_data: HodgeData | None = None) -> GradedDetLineElement:
    """Same isomorphism, computed by factoring each degree through
    0 -> Z_i -> C_i -> B_out -> 0 and 0 -> B_i -> Z_i -> H_i -> 0.

    Both factors reuse one orthonormal frame per boundary subspace, so the
    det(B) lines pair to exactly 1 and the per-degree coefficient is
    1/(kappa_i kappa'_i)."""
    if hodge_data is None:
        hodge_data = hodge(complex_)
    check = determinant_class_check(complex_, hodge_data)
    if not check.passed:
        raise NotDeterminantClass("log integral of a Laplacian diverges")

    n = len(complex_)
    # one frame per degree for the boundary subspace B_i = im(incoming map)
    boundary_frames = {}
    for i in complex_.degrees:
        inc = complex_.incoming(i)
        mod = complex_.modules[i]
        if inc is None:
            frames = [np.zeros((m, 0), dtype=complex) for m in mod.multiplicities]
        else:
            frames = [orthonormal_range(b) for b in inc.blocks]
        boundary_frames[i] = _orthonormal_frame(mod, frames)

    entries = []
    for i in complex_.degrees:
        mod = complex_.modules[i]
        out = complex_.outgoing(i)

        # cycles: kernel of the outgoing map (all of C_i at the end)
        if out is None:
            kernels = [np.eye(m, dtype=complex) for m in mod.multiplicities]
        else:
            kernels = [nullspace(b) for b in out.blocks]
        z_mod, z_embed = _orthonormal_frame(mod, kernels)

        # 0 -> Z_i -> C_i -> B(target) -> 0
        if out is None:
            kappa = 1.0
            target_frame = None
        else:
            b_mod, b_embed = boundary_frames[
                i - 1 if complex_.convention == CHAIN else i + 1
            ]
            core_blocks = _coords_in_frame(b_embed, out.blocks)
            corestricted = ModuleMorphism(mod, b_mod, core_blocks)
            kappa = exact_sequence_iso(
                z_embed, corestricted, reference_element(z_mod), reference_element(b_mod)
            ).coefficient

        # 0 -> B_i -> Z_i -> H_i -> 0
        b_mod_i, b_embed_i = boundary_frames[i]
        incl_blocks = _coords_in_frame(z_embed, b_embed_i.blocks)
        inclusion = ModuleMorphism(b_mod_i, z_mod, incl_blocks)
        h_embed = hodge_data.harmonic_embeddings[i]
        proj_blocks = _coords_in_frame(h_embed, z_embed.blocks)
        projection = ModuleMorphism(z_mod, hodge_data.harmonic_modules[i], proj_blocks)
        kappa_prime = exact_sequence_iso(
            inclusion, projection,
            reference_element(b_mod_i),
            reference_element(hodge_data.harmonic_modules[i]),
        ).coefficient

        coeff = 1.0 / (kappa * kappa_prime)
        entries.append((i, DetLineElement(hodge_data.harmonic_modules[i], coeff, "torsion_iso")))
    return graded_assemble(entries)


# -- zeta ------------------------------------------------------------------


@dataclass
class ZetaReport:
    convention: str
    grid: np.ndarray
    theta: tuple
    zeta_prime: tuple
    combined_prime: float
    normalization: float
    laplacian_product: float
    densities: tuple = field(repr=False, default=())

    def theta_value(self, degree: int, t: float) -> float:
        d = self.densities[degree]
        return float(np.sum(d.weights * np.exp(-t * d.values)))

    def zeta_value(self, degree: int, s: float, lam: float = 0.0) -> float:
        d = self.densities[degree]
        return float(np.sum(d.weights * (d.values + lam) ** (-s)))

    def zeta_prime_value(self, degree: int, lam: float = 0.0) -> float:
        """d/ds at s = 0 of the shifted zeta, in closed form."""
        d = self.densities[degree]
        return float(-np.sum(d.weights * np.log(d.values + lam)))

    def mellin_zeta(self, degree: int, s: float, lam: float = 0.0,
                    t_min: float = 1e-6, t_max: float = 50.0) -> float:
        """Direct quadrature of the Mellin integral against the theta
        function; a cross-check of the closed form, valid for s > 0 and
        lam + smallest positive eigenvalue > 0."""
        if s <= 0:
            raise ValidationError("the integral representation needs s > 0")

        def integrand(t):
            return t ** (s - 1.0) * np.exp(-lam * t) * self.theta_value(degree, t)

        import scipy.integrate

        value, _ = scipy.integrate.quad(integrand, t_min, t_max, limit=400)
        return float(value / math.gamma(s))


def zeta_suite(complex_, grid=None, hodge_data: HodgeData | None = None) -> ZetaReport:
    """Closed-form zeta data for the positive Laplacian spectra.

    zeta_j(s, lam) = sum w (lam_i + lam)^(-s); its s-derivative at 0 with
    lam -> 0 is -sum w log lam_i; degrees combine with weight (-1)^j j.  The
    normalization exp(zeta'/2) coincides with the cochain-exponent product
    of the positive determinants; both are computed and reported.
    """
    if hodge_data is None:
        hodge_data = hodge(complex_)
    if grid is None:
        grid = np.geomspace(1e-4, 10.0, 40)
    grid = np.asarray(grid, dtype=float)

    densities = hodge_data.positive_densities
    theta = []
    zeta_prime = []
    for d in densities:
        if d.values.size:
            theta.append(np.sum(d.weights[None, :] * np.exp(-grid[:, None] * d.values[None, :]), axis=1))
            zeta_prime.append(float(-np.sum(d.weights * np.log(d.values))))
        else:
            theta.append(np.zeros_like(grid))
            zeta_prime.append(0.0)

    combined = float(sum((-1) ** j * j * zp for j, zp in enumerate(zeta_prime)))
    normalization = float(np.exp(0.5 * combined))
    log_product = sum(
        (-1) ** (j + 1) * 0.5 * j * _positive_log_det(d) for j, d in enumerate(densities)
    )
    return ZetaReport(
        complex_.convention, grid, tuple(theta), tuple(zeta_prime),
        combined, normalization, float(np.exp(log_product)), tuple(densities),
    )
