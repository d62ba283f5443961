"""Chain and cochain complexes of Hilbertian modules.

A complex stores one module per degree plus the connecting maps; the
convention flag decides, through map_ends alone, whether maps[i] runs from
degree i+1 down to i (chain) or from degree i up to i+1 (cochain).  Each
degree module carries its scalar product as its reference gram, chosen
when the module was built, so every adjoint, Laplacian and determinant
downstream is taken with respect to it.

The torsion isomorphism between det(C) and det(H_*) is computed by two
deliberately independent routes: factorization through the exact sequences
0 -> Z -> C -> B -> 0 and 0 -> B -> Z -> H -> 0, and the closed Laplacian
formula prod Det(Delta_i^+)^(+-i/2).  Their agreement is a theorem; here it
is a test: the Laplacian route diagonalises each Delta (eigh), the
exact-sequence route takes the singular values of each map.  That route
takes one singular-value call per block shape of each map, in the
coordinates where the grams are the identity, and singular vectors only for
the blocks that are not square and invertible.  In those coordinates every
frame is orthonormal, so both sequences are measured by theorem, with no
exact-sequence core call: 0 -> Z -> C -> B -> 0 by the map's singular
values above its rank, and 0 -> B -> Z -> H -> 0, an isometric inclusion
followed by an orthogonal projection, has transition 1.  What the route
checks is that Hodge's harmonic frames complete its boundary frames to its
cycle frames, from products only as many rows high as the Betti count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .determinant import ConvergenceReport, SpectralDensity, _tilde_blocks, exp_of_log
from .errors import IllConditionedKernel, NotExact, ValidationError
from .lines import (
    EXACTNESS_TOL,
    DetLineElement,
    GradedDetLineElement,
    _inv_sqrt,
    _positive,
    graded_assemble,
)
from .modules import (
    BlockStacks,
    CommutantOperator,
    HilbertianModule,
    ModuleMorphism,
    _frames,
    gram_coordinates,
    range_and_kernel,
    von_neumann_dimension,
)

HODGE_KERNEL_TOL = 1e-10
HODGE_GAP_RATIO = 10.0
BOUNDARY_TOL = 1e-10
MELLIN_PANELS = 16
MELLIN_NODES = 24
MELLIN_T_MIN = 1e-6  # the Mellin integral is cut to [MELLIN_T_MIN, MELLIN_T_MAX]
MELLIN_T_MAX = 50.0

CHAIN = "chain"
COCHAIN = "cochain"


def map_ends(convention: str, i: int) -> tuple:
    """(source degree, target degree) of maps[i]: a chain map lowers the
    degree by one, a cochain map raises it."""
    return (i + 1, i) if convention == CHAIN else (i, i + 1)


class HilbertianChainComplex:
    """Finite complex 0 <- C_0 <- ... <- C_N <- 0 (chain) or its cochain
    mirror 0 -> C_0 -> ... -> C_N -> 0.

    maps[i] runs between the degrees map_ends(convention, i) names, as a
    morphism between modules with their coordinates (rebound to the
    degrees) or a carrier matrix.  The modules are taken as given, metric
    included: re-metrise a degree with module.with_reference_gram first.
    """

    def __init__(self, modules, maps, convention=CHAIN, validate=True):
        if convention not in (CHAIN, COCHAIN):
            raise ValidationError(f"unknown convention {convention!r}")
        modules = tuple(modules)
        maps = list(maps)
        if not modules:
            raise ValidationError("a complex needs at least one degree")
        if len(maps) != len(modules) - 1:
            raise ValidationError("need exactly one connecting map per adjacent pair")
        alg = modules[0].algebra
        for m in modules:
            if m.algebra != alg:
                raise ValidationError("all degrees must share one algebra")

        self.algebra = alg
        self.modules = modules
        self.convention = convention

        wrapped = []
        self._out, self._in = {}, {}  # degree -> the map out of / into it
        for i, f in enumerate(maps):
            s, t = self.ends(i)
            src, tgt = modules[s], modules[t]
            if isinstance(f, ModuleMorphism):
                if not (f.source.same_coordinates(src) and f.target.same_coordinates(tgt)):
                    raise ValidationError(f"map {i} does not connect degrees {i} and {i + 1}")
                f = ModuleMorphism._of(src, tgt, f.stacked)
            else:
                f = ModuleMorphism.from_matrix(src, tgt, f)
            wrapped.append(f)
            self._out[s] = self._in[t] = f
        self.maps = tuple(wrapped)

        if validate:
            resid = self.boundary_residual()
            if resid > BOUNDARY_TOL:
                raise ValidationError(
                    f"consecutive maps do not compose to zero (residual {resid:.2e})"
                )

    # -- shape ---------------------------------------------------------------

    def __len__(self):
        return len(self.modules)

    @property
    def degrees(self):
        return range(len(self.modules))

    def ends(self, i: int) -> tuple:
        """(source degree, target degree) of maps[i]."""
        return map_ends(self.convention, i)

    def outgoing(self, i: int):
        """The map out of degree i, or None at the end of the complex."""
        return self._out.get(i)

    def incoming(self, i: int):
        """The map into degree i, or None."""
        return self._in.get(i)

    def boundary_residual(self) -> float:
        """Largest ||out in|| / max(||out|| ||in||, 1) over the interior
        degrees, for the maps out of and into each; each norm takes one
        singular-value call per block shape.  A complex with fewer than two
        maps has no composite, and takes no norm.  A composite or norm past
        the float range (inf, or nan from inf - inf) reads inf: it is no
        evidence that the maps compose to zero."""
        worst = 0.0
        if len(self.maps) < 2:
            return worst
        with np.errstate(over="ignore", invalid="ignore"):
            norms = {id(f): f.norm() for f in self.maps}
            for d in self.degrees[1:-1]:
                out, inc = self.outgoing(d), self.incoming(d)
                comp, a, b = (out @ inc).norm(), norms[id(out)], norms[id(inc)]
                if not np.isfinite([comp, a, b]).all():
                    return math.inf
                scale = a * b
                if math.isinf(scale):  # two finite norms whose product overflows
                    worst = max(worst, comp / a / b)
                else:
                    worst = max(worst, comp / max(scale, 1.0))
        return worst

    def euler_characteristic(self) -> float:
        return float(
            sum((-1) ** i * von_neumann_dimension(m) for i, m in enumerate(self.modules))
        )


@dataclass
class ComplexValidationReport:
    boundary_residual: float
    valid: bool


def validate_complex(complex_) -> ComplexValidationReport:
    """Report-style health check: the composition residual.  The maps are
    stored as blocks 1 (x) F_k, which commute with the action x_k (x) 1 by
    construction, so A-linearity needs no check, and each degree's gram
    passed resolve_gram when its module was built."""
    boundary = complex_.boundary_residual()
    return ComplexValidationReport(boundary, boundary <= BOUNDARY_TOL)


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


def _laplacian(complex_, i) -> CommutantOperator:
    """out* out + in in*, one product per block shape for each term; the sum
    starts from zero, as a sum of operators does."""
    mod = complex_.modules[i]
    out = complex_.outgoing(i)
    inc = complex_.incoming(i)
    total = CommutantOperator.zero(mod)
    if out is not None:
        total = total + (out.adjoint() @ out)
    if inc is not None:
        total = total + (inc @ inc.adjoint())
    return total


def hodge(complex_, kernel_tol: float = HODGE_KERNEL_TOL) -> HodgeData:
    """Per-degree Laplacians, harmonic modules and positive spectral parts.

    The Laplacian is out*out + in in* for the chosen products.  Its kernel
    is the zero eigenvalue cluster below kernel_tol times the spectral norm
    (the largest |eigenvalue| of the Hermitian blocks); if the smallest
    positive eigenvalue sits within HODGE_GAP_RATIO of the largest "zero" one, the
    kernel dimension is numerically ambiguous and the decomposition refuses.
    A kernel_tol outside (0, 1), nan included, is a ValidationError, and so
    is a Laplacian with an entry past the float range.

    The work is per block shape: one eigh call per stored stack of the
    Laplacian, and the cut, the gap and the kernel counts are array
    operations over each stack.  eigh sorts ascending, so a block's kernel
    frame is its leading count eigenvectors; the frames are gathered per
    (shape, count) from the eigenvector stacks.
    """
    if not 0.0 < kernel_tol < 1.0:
        raise ValidationError(f"kernel_tol must lie in (0, 1), got {kernel_tol!r}")
    laplacians = []
    h_modules = []
    h_embeddings = []
    h_projectors = []
    densities = []
    betti = []
    for i in complex_.degrees:
        mod = complex_.modules[i]
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
            delta = _laplacian(complex_, i)
            tilde = _tilde_blocks(mod, delta)
        if not all(np.isfinite(s).all() for s in tilde.stacks):
            raise ValidationError(f"degree {i}: the Laplacian is past the float range")
        laplacians.append(delta)

        g = mod.reference_gram
        eighs = [
            (idx, *np.linalg.eigh(0.5 * (s + s.conj().swapaxes(1, 2))))
            for idx, s in zip(tilde.layout.index, tilde.stacks)
        ]
        spectral_norm = max(
            (float(np.max(np.abs(vals), initial=0.0)) for _, vals, _ in eighs), default=0.0
        )
        cut = kernel_tol * max(spectral_norm, 1e-300)

        counts = np.zeros(len(mod.multiplicities), dtype=int)
        zero_top = 0.0
        positive = []  # (blocks, positive eigenvalues) per stack
        for idx, vals, _ in eighs:
            zero = vals <= cut
            counts[idx] = np.sum(zero, axis=1)
            zero_top = max(zero_top, float(vals[zero].max(initial=0.0)))
            positive.append((np.repeat(idx, np.sum(~zero, axis=1)), vals[~zero]))
        density = SpectralDensity.from_parts(mod.algebra.weights, positive)
        if zero_top > 0.0 and density.values.size:
            if density.values[0] / zero_top < HODGE_GAP_RATIO:
                raise IllConditionedKernel(
                    f"degree {i}: kernel gap ratio {density.values[0] / zero_top:.2f} "
                    f"is too small to trust the Betti number"
                )

        h_mod = HilbertianModule(mod.algebra, counts)
        vecs = [(idx, v) for idx, _, v in eighs]
        frames = _frames(mod.multiplicities, vecs, np.zeros_like(counts), counts)
        if g.is_identity:
            proj = frames @ frames.H
        else:
            frames = g.inv_sqrt @ frames
            proj = (frames @ frames.H) @ g.stacked
        h_modules.append(h_mod)
        h_embeddings.append(ModuleMorphism._of(h_mod, mod, frames))
        h_projectors.append(CommutantOperator._of(mod, mod, proj))
        densities.append(density)
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


def torsion_iso_via_laplacians(complex_, hodge_data: HodgeData | None = None) -> GradedDetLineElement:
    """The image of the chosen-gram element of det(C) in det(H_*), via the
    closed formula: degree i carries Det(Delta_i^+)^(i/2) for the chain
    convention and Det(Delta_i^+)^(-i/2) for the cochain convention, so the
    combined coordinate is prod Det(Delta_i^+)^((-1)^i i/2) respectively
    prod Det(Delta_i^+)^((-1)^(i+1) i/2)."""
    if hodge_data is None:
        hodge_data = hodge(complex_)
    sign = 1.0 if complex_.convention == CHAIN else -1.0
    entries = []
    for i in complex_.degrees:
        log_det = hodge_data.positive_densities[i].log_moment()
        coeff = exp_of_log(sign * 0.5 * i * log_det)
        entries.append((i, DetLineElement(hodge_data.harmonic_modules[i], coeff, "torsion_iso")))
    return graded_assemble(entries)


def torsion_iso_via_exact_sequences(complex_, hodge_data: HodgeData | None = None) -> GradedDetLineElement:
    """Same isomorphism, computed by factoring each degree through
    0 -> Z_i -> C_i -> B_out -> 0 and 0 -> B_i -> Z_i -> H_i -> 0.

    Every frame is kept in the coordinates where its degree's gram is the
    identity: each map is taken once as d~ = G_t^(1/2) d G_s^(-1/2)
    (modules.gram_coordinates), and range_and_kernel gives d~'s singular
    values and the frames it bounds, one singular-value call per block
    shape and a full SVD only for the blocks that are not square and
    invertible.  Ranks are cut at RANK_RTOL times the complex's largest
    singular value, the square root of the largest positive Laplacian
    eigenvalue (the spectrum of Delta_i is that of d* d and d d* for its
    two maps), so no SVD is added for it: a map that is small next to 1
    keeps its rank, as in Hodge, and a block that is zero up to rounding
    next to the rest of the complex has none.  The leading left singular
    vectors U_r span the boundaries B of the target, the trailing right
    ones V_0 the cycles Z of the source; a square invertible block bounds
    its whole target (the identity frame) and has no cycles.  In these
    coordinates the frames are orthonormal as they come, a degree with no
    outgoing map has the identity as its cycle frame, and one with no
    incoming map bounds nothing.

    Both sequences are measured by theorem (d* d and d d* share their
    positive spectrum; Lück, L2-Invariants, Lemma 3.30).  The Z sequence:
    alpha = V_0 is an isometry and beta = U_r^H d~ has the singular values
    of d~ above its rank, with beta alpha = 0, so kappa_i = exp(-sum_k w_k
    sum_{j < r_k} log s_j(d~_k)).  The B sequence: B lies in Z because
    d_out d_in = 0, and with H~ = G^(1/2) H, Hodge's harmonic frame in the
    same coordinates, B~ -> Z~ is an isometry and Z~ -> H~ the orthogonal
    projection, so its transition is P_B + P_H = 1 on Z and kappa'_i = 1.
    Both factors reuse one orthonormal frame per boundary subspace, so the
    det(B) lines pair to exactly 1 and the per-degree coefficient is
    1/kappa_i.  What is checked, degree by degree, is that the SVD frames
    and Hodge's agree (_check_homology).
    """
    if hodge_data is None:
        hodge_data = hodge(complex_)

    weights = np.asarray(complex_.algebra.weights)
    tops = [float(d.values[-1]) for d in hodge_data.positive_densities if d.values.size]
    scale = math.sqrt(max(tops, default=0.0))  # the complex's largest singular value
    n = len(complex_.modules)
    ranges, kernels, log_kappas = [None] * n, [None] * n, [0.0] * n
    for i, f in enumerate(complex_.maps):
        src, tgt = complex_.ends(i)
        tilde = gram_coordinates(f.stacked, f.source, f.target)
        ranges[tgt], kernels[src], logs = range_and_kernel(tilde, scale)
        log_kappas[src] = float(weights @ logs)
    # a degree with no incoming map bounds nothing; with no outgoing map,
    # every chain is a cycle
    for i, mod in enumerate(complex_.modules):
        mult = mod.multiplicities
        if ranges[i] is None:
            ranges[i] = BlockStacks.zeros(mult, (0,) * len(mult))
        if kernels[i] is None:
            kernels[i] = BlockStacks.identity(mult)

    for i, h in enumerate(hodge_data.harmonic_embeddings):
        _check_homology(gram_coordinates(h.stacked, h.source, h.target).H, kernels[i], ranges[i])
    entries = []
    for i, (h_mod, log_kappa) in enumerate(zip(hodge_data.harmonic_modules, log_kappas)):
        kappa = _positive(_inv_sqrt(2.0 * log_kappa))
        entries.append((i, DetLineElement(h_mod, 1.0 / kappa, "torsion_iso")))
    return graded_assemble(entries)


def _frobenius(x: BlockStacks) -> np.ndarray:
    """The Frobenius norm of each block."""
    out = np.zeros(len(x.layout.rows))
    for idx, s in x.nonempty():
        out[idx] = np.linalg.norm(s, axis=(1, 2))
    return out


def _check_homology(harmonic_h: BlockStacks, cycles: BlockStacks, bounds: BlockStacks):
    """NotExact unless 0 -> B -> Z -> H -> 0 is exact in every block, for
    orthonormal frames: harmonic_h = H~^H, cycles = Z~ and bounds = B~.

    beta = H~^H Z~ must be a co-isometry, ||beta beta^H - 1||_F <=
    EXACTNESS_TOL (H lies in Z), H~^H B~ must vanish to the same tolerance
    (H is orthogonal to B), and cols(Z) = cols(B) + h with h = rows(H~^H),
    the Betti count: then Z = B + H.  Every product is h rows high, so a
    block without homology takes only the count.  The first failing block
    is reported with its first failing check.
    """
    tol = EXACTNESS_TOL
    beta = harmonic_h @ cycles
    h = beta.layout.rows
    checks = [
        (
            ~(_frobenius(beta @ beta.H - BlockStacks.identity(h)) <= tol),
            "second map fails to be surjective in block {k}",
        ),
        (~(_frobenius(harmonic_h @ bounds) <= tol), "composite is nonzero in block {k}"),
        (
            np.array(cycles.layout.cols) != np.array(bounds.layout.cols) + np.array(h),
            "rank mismatch in block {k}: middle homology is nonzero",
        ),
    ]
    failed = np.logical_or.reduce([fails for fails, _ in checks])
    if failed.any():
        k = int(np.argmax(failed))
        raise NotExact(next(message for fails, message in checks if fails[k]).format(k=k))


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

    def mellin_zeta(self, degree: int, s: float, lam: float = 0.0) -> float:
        """Direct quadrature of the Mellin integral against the theta
        function; a cross-check of the closed form, valid for s > 0 and
        lam + smallest positive eigenvalue > 0.  Composite Gauss-Legendre
        in u = log t, where t^s e^(-lam t) theta(t) is smooth."""
        if s <= 0:
            raise ValidationError("the integral representation needs s > 0")
        from ._mahler import _gauss_legendre

        x, w = _gauss_legendre(MELLIN_NODES)
        edges = np.linspace(math.log(MELLIN_T_MIN), math.log(MELLIN_T_MAX), MELLIN_PANELS + 1)
        half = 0.5 * np.diff(edges)[:, None]
        t = np.exp(0.5 * (edges[:-1] + edges[1:])[:, None] + half * x).ravel()
        d = self.densities[degree]
        theta = np.exp(-t[:, None] * d.values[None, :]) @ d.weights
        value = np.sum((half * w).ravel() * t**s * np.exp(-lam * t) * theta)
        return float(value / math.gamma(s))


def zeta_suite(complex_, hodge_data: HodgeData | None = None) -> ZetaReport:
    """Closed-form zeta data for the positive Laplacian spectra.

    zeta_j(s, lam) = sum w (lam_i + lam)^(-s); its s-derivative at 0 with
    lam -> 0 is -sum w log lam_i; degrees combine with weight (-1)^j j.  The
    normalization exp(zeta'/2) coincides with the cochain-exponent product
    of the positive determinants; both are computed and reported.  theta is
    sampled at 40 log-spaced times from 1e-4 to 10.
    """
    if hodge_data is None:
        hodge_data = hodge(complex_)
    grid = np.geomspace(1e-4, 10.0, 40)

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
    normalization = exp_of_log(0.5 * combined)
    log_product = sum(
        (-1) ** (j + 1) * 0.5 * j * d.log_moment() for j, d in enumerate(densities)
    )
    return ZetaReport(
        complex_.convention, grid, tuple(theta), tuple(zeta_prime),
        combined, normalization, exp_of_log(log_product), tuple(densities),
    )
