"""Chain and cochain complexes of Hilbertian modules.

A complex stores one module per degree plus the connecting maps; the
convention flag decides, through map_ends alone, whether maps[i] runs from
degree i+1 down to i (chain) or from degree i up to i+1 (cochain).  Each
degree module carries its scalar product as its reference gram, chosen
when the module was built, so every adjoint, Laplacian and determinant
downstream is taken with respect to it.

Hodge reads every datum from one singular-value pass per map, taken in the
coordinates where the grams are the identity: the positive spectrum of
Delta_i is the sigma^2 of the two maps at degree i (Lück, L2-Invariants,
Lemma 3.30).  One cut on the singular values of all maps decides every
rank once per complex; the Betti counts, the densities and both routes
read it.  The harmonic frames come from the same maps, and only in the
blocks with homology: the trailing left singular vectors of [d~_out^H |
d~_in], which span the kernel of Delta~_i, orthonormal and orthogonal to
both maps by construction.  No Laplacian is formed or diagonalised there.

The torsion isomorphism between det(C) and det(H_*) is computed by two
deliberately independent routes: factorization through the exact sequences
0 -> Z -> C -> B -> 0 and 0 -> B -> Z -> H -> 0, and the closed Laplacian
formula prod Det(Delta_i^+)^(+-i/2).  Their agreement is a theorem; here it
is a test of their values: the Laplacian route diagonalises each Delta_i
with i >= 1 (eigh of Hermitian stacks built from the maps of Hodge's pass;
degree 0 enters with exponent 0) and keeps as many eigenvalues per block
as Hodge's ranks count; the exact-sequence route reads Hodge's ranks and
log singular values.  In those coordinates the SVD frames are orthonormal,
so both sequences are measured by theorem, with no exact-sequence core
call: 0 -> Z -> C -> B -> 0 by the map's singular values above its rank,
and 0 -> B -> Z -> H -> 0, an isometric inclusion followed by an
orthogonal projection, has transition 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import key_groups
from .determinant import ConvergenceReport, SpectralDensity, exp_of_log
from .errors import IllConditionedKernel, ValidationError
from .lines import (
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
    """The Hodge decomposition of a complex, read from one singular-value
    pass per map, with one rank decision for the whole complex.

    passes[j] is (d~, values) for maps[j]: its blocks in the coordinates
    where the grams are the identity (modules.gram_coordinates) and their
    singular values per stack (BlockStacks.singular_value_stacks).  cut is
    the complex's one singular-value cut, sqrt(kernel_tol) times the largest
    singular value of any map; ranks[j] counts, per block, the singular
    values of maps[j] above it, and logs[j] sums their logs.  Degree i's
    Betti counts are its multiplicities less the ranks of its two maps.
    harmonic_embeddings[i] maps the harmonic module of degree i into the
    degree by frames orthonormal for its gram."""

    passes: tuple = field(repr=False)
    ranks: tuple = field(repr=False)
    logs: tuple = field(repr=False)
    cut: float
    harmonic_modules: tuple
    harmonic_embeddings: tuple
    betti: tuple
    kernel_tol: float

    @functools.cached_property
    def positive_densities(self) -> tuple:
        """The positive spectrum of each degree's Laplacian, built on first
        read: the sigma^2 of its two maps that the ranks count, each with
        its block's trace weight, the lower map first.  ValidationError for
        a sigma^2 past the float range."""
        out = []
        for i, h in enumerate(self.harmonic_modules):
            parts, maps = [], slice(max(i - 1, 0), i + 1)  # maps[i - 1] and maps[i] meet at i
            for (_, values), rank in zip(self.passes[maps], self.ranks[maps]):
                for idx, sv in values:
                    kept = sv[np.arange(sv.shape[1]) < rank[idx][:, None]]
                    with np.errstate(over="ignore"):  # refused below, not warned
                        parts.append((np.repeat(idx, rank[idx]), kept * kept))
            if not all(np.isfinite(sq).all() for _, sq in parts):
                raise ValidationError(f"degree {i}: the Laplacian is past the float range")
            out.append(SpectralDensity.from_parts(h.algebra.weights, parts))
        return tuple(out)

    @functools.cached_property
    def harmonic_projectors(self) -> tuple:
        """The orthogonal projection onto each degree's harmonic module,
        H H^* = H H^H G for the embedding H and the degree's gram G, built
        on first read."""
        out = []
        for h in self.harmonic_embeddings:
            frames, g = h.stacked, h.target.reference_gram
            proj = frames @ frames.H if g.is_identity else (frames @ frames.H) @ g.stacked
            out.append(CommutantOperator._of(h.target, h.target, proj))
        return tuple(out)


def _singular_value_pass(complex_, j) -> tuple:
    """(d~, values) of maps[j]: its blocks in gram coordinates and their
    singular values per stack, kept with d~; under identity grams d~ is the
    map's own stacks, whose values the relation check took.  A block entry
    or a singular value past the float range is refused; a sigma^2 past it
    is refused only where it is formed (the densities, the Laplacian
    route)."""
    f = complex_.maps[j]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        tilde = gram_coordinates(f.stacked, f.source, f.target)
        finite = all(np.isfinite(s).all() for s in tilde.stacks)
        values = tilde.singular_value_stacks() if finite else ()
        finite = finite and all(np.isfinite(sv[:, 0]).all() for _, sv in values)
    if not finite:
        raise ValidationError(f"map {j}: a singular value is past the float range")
    return tilde, values


def _ends(complex_, passes) -> tuple:
    """(outs, ins): degree -> d~ of the map out of / into it, from the
    pass."""
    outs, ins = {}, {}
    for j, (tilde, _) in enumerate(passes):
        s, t = complex_.ends(j)
        outs[s] = ins[t] = tilde
    return outs, ins


def hodge(complex_, kernel_tol: float = HODGE_KERNEL_TOL) -> HodgeData:
    """Per-degree Betti numbers, harmonic modules and positive spectral
    parts, from one singular-value pass per map.

    The positive spectrum of Delta_i = out*out + in in* is the sigma^2 of
    its two maps (Lück, L2-Invariants, Lemma 3.30), each map taken once in
    the coordinates where the grams are the identity, with one
    svd(compute_uv=False) per block shape.  Every rank is decided once per
    complex: a singular value counts above sqrt(kernel_tol) times the
    largest of any map, so each kept sigma^2 is above kernel_tol times
    every Laplacian's norm scale, where eigh resolves it.  A block's Betti
    count is its multiplicity less the ranks of both maps at it.  If the
    smallest sigma^2 above the cut sits within HODGE_GAP_RATIO of the
    largest one below it, the counts are numerically ambiguous and the
    decomposition refuses (IllConditionedKernel), naming the map of the
    latter.  A kernel_tol outside (0, 1), nan included, is a
    ValidationError, and so is an entry or a singular value past the float
    range, or maps whose ranks exceed the degree they meet at (they do not
    compose to zero).

    Harmonic frames come from the same maps, only in the blocks with
    homology (_harmonic_frames): the trailing left singular vectors of
    [d~_out^H | d~_in], orthonormal and orthogonal to both maps by
    construction.  No Laplacian is formed or diagonalised, and the
    densities are built on first read.
    """
    if not 0.0 < kernel_tol < 1.0:
        raise ValidationError(f"kernel_tol must lie in (0, 1), got {kernel_tol!r}")
    passes = tuple(_singular_value_pass(complex_, j) for j in range(len(complex_.maps)))
    top = max((tilde.norm() for tilde, _ in passes), default=0.0)
    rtol = math.sqrt(kernel_tol)
    cut = rtol * top
    ranks, logs, counts = [], [], [np.array(m.multiplicities) for m in complex_.modules]
    low, zero, zero_map = math.inf, 0.0, None
    for j, (tilde, values) in enumerate(passes):
        _, lows, rank, log = tilde.singular_values(rtol, top)
        ranks.append(rank)
        logs.append(log)
        for end in complex_.ends(j):
            counts[end] = counts[end] - rank
        low = min(low, float(lows.min(initial=math.inf)))
        dropped = max((float(np.max(sv, where=sv <= cut, initial=0.0)) for _, sv in values), default=0.0)
        if dropped > zero:
            zero, zero_map = dropped, j
    if zero > 0.0 and low / zero < math.sqrt(HODGE_GAP_RATIO):
        raise IllConditionedKernel(
            f"map {zero_map}: kernel gap ratio {(low / zero) ** 2:.2f} "
            f"is too small to trust the Betti numbers"
        )
    outs, ins = _ends(complex_, passes)
    h_modules, h_embeddings, betti = [], [], []
    for i, (mod, count) in enumerate(zip(complex_.modules, counts)):
        if np.any(count < 0):
            raise ValidationError(
                f"degree {i}: the maps at it have more rank than it has dimension; "
                f"they do not compose to zero"
            )
        h_mod = HilbertianModule(mod.algebra, count)
        frames = _harmonic_frames(mod, outs.get(i), ins.get(i), count)
        h_modules.append(h_mod)
        h_embeddings.append(ModuleMorphism._of(h_mod, mod, frames))
        betti.append(von_neumann_dimension(h_mod))
    return HodgeData(
        passes, tuple(ranks), tuple(logs), cut,
        tuple(h_modules), tuple(h_embeddings), tuple(betti), kernel_tol,
    )


def _harmonic_frames(mod, out, inc, counts) -> BlockStacks:
    """Degree i's harmonic frames, in the module's coordinates, for the maps
    d~_out = out and d~_in = inc at it (None where missing): in block k the
    trailing counts[k] left singular vectors of M_k = [d~_out,k^H |
    d~_in,k], whose span is ker d~_out,k and the complement of im d~_in,k,
    and G^(-1/2) applied for a gram that is not the identity.  One svd with
    vectors per stack of blocks with homology that share the shapes of both
    maps, none in the other blocks; the full U only where M_k has fewer
    columns than rows."""
    mult = mod.multiplicities
    if not counts.any():
        return BlockStacks.zeros(mult, (0,) * len(mult))
    # (stacks, adjoint) of each map; its other end sizes the columns of M_k
    maps = [(x, adjoint) for x, adjoint in ((out, True), (inc, False)) if x is not None]
    widths = [x.layout.rows if adjoint else x.layout.cols for x, adjoint in maps]
    parts = []
    for idx in key_groups(zip(mult, counts > 0, *widths)):
        idx, m = np.array(idx), mult[idx[0]]
        if not counts[idx[0]]:  # no column in the blocks without homology
            parts.append((idx, np.zeros((len(idx), m, 0), dtype=complex)))
            continue
        pieces = [np.zeros((len(idx), m, 0), dtype=complex)]  # M_k of no map
        for x, adjoint in maps:
            g, sel = x.layout.locate(idx)
            s = x.stacks[g] if sel is None else x.stacks[g][sel]
            pieces.append(s.conj().swapaxes(1, 2) if adjoint else s)
        a = np.concatenate(pieces, axis=2)
        parts.append((idx, np.linalg.svd(a, full_matrices=a.shape[2] < m)[0]))
    frames = _frames(mult, parts, np.array(mult) - counts, counts)
    g = mod.reference_gram
    return frames if g.is_identity else g.inv_sqrt @ frames


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
    margin (the smallest positive eigenvalue, that is the smallest sigma^2
    of the degree's two maps that Hodge's ranks count, and the spectral
    mass at zero) so callers can see how close to degenerate the complex
    sits.  A sigma^2 past the float range is a ValidationError.
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


def _hermitian_stacks(mult, out, inc, i) -> list:
    """(block indices, stack) of the Hermitian part of Delta~_i = d~_out^H
    d~_out + d~_in d~_in^H, the Laplacian of degree i (multiplicities mult)
    in the coordinates where the grams are the identity, for each stack,
    from the maps d~_out = out and d~_in = inc of Hodge's pass (None where
    missing); ValidationError for an entry past the float range.  The sum
    starts from zero and adds the out term first, as the sum of operators
    out* out + in in* does, so under identity grams every stack equals that
    of Delta_i bit for bit; under other grams it is the same operator,
    G^(1/2) Delta_i G^(-1/2), rounded otherwise."""
    total = BlockStacks.zeros(mult, mult)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        if out is not None:
            total = total + out.H @ out
        if inc is not None:
            total = total + inc @ inc.H
    if not all(np.isfinite(s).all() for s in total.stacks):
        raise ValidationError(f"degree {i}: the Laplacian is past the float range")
    return [
        (idx, 0.5 * (s + s.conj().swapaxes(1, 2)))
        for idx, s in zip(total.layout.index, total.stacks)
    ]


def torsion_iso_via_laplacians(complex_, hodge_data: HodgeData | None = None) -> GradedDetLineElement:
    """The image of the chosen-gram element of det(C) in det(H_*), via the
    closed formula: degree i carries Det(Delta_i^+)^(i/2) for the chain
    convention and Det(Delta_i^+)^(-i/2) for the cochain convention, so the
    combined coordinate is prod Det(Delta_i^+)^((-1)^i i/2) respectively
    prod Det(Delta_i^+)^((-1)^(i+1) i/2).

    Degree 0 enters with exponent 0 and carries 1.  Each Delta_i with i >= 1
    is diagonalised, independently of the singular values Hodge reads: its
    Hermitian stacks are built from the maps of Hodge's pass
    (_hermitian_stacks), one eigh per stack.  Which directions are homology
    is Hodge's decision, not the eigenvalues': in each block the largest
    mult_k - h_k eigenvalues are kept, h_k the block's Betti count."""
    if hodge_data is None:
        hodge_data = hodge(complex_)
    sign = 1.0 if complex_.convention == CHAIN else -1.0
    outs, ins = _ends(complex_, hodge_data.passes)
    entries = [(0, DetLineElement(hodge_data.harmonic_modules[0], 1.0, "torsion_iso"))]
    for i in complex_.degrees[1:]:
        # eigh, not eigvalsh: the two LAPACK drivers round differently, and
        # with eigvalsh the cellular-torsion benchmark's max_log_err doubles
        # (1.2e-13 to 2.5e-13), an error of its oracle (ROADMAP item 18).
        # Item 19 removes this eigh once that oracle is exact.
        mult = complex_.modules[i].multiplicities
        h = np.array(hodge_data.harmonic_modules[i].multiplicities)
        positive = []
        for idx, s in _hermitian_stacks(mult, outs.get(i), ins.get(i), i):
            vals = np.linalg.eigh(s)[0]  # ascending: the h_k smallest are harmonic
            kept = np.arange(vals.shape[1]) >= h[idx][:, None]
            positive.append((np.repeat(idx, vals.shape[1] - h[idx]), vals[kept]))
        log_det = SpectralDensity.from_parts(complex_.algebra.weights, positive).log_moment()
        coeff = exp_of_log(sign * 0.5 * i * log_det)
        entries.append((i, DetLineElement(hodge_data.harmonic_modules[i], coeff, "torsion_iso")))
    return graded_assemble(entries)


def torsion_iso_via_exact_sequences(complex_, hodge_data: HodgeData | None = None) -> GradedDetLineElement:
    """Same isomorphism, computed by factoring each degree through
    0 -> Z_i -> C_i -> B_out -> 0 and 0 -> B_i -> Z_i -> H_i -> 0.

    Everything is taken in the coordinates where its degree's gram is the
    identity: each map as Hodge's pass holds it, d~ = G_t^(1/2) d
    G_s^(-1/2) (modules.gram_coordinates) with its singular values.  Hodge
    gives each block's rank and its log singular values over it, with no
    second SVD and no singular vectors, from its one cut against the
    complex's largest singular value: a map that is small next to 1 keeps
    its rank, and a block that is zero up to rounding next to the rest of
    the complex has none.

    Both sequences are measured by theorem (d* d and d d* share their
    positive spectrum; Lück, L2-Invariants, Lemma 3.30).  In these
    coordinates the frames of Z (trailing right singular vectors) and B
    (leading left ones) are orthonormal, so the Z sequence has alpha = V_0
    an isometry and beta = U_r^H d~ with the singular values of d~ above
    its rank: kappa_i = exp(-sum_k w_k sum_{j < r_k} log s_j(d~_k)).  The B
    sequence, an isometric inclusion followed by the orthogonal projection
    onto H, has transition P_B + P_H = 1 on Z, so kappa'_i = 1.  Both
    factors reuse one orthonormal frame per boundary subspace, so the
    det(B) lines pair to exactly 1 and the per-degree coefficient is
    1/kappa_i.

    Hodge's harmonic frames are the trailing left singular vectors of
    [d~_out^H | d~_in], orthonormal and orthogonal to both maps by
    construction, and no value here reads them.  Nothing is checked:
    cols(Z) = cols(B) + h in every block holds by construction, because
    Hodge counts h from the same ranks.
    """
    if hodge_data is None:
        hodge_data = hodge(complex_)

    weights = np.asarray(complex_.algebra.weights)
    log_kappas = [0.0] * len(complex_.modules)
    for j, logs in enumerate(hodge_data.logs):
        log_kappas[complex_.ends(j)[0]] = float(weights @ logs)
    entries = []
    for i, (h_mod, log_kappa) in enumerate(zip(hodge_data.harmonic_modules, log_kappas)):
        kappa = _positive(_inv_sqrt(2.0 * log_kappa))
        entries.append((i, DetLineElement(h_mod, 1.0 / kappa, "torsion_iso")))
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
