"""Chain and cochain complexes of Hilbertian modules.

A complex stores one module per degree plus the connecting maps; the
convention flag decides, through map_ends alone, whether maps[i] runs from
degree i+1 down to i (chain) or from degree i up to i+1 (cochain).  Each
degree module carries its scalar product as its reference gram, chosen
when the module was built, so every adjoint, Laplacian and determinant
downstream is taken with respect to it.

Hodge reads every datum from one singular-value pass per map, taken in the
coordinates where the grams are the identity, with no singular vectors: the
positive spectrum of Delta_i is the sigma^2 of the two maps at degree i
(Lück, L2-Invariants, Lemma 3.30), which fixes the Betti counts and the
spectral densities, and eigh of a Laplacian block runs only where the block
has homology, for its harmonic frame.  The Hermitian Laplacian stacks that
eigh reads are formed from the same maps, d~^H d~ + d~ d~^H, on first read.

The torsion isomorphism between det(C) and det(H_*) is computed by two
deliberately independent routes: factorization through the exact sequences
0 -> Z -> C -> B -> 0 and 0 -> B -> Z -> H -> 0, and the closed Laplacian
formula prod Det(Delta_i^+)^(+-i/2).  Their agreement is a theorem; here it
is a test: the Laplacian route diagonalises each Delta_i with i >= 1 (eigh;
degree 0 enters with exponent 0), the exact-sequence route reads the
singular values of Hodge's pass.  In those coordinates the SVD frames are
orthonormal, so both sequences are measured by theorem, with no
exact-sequence core call: 0 -> Z -> C -> B -> 0 by the map's singular
values above its rank, and 0 -> B -> Z -> H -> 0, an isometric inclusion
followed by an orthogonal projection, has transition 1.  What the route
checks is that Hodge's harmonic frames complete the boundaries to the
cycles: by bounds from the same singular values and from products only as
wide as the Betti count, and, in a degree the bounds do not decide, by the
frames themselves.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ._linalg import RANK_RTOL, rank_data
from .determinant import ConvergenceReport, SpectralDensity, exp_of_log
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


class _Laplacians(Sequence):
    """Each degree's Laplacian as an operator, formed on first read and
    kept; nothing in torsion() reads it.  hermitian(i), the Hermitian
    stacks of Delta~_i that eigh reads, is built from the maps of Hodge's
    pass instead, on first read and kept: hodge builds those of degrees with
    homology, and torsion_iso_via_laplacians those of degrees i >= 1.
    taken[i, j] holds (mask, eigenvalues) of the blocks of stack j of
    hermitian(i) that hodge took eigh of for their harmonic frames."""

    def __init__(self, complex_, passes):
        self._complex = complex_
        self._formed = [None] * len(complex_.modules)
        self._hermitian = [None] * len(complex_.modules)
        self._out, self._in = {}, {}  # degree -> d~ of the map out of / into it
        for j, (tilde, _) in enumerate(passes):
            s, t = complex_.ends(j)
            self._out[s] = self._in[t] = tilde
        self.taken = {}

    def __len__(self):
        return len(self._formed)

    def __getitem__(self, i):
        i = range(len(self._formed))[i]
        if self._formed[i] is None:
            with np.errstate(over="ignore", invalid="ignore"):  # refused by hermitian
                self._formed[i] = _laplacian(self._complex, i)
        return self._formed[i]

    def hermitian(self, i) -> list:
        """(block indices, stack) of the Hermitian part of Delta~_i = d~_out^H
        d~_out + d~_in d~_in^H, the Laplacian in the coordinates where the
        grams are the identity, for each stored stack; ValidationError for
        an entry past the float range.  The sum starts from zero and adds
        the out term first, as _laplacian does, so under identity grams
        every stack equals that of Delta_i bit for bit; under other grams it
        is the same operator, G^(1/2) Delta_i G^(-1/2), rounded otherwise."""
        if self._hermitian[i] is None:
            mult = self._complex.modules[i].multiplicities
            total = BlockStacks.zeros(mult, mult)
            with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
                if i in self._out:
                    total = total + self._out[i].H @ self._out[i]
                if i in self._in:
                    total = total + self._in[i] @ self._in[i].H
            if not all(np.isfinite(s).all() for s in total.stacks):
                raise ValidationError(f"degree {i}: the Laplacian is past the float range")
            self._hermitian[i] = [
                (idx, 0.5 * (s + s.conj().swapaxes(1, 2)))
                for idx, s in zip(total.layout.index, total.stacks)
            ]
        return self._hermitian[i]

    def eigenvalues(self, i) -> list:
        """(block indices, ascending eigenvalues) of each stack of
        hermitian(i): those hodge took where it took them, and one eigh over
        the other blocks of the stack.  eigh diagonalises each matrix of a
        stack on its own, so every value is the one eigh of the whole stack
        gives, bit for bit."""
        out = []
        for j, (idx, s) in enumerate(self.hermitian(i)):
            done, taken = self.taken.get((i, j), (np.zeros(len(idx), dtype=bool), None))
            if done.all():
                vals = taken
            elif not done.any():
                vals = np.linalg.eigh(s)[0]
            else:
                vals = np.empty(s.shape[:2])
                vals[done] = taken
                vals[~done] = np.linalg.eigh(s[~done])[0]
            out.append((idx, vals))
        return out


@dataclass
class HodgeData:
    """The Hodge decomposition of a complex, read from one singular-value
    pass per map.

    passes[j] is (d~, values) for maps[j]: its blocks in the coordinates
    where the grams are the identity (modules.gram_coordinates) and their
    singular values per stack (BlockStacks.singular_value_stacks).  squares[i]
    holds, per stack, the sigma^2 of the two maps at degree i, and cuts[i]
    the degree's kernel cut on them."""

    laplacians: _Laplacians
    passes: tuple = field(repr=False)
    squares: tuple = field(repr=False)
    cuts: tuple
    harmonic_modules: tuple
    harmonic_embeddings: tuple
    betti: tuple
    kernel_tol: float

    @functools.cached_property
    def positive_densities(self) -> tuple:
        """The positive spectrum of each degree's Laplacian, built on first
        read: the sigma^2 of its two maps above the degree's cut, each with
        its block's trace weight."""
        out = []
        for squares, cut, h in zip(self.squares, self.cuts, self.harmonic_modules):
            parts = []
            for idx, sq in squares:
                kept = sq > cut
                parts.append((np.repeat(idx, np.sum(kept, axis=1)), sq[kept]))
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


def _singular_value_pass(complex_, j) -> tuple:
    """(d~, values) of maps[j]: its blocks in gram coordinates and their
    singular values per stack, kept with d~; under identity grams d~ is the
    map's own stacks, whose values the relation check took.  A block entry
    or a sigma^2 past the float range is refused as the Laplacian of the
    lower of its two degrees."""
    f = complex_.maps[j]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        tilde = gram_coordinates(f.stacked, f.source, f.target)
        finite = all(np.isfinite(s).all() for s in tilde.stacks)
        values = tilde.singular_value_stacks() if finite else ()
        finite = finite and all(np.isfinite(sv[:, 0] * sv[:, 0]).all() for _, sv in values)
    if not finite:
        raise ValidationError(f"degree {min(complex_.ends(j))}: the Laplacian is past the float range")
    return tilde, values


def hodge(complex_, kernel_tol: float = HODGE_KERNEL_TOL) -> HodgeData:
    """Per-degree Betti numbers, harmonic modules and positive spectral
    parts, from one singular-value pass per map.

    The positive spectrum of Delta_i = out*out + in in* is the sigma^2 of
    its two maps (Lück, L2-Invariants, Lemma 3.30), each map taken once in
    the coordinates where the grams are the identity, with one
    svd(compute_uv=False) per block shape.  Degree i's kernel cut is
    kernel_tol times the largest sigma^2 of its two maps, the Laplacian's
    spectral norm, and a block's Betti count is its multiplicity less the
    sigma^2 above the cut from both maps.  If the smallest sigma^2 above the
    cut sits within HODGE_GAP_RATIO of the largest one below it, the count
    is numerically ambiguous and the decomposition refuses
    (IllConditionedKernel).  A kernel_tol outside (0, 1), nan included, is a
    ValidationError, and so is a sigma^2 past the float range, or maps whose
    ranks exceed the degree they meet at (they do not compose to zero).

    Harmonic frames take eigh of the Laplacian only in the blocks with
    homology, one call per stack over those blocks: eigh sorts ascending,
    so a block's frame is its leading count eigenvectors.  The Laplacians
    are formed from the pass's maps, and they and the densities are built
    on first read.
    """
    if not 0.0 < kernel_tol < 1.0:
        raise ValidationError(f"kernel_tol must lie in (0, 1), got {kernel_tol!r}")
    passes = tuple(_singular_value_pass(complex_, j) for j in range(len(complex_.maps)))
    squares = [[] for _ in complex_.degrees]
    for j, (_, values) in enumerate(passes):
        pieces = [(idx, sv * sv) for idx, sv in values]
        for end in complex_.ends(j):
            squares[end] += pieces
    laplacians = _Laplacians(complex_, passes)
    cuts, h_modules, h_embeddings, betti = [], [], [], []
    for i in complex_.degrees:
        mod = complex_.modules[i]
        top = max((float(sq[:, 0].max()) for _, sq in squares[i]), default=0.0)
        cut = kernel_tol * max(top, 1e-300)
        counts = np.array(mod.multiplicities)
        zero_top, low = 0.0, math.inf
        for idx, sq in squares[i]:
            kept = sq > cut
            counts[idx] -= np.sum(kept, axis=1)
            zero_top = max(zero_top, float(sq[~kept].max(initial=0.0)))
            low = min(low, float(sq[kept].min(initial=math.inf)))
        if zero_top > 0.0 and low < math.inf and low / zero_top < HODGE_GAP_RATIO:
            raise IllConditionedKernel(
                f"degree {i}: kernel gap ratio {low / zero_top:.2f} "
                f"is too small to trust the Betti number"
            )
        if np.any(counts < 0):
            raise ValidationError(
                f"degree {i}: the maps at it have more rank than it has dimension; "
                f"they do not compose to zero"
            )
        h_mod = HilbertianModule(mod.algebra, counts)
        frames = _harmonic_frames(mod, laplacians, i, counts)
        cuts.append(cut)
        h_modules.append(h_mod)
        h_embeddings.append(ModuleMorphism._of(h_mod, mod, frames))
        betti.append(von_neumann_dimension(h_mod))
    return HodgeData(
        laplacians, passes, tuple(tuple(sq) for sq in squares), tuple(cuts),
        tuple(h_modules), tuple(h_embeddings), tuple(betti), kernel_tol,
    )


def _harmonic_frames(mod, laplacians, i, counts) -> BlockStacks:
    """Degree i's harmonic frames, in the module's coordinates: the leading
    counts[k] eigenvectors of block k of the Hermitian Laplacian, taken by
    eigh only over the blocks with counts[k] > 0 (a degree without homology
    forms no Laplacian), and G^(-1/2) applied for a gram that is not the
    identity.  The eigenvalues are kept on laplacians.taken."""
    mult = mod.multiplicities
    if not counts.any():
        return BlockStacks.zeros(mult, (0,) * len(mult))
    parts = []
    for j, (idx, s) in enumerate(laplacians.hermitian(i)):
        homology = counts[idx] > 0
        if homology.any():
            vals, vecs = np.linalg.eigh(s if homology.all() else s[homology])
            laplacians.taken[i, j] = (homology, vals)
            parts.append((idx[homology], vecs))
        if not homology.all():  # no column in the blocks without homology
            parts.append((idx[~homology], s[~homology, :, :0]))
    frames = _frames(mult, parts, np.zeros_like(counts), counts)
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
    of the degree's two maps above Hodge's cut, and the spectral mass at
    zero) so callers can see how close to degenerate the complex sits.
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
    prod Det(Delta_i^+)^((-1)^(i+1) i/2).

    Degree 0 enters with exponent 0 and carries 1.  Each Delta_i with i >= 1
    is diagonalised, independently of the singular values Hodge reads: by
    eigh of its Hermitian blocks, Hodge's where it took them for the
    harmonic frames, eigenvalues cut at kernel_tol times the largest
    |eigenvalue| of the degree."""
    if hodge_data is None:
        hodge_data = hodge(complex_)
    sign = 1.0 if complex_.convention == CHAIN else -1.0
    entries = [(0, DetLineElement(hodge_data.harmonic_modules[0], 1.0, "torsion_iso"))]
    for i in complex_.degrees[1:]:
        # eigh, not eigvalsh: the two LAPACK drivers round differently, and
        # with eigvalsh the cellular-torsion benchmark's max_log_err doubles
        # (1.2e-13 to 2.5e-13), an error of its oracle (ROADMAP item 18).
        # Item 19 removes this eigh once that oracle is exact.
        eighs = hodge_data.laplacians.eigenvalues(i)
        top = max((float(np.max(np.abs(vals), initial=0.0)) for _, vals in eighs), default=0.0)
        cut = hodge_data.kernel_tol * max(top, 1e-300)
        positive = [
            (np.repeat(idx, np.sum(vals > cut, axis=1)), vals[vals > cut]) for idx, vals in eighs
        ]
        log_det = SpectralDensity.from_parts(complex_.algebra.weights, positive).log_moment()
        coeff = exp_of_log(sign * 0.5 * i * log_det)
        entries.append((i, DetLineElement(hodge_data.harmonic_modules[i], coeff, "torsion_iso")))
    return graded_assemble(entries)


def torsion_iso_via_exact_sequences(complex_, hodge_data: HodgeData | None = None) -> GradedDetLineElement:
    """Same isomorphism, computed by factoring each degree through
    0 -> Z_i -> C_i -> B_out -> 0 and 0 -> B_i -> Z_i -> H_i -> 0.

    Everything is taken in the coordinates where its degree's gram is the
    identity: each map as Hodge's pass holds it, d~ = G_t^(1/2) d
    G_s^(-1/2) (modules.gram_coordinates) with its singular values, and
    Hodge's harmonic frame as H~ = G^(1/2) H.  The pass gives each block's
    rank, the smallest singular value the rank counts (sigma_r) and its log
    singular values, with no second SVD and no singular vectors.  Ranks are
    cut at RANK_RTOL times the pass's largest singular value, so a map that
    is small next to 1 keeps its rank, as in Hodge, and a block that is zero
    up to rounding next to the rest of the complex has none.

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

    What is checked, degree by degree, is that H~ completes B to Z
    (_homology_bounds): bounds from the norms of the products d~_out H~
    and H~^H d~_in, each as many columns or rows wide as the Betti count,
    over the sigma_r of the maps.  A degree whose bounds pass at half of
    EXACTNESS_TOL and whose counts add up is exact; any other degree takes
    the frames of its maps (range_and_kernel) and _check_homology, which
    decides and words the refusal.
    """
    if hodge_data is None:
        hodge_data = hodge(complex_)

    weights = np.asarray(complex_.algebra.weights)
    tops = [float(sv[:, 0].max()) for _, values in hodge_data.passes for _, sv in values]
    scale = max(tops, default=0.0)  # the complex's largest singular value
    n = len(complex_.modules)
    # the map out of and into each degree, with its ranks and sigma_r
    outs, ins, log_kappas = [None] * n, [None] * n, [0.0] * n
    for j, (tilde, values) in enumerate(hodge_data.passes):
        src, tgt = complex_.ends(j)
        _, low, rank, logs = rank_data(values, len(tilde.layout.rows), RANK_RTOL, scale)
        outs[src] = ins[tgt] = (tilde, low, rank)
        log_kappas[src] = float(weights @ logs)

    for i, h in enumerate(hodge_data.harmonic_embeddings):
        harmonic = gram_coordinates(h.stacked, h.source, h.target)
        out, inc = outs[i], ins[i]
        if not _homology_within_bounds(harmonic, out, inc):
            mult = complex_.modules[i].multiplicities
            _check_homology(harmonic.H, *_homology_frames(mult, out, inc, scale))
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


def _homology_bounds(harmonic: BlockStacks, out, inc) -> tuple:
    """Per block, upper bounds on the two products _check_homology measures
    with frames, for the harmonic frame harmonic = H~ and the singular-value
    passes out = (d~_out, sigma_r, rank) and inc = (d~_in, sigma_r, rank),
    each None for a missing map, all in the coordinates where the grams are
    the identity.  Pythagoras on each SVD:

    - ||beta beta^H - 1||_F <= ||H~^H H~ - 1||_F + (||d~_out H~||_F /
      sigma_r(d~_out))^2, since beta beta^H = H~^H H~ - H~^H P H~ for P the
      projection onto the row space of d~_out, and ||d~_out H~||_F >=
      sigma_r ||P H~||_F;
    - ||H~^H B~||_F <= ||H~^H d~_in||_F / sigma_r(d~_in), since ||H~^H
      d~_in||_F >= sigma_r ||H~^H B~||_F.

    A missing map, or a block of rank 0 (sigma_r = inf), adds 0.  Every
    product is as many columns or rows wide as the Betti count, so a block
    without homology reads 0 in both."""
    def over(a, b, low):  # ||a b||_F / sigma_r per block
        norms = np.zeros(len(low))
        for idx, x, y in a.pairs(b):
            norms[idx] = np.linalg.norm(x @ y, axis=(1, 2))
        return norms / low

    inside = np.zeros(len(harmonic.layout.rows))
    for idx, s in harmonic.nonempty():
        gram = s.conj().swapaxes(1, 2) @ s
        inside[idx] = np.linalg.norm(gram - np.eye(s.shape[2]), axis=(1, 2))
    # a bound past the float range is inf, and inf / inf is nan: no verdict
    with np.errstate(over="ignore", invalid="ignore"):
        if out is not None:
            inside = inside + over(out[0], harmonic, out[1]) ** 2
        across = np.zeros_like(inside) if inc is None else over(harmonic.H, inc[0], inc[1])
    return inside, across


def _homology_within_bounds(harmonic: BlockStacks, out, inc) -> bool:
    """True when _homology_bounds pass at EXACTNESS_TOL / 2 in every block,
    so the frame products pass _check_homology with room for their
    rounding, and cols(Z) = cols(B) + h, read from the ranks."""
    inside, across = _homology_bounds(harmonic, out, inc)
    cycles = np.array(harmonic.layout.rows) - (0 if out is None else out[2])
    bounds = 0 if inc is None else inc[2]
    return bool(
        np.all(inside <= 0.5 * EXACTNESS_TOL)
        and np.all(across <= 0.5 * EXACTNESS_TOL)
        and np.all(cycles == bounds + np.array(harmonic.layout.cols))
    )


def _homology_frames(mult: tuple, out, inc, scale: float) -> tuple:
    """(Z~, B~): orthonormal frames of the cycles and the boundaries of a
    degree of multiplicities mult, from the SVDs of the maps out of and
    into it (range_and_kernel, ranks cut at RANK_RTOL times scale).  A
    degree with no outgoing map is all cycles; one with no incoming map
    bounds nothing."""
    cycles = BlockStacks.identity(mult) if out is None else range_and_kernel(out[0], scale)[1]
    if inc is None:
        return cycles, BlockStacks.zeros(mult, (0,) * len(mult))
    return cycles, range_and_kernel(inc[0], scale)[0]


def _check_homology(harmonic_h: BlockStacks, cycles: BlockStacks, bounds: BlockStacks):
    """NotExact unless 0 -> B -> Z -> H -> 0 is exact in every block, for
    orthonormal frames: harmonic_h = H~^H, cycles = Z~ and bounds = B~; the
    route's fallback for a degree that its bounds do not decide.

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
