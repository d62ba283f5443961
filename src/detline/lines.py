"""Determinant lines of Hilbertian modules.

The determinant line of a module is one-dimensional and oriented, so an
element is stored as a single positive coordinate against the symbol of the
module's reference scalar product.  Re-expressing against another admissible
product multiplies the coordinate by Det_tau(A)^(-1/2), where A is the
transition operator of the pair.  All constructions below (pushforward,
direct sums, exact sequences, graded assembly) reduce to determinants of
explicit transition operators; positivity of every coordinate is enforced.

Short exact sequences have one body, _sequence_coordinates, which takes a
list: exact_sequence_iso runs it on a list of one, and the torsion route of
complexes on all of a complex's 0 -> B -> Z -> H -> 0 sequences at once
(it measures its 0 -> Z -> C -> B -> 0 sequences from each map's own
singular values, exact by construction).  The blocks of the list
are joined, so each singular-value call covers one block shape across every
sequence, while scales, tolerances, log sums and refusals stay per
sequence.  The exactness check and the measurement share one set of
singular values: for an exact pair in the coordinates where the grams are
the identity, Det T = Det(beta beta*) / Det(alpha* alpha), a product of
singular values.  The check decides the gap between im(alpha) and
ker(beta) from values it has anyway: where the ranks pass,
||P_im(alpha) - P_ker(beta)||_F <= sqrt(2) ||beta alpha||_F /
(s_min(alpha) s_min(beta)), and a block whose bound is at most half the
tolerance passes, as its exact gap (at most that bound, plus rounding)
would; every other block takes singular vectors and the exact gap, so
every verdict is the one the exact gap gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .determinant import fk_det_spectral
from .errors import (
    AlgebraMismatch,
    DuplicateDegree,
    NotExact,
    NotIso,
    ValidationError,
)
from .modules import (
    COND_LIMIT,
    BlockStacks,
    CommutantOperator,
    HilbertianModule,
    ModuleMorphism,
    direct_sum,
    resolve_gram,
)

EXACTNESS_TOL = 1e-8
CLOSE_REL_TOL = 1e-10  # relative coordinate difference of is_close_to


def _positive(coefficient) -> float:
    c = float(coefficient)
    if not (math.isfinite(c) and c > 0.0):
        raise ValidationError(f"determinant line coordinate must be positive, got {c!r}")
    return c


@dataclass(frozen=True)
class DetLineElement:
    """A positive coordinate against the module reference product.

    origin records which construction produced the element; it carries no
    mathematical content.
    """

    module: HilbertianModule
    coefficient: float
    origin: str = "reference"

    def __post_init__(self):
        object.__setattr__(self, "coefficient", _positive(self.coefficient))

    def __mul__(self, scalar):
        s = float(scalar)
        if not s > 0.0:
            raise ValidationError("determinant line elements scale by positive reals only")
        return DetLineElement(self.module, s * self.coefficient, "scaled")

    __rmul__ = __mul__

    def is_close_to(self, other: "DetLineElement") -> bool:
        if not self.module.is_same_space(other.module):
            return False
        return abs(self.coefficient - other.coefficient) <= CLOSE_REL_TOL * max(
            self.coefficient, other.coefficient
        )


def reference_element(module: HilbertianModule) -> DetLineElement:
    return DetLineElement(module, 1.0, "reference")


def _transition_det(module, stacked):
    """Det of the reference-positive transition with the given block stacks."""
    return fk_det_spectral(module, CommutantOperator._of(module, module, stacked))


def _inv_sqrt(log_det: float) -> float:
    """Det^(-1/2) from log Det, so that a Det which underflows to 0 is never
    inverted."""
    try:
        return math.exp(-0.5 * log_det)
    except OverflowError:
        raise ValidationError(
            f"determinant line coordinate overflows (log {-0.5 * log_det:.1f})"
        ) from None


def _product_element(module, gram, origin) -> DetLineElement:
    """Det(T)^(-1/2) for the transition T = G_ref^{-1} G of a product G,
    given by its block stacks."""
    det = _transition_det(module, module.reference_gram.inv_times(gram))
    return DetLineElement(module, _inv_sqrt(det.log_value), origin)


def element_from_product(module: HilbertianModule, gram) -> DetLineElement:
    """The element determined by an admissible scalar product: a carrier
    matrix, a commutant operator or gram data."""
    return _product_element(module, resolve_gram(module, gram).stacked, "product")


def element_from_extended_product(module: HilbertianModule, gram) -> DetLineElement:
    """Element of a positive injective product that need not be admissible.

    The transition against the reference only has to be injective with a
    convergent log integral; here that means no spectral mass at zero, and
    fk_det_spectral refuses (KernelDetected) otherwise.  For admissible
    products this agrees with element_from_product.
    """
    if isinstance(gram, CommutantOperator):
        op = gram
    else:
        op = CommutantOperator.from_matrix(module, gram)
    return _product_element(module, op.stacked, "extended_product")


def _gram(module: HilbertianModule):
    """The module's reference gram data, None for the identity."""
    g = module.reference_gram
    return None if g.is_identity else g


def _gram_coordinates(x: BlockStacks, source, target) -> BlockStacks:
    """G_t^(1/2) X G_s^(-1/2): the map X in the coordinates where the grams
    of its source and target are the identity; a gram given as None, the
    identity, is skipped."""
    if target is not None:
        x = target.sqrt @ x
    return x if source is None else x @ source.inv_sqrt


def pushforward(f: ModuleMorphism, e: DetLineElement) -> DetLineElement:
    """Image of e under the canonical isomorphism det(M) -> det(N) of an
    A-linear isomorphism f: M -> N.

    The reference product of M pushes to the product ⟨f^{-1}v, f^{-1}w⟩ on
    N, whose transition against N's reference is G_N^{-1} f^{-H} G_M f^{-1};
    its determinant to the -1/2, Det|f~| for f~ = G_N^(1/2) f G_M^(-1/2),
    rescales the coordinate (Det_tau(f) for an automorphism with matching
    references).  The singular values of f~, one call per block stack, give
    it and decide that f is an isomorphism: square blocks, s_max <=
    COND_LIMIT s_min.
    """
    if not e.module.is_same_space(f.source):
        raise AlgebraMismatch("element does not live on the source of the morphism")
    layout = f.stacked.layout
    if any(rows != cols for rows, cols in layout.shapes):
        raise NotIso("pushforward needs an isomorphism")
    tilde = _gram_coordinates(f.stacked, _gram(f.source), _gram(f.target))
    top, low, _, logs = _singular_values(tilde)
    empty = np.array(layout.rows) == 0  # a 0 x 0 block is its own inverse
    if not np.all(empty | ((low > 0.0) & (top <= COND_LIMIT * low))):
        raise NotIso("pushforward needs an isomorphism")
    log_det = float(np.asarray(f.target.algebra.weights) @ logs)  # log Det|f~|
    return DetLineElement(f.target, e.coefficient * _inv_sqrt(-2.0 * log_det), "pushforward")


def tensor_sum(
    e_m: DetLineElement, e_n: DetLineElement, total: HilbertianModule | None = None
) -> DetLineElement:
    """The image of e_m (x) e_n under det(M) (x) det(N) -> det(M + N).

    The direct sum carries the block sum of the reference products, so the
    coordinate simply multiplies.  Pass total to target an existing copy of
    the direct sum (it must have the same layout).
    """
    if e_m.module.algebra != e_n.module.algebra:
        raise AlgebraMismatch("summands live over different algebras")
    summed = direct_sum(e_m.module, e_n.module)
    if total is not None:
        if not total.is_same_space(summed):
            raise AlgebraMismatch("total module does not match the direct sum layout")
        summed = total
    return DetLineElement(summed, e_m.coefficient * e_n.coefficient, "tensor_sum")


class _Sequence(NamedTuple):
    """0 -> M' -alpha-> M -beta-> M'' -> 0 by its block stacks.  grams
    holds the reference grams of M', M and M'', None standing for the
    identity; retraction is a given left inverse of alpha, which is only
    validated, or None."""

    alpha: BlockStacks
    beta: BlockStacks
    grams: tuple = (None, None, None)
    retraction: BlockStacks | None = None


def _singular_values(x: BlockStacks):
    """Largest and smallest singular value, rank and sum of the log singular
    values of each block, from one singular-value call per stack; 0 for a
    block with no entries.  The rank counts the singular values above
    EXACTNESS_TOL times the block's largest, a cut relative to the block
    alone, so a map scaled by any positive factor keeps its rank.  A zero
    singular value makes the log sum -inf without a warning: the callers
    refuse such a block before they read it."""
    n = len(x.layout.rows)
    top, low, rank, logs = np.zeros(n), np.zeros(n), np.zeros(n, dtype=int), np.zeros(n)
    for idx, s in x.nonempty():
        sv = np.linalg.svd(s, compute_uv=False)
        top[idx], low[idx] = sv[:, 0], sv[:, -1]
        rank[idx] = np.sum(sv > EXACTNESS_TOL * sv[:, :1], axis=1)
        with np.errstate(divide="ignore"):
            logs[idx] = np.sum(np.log(sv), axis=1)
    return top, low, rank, logs


def _first_inexact(alpha: BlockStacks, beta: BlockStacks, spans):
    """(first, log_alpha, log_beta): first is (s, NotExact) for the first
    sequence s whose pair is not exact, or None: alpha injective, beta
    surjective, im(alpha) = ker(beta) blockwise.  log_alpha and log_beta
    hold each block's sum of log singular values, finite in every block
    before the first failing one.

    alpha and beta are joined, and sequence s holds blocks spans[s] to
    spans[s + 1] - 1.  Each stack takes one singular-value call for the
    ranks and the norms; a rank is cut relative to its block's largest
    singular value, and the composite test keeps a scale per sequence,
    max(1, ||alpha|| ||beta||); the composite and the gap are Frobenius
    norms.  A gap exists only where 0 < cols(alpha) < rows(alpha) =
    cols(alpha) + rows(beta): elsewhere the checks before the
    gap test fix the verdict (alpha with no columns has no image to compare,
    a square injective alpha leaves beta no rows, so both subspaces are the
    block, and dimensions that do not add up fail the rank test).  Where
    the ranks pass, the two projections have equal rank and

        ||P_im(alpha) - P_ker(beta)||_F <= sqrt(2) ||beta alpha||_F
                                            / (s_min(alpha) s_min(beta)),

    since P_im(alpha) - P_ker(beta) has the norm of sqrt(2) (1 - P_ker)
    P_im = sqrt(2) beta^+ (beta alpha) alpha^+.  A block whose bound is at
    most tol/2 passes the gap test as the exact gap would, with room for
    its rounding, and needs no singular vectors.  Only the others take them:
    the image frame is the left vectors of alpha, the kernel frame the
    trailing right vectors of beta.  The first failing block is reported
    with its first failing check.
    """
    rows = np.array(alpha.layout.rows)
    cols = np.array(alpha.layout.cols)
    quot = np.array(beta.layout.rows)
    tol = EXACTNESS_TOL
    top_a, low_a, rank_a, log_a = _singular_values(alpha)
    top_b, low_b, rank_b, log_b = _singular_values(beta)
    composite = np.zeros(len(rows))
    for idx, b, a in beta.pairs(alpha):
        if a.size and b.size:
            composite[idx] = np.linalg.norm(b @ a, axis=(1, 2))

    gapped = (0 < cols) & (cols < rows) & (rows == cols + quot)
    bounded = gapped & (rank_a == cols) & (rank_b == quot)
    bound = np.full(len(rows), np.inf)
    with np.errstate(over="ignore"):  # a bound past the float range is inf: no verdict
        bound[bounded] = math.sqrt(2.0) * composite[bounded] / low_a[bounded] / low_b[bounded]
    vectors = gapped & ~(bound <= 0.5 * tol)
    gap = np.zeros(len(rows))
    for idx, b, a in beta.pairs(alpha) if vectors.any() else ():
        take = vectors[idx]
        if take.any():
            u_a = np.linalg.svd(a[take], full_matrices=False)[0]
            kernel = np.linalg.svd(b[take])[2][:, quot[idx[0]] :].conj().swapaxes(1, 2)
            gap[idx[take]] = np.linalg.norm(
                u_a @ u_a.conj().swapaxes(1, 2) - kernel @ kernel.conj().swapaxes(1, 2),
                axis=(1, 2),
            )

    starts = spans[:-1]
    scale = np.maximum(
        np.maximum.reduceat(top_a, starts) * np.maximum.reduceat(top_b, starts), 1.0
    )
    checks = [
        (rank_a < cols, "first map fails to be injective in block {k}"),
        (rank_b < quot, "second map fails to be surjective in block {k}"),
        (composite > tol * np.repeat(scale, np.diff(spans)), "composite is nonzero in block {k}"),
        (cols + quot != rows, "rank mismatch in block {k}: middle homology is nonzero"),
        (gap > tol, "image and kernel subspaces differ in block {k} (gap {gap:.2e})"),
    ]
    failed = np.logical_or.reduce([fails for fails, _ in checks])
    if not failed.any():
        return None, log_a, log_b
    j = int(np.argmax(failed))
    s = int(np.searchsorted(spans, j, side="right")) - 1
    message = next(message for fails, message in checks if fails[j])
    return (s, NotExact(message.format(k=j - spans[s], gap=gap[j]))), log_a, log_b


def _sequence_coordinates(weights, sequences) -> list:
    """Det(T)^(-1/2) for the transition T of each short exact sequence over
    one algebra (trace weights given), in order.

    This is the one body of exact_sequence_iso, run on all sequences
    together.  Each pair is taken in the coordinates where its grams are the
    identity, alpha~ = G^(1/2) alpha G'^(-1/2) and beta~ = G''^(1/2) beta
    G^(-1/2), a factor applied only where its gram is not the identity, and
    the pairs are joined (BlockStacks.join): blocks of equal shape from
    different sequences share one stack, and numpy runs a stack one matrix
    at a time, so every block's numbers are those it gets alone.  Scales,
    tolerances, weighted log sums and refusals stay per sequence: the
    sequences before the first one that is not exact are measured, a given
    retraction validated, and then its NotExact is raised.

    T = <r v, r w>' + <b v, b w>'' for a retraction r of alpha is S^H S
    with S = [r~; beta~], and when beta alpha = 0

        [r~; beta~] [alpha~, beta~^H] = [[1, r~ beta~^H], [0, beta~ beta~^H]],
        [alpha~, beta~^H]^H [alpha~, beta~^H] = diag(alpha~^H alpha~, beta~ beta~^H),

    so Det T = Det(beta~ beta~^H) / Det(alpha~^H alpha~) whichever the
    retraction: the coordinate is exp(sum_k w_k (sum log s(alpha~_k) -
    sum log s(beta~_k))), from the singular values the exactness check
    takes.  With E = beta~ alpha~ the same products give, for the
    orthogonal retraction, Det T = Det(beta~ beta~^H - E (alpha~^H
    alpha~)^{-1} E^H) / Det(alpha~^H alpha~), so a composite that passes
    the check moves the coordinate at second order in ||E|| /
    (s_min(alpha~) s_min(beta~)).
    """
    spans = np.cumsum([0] + [len(s.alpha.layout.rows) for s in sequences])
    alpha = BlockStacks.join([_gram_coordinates(s.alpha, *s.grams[:2]) for s in sequences])
    beta = BlockStacks.join([_gram_coordinates(s.beta, *s.grams[1:]) for s in sequences])
    inexact, log_a, log_b = _first_inexact(alpha, beta, spans)
    count = len(sequences) if inexact is None else inexact[0]
    # the log coordinate of each sequence measured, summed row by row as for
    # a list of one; its blocks passed every check, so the logs are finite
    at = spans[count]
    logs = np.sum(np.reshape(log_a[:at] - log_b[:at], (count, len(weights))) * weights, axis=1)
    out = []
    for s, log_coordinate in zip(sequences, logs.tolist()):
        if s.retraction is not None:
            resid = s.retraction @ s.alpha - BlockStacks.identity(s.alpha.layout.cols)
            if resid.norm() > EXACTNESS_TOL * max(1.0, s.retraction.norm() * s.alpha.norm()):
                raise ValidationError("retraction does not split the first map")
        out.append(_positive(_inv_sqrt(-2.0 * log_coordinate)))
    if inexact is not None:
        raise inexact[1]
    return out


def exact_sequence_iso(
    alpha: ModuleMorphism,
    beta: ModuleMorphism,
    e_prime: DetLineElement,
    e_second: DetLineElement,
    retraction: ModuleMorphism | None = None,
) -> DetLineElement:
    """Canonical isomorphism det(M') (x) det(M'') -> det(M) of a short exact
    sequence 0 -> M' -a-> M -b-> M'' -> 0.

    The image is the element of the product ⟨r v, r w⟩' + ⟨b v, b w⟩'' on
    M, for a retraction r of alpha, times the incoming coordinates.  The
    result does not depend on the retraction: two retractions differ by
    gamma∘beta, an upper-triangular change with unit determinant, and the
    element is Det(b~ b~*)^(-1/2) Det(a~* a~)^(1/2) with every gram made the
    identity, so a given retraction is only validated.  The exactness check
    and the measurement are those of _sequence_coordinates on a list of
    one; the endpoints are checked first.
    """
    m = alpha.target
    if not beta.source.is_same_space(m):
        raise AlgebraMismatch("the two maps do not share the middle module")
    if not e_prime.module.is_same_space(alpha.source):
        raise AlgebraMismatch("first element does not live on the sub module")
    if not e_second.module.is_same_space(beta.target):
        raise AlgebraMismatch("second element does not live on the quotient module")
    if retraction is not None and not (
        retraction.source.is_same_space(m) and retraction.target.is_same_space(alpha.source)
    ):
        raise AlgebraMismatch("retraction endpoints do not match the sequence")

    grams = (_gram(alpha.source), _gram(m), _gram(beta.target))
    sequence = _Sequence(
        alpha.stacked, beta.stacked, grams, None if retraction is None else retraction.stacked
    )
    (coeff,) = _sequence_coordinates(m.algebra.weights, [sequence])
    return DetLineElement(m, coeff * e_prime.coefficient * e_second.coefficient, "exact_sequence")


@dataclass(frozen=True)
class GradedDetLineElement:
    """Entries (degree, element); the degree-i line enters the combined
    coordinate with exponent (-1)^i."""

    entries: tuple

    def __post_init__(self):
        seen = set()
        for degree, element in self.entries:
            if degree in seen:
                raise DuplicateDegree(f"degree {degree} appears twice")
            seen.add(degree)
            if not isinstance(element, DetLineElement):
                raise ValidationError("graded entries must hold determinant line elements")
        object.__setattr__(
            self, "entries", tuple(sorted(self.entries, key=lambda de: de[0]))
        )

    @property
    def coordinate(self) -> float:
        out = 1.0
        for degree, element in self.entries:
            out *= element.coefficient ** (1 if degree % 2 == 0 else -1)
        return out

    def shift(self, k: int) -> "GradedDetLineElement":
        return GradedDetLineElement(tuple((d + k, e) for d, e in self.entries))

    def dual(self) -> "GradedDetLineElement":
        flipped = tuple(
            (d, DetLineElement(e.module, 1.0 / e.coefficient, "dual"))
            for d, e in self.entries
        )
        return GradedDetLineElement(flipped)


def graded_assemble(entries) -> GradedDetLineElement:
    """Assemble degree-indexed elements into one graded element."""
    return GradedDetLineElement(tuple(entries))
