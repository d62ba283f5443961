"""Determinant lines of Hilbertian modules.

The determinant line of a module is one-dimensional and oriented, so an
element is stored as a single positive coordinate against the symbol of the
module's reference scalar product.  Re-expressing against another admissible
product multiplies the coordinate by Det_tau(A)^(-1/2), where A is the
transition operator of the pair.  All constructions below (pushforward,
direct sums, exact sequences, graded assembly) reduce to determinants of
the maps they are given, with no choice (a retraction, a target copy of a
direct sum) taken as input; positivity of every coordinate is enforced.

Every map is measured in the coordinates where the grams are the identity,
f~ = G_t^(1/2) f G_s^(-1/2) (modules.gram_coordinates), and every rank,
norm and log|det| comes from one singular-value pass over its block stacks,
kept with them (BlockStacks.singular_values): pushforward accepts f by the
package's one invertibility test, BlockStacks.invertible_logs, which
ModuleMorphism.is_iso reads too, and the exactness check cuts ranks at
EXACTNESS_TOL times each block's largest singular value.

A short exact sequence is checked and measured by exact_sequence_iso
from one set of singular values (_first_inexact takes them): for an exact
pair in the coordinates where the grams are the identity, Det T =
Det(beta beta*) / Det(alpha* alpha), a product of singular values that no
retraction of alpha enters.  The check decides the gap between im(alpha)
and ker(beta) from values it has anyway: where the ranks pass,
||P_im(alpha) - P_ker(beta)||_F <= sqrt(2) ||beta alpha||_F / (s_min(alpha)
s_min(beta)), and a block whose bound is at most half the tolerance
passes, as its exact gap (at most that bound, plus rounding) would; every other block takes singular vectors and the
exact gap, so every verdict is the one the exact gap gives.  The torsion
route of complexes needs no call here: in its coordinates both of its
sequences are measured by theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    BlockStacks,
    CommutantOperator,
    HilbertianModule,
    ModuleMorphism,
    direct_sum,
    gram_coordinates,
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


def pushforward(f: ModuleMorphism, e: DetLineElement) -> DetLineElement:
    """Image of e under the canonical isomorphism det(M) -> det(N) of an
    A-linear isomorphism f: M -> N.

    The reference product of M pushes to the product ⟨f^{-1}v, f^{-1}w⟩ on
    N, whose transition against N's reference is G_N^{-1} f^{-H} G_M f^{-1};
    its determinant to the -1/2, Det|f~| for f~ = G_N^(1/2) f G_M^(-1/2),
    rescales the coordinate (Det_tau(f) for an automorphism with matching
    references).  One singular-value pass over f~ gives it and decides
    that f is an isomorphism, by BlockStacks.invertible_logs as
    ModuleMorphism.is_iso does.
    """
    if not e.module.is_same_space(f.source):
        raise AlgebraMismatch("element does not live on the source of the morphism")
    logs = gram_coordinates(f.stacked, f.source, f.target).invertible_logs()
    if logs is None:
        raise NotIso("pushforward needs an isomorphism")
    log_det = float(np.asarray(f.target.algebra.weights) @ logs)  # log Det|f~|
    return DetLineElement(f.target, e.coefficient * _inv_sqrt(-2.0 * log_det), "pushforward")


def tensor_sum(e_m: DetLineElement, e_n: DetLineElement) -> DetLineElement:
    """The image of e_m (x) e_n under det(M) (x) det(N) -> det(M + N).

    The direct sum carries the block sum of the reference products, so the
    coordinate simply multiplies.  Sums taken in another nesting land on
    modules of the same space, so their elements compare by is_close_to.
    """
    if e_m.module.algebra != e_n.module.algebra:
        raise AlgebraMismatch("summands live over different algebras")
    return DetLineElement(
        direct_sum(e_m.module, e_n.module), e_m.coefficient * e_n.coefficient, "tensor_sum"
    )


def _first_inexact(alpha: BlockStacks, beta: BlockStacks):
    """(log_alpha, log_beta), each block's sum of log singular values, of a
    pair that is exact: alpha injective, beta surjective, im(alpha) =
    ker(beta) blockwise.  Otherwise NotExact.

    Each stack takes one singular-value call for the ranks and the norms; a
    rank is cut relative to its block's largest singular value, and the
    composite test is against max(1, ||alpha|| ||beta||); the composite and
    the gap are Frobenius norms.  A gap exists only where 0 < cols(alpha) <
    rows(alpha) = cols(alpha) + rows(beta): elsewhere the checks before the
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
    top_a, low_a, rank_a, log_a = alpha.singular_values(tol)
    top_b, low_b, rank_b, log_b = beta.singular_values(tol)
    composite = np.zeros(len(rows))
    for idx, b, a in beta.pairs(alpha):
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

    scale = np.maximum(np.max(top_a) * np.max(top_b), 1.0)
    checks = [
        (rank_a < cols, "first map fails to be injective in block {k}"),
        (rank_b < quot, "second map fails to be surjective in block {k}"),
        (composite > tol * scale, "composite is nonzero in block {k}"),
        (cols + quot != rows, "rank mismatch in block {k}: middle homology is nonzero"),
        (gap > tol, "image and kernel subspaces differ in block {k} (gap {gap:.2e})"),
    ]
    failed = np.logical_or.reduce([fails for fails, _ in checks])
    if failed.any():
        k = int(np.argmax(failed))
        message = next(message for fails, message in checks if fails[k])
        raise NotExact(message.format(k=k, gap=gap[k]))
    return log_a, log_b


def exact_sequence_iso(
    alpha: ModuleMorphism,
    beta: ModuleMorphism,
    e_prime: DetLineElement,
    e_second: DetLineElement,
) -> DetLineElement:
    """Canonical isomorphism det(M') (x) det(M'') -> det(M) of a short exact
    sequence 0 -> M' -a-> M -b-> M'' -> 0.

    The image is the element of the product ⟨r v, r w⟩' + ⟨b v, b w⟩'' on
    M, for a retraction r of alpha, times the incoming coordinates.  The
    result does not depend on the retraction: two retractions differ by
    gamma∘beta, an upper-triangular change with unit determinant, and the
    element is Det(b~ b~*)^(-1/2) Det(a~* a~)^(1/2) with every gram made the
    identity, so no retraction is taken as input or computed.  The endpoints
    are checked first.

    The pair is taken in the coordinates where its grams are the identity,
    a~ = G^(1/2) a G'^(-1/2) and b~ = G''^(1/2) b G^(-1/2)
    (modules.gram_coordinates), and _first_inexact's singular values both
    check and measure it.  T = <r v, r w>' + <b v, b w>'' is S^H S with
    S = [r~; b~], and when b a = 0

        [r~; b~] [a~, b~^H] = [[1, r~ b~^H], [0, b~ b~^H]],
        [a~, b~^H]^H [a~, b~^H] = diag(a~^H a~, b~ b~^H),

    so Det T = Det(b~ b~^H) / Det(a~^H a~) whichever the retraction: the
    coordinate is exp(sum_k w_k (sum log s(a~_k) - sum log s(b~_k))).  With
    E = b~ a~ the same products give, for the orthogonal retraction, Det T
    = Det(b~ b~^H - E (a~^H a~)^{-1} E^H) / Det(a~^H a~), so a composite
    that passes the check moves the coordinate at second order in ||E|| /
    (s_min(a~) s_min(b~)).
    """
    m = alpha.target
    if not beta.source.is_same_space(m):
        raise AlgebraMismatch("the two maps do not share the middle module")
    if not e_prime.module.is_same_space(alpha.source):
        raise AlgebraMismatch("first element does not live on the sub module")
    if not e_second.module.is_same_space(beta.target):
        raise AlgebraMismatch("second element does not live on the quotient module")

    a, b = alpha.stacked, beta.stacked
    log_a, log_b = _first_inexact(
        gram_coordinates(a, alpha.source, m), gram_coordinates(b, m, beta.target)
    )
    coeff = _positive(_inv_sqrt(-2.0 * float(np.sum((log_a - log_b) * m.algebra.weights))))
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
