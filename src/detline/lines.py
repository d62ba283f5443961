"""Determinant lines of Hilbertian modules.

The determinant line of a module is one-dimensional and oriented, so an
element is stored as a single positive coordinate against the symbol of the
module's reference scalar product.  Re-expressing against another admissible
product multiplies the coordinate by Det_tau(A)^(-1/2), where A is the
transition operator of the pair.  All constructions below (pushforward,
direct sums, exact sequences, graded assembly) reduce to determinants of
explicit transition operators; positivity of every coordinate is enforced.
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
    resolve_gram,
)

EXACTNESS_TOL = 1e-8
CLOSE_REL_TOL = 1e-10  # relative coordinate difference of is_close_to


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
        c = float(self.coefficient)
        if not (math.isfinite(c) and c > 0.0):
            raise ValidationError(f"determinant line coordinate must be positive, got {c!r}")
        object.__setattr__(self, "coefficient", c)

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


def _inv_sqrt(det) -> float:
    """Det^(-1/2), taken from the log so that a Det which underflows to 0 is
    never inverted."""
    try:
        return math.exp(-0.5 * det.log_value)
    except OverflowError:
        raise ValidationError(
            f"determinant line coordinate overflows (log {-0.5 * det.log_value:.1f})"
        ) from None


def _product_element(module, gram, origin) -> DetLineElement:
    """Det(T)^(-1/2) for the transition T = G_ref^{-1} G of a product G,
    given by its block stacks."""
    det = _transition_det(module, module.reference_gram.inv_times(gram))
    return DetLineElement(module, _inv_sqrt(det), origin)


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
    its determinant to the -1/2 rescales the coordinate.  For an
    automorphism with matching references this is multiplication by
    Det_tau(f).
    """
    if not e.module.is_same_space(f.source):
        raise AlgebraMismatch("element does not live on the source of the morphism")
    try:
        finv = f.inverse()
    except NotIso as err:
        raise NotIso("pushforward needs an isomorphism") from err
    det = fk_det_spectral(f.target, finv.adjoint() @ finv)
    return DetLineElement(f.target, e.coefficient * _inv_sqrt(det), "pushforward")


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


def _svd(a: np.ndarray, vectors: bool, full_matrices: bool):
    """(u, s, vh) of a, or (None, s, None) where no check reads vectors."""
    if not vectors:
        return None, np.linalg.svd(a, compute_uv=False), None
    return np.linalg.svd(a, full_matrices=full_matrices)


def _check_exact(alpha: ModuleMorphism, beta: ModuleMorphism, tol: float):
    """alpha injective, beta surjective, im(alpha) = ker(beta) blockwise.

    The blocks are grouped by the shapes of both maps, and each group takes
    one SVD of each map's stack for the ranks and the norms; the composite
    and the gap are Frobenius norms.  Singular vectors are taken only where
    0 < cols(alpha) < rows(alpha) = cols(alpha) + rows(beta): there the
    image frame is the left vectors of alpha and the kernel frame the
    trailing right vectors of beta.  Elsewhere the checks before the gap
    test fix the verdict: alpha with no columns has no image to compare, a
    square injective alpha leaves beta no rows, so both subspaces are the
    block, and dimensions that do not add up fail the rank test.  The first
    failing block is reported, with its first failing check.
    """
    if not beta.source.is_same_space(alpha.target):
        raise AlgebraMismatch("the two maps do not share the middle module")
    rows = np.array(alpha.target.multiplicities)
    cols = np.array(alpha.source.multiplicities)
    quot = np.array(beta.target.multiplicities)
    n = len(rows)
    rank_a, rank_b = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    top_a, top_b, composite, gap = np.zeros((4, n))
    for idx, b, a in beta.stacked.pairs(alpha.stacked):
        k = idx[0]
        gapped = 0 < cols[k] < rows[k] == cols[k] + quot[k]
        if a.size:
            u_a, s_a, _ = _svd(a, gapped, False)
            top_a[idx] = s_a[:, 0]
            rank_a[idx] = np.sum(s_a > tol * np.maximum(1.0, s_a[:, :1]), axis=1)
        if b.size:
            _, s_b, vh_b = _svd(b, gapped, True)
            top_b[idx] = s_b[:, 0]
            rank_b[idx] = np.sum(s_b > tol * np.maximum(1.0, s_b[:, :1]), axis=1)
            if a.size:
                composite[idx] = np.linalg.norm(b @ a, axis=(1, 2))
        if gapped:
            kernel = vh_b[:, quot[k] :].conj().swapaxes(1, 2)
            gap[idx] = np.linalg.norm(
                u_a @ u_a.conj().swapaxes(1, 2) - kernel @ kernel.conj().swapaxes(1, 2),
                axis=(1, 2),
            )
    scale = max(np.max(top_a) * np.max(top_b), 1.0)
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


def exact_sequence_iso(
    alpha: ModuleMorphism,
    beta: ModuleMorphism,
    e_prime: DetLineElement,
    e_second: DetLineElement,
    retraction: ModuleMorphism | None = None,
) -> DetLineElement:
    """Canonical isomorphism det(M') (x) det(M'') -> det(M) of a short exact
    sequence 0 -> M' -a-> M -b-> M'' -> 0.

    Builds the product ⟨r v, r w⟩' + ⟨b v, b w⟩'' on M, where r is a
    retraction of alpha (by default the orthogonal one for the reference
    product of M); the element of that product times the incoming
    coordinates is the image.  The result does not depend on the retraction:
    two retractions differ by gamma∘beta, an upper-triangular change with
    unit determinant.
    """
    _check_exact(alpha, beta, EXACTNESS_TOL)
    m = alpha.target
    if not e_prime.module.is_same_space(alpha.source):
        raise AlgebraMismatch("first element does not live on the sub module")
    if not e_second.module.is_same_space(beta.target):
        raise AlgebraMismatch("second element does not live on the quotient module")

    if retraction is None:
        # orthogonal retraction for M's reference: project onto im(alpha),
        # then invert alpha on its image, r = (a^H G a)^{-1} a^H G; a block
        # with no columns keeps its empty a^H G
        ahg = m.reference_gram.right_times(alpha.stacked.H)
        # ahg has alpha's transposed layout: its stacks pair with alpha's
        r = BlockStacks(ahg.layout, tuple(
            np.linalg.solve(h @ a, h) if a.size else h
            for h, a in zip(ahg.stacks, alpha.stacked.stacks)
        ))
        retraction = ModuleMorphism._of(m, alpha.source, r)
    else:
        if not (
            retraction.source.is_same_space(m)
            and retraction.target.is_same_space(alpha.source)
        ):
            raise AlgebraMismatch("retraction endpoints do not match the sequence")
        resid = (retraction @ alpha) - CommutantOperator.identity(alpha.source)
        if resid.norm() > EXACTNESS_TOL * max(1.0, retraction.norm() * alpha.norm()):
            raise ValidationError("retraction does not split the first map")

    rhg = alpha.source.reference_gram.right_times(retraction.stacked.H)
    bhg = beta.target.reference_gram.right_times(beta.stacked.H)
    combined = rhg @ retraction.stacked + bhg @ beta.stacked
    det = _transition_det(m, m.reference_gram.inv_times(combined))
    coeff = _inv_sqrt(det) * e_prime.coefficient * e_second.coefficient
    return DetLineElement(m, coeff, "exact_sequence")


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
