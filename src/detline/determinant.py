"""Fuglede-Kadison determinants of commutant operators.

Two independent routes are kept deliberately separate and never collapsed:

* spectral: for positive operators, integrate log(lambda) against the
  spectral density (a finite weighted sum here);
* path: for invertible operators, the integral of Re Tr_tau(A_t^{-1} dA_t)
  along a path A_t through the invertibles from the identity to A.  The
  algebra is a finite sum of matrix blocks and determinants multiply, so
  every subdivision of every such path telescopes to sum_k w_k log|det A_k|:
  the value does not depend on the path and is taken from one
  log-determinant (an LU factorisation) per block.  Which paths exist is
  decided by the spectrum: the straight segment (1-t) 1 + t A stays
  invertible iff no eigenvalue lies on the closed negative real ray.

A general invertible operator gets the polar route: the square root of the
spectral determinant of A* A.  Self-adjointness, positivity and adjoints are
taken against the module's reference gram; to measure against another
admissible gram, build the operator on module.with_reference_gram(gram).

Each route makes one LAPACK call per block shape, not per block: operators
keep their blocks stored by shape (modules.BlockStacks), and every check,
eigenvalue, SVD and log-determinant runs on the stored stacks.
numpy runs a stack one matrix at a time through the same LAPACK routine,
so the per-block numbers are those of separate calls, and the weighted sum
is taken in block order.  C[G] for G abelian has |G| blocks of size 1, all
in one stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    KernelDetected,
    NegativeSpectrum,
    NonInvertible,
    NotSelfAdjoint,
    PathLeavesGL,
    ValidationError,
)

if TYPE_CHECKING:  # the torus backend uses the result types without modules
    from .modules import CommutantOperator, HilbertianModule

KERNEL_REL_TOL = 1e-12
SELF_ADJOINT_TOL = 1e-8
INVERTIBLE_REL_TOL = 1e-12  # smallest singular value of an invertible block, relative
SEGMENT_REL_TOL = 1e-8  # distance of the spectrum from the negative ray, relative


@dataclass
class ConvergenceReport:
    status: str = "convergent"  # convergent | divergent | indeterminate
    diagnostics: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "convergent"


@dataclass
class SpectralDensity:
    """Trace-weighted eigenvalue distribution of a positive operator.

    kind "atomic": values/weights enumerate the finitely many atoms; the
    counting function is sum of weights at or below lambda.  kind "sampled"
    (torus backends): values/weights sample the density on a grid, carrying
    quadrature weights instead of exact masses.
    """

    values: np.ndarray
    weights: np.ndarray
    kind: str = "atomic"
    consistency: float | None = None  # sampled kind: counting-function gap
    # between the sampling grid and its refinement, sup over probe levels

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    @classmethod
    def from_parts(cls, weights, parts) -> "SpectralDensity":
        """The atomic density of eigenvalues given per stack as (owners,
        values), owners[i] the block of values[i]: the values in block order,
        sorted, each carrying its block's trace weight."""
        if not parts:
            return cls(np.zeros(0), np.zeros(0))
        owners, values = (np.concatenate(x) for x in zip(*parts))
        order = np.argsort(owners, kind="stable")  # block order
        values, owners = values[order], owners[order]
        order = np.argsort(values)
        return cls(values[order], np.asarray(weights)[owners[order]])

    def counting(self, lam: float) -> float:
        return float(np.sum(self.weights[self.values <= lam]))

    def log_moment(self) -> float:
        """Integral of log(lambda) over the atoms with lambda > 0."""
        keep = self.values > 0.0
        return float(np.sum(self.weights[keep] * np.log(self.values[keep])))


def exp_of_log(log_value: float) -> float:
    """exp(log_value): inf past the float range and 0.0 below it, without a
    floating-point warning."""
    with np.errstate(over="ignore"):
        return float(np.exp(log_value))


@dataclass
class DeterminantResult:
    value: float
    log_value: float
    method: str
    convergence: ConvergenceReport = field(default_factory=ConvergenceReport)

    @classmethod
    def from_log(cls, log_value: float, method: str, convergence=None) -> "DeterminantResult":
        """The result whose value is exp_of_log(log_value)."""
        return cls(exp_of_log(log_value), log_value, method, convergence or ConvergenceReport())


def _tilde_blocks(module, op):
    """The operator's block stacks in coordinates where the reference gram
    is the identity.

    W B W^{-1} with W = gram^(1/2) turns gram-self-adjoint into Hermitian
    and gram-unitary into unitary, block by block.  Under an identity gram
    the blocks already are in those coordinates.
    """
    g = module.reference_gram
    if g.is_identity:
        return op.stacked
    return g.sqrt @ op.stacked @ g.inv_sqrt


def _check_operator(module, op):
    from .modules import CommutantOperator

    if not isinstance(op, CommutantOperator):
        raise ValidationError("expected a CommutantOperator")
    if not op.module.is_same_space(module):
        raise ValidationError("operator lives on a different module")


def _hermitian_spectra(stacked) -> list:
    """(block indices, eigenvalues of the Hermitian parts, Frobenius norms
    of B - B^H) per nonempty stack, one eigvalsh call per stack."""
    out = []
    for idx, s in stacked.nonempty():
        sh = s.conj().swapaxes(1, 2)
        out.append((idx, np.linalg.eigvalsh(0.5 * (s + sh)), np.linalg.norm(s - sh, axis=(1, 2))))
    return out


def _density(weights, spectra) -> SpectralDensity:
    """The density of block spectra given as _hermitian_spectra gives them,
    once the blocks pass as self-adjoint and positive: the scale is the
    largest |eigenvalue| (at most the operator norm), and the self-adjoint
    residual the largest Frobenius norm."""
    scale = max((float(np.max(np.abs(ev))) for _, ev, _ in spectra), default=0.0)
    residual = max((float(np.max(r)) for _, _, r in spectra), default=0.0)
    if residual > SELF_ADJOINT_TOL * max(1.0, scale):
        raise NotSelfAdjoint("operator is not self-adjoint for this gram")
    parts = [(np.repeat(idx, ev.shape[1]), ev.ravel()) for idx, ev, _ in spectra]
    density = SpectralDensity.from_parts(weights, parts)
    if density.values.size and density.values[0] < -1e-10 * max(1.0, scale):
        raise NegativeSpectrum(f"spectrum reaches {density.values[0]:.3e}")
    return density


def spectral_density(
    module: HilbertianModule,
    op: CommutantOperator,
) -> SpectralDensity:
    """Eigenvalue distribution of a gram-self-adjoint positive operator."""
    _check_operator(module, op)
    return _density(module.algebra.weights, _hermitian_spectra(_tilde_blocks(module, op)))


def _log_det(density: SpectralDensity) -> float:
    """log Det of a positive operator from its spectral density; 0 on the
    zero module.  Refuses (KernelDetected) if any spectral mass sits at
    zero, where the log integral is -inf."""
    if density.total_mass == 0.0:
        return 0.0  # zero module: empty product
    top = float(np.max(density.values))
    cut = KERNEL_REL_TOL * max(top, 1e-300)
    if np.any(density.values <= cut):
        mass = float(np.sum(density.weights[density.values <= cut]))
        raise KernelDetected(f"spectral mass {mass:.3e} at zero; determinant undefined")
    return density.log_moment()


def fk_det_spectral(
    module: HilbertianModule,
    op: CommutantOperator,
) -> DeterminantResult:
    """Determinant of a positive operator from its spectral density.

    Refuses (KernelDetected) if any spectral mass sits at zero, where the
    log integral is -inf; no number is produced in that case.
    """
    return DeterminantResult.from_log(_log_det(spectral_density(module, op)), "spectral")


def _require_invertible(groups):
    for _, s in groups:
        svals = np.linalg.svd(s, compute_uv=False)
        if np.any(svals[:, -1] <= INVERTIBLE_REL_TOL * np.maximum(svals[:, 0], 1e-300)):
            raise NonInvertible("operator has a (numerical) kernel")


def _segment_is_safe(groups):
    """The straight path (1-t) 1 + t A misses GL iff A has spectrum on the
    closed negative real ray."""
    for _, s in groups:
        eigs = np.linalg.eigvals(s)
        scale = np.maximum(1.0, np.max(np.abs(eigs), axis=1, keepdims=True))
        dist = np.where(eigs.real < 0, np.abs(eigs.imag), np.abs(eigs))
        if np.any(dist <= SEGMENT_REL_TOL * scale):
            return False
    return True


def fk_det_path(
    module: HilbertianModule,
    op: CommutantOperator,
    *,
    path: str = "auto",
) -> DeterminantResult:
    """Determinant of an invertible operator as a path integral from the
    identity.

    Every path through the invertibles gives sum_k w_k log|det A_k|, so the
    value is one log-determinant per block whichever path is named; path
    only says which paths may be taken.  "segment" is the straight path
    (1-t) 1 + t A and is refused (PathLeavesGL) when the spectrum of A meets
    the closed negative real ray, where that path passes a singular
    operator.  "polar" goes through the positive factor |A| = (A* A)^(1/2),
    which always stays invertible (A = U |A| with U unitary, log|det U| = 0
    and det|A| = |det A|); "auto" takes the segment when it is invertible
    and the polar path otherwise, with the same value.
    """
    _check_operator(module, op)
    if path not in ("auto", "segment", "polar"):
        raise ValidationError(f"unknown path kind {path!r}")
    groups = _tilde_blocks(module, op).nonempty()
    _require_invertible(groups)
    if path == "segment" and not _segment_is_safe(groups):
        raise PathLeavesGL("the segment from the identity meets the negative real ray")
    logdets = {}
    for idx, s in groups:
        logdets.update(zip(idx, np.linalg.slogdet(s)[1]))
    weights = module.algebra.weights
    log_det = sum(weights[k] * float(logdets[k]) for k in sorted(logdets))
    return DeterminantResult.from_log(float(log_det), "path")


def fk_det(module: HilbertianModule, op: CommutantOperator) -> DeterminantResult:
    """Determinant of a general invertible operator: sqrt det of A* A."""
    _check_operator(module, op)
    _require_invertible(_tilde_blocks(module, op).nonempty())
    inner = op.adjoint() @ op
    try:
        inner_det = fk_det_spectral(module, inner)
    except KernelDetected as err:
        raise NonInvertible(str(err)) from err
    return DeterminantResult.from_log(0.5 * inner_det.log_value, "polar", inner_det.convergence)
