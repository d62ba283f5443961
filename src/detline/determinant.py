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

A general invertible operator gets the polar route: Det|A| = Det(A* A)^(1/2)
from the singular values of each block.  Self-adjointness, positivity and
adjoints are taken against the module's reference gram; to measure against
another admissible gram, build the operator on module.with_reference_gram(gram).

Each route makes one LAPACK call per block shape, not per block: operators
keep their blocks stored by shape (modules.BlockStacks), and every check,
eigenvalue, SVD and log-determinant runs on the stored stacks.  The three
routes stay three LAPACK computations: an LU factorisation for the path,
singular values for the polar route and Hermitian eigenvalues for the
spectral one.
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


def spectral_density(
    module: HilbertianModule,
    op: CommutantOperator,
) -> SpectralDensity:
    """Eigenvalue distribution of a gram-self-adjoint positive operator.

    scale is the largest |eigenvalue| of the Hermitian parts (at most the
    operator norm) and the self-adjoint residual a Frobenius norm."""
    _check_operator(module, op)
    parts = []
    scale = residual = 0.0
    for idx, s in _tilde_blocks(module, op).nonempty():
        sh = s.conj().swapaxes(1, 2)
        ev = np.linalg.eigvalsh(0.5 * (s + sh))
        parts.append((np.repeat(idx, ev.shape[1]), ev.ravel()))
        scale = max(scale, float(np.max(np.abs(ev))))
        residual = max(residual, float(np.max(np.linalg.norm(s - sh, axis=(1, 2)))))
    if residual > SELF_ADJOINT_TOL * max(1.0, scale):
        raise NotSelfAdjoint("operator is not self-adjoint for this gram")
    density = SpectralDensity.from_parts(module.algebra.weights, parts)
    if density.values.size and density.values[0] < -1e-10 * max(1.0, scale):
        raise NegativeSpectrum(f"spectrum reaches {density.values[0]:.3e}")
    return density


def fk_det_spectral(
    module: HilbertianModule,
    op: CommutantOperator,
) -> DeterminantResult:
    """Determinant of a positive operator from its spectral density.

    Refuses (KernelDetected) if any spectral mass sits at zero, where the
    log integral is -inf; no number is produced in that case.
    """
    density = spectral_density(module, op)
    if density.total_mass == 0.0:
        # zero module: empty product
        return DeterminantResult(1.0, 0.0, "spectral")
    top = float(np.max(density.values))
    cut = KERNEL_REL_TOL * max(top, 1e-300)
    if np.any(density.values <= cut):
        mass = float(np.sum(density.weights[density.values <= cut]))
        raise KernelDetected(f"spectral mass {mass:.3e} at zero; determinant undefined")
    return DeterminantResult.from_log(density.log_moment(), "spectral")


def _weighted_sum(weights, per_block: dict) -> float:
    """sum_k w_k per_block[k] in block order."""
    return float(sum(weights[k] * float(per_block[k]) for k in sorted(per_block)))


def _require_invertible(groups) -> dict:
    """log|det| of each block, the sum of its log singular values, from one
    singular-value call per stack; refuses (NonInvertible) a block whose
    smallest singular value is at most INVERTIBLE_REL_TOL times its largest."""
    logs = {}
    for idx, s in groups:
        svals = np.linalg.svd(s, compute_uv=False)
        if np.any(svals[:, -1] <= INVERTIBLE_REL_TOL * np.maximum(svals[:, 0], 1e-300)):
            raise NonInvertible("operator has a (numerical) kernel")
        logs.update(zip(idx, np.sum(np.log(svals), axis=1)))
    return logs


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
    return DeterminantResult.from_log(_weighted_sum(module.algebra.weights, logdets), "path")


def fk_det(module: HilbertianModule, op: CommutantOperator) -> DeterminantResult:
    """Determinant of a general invertible operator: Det|A| = Det(A* A)^(1/2),
    sum_k w_k sum log s(A~_k) from the singular values that decide that A is
    invertible.  A* A, whose spectrum squares the condition number into the
    kernel cut, is not formed."""
    _check_operator(module, op)
    logs = _require_invertible(_tilde_blocks(module, op).nonempty())
    return DeterminantResult.from_log(_weighted_sum(module.algebra.weights, logs), "polar")
