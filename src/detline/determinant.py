"""Fuglede-Kadison determinants of commutant operators.

Three independent routes are kept deliberately separate and never
collapsed:

* spectral: for positive operators, integrate log(lambda) against the
  spectral density (a finite weighted sum here);
* path: for invertible operators, the integral of Re Tr_tau(A_t^{-1} dA_t)
  along a path A_t through the invertibles from the identity to A.  The
  algebra is a finite sum of matrix blocks and determinants multiply, so
  every subdivision of every such path telescopes to sum_k w_k log|det A_k|:
  the value does not depend on the path and is taken from one
  log-determinant (an LU factorisation) per block.  GL of a finite sum of
  matrix algebras is connected, so such a path always exists;
* polar: for a general invertible operator, Det|A| = Det(A* A)^(1/2) from
  the singular values of each block.

Self-adjointness, positivity and
adjoints are taken against the module's reference gram; to measure against
another admissible gram, build the operator on module.with_reference_gram(gram).
Every route reads the blocks A~ = G^(1/2) A G^(-1/2) of modules.gram_coordinates.

Each route makes one LAPACK call per block shape, not per block: operators
keep their blocks stored by shape (modules.BlockStacks), and every check,
eigenvalue, SVD and log-determinant runs on the stored stacks.  The three
routes stay three LAPACK computations: an LU factorisation for the path,
singular values for the polar route and Hermitian eigenvalues for the
spectral one.  The path and the polar route decide invertibility by the
package's one test, BlockStacks.invertible_logs, which reads the
singular-value pass the stacks keep, as ModuleMorphism.is_iso and
lines.pushforward do.  Under an identity gram A~ is A's own stacks, so a
determinant of an operator whose invertibility was already tested takes
no second SVD.
numpy runs a stack one matrix at a time through the same LAPACK routine,
so the per-block numbers are those of separate calls, and the weighted sum
is taken in block order.  C[G] for G abelian has |G| blocks of size 1, all
in one stack.  detline.modules is imported only when an operator is read,
so the torus backend, which uses the result types alone, never loads it.
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
    ValidationError,
)

if TYPE_CHECKING:  # the torus backend uses the result types without modules
    from .modules import CommutantOperator, HilbertianModule

KERNEL_REL_TOL = 1e-12
SELF_ADJOINT_TOL = 1e-8


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

    values/weights enumerate the finitely many atoms; the counting function
    is the sum of the weights at or below lambda.
    """

    values: np.ndarray
    weights: np.ndarray

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
    """The block stacks of op, a commutant operator on module, in
    coordinates where the reference gram is the identity.

    W B W^{-1} with W = gram^(1/2) turns gram-self-adjoint into Hermitian
    and gram-unitary into unitary, block by block.  Under an identity gram
    the blocks already are in those coordinates.
    """
    from .modules import CommutantOperator, gram_coordinates

    if not isinstance(op, CommutantOperator):
        raise ValidationError("expected a CommutantOperator")
    if not op.module.is_same_space(module):
        raise ValidationError("operator lives on a different module")
    return gram_coordinates(op.stacked, module, module)


def spectral_density(
    module: HilbertianModule,
    op: CommutantOperator,
) -> SpectralDensity:
    """Eigenvalue distribution of a gram-self-adjoint positive operator.

    scale is the largest |eigenvalue| of the Hermitian parts (at most the
    operator norm) and the self-adjoint residual a Frobenius norm."""
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


def _weighted_sum(weights, per_block) -> float:
    """sum_k w_k per_block[k] in block order."""
    return float(sum(w * float(x) for w, x in zip(weights, per_block)))


def _require_invertible(tilde) -> np.ndarray:
    """log|det| of each block, the sum of its log singular values, from
    BlockStacks.invertible_logs; refuses (NonInvertible) where it finds a
    block not invertible."""
    logs = tilde.invertible_logs()
    if logs is None:
        raise NonInvertible("operator has a (numerical) kernel")
    return logs


def fk_det_path(module: HilbertianModule, op: CommutantOperator) -> DeterminantResult:
    """Determinant of an invertible operator as a path integral from the
    identity.

    Every path through the invertibles gives sum_k w_k log|det A_k|, so the
    value is one log-determinant per block, whichever path is taken: the
    straight segment (1-t) 1 + t A where it stays invertible, or the polar
    path through |A| = (A* A)^(1/2), which always does (A = U |A| with U
    unitary, log|det U| = 0 and det|A| = |det A|).  An eigenvalue on the
    negative real ray therefore changes no value.
    """
    tilde = _tilde_blocks(module, op)
    _require_invertible(tilde)
    logdets = np.zeros(len(tilde.layout.rows))
    for idx, s in tilde.nonempty():
        logdets[idx] = np.linalg.slogdet(s)[1]
    return DeterminantResult.from_log(_weighted_sum(module.algebra.weights, logdets), "path")


def fk_det(module: HilbertianModule, op: CommutantOperator) -> DeterminantResult:
    """Determinant of a general invertible operator: Det|A| = Det(A* A)^(1/2),
    sum_k w_k sum log s(A~_k) from the singular values that decide that A is
    invertible.  A* A, whose spectrum squares the condition number into the
    kernel cut, is not formed."""
    logs = _require_invertible(_tilde_blocks(module, op))
    return DeterminantResult.from_log(_weighted_sum(module.algebra.weights, logs), "polar")
