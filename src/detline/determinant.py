"""Fuglede-Kadison determinants of commutant operators.

Two independent routes are kept deliberately separate and never collapsed:

* spectral: for positive operators, integrate log(lambda) against the
  spectral density (a finite weighted sum here);
* path: for invertible operators, telescope Re Tr_tau log(A_i^{-1} A_{i+1})
  along a path from the identity.  The algebra is a finite sum of matrix
  blocks, so each step's Re tr log r is log|det r| for every block.  Steps
  are subdivided until each ratio r satisfies ||r - 1|| < 1/2; that ball
  test is the guard that detects a path leaving the invertibles.

A general invertible operator gets the polar route: the square root of the
spectral determinant of A* A.  Self-adjointness, positivity and adjoints are
taken against the module's reference gram; to measure against another
admissible gram, build the operator on module.with_reference_gram(gram).

Each route makes one LAPACK call per block shape, not per block: the
nonempty blocks are stacked by shape once (_linalg.stacks), and every
check, eigenvalue, SVD, solve and log-determinant runs on the stack.  numpy
runs a stack one matrix at a time through the same LAPACK routine, so the
per-block numbers are those of separate calls, and the weighted sum is
taken in block order.  C[G] for G abelian has |G| blocks of size 1, all in
one stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ._linalg import stacks
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
PATH_STEP_BALL = 0.5
MAX_PATH_DEPTH = 48
PATH_STEPS = 8


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
    """Conjugate blocks into coordinates where the reference gram is the
    identity.

    W B W^{-1} with W = gram^(1/2) turns gram-self-adjoint into Hermitian
    and gram-unitary into unitary, block by block.  Under an identity gram
    the blocks already are in those coordinates.
    """
    g = module.reference_gram
    if g.is_identity:
        return op.blocks
    return [
        w @ b @ wi for w, b, wi in zip(g.sqrt_blocks, op.blocks, g.inv_sqrt_blocks)
    ]


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
    evs = {}
    scale = residual = 0.0
    for idx, s in stacks(_tilde_blocks(module, op)):
        sh = s.conj().swapaxes(1, 2)
        ev = np.linalg.eigvalsh(0.5 * (s + sh))
        evs.update(zip(idx, ev))
        scale = max(scale, float(np.max(np.abs(ev))))
        residual = max(residual, float(np.max(np.linalg.norm(s - sh, axis=(1, 2)))))
    if residual > SELF_ADJOINT_TOL * max(1.0, scale):
        raise NotSelfAdjoint("operator is not self-adjoint for this gram")
    if not evs:
        return SpectralDensity(np.zeros(0), np.zeros(0))
    ks = sorted(evs)  # block order
    values = np.concatenate([evs[k] for k in ks])
    weights = np.repeat(np.take(module.algebra.weights, ks), [evs[k].size for k in ks])
    if np.min(values) < -1e-10 * max(1.0, scale):
        raise NegativeSpectrum(f"spectrum reaches {np.min(values):.3e}")
    order = np.argsort(values)
    return SpectralDensity(values[order], weights[order])


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


def _require_invertible(groups):
    for _, s in groups:
        svals = np.linalg.svd(s, compute_uv=False)
        if np.any(svals[:, -1] <= INVERTIBLE_REL_TOL * np.maximum(svals[:, 0], 1e-300)):
            raise NonInvertible("operator has a (numerical) kernel")


def _telescope(blocks_at, t0, t1, indices, weights, depth=0):
    """Sum of w_k Re tr log(B_k(t0)^{-1} B_k(t1)), subdividing as needed.

    blocks_at(t) gives one stack per block shape, holding the blocks
    indices[i].  Re tr log r = log|det r| for an invertible matrix r.  A
    step is taken only once every ratio lies within PATH_STEP_BALL of the
    identity; a path through a singular point never gets there, and after
    MAX_PATH_DEPTH halvings it is refused.
    """
    b0 = blocks_at(t0)
    b1 = blocks_at(t1)
    worst = 0.0
    try:
        ratios = [np.linalg.solve(a, b) for a, b in zip(b0, b1)]
        for r in ratios:
            dev = np.linalg.svd(r - np.eye(r.shape[1]), compute_uv=False)[:, 0]
            worst = max(worst, float(np.max(dev)))
    except np.linalg.LinAlgError:
        worst = np.inf
    if worst < PATH_STEP_BALL:
        logdets = {}
        for idx, r in zip(indices, ratios):
            logdets.update(zip(idx, np.linalg.slogdet(r)[1]))
        return sum(weights[k] * float(logdets[k]) for k in sorted(logdets))
    if depth >= MAX_PATH_DEPTH:
        raise PathLeavesGL("path cannot be subdivided into invertible steps")
    mid = 0.5 * (t0 + t1)
    return _telescope(blocks_at, t0, mid, indices, weights, depth + 1) + _telescope(
        blocks_at, mid, t1, indices, weights, depth + 1
    )


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


def _positive_factor(s):
    """P = (b^H b)^(1/2) = V S V^H from the SVD b = W S V^H (b = (W V^H) P),
    for each b in a stack."""
    _, sv, vh = np.linalg.svd(s)
    return (vh.conj().swapaxes(1, 2) * sv[:, None, :]) @ vh


def fk_det_path(
    module: HilbertianModule,
    op: CommutantOperator,
    *,
    path: str = "auto",
) -> DeterminantResult:
    """Determinant of an invertible operator by telescoping along a path.

    path "segment" interpolates (1-t) 1 + t A and fails (PathLeavesGL) when
    that leaves the invertibles; "polar" takes the segment path to the
    positive factor |A| = (A* A)^(1/2) instead, which always stays
    invertible (A = U |A| with U unitary, and a unitary adds log|det U| = 0);
    "auto" picks segment when the spectrum clears the negative ray.
    """
    _check_operator(module, op)
    if path not in ("auto", "segment", "polar"):
        raise ValidationError(f"unknown path kind {path!r}")
    groups = stacks(_tilde_blocks(module, op))
    _require_invertible(groups)
    grid = np.linspace(0.0, 1.0, PATH_STEPS + 1)

    if path == "polar" or (path == "auto" and not _segment_is_safe(groups)):
        groups = [(idx, _positive_factor(s)) for idx, s in groups]
    indices = [idx for idx, _ in groups]
    eyes = [np.eye(s.shape[1], dtype=complex) for _, s in groups]

    def blocks_at(t):
        return [(1.0 - t) * e + t * s for e, (_, s) in zip(eyes, groups)]

    weights = module.algebra.weights
    log_det = sum(
        _telescope(blocks_at, grid[i], grid[i + 1], indices, weights)
        for i in range(PATH_STEPS)
    )
    return DeterminantResult.from_log(float(log_det), "path")


def fk_det(module: HilbertianModule, op: CommutantOperator) -> DeterminantResult:
    """Determinant of a general invertible operator: sqrt det of A* A."""
    _check_operator(module, op)
    _require_invertible(stacks(_tilde_blocks(module, op)))
    inner = op.adjoint() @ op
    try:
        inner_det = fk_det_spectral(module, inner)
    except KernelDetected as err:
        raise NonInvertible(str(err)) from err
    return DeterminantResult.from_log(0.5 * inner_det.log_value, "polar", inner_det.convergence)
