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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ._linalg import operator_norm
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


@dataclass
class DeterminantResult:
    value: float
    log_value: float
    method: str
    convergence: ConvergenceReport = field(default_factory=ConvergenceReport)


def _tilde_blocks(module, op):
    """Conjugate blocks into coordinates where the reference gram is the
    identity.

    W B W^{-1} with W = gram^(1/2) turns gram-self-adjoint into Hermitian
    and gram-unitary into unitary, block by block.
    """
    g = module.reference_gram
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
    tilde = _tilde_blocks(module, op)
    vals = []
    weights = []
    for (n, w), b in zip(module.algebra.blocks, tilde):
        if b.size == 0:
            continue
        ev = np.linalg.eigvalsh(0.5 * (b + b.conj().T))
        vals.append(ev)
        weights.append(np.full(ev.shape, w))
    scale = max((float(np.max(np.abs(ev))) for ev in vals), default=0.0)
    for b in tilde:
        if np.linalg.norm(b - b.conj().T) > SELF_ADJOINT_TOL * max(1.0, scale):
            raise NotSelfAdjoint("operator is not self-adjoint for this gram")
    if not vals:
        return SpectralDensity(np.zeros(0), np.zeros(0))
    values = np.concatenate(vals)
    weights = np.concatenate(weights)
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
    log_det = density.log_moment()
    return DeterminantResult(float(np.exp(log_det)), float(log_det), "spectral")


def _require_invertible(tilde):
    for b in tilde:
        if b.size == 0:
            continue
        svals = np.linalg.svd(b, compute_uv=False)
        if svals[-1] <= INVERTIBLE_REL_TOL * max(svals[0], 1e-300):
            raise NonInvertible("operator has a (numerical) kernel")


def _telescope(blocks_at, t0, t1, weights, depth=0):
    """Sum of w_k Re tr log(B_k(t0)^{-1} B_k(t1)), subdividing as needed.

    Re tr log r = log|det r| for an invertible matrix r.  A step is taken
    only once every ratio lies within PATH_STEP_BALL of the identity; a
    path through a singular point never gets there, and after
    MAX_PATH_DEPTH halvings it is refused.
    """
    b0 = blocks_at(t0)
    b1 = blocks_at(t1)
    ratios = []
    worst = 0.0
    try:
        for a, b in zip(b0, b1):
            if a.size == 0:
                ratios.append(a)
                continue
            r = np.linalg.solve(a, b)
            ratios.append(r)
            worst = max(worst, operator_norm(r - np.eye(r.shape[0])))
    except np.linalg.LinAlgError:
        worst = np.inf
    if worst < PATH_STEP_BALL:
        return sum(
            w * float(np.linalg.slogdet(r)[1]) for w, r in zip(weights, ratios) if r.size
        )
    if depth >= MAX_PATH_DEPTH:
        raise PathLeavesGL("path cannot be subdivided into invertible steps")
    mid = 0.5 * (t0 + t1)
    return _telescope(blocks_at, t0, mid, weights, depth + 1) + _telescope(
        blocks_at, mid, t1, weights, depth + 1
    )


def _segment_is_safe(tilde):
    """The straight path (1-t) 1 + t A misses GL iff A has spectrum on the
    closed negative real ray."""
    for b in tilde:
        if b.size == 0:
            continue
        eigs = np.linalg.eigvals(b)
        scale = max(1.0, float(np.max(np.abs(eigs))))
        for z in eigs:
            dist = abs(z.imag) if z.real < 0 else abs(z)
            if dist <= SEGMENT_REL_TOL * scale:
                return False
    return True


def _positive_factor(b):
    """P = (b^H b)^(1/2) = V S V^H from the SVD b = W S V^H (b = (W V^H) P)."""
    if b.size == 0:
        return b
    _, s, vh = np.linalg.svd(b)
    return (vh.conj().T * s) @ vh


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
    tilde = _tilde_blocks(module, op)
    _require_invertible(tilde)
    weights = [w for _, w in module.algebra.blocks]
    grid = np.linspace(0.0, 1.0, PATH_STEPS + 1)

    if path == "polar" or (path == "auto" and not _segment_is_safe(tilde)):
        tilde = [_positive_factor(b) for b in tilde]
    eyes = [np.eye(b.shape[0], dtype=complex) for b in tilde]

    def blocks_at(t):
        return [(1.0 - t) * e + t * b for e, b in zip(eyes, tilde)]

    log_det = sum(
        _telescope(blocks_at, grid[i], grid[i + 1], weights) for i in range(PATH_STEPS)
    )
    return DeterminantResult(float(np.exp(log_det)), float(log_det), "path")


def fk_det(module: HilbertianModule, op: CommutantOperator) -> DeterminantResult:
    """Determinant of a general invertible operator: sqrt det of A* A."""
    _check_operator(module, op)
    _require_invertible(_tilde_blocks(module, op))
    inner = op.adjoint() @ op
    try:
        inner_det = fk_det_spectral(module, inner)
    except KernelDetected as err:
        raise NonInvertible(str(err)) from err
    return DeterminantResult(
        float(np.sqrt(inner_det.value)),
        0.5 * inner_det.log_value,
        "polar",
        inner_det.convergence,
    )
