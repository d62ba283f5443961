"""Fuglede-Kadison determinants of commutant operators.

Two independent routes are kept deliberately separate and never collapsed:

* spectral: for positive operators, integrate log(lambda) against the
  spectral density (a finite weighted sum here);
* path: for invertible operators, telescope Re Tr_tau log(A_i^{-1} A_{i+1})
  along an invertibility-preserving path from the identity, subdividing
  until each ratio sits well inside the ball where the series logarithm
  converges.

A general invertible operator gets the polar route: the square root of the
spectral determinant of A* A.  Self-adjointness, positivity and adjoints are
all relative to an admissible gram.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import log_near_identity, operator_norm
from .errors import (
    KernelDetected,
    NegativeSpectrum,
    NonInvertible,
    NotSelfAdjoint,
    PathLeavesGL,
    ValidationError,
)
from .modules import CommutantOperator, HilbertianModule, resolve_gram

KERNEL_REL_TOL = 1e-12
SELF_ADJOINT_TOL = 1e-8
PATH_STEP_BALL = 0.5
MAX_PATH_DEPTH = 48


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

    def log_moment(self, lower: float = 0.0) -> float:
        """Integral of log(lambda) over atoms with lambda > lower."""
        keep = self.values > lower
        return float(np.sum(self.weights[keep] * np.log(self.values[keep])))


@dataclass
class DeterminantResult:
    value: float
    log_value: float
    method: str
    convergence: ConvergenceReport = field(default_factory=ConvergenceReport)


def _tilde_blocks(module, op, gram):
    """Conjugate blocks into coordinates where the gram is the identity.

    W B W^{-1} with W = gram^(1/2) turns gram-self-adjoint into Hermitian
    and gram-unitary into unitary, block by block.
    """
    g = resolve_gram(module, gram)
    return [
        w @ b @ wi for w, b, wi in zip(g.sqrt_blocks, op.blocks, g.inv_sqrt_blocks)
    ]


def _check_operator(module, op):
    if not isinstance(op, CommutantOperator):
        raise ValidationError("expected a CommutantOperator")
    if not op.module.is_same_space(module):
        raise ValidationError("operator lives on a different module")


def spectral_density(
    module: HilbertianModule,
    op: CommutantOperator,
    gram=None,
    *,
    self_adjoint_tol: float = SELF_ADJOINT_TOL,
) -> SpectralDensity:
    """Eigenvalue distribution of a gram-self-adjoint positive operator."""
    _check_operator(module, op)
    tilde = _tilde_blocks(module, op, gram)
    scale = max((operator_norm(b) for b in tilde), default=0.0)
    vals = []
    weights = []
    for (n, w), b in zip(module.algebra.blocks, tilde):
        if b.size == 0:
            continue
        if operator_norm(b - b.conj().T) > self_adjoint_tol * max(1.0, scale):
            raise NotSelfAdjoint("operator is not self-adjoint for this gram")
        ev = np.linalg.eigvalsh(0.5 * (b + b.conj().T))
        vals.append(ev)
        weights.append(np.full(ev.shape, w))
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
    gram=None,
    *,
    kernel_tol: float = KERNEL_REL_TOL,
) -> DeterminantResult:
    """Determinant of a positive operator from its spectral density.

    Refuses (KernelDetected) if any spectral mass sits at zero, where the
    log integral is -inf; no number is produced in that case.
    """
    density = spectral_density(module, op, gram)
    if density.total_mass == 0.0:
        # zero module: empty product
        return DeterminantResult(1.0, 0.0, "spectral")
    top = float(np.max(density.values))
    cut = kernel_tol * max(top, 1e-300)
    if np.any(density.values <= cut):
        mass = float(np.sum(density.weights[density.values <= cut]))
        raise KernelDetected(f"spectral mass {mass:.3e} at zero; determinant undefined")
    log_det = density.log_moment()
    return DeterminantResult(float(np.exp(log_det)), float(log_det), "spectral")


def _require_invertible(tilde, cond_tol=1e-12):
    for b in tilde:
        if b.size == 0:
            continue
        svals = np.linalg.svd(b, compute_uv=False)
        if svals[-1] <= cond_tol * max(svals[0], 1e-300):
            raise NonInvertible("operator has a (numerical) kernel")


def _telescope(blocks_at, t0, t1, weights, depth=0):
    """Sum of w_k Re tr log(B_k(t0)^{-1} B_k(t1)), subdividing as needed."""
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
        total = 0.0
        for w, r in zip(weights, ratios):
            if r.size:
                total += w * float(np.trace(log_near_identity(r)).real)
        return total
    if depth >= MAX_PATH_DEPTH:
        raise PathLeavesGL("path cannot be subdivided into invertible steps")
    mid = 0.5 * (t0 + t1)
    return _telescope(blocks_at, t0, mid, weights, depth + 1) + _telescope(
        blocks_at, mid, t1, weights, depth + 1
    )


def _segment_is_safe(tilde, tol=1e-8):
    """The straight path (1-t) 1 + t A misses GL iff A has spectrum on the
    closed negative real ray."""
    for b in tilde:
        if b.size == 0:
            continue
        eigs = np.linalg.eigvals(b)
        scale = max(1.0, float(np.max(np.abs(eigs))))
        for z in eigs:
            dist = abs(z.imag) if z.real < 0 else abs(z)
            if dist <= tol * scale:
                return False
    return True


def _unitary_power_path(u):
    """t -> u^t by spectral interpolation of the unitary eigenphases."""
    import scipy.linalg

    if u.size == 0:
        return lambda t: u
    tri, z = scipy.linalg.schur(u, output="complex")
    phases = np.angle(np.diag(tri))
    moduli = np.abs(np.diag(tri))

    def at(t):
        return (z * (moduli**t * np.exp(1j * t * phases))) @ z.conj().T

    return at


def fk_det_path(
    module: HilbertianModule,
    op: CommutantOperator,
    gram=None,
    *,
    steps: int = 8,
    path: str = "auto",
) -> DeterminantResult:
    """Determinant of an invertible operator by telescoping along a path.

    path "segment" interpolates (1-t) 1 + t A and fails (PathLeavesGL) when
    that leaves the invertibles; "polar" rotates the unitary part first and
    then stretches by the positive part, which always stays invertible;
    "auto" picks segment when the spectrum clears the negative ray.
    """
    _check_operator(module, op)
    if path not in ("auto", "segment", "polar"):
        raise ValidationError(f"unknown path kind {path!r}")
    tilde = _tilde_blocks(module, op, gram)
    _require_invertible(tilde)
    weights = [w for _, w in module.algebra.blocks]
    grid = np.linspace(0.0, 1.0, max(2, int(steps) + 1))

    if path == "auto":
        path = "segment" if _segment_is_safe(tilde) else "polar"

    if path == "segment":
        eyes = [np.eye(b.shape[0], dtype=complex) for b in tilde]

        def blocks_at(t):
            return [(1.0 - t) * e + t * b for e, b in zip(eyes, tilde)]

        log_det = sum(
            _telescope(blocks_at, grid[i], grid[i + 1], weights) for i in range(len(grid) - 1)
        )
        return DeterminantResult(float(np.exp(log_det)), float(log_det), "path")

    # polar: 1 -> U on t in [0, 1], then U -> U P on t in [1, 2]
    import scipy.linalg

    unitaries = []
    stretches = []
    for b in tilde:
        if b.size == 0:
            unitaries.append(b)
            stretches.append(b)
            continue
        uu, pp = scipy.linalg.polar(b)
        unitaries.append(uu)
        stretches.append(pp)
    u_paths = [_unitary_power_path(u) for u in unitaries]

    def blocks_at(t):
        out = []
        for u_at, u, p in zip(u_paths, unitaries, stretches):
            if u.size == 0:
                out.append(u)
            elif t <= 1.0:
                out.append(u_at(t))
            else:
                s = t - 1.0
                out.append(u @ ((1.0 - s) * np.eye(p.shape[0]) + s * p))
        return out

    full = np.concatenate([grid, 1.0 + grid[1:]])
    log_det = sum(
        _telescope(blocks_at, full[i], full[i + 1], weights) for i in range(len(full) - 1)
    )
    return DeterminantResult(float(np.exp(log_det)), float(log_det), "path")


def fk_det(module: HilbertianModule, op: CommutantOperator, gram=None) -> DeterminantResult:
    """Determinant of a general invertible operator: sqrt det of A* A."""
    _check_operator(module, op)
    tilde = _tilde_blocks(module, op, gram)
    _require_invertible(tilde)
    g = resolve_gram(module, gram)
    star = op.adjoint(source_gram=g, target_gram=g)
    inner = star @ op
    try:
        inner_det = fk_det_spectral(module, inner, gram)
    except KernelDetected as err:
        raise NonInvertible(str(err)) from err
    return DeterminantResult(
        float(np.sqrt(inner_det.value)),
        0.5 * inner_det.log_value,
        "polar",
        inner_det.convergence,
    )
