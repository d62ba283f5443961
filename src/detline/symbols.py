"""Finite Laurent symbols over the torus: the abelian backend.

Convolution operators on square-summable sequences indexed by Z^n become,
after Fourier transform, multiplication by a matrix-valued function on the
n-torus, and the trace becomes integration over the torus.  This module
represents such operators by their finitely many convolution coefficients,
so it covers exactly the matrix Laurent polynomials, on tori of rank
n <= 2.

Determinants are Mahler measures.  For a square symbol F whose determinant
does not vanish identically, log Det F is the torus integral of
log|det F|, the Mahler measure m(det F) (Lück, L2-Invariants, Ch. 3), and
detline._mahler computes it: Jensen's formula on the roots on the circle,
Boyd's integral of it on the 2-torus, where Jensen's formula takes the
variable of lower degree and the quadrature the angle of the other: the
equispaced trapezoid rule while no root crosses the circle and the
determinant's degree in that angle's variable is below 16, otherwise
adaptive Gauss-Legendre panels between the crossings.  A symbol whose
determinant would leave the float range is measured after an exact
power-of-two scaling.  A nonzero Laurent polynomial always has a finite
Mahler measure, so the only refusals are a determinant that vanishes
identically, roots that do not reproduce the polynomial they came from, and
quadrature panels that do not settle within their budget.

Positivity needs no sampled grid: the inertia of a Hermitian symbol is
constant between the zeros of its determinant (see abelian_fk_det).  Nor
does kernel rank: the rank of a symbol drops only on the zero set of a
nonzero trigonometric polynomial, so it is the generic rank, which one
sample on the grid fixed by the coefficients decides.  Torsion takes one
such rank and one Mahler measure per boundary map, not per degree: the
Laplacian of a degree splits into the Gram matrices of its two adjacent
maps (see abelian_torsion).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from ._linalg import as_complex_matrix
from .determinant import ConvergenceReport, DeterminantResult, exp_of_log
from .errors import (
    AlgebraMismatch,
    BackendUnsupported,
    IllConditionedKernel,
    IndeterminateConvergence,
    KernelDetected,
    NegativeSpectrum,
    NotDenselyExact,
    NotHermitianSymbol,
    ShapeMismatch,
    ValidationError,
)

MAX_TORUS_RANK = 2
DEFAULT_RESOLUTION = {1: 4096, 2: 64}
GRID_BLOCK = 4096

HERMITIAN_SYMBOL_TOL = 1e-10
TORSION_KERNEL_TOL = 1e-10


def _as_exponent(key, rank):
    if isinstance(key, numbers.Integral):
        key = (int(key),)
    try:
        exponent = tuple(int(k) for k in key)
    except (TypeError, ValueError):
        raise ShapeMismatch(f"exponent {key!r} is not a tuple of integers")
    if len(exponent) != rank:
        raise ShapeMismatch(
            f"exponent {exponent} has length {len(exponent)}, rank is {rank}"
        )
    return exponent


class LaurentMatrix:
    """Matrix Laurent polynomial sum_k c_k t^k on the rank-n torus.

    coefficients maps integer exponent tuples k to complex matrices c_k, all
    of one shape.  The product is convolution of coefficients and matches
    the pointwise matrix product of the evaluated symbols; the adjoint
    conjugate-transposes each coefficient and negates its exponent, matching
    the pointwise conjugate transpose.
    """

    __slots__ = ("rank", "shape", "coefficients")

    def __init__(self, rank: int, coefficients, *, shape=None):
        if not isinstance(rank, numbers.Integral) or rank < 1:
            raise ValidationError(f"torus rank must be a positive integer, got {rank!r}")
        if rank > MAX_TORUS_RANK:
            raise BackendUnsupported(
                f"torus rank {rank} is not supported, maximum is {MAX_TORUS_RANK}"
            )
        self.rank = int(rank)
        cleaned = {}
        for key, value in dict(coefficients).items():
            exponent = _as_exponent(key, self.rank)
            matrix = as_complex_matrix(value)
            if shape is None:
                shape = matrix.shape
            elif matrix.shape != tuple(shape):
                raise ShapeMismatch(
                    f"coefficient at {exponent} has shape {matrix.shape}, expected {tuple(shape)}"
                )
            if exponent in cleaned:
                raise ValidationError(f"duplicate exponent {exponent}")
            if np.count_nonzero(matrix):
                cleaned[exponent] = matrix
        if shape is None:
            raise ValidationError("shape is required when there are no coefficients")
        self.shape = (int(shape[0]), int(shape[1]))
        self.coefficients = dict(sorted(cleaned.items()))

    @classmethod
    def zero(cls, rank: int, shape=(1, 1)):
        return cls(rank, {}, shape=shape)

    @classmethod
    def constant(cls, matrix, rank: int = 1):
        matrix = as_complex_matrix(matrix)
        zero = (0,) * rank
        return cls(rank, {zero: matrix}, shape=matrix.shape)

    @classmethod
    def identity(cls, rank: int = 1, size: int = 1):
        return cls.constant(np.eye(size), rank)

    @classmethod
    def monomial(cls, exponent, size: int = 1, matrix=None, rank=None):
        """t^k times a matrix (identity by default)."""
        if isinstance(exponent, numbers.Integral):
            exponent = (int(exponent),)
        exponent = tuple(int(k) for k in exponent)
        if rank is None:
            rank = len(exponent)
        if matrix is None:
            matrix = np.eye(size)
        matrix = as_complex_matrix(matrix)
        return cls(rank, {exponent: matrix}, shape=matrix.shape)

    @classmethod
    def from_scalar(cls, coefficients, rank: int = 1):
        """1x1 symbol from a mapping exponent -> complex number."""
        terms = {
            _as_exponent(key, rank): np.array([[value]], dtype=complex)
            for key, value in dict(coefficients).items()
        }
        return cls(rank, terms, shape=(1, 1))

    @property
    def size(self) -> int:
        if self.shape[0] != self.shape[1]:
            raise ShapeMismatch(f"symbol of shape {self.shape} is not square")
        return self.shape[0]

    def coefficient(self, exponent):
        exponent = _as_exponent(exponent, self.rank)
        value = self.coefficients.get(exponent)
        if value is None:
            return np.zeros(self.shape, dtype=complex)
        return value.copy()

    @property
    def constant_coefficient(self):
        return self.coefficient((0,) * self.rank)

    def _check_rank(self, other):
        if not isinstance(other, LaurentMatrix):
            raise ValidationError("expected a LaurentMatrix")
        if other.rank != self.rank:
            raise AlgebraMismatch(f"torus ranks differ: {self.rank} vs {other.rank}")

    def __add__(self, other):
        self._check_rank(other)
        if other.shape != self.shape:
            raise ShapeMismatch(f"shapes differ: {self.shape} vs {other.shape}")
        terms = {k: v.copy() for k, v in self.coefficients.items()}
        for k, v in other.coefficients.items():
            terms[k] = terms[k] + v if k in terms else v
        return LaurentMatrix(self.rank, terms, shape=self.shape)

    def __neg__(self):
        return LaurentMatrix(
            self.rank,
            {k: -v for k, v in self.coefficients.items()},
            shape=self.shape,
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        if isinstance(scalar, (numbers.Number, np.number)):
            return LaurentMatrix(
                self.rank,
                {k: scalar * v for k, v in self.coefficients.items()},
                shape=self.shape,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check_rank(other)
        if self.shape[1] != other.shape[0]:
            raise ShapeMismatch(
                f"inner dimensions differ: {self.shape} times {other.shape}"
            )
        terms = {}
        for k1, c1 in self.coefficients.items():
            for k2, c2 in other.coefficients.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                product = c1 @ c2
                terms[key] = terms[key] + product if key in terms else product
        return LaurentMatrix(
            self.rank, terms, shape=(self.shape[0], other.shape[1])
        )

    def adjoint(self):
        return LaurentMatrix(
            self.rank,
            {
                tuple(-a for a in k): v.conj().T
                for k, v in self.coefficients.items()
            },
            shape=(self.shape[1], self.shape[0]),
        )

    def evaluate(self, theta):
        """The symbol at a point of [0,1)^rank."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape != (self.rank,):
            raise ShapeMismatch(f"expected {self.rank} angles, got shape {theta.shape}")
        total = np.zeros(self.shape, dtype=complex)
        for k, c in self.coefficients.items():
            total += np.exp(2j * np.pi * float(np.dot(k, theta))) * c
        return total

    def evaluate_grid(self, nodes):
        """Stack of symbol values at nodes of shape (N, rank)."""
        nodes = np.asarray(nodes, dtype=float)
        keys = np.array(list(self.coefficients), dtype=int).reshape(-1, self.rank)
        size = self.shape[0] * self.shape[1]
        terms = np.array(list(self.coefficients.values()), dtype=complex).reshape(len(keys), size)
        out = np.zeros((nodes.shape[0], size), dtype=complex)
        # one exponential per axis and node; each term's phase is a product
        # of integer powers of those.  Blocks of nodes keep the phase matrix
        # small next to the output.
        for start in range(0, nodes.shape[0], GRID_BLOCK):
            block = nodes[start : start + GRID_BLOCK]
            phases = np.ones((block.shape[0], len(keys)), dtype=complex)
            for axis in range(self.rank):
                unit = np.exp(2j * np.pi * block[:, axis])
                for k in set(keys[:, axis].tolist()):
                    if k:
                        phases[:, keys[:, axis] == k] *= (unit**k)[:, None]
            out[start : start + GRID_BLOCK] = phases @ terms
        return out.reshape((nodes.shape[0],) + self.shape)

    def is_hermitian(self) -> bool:
        """Coefficient-wise check that the evaluated symbol is Hermitian.

        F(theta)^H == F(theta) for all theta iff c_{-k} == c_k^H for all k.
        """
        if self.shape[0] != self.shape[1]:
            return False
        scale = max(1.0, _entry_scale(self.coefficients.values()))
        for k, c in self.coefficients.items():
            mirror = self.coefficients.get(tuple(-a for a in k))
            partner = np.zeros(self.shape, dtype=complex) if mirror is None else mirror
            if np.linalg.norm(partner - c.conj().T) > HERMITIAN_SYMBOL_TOL * scale:
                return False
        return True

    def require_hermitian(self):
        if not self.is_hermitian():
            raise NotHermitianSymbol(
                "symbol coefficients do not satisfy c(-k) == c(k)^H"
            )

    def __repr__(self):
        return (
            f"LaurentMatrix(rank={self.rank}, shape={self.shape}, "
            f"terms={len(self.coefficients)})"
        )


@dataclass(frozen=True)
class TorusGrid:
    """Uniform midpoint grid on [0,1)^rank with equal quadrature weights."""

    rank: int
    resolution: int

    def __post_init__(self):
        for name in ("rank", "resolution"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"grid {name} must be an integer, got {value!r}")
        if self.rank < 1 or self.rank > MAX_TORUS_RANK:
            raise BackendUnsupported(
                f"torus rank {self.rank} is not supported, maximum is {MAX_TORUS_RANK}"
            )
        if self.resolution < 2:
            raise ValidationError("grid resolution must be at least 2")

    @classmethod
    def default(cls, rank: int):
        if rank not in DEFAULT_RESOLUTION:
            raise BackendUnsupported(
                f"torus rank {rank} is not supported, maximum is {MAX_TORUS_RANK}"
            )
        return cls(rank, DEFAULT_RESOLUTION[rank])

    @property
    def total(self) -> int:
        return self.resolution**self.rank

    def nodes(self):
        axis = (np.arange(self.resolution) + 0.5) / self.resolution
        if self.rank == 1:
            return axis[:, None]
        mesh = np.meshgrid(*([axis] * self.rank), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def _resolve_grid(symbol: LaurentMatrix, grid) -> TorusGrid:
    if grid is None:
        return TorusGrid.default(symbol.rank)
    if not isinstance(grid, TorusGrid):
        raise ValidationError("expected a TorusGrid")
    if grid.rank != symbol.rank:
        raise AlgebraMismatch(
            f"grid rank {grid.rank} does not match symbol rank {symbol.rank}"
        )
    return grid


def laurent_trace(symbol: LaurentMatrix) -> complex:
    """Matrix trace of the constant coefficient.

    Equals the integral of tr F(theta) over the torus; the resulting trace
    is unnormalized, giving the identity of size m total mass m.
    """
    if symbol.shape[0] != symbol.shape[1]:
        raise ShapeMismatch(f"symbol of shape {symbol.shape} has no trace")
    return complex(np.trace(symbol.constant_coefficient))


def _hermitian_branches(symbol, nodes):
    """Refuses (NegativeSpectrum) a Hermitian symbol whose eigenvalue
    branches reach below zero at the nodes."""
    samples = symbol.evaluate_grid(nodes)
    samples += np.conj(np.swapaxes(samples, -1, -2))
    samples *= 0.5
    values = np.linalg.eigvalsh(samples)
    floor = -1e-10 * max(1.0, float(np.max(np.abs(values), initial=0.0)))
    if float(np.min(values, initial=0.0)) < floor:
        raise NegativeSpectrum("symbol has eigenvalue branches below zero")


def _log_det(symbol, vanishing, message):
    """(m(det F), report, points): the points are the Mahler measure's
    probes, one per arc between the roots of det F near the unit circle on
    every circle solved, and the newton_nodes of det F."""
    # loaded on first use: a CLI process that takes no torus determinant
    # does not compile the Mahler measure code
    from ._mahler import newton_nodes, torus_log_det

    log_value, diagnostics, probes = torus_log_det(symbol, vanishing, message)
    points = np.concatenate([probes, newton_nodes(symbol, symbol.size)])
    return log_value, ConvergenceReport("convergent", diagnostics), points


@dataclass
class AbelianClassReport:
    """Determinant-class verdict of a positive symbol, and its determinant."""

    verdict: ConvergenceReport
    refusal: str | None
    value: float | None
    log_value: float | None

    @property
    def passed(self) -> bool:
        return self.refusal is None


def abelian_determinant_class_check(symbol: LaurentMatrix) -> AbelianClassReport:
    """abelian_fk_det as a report: its refusals become the verdict."""
    try:
        result = abelian_fk_det(symbol)
    except (KernelDetected, IndeterminateConvergence) as exc:
        status = "divergent" if isinstance(exc, KernelDetected) else "indeterminate"
        verdict = ConvergenceReport(status, {"reason": str(exc)})
        return AbelianClassReport(verdict, type(exc).__name__, None, None)
    return AbelianClassReport(result.convergence, None, result.value, result.log_value)


def abelian_fk_det(symbol: LaurentMatrix) -> DeterminantResult:
    """Determinant of a positive symbol: exp m(det F).

    The symbol must be Hermitian, and its inertia is constant between the
    zeros of det F: its eigenvalue branches must stay above the
    NegativeSpectrum floor at the Mahler measure's probe points, one per arc
    between roots on each circle solved, and at the newton_nodes that scale
    the floor.  det F vanishing identically raises KernelDetected.
    """
    symbol.require_hermitian()
    log_value, verdict, points = _log_det(
        symbol, KernelDetected, "positive spectral mass at zero"
    )
    _hermitian_branches(symbol, points)
    return DeterminantResult.from_log(log_value, "spectral", verdict)


def abelian_fk_det_general(
    symbol: LaurentMatrix, grid: TorusGrid | None = None
) -> DeterminantResult:
    """Determinant of a general square symbol: exp m(det F).

    This is the determinant of |F| = (F^H F)^(1/2), since
    log|det F| = sum log sigma_i pointwise.  `grid` is only validated, for
    old callers.  det F vanishing identically raises KernelDetected.
    """
    if symbol.shape[0] != symbol.shape[1]:
        raise ShapeMismatch(f"symbol of shape {symbol.shape} has no determinant")
    _resolve_grid(symbol, grid)
    log_value, verdict, _ = _log_det(
        symbol, KernelDetected, "determinant vanishes identically"
    )
    return DeterminantResult.from_log(log_value, "polar", verdict)


@dataclass
class DenseIsoReport:
    """A square symbol certified injective with dense image, and its
    determinant.  minimum_modulus is the smallest |det F| at the Mahler
    measure's probe points and the newton_nodes of det F."""

    determinant: float
    log_determinant: float
    verdict: ConvergenceReport
    minimum_modulus: float


def abelian_dense_isomorphism_check(symbol: LaurentMatrix) -> DenseIsoReport:
    """Certify that multiplication by the symbol is injective with dense
    image, or refuse with NotDenselyExact.

    That holds exactly when det F(theta) does not vanish identically: it is
    a trigonometric polynomial, so its zero set otherwise has measure zero,
    which dense image tolerates, and m(det F) is then finite; _mahler decides
    it on det F's Newton box.  minimum_modulus is the smallest |det F| at the
    probe points the Mahler measure returns, one per arc between the roots
    of det F near the unit circle on every circle solved, and at the
    newton_nodes, which include theta = 0.
    """
    if symbol.shape[0] != symbol.shape[1]:
        raise ShapeMismatch(f"symbol of shape {symbol.shape} is not square")
    log_value, verdict, points = _log_det(
        symbol, NotDenselyExact, "symbol determinant vanishes identically"
    )
    log_moduli = np.linalg.slogdet(symbol.evaluate_grid(points))[1]
    return DenseIsoReport(
        exp_of_log(log_value), log_value, verdict, exp_of_log(np.min(log_moduli))
    )


@dataclass
class AbelianTorsionReport:
    betti: tuple
    euler_characteristic: int
    coordinate: float
    log_coordinate: float
    degree_log_determinants: tuple
    verdicts: tuple
    convention: str


def _torsion_ranks(boundaries, convention):
    if convention == "chain":
        ranks = [boundaries[0].shape[0]]
        for i, b in enumerate(boundaries):
            if b.shape[0] != ranks[-1]:
                raise ShapeMismatch(
                    f"map {i} has {b.shape[0]} rows, degree {i} has rank {ranks[-1]}"
                )
            ranks.append(b.shape[1])
    elif convention == "cochain":
        ranks = [boundaries[0].shape[1]]
        for i, b in enumerate(boundaries):
            if b.shape[1] != ranks[-1]:
                raise ShapeMismatch(
                    f"map {i} has {b.shape[1]} columns, degree {i} has rank {ranks[-1]}"
                )
            ranks.append(b.shape[0])
    else:
        raise ValidationError(f"unknown convention {convention!r}")
    return ranks


def _entry_scale(coefficients) -> float:
    """Largest entry modulus, a lower bound for the largest spectral norm;
    residuals against it are Frobenius norms, an upper bound."""
    return max((float(np.max(np.abs(c))) for c in coefficients if c.size), default=0.0)


def _check_composites(boundaries, convention):
    for i in range(len(boundaries) - 1):
        if convention == "chain":
            composite = boundaries[i] @ boundaries[i + 1]
        else:
            composite = boundaries[i + 1] @ boundaries[i]
        residual = max(
            (float(np.linalg.norm(c)) for c in composite.coefficients.values()),
            default=0.0,
        )
        norms = [_entry_scale(b.coefficients.values()) for b in (boundaries[i], boundaries[i + 1])]
        scale = max(1.0, norms[0] * norms[1])
        if residual > 1e-9 * scale:
            raise ValidationError(
                f"composite of maps {i} and {i + 1} is nonzero (residual {residual:.2e})"
            )


def abelian_torsion(boundaries, convention: str = "chain") -> AbelianTorsionReport:
    """Torsion of a finite complex of free modules given by Laurent symbols.

    boundaries[k] connects degrees k and k+1 (towards k for the chain
    convention, towards k+1 for the cochain one).  The positive part of each
    Laplacian splits orthogonally into the positive parts of d^H d and
    d d^H for its two adjacent maps, and those share their nonzero spectrum
    (Lück, L2-Invariants, Lemma 3.30).  So each map d gets one measure,
    A = log Det+(d^H d), and its generic rank r, read off one sample on the
    grid its coefficients fix with squared singular values cut at
    TORSION_KERNEL_TOL times the map's own largest
    (detline._mahler.map_log_det).  Degree i has betti number m_i minus the
    ranks of its adjacent maps and degree log-determinant the sum of their
    A.  The coordinate is sum_k (-1)^(k+1) A_k / 2 (chain; negated for
    cochain), the product of the degree determinants with exponent
    (-1)^i i/2.  verdicts holds one report per map.
    """
    boundaries = list(boundaries)
    if not boundaries:
        raise ValidationError("need at least one map")
    rank = boundaries[0].rank
    for b in boundaries:
        if not isinstance(b, LaurentMatrix):
            raise ValidationError("expected LaurentMatrix maps")
        if b.rank != rank:
            raise AlgebraMismatch("maps live on tori of different ranks")
    ranks = _torsion_ranks(boundaries, convention)
    _check_composites(boundaries, convention)
    from ._mahler import map_log_det  # loaded on first use, as in _log_det

    measured = [
        map_log_det(
            b,
            TORSION_KERNEL_TOL,
            IllConditionedKernel,
            f"positive singular values of map {k} accumulate at zero",
        )
        for k, b in enumerate(boundaries)
    ]
    # degree i sits between maps i - 1 and i; past either end the map is zero
    map_ranks = [0, *(r for r, _, _ in measured), 0]
    map_logs = [0.0, *(a for _, a, _ in measured), 0.0]

    orientation = 1.0 if convention == "chain" else -1.0
    log_coordinate = orientation * sum(
        (-1.0) ** (k + 1) * a / 2.0 for k, (_, a, _) in enumerate(measured)
    )
    chi = sum((-1) ** i * m for i, m in enumerate(ranks))
    return AbelianTorsionReport(
        tuple(float(m - map_ranks[i] - map_ranks[i + 1]) for i, m in enumerate(ranks)),
        int(chi),
        exp_of_log(log_coordinate),
        float(log_coordinate),
        tuple(map_logs[i] + map_logs[i + 1] for i in range(len(ranks))),
        tuple(ConvergenceReport("convergent", d) for _, _, d in measured),
        convention,
    )
