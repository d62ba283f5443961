"""Small dense-linear-algebra helpers shared across the package.

Everything here works on plain complex ndarrays, one algebra block at a
time.  Callers take a block's norm from the factorisation they already
hold where they can (max |eigenvalue| of a Hermitian block); a residual
check may overestimate its numerator (Frobenius norm) or underestimate its
scale (largest entry modulus), so it stays at least as strict as one in
spectral norms.
"""

from __future__ import annotations

import numpy as np

from .errors import NegativeSpectrum, ShapeMismatch, ValidationError

HERMITIAN_TOL = 1e-10  # relative residual of is_hermitian
DEFINITE_TOL = 1e-10  # relative eigenvalue floor of inv_sqrt_pd
RANK_RTOL = 1e-10  # relative singular-value cut of range_and_kernel and orthonormal_range


def as_complex_matrix(a) -> np.ndarray:
    """a as a complex 2-d array; ValidationError for entries that are not
    finite numbers, ShapeMismatch for any other number of dimensions."""
    try:
        m = np.asarray(a, dtype=complex)
    except (TypeError, ValueError) as err:
        raise ValidationError(f"expected a matrix of numbers: {err}") from None
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix entries must be finite")
    return m


def gram_hash(matrix) -> str:
    """Short digest of a gram matrix for reports, rounded to 10 decimals."""
    import hashlib  # OpenSSL start-up: only the reports that hash pay it

    mat = np.asarray(matrix, dtype=complex)
    data = np.round(mat, 10) + 0.0  # -0.0 and 0.0 hash alike
    digest = hashlib.sha256()
    digest.update(str(mat.shape).encode())
    digest.update(data.tobytes())
    return digest.hexdigest()[:16]


def operator_norm(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    # the same value np.linalg.norm(a, 2) takes, without its axis handling
    return float(np.linalg.svd(a, compute_uv=False)[0])


def is_hermitian(a: np.ndarray) -> bool:
    """||a - a^H||_F <= HERMITIAN_TOL * max(1, max |a_ij|): at least as strict as
    the spectral-norm test, since ||.||_F >= ||.||_2 >= max |a_ij|."""
    if a.size == 0:
        return True
    scale = max(1.0, float(np.max(np.abs(a))))
    return float(np.linalg.norm(a - a.conj().T)) <= HERMITIAN_TOL * scale


def inv_sqrt_pd(a: np.ndarray) -> np.ndarray:
    """Inverse principal square root of a positive definite matrix that is
    Hermitian by construction (phi^H phi); only definiteness is checked."""
    if a.size == 0:
        return a.copy()
    vals, vecs = np.linalg.eigh(0.5 * (a + a.conj().T))
    scale = max(1.0, float(np.max(np.abs(vals))))
    if np.min(vals) <= DEFINITE_TOL * scale:
        raise NegativeSpectrum("matrix is not positive definite")
    return (vecs / np.sqrt(vals)) @ vecs.conj().T


def cluster_values(vals: np.ndarray, rel_gap: float) -> list[slice]:
    """Group a sorted 1-d real array into clusters split at relative gaps.

    A split is placed wherever consecutive values differ by more than
    rel_gap times the overall spectral scale.
    """
    if len(vals) == 0:
        return []
    scale = max(1.0, float(np.max(np.abs(vals))))
    cuts = [0, *(np.flatnonzero(np.diff(vals) > rel_gap * scale) + 1), len(vals)]
    return [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])]


def range_and_kernel(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (columns) of the column span and of the kernel of a,
    from one full SVD: the leading left and the trailing right singular
    vectors, split at the rank."""
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=complex), np.eye(a.shape[1], dtype=complex)
    u, s, vh = np.linalg.svd(a)
    rank = int(np.sum(s > RANK_RTOL * max(1.0, float(s[0]))))
    return u[:, :rank], vh[rank:].conj().T


def orthonormal_range(a: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis (columns) of the column span of a."""
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    cutoff = rtol * max(1.0, float(s[0]) if s.size else 1.0)
    rank = int(np.sum(s > cutoff))
    return u[:, :rank]


def gram_orthonormalize(cols: np.ndarray, sqrt_gram: np.ndarray) -> np.ndarray:
    """Recombine columns so they become orthonormal for <v, w> = w^H G v,
    given W = G^(1/2).

    Columns must be linearly independent.
    """
    if cols.shape[1] == 0:
        return cols.astype(complex)
    q, r = np.linalg.qr(sqrt_gram @ cols)
    return cols @ np.linalg.inv(r)


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
