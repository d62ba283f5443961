"""Small dense-linear-algebra helpers shared across the package.

Everything here works on plain complex ndarrays.  Blocks are tiny (carrier
dimensions are desk scale), so we favor eigendecompositions and SVDs over
anything clever.
"""

from __future__ import annotations

import numpy as np

from .errors import NegativeSpectrum, NotSelfAdjoint


def as_complex_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    return m


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def operator_norm(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    # the same value np.linalg.norm(a, 2) takes, without its axis handling
    return float(np.linalg.svd(a, compute_uv=False)[0])


def is_hermitian(a: np.ndarray, tol: float = 1e-10) -> bool:
    if a.size == 0:
        return True
    scale = max(1.0, operator_norm(a))
    return operator_norm(a - a.conj().T) <= tol * scale


def eigh_checked(a: np.ndarray, tol: float = 1e-10):
    """Eigendecomposition of a matrix that must be Hermitian to tolerance."""
    if not is_hermitian(a, tol):
        raise NotSelfAdjoint("matrix is not Hermitian to tolerance")
    return np.linalg.eigh(hermitian_part(a))


def sqrt_psd(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Principal square root of a Hermitian positive semidefinite matrix."""
    if a.size == 0:
        return a.copy()
    vals, vecs = eigh_checked(a, tol)
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
    if np.min(vals) < -tol * scale:
        raise NegativeSpectrum(f"matrix has negative eigenvalue {np.min(vals):.3e}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def inv_sqrt_pd(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Inverse principal square root of a Hermitian positive definite matrix."""
    if a.size == 0:
        return a.copy()
    vals, vecs = eigh_checked(a, tol)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if np.min(vals) <= tol * scale:
        raise NegativeSpectrum("matrix is not positive definite")
    return (vecs / np.sqrt(vals)) @ vecs.conj().T


def cluster_values(vals: np.ndarray, rel_gap: float) -> list[slice]:
    """Group a sorted 1-d real array into clusters split at relative gaps.

    A split is placed wherever consecutive values differ by more than
    rel_gap times the overall spectral scale.
    """
    n = len(vals)
    if n == 0:
        return []
    scale = max(1.0, float(np.max(np.abs(vals))))
    out = []
    start = 0
    for i in range(1, n):
        if vals[i] - vals[i - 1] > rel_gap * scale:
            out.append(slice(start, i))
            start = i
    out.append(slice(start, n))
    return out


def nullspace(a: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of a."""
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    u, s, vh = np.linalg.svd(a)
    if s.size == 0:
        return np.eye(a.shape[1], dtype=complex)
    cutoff = rtol * max(1.0, float(s[0]))
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def orthonormal_range(a: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (columns) of the column span of a."""
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    cutoff = rtol * max(1.0, float(s[0]) if s.size else 1.0)
    rank = int(np.sum(s > cutoff))
    return u[:, :rank]


def gram_orthonormalize(cols: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Recombine columns so they become orthonormal for <v, w> = w^H G v.

    Columns must be linearly independent.
    """
    if cols.shape[1] == 0:
        return cols.astype(complex)
    w = sqrt_psd(gram)
    q, r = np.linalg.qr(w @ cols)
    return cols @ np.linalg.inv(r)


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
