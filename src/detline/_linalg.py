"""Small dense-linear-algebra helpers shared across the package.

Everything here works on plain complex ndarrays, one algebra block at a
time, except key_groups, shape_groups, stack and stacks, which group the
blocks of an operator by shape (or by any key) so that a per-block kernel
runs as one batched numpy call per shape, and range_and_kernel, which
takes the frames of every block from one SVD call per block shape.
numpy's linalg routines and matmul run on a stack one LAPACK or BLAS call
per matrix, the call a single matrix gets, so the work is per shape and
the answers stay those of separate per-block calls, bit for bit.  Callers
take a block's norm from the factorisation they already hold where they
can (max |eigenvalue| of a Hermitian block); a residual check may
overestimate its numerator (Frobenius norm) or underestimate its scale
(largest entry modulus), so it stays at least as strict as one in
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


def key_groups(keys) -> list[list[int]]:
    """Positions k grouped by equal keys[k], in order of first appearance,
    ascending within a group."""
    groups: dict = {}
    for k, key in enumerate(keys):
        groups.setdefault(key, []).append(k)
    return list(groups.values())


def shape_groups(*block_lists) -> list[list[int]]:
    """Positions k grouped by the shapes of block_lists[i][k] for every i."""
    return key_groups(zip(*([b.shape for b in blocks] for blocks in block_lists)))


def stack(blocks, idx) -> np.ndarray:
    """blocks[k] for k in idx (one shape) as an array of shape (len(idx),
    rows, cols); a lone block is a view, not a copy."""
    if len(idx) == 1:
        return blocks[idx[0]][None]
    return np.stack([blocks[k] for k in idx])


def stacks(blocks) -> list[tuple[list[int], np.ndarray]]:
    """The nonempty blocks grouped by shape, (indices, stack) per shape.

    numpy's linalg routines run on a stack one LAPACK call per matrix, the
    same call a single matrix gets, so per-block results come out
    bit-identical to separate calls.
    """
    return [(idx, stack(blocks, idx)) for idx in shape_groups(blocks) if blocks[idx[0]].size]


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


def range_and_kernel(blocks) -> tuple[list, list]:
    """Orthonormal bases (columns) of the column span and of the kernel of
    each block, from one full SVD call per block shape: the leading left
    and the trailing right singular vectors, split at the block's rank (its
    singular values above RANK_RTOL times max(1, the largest)).  A block
    with no entries spans nothing, and its whole source is its kernel."""
    ranges, kernels = [None] * len(blocks), [None] * len(blocks)
    for idx in shape_groups(blocks):
        a = stack(blocks, idx)
        if a.size == 0:
            _, rows, cols = a.shape
            for k in idx:
                ranges[k] = np.zeros((rows, 0), dtype=complex)
                kernels[k] = np.eye(cols, dtype=complex)
            continue
        u, s, vh = np.linalg.svd(a)
        ranks = np.sum(s > RANK_RTOL * np.maximum(1.0, s[:, :1]), axis=1)
        for k, uk, vk, rank in zip(idx, u, vh, ranks):
            ranges[k], kernels[k] = uk[:, :rank], vk[rank:].conj().T
    return ranges, kernels


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
