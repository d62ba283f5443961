"""Small dense-linear-algebra helpers shared across the package.

Everything here works on plain complex ndarrays, one matrix at a time or,
where a docstring says so, on a stack of matrices.  A-linear maps keep
their blocks stored by shape (modules.BlockStacks), so the per-shape
grouping of module blocks is decided in modules, not here; key_groups is
the grouping rule it uses, and stacks groups a list of arrays by shape: the
group-algebra decomposition hands its block images to Peter-Weyl as one
stack per block dimension.  numpy's linalg routines and matmul run
on a stack one LAPACK or BLAS call per matrix, the call a single matrix
gets, so per-shape work gives the answers of separate calls, bit for bit.
singular_value_stacks is the one singular-value pass over block stacks,
and BlockStacks keeps its result for the stacks it stores: every norm,
rank, invertibility test and log|det| of the package's blocks is read from
it, through rank_data where ranks are cut.  Callers take a
block's norm from the factorisation they already hold where they can (max
|eigenvalue| of a Hermitian block); a residual check may overestimate its
numerator (Frobenius norm) or underestimate its scale (largest entry
modulus), so it stays at least as strict as one in spectral norms.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ShapeMismatch, ValidationError

HERMITIAN_TOL = 1e-10  # relative residual of is_hermitian
# singular-value cut: relative to the largest in orthonormal_range, times a
# given scale in modules.range_and_kernel
RANK_RTOL = 1e-10
INVERTIBLE_RTOL = 1e-12  # smallest singular value of an invertible block, relative to its largest


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


def stacks(arrays) -> list[tuple[list[int], np.ndarray]]:
    """The nonempty arrays grouped by shape, (indices, stack) per shape; a
    lone array is stacked as a view, not a copy."""
    out = []
    for idx in key_groups(a.shape for a in arrays):
        if arrays[idx[0]].size:
            s = arrays[idx[0]][None] if len(idx) == 1 else np.stack([arrays[k] for k in idx])
            out.append((idx, s))
    return out


def gram_hash(matrix) -> str:
    """Short digest of a gram matrix for reports, rounded to 10 decimals."""
    import hashlib  # OpenSSL start-up: only the reports that hash pay it

    mat = np.asarray(matrix, dtype=complex)
    data = np.round(mat, 10) + 0.0  # -0.0 and 0.0 hash alike
    digest = hashlib.sha256()
    digest.update(str(mat.shape).encode())
    digest.update(data.tobytes())
    return digest.hexdigest()[:16]


@functools.lru_cache(maxsize=64)
def identity_hash(n: int) -> str:
    """gram_hash(np.eye(n)), from one row of length 2n + 1 whose windows
    are the rows of the identity: no n x n matrix is built, and the hash
    depends only on n, so it is kept per n."""
    import hashlib

    line = np.zeros(2 * n + 1, dtype=complex)
    line[n] = 1.0
    digest = hashlib.sha256()
    digest.update(str((n, n)).encode())
    for i in range(n):
        digest.update(line[n - i : 2 * n - i])
    return digest.hexdigest()[:16]


def operator_norm(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    # the same value np.linalg.norm(a, 2) takes, without its axis handling
    return float(np.linalg.svd(a, compute_uv=False)[0])


def singular_value_stacks(parts) -> list:
    """(block indices, singular values) of each stack of parts, a list of
    (block indices, stack) of the stacks with entries: one
    svd(compute_uv=False) per stack, each block's values descending."""
    return [(idx, np.linalg.svd(s, compute_uv=False)) for idx, s in parts]


def rank_data(values, n: int, rtol: float = RANK_RTOL, scale: float | None = None):
    """(top, low, rank, logs) of each of n blocks from their singular values,
    given per stack as singular_value_stacks gives them: the largest
    singular value, the smallest one the rank counts (sigma_r), the rank and
    the sum of the log singular values the rank counts.  The rank counts the
    singular values above rtol times the block's largest, or times scale
    when it is given.  A block of rank 0 counts no singular value, so its
    sigma_r reads inf; a block in no stack has rank 0 and reads 0 in the
    other three."""
    top, low, rank, logs = np.zeros(n), np.full(n, np.inf), np.zeros(n, dtype=int), np.zeros(n)
    for idx, sv in values:
        kept = sv > rtol * (sv[:, :1] if scale is None else scale)
        top[idx], low[idx] = sv[:, 0], np.min(np.where(kept, sv, np.inf), axis=1)
        rank[idx] = np.sum(kept, axis=1)
        logs[idx] = np.sum(np.log(np.where(kept, sv, 1.0)), axis=1)
    return top, low, rank, logs


def is_hermitian(a: np.ndarray) -> bool:
    """||a - a^H||_F <= HERMITIAN_TOL * max(1, max |a_ij|) for a matrix, or
    for every matrix of a stack: at least as strict as the spectral-norm
    test, since ||.||_F >= ||.||_2 >= max |a_ij|."""
    if a.size == 0:
        return True
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
    resid = np.linalg.norm(a - a.conj().swapaxes(-2, -1), axis=(-2, -1))
    return bool(np.all(resid <= HERMITIAN_TOL * scale))


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


def orthonormal_range(a: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis (columns) of the column span of a."""
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    cutoff = rtol * max(1.0, float(s[0]) if s.size else 1.0)
    rank = int(np.sum(s > cutoff))
    return u[:, :rank]


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
