"""Finite von Neumann algebras presented as weighted sums of matrix blocks.

An algebra here is a finite direct sum of full matrix blocks M_{n_k}(C)
together with strictly positive trace weights w_k.  The trace of an element
x = (x_1, ..., x_r) is sum_k w_k tr(x_k); it is faithful and tracial by
construction and nothing forces tr(1) = 1.

Group algebras C[G] enter through a multiplication table.  The block
decomposition of the left regular representation is computed numerically:
the commutant of left translation is spanned by right translations, a random
Hermitian element of that commutant is diagonalized, eigenvalue clusters cut
the carrier into irreducible invariant subspaces, and unitary intertwiners
transport one matrix realization across each isotypic family.  Weights come
out so that the block trace restricts to the coefficient of the identity.

Translations act on l2(G) as permutations of the table's indices, so the
decomposition never builds them as matrices: a commutant element
sum_h c_h R_h is one gather of the coefficients, and L_g applied to a basis
is a row gather.  L_g R_h = R_h L_g is associativity, which
FiniteGroupTable.validate checks exhaustively, one row at a time in n^2
memory, so every commutant element commutes with every left translation
exactly and nothing re-checks it.  Past the probe's operator norm, which sets
the family cut, every check takes Frobenius norms, which bound operator norms
above, at the operator-norm tolerances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._linalg import cluster_values, inv_sqrt_pd, operator_norm, random_complex
from .errors import (
    AlgebraMismatch,
    DecompositionFailure,
    NegativeSpectrum,
    NonAssociativeTable,
    ShapeMismatch,
    ValidationError,
)

CLUSTER_REL_GAP = 1e-6  # eigenvalue gap that separates irreducible pieces
MAX_GROUP_ORDER = 256
ASSOCIATIVITY_BLOCK = 1 << 17  # table entries per associativity gather
VERIFY_TOL = 1e-8  # bound on the group product residual of the block images


@dataclass(frozen=True)
class FiniteVonNeumannAlgebra:
    """Direct sum of matrix blocks with positive trace weights.

    blocks: tuple of (block dimension n_k, trace weight w_k).
    """

    blocks: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if len(self.blocks) == 0:
            raise ValidationError("algebra needs at least one block")
        norm = []
        for n, w in self.blocks:
            n = int(n)
            w = float(w)
            if n < 1:
                raise ValidationError(f"block dimension must be >= 1, got {n}")
            if not (w > 0.0) or not np.isfinite(w):
                raise ValidationError(f"trace weight must be positive, got {w}")
            norm.append((n, w))
        object.__setattr__(self, "blocks", tuple(norm))

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.blocks)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.blocks)

    @property
    def trace_of_identity(self) -> float:
        return float(sum(w * n for n, w in self.blocks))

    @property
    def total_matrix_dim(self) -> int:
        """Dimension of the algebra as a vector space, sum of n_k^2."""
        return int(sum(n * n for n, _ in self.blocks))

    def identity(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.eye(n, dtype=complex) for n in self.block_dims])

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.zeros((n, n), dtype=complex) for n in self.block_dims])

    def element(self, blocks) -> "AlgebraElement":
        return AlgebraElement(self, blocks)

    def trace(self, x: "AlgebraElement") -> complex:
        if x.algebra != self:
            raise AlgebraMismatch("element belongs to a different algebra")
        return complex(sum(w * np.trace(b) for (_, w), b in zip(self.blocks, x.block_matrices)))

    def with_scaled_trace(self, lam: float) -> "FiniteVonNeumannAlgebra":
        """Same algebra with trace scaled by lam > 0."""
        lam = float(lam)
        if not lam > 0.0:
            raise ValidationError("trace scale must be positive")
        return FiniteVonNeumannAlgebra(tuple((n, lam * w) for n, w in self.blocks))

    def random_element(self, rng: np.random.Generator) -> "AlgebraElement":
        return AlgebraElement(self, [random_complex(rng, (n, n)) for n in self.block_dims])


class AlgebraElement:
    """One matrix per block.  Multiplication and adjoint act blockwise."""

    __slots__ = ("algebra", "block_matrices")

    def __init__(self, algebra: FiniteVonNeumannAlgebra, block_matrices):
        mats = []
        for n, mat in zip(algebra.block_dims, block_matrices, strict=True):
            m = np.asarray(mat, dtype=complex)
            if m.shape != (n, n):
                raise ShapeMismatch(f"block of shape {m.shape} does not fit dimension {n}")
            mats.append(m)
        self.algebra = algebra
        self.block_matrices = tuple(mats)

    def _check_peer(self, other: "AlgebraElement"):
        if not isinstance(other, AlgebraElement):
            raise TypeError("expected an AlgebraElement")
        if other.algebra != self.algebra:
            raise AlgebraMismatch("elements belong to different algebras")

    def __add__(self, other):
        self._check_peer(other)
        return AlgebraElement(
            self.algebra, [a + b for a, b in zip(self.block_matrices, other.block_matrices)]
        )

    def __sub__(self, other):
        self._check_peer(other)
        return AlgebraElement(
            self.algebra, [a - b for a, b in zip(self.block_matrices, other.block_matrices)]
        )

    def __neg__(self):
        return AlgebraElement(self.algebra, [-a for a in self.block_matrices])

    def __mul__(self, other):
        if np.isscalar(other):
            return AlgebraElement(self.algebra, [other * a for a in self.block_matrices])
        self._check_peer(other)
        return AlgebraElement(
            self.algebra, [a @ b for a, b in zip(self.block_matrices, other.block_matrices)]
        )

    def __rmul__(self, other):
        if np.isscalar(other):
            return AlgebraElement(self.algebra, [other * a for a in self.block_matrices])
        return NotImplemented

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [a.conj().T for a in self.block_matrices])

    def norm(self) -> float:
        return max(operator_norm(a) for a in self.block_matrices)

    def is_close_to(self, other: "AlgebraElement", tol: float = 1e-10) -> bool:
        self._check_peer(other)
        return all(
            np.allclose(a, b, atol=tol)
            for a, b in zip(self.block_matrices, other.block_matrices)
        )


def trace(algebra: FiniteVonNeumannAlgebra, x: AlgebraElement) -> complex:
    return algebra.trace(x)


# ---------------------------------------------------------------------------
# finite group tables


class FiniteGroupTable:
    """Multiplication table of a finite group: product[a, b] = a * b."""

    def __init__(self, product, identity: int = 0):
        prod = np.asarray(product, dtype=int)
        if prod.ndim != 2 or prod.shape[0] != prod.shape[1]:
            raise ValidationError("product table must be square")
        self.order = int(prod.shape[0])
        self.product = prod
        self.identity = int(identity)
        self.validate()
        # Each row is a permutation, so the identity occurs once in row a, at
        # a's right inverse; in an associative table that is a's inverse.
        self.inverse = np.argmax(prod == self.identity, axis=1)

    def validate(self):
        n, e = self.order, self.identity
        p = self.product
        if not (0 <= e < n):
            raise ValidationError("identity index out of range")
        if p.min() < 0 or p.max() >= n:
            raise ValidationError("table entries out of range")
        # with entries in range, a permutation is what sorts to 0, ..., n-1
        idx = np.arange(n)
        if not (np.all(np.sort(p, axis=1) == idx) and np.all(np.sort(p, axis=0) == idx[:, None])):
            raise NonAssociativeTable("table rows/columns are not permutations")
        if not (np.all(p[e] == idx) and np.all(p[:, e] == idx)):
            raise NonAssociativeTable("identity element does not act as identity")
        # (ab)c == a(bc) for all b, c, a block of rows a at a time:
        # left[i, b, c] = p[p[a, b], c] and right[i, b, c] = p[a, p[b, c]].
        # The gathered values take the smallest dtype that holds an element
        # and go into buffers of ASSOCIATIVITY_BLOCK entries (one row's n^2
        # when that is more), reused for every block.
        values = p.astype(np.min_scalar_type(n - 1))
        rows = min(n, max(1, ASSOCIATIVITY_BLOCK // (n * n)))
        left = np.empty((rows, n, n), dtype=values.dtype)
        right = np.empty_like(left)
        same = np.empty(left.shape, dtype=bool)
        for a in range(0, n, rows):
            k = min(rows, n - a)
            np.take(values, p[a : a + k], axis=0, out=left[:k])
            np.take(values[a : a + k], p, axis=1, out=right[:k])
            if not np.equal(left[:k], right[:k], out=same[:k]).all():
                raise NonAssociativeTable("table is not associative")

    def left_translation(self, g: int) -> np.ndarray:
        """Permutation matrix of h -> g h on the group basis: column h is e_gh."""
        return np.eye(self.order)[:, self.product[g]]

    def right_translation(self, g: int) -> np.ndarray:
        """Permutation matrix of h -> h g on the group basis: column h is e_hg."""
        return np.eye(self.order)[:, self.product[:, g]]

    # -- common tables ------------------------------------------------------

    @staticmethod
    def trivial() -> "FiniteGroupTable":
        return FiniteGroupTable([[0]])

    @staticmethod
    def cyclic(n: int) -> "FiniteGroupTable":
        idx = np.arange(n)
        return FiniteGroupTable((idx[:, None] + idx[None, :]) % n)

    @staticmethod
    def symmetric(n: int) -> "FiniteGroupTable":
        """Symmetric group on n letters; element 0 is the identity."""
        perms = np.array(sorted(itertools.permutations(range(n))), dtype=int)
        # sorted order is the order of the base-n numbers the rows spell, and
        # (a b)[k] = a[b[k]] is perms[a, perms[b, k]]
        digits = n ** np.arange(n - 1, -1, -1)
        return FiniteGroupTable(np.searchsorted(perms @ digits, perms[:, perms] @ digits))

    @staticmethod
    def direct_product(t1: "FiniteGroupTable", t2: "FiniteGroupTable") -> "FiniteGroupTable":
        n2 = t2.order
        n = t1.order * n2
        # (a1, a2) is index a1 * n2 + a2; axes [a1, a2, b1, b2] reshape to [a, b]
        prod = t1.product[:, None, :, None] * n2 + t2.product[None, :, None, :]
        return FiniteGroupTable(prod.reshape(n, n), identity=t1.identity * n2 + t2.identity)


# ---------------------------------------------------------------------------
# numerical block decomposition of C[G]


@dataclass
class GroupAlgebraDecomposition:
    """Result of build_group_algebra.

    algebra: the block model of C[G].
    change_of_basis: unitary U with U^H L_g U = blkdiag_k(image_k(g) kron 1).
    group_images: per group element, its block image in the algebra.
    table: the input table.
    """

    algebra: FiniteVonNeumannAlgebra
    change_of_basis: np.ndarray
    group_images: list[AlgebraElement]
    table: FiniteGroupTable

    def block_images(self) -> list[np.ndarray]:
        """img_k(g) for every g, one array of shape (order, n_k, n_k) per block."""
        return [np.stack(mats) for mats in zip(*(img.block_matrices for img in self.group_images))]

    def element_from_coefficients(self, coeffs) -> AlgebraElement:
        """Block image of sum_g coeffs[g] . g."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (self.table.order,):
            raise ShapeMismatch("need one coefficient per group element")
        return AlgebraElement(
            self.algebra, [np.tensordot(coeffs, s, axes=1) for s in self.block_images()]
        )

    def coefficients_from_element(self, x: AlgebraElement) -> np.ndarray:
        """Inverse of element_from_coefficients, by Fourier inversion: the
        trace is the coefficient of the identity and img(g)* = img(g^-1), so
        the coefficient of g is tau(x img(g)*) = sum_k w_k tr(x_k img_k(g)^H)."""
        return sum(
            w * np.einsum("ab,gab->g", xk, s.conj())
            for w, xk, s in zip(
                self.algebra.weights, x.block_matrices, self.block_images(), strict=True
            )
        )


def build_group_algebra(table: FiniteGroupTable) -> GroupAlgebraDecomposition:
    """Decompose C[G] into weighted matrix blocks from its table alone.

    Deterministic: attempts draw from seeds 0 to 5 in turn, and the retries
    guard the measure-zero event of eigenvalue collisions across
    inequivalent blocks.
    """
    if table.order > MAX_GROUP_ORDER:
        raise ValidationError(f"group order {table.order} exceeds limit {MAX_GROUP_ORDER}")
    last_err = None
    for attempt in range(6):
        rng = np.random.default_rng(attempt)
        try:
            return _decompose_once(table, rng)
        except (DecompositionFailure, NegativeSpectrum) as err:  # resample
            last_err = err
    raise DecompositionFailure(f"decomposition failed after retries: {last_err}")


def _commutant_element(table, coeffs):
    """sum_h coeffs[h] R_h: R_h sends i to i h, so entry (r, i) is coeffs[i^-1 r]."""
    return coeffs[table.product[table.inverse]].T


def _decompose_once(table, rng):
    n_g = table.order
    # Commutant of left translation is spanned by right translations; a
    # random Hermitian element of it splits the carrier into irreducibles.
    sample = _commutant_element(table, random_complex(rng, n_g))
    vals, vecs = np.linalg.eigh(0.5 * (sample + sample.conj().T))
    pieces = [np.linalg.qr(vecs[:, sl])[0] for sl in cluster_values(vals, CLUSTER_REL_GAP)]

    # Group the pieces into families carrying the same block, probing with a
    # second, non-Hermitian commutant element: block (i, j) of Q^H probe Q, Q
    # the pieces side by side, is rounding unless pieces i and j carry the
    # same block.  Its Frobenius norm bounds its operator norm above.
    probe = _commutant_element(table, random_complex(rng, n_g))
    probe_cut = 1e-6 * operator_norm(probe)
    frame = np.concatenate(pieces, axis=1)
    starts = np.cumsum([0] + [q.shape[1] for q in pieces[:-1]])
    inter_sq = np.add.reduceat(np.abs(frame.conj().T @ probe @ frame) ** 2, starts, axis=0)
    linked = np.add.reduceat(inter_sq, starts, axis=1) > probe_cut**2
    families: list[list[int]] = []
    for i, q in enumerate(pieces):
        fam = next((f for f in families if q.shape == pieces[f[0]].shape and linked[i, f[0]]), None)
        if fam is None:
            families.append([i])
        else:
            fam.append(i)

    # Within each family, transport the first realization onto the others by
    # the unitary part of the intertwiner, then read off one matrix block.
    # base^H L_g is base^H with its columns gathered by h -> g h.  The
    # characters give both the canonical order and the trace check.
    blocks_raw = []
    for fam in families:
        base = pieces[fam[0]]
        dim = base.shape[1]
        if len(fam) != dim:
            raise DecompositionFailure(
                f"family of dimension {dim} has {len(fam)} copies; expected {dim}"
            )
        bases = [base]
        for i in fam[1:]:
            phi = pieces[i].conj().T @ probe @ base
            bases.append(pieces[i] @ (phi @ inv_sqrt_pd(phi.conj().T @ phi)))
        base_h = base.conj().T
        images = np.empty((n_g, dim, dim), dtype=complex)
        for g in range(n_g):
            images[g] = base_h[:, table.product[g]] @ base
        chars = np.trace(images, axis1=1, axis2=2)
        blocks_raw.append({"dim": dim, "bases": bases, "images": images, "chars": chars})

    if sum(b["dim"] ** 2 for b in blocks_raw) != n_g:
        raise DecompositionFailure("block dimensions do not exhaust the group algebra")

    # Canonical block order: dimension first, then the character vector.
    def sort_key(block):
        chars = np.round(block["chars"], 9)
        return (block["dim"], tuple(zip(chars.real, chars.imag)))

    blocks_raw.sort(key=sort_key)

    # Column a * dim + i of a block is bases[i][:, a]; multiplicity equals
    # dimension here.
    unitary = np.concatenate(
        [np.stack(block["bases"], axis=2).reshape(n_g, -1) for block in blocks_raw], axis=1
    )
    algebra = FiniteVonNeumannAlgebra(
        tuple((block["dim"], block["dim"] / n_g) for block in blocks_raw)
    )
    group_images = [
        AlgebraElement(algebra, [block["images"][g] for block in blocks_raw])
        for g in range(n_g)
    ]

    _verify_decomposition(table, unitary, algebra, group_images)
    # the block trace sum_k w_k chi_k(g) is 1 at the identity and 0 elsewhere
    off = np.asarray(algebra.weights) @ np.array([block["chars"] for block in blocks_raw])
    off[table.identity] -= 1.0
    if np.max(np.abs(off)) > 1e-10:
        raise DecompositionFailure(f"block traces miss [g = e] by {np.max(np.abs(off)):.2e}")
    return GroupAlgebraDecomposition(algebra, unitary, group_images, table)


def _verify_decomposition(table, unitary, algebra, group_images):
    # The table is validated, so L_g L_h = L_gh exactly.  With
    # ||U^H U - 1|| <= t_u and ||U^H L_g U - B(g)|| <= t for every g, where
    # B(g) is the block action of img(g), the images respect the product:
    #   ||img(g) img(h) - img(gh)|| <= t_u + 3 t + O(t^2 + t_u^2)
    # (U^H L_g U U^H L_h U differs from U^H L_gh U by U^H L_g (U U^H - 1) L_h U).
    # Both checks run at VERIFY_TOL / 5 on Frobenius norms, which bound the
    # operator norms above, so the product residual stays within VERIFY_TOL
    # without forming the n^2 products.  U^H L_g is U^H with its columns
    # gathered by h -> g h.  B(g) = blkdiag_k(img_k(g) kron 1), so img_k(g)
    # is subtracted in place from rows and columns i::n_k of block k.
    tol = VERIFY_TOL / 5
    uh = unitary.conj().T
    if np.linalg.norm(uh @ unitary - np.eye(table.order)) > tol:
        raise DecompositionFailure("change of basis is not unitary")
    for g in range(table.order):
        residual = uh[:, table.product[g]] @ unitary
        at = 0
        for n, img in zip(algebra.block_dims, group_images[g].block_matrices):
            diag = residual[at : at + n * n, at : at + n * n]
            for i in range(n):
                diag[i::n, i::n] -= img
            at += n * n
        if np.linalg.norm(residual) > tol:
            raise DecompositionFailure(f"block model mismatch for element {g}")
