"""Finite von Neumann algebras presented as weighted sums of matrix blocks.

An algebra here is a finite direct sum of full matrix blocks M_{n_k}(C)
together with strictly positive trace weights w_k.  The trace of an element
x = (x_1, ..., x_r) is sum_k w_k tr(x_k); it is faithful and tracial by
construction and nothing forces tr(1) = 1.

Group algebras C[G] enter through a multiplication table.  When the table
records cyclic factors, because FiniteGroupTable.cyclic and direct_product
built it, G is abelian and its decomposition is known by theorem: the
blocks are the characters, U is the discrete Fourier transform, and no
eigensolver runs.  Any other table is decomposed numerically: the commutant
of left translation is spanned by right translations, a random Hermitian
element of that commutant is diagonalized, eigenvalue clusters cut the
carrier into irreducible invariant subspaces, and unitary intertwiners
transport one matrix realization across each isotypic family.  Either way
the weights make the block trace restrict to the coefficient of the
identity, and one check, on a generating set and along the Cayley graph,
bounds U^H L_g U - B(g) for every g.

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

import collections
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from ._linalg import cluster_values, inv_sqrt_pd, operator_norm, random_complex, stacks
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
VERIFY_BLOCK = 1 << 17  # residual entries per batched decomposition check
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
        mats = tuple(np.asarray(mat, dtype=complex) for mat in block_matrices)
        shapes, want = [m.shape for m in mats], [(n, n) for n in algebra.block_dims]
        if shapes != want:
            raise ShapeMismatch(f"blocks of shapes {shapes} do not fit dimensions {want}")
        self.algebra = algebra
        self.block_matrices = mats

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
        # (n_1, ..., n_r) when cyclic() and direct_product() built the table
        # as Z/n_1 x ... x Z/n_r, element g at the mixed-radix index of its
        # coordinates (g_1 most significant); None for a table given as an
        # array, whatever group it is
        self.cyclic_factors: tuple[int, ...] | None = None

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
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValidationError(f"cyclic group order must be a positive integer, got {n!r}")
        n = int(n)
        idx = np.arange(n)
        table = FiniteGroupTable((idx[:, None] + idx[None, :]) % n)
        table.cyclic_factors = (n,)
        return table

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
        table = FiniteGroupTable(prod.reshape(n, n), identity=t1.identity * n2 + t2.identity)
        if t1.cyclic_factors is not None and t2.cyclic_factors is not None:
            # the index a1 n2 + a2 appends t2's mixed radix to t1's
            table.cyclic_factors = t1.cyclic_factors + t2.cyclic_factors
        return table


# ---------------------------------------------------------------------------
# block decomposition of C[G]


@dataclass
class GroupAlgebraDecomposition:
    """Result of build_group_algebra.

    algebra: the block model of C[G].
    change_of_basis: unitary U with U^H L_g U = blkdiag_k(image_k(g) kron 1).
    images: per block k, img_k(g) for every g as one (order, n_k, n_k) stack;
        for a table with cyclic factors, the characters as (order, 1, 1) stacks.
    table: the input table.
    """

    algebra: FiniteVonNeumannAlgebra
    change_of_basis: np.ndarray
    images: list[np.ndarray]
    table: FiniteGroupTable

    @functools.cached_property
    def group_images(self) -> list[AlgebraElement]:
        """Per group element, its block image in the algebra; built when first read."""
        return [
            AlgebraElement(self.algebra, [s[g] for s in self.images])
            for g in range(self.table.order)
        ]

    def element_from_coefficients(self, coeffs) -> AlgebraElement:
        """Block image of sum_g coeffs[g] . g."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (self.table.order,):
            raise ShapeMismatch("need one coefficient per group element")
        return AlgebraElement(
            self.algebra, [np.tensordot(coeffs, s, axes=1) for s in self.images]
        )

    def coefficients_from_element(self, x: AlgebraElement) -> np.ndarray:
        """Inverse of element_from_coefficients, by Fourier inversion: the
        trace is the coefficient of the identity and img(g)* = img(g^-1), so
        the coefficient of g is tau(x img(g)*) = sum_k w_k tr(x_k img_k(g)^H)."""
        return sum(
            w * np.einsum("ab,gab->g", xk, s.conj())
            for w, xk, s in zip(
                self.algebra.weights, x.block_matrices, self.images, strict=True
            )
        )


def build_group_algebra(table: FiniteGroupTable) -> GroupAlgebraDecomposition:
    """Decompose C[G] into weighted matrix blocks.

    A table with cyclic factors (n_1, ..., n_r), which cyclic() and
    direct_product() record, is decomposed in closed form: one block per
    character chi_k(g) = exp(-2 pi i sum_j k_j g_j / n_j), each of weight
    1/|G|, and U the normalized discrete Fourier transform.  Any other table
    is decomposed numerically, deterministically: attempts draw from seeds 0
    to 5 in turn, and the retries guard the measure-zero event of eigenvalue
    collisions across inequivalent blocks.  Both give the blocks in one
    canonical order (_block_order) and pass one check (_verify_decomposition)
    and the block-trace check.
    """
    if table.order > MAX_GROUP_ORDER:
        raise ValidationError(f"group order {table.order} exceeds limit {MAX_GROUP_ORDER}")
    if table.cyclic_factors is not None:
        return _fourier_decomposition(table)
    last_err = None
    for attempt in range(6):
        rng = np.random.default_rng(attempt)
        try:
            return _decompose_once(table, rng)
        except (DecompositionFailure, NegativeSpectrum) as err:  # resample
            last_err = err
    raise DecompositionFailure(f"decomposition failed after retries: {last_err}")


def _fourier_decomposition(table):
    """C[Z/n_1 x ... x Z/n_r] from its characters.  U[h, k] =
    conj(chi_k(h)) / sqrt(|G|), so L_g U[:, k] = chi_k(g) U[:, k], the sign the
    numerical path gives (img(g) = base^H L_g base)."""
    factors, n_g = table.cyclic_factors, table.order
    if int(np.prod(factors)) != n_g:
        raise DecompositionFailure(f"cyclic factors {factors} do not multiply to order {n_g}")
    # coords[j][g] = g_j, and phase[k, g] = |G| sum_j k_j g_j / n_j mod |G|,
    # an integer, so chi_k(g) is one of the |G|-th roots of unity
    coords = np.unravel_index(np.arange(n_g), factors)
    phase = sum((np.outer(c, c) % n) * (n_g // n) for c, n in zip(coords, factors)) % n_g
    chars = np.exp(-2j * np.pi * np.arange(n_g) / n_g)[phase]
    chars = chars[_block_order(np.ones(n_g, dtype=int), chars)]
    algebra = FiniteVonNeumannAlgebra(((1, 1.0 / n_g),) * n_g)
    unitary = chars.conj().T / np.sqrt(n_g)
    return _checked(table, algebra, unitary, list(chars[:, :, None, None]), chars)


def _commutant_element(table, coeffs):
    """sum_h coeffs[h] R_h: R_h sends i to i h, so entry (r, i) is coeffs[i^-1 r]."""
    return coeffs[table.product[table.inverse]].T


def _decompose_once(table, rng):
    n_g = table.order
    # Commutant of left translation is spanned by right translations; a
    # random Hermitian element of it splits the carrier into irreducibles.
    sample = _commutant_element(table, random_complex(rng, n_g))
    vals, vecs = np.linalg.eigh(0.5 * (sample + sample.conj().T))
    pieces = [vecs[:, sl] for sl in cluster_values(vals, CLUSTER_REL_GAP)]
    for idx, s in stacks(pieces):  # one batched QR per piece width
        for k, q in zip(idx, np.linalg.qr(s)[0]):
            pieces[k] = q

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
        # images[g] = base^H L_g base, one matmul over the stack of all g
        images = np.matmul(base.conj().T[:, table.product].swapaxes(0, 1), base)
        blocks_raw.append({"dim": dim, "bases": bases, "images": images})

    if sum(b["dim"] ** 2 for b in blocks_raw) != n_g:
        raise DecompositionFailure("block dimensions do not exhaust the group algebra")
    chars = np.array([np.trace(b["images"], axis1=1, axis2=2) for b in blocks_raw])
    order = _block_order(np.array([b["dim"] for b in blocks_raw]), chars)
    blocks_raw = [blocks_raw[k] for k in order]
    # Column a * dim + i of a block is bases[i][:, a]; multiplicity equals
    # dimension here.
    unitary = np.concatenate(
        [np.stack(block["bases"], axis=2).reshape(n_g, -1) for block in blocks_raw], axis=1
    )
    algebra = FiniteVonNeumannAlgebra(
        tuple((block["dim"], block["dim"] / n_g) for block in blocks_raw)
    )
    images = [block["images"] for block in blocks_raw]
    return _checked(table, algebra, unitary, images, chars[order])


def _block_order(dims, chars):
    """Canonical block order: by dimension, then by the character vector
    rounded to 9 places, compared entry by entry as (Re chi(g), Im chi(g))
    from g = 0 on.  dims: one per block; chars: (blocks, order)."""
    rounded = np.round(chars, 9)
    keys = np.stack([rounded.real, rounded.imag], axis=2).reshape(len(dims), -1)
    return np.lexsort(np.vstack([keys.T[::-1], dims]))  # the last key sorts first


def _checked(table, algebra, unitary, images, chars):
    """The decomposition, once it passes _verify_decomposition and the block
    trace check; chars[k] = tr img_k(g) for every g."""
    _verify_decomposition(table, unitary, images)
    # the block trace sum_k w_k chi_k(g) is 1 at the identity and 0 elsewhere
    off = np.asarray(algebra.weights) @ chars
    off[table.identity] -= 1.0
    if np.max(np.abs(off)) > 1e-10:
        raise DecompositionFailure(f"block traces miss [g = e] by {np.max(np.abs(off)):.2e}")
    return GroupAlgebraDecomposition(algebra, unitary, images, table)


def _generators(table) -> list[int]:
    """A generating set: the factor generators of a table with cyclic
    factors; else, greedily, each first element outside the subgroup that
    the ones chosen before it generate."""
    factors = table.cyclic_factors
    if factors is not None:
        # coordinate j is 1, the others 0, at index n_{j+1} ... n_r
        strides = np.cumprod((1,) + factors[:0:-1])[::-1]
        return [int(s) for s, n in zip(strides, factors) if n > 1]
    member = [False] * table.order
    member[table.identity] = True
    elements = [table.identity]
    gens, right = [], []
    for g in range(table.order):
        if member[g]:
            continue
        gens.append(g)
        right.append(table.product[:, g].tolist())  # right[j][x] = x gens[j]
        # the old subgroup and g generate the words in gens: close the old
        # subgroup under right multiplication by every generator
        frontier = list(elements)
        while frontier:
            x = frontier.pop()
            for column in right:
                y = column[x]
                if not member[y]:
                    member[y] = True
                    elements.append(y)
                    frontier.append(y)
    return gens


def _cayley_tree(table, gens):
    """Breadth-first tree of the Cayley graph g -> g s, s in gens, from the
    identity: g = parent[g] step[g], and depth[g] is the length of the
    shortest word in gens that gives g, -1 where none does."""
    n_g = table.order
    parent, step, depth = [0] * n_g, [0] * n_g, [-1] * n_g
    depth[table.identity] = 0
    right = table.product[:, gens].tolist()  # right[g][j] = g gens[j]
    queue = collections.deque([table.identity])
    while queue:
        g = queue.popleft()
        for s, h in zip(gens, right[g]):
            if depth[h] < 0:
                parent[h], step[h], depth[h] = g, s, depth[g] + 1
                queue.append(h)
    return np.array(parent), np.array(step), np.array(depth)


def _verify_decomposition(table, unitary, block_images):
    """Check U^H L_g U = B(g) for every g from a generating set S.

    B(g) = blkdiag_k(img_k(g) kron 1) holds img_k(g) n_k times, and M(g) =
    U^H L_g U.  Every norm is a Frobenius norm, which bounds the operator
    norm above; block k enters ||B||^2 with the factor n_k, which takes the
    images (one copy per block) to the whole B(g).  Measured:
      delta = ||U^H U - 1||;
      eps = max over s in S of ||M(s) - B(s)||, one batched matmul per chunk
        of VERIFY_BLOCK entries (one n^2 residual when that is more);
      rho_g = ||B(g) - B(p) B(s)|| along a breadth-first tree of the Cayley
        graph of S, g = p s, and rho_e = ||B(e) - 1||; rho = max of rho_g
        over g != e.  For the closed form this is the rounding of the
        characters, which are unit complex numbers to a few ulps each.
    Each of eps and rho_g must be at most tol = VERIFY_TOL / 5, else the
    element is named.  Bound: ||U||_2^2 = ||U^H U||_2 <= 1 + delta, so
    ||M(g)||_2 <= 1 + delta; U is square, so ||U U^H - 1|| = delta, and
    M(p) M(s) - M(p s) = U^H L_p (U U^H - 1) L_s U has norm at most
    (1 + delta) delta.  With r(g) = ||M(g) - B(g)|| and
    ||B(p)||_2 <= 1 + delta + r(p),
      r(p s) <= (1 + delta) delta + (1 + delta) r(p) + (1 + delta + r(p)) eps + rho
              = a r(p) + c,  a = 1 + delta + eps,  c = (1 + delta)(delta + eps) + rho,
    and r(e) <= delta + rho_e, so by induction on the word length l(g) <= L,
      r(g) <= a^l (r(e) + l c) <= a^L (delta + rho_e + L c) =: R.
    R <= tol is checked.  The table is validated, so L_g L_h = L_gh exactly,
    and with r(g) <= tol for every g the images respect the product:
      ||img(g) img(h) - img(gh)|| <= delta + 3 tol + O(tol^2) <= VERIFY_TOL,
    since M(g) M(h) differs from M(gh) by U^H L_g (U U^H - 1) L_h U; no n^2
    products are formed.  Rounding in the residuals themselves is at most
    about n^2 eps (7e-12 at order 256), far below tol.  The work is |S| + 1
    matmuls of order n, and the tree check costs |G| sum_k n_k^3.
    """
    tol = VERIFY_TOL / 5
    n_g = table.order
    uh = unitary.conj().T
    delta = float(np.linalg.norm(uh @ unitary - np.eye(n_g)))
    if not delta <= tol:
        raise DecompositionFailure("change of basis is not unitary")
    gens = _generators(table)
    parent, step, depth = _cayley_tree(table, gens)
    if np.min(depth) < 0:
        raise DecompositionFailure("the generating set does not generate the group")
    e, inner = table.identity, np.flatnonzero(depth > 0)
    rho_sq = np.zeros(n_g)
    # Residual entries: (a n_k + i, b n_k + i) of block k of B(s) is
    # img_k(s)[a, b], subtracted in place.
    offsets = np.cumsum([0] + [imgs.shape[1] ** 2 for imgs in block_images])
    rows, cols, model = [], [], []
    for idx, imgs in stacks(block_images):  # imgs[j] = block_images[idx[j]]
        n = imgs.shape[2]
        # 1 x 1 blocks multiply elementwise: matmul pays per matrix
        x = imgs.reshape(len(idx), n_g, 1) if n == 1 else imgs
        ps, ss = x[:, parent[inner]], x[:, step[inner]]
        tree = (x[:, inner] - (ps * ss if n == 1 else ps @ ss)).reshape(len(idx), -1, n * n)
        rho_sq[inner] += n * np.sum(np.abs(tree) ** 2, axis=(0, 2))
        rho_sq[e] += n * np.sum(np.abs(imgs[:, e] - np.eye(n)) ** 2)
        a, b, i = np.indices((n, n, n)).reshape(3, -1)
        at = offsets[idx][:, None]
        rows.append((at + a * n + i).ravel())
        cols.append((at + b * n + i).ravel())
        at_gens = imgs[:, gens][:, :, a, b]  # (blocks, |S|, n^3)
        model.append(at_gens.transpose(1, 0, 2).reshape(len(gens), len(idx) * a.size))
    rows, cols, model = np.concatenate(rows), np.concatenate(cols), np.hstack(model)
    eps = 0.0
    chunk = max(1, VERIFY_BLOCK // (n_g * n_g))
    for j in range(0, len(gens), chunk):
        gs = gens[j : j + chunk]
        residual = np.matmul(uh[:, table.product[gs]].swapaxes(0, 1), unitary)
        residual[:, rows, cols] -= model[j : j + chunk]
        norms = np.linalg.norm(residual, axis=(1, 2))
        bad = np.flatnonzero(~(norms <= tol))  # nan fails too
        if bad.size:
            raise DecompositionFailure(f"block model mismatch for element {gs[bad[0]]}")
        eps = max(eps, float(np.max(norms)))
    rho = np.sqrt(rho_sq)
    bad = np.flatnonzero(~(rho <= tol))
    if bad.size:
        raise DecompositionFailure(f"block model mismatch for element {bad[0]}")
    words = int(np.max(depth))
    growth = 1.0 + delta + eps
    per_step = (1.0 + delta) * (delta + eps) + float(np.max(rho[inner], initial=0.0))
    bound = growth**words * (delta + rho[e] + words * per_step)
    if not bound <= tol:
        raise DecompositionFailure(
            f"block model bound {bound:.2e} over words of length {words} exceeds {tol:.2e}"
        )
