"""Finitely generated Hilbertian modules in isotypic normal form.

A module over A = sum_k M_{n_k}(C) is stored by its multiplicities
(m_1, ..., m_r): the canonical carrier is sum_k C^{n_k} (x) C^{m_k} and the
algebra acts by x |-> blkdiag_k(x_k kron 1_{m_k}).  The carrier has no
preferred scalar product; a reference gram (positive, invertible, commuting
with the action) is part of the data, and every metric notion (adjoint,
submodule frame, spectral density, determinant, torsion) is taken against
it.  The metric is chosen when a module is built, through
HilbertianModule(reference_gram=), with_reference_gram or
module_from_group_action(reference_gram=), and nowhere else: no function
takes a per-call gram, and regular_module builds the identity gram.

Blocks are the representation.  A module is its algebra, its multiplicities,
one reference-gram block of shape (m_k, m_k) per algebra block, and a
coordinates key that says which user coordinates its carrier is read in
(canonical, a given unitary basis_map, or the concatenated coordinates of a
direct sum).  Carrier-sized matrices exist only at I/O: a basis_map or
carrier gram a caller supplies is checked and reduced to blocks once, and
the basis_map and reference_gram.matrix of a direct sum are built only when
asked for.  Carrier input is checked as _linalg checks residuals: the
block model is subtracted in place and the Frobenius norm of the rest is
compared with the tolerance times the largest entry, at least as strict as
operator norms; no kron, least-squares solve or SVD runs between a
document and its blocks.  Grams enter as blocks: resolve_gram is the one
place a gram (carrier matrix, commutant operator or gram data) becomes
gram data, and with_reference_gram re-metrises a module without touching
its coordinates.

Everything A-linear is made of blocks: a morphism M -> N decomposes as
blkdiag_k(1_{n_k} kron F_k) in canonical coordinates with F_k of shape
(m_k(N), m_k(M)).  Commutant operators are the square case, and a gram is
a positive commutant operator.  The blocks are stored by shape
(BlockStacks): the blocks that share a shape form one (count, rows, cols)
stack, next to their block indices.  The grouping is decided here once per
multiplicity layout and cached (_layout), so every operation is one numpy
call per shape; a product of maps whose layouts group differently gathers
its operands from the stored stacks along a cached plan (_pairing).
numpy's linalg routines and matmul run on a stack one LAPACK or BLAS call
per matrix, the call a single matrix gets, so the numbers are those of
separate per-block calls, bit for bit.  Per-block lists appear only at I/O:
the ModuleMorphism constructor, from_matrix, to_matrix and the read-only
blocks view.  The canonical trace of a commutant operator is
sum_k w_k tr(F_k), which agrees with the free-embedding formula on free
modules (tested, not assumed).
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np

from ._linalg import (
    INVERTIBLE_RTOL,
    RANK_RTOL,
    as_complex_matrix,
    is_hermitian,
    key_groups,
    orthonormal_range,
    singular_values,
)
from .algebra import AlgebraElement, FiniteVonNeumannAlgebra, GroupAlgebraDecomposition
from .errors import (
    AlgebraMismatch,
    NotAdmissible,
    NotInCommutant,
    NotIso,
    ShapeMismatch,
    ValidationError,
)

COMMUTANT_TOL = 1e-10
COND_LIMIT = 1e12  # largest condition number of an admissible gram (check_admissible)
POSITIVITY_FLOOR = 1e-10
SAME_SPACE_TOL = 1e-12
LAYOUT_CACHE = 4096  # layouts, groupings and product plans kept per process


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    """Entrywise equality to SAME_SPACE_TOL times max(1, largest |a_ij|),
    for a matrix or for each matrix of a stack; no relative term, so a gram
    off by a factor 1 + 5e-6 differs."""
    if a.size == 0:
        return True
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
    return bool(np.all(np.max(np.abs(a - b), axis=(-2, -1)) <= SAME_SPACE_TOL * scale))


class HilbertianModule:
    def __init__(self, algebra, multiplicities, basis_map=None, reference_gram=None):
        self._set_layout(algebra, multiplicities)
        self._summands = None
        if basis_map is None:
            self._basis_map = None
        else:
            u = as_complex_matrix(basis_map)
            if u.shape != (self.carrier_dim, self.carrier_dim):
                raise ShapeMismatch("basis map has wrong shape")
            if np.linalg.norm(u.conj().T @ u - np.eye(self.carrier_dim)) > 1e-8:
                raise ValidationError("basis map must be unitary")
            self._basis_map = u
        self._key = None if basis_map is None else id(self._basis_map)

        if reference_gram is None:
            self.reference_gram = _GramData(self)
        else:
            self.reference_gram = resolve_gram(self, reference_gram)

    @classmethod
    def _direct_sum(cls, algebra, multiplicities, summands):
        """Concatenated user coordinates of the summands; blocks only."""
        out = cls.__new__(cls)
        out._set_layout(algebra, multiplicities)
        out._summands = tuple(summands)
        out._basis_map = None
        out._key = tuple((s.multiplicities, s._key) for s in out._summands)
        out.reference_gram = _GramData.direct_sum(out, out._summands)
        return out

    def with_reference_gram(self, gram) -> "HilbertianModule":
        """The same module (algebra, layout, user coordinates) with gram as
        its reference.  The coordinates are shared, not rebuilt, so no
        carrier basis map is built or checked again."""
        out = copy.copy(self)
        out.reference_gram = resolve_gram(out, gram)
        return out

    def _set_layout(self, algebra, multiplicities):
        if not isinstance(algebra, FiniteVonNeumannAlgebra):
            raise ValidationError("algebra must be a FiniteVonNeumannAlgebra")
        mult = tuple(int(m) for m in multiplicities)
        if len(mult) != len(algebra.blocks):
            raise ShapeMismatch("need one multiplicity per algebra block")
        if any(m < 0 for m in mult):
            raise ValidationError("multiplicities must be >= 0")
        self.algebra = algebra
        self.multiplicities = mult
        dims = algebra.block_dims
        self.carrier_dim = int(sum(n * m for n, m in zip(dims, mult)))
        self._offsets = np.cumsum([0] + [n * m for n, m in zip(dims, mult)])

    # -- coordinates ---------------------------------------------------------

    @property
    def basis_map(self):
        """Unitary from canonical to user coordinates; None if canonical."""
        if self._basis_map is None and self._summands is not None:
            self._basis_map = _direct_sum_basis_map(self)
        return self._basis_map

    def block_slice(self, k: int) -> slice:
        return slice(int(self._offsets[k]), int(self._offsets[k + 1]))

    def from_canonical(self, mat: np.ndarray) -> np.ndarray:
        u = self.basis_map
        if u is None:
            return mat
        return u @ mat @ u.conj().T

    def action(self, x: AlgebraElement) -> np.ndarray:
        """Matrix of the action of x in user coordinates."""
        if x.algebra != self.algebra:
            raise AlgebraMismatch("element belongs to a different algebra")
        out = np.zeros((self.carrier_dim, self.carrier_dim), dtype=complex)
        for k, (m, b) in enumerate(zip(self.multiplicities, x.block_matrices)):
            sl = self.block_slice(k)
            out[sl, sl] = np.kron(b, np.eye(m))
        return self.from_canonical(out)

    # -- structure -----------------------------------------------------------

    def same_coordinates(self, other: "HilbertianModule") -> bool:
        """Same algebra, layout and user coordinates; grams may differ.

        Equal coordinates keys decide at once; otherwise (say a direct sum
        against a module given its basis map) the carrier basis maps are
        compared.  The key is fixed at construction: None for canonical
        coordinates, the id of a given basis map (held by the module, so no
        other live map shares it), and for a direct sum the tuple of
        (multiplicities, key) over its summands.
        """
        if self is other:
            return True
        if self.algebra != other.algebra or self.multiplicities != other.multiplicities:
            return False
        if self._key == other._key:
            return True
        a, b = self.basis_map, other.basis_map
        eye = np.eye(self.carrier_dim)
        return _close(eye if a is None else a, eye if b is None else b)

    def is_same_space(self, other: "HilbertianModule") -> bool:
        if self is other:
            return True
        if not self.same_coordinates(other):
            return False
        ga, gb = self.reference_gram, other.reference_gram
        if ga.is_identity and gb.is_identity:
            return True
        return all(_close(a, b) for a, b in zip(ga.stacked.stacks, gb.stacked.stacks))

    def __repr__(self):
        return f"HilbertianModule(dims={self.algebra.block_dims}, mult={self.multiplicities})"


def gram_defect(stacked) -> str | None:
    """Why gram stacks are not a scalar product, or None if they are: each
    block self-adjoint to 1e-10, every eigenvalue above POSITIVITY_FLOOR
    times the largest."""
    if not all(is_hermitian(s) for s in stacked.stacks):
        return "not self-adjoint"
    vals = np.concatenate(
        [np.linalg.eigvalsh(0.5 * (s + s.conj().swapaxes(1, 2))).ravel()
         for _, s in stacked.nonempty()]
        or [np.ones(1)]
    )
    top = float(np.max(np.abs(vals)))
    if np.min(vals) <= POSITIVITY_FLOOR * max(top, 1e-300):
        return "not positive definite"
    return None


# ---------------------------------------------------------------------------
# blocks stored by shape


@functools.lru_cache(maxsize=LAYOUT_CACHE)
def _groups(*vectors) -> tuple:
    """Block indices grouped by equal entries in every vector, in order of
    first appearance and ascending within a group; cached per layout, so
    the index arrays are read-only."""
    groups = tuple(np.array(idx) for idx in key_groups(zip(*vectors)))
    for idx in groups:
        idx.flags.writeable = False
    return groups


class _Layout:
    """Blocks k of shape (rows[k], cols[k]), grouped by shape: index[g]
    holds the blocks of shape shapes[g].  A transposed layout groups the
    same blocks in the same order."""

    def __init__(self, rows, cols):
        self.rows, self.cols, self.index = rows, cols, _groups(rows, cols)
        self.shapes = tuple((rows[idx[0]], cols[idx[0]]) for idx in self.index)
        self.group = {int(k): g for g, idx in enumerate(self.index) for k in idx}

    def locate(self, idx):
        """(group, selection) of blocks idx, which share a group here; the
        selection is None when idx is the whole group."""
        g = self.group[int(idx[0])]
        full = len(idx) == len(self.index[g])
        return g, None if full else np.searchsorted(self.index[g], idx)


_layout = functools.lru_cache(maxsize=LAYOUT_CACHE)(_Layout)  # one object per (rows, cols)


@functools.lru_cache(maxsize=LAYOUT_CACHE)
def _pairing(left: _Layout, right: _Layout):
    """The plan of left @ right, left of shapes (P_k, N_k) and right of
    (N_k, M_k): the product's layout, and per group of blocks that share
    (P_k, N_k, M_k) its indices and where they sit in left, right and the
    product."""
    out = _layout(left.rows, right.cols)
    steps = tuple(
        (idx, *left.locate(idx), *right.locate(idx), *out.locate(idx))
        for idx in _groups(left.rows, left.cols, right.cols)
    )
    return out, steps


def _place(layout: _Layout, pieces) -> tuple:
    """The stacks of layout from (group, selection, stack) pieces that hold
    every block once; a piece that is a whole group is used as it is."""
    stacks = [None] * len(layout.index)
    for g, sel, s in pieces:
        if sel is None:
            stacks[g] = s
            continue
        if stacks[g] is None:
            stacks[g] = np.empty((len(layout.index[g]), *layout.shapes[g]), dtype=complex)
        stacks[g][sel] = s
    return tuple(stacks)


class BlockStacks:
    """The blocks of an A-linear map stored by shape: stacks[g], of shape
    (count, rows, cols), holds the blocks layout.index[g].  Stacks are not
    written once built; every operation returns new ones."""

    __slots__ = ("layout", "stacks")

    def __init__(self, layout: _Layout, stacks: tuple):
        self.layout = layout
        self.stacks = stacks

    @staticmethod
    def from_blocks(rows, cols, blocks) -> "BlockStacks":
        """Per-block input, checked: one block per algebra block, block k
        of shape (rows[k], cols[k])."""
        blocks = list(blocks)
        if len(blocks) != len(rows):
            raise ShapeMismatch(f"need one block per algebra block, got {len(blocks)}")
        layout = _layout(tuple(rows), tuple(cols))
        stacks = []
        for idx, shape in zip(layout.index, layout.shapes):
            try:
                stacks.append(np.array([blocks[k] for k in idx], dtype=complex))
            except (TypeError, ValueError):  # ragged, or not numbers
                stacks.append(None)
            if stacks[-1] is None or stacks[-1].shape[1:] != shape:
                for k in idx:
                    if np.shape(blocks[k]) != shape:
                        got = np.shape(blocks[k])
                        raise ShapeMismatch(f"block {k} has shape {got}, expected {shape}")
                raise ValidationError("blocks must be matrices of numbers")
        return BlockStacks(layout, tuple(stacks))

    @staticmethod
    def from_pieces(rows, cols, pieces) -> "BlockStacks":
        """Stacks of blocks of shape (rows[k], cols[k]) from (block indices,
        stack) pieces that hold every block once."""
        layout = _layout(tuple(rows), tuple(cols))
        return BlockStacks(layout, _place(layout, [(*layout.locate(idx), s) for idx, s in pieces]))

    @staticmethod
    def zeros(rows: tuple, cols: tuple) -> "BlockStacks":
        layout = _layout(rows, cols)
        return BlockStacks(layout, tuple(
            np.zeros((len(idx), *shape), dtype=complex)
            for idx, shape in zip(layout.index, layout.shapes)
        ))

    @staticmethod
    def identity(mult: tuple) -> "BlockStacks":
        return BlockStacks.zeros(mult, mult).map(lambda s: s + np.eye(s.shape[1]))

    @property
    def blocks(self) -> tuple:
        """Block k, as a read-only view into its stack."""
        out = [None] * len(self.layout.rows)
        for idx, s in zip(self.layout.index, self.stacks):
            view = s.view()
            view.flags.writeable = False
            for k, b in zip(idx, view):
                out[k] = b
        return tuple(out)

    def nonempty(self) -> list:
        """(block indices, stack) of each stack with entries."""
        return [(idx, s) for idx, s in zip(self.layout.index, self.stacks) if s.size]

    def map(self, fn) -> "BlockStacks":
        """fn applied to every stack; fn keeps the shape of the blocks."""
        return BlockStacks(self.layout, tuple([fn(s) for s in self.stacks]))

    @property
    def H(self) -> "BlockStacks":
        """The conjugate transpose of every block."""
        layout = _layout(self.layout.cols, self.layout.rows)
        return BlockStacks(layout, tuple([s.conj().swapaxes(1, 2) for s in self.stacks]))

    def pairs(self, other: "BlockStacks") -> list:
        """(block indices, stack here, stack of other) per group of blocks
        that share their shapes in both factors of self @ other."""
        _, steps = _pairing(self.layout, other.layout)
        a, b = self.stacks, other.stacks
        return [
            (idx, a[lg] if ls is None else a[lg][ls], b[rg] if rs is None else b[rg][rs])
            for idx, lg, ls, rg, rs, _, _ in steps
        ]

    def __matmul__(self, other: "BlockStacks") -> "BlockStacks":
        out, steps = _pairing(self.layout, other.layout)
        a, b = self.stacks, other.stacks
        return BlockStacks(out, _place(out, [
            (og, osel, (a[lg] if ls is None else a[lg][ls]) @ (b[rg] if rs is None else b[rg][rs]))
            for _, lg, ls, rg, rs, og, osel in steps
        ]))

    def __add__(self, other: "BlockStacks") -> "BlockStacks":
        return BlockStacks(self.layout, tuple([a + b for a, b in zip(self.stacks, other.stacks)]))

    def __sub__(self, other: "BlockStacks") -> "BlockStacks":
        return BlockStacks(self.layout, tuple([a - b for a, b in zip(self.stacks, other.stacks)]))

    def singular_values(self, rtol: float = RANK_RTOL, scale: float | None = None):
        """(top, low, rank, logs) of each block: _linalg.singular_values on
        the stored stacks."""
        return singular_values(self.nonempty(), len(self.layout.rows), rtol, scale)

    def norm(self) -> float:
        """Largest spectral norm of a block, from one singular-value call per
        stack."""
        return float(np.max(self.singular_values()[0], initial=0.0))


class _GramData:
    """A positive invertible commutant operator used as a scalar product.

    Stored as block stacks; caches the blockwise powers G^(1/2), G^(-1/2)
    and G^(-1) in the same layout, since metric work happens per block.
    The carrier matrix is built only when asked for: matrix is the given
    carrier matrix, a function that builds it, or None for the identity and
    for the operator with these blocks.  The identity (stacked None) builds
    its stacks only when they (or its powers) are read; code that tests
    is_identity first never reads them.
    """

    __slots__ = ("module", "_stacked", "is_identity", "_matrix", "_powers")

    def __init__(self, module, stacked=None, matrix=None):
        self.module = module
        self._stacked = stacked
        self.is_identity = stacked is None
        self._matrix = matrix
        self._powers = None

    @property
    def stacked(self) -> BlockStacks:
        if self._stacked is None:
            self._stacked = BlockStacks.identity(self.module.multiplicities)
        return self._stacked

    @property
    def blocks(self):
        return self.stacked.blocks

    @staticmethod
    def direct_sum(module, summands):
        """Block sum of the summands' references, one block per algebra block."""
        grams = [s.reference_gram for s in summands]
        if all(g.is_identity for g in grams):
            return _GramData(module)
        blocks = []
        summand_blocks = [g.blocks for g in grams]
        for k, m in enumerate(module.multiplicities):
            block = np.zeros((m, m), dtype=complex)
            at = 0
            for gb in summand_blocks:
                mk = gb[k].shape[0]
                block[at : at + mk, at : at + mk] = gb[k]
                at += mk
            blocks.append(block)
        mult = module.multiplicities
        stacked = BlockStacks.from_blocks(mult, mult, blocks)
        return _GramData(module, stacked, lambda: _direct_sum_gram_matrix(module))

    @property
    def matrix(self):
        """The gram in the module's user coordinates."""
        if self._matrix is None:
            if self.is_identity:
                self._matrix = np.eye(self.module.carrier_dim, dtype=complex)
            else:
                op = CommutantOperator._of(self.module, self.module, self.stacked)
                self._matrix = op.to_matrix()
        elif callable(self._matrix):
            self._matrix = self._matrix()
        return self._matrix

    def _power_stacks(self):
        """(G^(1/2), G^(-1/2), G^(-1)) from one eigendecomposition of each
        block, one eigh call per stack; the blocks were checked positive
        definite on entry.  The identity is its own powers."""
        if self._powers is None and self.is_identity:
            self._powers = (self.stacked,) * 3
        elif self._powers is None:
            powers = []
            for s in self.stacked.stacks:
                vals, vecs = np.linalg.eigh(0.5 * (s + s.conj().swapaxes(1, 2)))
                root, vals = np.sqrt(vals)[:, None, :], vals[:, None, :]
                vh = vecs.conj().swapaxes(1, 2)
                powers.append(((vecs * root) @ vh, (vecs / root) @ vh, (vecs / vals) @ vh))
            self._powers = tuple(BlockStacks(self.stacked.layout, p) for p in zip(*powers))
        return self._powers

    def inv_times(self, x: BlockStacks) -> BlockStacks:
        """G^(-1) X per block; X itself under an identity gram."""
        return x if self.is_identity else self.inv @ x

    def right_times(self, x: BlockStacks) -> BlockStacks:
        """X G per block; X itself under an identity gram."""
        return x if self.is_identity else x @ self.stacked

    @property
    def sqrt(self) -> BlockStacks:
        return self._power_stacks()[0]

    @property
    def inv_sqrt(self) -> BlockStacks:
        return self._power_stacks()[1]

    @property
    def inv(self) -> BlockStacks:
        return self._power_stacks()[2]


def gram_coordinates(x: BlockStacks, source: HilbertianModule, target: HilbertianModule):
    """G_t^(1/2) X G_s^(-1/2): the blocks X of a map source -> target in the
    coordinates where the reference grams G_s and G_t of its source and
    target are the identity, a factor applied only where its gram is not
    the identity."""
    gs, gt = source.reference_gram, target.reference_gram
    if not gt.is_identity:
        x = gt.sqrt @ x
    return x if gs.is_identity else x @ gs.inv_sqrt


def resolve_gram(module: HilbertianModule, gram) -> _GramData:
    """The one way a gram becomes gram data.

    Accepts gram data or an operator on a module with the same coordinates
    (operators are checked blockwise), or a carrier matrix (checked in
    full: shape, self-adjointness, commutation with the action,
    positivity).
    """
    if isinstance(gram, _GramData):
        if not gram.module.same_coordinates(module):
            raise AlgebraMismatch("gram belongs to a different module")
        return gram
    matrix = None
    if isinstance(gram, ModuleMorphism):
        if not (gram.source.same_coordinates(module) and gram.target.same_coordinates(module)):
            raise AlgebraMismatch("gram belongs to a different module")
        stacked = gram.stacked
    else:
        matrix = as_complex_matrix(gram)
        if matrix.shape != (module.carrier_dim,) * 2:
            raise ShapeMismatch("gram has wrong shape")
        if not is_hermitian(matrix):
            raise NotAdmissible("gram is not self-adjoint")
        stacked, resid, scale = _extract_blocks(module, module, matrix)
        if resid > COMMUTANT_TOL * scale:
            raise NotAdmissible("gram does not commute with the algebra action")
    defect = gram_defect(stacked)
    if defect:
        raise NotAdmissible(f"gram is {defect}")
    return _GramData(module, stacked, matrix)


def _extract_blocks(source, target, mat):
    """Blockwise form of an A-linear map, plus the reconstruction residual.

    Returns (stacked, residual, scale): block k, of shape (m_k(target),
    m_k(source)), is the mean of the n_k diagonal copies of F_k in canonical
    coordinates; the residual is the Frobenius norm of mat there less each
    1_{n_k} kron F_k, and the scale max(1, largest entry modulus) of mat.
    Blocks that share (n_k, m_k(target), m_k(source)) are gathered into one
    stack, read by one einsum and put back with their copies subtracted.
    """
    ut, us = target.basis_map, source.basis_map
    can = mat.copy() if ut is None else ut.conj().T @ mat
    if us is not None:
        can = can @ us
    scale = max(1.0, float(np.max(np.abs(can), initial=0.0)))
    dims, mt, ms = source.algebra.block_dims, target.multiplicities, source.multiplicities
    found = []
    for idx in _groups(dims, mt, ms):
        k = idx[0]
        n = dims[k]
        if len(idx) == 1:  # a lone block is read and reduced in place
            at = (target.block_slice(k), source.block_slice(k))
        else:
            rows = target._offsets[idx][:, None, None] + np.arange(n * mt[k])[:, None]
            at = (rows, source._offsets[idx][:, None, None] + np.arange(n * ms[k]))
        pieces = can[at].reshape(len(idx), n, mt[k], n, ms[k])
        f = np.einsum("kaiaj->kij", pieces) / n
        diag = np.arange(n)
        pieces[:, diag, :, diag, :] -= f
        if len(idx) > 1:
            can[at] = pieces.reshape(len(idx), n * mt[k], n * ms[k])
        found.append((idx, f))
    return BlockStacks.from_pieces(mt, ms, found), float(np.linalg.norm(can)), scale


class ModuleMorphism:
    """A-linear map between Hilbertian modules, stored as block stacks.

    The constructor takes one block per algebra block; blocks is the
    read-only per-block view of the stored stacks.
    """

    def __init__(self, source, target, blocks):
        if source.algebra != target.algebra:
            raise AlgebraMismatch("morphism endpoints live over different algebras")
        self.source = source
        self.target = target
        self.stacked = BlockStacks.from_blocks(target.multiplicities, source.multiplicities, blocks)

    @classmethod
    def _of(cls, source, target, stacked: BlockStacks):
        """The map with these stacks, whose layout is already (target,
        source); nothing is checked."""
        out = object.__new__(cls)
        out.source, out.target, out.stacked = source, target, stacked
        return out

    def _with(self, stacked: BlockStacks):
        return type(self)._of(self.source, self.target, stacked)

    @property
    def blocks(self) -> tuple:
        return self.stacked.blocks

    @classmethod
    def from_matrix(cls, source, target, mat):
        mat = as_complex_matrix(mat)
        if mat.shape != (target.carrier_dim, source.carrier_dim):
            raise ShapeMismatch(
                f"matrix shape {mat.shape} does not map {source.carrier_dim} -> {target.carrier_dim}"
            )
        stacked, resid, scale = _extract_blocks(source, target, mat)
        if resid > COMMUTANT_TOL * scale:
            raise NotInCommutant(f"matrix is not A-linear (residual {resid:.2e})")
        return cls._of(source, target, stacked)

    def to_matrix(self) -> np.ndarray:
        out = np.zeros((self.target.carrier_dim, self.source.carrier_dim), dtype=complex)
        for k, (n, b) in enumerate(zip(self.source.algebra.block_dims, self.blocks)):
            out[self.target.block_slice(k), self.source.block_slice(k)] = np.kron(np.eye(n), b)
        if self.target.basis_map is not None:
            out = self.target.basis_map @ out
        if self.source.basis_map is not None:
            out = out @ self.source.basis_map.conj().T
        return out

    def __matmul__(self, other: "ModuleMorphism") -> "ModuleMorphism":
        if not isinstance(other, ModuleMorphism):
            return NotImplemented
        if not other.target.is_same_space(self.source):
            raise AlgebraMismatch("morphisms do not compose")
        return _morphism(other.source, self.target, self.stacked @ other.stacked)

    def __add__(self, other):
        self._check_same_shape(other)
        return self._with(self.stacked + other.stacked)

    def __sub__(self, other):
        self._check_same_shape(other)
        return self._with(self.stacked - other.stacked)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return self._with(self.stacked.map(lambda s: scalar * s))

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def _check_same_shape(self, other):
        if not (self.source.is_same_space(other.source) and self.target.is_same_space(other.target)):
            raise AlgebraMismatch("morphisms have different endpoints")

    def adjoint(self) -> "ModuleMorphism":
        """Adjoint with respect to the reference grams of source and target."""
        gs, gt = self.source.reference_gram, self.target.reference_gram
        return _morphism(self.target, self.source, gt.right_times(gs.inv_times(self.stacked.H)))

    def is_iso(self) -> bool:
        """Square blocks, each of full rank at INVERTIBLE_RTOL."""
        layout = self.stacked.layout
        if layout.rows != layout.cols:
            return False
        return bool(np.all(self.stacked.singular_values(INVERTIBLE_RTOL)[2] == layout.rows))

    def inverse(self) -> "ModuleMorphism":
        if not self.is_iso():
            raise NotIso("morphism is not invertible")
        # an empty square block is its own inverse
        inv = self.stacked.map(lambda s: np.linalg.inv(s) if s.size else s)
        return _morphism(self.target, self.source, inv)

    def norm(self) -> float:
        """Largest spectral norm of a block, from one singular-value call per
        block shape."""
        return self.stacked.norm()


def _morphism(source, target, stacked: BlockStacks) -> ModuleMorphism:
    """The map source -> target with these stacks; a commutant operator on
    target when the two are the same space."""
    if source.is_same_space(target):
        return CommutantOperator._of(target, target, stacked)
    return ModuleMorphism._of(source, target, stacked)


class CommutantOperator(ModuleMorphism):
    """A-linear endomorphism of one module."""

    def __init__(self, module, blocks):
        super().__init__(module, module, blocks)

    @property
    def module(self):
        return self.source

    @classmethod
    def from_matrix(cls, module, mat):
        return super().from_matrix(module, module, mat)

    @classmethod
    def identity(cls, module):
        return cls._of(module, module, BlockStacks.identity(module.multiplicities))

    @classmethod
    def zero(cls, module):
        mult = module.multiplicities
        return cls._of(module, module, BlockStacks.zeros(mult, mult))


# ---------------------------------------------------------------------------
# module-level operations


def commutant_basis(module: HilbertianModule) -> list[CommutantOperator]:
    """Matrix-unit basis of the commutant; size sum_k m_k^2."""
    out = []
    for k, m in enumerate(module.multiplicities):
        for i in range(m):
            for j in range(m):
                blocks = [np.zeros((mm, mm), dtype=complex) for mm in module.multiplicities]
                blocks[k][i, j] = 1.0
                out.append(CommutantOperator(module, blocks))
    return out


def canonical_trace(module: HilbertianModule, f: CommutantOperator) -> complex:
    if not f.module.is_same_space(module):
        raise AlgebraMismatch("operator lives on a different module")
    return complex(
        sum(w * np.trace(b) for (_, w), b in zip(module.algebra.blocks, f.blocks))
    )


def von_neumann_dimension(module: HilbertianModule) -> float:
    return float(
        sum(w * m for (_, w), m in zip(module.algebra.blocks, module.multiplicities))
    )


@dataclass
class AdmissibilityReport:
    homeomorphism: bool
    self_adjoint: bool
    positive: bool
    commutes: bool
    condition_number: float
    transition: CommutantOperator | None

    @property
    def ok(self) -> bool:
        return self.homeomorphism and self.self_adjoint and self.positive and self.commutes


def check_admissible(module: HilbertianModule, gram) -> AdmissibilityReport:
    """Check the four admissibility conditions of a candidate scalar product.

    The transition operator T (gram = reference . T, so that
    <v, w>_gram = <T v, w>_reference) is reported when all conditions hold.
    """
    gram = as_complex_matrix(gram)
    if gram.shape != (module.carrier_dim,) * 2:
        raise ShapeMismatch("gram has wrong shape")
    self_adjoint = is_hermitian(gram)
    herm = 0.5 * (gram + gram.conj().T)
    vals = np.linalg.eigvalsh(herm) if herm.size else np.array([1.0])
    top = float(np.max(np.abs(vals))) if vals.size else 1.0
    positive = bool(vals.size == 0 or np.min(vals) > POSITIVITY_FLOOR * top)
    cond = float(np.max(vals) / np.min(vals)) if positive and vals.size else np.inf
    homeo = bool(np.isfinite(cond) and cond < COND_LIMIT)
    stacked, resid, scale = _extract_blocks(module, module, gram)
    commutes = bool(resid <= COMMUTANT_TOL * scale)
    transition = None
    if self_adjoint and positive and homeo and commutes:
        transition = CommutantOperator._of(module, module, module.reference_gram.inv_times(stacked))
    return AdmissibilityReport(homeo, self_adjoint, positive, commutes, cond, transition)


# ---------------------------------------------------------------------------
# constructions


def direct_sum_many(modules: list[HilbertianModule]) -> HilbertianModule:
    """Direct sum; user coordinates are the concatenated user coordinates and
    the reference gram is the block sum of the summand references."""
    if not modules:
        raise ValidationError("direct sum needs at least one summand")
    alg = modules[0].algebra
    for m in modules:
        if m.algebra != alg:
            raise AlgebraMismatch("summands live over different algebras")
    mult = tuple(sum(m.multiplicities[k] for m in modules) for k in range(len(alg.blocks)))
    return HilbertianModule._direct_sum(alg, mult, modules)


def _direct_sum_basis_map(total: HilbertianModule) -> np.ndarray:
    """Unitary from canonical coordinates of a direct sum to the
    concatenated user coordinates of its summands."""
    dims, mult = total.algebra.block_dims, total.multiplicities
    u = np.zeros((total.carrier_dim, total.carrier_dim), dtype=complex)
    sum_offsets = total._offsets
    user_at = 0
    mult_seen = [0] * len(dims)
    for mod in total._summands:
        umod = mod.basis_map if mod.basis_map is not None else np.eye(mod.carrier_dim)
        # canonical index of summand (block k, copy a, column i) lands at
        # sum-canonical index (block k, copy a, column offset_k + i)
        cols = []
        for k, n in enumerate(dims):
            mk, off = mod.multiplicities[k], mult_seen[k]
            for a in range(n):
                for i in range(mk):
                    cols.append(sum_offsets[k] + a * mult[k] + off + i)
        cols = np.asarray(cols, dtype=int)
        u[user_at : user_at + mod.carrier_dim, cols] = umod
        user_at += mod.carrier_dim
        for k in range(len(dims)):
            mult_seen[k] += mod.multiplicities[k]
    return u


def _direct_sum_gram_matrix(total: HilbertianModule) -> np.ndarray:
    """Block sum of the summands' reference grams, in user coordinates."""
    gram = np.zeros((total.carrier_dim, total.carrier_dim), dtype=complex)
    at = 0
    for mod in total._summands:
        gram[at : at + mod.carrier_dim, at : at + mod.carrier_dim] = mod.reference_gram.matrix
        at += mod.carrier_dim
    return gram


def direct_sum(m: HilbertianModule, n: HilbertianModule) -> HilbertianModule:
    return direct_sum_many([m, n])


def inclusion_morphisms(modules, total: HilbertianModule) -> list[ModuleMorphism]:
    """The canonical inclusions of summands into direct_sum_many(modules)."""
    dims = total.algebra.block_dims
    out = []
    offset = [0] * len(dims)
    for mod in modules:
        blocks = []
        for k in range(len(dims)):
            j = np.zeros((total.multiplicities[k], mod.multiplicities[k]), dtype=complex)
            j[offset[k] : offset[k] + mod.multiplicities[k], :] = np.eye(mod.multiplicities[k])
            blocks.append(j)
        out.append(ModuleMorphism(mod, total, blocks))
        for k in range(len(dims)):
            offset[k] += mod.multiplicities[k]
    return out


def standard_module(algebra: FiniteVonNeumannAlgebra) -> HilbertianModule:
    """The algebra acting on itself; canonical coordinates, multiplicity n_k."""
    return HilbertianModule(algebra, algebra.block_dims)


def zero_module(algebra: FiniteVonNeumannAlgebra) -> HilbertianModule:
    return HilbertianModule(algebra, [0] * len(algebra.blocks))


def free_module(algebra: FiniteVonNeumannAlgebra, rank: int) -> HilbertianModule:
    if rank < 1:
        raise ValidationError("free rank must be >= 1")
    return direct_sum_many([standard_module(algebra)] * rank)


def right_action_operator(free: HilbertianModule, alpha) -> CommutantOperator:
    """Right multiplication by a square matrix alpha over A on a free module.

    alpha[j][i] is the (row j, column i) entry; components transform by
    (v . alpha)_i = sum_j v_j alpha[j][i].  Composition reverses order, as it
    must for a right action.
    """
    rank = len(alpha)
    alg = free.algebra
    if any(len(row) != rank for row in alpha):
        raise ShapeMismatch("alpha must be square")
    if free.multiplicities != tuple(rank * n for n in alg.block_dims):
        raise ShapeMismatch("module is not free of the right rank")
    blocks = []
    for k, n in enumerate(alg.block_dims):
        rows = []
        for i in range(rank):
            rows.append([alpha[j][i].block_matrices[k].T for j in range(rank)])
        blocks.append(np.block(rows) if n else np.zeros((0, 0), dtype=complex))
    return CommutantOperator(free, blocks)


def regular_module(dec: GroupAlgebraDecomposition) -> HilbertianModule:
    """l2 of the group algebra in group-element coordinates, with the
    identity gram; regular_module(dec).with_reference_gram(g) re-metrises
    it."""
    return HilbertianModule(dec.algebra, dec.algebra.block_dims, basis_map=dec.change_of_basis)


def module_from_group_action(
    dec: GroupAlgebraDecomposition, images, reference_gram=None
) -> HilbertianModule:
    """Normalize a unitary group action on C^d into isotypic form.

    images: one unitary matrix per group element.  The basis is built from
    the images of the matrix units of each block, so the stored unitary does
    exactly and deterministically what eigen-clustering would do generically.
    Matrix-unit images come by Fourier inversion; products and the round
    trip are checked by Frobenius norms at 1e-8.
    """
    table = dec.table
    images = [as_complex_matrix(m) for m in images]
    if len(images) != table.order:
        raise ShapeMismatch("need one image per group element")
    d = images[0].shape[0]
    for m in images:
        if m.shape != (d, d):
            raise ShapeMismatch("images must share one square shape")
        if np.linalg.norm(m @ m.conj().T - np.eye(d)) > 1e-8:
            raise ValidationError("raw actions must be unitary representations")
    # Frobenius norms bound operator norms above, and unitary images have norm 1 to 5e-9,
    # so the product check drops max(1, ||images[g]||); images[g] @ wide is all images[g] images[h].
    stack = np.stack(images)
    wide = stack.transpose(1, 0, 2).reshape(d, -1)
    for g in range(table.order):
        prods = (images[g] @ wide).reshape(d, -1, d).transpose(1, 0, 2)
        bad = np.flatnonzero(np.linalg.norm(prods - stack[table.product[g]], axis=(1, 2)) > 1e-8)
        if bad.size:
            raise ValidationError(f"images do not respect the product at ({g},{bad[0]})")

    # units[a] = rep(E_k(a, 0)) = sum_g w_k conj(img_k(g)[a, 0]) images[g];
    # frame[a] holds the columns of u for copy a.
    alg = dec.algebra
    frames = []
    for w, imgs in zip(alg.weights, dec.images):
        units = np.tensordot(w * imgs[:, :, 0].conj().T, stack, axes=1)
        basis = orthonormal_range(units[0], rtol=1e-8)  # range of the (k, column-1) projection
        frames.append(units @ basis)
    mult = [f.shape[2] for f in frames]
    if sum(n * m for n, m in zip(alg.block_dims, mult)) != d:
        raise ValidationError("action does not fill the carrier; not a module over this algebra")
    u = np.concatenate([f.transpose(1, 0, 2).reshape(d, -1) for f in frames], axis=1)
    module = HilbertianModule(alg, mult, basis_map=u, reference_gram=reference_gram)
    # round trip: module.action(img(g)) is sum_k,a,b img_k(g)[a, b] frame[a] frame[b]^H
    resid = -stack.reshape(table.order, -1)
    for imgs, f in zip(dec.images, frames):
        units = f[:, None] @ f.conj().transpose(0, 2, 1)
        resid += imgs.reshape(table.order, -1) @ units.reshape(len(f) ** 2, -1)
    if np.max(np.linalg.norm(resid, axis=1)) > 1e-8:
        raise ValidationError("normalized module does not reproduce the raw action")
    return module


def submodule_from_blocks(
    module: HilbertianModule, column_blocks
) -> tuple[HilbertianModule, ModuleMorphism]:
    """Submodule spanned per block by the given multiplicity-space columns.

    Columns are orthonormalized against the module's reference gram, so the
    submodule's reference gram is the induced product and equals the
    identity in its own coordinates.  Returns (submodule, embedding).
    """
    column_blocks = [np.asarray(c, dtype=complex) for c in column_blocks]
    if any(c.ndim != 2 for c in column_blocks):
        raise ShapeMismatch("column blocks must be matrices")
    cols = [c.shape[1] for c in column_blocks]
    frames = BlockStacks.from_blocks(module.multiplicities, cols, column_blocks)
    return _frame_module(module, _orthonormalized(module.reference_gram, frames))


def _orthonormalized(g: _GramData, frames: BlockStacks) -> BlockStacks:
    """Columns recombined to be orthonormal for <v, w> = w^H G v: C R^(-1)
    from the QR factorization G^(1/2) C = Q R, one call per stack.  Columns
    must be linearly independent."""
    return BlockStacks(frames.layout, tuple(
        c @ np.linalg.inv(np.linalg.qr(wc)[1]) if c.size else c
        for c, wc in zip(frames.stacks, (g.sqrt @ frames).stacks)
    ))


def _frame_module(module, frames: BlockStacks):
    sub = HilbertianModule(module.algebra, frames.layout.cols)
    return sub, ModuleMorphism._of(sub, module, frames)


def frame_submodule(
    module: HilbertianModule, frames: BlockStacks
) -> tuple[HilbertianModule, ModuleMorphism]:
    """Submodule spanned per block by orthonormal frames (SVD output).

    Like submodule_from_blocks, but under an identity reference gram the
    frames are used as they are: they are orthonormal already, and
    orthonormalizing them again would only add rounding.
    """
    g = module.reference_gram
    return _frame_module(module, frames if g.is_identity else _orthonormalized(g, frames))


def _frames(rows, parts, start, width) -> BlockStacks:
    """Frames of shape (rows[k], width[k]): block k keeps columns start[k]
    to start[k] + width[k] of its matrix in parts, a list of (block
    indices, stack); blocks that keep the same columns are cut together."""
    pieces = []
    for idx, s in parts:
        for at in key_groups(zip(start[idx].tolist(), width[idx].tolist())):
            k = idx[at[0]]
            pieces.append((idx[at], s[at, :, start[k] : start[k] + width[k]]))
    return BlockStacks.from_pieces(rows, width.tolist(), pieces)


def range_and_kernel(f: BlockStacks, scale: float) -> tuple[BlockStacks, BlockStacks, np.ndarray]:
    """Orthonormal bases (columns) of the column span and of the kernel of
    each block, and each block's sum of log singular values over its rank.

    One singular-value pass (BlockStacks.singular_values) decides the
    ranks: a block's rank counts its singular values above RANK_RTOL times
    scale, one scale for every block, so a block that is zero up to the
    rounding of larger ones has rank 0 where a cut relative to the block
    would count that rounding.  A square block of full rank spans its whole target and has no kernel,
    so its frames are the identity and an empty frame, read off without
    singular vectors.  Only the other blocks take a full SVD, one call per
    stack over those blocks: the leading left and the trailing right
    singular vectors, split at the rank.  A block with no entries spans
    nothing, and its whole source is its kernel."""
    cols = np.array(f.layout.cols)
    _, _, rank, logs = f.singular_values(RANK_RTOL, scale)
    lefts, rights = [], []
    for idx, s in zip(f.layout.index, f.stacks):
        r, c = s.shape[1:]
        # all but the blocks with no entries and the square blocks of full rank
        vectors = (rank[idx] < max(r, c)) & (s.size > 0)
        if not vectors.all():
            keep, n = idx[~vectors], int(np.sum(~vectors))
            lefts.append((keep, np.broadcast_to(np.eye(r, dtype=complex), (n, r, r))))
            rights.append((keep, np.broadcast_to(np.eye(c, dtype=complex), (n, c, c))))
        if vectors.any():
            u, _, vh = np.linalg.svd(s if vectors.all() else s[vectors])
            lefts.append((idx[vectors], u))
            rights.append((idx[vectors], vh.conj().swapaxes(1, 2)))
    return (
        _frames(f.layout.rows, lefts, np.zeros_like(rank), rank),
        _frames(f.layout.cols, rights, rank, cols - rank),
        logs,
    )


def kernel_submodule(f: ModuleMorphism):
    """Kernel of an A-linear map as a submodule of its source; ranks cut
    against the map's largest singular value."""
    return frame_submodule(f.source, range_and_kernel(f.stacked, f.norm())[1])


def image_submodule(f: ModuleMorphism):
    """Closed image of an A-linear map as a submodule of its target; ranks
    cut against the map's largest singular value."""
    return frame_submodule(f.target, range_and_kernel(f.stacked, f.norm())[0])
