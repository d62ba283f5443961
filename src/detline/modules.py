"""Finitely generated Hilbertian modules in isotypic normal form.

A module over A = sum_k M_{n_k}(C) is stored by its multiplicities
(m_1, ..., m_r): the canonical carrier is sum_k C^{n_k} (x) C^{m_k} and the
algebra acts by x |-> blkdiag_k(x_k kron 1_{m_k}).  The carrier has no
preferred scalar product; a reference gram (positive, invertible, commuting
with the action) is part of the data, and every metric notion (adjoint,
submodule frame, spectral density, determinant, torsion) is taken against
it.  The metric is chosen when a module is built, through
HilbertianModule(reference_gram=), with_reference_gram, regular_module or
module_from_group_action, and nowhere else: no function takes a per-call
gram.

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

Everything A-linear is stored blockwise: a morphism M -> N decomposes as
blkdiag_k(1_{n_k} kron F_k) in canonical coordinates with F_k of shape
(m_k(N), m_k(M)).  Commutant operators are the square case.  The canonical
trace of a commutant operator is sum_k w_k tr(F_k), which agrees with the
free-embedding formula on free modules (tested, not assumed).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from ._linalg import (
    as_complex_matrix,
    gram_orthonormalize,
    is_hermitian,
    nullspace,
    operator_norm,
    orthonormal_range,
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
COND_LIMIT = 1e12
POSITIVITY_FLOOR = 1e-10
SAME_SPACE_TOL = 1e-12


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    """Entrywise equality to SAME_SPACE_TOL times max(1, largest |a_ij|);
    no relative term, so a gram off by a factor 1 + 5e-6 differs."""
    if a.size == 0:
        return True
    scale = max(1.0, float(np.max(np.abs(a))))
    return float(np.max(np.abs(a - b))) <= SAME_SPACE_TOL * scale


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

        if reference_gram is None:
            self.reference_gram = _GramData.identity(self)
        else:
            self.reference_gram = resolve_gram(self, reference_gram)

    @classmethod
    def _direct_sum(cls, algebra, multiplicities, summands):
        """Concatenated user coordinates of the summands; blocks only."""
        out = cls.__new__(cls)
        out._set_layout(algebra, multiplicities)
        out._summands = tuple(summands)
        out._basis_map = None
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

    def _same_coordinates_key(self, other: "HilbertianModule") -> bool:
        """Same user coordinates by construction: both canonical, the same
        given basis map object, or direct sums of summands that pairwise
        have the same layout and key."""
        if self is other:
            return True
        a, b = self._summands, other._summands
        if a is None and b is None:
            return self._basis_map is other._basis_map
        return (
            a is not None
            and b is not None
            and len(a) == len(b)
            and all(
                x.multiplicities == y.multiplicities and x._same_coordinates_key(y)
                for x, y in zip(a, b)
            )
        )

    def same_coordinates(self, other: "HilbertianModule") -> bool:
        """Same algebra, layout and user coordinates; grams may differ.

        Equal coordinates keys decide at once; otherwise (say a direct sum
        against a module given its basis map) the carrier basis maps are
        compared.
        """
        if self is other:
            return True
        if self.algebra != other.algebra or self.multiplicities != other.multiplicities:
            return False
        if self._same_coordinates_key(other):
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
        return all(_close(a, b) for a, b in zip(ga.blocks, gb.blocks))

    def __repr__(self):
        return f"HilbertianModule(dims={self.algebra.block_dims}, mult={self.multiplicities})"


def gram_defect(blocks) -> str | None:
    """Why gram blocks are not a scalar product, or None if they are: each
    block self-adjoint to 1e-10, every eigenvalue above POSITIVITY_FLOOR
    times the largest."""
    if not all(is_hermitian(b) for b in blocks):
        return "not self-adjoint"
    vals = np.concatenate(
        [np.linalg.eigvalsh(0.5 * (b + b.conj().T)) for b in blocks if b.size]
        or [np.ones(1)]
    )
    top = float(np.max(np.abs(vals)))
    if np.min(vals) <= POSITIVITY_FLOOR * max(top, 1e-300):
        return "not positive definite"
    return None


class _GramData:
    """A positive invertible commutant operator used as a scalar product.

    Stored by its blocks; caches the blockwise powers G^(1/2), G^(-1/2) and
    G^(-1), since metric work happens per block.  The carrier matrix is
    built only when asked for: matrix is the given carrier matrix, a
    function that builds it, or None for the identity and for the operator
    with these blocks.
    """

    __slots__ = ("module", "blocks", "is_identity", "_matrix", "_powers")

    def __init__(self, module, blocks, matrix=None, is_identity=False):
        self.module = module
        self.blocks = blocks
        self.is_identity = is_identity
        self._matrix = matrix
        self._powers = (blocks, blocks, blocks) if is_identity else None

    @staticmethod
    def identity(module):
        blocks = tuple(np.eye(m, dtype=complex) for m in module.multiplicities)
        return _GramData(module, blocks, is_identity=True)

    @staticmethod
    def direct_sum(module, summands):
        """Block sum of the summands' references, one block per algebra block."""
        grams = [s.reference_gram for s in summands]
        if all(g.is_identity for g in grams):
            return _GramData.identity(module)
        blocks = []
        for k, m in enumerate(module.multiplicities):
            block = np.zeros((m, m), dtype=complex)
            at = 0
            for g in grams:
                mk = g.blocks[k].shape[0]
                block[at : at + mk, at : at + mk] = g.blocks[k]
                at += mk
            blocks.append(block)
        return _GramData(module, tuple(blocks), lambda: _direct_sum_gram_matrix(module))

    @staticmethod
    def from_blocks(module, blocks, matrix=None):
        defect = gram_defect(blocks)
        if defect:
            raise NotAdmissible(f"gram is {defect}")
        return _GramData(module, tuple(blocks), matrix)

    @staticmethod
    def from_matrix(module, gram):
        gram = as_complex_matrix(gram)
        if gram.shape != (module.carrier_dim,) * 2:
            raise ShapeMismatch("gram has wrong shape")
        if not is_hermitian(gram):
            raise NotAdmissible("gram is not self-adjoint")
        blocks, resid, scale = _extract_blocks(module, module, gram)
        if resid > COMMUTANT_TOL * scale:
            raise NotAdmissible("gram does not commute with the algebra action")
        return _GramData.from_blocks(module, blocks, gram)

    @property
    def matrix(self):
        """The gram in the module's user coordinates."""
        if self._matrix is None:
            if self.is_identity:
                self._matrix = np.eye(self.module.carrier_dim, dtype=complex)
            else:
                self._matrix = CommutantOperator(self.module, self.blocks).to_matrix()
        elif callable(self._matrix):
            self._matrix = self._matrix()
        return self._matrix

    def _power_blocks(self):
        """(G^(1/2), G^(-1/2), G^(-1)) per block from one eigendecomposition
        of each; the blocks were checked positive definite on entry."""
        if self._powers is None:
            powers = []
            for b in self.blocks:
                vals, vecs = np.linalg.eigh(0.5 * (b + b.conj().T))
                root = np.sqrt(vals)
                vh = vecs.conj().T
                powers.append(((vecs * root) @ vh, (vecs / root) @ vh, (vecs / vals) @ vh))
            self._powers = tuple(zip(*powers))  # an algebra has >= 1 block
        return self._powers

    @property
    def sqrt_blocks(self):
        return self._power_blocks()[0]

    @property
    def inv_sqrt_blocks(self):
        return self._power_blocks()[1]

    @property
    def inv_blocks(self):
        return self._power_blocks()[2]


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
    if isinstance(gram, ModuleMorphism):
        if not (gram.source.same_coordinates(module) and gram.target.same_coordinates(module)):
            raise AlgebraMismatch("gram belongs to a different module")
        return _GramData.from_blocks(module, gram.blocks)
    return _GramData.from_matrix(module, gram)


def _extract_blocks(source, target, mat):
    """Blockwise form of an A-linear map, plus the reconstruction residual.

    Returns (blocks, residual, scale): blocks[k], of shape (m_k(target),
    m_k(source)), is the mean of the n_k diagonal copies of F_k in canonical
    coordinates; the residual is the Frobenius norm of mat there less each
    1_{n_k} kron F_k, and the scale max(1, largest entry modulus) of mat.
    """
    ut, us = target.basis_map, source.basis_map
    can = mat.copy() if ut is None else ut.conj().T @ mat
    if us is not None:
        can = can @ us
    scale = max(1.0, float(np.max(np.abs(can), initial=0.0)))
    blocks = []
    for k, n in enumerate(source.algebra.block_dims):
        piece = can[target.block_slice(k), source.block_slice(k)]
        piece = piece.reshape(n, target.multiplicities[k], n, source.multiplicities[k])
        f = np.einsum("aiaj->ij", piece) / n
        blocks.append(f)
        diag = np.arange(n)
        piece[diag, :, diag, :] -= f
    return blocks, float(np.linalg.norm(can)), scale


class ModuleMorphism:
    """A-linear map between Hilbertian modules, stored per block."""

    def __init__(self, source, target, blocks):
        if source.algebra != target.algebra:
            raise AlgebraMismatch("morphism endpoints live over different algebras")
        self.source = source
        self.target = target
        mats = []
        for k, b in enumerate(blocks):
            b = np.asarray(b, dtype=complex)
            want = (target.multiplicities[k], source.multiplicities[k])
            if b.shape != want:
                raise ShapeMismatch(f"block {k} has shape {b.shape}, expected {want}")
            mats.append(b)
        if len(mats) != len(source.algebra.blocks):
            raise ShapeMismatch("need one block per algebra block")
        self.blocks = tuple(mats)

    @classmethod
    def from_matrix(cls, source, target, mat):
        mat = as_complex_matrix(mat)
        if mat.shape != (target.carrier_dim, source.carrier_dim):
            raise ShapeMismatch(
                f"matrix shape {mat.shape} does not map {source.carrier_dim} -> {target.carrier_dim}"
            )
        blocks, resid, scale = _extract_blocks(source, target, mat)
        if resid > COMMUTANT_TOL * scale:
            raise NotInCommutant(f"matrix is not A-linear (residual {resid:.2e})")
        return cls(source, target, blocks)

    def to_matrix(self) -> np.ndarray:
        out = np.zeros((self.target.carrier_dim, self.source.carrier_dim), dtype=complex)
        for k, n in enumerate(self.source.algebra.block_dims):
            out[self.target.block_slice(k), self.source.block_slice(k)] = np.kron(
                np.eye(n), self.blocks[k]
            )
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
        blocks = [a @ b for a, b in zip(self.blocks, other.blocks)]
        if other.source.is_same_space(self.target):
            return CommutantOperator(self.target, blocks)
        return ModuleMorphism(other.source, self.target, blocks)

    def __add__(self, other):
        self._check_same_shape(other)
        return type(self)._rebuild(self, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        self._check_same_shape(other)
        return type(self)._rebuild(self, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return type(self)._rebuild(self, [scalar * b for b in self.blocks])

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    @classmethod
    def _rebuild(cls, proto, blocks):
        if isinstance(proto, CommutantOperator):
            return CommutantOperator(proto.module, blocks)
        return ModuleMorphism(proto.source, proto.target, blocks)

    def _check_same_shape(self, other):
        if not (self.source.is_same_space(other.source) and self.target.is_same_space(other.target)):
            raise AlgebraMismatch("morphisms have different endpoints")

    def adjoint(self) -> "ModuleMorphism":
        """Adjoint with respect to the reference grams of source and target."""
        gs, gt = self.source.reference_gram, self.target.reference_gram
        blocks = [
            gsi @ b.conj().T @ gtb
            for gsi, b, gtb in zip(gs.inv_blocks, self.blocks, gt.blocks)
        ]
        if self.source.is_same_space(self.target):
            return CommutantOperator(self.source, blocks)
        return ModuleMorphism(self.target, self.source, blocks)

    def is_iso(self) -> bool:
        for b in self.blocks:
            if b.shape[0] != b.shape[1]:
                return False
            if b.size and np.linalg.cond(b) > COND_LIMIT:
                return False
        return True

    def inverse(self) -> "ModuleMorphism":
        if not self.is_iso():
            raise NotIso("morphism is not invertible")
        blocks = [np.linalg.inv(b) if b.size else b.copy().T for b in self.blocks]
        if self.source.is_same_space(self.target):
            return CommutantOperator(self.source, blocks)
        return ModuleMorphism(self.target, self.source, blocks)

    def norm(self) -> float:
        return max((operator_norm(b) for b in self.blocks), default=0.0)


class CommutantOperator(ModuleMorphism):
    """A-linear endomorphism of one module."""

    def __init__(self, module, blocks):
        super().__init__(module, module, blocks)
        self.module = module

    @classmethod
    def from_matrix(cls, module, mat):
        mor = ModuleMorphism.from_matrix(module, module, mat)
        return cls(module, mor.blocks)

    @classmethod
    def identity(cls, module):
        return cls(module, [np.eye(m, dtype=complex) for m in module.multiplicities])

    @classmethod
    def zero(cls, module):
        return cls(module, [np.zeros((m, m), dtype=complex) for m in module.multiplicities])


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
    blocks, resid, scale = _extract_blocks(module, module, gram)
    commutes = bool(resid <= COMMUTANT_TOL * scale)
    transition = None
    if self_adjoint and positive and homeo and commutes:
        ref = module.reference_gram
        t_blocks = [gi @ b for gi, b in zip(ref.inv_blocks, blocks)]
        transition = CommutantOperator(module, t_blocks)
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


def regular_module(dec: GroupAlgebraDecomposition, reference_gram=None) -> HilbertianModule:
    """l2 of the group algebra in group-element coordinates."""
    return HilbertianModule(
        dec.algebra,
        dec.algebra.block_dims,
        basis_map=dec.change_of_basis,
        reference_gram=reference_gram,
    )


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
    block_images = dec.block_images()
    frames = []
    for w, imgs in zip(alg.weights, block_images):
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
    for imgs, f in zip(block_images, frames):
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
    g = module.reference_gram
    ortho = []
    mult = []
    for k, colz in enumerate(column_blocks):
        colz = np.asarray(colz, dtype=complex)
        if colz.ndim != 2 or colz.shape[0] != module.multiplicities[k]:
            raise ShapeMismatch(f"column block {k} has wrong shape {colz.shape}")
        y = gram_orthonormalize(colz, g.sqrt_blocks[k]) if colz.shape[1] else colz
        ortho.append(y)
        mult.append(y.shape[1])
    sub = HilbertianModule(module.algebra, mult)
    embed = ModuleMorphism(sub, module, ortho)
    return sub, embed


def frame_submodule(
    module: HilbertianModule, frames
) -> tuple[HilbertianModule, ModuleMorphism]:
    """Submodule spanned per block by orthonormal frames (SVD output).

    Like submodule_from_blocks, but under an identity reference gram the
    frames are used as they are: they are orthonormal already, and
    orthonormalizing them again would only add rounding.
    """
    g = module.reference_gram
    if not g.is_identity:
        frames = [gram_orthonormalize(f, w) for f, w in zip(frames, g.sqrt_blocks)]
    sub = HilbertianModule(module.algebra, [f.shape[1] for f in frames])
    return sub, ModuleMorphism(sub, module, frames)


def kernel_submodule(f: ModuleMorphism):
    """Kernel of an A-linear map as a submodule of its source."""
    return frame_submodule(f.source, [nullspace(b) for b in f.blocks])


def image_submodule(f: ModuleMorphism):
    """Closed image of an A-linear map as a submodule of its target."""
    return frame_submodule(f.target, [orthonormal_range(b) for b in f.blocks])
