"""Combinatorial torsion of cell complexes with group-ring boundaries.

The group of a complex is presented by generator names only; boundary
entries are integer combinations of words, and everything is evaluated
through a representation into the commutant of a Hilbertian module.  For
homology the module carries a right action, so a word acts by the product
of the generator images in reversed order; the cohomology assembly is the
transposed system with the ring involution (reverse and invert each word)
folded into the "left" side's evaluation rule.  Boundary-squared is only
zero through a representation that honors the group relations (the free
Fox identity leaves a w - 1 factor for each relator w), so the check runs
at assembly time.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .complexes import (
    COCHAIN,
    CHAIN,
    HilbertianChainComplex,
    HodgeData,
    hodge,
    map_ends,
    torsion_iso_via_exact_sequences,
    torsion_iso_via_laplacians,
)
from .determinant import fk_det
from .errors import (
    InvalidSubdivision,
    NotIso,
    NotUnimodular,
    ParseError,
    RelationViolation,
    ValidationError,
)
from .lines import GradedDetLineElement, pushforward, reference_element
from .modules import (
    BlockStacks,
    CommutantOperator,
    HilbertianModule,
    ModuleMorphism,
    _layout,
    direct_sum_many,
    zero_module,
)

UNIMODULAR_TOL = 1e-9
RELATION_TOL = 1e-9


# -- words and the group ring ------------------------------------------------


def reduce_word(pairs) -> tuple:
    """Collapse adjacent same-generator powers and drop zero exponents."""
    out = []
    for g, k in pairs:
        k = int(k)
        if k == 0:
            continue
        if out and out[-1][0] == g:
            merged = out[-1][1] + k
            out.pop()
            if merged:
                out.append((g, merged))
        else:
            out.append((g, k))
    return tuple(out)


def parse_word(text: str) -> tuple:
    """Words are space-separated tokens 'g' or 'g^k'; empty text is the
    identity."""
    if not isinstance(text, str):
        raise ParseError(f"expected a word string, got {type(text).__name__}")
    text = text.strip()
    if not text:
        return ()
    pairs = []
    for token in text.split():
        if "^" in token:
            name, _, power = token.partition("^")
            try:
                k = int(power)
            except ValueError:
                raise ParseError(f"bad exponent in token {token!r}") from None
        else:
            name, k = token, 1
        if not name:
            raise ParseError(f"empty generator name in token {token!r}")
        pairs.append((name, k))
    return reduce_word(pairs)


def word_to_text(word) -> str:
    return " ".join(g if k == 1 else f"{g}^{k}" for g, k in word)


def word_inverse(word) -> tuple:
    return tuple((g, -k) for g, k in reversed(word))


def _as_word(w):
    if isinstance(w, str):
        return parse_word(w)
    return reduce_word(w)


class GroupRingElement:
    """Finite integer combination of words."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for word, coeff in dict(terms or {}).items():
            word = _as_word(word)
            coeff = int(coeff)
            if coeff:
                clean[word] = clean.get(word, 0) + coeff
        self.terms = {w: c for w, c in clean.items() if c}

    @classmethod
    def from_pairs(cls, pairs):
        total = {}
        for coeff, word in pairs:
            word = _as_word(word)
            total[word] = total.get(word, 0) + int(coeff)
        return cls(total)

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def unit(cls, word="", coeff=1):
        return cls({_as_word(word): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        total = dict(self.terms)
        for w, c in other.terms.items():
            total[w] = total.get(w, 0) + c
        return GroupRingElement(total)

    def __neg__(self):
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElement({w: c * other for w, c in self.terms.items()})
        total = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = reduce_word(w1 + w2)
                total[w] = total.get(w, 0) + c1 * c2
        return GroupRingElement(total)

    __rmul__ = __mul__

    def involution(self):
        """Reverse and invert every word; the ring anti-automorphism."""
        return GroupRingElement({word_inverse(w): c for w, c in self.terms.items()})

    def generators_used(self):
        return {g for w in self.terms for g, _ in w}

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w, c in sorted(self.terms.items()):
            name = word_to_text(w) or "1"
            bits.append(f"{c:+d}*{name}")
        return " ".join(bits)


def ring(text: str = "", coeff: int = 1) -> GroupRingElement:
    return GroupRingElement.unit(text, coeff)


# -- cell complexes ----------------------------------------------------------


class CellComplex:
    """Cells per dimension with group-ring boundary matrices.

    boundaries[q] describes the boundary of the (q+1)-cells: entry [j][i]
    is the coefficient of the j-th q-cell in the boundary of the i-th
    (q+1)-cell.  boundary_entries[q] lists its nonzero entries as (j, i,
    coefficient), row by row; a complex is not changed after it is built,
    so assembly reads this list instead of walking the dense matrix.
    """

    def __init__(self, generators, cells, boundaries):
        self.generators = tuple(str(g) for g in generators)
        if len(set(self.generators)) != len(self.generators):
            raise ValidationError("duplicate generator names")
        self.cells = tuple(tuple(str(c) for c in dim_cells) for dim_cells in cells)
        if not self.cells:
            raise ValidationError("a cell complex needs at least dimension 0")
        for dim_cells in self.cells:
            if len(set(dim_cells)) != len(dim_cells):
                raise ValidationError("duplicate cell labels within a dimension")

        mats = []
        boundaries = list(boundaries)
        if len(boundaries) != len(self.cells) - 1:
            raise ValidationError("need one boundary matrix per adjacent dimension pair")
        known = set(self.generators)
        for q, rows in enumerate(boundaries):
            rows = [list(r) for r in rows]
            if len(rows) != len(self.cells[q]):
                raise ValidationError(f"boundary {q + 1} has wrong number of rows")
            for r in rows:
                if len(r) != len(self.cells[q + 1]):
                    raise ValidationError(f"boundary {q + 1} has wrong number of columns")
            clean = []
            for r in rows:
                row = []
                for entry in r:
                    if not isinstance(entry, GroupRingElement):
                        entry = GroupRingElement.from_pairs(entry)
                    bad = entry.generators_used() - known
                    if bad:
                        raise ValidationError(f"unknown generators {sorted(bad)} in boundary")
                    try:
                        for coeff in entry.terms.values():
                            float(coeff)
                    except OverflowError:
                        raise ValidationError(
                            f"boundary {q + 1} has a coefficient past the float range"
                        ) from None
                    row.append(entry)
                clean.append(tuple(row))
            mats.append(tuple(clean))
        self.boundaries = tuple(mats)
        self.boundary_entries = tuple(_nonzero_entries(m) for m in mats)

    @property
    def dimension(self) -> int:
        return len(self.cells) - 1

    def cell_counts(self):
        return tuple(len(c) for c in self.cells)

    def euler_characteristic(self) -> int:
        return int(sum((-1) ** i * len(c) for i, c in enumerate(self.cells)))

    def cell_index(self, dim: int, label: str) -> int:
        try:
            return self.cells[dim].index(label)
        except ValueError:
            raise ValidationError(f"no cell {label!r} in dimension {dim}") from None


def rechoose_lift(complex_: CellComplex, dim: int, label: str, word) -> CellComplex:
    """Replace the chosen lift of one cell by its translate under a word.

    The boundary column of the cell picks up the word on the left, and its
    row in the next boundary matrix picks up the inverse on the right.
    """
    word = _as_word(word)
    g = GroupRingElement({word: 1})
    g_inv = GroupRingElement({word_inverse(word): 1})
    idx = complex_.cell_index(dim, label)
    mats = [list(list(row) for row in m) for m in complex_.boundaries]
    if dim >= 1:
        for row in mats[dim - 1]:
            row[idx] = g * row[idx]
    if dim < complex_.dimension:
        mats[dim][idx] = [entry * g_inv for entry in mats[dim][idx]]
    return CellComplex(complex_.generators, complex_.cells, mats)


# -- representations ---------------------------------------------------------


class GroupRepresentation:
    """Generator images in the commutant of one module, plus a side flag.

    side "right" (homology): a word acts by the reversed product of the
    letter images.  side "left" (cohomology): the word is first reversed
    and inverted (the ring involution), which converts the right action
    into the left structure used by the Hom complex.

    images is read-only, and so are the stacks of each image, so what is
    derived from them once per representation is kept beside them: the
    letter and word operators, check_unimodular's report and the module
    powers assemble_coefficients takes for each cell count.
    with_module_gram builds a new representation, with memos of its own.
    """

    def __init__(self, module: HilbertianModule, images: dict, side: str = "right"):
        if side not in ("right", "left"):
            raise ValidationError(f"unknown side {side!r}")
        self.module = module
        self.side = side
        checked = {}
        for name, op in dict(images).items():
            if not isinstance(op, CommutantOperator):
                op = CommutantOperator.from_matrix(module, op)
            if not op.module.is_same_space(module):
                raise ValidationError(f"image of {name!r} lives on a different module")
            if not op.is_iso():
                raise NotIso(f"image of {name!r} is not invertible")
            checked[str(name)] = op
        self.images = MappingProxyType(checked)
        self._word_cache = {}
        self._letter_cache = {}
        self._unimodularity = None
        self._powers = {}

    def with_module_gram(self, gram) -> "GroupRepresentation":
        module = self.module.with_reference_gram(gram)
        images = {
            name: CommutantOperator._of(module, module, op.stacked)
            for name, op in self.images.items()
        }
        return GroupRepresentation(module, images, self.side)

    def _letter(self, name: str, power: int) -> CommutantOperator:
        key = (name, power)
        if key in self._letter_cache:
            return self._letter_cache[key]
        if name not in self.images:
            raise ValidationError(f"representation has no image for generator {name!r}")
        base = self.images[name] if power > 0 else self.images[name].inverse()
        stacked = base.stacked.map(lambda s: np.linalg.matrix_power(s, abs(power)))
        op = CommutantOperator._of(self.module, self.module, stacked)
        self._letter_cache[key] = op
        return op

    def word_operator(self, word) -> CommutantOperator:
        word = _as_word(word)
        key = (self.side, word)
        if key in self._word_cache:
            return self._word_cache[key]
        w = word_inverse(word) if self.side == "left" else word
        op = CommutantOperator.identity(self.module)
        for name, power in reversed(w):
            op = op @ self._letter(name, power)
        self._word_cache[key] = op
        return op

    def evaluate(self, element: GroupRingElement) -> CommutantOperator:
        total = CommutantOperator.zero(self.module)
        for word, coeff in element.terms.items():
            total = total + self.word_operator(word) * float(coeff)
        return total


@dataclass(frozen=True)
class UnimodularityReport:
    determinants: Mapping
    tol: float

    @property
    def passed(self) -> bool:
        return all(abs(v - 1.0) <= self.tol for v in self.determinants.values())


def check_unimodular(rep: GroupRepresentation) -> UnimodularityReport:
    """Fuglede-Kadison determinant of every generator image; all must be 1.

    Determinants are multiplicative, so generators suffice for the whole
    group.  The report is computed once per representation and kept on it,
    its determinants read-only; under an identity gram each determinant
    reads the singular values the invertibility check of its image took.
    """
    if rep._unimodularity is None:
        dets = {name: fk_det(rep.module, op).value for name, op in rep.images.items()}
        rep._unimodularity = UnimodularityReport(MappingProxyType(dets), UNIMODULAR_TOL)
    return rep._unimodularity


# -- assembly ----------------------------------------------------------------


def _module_power(rep: GroupRepresentation, count: int) -> HilbertianModule:
    """count copies of the representation's module, built once per count
    and kept on the representation."""
    if count not in rep._powers:
        module = rep.module
        rep._powers[count] = (
            zero_module(module.algebra) if count == 0 else direct_sum_many([module] * count)
        )
    return rep._powers[count]


def _nonzero_entries(matrix) -> tuple:
    """(row, column, element) of each nonzero entry of a group-ring matrix,
    row by row."""
    return tuple(
        (r, c, entry)
        for r, row in enumerate(matrix)
        for c, entry in enumerate(row)
        if entry.terms
    )


def _assemble_matrix(rep, entries, n_rows, n_cols) -> BlockStacks:
    """Evaluate a sparse group-ring matrix into block stacks.

    entries lists the nonzero (row, column, element) entries.  The blocks
    of each stored stack of the module are assembled as one preallocated
    stack: each term coeff * word adds coeff times the word operator's
    stack into the (row, column) tile, in the order rep.evaluate sums them,
    so every tile equals its blocks bit for bit.  The word stacks live for
    this call only.
    """
    mult = rep.module.multiplicities
    pieces = []
    square = _layout(mult, mult)  # the layout of every word operator
    for g, (idx, (m, _)) in enumerate(zip(square.index, square.shapes)):
        out = np.zeros((len(idx), m * n_rows, m * n_cols), dtype=complex)
        words = {}
        for r, c, element in entries:
            tile = out[:, r * m : (r + 1) * m, c * m : (c + 1) * m]
            for word, coeff in element.terms.items():
                if word not in words:
                    words[word] = rep.word_operator(word).stacked.stacks[g]
                tile += float(coeff) * words[word]
        pieces.append((idx, out))
    return BlockStacks.from_pieces([m * n_rows for m in mult], [m * n_cols for m in mult], pieces)


def assemble_coefficients(complex_: CellComplex, rep: GroupRepresentation) -> HilbertianChainComplex:
    """The coefficient complex of a cell complex through a representation.

    side "right" gives the homology chain complex (one copy of the module
    per cell, boundary blocks evaluated entrywise); side "left" gives the
    cohomology cochain complex: transposed pattern, with the involution
    supplied by the side's evaluation rule.
    """
    counts = complex_.cell_counts()
    modules = [_module_power(rep, c) for c in counts]
    convention = CHAIN if rep.side == "right" else COCHAIN
    maps = []
    for q, entries in enumerate(complex_.boundary_entries):
        src, tgt = map_ends(convention, q)
        if convention == COCHAIN:
            entries = [(c, r, element) for r, c, element in entries]
        stacked = _assemble_matrix(rep, entries, counts[tgt], counts[src])
        maps.append(ModuleMorphism._of(modules[src], modules[tgt], stacked))
    out = HilbertianChainComplex(modules, maps, convention=convention, validate=False)
    resid = out.boundary_residual()
    if resid > RELATION_TOL:
        raise RelationViolation(
            f"boundary squared is nonzero through this representation "
            f"(residual {resid:.2e}); the images do not honor the relations"
        )
    return out


# -- torsion -----------------------------------------------------------------


@dataclass
class TorsionReport:
    chi: int
    betti: tuple
    coordinate: float
    convention: str
    route_coordinates: dict
    unimodularity: UnimodularityReport
    reference_hashes: dict
    graded: GradedDetLineElement = field(repr=False, default=None)
    coefficients: HilbertianChainComplex = field(repr=False, default=None)
    hodge_data: HodgeData = field(repr=False, default=None)


def torsion(
    complex_: CellComplex,
    rep: GroupRepresentation,
    require_unimodular: bool = True,
) -> TorsionReport:
    """The torsion coordinate of a cell complex through a representation.

    The coordinate expresses the canonical element of
    det(M)^(-chi) (x) det(H_*) against the module's reference product and
    the Hodge-induced products on homology; torsion(complex_,
    rep.with_module_gram(g)) measures against the product g instead.  The
    coordinate is the Laplacian route's.  The exact-sequence route's value
    is reported beside it in route_coordinates, but the two are not
    compared here (ROADMAP item 8).  A finite complex is always of
    determinant class, so the report carries no verdict on it;
    complexes.determinant_class_check gives the spectral margins.
    """
    uni = check_unimodular(rep)
    if require_unimodular and not uni.passed:
        bad = {k: v for k, v in uni.determinants.items() if abs(v - 1.0) > uni.tol}
        raise NotUnimodular(f"generator determinants differ from 1: {bad}")

    assembled = assemble_coefficients(complex_, rep)
    data = hodge(assembled)

    graded = torsion_iso_via_laplacians(assembled, data)
    cross = torsion_iso_via_exact_sequences(assembled, data)
    coordinate = graded.coordinate
    hashes = {
        "module_gram": rep.module.reference_gram.digest,
        # Hodge's harmonic frames are orthonormal: each homology module
        # carries the identity gram
        "harmonic_grams": tuple(m.reference_gram.digest for m in data.harmonic_modules),
    }
    return TorsionReport(
        chi=complex_.euler_characteristic(),
        betti=data.betti,
        coordinate=coordinate,
        convention=assembled.convention,
        route_coordinates={
            "laplacian": coordinate,
            "exact_sequence": cross.coordinate,
        },
        unimodularity=uni,
        reference_hashes=hashes,
        graded=graded,
        coefficients=assembled,
        hodge_data=data,
    )


# -- subdivision -------------------------------------------------------------


@dataclass
class SubdivisionData:
    """Chain-level data for splitting one q-cell into e_plus, e_minus and a
    separating (q-1)-cell."""

    plus: str
    minus: str
    mid: str
    plus_boundary: dict
    minus_boundary: dict
    mid_boundary: dict = field(default_factory=dict)


@dataclass
class SubdivisionMap:
    """Group-ring chain map between two cell complexes, one matrix per
    dimension (rows over the target's cells)."""

    source: CellComplex
    target: CellComplex
    matrices: tuple


def _as_gre(value) -> GroupRingElement:
    if isinstance(value, GroupRingElement):
        return value
    return GroupRingElement.from_pairs(value)


def elementary_subdivide(complex_: CellComplex, dim: int, label: str,
                         data: SubdivisionData):
    """Split one q-cell in two across a new (q-1)-cell.

    The supplied boundary words must reproduce the old boundary: the mid
    cell's coefficients in the two halves cancel, one of them is a single
    unit term, and the old (q-1)-cells receive exactly the old coefficients.
    Higher cells keep their coefficients, duplicated onto both halves.
    Returns the new complex and the subdivision chain map (e maps to
    e_plus + e_minus, everything else to itself).
    """
    if dim < 1 or dim > complex_.dimension:
        raise ValidationError(f"no {dim}-cells to subdivide")
    idx = complex_.cell_index(dim, label)
    for fresh in (data.plus, data.minus):
        if fresh in complex_.cells[dim]:
            raise InvalidSubdivision(f"label {fresh!r} already used")
    if data.mid in complex_.cells[dim - 1]:
        raise InvalidSubdivision(f"label {data.mid!r} already used")
    if len({data.plus, data.minus, data.mid}) != 3:
        raise InvalidSubdivision("the three new cells need distinct labels")
    plus_b = {k: _as_gre(v) for k, v in data.plus_boundary.items()}
    minus_b = {k: _as_gre(v) for k, v in data.minus_boundary.items()}
    mid_b = {k: _as_gre(v) for k, v in data.mid_boundary.items()}

    old_lower = complex_.cells[dim - 1]
    for source, name in ((plus_b, data.plus), (minus_b, data.minus)):
        for cell in source:
            if cell != data.mid and cell not in old_lower:
                raise InvalidSubdivision(f"boundary of {name!r} uses unknown cell {cell!r}")

    mid_plus = plus_b.get(data.mid, GroupRingElement.zero())
    mid_minus = minus_b.get(data.mid, GroupRingElement.zero())
    if not (mid_plus + mid_minus).is_zero():
        raise InvalidSubdivision("the separating cell does not cancel in the two halves")
    unit_terms = list(mid_plus.terms.items())
    if len(unit_terms) != 1 or abs(unit_terms[0][1]) != 1:
        raise InvalidSubdivision(
            "one half must meet the separating cell in a single unit coefficient"
        )

    old_boundary_col = [complex_.boundaries[dim - 1][j][idx] for j in range(len(old_lower))]
    for j, cell in enumerate(old_lower):
        combined = plus_b.get(cell, GroupRingElement.zero()) + minus_b.get(
            cell, GroupRingElement.zero()
        )
        if combined != old_boundary_col[j]:
            raise InvalidSubdivision(
                f"halves do not reproduce the boundary coefficient of {cell!r}"
            )

    if dim >= 2:
        for cell in mid_b:
            if cell not in complex_.cells[dim - 2]:
                raise InvalidSubdivision(f"mid boundary uses unknown cell {cell!r}")
    elif mid_b:
        raise InvalidSubdivision("a new vertex cannot have boundary data")

    new_cells = list(list(c) for c in complex_.cells)
    new_cells[dim] = [c for c in complex_.cells[dim] if c != label] + [data.plus, data.minus]
    new_cells[dim - 1] = list(complex_.cells[dim - 1]) + [data.mid]

    zero = GroupRingElement.zero()
    mats = [list(list(row) for row in m) for m in complex_.boundaries]

    # boundary of the q-cells: drop e's column, extend rows by the mid cell,
    # append the two halves
    old_mat = mats[dim - 1]
    kept_cols = [i for i in range(len(complex_.cells[dim])) if i != idx]
    new_mat = []
    for j in range(len(old_lower)):
        row = [old_mat[j][i] for i in kept_cols]
        row.append(plus_b.get(old_lower[j], zero))
        row.append(minus_b.get(old_lower[j], zero))
        new_mat.append(row)
    mid_row = [zero] * len(kept_cols) + [mid_plus, mid_minus]
    new_mat.append(mid_row)
    mats[dim - 1] = new_mat

    # boundary of the (q+1)-cells: duplicate e's row onto both halves
    if dim < complex_.dimension:
        old_up = mats[dim]
        dup = old_up[idx]
        new_up = [old_up[j] for j in range(len(old_up)) if j != idx]
        new_up.append(list(dup))
        new_up.append(list(dup))
        mats[dim] = new_up

    # boundary of the new (q-1)-cell
    if dim >= 2:
        lower_mat = mats[dim - 2]
        for j, cell in enumerate(complex_.cells[dim - 2]):
            lower_mat[j] = list(lower_mat[j]) + [mid_b.get(cell, zero)]

    refined = CellComplex(complex_.generators, new_cells, mats)

    # chain map: identity on old cells, e maps to the sum of the halves
    psi_mats = []
    unit = GroupRingElement.unit()
    for d in range(len(complex_.cells)):
        rows = len(refined.cells[d])
        cols = len(complex_.cells[d])
        mat = [[zero] * cols for _ in range(rows)]
        for c, cell in enumerate(complex_.cells[d]):
            if d == dim and cell == label:
                mat[refined.cell_index(d, data.plus)][c] = unit
                mat[refined.cell_index(d, data.minus)][c] = unit
            else:
                mat[refined.cell_index(d, cell)][c] = unit
        psi_mats.append(tuple(tuple(r) for r in mat))
    psi = SubdivisionMap(complex_, refined, tuple(psi_mats))
    return refined, psi


# -- invariance --------------------------------------------------------------


@dataclass
class InvarianceReport:
    before: TorsionReport
    after: TorsionReport
    homology_factors: tuple
    predicted: float
    discrepancy: float


def invariance_check(
    complex_: CellComplex,
    refined: CellComplex,
    psi: SubdivisionMap,
    rep: GroupRepresentation,
    require_unimodular: bool = True,
) -> InvarianceReport:
    """Compare the torsion of a complex and its subdivision.

    The subdivision chain map is evaluated through the representation,
    checked to intertwine the boundaries, and its action on harmonic
    representatives pushes the homology factor of the first torsion element
    forward; the discrepancy against the second torsion is reported.
    """
    if rep.side != "right":
        raise ValidationError("subdivision invariance runs on the homology assembly")
    before = torsion(complex_, rep, require_unimodular=require_unimodular)
    after = torsion(refined, rep, require_unimodular=require_unimodular)

    c_old = before.coefficients
    c_new = after.coefficients
    chain_maps = []
    for d in range(len(complex_.cells)):
        rows, cols = len(refined.cells[d]), len(complex_.cells[d])
        stacked = _assemble_matrix(rep, _nonzero_entries(psi.matrices[d]), rows, cols)
        chain_maps.append(ModuleMorphism._of(c_old.modules[d], c_new.modules[d], stacked))

    for d in range(len(complex_.cells) - 1):
        lhs = chain_maps[d] @ c_old.maps[d]
        rhs = c_new.maps[d] @ chain_maps[d + 1]
        scale = max(lhs.norm(), rhs.norm(), 1.0)
        if (lhs - rhs).norm() > 1e-9 * scale:
            raise InvalidSubdivision(
                f"subdivision map fails to be a chain map in degree {d + 1}"
            )

    factors = []
    predicted = before.coordinate
    for d in range(len(complex_.cells)):
        h_old = before.hodge_data
        h_new = after.hodge_data
        j_old = h_old.harmonic_embeddings[d]
        j_new = h_new.harmonic_embeddings[d]
        g_new = c_new.modules[d].reference_gram
        stacked = j_new.stacked.H @ g_new.stacked @ chain_maps[d].stacked @ j_old.stacked
        induced = ModuleMorphism._of(h_old.harmonic_modules[d], h_new.harmonic_modules[d], stacked)
        pushed = pushforward(induced, reference_element(h_old.harmonic_modules[d]))
        factors.append(pushed.coefficient)
        predicted *= pushed.coefficient ** ((-1) ** d)

    denom = max(abs(predicted), abs(after.coordinate), 1e-300)
    discrepancy = abs(predicted - after.coordinate) / denom
    return InvarianceReport(before, after, tuple(factors), predicted, discrepancy)
