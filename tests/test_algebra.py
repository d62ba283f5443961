import itertools
import tracemalloc

import numpy as np
import pytest

from detline import algebra
from detline._linalg import random_complex, stacks
from detline.algebra import (
    VERIFY_TOL,
    AlgebraElement,
    FiniteGroupTable,
    FiniteVonNeumannAlgebra,
    _commutant_element,
    _verify_decomposition,
    build_group_algebra,
)
from detline.documents import decode_algebra, decode_module
from detline.errors import (
    AlgebraMismatch,
    DecompositionFailure,
    NonAssociativeTable,
    ValidationError,
)


def blkdiag_model(dec, g):
    # independent reconstruction of the expected block action of element g
    mats = [
        np.kron(b, np.eye(n))
        for (n, _), b in zip(dec.algebra.blocks, dec.group_images[g].block_matrices)
    ]
    total = sum(m.shape[0] for m in mats)
    out = np.zeros((total, total), dtype=complex)
    at = 0
    for m in mats:
        out[at : at + m.shape[0], at : at + m.shape[0]] = m
        at += m.shape[0]
    return out


def assert_block_model(dec):
    # U is unitary and U^H L_g U is the block model for every g; L_g U is
    # U with its rows gathered by h -> g h
    table, u = dec.table, dec.change_of_basis
    uh = u.conj().T
    assert np.linalg.norm(uh @ u - np.eye(table.order)) <= 1e-12
    for g in range(table.order):
        assert np.max(np.abs(uh[:, table.product[g]] @ u - blkdiag_model(dec, g))) <= 1e-12


def test_algebra_validation():
    with pytest.raises(ValidationError):
        FiniteVonNeumannAlgebra(())
    with pytest.raises(ValidationError):
        FiniteVonNeumannAlgebra(((0, 1.0),))
    with pytest.raises(ValidationError):
        FiniteVonNeumannAlgebra(((2, -0.5),))
    alg = FiniteVonNeumannAlgebra(((2, 0.25), (1, 1.0)))
    assert alg.trace_of_identity == pytest.approx(1.5)
    assert alg.total_matrix_dim == 5


def test_trace_is_tracial_faithful_linear():
    alg = FiniteVonNeumannAlgebra(((1, 0.5), (2, 0.25)))
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = alg.random_element(rng)
        y = alg.random_element(rng)
        assert alg.trace(x * y) == pytest.approx(alg.trace(y * x), abs=1e-12)
        assert alg.trace(x + y) == pytest.approx(alg.trace(x) + alg.trace(y), abs=1e-12)
        assert np.conj(alg.trace(x)) == pytest.approx(alg.trace(x.adjoint()), abs=1e-12)
        positive = alg.trace(x.adjoint() * x)
        assert positive.imag == pytest.approx(0.0, abs=1e-12)
        assert positive.real > 0
    assert alg.trace(alg.identity()) == pytest.approx(alg.trace_of_identity)


def test_scaled_trace():
    alg = FiniteVonNeumannAlgebra(((1, 0.5), (2, 0.25)))
    doubled = alg.with_scaled_trace(2.0)
    rng = np.random.default_rng(3)
    x = alg.random_element(rng)
    y = AlgebraElement(doubled, x.block_matrices)
    assert doubled.trace(y) == pytest.approx(2.0 * alg.trace(x), abs=1e-12)


def test_algebra_mismatch_rejected():
    a = FiniteVonNeumannAlgebra(((1, 1.0),))
    b = FiniteVonNeumannAlgebra(((1, 0.5),))
    with pytest.raises(AlgebraMismatch):
        a.identity() + b.identity()


def test_bad_tables_rejected():
    with pytest.raises(NonAssociativeTable):
        FiniteGroupTable([[0, 1], [1, 1]])  # not a latin square
    # latin square that is not associative (order-5 quasigroup)
    q = np.array(
        [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
    )
    with pytest.raises(NonAssociativeTable):
        FiniteGroupTable(q)


def test_table_validation_runs_in_quadratic_memory():
    # associativity is compared a bounded block of rows at a time; comparing
    # the two whole n^3 gathers peaked at 272 MiB on C16 x C16
    c16 = FiniteGroupTable.cyclic(16)
    table = FiniteGroupTable.direct_product(c16, c16)
    tracemalloc.start()
    try:
        table.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _loop_with_left_nucleus_of_index_2(m):
    """A loop on Z/m x Z/2, element (x, t) at index t m + x:
    (x, 0)(y, t) = (x + y, t) and (x, 1)(y, t) = (x + s(y), 1 + t), where s
    swaps 1 and 2 and so is not additive.  Every triple with a first factor
    (x, 0) associates; every (x, 1) fails with b = (1, 0), c = (1, 0)."""
    s = np.arange(m)
    s[[1, 2]] = s[[2, 1]]
    t, x = np.divmod(np.arange(2 * m), m)
    right = np.where(t[:, None] == 1, s[x][None, :], x[None, :])
    return (t[:, None] + t[None, :]) % 2 * m + (x[:, None] + right) % m


def test_associativity_failure_in_the_last_row_block_is_found():
    table = _loop_with_left_nucleus_of_index_2(32)
    n = len(table)
    # two row blocks of 32, and every failing triple has a in the second
    assert algebra.ASSOCIATIVITY_BLOCK // (n * n) == n // 2
    failing = [a for a in range(n) if not np.array_equal(table[table[a]], table[a][table])]
    assert failing == list(range(n // 2, n))
    with pytest.raises(NonAssociativeTable, match="not associative"):
        FiniteGroupTable(table)


def test_table_constructors_match_their_definitions():
    # reference loops: symmetric composes permutations, (a b)[k] = a[b[k]],
    # and direct_product multiplies pairs coordinatewise
    for n in range(1, 5):
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        want = [[index[tuple(a[b[k]] for k in range(n))] for b in perms] for a in perms]
        assert np.array_equal(FiniteGroupTable.symmetric(n).product, want)
    c, s = FiniteGroupTable.cyclic, FiniteGroupTable.symmetric
    for t1, t2 in [(c(2), s(3)), (c(4), c(4)), (s(3), c(5))]:
        n2 = t2.order
        pairs = [(a1, a2) for a1 in range(t1.order) for a2 in range(n2)]
        want = [
            [t1.product[a1, b1] * n2 + t2.product[a2, b2] for b1, b2 in pairs]
            for a1, a2 in pairs
        ]
        table = FiniteGroupTable.direct_product(t1, t2)
        assert np.array_equal(table.product, want)
        assert table.identity == t1.identity * n2 + t2.identity


def test_tables_built_as_groups_skip_the_associativity_check(monkeypatch):
    def refuse(self):
        raise AssertionError("validate() ran")

    monkeypatch.setattr(FiniteGroupTable, "validate", refuse)
    c, s = FiniteGroupTable.cyclic, FiniteGroupTable.symmetric
    for table in [c(256), s(4), FiniteGroupTable.direct_product(c(2), s(3))]:
        elements = np.arange(table.order)
        assert np.all(table.product[elements, table.inverse] == table.identity)
    # a table given as an array, in a document or by a generated action is
    # checked
    swap = [[0.0, 1.0], [1.0, 0.0]]
    for build in [
        lambda: FiniteGroupTable(c(4).product),
        lambda: decode_algebra({"group_table": {"order": 2, "product": [[0, 1], [1, 0]]}}),
        lambda: decode_module({"action_generators": [swap]}),
    ]:
        with pytest.raises(AssertionError, match="validate"):
            build()


@pytest.mark.parametrize("n", [2.5, 0, -2, True, "3", 3.0])
def test_cyclic_refuses_an_order_that_is_not_a_positive_integer(n):
    # 2.5 used to build C3 through arange, and 0 and -2 failed later as an
    # identity index out of range
    with pytest.raises(ValidationError, match=f"positive integer, got {n!r}$"):
        FiniteGroupTable.cyclic(n)
    assert FiniteGroupTable.cyclic(np.int64(4)).cyclic_factors == (4,)


@pytest.mark.parametrize("n", [2.5, 0, -1, True, "3", 3.0])
def test_symmetric_refuses_a_degree_that_is_not_a_positive_integer(n):
    # 2.5 and "3" raised TypeError, and -1, 0 and True built the trivial group
    with pytest.raises(ValidationError, match=f"positive integer, got {n!r}$"):
        FiniteGroupTable.symmetric(n)
    assert FiniteGroupTable.symmetric(np.int64(3)).structure == ("symmetric", 3)


def test_only_cyclic_tables_and_their_products_record_factors():
    c, s = FiniteGroupTable.cyclic, FiniteGroupTable.symmetric
    product = FiniteGroupTable.direct_product
    assert c(6).cyclic_factors == (6,)
    assert product(c(2), c(3)).cyclic_factors == (2, 3)
    assert product(product(c(2), c(3)), c(4)).cyclic_factors == (2, 3, 4)
    for table in [product(c(2), s(3)), product(s(3), c(2)), s(3), FiniteGroupTable.trivial(),
                  FiniteGroupTable(c(4).product)]:
        assert table.cyclic_factors is None
    # the constructors record how they built the table; a table given as an
    # array records nothing
    c2, s3, array = c(2), s(3), FiniteGroupTable(c(4).product)
    assert (c2.structure, s3.structure) == (("cyclic", 2), ("symmetric", 3))
    assert product(c2, s3).structure == ("product", c2, s3)
    assert product(array, s3).structure == ("product", array, s3)
    assert array.structure is None and FiniteGroupTable.trivial().structure is None


def _product(*tables):
    table = tables[0]
    for t in tables[1:]:
        table = FiniteGroupTable.direct_product(table, t)
    return table


def _cyclic_product(orders):
    return _product(*map(FiniteGroupTable.cyclic, orders))


_CLOSED_FORM_CASES = [(n,) for n in [*range(1, 33), 64, 128]] + [
    (2, 3), (3, 4), (2, 4), (2, 8), (4, 4), (2, 2, 2)
]


@pytest.mark.parametrize("factors", _CLOSED_FORM_CASES, ids=lambda f: "x".join(map(str, f)))
def test_closed_form_matches_the_numerical_path(factors):
    table = _cyclic_product(factors)
    assert table.cyclic_factors == factors
    closed = build_group_algebra(table)
    # the same product array with no recorded factors takes the numerical path
    numeric = build_group_algebra(FiniteGroupTable(table.product))
    # the same blocks in the same order: each image is the character
    assert closed.algebra == numeric.algebra
    for a, b in zip(closed.images, numeric.images, strict=True):
        assert np.max(np.abs(a - b)) <= 1e-12
    # characters are homomorphisms, chi(g h) = chi(g) chi(h), and U
    # diagonalizes every left translation into them
    chars = np.array([img[:, 0, 0] for img in closed.images])
    u = closed.change_of_basis
    uh = u.conj().T
    assert np.linalg.norm(uh @ u - np.eye(table.order)) <= 1e-12
    for g in range(table.order):
        assert np.max(np.abs(chars[:, table.product[g]] - chars[:, [g]] * chars)) <= 1e-12
        assert np.max(np.abs(uh[:, table.product[g]] @ u - np.diag(chars[:, g]))) <= 1e-12
    # the numerical path's U comes from its own images
    assert_block_model(numeric)


def test_closed_form_takes_no_eigensolver_probe_or_numerical_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numerical decomposition step taken")

    for name in ["eigh", "qr", "svd"]:
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(algebra, "_decompose_once", refuse)
    monkeypatch.setattr(algebra, "random_complex", refuse)
    c = FiniteGroupTable.cyclic
    for table in [c(256), FiniteGroupTable.direct_product(c(16), c(16))]:
        dec = build_group_algebra(table)
        assert dec.algebra.block_dims == (1,) * 256


_S, _C = FiniteGroupTable.symmetric, FiniteGroupTable.cyclic
_NON_ABELIAN_CASES = {
    **{f"S{n}": (lambda n=n: _S(n)) for n in range(1, 6)},
    "C2xS3": lambda: _product(_C(2), _S(3)),
    "S3xC2": lambda: _product(_S(3), _C(2)),
    "S3xS3": lambda: _product(_S(3), _S(3)),
    "S4xC10": lambda: _product(_S(4), _C(10)),
}


@pytest.mark.parametrize("build", _NON_ABELIAN_CASES.values(), ids=_NON_ABELIAN_CASES.keys())
def test_closed_form_of_symmetric_groups_and_products_matches_the_numerical_path(build):
    table = build()
    closed = build_group_algebra(table)
    numeric = build_group_algebra(FiniteGroupTable(table.product))
    # the same blocks in the same order, with the same characters
    assert closed.algebra == numeric.algebra
    for a, b in zip(closed.images, numeric.images, strict=True):
        chars = [np.trace(img, axis1=1, axis2=2) for img in (a, b)]
        assert np.max(np.abs(chars[0] - chars[1])) <= 1e-12
    assert_block_model(closed)
    assert_block_model(numeric)


def _dihedral(n):
    """D_n, of order 2n, as an array: r^k s^e at index e n + k, and
    r^a s^e r^b s^f = r^(a + (-1)^e b) s^(e + f)."""
    e, k = np.divmod(np.arange(2 * n), n)
    turn = np.where(e[:, None] == 1, -k[None, :], k[None, :])
    return (e[:, None] + e[None, :]) % 2 * n + (k[:, None] + turn) % n


def test_numerical_path_decomposes_a_dihedral_table():
    # D_8, of order 16, has no recorded structure and three 2-dimensional
    # families.  Its characters: r^k s^e -> a^k b^e for signs a and b, and
    # 2 cos(2 pi j k / 8) at r^k and 0 at every reflection for j = 1, 2, 3.
    n = 8
    table = FiniteGroupTable(_dihedral(n))
    dec = build_group_algebra(table)
    assert dec.algebra.block_dims == (1,) * 4 + (2,) * 3
    assert dec.algebra.weights == (1 / 16,) * 4 + (1 / 8,) * 3
    e, k = np.divmod(np.arange(2 * n), n)
    signs = [a**k * b**e for a in (-1, 1) for b in (-1, 1)]
    rotations = [np.where(e == 0, 2 * np.cos(2 * np.pi * j * k / n), 0.0) for j in (3, 2, 1)]
    by_dim = [s for _, s in stacks(dec.images)]  # (blocks, order, d, d) per d
    chars = np.concatenate([np.trace(s, axis1=2, axis2=3) for s in by_dim])
    assert np.max(np.abs(chars - np.array(signs + rotations))) <= 1e-12
    assert_block_model(dec)


@pytest.mark.parametrize(
    "build",
    [
        lambda: _C(12),
        lambda: _cyclic_product((3, 4)),
        lambda: _S(4),
        lambda: _product(_C(2), _S(3)),
        lambda: FiniteGroupTable(_C(12).product),
        lambda: FiniteGroupTable(_S(4).product),
        lambda: FiniteGroupTable(_dihedral(8)),
    ],
    ids=["C12", "C3xC4", "S4", "C2xS3", "array-C12", "array-S4", "array-D8"],
)
def test_every_table_takes_peter_weyl_once(build, monkeypatch):
    # _peter_weyl is the one step that forms U and runs the check, whatever
    # kind of table it is given
    table = build()
    calls = []
    peter_weyl = algebra._peter_weyl

    def counted(table, images):
        calls.append(table)
        return peter_weyl(table, images)

    monkeypatch.setattr(algebra, "_peter_weyl", counted)
    dec = build_group_algebra(table)
    assert calls == [table] and dec.table is table


def test_symmetric_groups_and_products_take_no_eigensolver_probe_or_numerical_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numerical decomposition step taken")

    for name in ["eigh", "qr", "svd"]:
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(algebra, "_decompose_once", refuse)
    monkeypatch.setattr(algebra, "random_complex", refuse)
    s5 = build_group_algebra(_S(5))
    assert s5.algebra.block_dims == (1, 1, 4, 4, 5, 5, 6)
    c2_s4 = build_group_algebra(_product(_C(2), _S(4)))
    assert c2_s4.algebra.block_dims == (1,) * 4 + (2,) * 2 + (3,) * 4


def test_a_product_decomposes_a_factor_given_as_an_array_alone(monkeypatch):
    orders = []
    attempt = algebra._decompose_once

    def counted_attempt(table, rng):
        orders.append(table.order)
        return attempt(table, rng)

    monkeypatch.setattr(algebra, "_decompose_once", counted_attempt)
    array = FiniteGroupTable(_C(4).product)
    for table in [_product(array, _S(3)), _product(_S(3), _C(2), array)]:
        orders.clear()
        dec = build_group_algebra(table)
        assert orders == [4]
        assert dec.algebra.trace_of_identity == pytest.approx(1.0, abs=1e-12)


def test_generators_and_word_lengths():
    c = FiniteGroupTable.cyclic
    table = FiniteGroupTable.direct_product(c(4), c(6))
    assert algebra._generators(table) == [6, 1]
    parent, step, depth = algebra._cayley_tree(table, algebra._generators(table))
    g1, g2 = np.divmod(np.arange(24), 6)
    assert np.array_equal(depth, g1 + g2)
    assert np.array_equal(table.product[parent, step], np.arange(24))
    # a table with no factors takes a greedy closure: S3 needs two transpositions
    assert algebra._generators(FiniteGroupTable.symmetric(3)) == [1, 2]
    assert algebra._generators(FiniteGroupTable(c(12).product)) == [1]
    assert algebra._generators(FiniteGroupTable.trivial()) == []


@pytest.mark.parametrize(
    "table,generator",
    [
        (FiniteGroupTable.cyclic(12), 1),
        (_cyclic_product((2, 4)), 4),
        (FiniteGroupTable.symmetric(3), 2),
    ],
    ids=["C12", "C2xC4", "S3"],
)
def test_verification_refuses_a_doctored_generator_image(table, generator):
    dec = build_group_algebra(table)
    _verify_decomposition(table, dec.change_of_basis, dec.images)
    # a change of 1e-8 in one entry of one block at a generator, or a nan there
    for change in [1e-8, np.nan]:
        images = [img.copy() for img in dec.images]
        images[-1][generator, 0, 0] += change
        with pytest.raises(DecompositionFailure, match=f"for element {generator}$"):
            _verify_decomposition(table, dec.change_of_basis, images)


@pytest.mark.parametrize(
    "product,factors",
    [((6,), (2, 3)), ((4,), (2, 2)), ((2, 2), (4,)), ((6,), (3,)), ((3, 2), (2, 3))],
)
def test_decomposition_refuses_wrong_recorded_factors(product, factors):
    table = _cyclic_product(product)
    table.structure = _cyclic_product(factors).structure
    with pytest.raises(DecompositionFailure):
        build_group_algebra(table)


def test_decomposition_refuses_a_wrong_recorded_structure():
    # an S3 recorded on C2 x S3 gives blocks of total dimension 6, not 12;
    # C2 x C3 recorded on S3 gives characters that fail the check
    c2_s3, s3 = _product(_C(2), _S(3)), _S(3)
    c2_s3.structure = ("symmetric", 3)
    s3.structure = _product(_C(2), _C(3)).structure
    for table in [c2_s3, s3]:
        with pytest.raises(DecompositionFailure):
            build_group_algebra(table)


def _c2_s3():
    c2, s3 = FiniteGroupTable.cyclic(2), FiniteGroupTable.symmetric(3)
    return FiniteGroupTable.direct_product(c2, s3)


@pytest.mark.parametrize(
    "table",
    [FiniteGroupTable.cyclic(12), FiniteGroupTable.symmetric(4), _c2_s3()],
    ids=["C12", "S4", "C2xS3"],
)
def test_commutant_element_is_the_right_translation_sum(table):
    # The decomposition takes commutation with every left translation from
    # associativity instead of checking it; pin that theorem on the gather.
    coeffs = random_complex(np.random.default_rng(5), table.order)
    gathered = _commutant_element(table, coeffs)
    dense = sum(c * table.right_translation(h) for h, c in enumerate(coeffs))
    assert np.array_equal(gathered, dense)
    for g in range(table.order):
        left = table.left_translation(g)
        assert np.array_equal(left @ gathered, gathered @ left)


@pytest.mark.parametrize(
    "table",
    [FiniteGroupTable.cyclic(24), FiniteGroupTable.symmetric(4), _c2_s3()],
    ids=["C24", "S4", "C2xS3"],
)
def test_decomposition_builds_no_translation_matrix(table, monkeypatch):
    def refuse(self, g):
        raise AssertionError("dense translation matrix built")

    monkeypatch.setattr(FiniteGroupTable, "left_translation", refuse)
    monkeypatch.setattr(FiniteGroupTable, "right_translation", refuse)
    dec = build_group_algebra(table)
    assert dec.algebra.trace_of_identity == pytest.approx(1.0, abs=1e-12)


def test_decomposition_takes_at_most_one_svd_per_attempt(monkeypatch):
    # families come from the Frobenius block norms of one intertwiner
    # matrix and the checks use Frobenius residuals; only the probe's
    # operator norm is an SVD (C64 took 2082 when each was its own SVD); the
    # table is an untagged copy of C64, so the numerical path runs
    counts = {"svd": 0, "attempts": 0}
    svd = np.linalg.svd
    attempt = algebra._decompose_once

    def counted_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counted_attempt(*args):
        counts["attempts"] += 1
        return attempt(*args)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(algebra, "_decompose_once", counted_attempt)
    dec = build_group_algebra(FiniteGroupTable(FiniteGroupTable.cyclic(64).product))
    assert dec.algebra.block_dims == (1,) * 64
    assert 1 <= counts["attempts"] and counts["svd"] <= counts["attempts"]


@pytest.mark.parametrize(
    "table,dims,weights",
    [
        (FiniteGroupTable.trivial(), (1,), (1.0,)),
        (FiniteGroupTable.cyclic(2), (1, 1), (0.5, 0.5)),
        (FiniteGroupTable.cyclic(3), (1, 1, 1), (1 / 3, 1 / 3, 1 / 3)),
        (FiniteGroupTable.symmetric(3), (1, 1, 2), (1 / 6, 1 / 6, 1 / 3)),
        (
            FiniteGroupTable.direct_product(FiniteGroupTable.cyclic(2), FiniteGroupTable.cyclic(2)),
            (1, 1, 1, 1),
            (0.25, 0.25, 0.25, 0.25),
        ),
    ],
)
def test_group_algebra_block_structure(table, dims, weights):
    dec = build_group_algebra(table)
    assert dec.algebra.block_dims == dims
    assert np.allclose(dec.algebra.weights, weights)
    assert dec.algebra.trace_of_identity == pytest.approx(1.0, abs=1e-12)


def test_group_algebra_is_homomorphism_and_trace_normalized():
    table = FiniteGroupTable.symmetric(3)
    dec = build_group_algebra(table)
    for g in range(table.order):
        for h in range(table.order):
            prod = dec.group_images[g] * dec.group_images[h]
            assert prod.is_close_to(dec.group_images[table.product[g, h]], tol=1e-9)
        want = 1.0 if g == table.identity else 0.0
        assert dec.algebra.trace(dec.group_images[g]) == pytest.approx(want, abs=1e-10)
        # group elements map to unitaries
        u = dec.group_images[g]
        assert (u * u.adjoint()).is_close_to(dec.algebra.identity(), tol=1e-9)


def test_change_of_basis_conjugates_left_translation():
    table = FiniteGroupTable.symmetric(3)
    dec = build_group_algebra(table)
    u = dec.change_of_basis
    assert np.allclose(u.conj().T @ u, np.eye(table.order), atol=1e-9)
    for g in range(table.order):
        left = table.left_translation(g)
        assert np.allclose(u.conj().T @ left @ u, blkdiag_model(dec, g), atol=1e-8)


def test_characters_match_z3():
    dec = build_group_algebra(FiniteGroupTable.cyclic(3))
    omega = np.exp(2j * np.pi / 3)
    key = lambda z: (round(z.real, 9), round(z.imag, 9))
    gen = dec.group_images[1]
    chars = sorted((complex(gen.block_matrices[k][0, 0]) for k in range(3)), key=key)
    expected = sorted([1 + 0j, omega, omega**2], key=key)
    assert np.allclose(chars, expected, atol=1e-9)


def test_s4_decomposition():
    # two inequivalent 3-dimensional blocks must not be merged
    table = FiniteGroupTable.symmetric(4)
    dec = build_group_algebra(table)
    assert dec.algebra.block_dims == (1, 1, 2, 3, 3)
    assert dec.algebra.trace_of_identity == pytest.approx(1.0, abs=1e-12)


def _verify(dec, images):
    # the check takes img_k(g) for every g as one (order, n_k, n_k) stack per block
    stacked = [np.stack(mats) for mats in zip(*(img.block_matrices for img in images))]
    _verify_decomposition(dec.table, dec.change_of_basis, stacked)


def test_verification_rejects_swapped_images():
    dec = build_group_algebra(FiniteGroupTable.symmetric(3))
    _verify(dec, dec.group_images)
    swapped = list(dec.group_images)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    with pytest.raises(DecompositionFailure):
        _verify(dec, swapped)


def test_verification_names_the_failing_element_in_a_later_chunk(monkeypatch):
    # chunks of two residuals: elements 4 and 5 of S3 share the last chunk
    dec = build_group_algebra(FiniteGroupTable.symmetric(3))
    monkeypatch.setattr(algebra, "VERIFY_BLOCK", 2 * 36)
    _verify(dec, dec.group_images)
    swapped = list(dec.group_images)
    swapped[4], swapped[5] = swapped[5], swapped[4]
    with pytest.raises(DecompositionFailure, match="for element 4$"):
        _verify(dec, swapped)


def test_verification_bounds_the_product_residual():
    # The check never forms the n^2 group products; at the largest
    # perturbation of the images it still accepts, the explicit product
    # residual must stay within VERIFY_TOL.
    table = FiniteGroupTable.symmetric(4)
    dec = build_group_algebra(table)
    alg = dec.algebra
    rng = np.random.default_rng(23)
    directions = []
    for _ in range(table.order):
        e = alg.random_element(rng)
        # trace free, so the trace check cannot be what rejects
        e = e - (alg.trace(e) / alg.trace_of_identity) * alg.identity()
        directions.append(e * (1.0 / e.norm()))

    def images(delta):
        return [img + delta * e for img, e in zip(dec.group_images, directions)]

    def accepted(delta):
        try:
            _verify(dec, images(delta))
        except DecompositionFailure:
            return False
        return True

    lo, hi = 0.0, VERIFY_TOL
    assert accepted(lo) and not accepted(hi)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
    perturbed = images(lo)
    residual = max(
        (perturbed[table.product[g, h]] - perturbed[g] * perturbed[h]).norm()
        for g in range(table.order)
        for h in range(table.order)
    )
    assert residual <= VERIFY_TOL


def test_determinism_same_seed():
    table = FiniteGroupTable.symmetric(3)
    a = build_group_algebra(table)
    b = build_group_algebra(table)
    assert np.allclose(a.change_of_basis, b.change_of_basis)
    for x, y in zip(a.group_images, b.group_images):
        assert x.is_close_to(y, tol=1e-14)


@pytest.mark.parametrize(
    "table",
    [FiniteGroupTable.cyclic(4), FiniteGroupTable.symmetric(3), FiniteGroupTable.symmetric(4)],
    ids=["C4", "S3", "S4"],
)
def test_coefficient_round_trip(table):
    dec = build_group_algebra(table)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(table.order) + 1j * rng.standard_normal(table.order)
    x = dec.element_from_coefficients(coeffs)
    back = dec.coefficients_from_element(x)
    assert np.allclose(back, coeffs, atol=1e-10)
    # the trace picks out the identity coefficient
    assert dec.algebra.trace(x) == pytest.approx(complex(coeffs[0]), abs=1e-10)
    # Fourier inversion sends the image of g to the unit vector e_g
    units = np.eye(table.order)
    for g, img in enumerate(dec.group_images):
        assert np.allclose(dec.coefficients_from_element(img), units[g], atol=1e-10)
