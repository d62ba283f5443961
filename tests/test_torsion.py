import numpy as np
import pytest

from detline.algebra import FiniteVonNeumannAlgebra
from detline.errors import (
    InvalidSubdivision,
    NotIso,
    NotUnimodular,
    ParseError,
    RelationViolation,
    ValidationError,
)
from detline.fixtures import (
    circle,
    interval,
    klein_bottle,
    lens_space,
    projective_plane,
    regular_cyclic_representation,
    regular_product_representation,
    scalar_representation,
    sign_representation,
    split_edge,
    split_torus_face,
    torus,
    trivial_representation,
)
from detline import modules
from detline._linalg import gram_hash
from detline.modules import CommutantOperator, HilbertianModule, ModuleMorphism, standard_module
from detline.complexes import HilbertianChainComplex, hodge, validate_complex
from detline.torsion import (
    CellComplex,
    GroupRepresentation,
    GroupRingElement,
    SubdivisionData,
    _assemble_matrix,
    _nonzero_entries,
    assemble_coefficients,
    check_unimodular,
    elementary_subdivide,
    invariance_check,
    parse_word,
    rechoose_lift,
    reduce_word,
    ring,
    torsion,
    word_to_text,
)


# -- words and ring arithmetic ------------------------------------------------


def test_parse_and_reduce():
    assert parse_word("") == ()
    assert parse_word("a b^-1") == (("a", 1), ("b", -1))
    assert parse_word("a^2 b^0 a^-2") == ()
    assert parse_word("a a a^-1") == (("a", 1),)
    # full cascade through the middle
    assert reduce_word([("a", 1), ("b", 1), ("b", -1), ("a", -1)]) == ()
    assert word_to_text((("a", 1), ("b", -2))) == "a b^-2"
    with pytest.raises(ParseError):
        parse_word("t^x")
    with pytest.raises(ParseError):
        parse_word("^2")


def test_ring_arithmetic():
    t = ring("t")
    one = ring("")
    prod = (t - one) * (t + one)
    assert prod == ring("t^2") - one
    assert (t - t).is_zero()
    # involution reverses products
    a, b = ring("a"), ring("b")
    x = a * 2 - b
    y = a * b + one
    assert (x * y).involution() == y.involution() * x.involution()
    assert x.involution().involution() == x
    assert GroupRingElement.from_pairs([(1, "a"), (1, "a"), (-2, "a")]).is_zero()


# -- cell complexes -----------------------------------------------------------


def test_cell_complex_validation():
    with pytest.raises(ValidationError):
        # boundary row count does not match vertex count
        interval_cells = (("p", "q"), ("e",))
        from detline.torsion import CellComplex

        CellComplex((), interval_cells, ([[ring("", -1)]],))
    from detline.torsion import CellComplex

    with pytest.raises(ValidationError):
        CellComplex((), (("p", "p"),), ())
    with pytest.raises(ValidationError):
        CellComplex((), (("v",), ("e",)), ([[ring("t")]],))  # unknown generator


def _big_circle(c):
    """circle(1) with boundary entry c t - 1."""
    from detline.torsion import CellComplex

    return CellComplex(("t",), (("p",), ("e",)), ([[ring("t", c) - ring("")]],))


def test_boundary_coefficients_past_the_float_range_are_refused():
    # c = 10**400 is no float; at c = 10**300 the map is invertible, but
    # Delta = (c - 1)^2 overflows, and hodge refuses it instead of reading
    # eigenvalues of inf
    with pytest.raises(ValidationError, match="^boundary 1 has a coefficient past the float range$"):
        _big_circle(10**400)
    rep = scalar_representation({"t": 1.0})
    complex_ = assemble_coefficients(_big_circle(10**300), rep)
    with pytest.raises(ValidationError, match="^degree 0: the Laplacian is past the float range$"):
        hodge(complex_)
    with pytest.raises(ValidationError, match="^degree 0: the Laplacian is past the float range$"):
        torsion(_big_circle(10**300), rep)
    # at c = 10**150 Delta = 1e300 is still a float, and the map is invertible
    assert hodge(assemble_coefficients(_big_circle(10**150), rep)).betti == (0.0, 0.0)


def test_assembly_refuses_a_composite_past_the_float_range():
    # d1 = [c, c] and d2 = [c, -1.5 c]^T compose to -c^2 / 2, not 0: at
    # c = 1e100 the residual reads 0.196; at 1e200 the composite is
    # inf - inf = nan, and that must refuse too
    def complex_(c):
        boundaries = ([[ring("", c), ring("", c)]], [[ring("", c)], [ring("", -1.5 * c)]])
        return CellComplex((), (("p",), ("a", "b"), ("f",)), boundaries)

    rep = scalar_representation({})
    for c, residual in [(1e100, "1.96e-01"), (1e200, "inf")]:
        with pytest.raises(RelationViolation, match=rf"\(residual {residual}\)"):
            assemble_coefficients(complex_(c), rep)


def test_euler_characteristics():
    assert interval().euler_characteristic() == 1
    assert circle().euler_characteristic() == 0
    assert circle(5).euler_characteristic() == 0
    assert torus().euler_characteristic() == 0
    assert klein_bottle().euler_characteristic() == 0
    assert projective_plane().euler_characteristic() == 1
    assert lens_space(3).euler_characteristic() == 0


# -- representations ----------------------------------------------------------


def _two_generator_rep(side="right"):
    alg = FiniteVonNeumannAlgebra(((1, 1.0),))
    module = standard_module(alg)
    # 1x1 blocks force nothing; use multiplicity 2 for noncommuting images
    from detline.modules import free_module

    mod2 = free_module(alg, 2)
    a = CommutantOperator(mod2, [np.array([[1.0, 1.0], [0.0, 1.0]])])
    b = CommutantOperator(mod2, [np.array([[2.0, 0.0], [0.0, 0.5]])])
    return GroupRepresentation(mod2, {"a": a, "b": b}, side), a, b


def test_word_operator_sides():
    rep, a, b = _two_generator_rep("right")
    # right action: letters compose in reversed order
    got = rep.word_operator("a b")
    want = b @ a
    assert np.allclose(got.blocks[0], want.blocks[0])
    sq = rep.word_operator("a^2")
    assert np.allclose(sq.blocks[0], (a @ a).blocks[0])
    inv = rep.word_operator("a^-1")
    assert np.allclose(inv.blocks[0], a.inverse().blocks[0])

    # left side folds in the involution: inverse images, forward order
    repl, a, b = _two_generator_rep("left")
    got = repl.word_operator("a b")
    want = a.inverse() @ b.inverse()
    assert np.allclose(got.blocks[0], want.blocks[0])


def test_representation_rejections():
    alg = FiniteVonNeumannAlgebra(((1, 1.0),))
    module = standard_module(alg)
    zero = CommutantOperator.zero(module)
    with pytest.raises(NotIso):
        GroupRepresentation(module, {"t": zero})
    with pytest.raises(ValidationError):
        GroupRepresentation(module, {}, side="middle")
    rep = trivial_representation(("t",))
    with pytest.raises(ValidationError):
        rep.word_operator("s")


# -- unimodularity ------------------------------------------------------------


def test_unimodularity_report():
    # diagonal (2, 1/2) over C + C with equal weights: unimodular, not unitary
    alg = FiniteVonNeumannAlgebra(((1, 0.5), (1, 0.5)))
    module = standard_module(alg)
    image = CommutantOperator(module, [np.array([[2.0]]), np.array([[0.5]])])
    rep = GroupRepresentation(module, {"t": image})
    report = check_unimodular(rep)
    assert report.passed
    assert abs(report.determinants["t"] - 1.0) < 1e-12

    stretched = scalar_representation({"t": 2.0})
    report = check_unimodular(stretched)
    assert not report.passed
    assert abs(report.determinants["t"] - 2.0) < 1e-12

    assert check_unimodular(regular_cyclic_representation(4)).passed


@pytest.mark.parametrize(
    "build, arg, message",
    [
        (circle, 2.5, "number of edges must be a positive integer, got 2.5"),
        (circle, "3", "number of edges must be a positive integer, got '3'"),
        (circle, 0, "number of edges must be a positive integer, got 0"),
        (lens_space, 2.5, "lens parameter must be an integer >= 2, got 2.5"),
        (lens_space, True, "lens parameter must be an integer >= 2, got True"),
        (lens_space, 1, "lens parameter must be an integer >= 2, got 1"),
        (regular_cyclic_representation, 2.5, "positive integer, got 2.5"),
        (lambda n: regular_product_representation((n, 3), ("a", "b")), 2.5,
         "positive integer, got 2.5"),
        (lambda n: regular_product_representation((2, n), ("a", "b")), 3.0,
         "positive integer, got 3.0"),
    ],
)
def test_fixtures_refuse_a_size_that_is_not_an_integer(build, arg, message):
    # the product once truncated 2.5 to 2 and built C2 x C3; circle and
    # lens_space failed with a TypeError from range or <
    with pytest.raises(ValidationError, match=f"{message}$"):
        build(arg)


def test_the_cyclic_representation_is_the_one_factor_product():
    for n in (1, 2, 5, np.int64(6)):
        for side in ("right", "left"):
            a = regular_cyclic_representation(n, side)
            b = regular_product_representation((int(n),), ("t",), side)
            assert a.side == b.side and list(a.images) == ["t"]
            assert np.array_equal(a.module.basis_map, b.module.basis_map)
            pairs = zip(a.images["t"].blocks, b.images["t"].blocks)
            assert all(np.array_equal(x, y) for x, y in pairs)


def test_a_route_coordinate_past_the_float_range_is_refused_without_a_warning():
    # lens_space(3) with t -> e^(2 pi i / 3) on C with trace weight 450: each
    # Laplacian is 3 times the identity, so the Laplacian route's degree-3
    # factor Det^(3/2) = e^(741.6) is past the float range, although the
    # torsion e^(-494.4) is a float.  Until determinant lines keep logs, that
    # route refuses it with a ValidationError and no floating-point warning
    # (pytest turns warnings into errors).
    module = standard_module(FiniteVonNeumannAlgebra(((1, 450.0),)))
    rep = GroupRepresentation(module, {"t": np.array([[np.exp(2j * np.pi / 3)]])})
    with pytest.raises(ValidationError, match="must be positive, got inf$"):
        torsion(lens_space(3), rep)


# -- assembly -----------------------------------------------------------------


def test_assembly_structure():
    rep = regular_cyclic_representation(3)
    K = circle()
    c = assemble_coefficients(K, rep)
    assert c.convention == "chain"
    assert len(c.modules) == 2
    assert c.modules[0].multiplicities == rep.module.multiplicities
    assert c.boundary_residual() < 1e-12

    repl = regular_cyclic_representation(3, side="left")
    cc = assemble_coefficients(K, repl)
    assert cc.convention == "cochain"
    # unitary images and standard grams: the cochain differential is the
    # adjoint of the chain boundary
    for bc, bk in zip(cc.maps[0].blocks, c.maps[0].blocks):
        assert np.allclose(bc, bk.conj().T, atol=1e-10)


def test_assembly_relation_violations():
    with pytest.raises(RelationViolation):
        assemble_coefficients(projective_plane(), scalar_representation({"t": 2.0}))
    with pytest.raises(RelationViolation):
        assemble_coefficients(
            klein_bottle(), scalar_representation({"a": 2.0, "b": 1.0})
        )
    # scalars always satisfy the commutator relation of the torus
    c = assemble_coefficients(torus(), scalar_representation({"a": 2.0, "b": 3.0}))
    assert c.boundary_residual() < 1e-12


# -- torsion values -----------------------------------------------------------


def test_interval_trivial():
    K = interval()
    report = torsion(K, trivial_representation(K.generators))
    assert report.chi == 1
    assert np.allclose(report.betti, (1.0, 0.0), atol=1e-10)
    assert abs(report.coordinate - 2.0 ** -0.5) < 1e-12
    # both Laplacians have positive spectrum {2}
    for density in report.hodge_data.positive_densities:
        assert np.allclose(density.values, [2.0], atol=1e-10)
    routes = report.route_coordinates
    assert abs(routes["laplacian"] - routes["exact_sequence"]) < 1e-10


def test_circle_scalar_coordinates():
    K = circle()
    report = torsion(K, sign_representation(K.generators))
    assert abs(report.coordinate - 0.5) < 1e-12
    assert np.allclose(report.betti, (0.0, 0.0), atol=1e-10)
    assert report.convention == "chain"

    report = torsion(K, trivial_representation(K.generators))
    assert abs(report.coordinate - 1.0) < 1e-12
    assert np.allclose(report.betti, (1.0, 1.0), atol=1e-10)


def test_circle_regular_values():
    # b_0 = b_1 = 1/n, and the coordinate is n^(-1/n): the positive
    # eigenvalues of the edge Laplacian are |w^j - 1|^2 over nontrivial
    # characters w^j, each with trace weight 1/n, and their product is n^2
    for n in (2, 3, 4):
        K = circle()
        report = torsion(K, regular_cyclic_representation(n))
        assert np.allclose(report.betti, (1.0 / n, 1.0 / n), atol=1e-9)
        assert abs(report.coordinate - n ** (-1.0 / n)) < 1e-9


def test_lens_regular_matches_character_oracle():
    n = 3
    K = lens_space(n)
    report = torsion(K, regular_cyclic_representation(n))
    assert np.allclose(report.betti, (1.0 / n, 0.0, 0.0, 1.0 / n), atol=1e-9)

    # independent oracle: decompose l2(Z/n) into character lines, run the
    # scalar pipeline on each, and combine with trace weights 1/n
    oracle = 1.0
    for j in range(n):
        w = np.exp(2j * np.pi * j / n)
        line = torsion(K, scalar_representation({"t": w}))
        oracle *= line.coordinate ** (1.0 / n)
    assert abs(report.coordinate - oracle) < 1e-9
    assert abs(report.coordinate - 3.0 ** (-1.0 / 3.0)) < 1e-9


def test_unimodular_nonunitary_circle():
    alg = FiniteVonNeumannAlgebra(((1, 0.5), (1, 0.5)))
    module = standard_module(alg)
    image = CommutantOperator(module, [np.array([[2.0]]), np.array([[0.5]])])
    rep = GroupRepresentation(module, {"t": image})
    report = torsion(circle(), rep)
    # boundary blocks are (1, -1/2); the edge Laplacian has determinant 1/2
    assert abs(report.coordinate - 2.0 ** 0.5) < 1e-12


def test_surface_coordinates():
    K = klein_bottle()
    report = torsion(K, trivial_representation(K.generators))
    assert np.allclose(report.betti, (1.0, 1.0, 0.0), atol=1e-10)
    assert abs(report.coordinate - 2.0) < 1e-12

    K = torus()
    report = torsion(K, trivial_representation(K.generators))
    assert np.allclose(report.betti, (1.0, 2.0, 1.0), atol=1e-10)
    assert abs(report.coordinate - 1.0) < 1e-12
    report = torsion(K, sign_representation(K.generators))
    assert np.allclose(report.betti, (0.0, 0.0, 0.0), atol=1e-10)
    assert abs(report.coordinate - 1.0) < 1e-12

    K = projective_plane()
    report = torsion(K, sign_representation(K.generators))
    assert np.allclose(report.betti, (0.0, 0.0, 1.0), atol=1e-10)
    assert abs(report.coordinate - 0.5) < 1e-12


def test_homology_cohomology_flip():
    # with unitary coefficients the cochain Laplacians match the chain ones,
    # so the two conventions give reciprocal coordinates
    cases = [
        (circle(), lambda side: sign_representation(("t",), side)),
        (circle(), lambda side: regular_cyclic_representation(3, side=side)),
        (projective_plane(), lambda side: sign_representation(("t",), side)),
        (torus(), lambda side: trivial_representation(("a", "b"), side=side)),
        (klein_bottle(), lambda side: trivial_representation(("a", "b"), side=side)),
        (lens_space(3), lambda side: regular_cyclic_representation(3, side=side)),
    ]
    for K, make in cases:
        chain = torsion(K, make("right"))
        cochain = torsion(K, make("left"))
        assert cochain.convention == "cochain"
        assert abs(chain.coordinate * cochain.coordinate - 1.0) < 1e-8
        assert np.allclose(chain.betti, cochain.betti, atol=1e-9)


def test_chi_zero_gram_independence():
    rng = np.random.default_rng(11)
    K = circle()
    rep = regular_cyclic_representation(3)
    base = torsion(K, rep)
    for _ in range(4):
        blocks = []
        for m in rep.module.multiplicities:
            r = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            blocks.append(r.conj().T @ r + 0.3 * np.eye(m))
        gram = CommutantOperator(rep.module, blocks)
        moved = torsion(K, rep.with_module_gram(gram))
        assert abs(moved.coordinate - base.coordinate) < 1e-8

    K = lens_space(2)
    rep = regular_cyclic_representation(2)
    base = torsion(K, rep)
    blocks = [
        np.array([[3.0]]) if m == 1 else np.eye(m) * 1.7
        for m in rep.module.multiplicities
    ]
    moved = torsion(K, rep.with_module_gram(CommutantOperator(rep.module, blocks)))
    assert abs(moved.coordinate - base.coordinate) < 1e-8


# -- lifts --------------------------------------------------------------------


def test_lift_independence_unimodular():
    K = circle()
    alg = FiniteVonNeumannAlgebra(((1, 0.5), (1, 0.5)))
    module = standard_module(alg)
    image = CommutantOperator(module, [np.array([[2.0]]), np.array([[0.5]])])
    reps = [
        GroupRepresentation(module, {"t": image}),
        regular_cyclic_representation(3),
    ]
    for rep in reps:
        base = torsion(K, rep)
        for dim, label, word in ((1, "e0", "t"), (0, "p0", "t^2"), (1, "e0", "t^-1")):
            moved = torsion(rechoose_lift(K, dim, label, word), rep)
            assert abs(moved.coordinate - base.coordinate) < 1e-9


def test_lift_dependence_without_unimodularity():
    # negative control: a stretched scalar changes the coordinate by exactly
    # one determinant factor per lift move
    K = circle()
    rep = scalar_representation({"t": 2.0})
    base = torsion(K, rep, require_unimodular=False)
    edge = torsion(rechoose_lift(K, 1, "e0", "t"), rep, require_unimodular=False)
    vertex = torsion(rechoose_lift(K, 0, "p0", "t"), rep, require_unimodular=False)
    det = check_unimodular(rep).determinants["t"]
    assert abs(abs(np.log(edge.coordinate / base.coordinate)) - np.log(det)) < 1e-9
    assert abs(abs(np.log(vertex.coordinate / base.coordinate)) - np.log(det)) < 1e-9


def test_rechoose_lift_roundtrip():
    K = torus()
    moved = rechoose_lift(rechoose_lift(K, 1, "ea", "a b"), 1, "ea", "b^-1 a^-1")
    for q in range(len(K.boundaries)):
        for row_old, row_new in zip(K.boundaries[q], moved.boundaries[q]):
            assert all(a == b for a, b in zip(row_old, row_new))


def test_not_unimodular_refusal():
    with pytest.raises(NotUnimodular):
        torsion(circle(), scalar_representation({"t": 2.0}))


# -- subdivision --------------------------------------------------------------


def test_interval_split_values():
    K = interval()
    K2, psi = split_edge(K, "e")
    assert "em" in K2.cells[0]
    assert set(K2.cells[1]) == {"e+", "e-"}
    rep = trivial_representation(K.generators)
    report = invariance_check(K, K2, psi, rep)
    assert abs(report.before.coordinate - 2.0 ** -0.5) < 1e-12
    assert abs(report.after.coordinate - 3.0 ** -0.5) < 1e-12
    assert report.discrepancy < 1e-10


def test_invariance_across_fixtures():
    cases = []
    K = interval()
    cases.append((K, split_edge(K, "e"), [trivial_representation(())]))
    K = circle()
    cases.append(
        (
            K,
            split_edge(K, "e0"),
            [
                trivial_representation(("t",)),
                sign_representation(("t",)),
                regular_cyclic_representation(3),
            ],
        )
    )
    K = torus()
    cases.append(
        (
            K,
            split_edge(K, "ea"),
            [
                trivial_representation(("a", "b")),
                sign_representation(("a", "b")),
                regular_product_representation((2, 2), ("a", "b")),
            ],
        )
    )
    for K, (K2, psi), reps in cases:
        for rep in reps:
            report = invariance_check(K, K2, psi, rep)
            assert report.discrepancy < 1e-8


def test_torus_face_split():
    K = torus()
    K2, psi = split_torus_face(K)
    assert K2.cells[1] == ("ea", "eb", "d")
    assert K2.cells[2] == ("F+", "F-")
    reps = [
        trivial_representation(("a", "b")),
        sign_representation(("a", "b")),
        regular_product_representation((2, 3), ("a", "b")),
    ]
    for rep in reps:
        report = invariance_check(K, K2, psi, rep)
        assert report.discrepancy < 1e-8
    # non-unimodular coefficients still satisfy the chain-map identity
    rep = scalar_representation({"a": 2.0, "b": 3.0})
    report = invariance_check(K, K2, psi, rep, require_unimodular=False)
    assert report.discrepancy < 1e-8


def test_invalid_subdivision_controls():
    K = interval()
    # separating cell fails to cancel
    with pytest.raises(InvalidSubdivision):
        elementary_subdivide(
            K,
            1,
            "e",
            SubdivisionData(
                plus="e+",
                minus="e-",
                mid="m",
                plus_boundary={"m": ring(""), "p": ring("", -1)},
                minus_boundary={"q": ring(""), "m": ring("")},
            ),
        )
    # coefficient of the separating cell is not a single unit
    with pytest.raises(InvalidSubdivision):
        elementary_subdivide(
            K,
            1,
            "e",
            SubdivisionData(
                plus="e+",
                minus="e-",
                mid="m",
                plus_boundary={"m": ring("") * 2, "p": ring("", -1)},
                minus_boundary={"q": ring(""), "m": ring("", -2)},
            ),
        )
    # halves do not reproduce the old boundary
    with pytest.raises(InvalidSubdivision):
        elementary_subdivide(
            K,
            1,
            "e",
            SubdivisionData(
                plus="e+",
                minus="e-",
                mid="m",
                plus_boundary={"m": ring(""), "p": ring("", -2)},
                minus_boundary={"q": ring(""), "m": ring("", -1)},
            ),
        )
    # the new vertex label collides with an existing vertex
    with pytest.raises(InvalidSubdivision):
        elementary_subdivide(
            K,
            1,
            "e",
            SubdivisionData(
                plus="e+",
                minus="e-",
                mid="p",
                plus_boundary={"p": ring("") - ring("", 1)},
                minus_boundary={"q": ring("")},
            ),
        )
    with pytest.raises(ValidationError):
        elementary_subdivide(K, 0, "p", SubdivisionData("x", "y", "z", {}, {}))


def test_fake_subdivision_map_rejected():
    K = circle()
    K2, psi = split_edge(K, "e0")
    # tamper with the edge entry of the chain map
    mats = [list(list(r) for r in m) for m in psi.matrices]
    mats[1][0][0] = ring("t")
    from detline.torsion import SubdivisionMap

    broken = SubdivisionMap(psi.source, psi.target, tuple(mats))
    # the sign representation separates the tampered word from the identity
    with pytest.raises(InvalidSubdivision):
        invariance_check(K, K2, broken, sign_representation(("t",)))


def test_invariance_needs_homology_side():
    K = circle()
    K2, psi = split_edge(K, "e0")
    with pytest.raises(ValidationError):
        invariance_check(K, K2, psi, sign_representation(("t",), side="left"))


# -- report contents ----------------------------------------------------------


def test_report_contents():
    K = circle()
    rep = regular_cyclic_representation(3)
    report = torsion(K, rep)
    assert report.convention == "chain"
    assert set(report.route_coordinates) == {"laplacian", "exact_sequence"}
    assert isinstance(report.reference_hashes["module_gram"], str)
    assert len(report.reference_hashes["harmonic_grams"]) == 2
    assert report.unimodularity.passed
    assert report.graded is not None
    assert report.coefficients is not None


# -- block-native layout -------------------------------------------------------


def test_reference_hashes_pinned():
    # values of the carrier-matrix implementation; -0.0 entries hash as 0.0,
    # so a gram rebuilt as U kron U^H keeps them
    report = torsion(circle(8), regular_cyclic_representation(5))
    assert report.reference_hashes == {
        "module_gram": "4bbf73e610296c44",
        "harmonic_grams": ("b52d6345c2adfc05", "b52d6345c2adfc05"),
    }
    rep = regular_product_representation((2, 3), ("a", "b"))
    assert torsion(torus(), rep).reference_hashes["module_gram"] == "21951368ff023721"


def test_gram_hash_ignores_signed_zeros():
    u = regular_cyclic_representation(5).module.basis_map
    assert gram_hash(u @ u.conj().T) == gram_hash(np.eye(5))


def test_sparse_assembly_matches_dense_evaluation():
    alg = FiniteVonNeumannAlgebra(((1, 1.0), (2, 0.5)))
    module = HilbertianModule(alg, (2, 3))
    rng = np.random.default_rng(5)
    image = CommutantOperator(
        module, [np.eye(m) + 0.3 * rng.standard_normal((m, m)) for m in (2, 3)]
    )
    zero = GroupRingElement.zero()
    mat = [[ring("t") - ring(), zero, ring("t^2", 3)], [zero, ring("t^-1"), zero]]
    for side in ("right", "left"):
        rep = GroupRepresentation(module, {"t": image}, side=side)
        got = _assemble_matrix(rep, _nonzero_entries(mat), 2, 3)
        ops = [[rep.evaluate(mat[r][c]) for c in range(3)] for r in range(2)]
        for k in range(len(module.multiplicities)):
            dense = np.block([[ops[r][c].blocks[k] for c in range(3)] for r in range(2)])
            assert np.array_equal(got.blocks[k], dense)


def test_assembly_reads_only_the_nonzero_boundary_entries(monkeypatch):
    K = circle(64)
    rep = regular_cyclic_representation(5)
    reads = [0]

    class Counted:
        def __init__(self, element):
            self.element = element

        @property
        def terms(self):
            reads[0] += len(self.element.terms)
            return self.element.terms

    entries = tuple(tuple((r, c, Counted(e)) for r, c, e in q) for q in K.boundary_entries)
    want = assemble_coefficients(K, rep)
    words = []
    lookup = rep.word_operator
    monkeypatch.setattr(K, "boundaries", None)  # the dense matrix is not walked
    monkeypatch.setattr(K, "boundary_entries", entries)
    monkeypatch.setattr(rep, "word_operator", lambda w: words.append(w) or lookup(w))
    got = assemble_coefficients(K, rep)
    # 64 x 64 entries, 128 nonzero, one term each; C[Z/5] has one block
    # shape, so each of the two words is stacked once
    assert reads[0] == 128
    assert sorted(words) == [(), (("t", 1),)]
    for a, b in zip(got.maps[0].blocks, want.maps[0].blocks):
        assert np.array_equal(a, b)


def test_torsion_reads_no_identity_gram_blocks():
    report = torsion(circle(16), regular_cyclic_representation(6))
    modules_ = report.coefficients.modules + report.hodge_data.harmonic_modules
    assert all(m.reference_gram.is_identity for m in modules_)
    assert all(m.reference_gram._stacked is None for m in modules_)


def test_assembly_matches_entrywise_evaluation_bit_for_bit():
    cases = [
        (circle(8), regular_cyclic_representation(4)),
        (lens_space(5), regular_cyclic_representation(5)),
        (torus(), regular_product_representation((2, 3), ("a", "b"))),
        (klein_bottle(), regular_product_representation((2, 3), ("a", "b"), side="left")),
    ]
    for K, rep in cases:
        cx = assemble_coefficients(K, rep)
        counts = K.cell_counts()
        for q, mat in enumerate(K.boundaries):
            if rep.side == "right":
                rows, cols, entry = counts[q], counts[q + 1], lambda r, c: mat[r][c]
            else:
                rows, cols, entry = counts[q + 1], counts[q], lambda r, c: mat[c][r]
            ops = [[rep.evaluate(entry(r, j)) for j in range(cols)] for r in range(rows)]
            for k, got in enumerate(cx.maps[q].blocks):
                tiles = np.block([[ops[r][j].blocks[k] for j in range(cols)] for r in range(rows)])
                assert np.array_equal(got, tiles)


def test_torsion_coordinate_past_float_range_of_the_determinant():
    # t -> 1.1 on C^300: the boundary is -0.1 I, whose transition Det 1e-600
    # underflows to 0; both routes rescale from the log
    module = HilbertianModule(FiniteVonNeumannAlgebra(((1, 1.0),)), (300,))
    rep = GroupRepresentation(module, {"t": 1.1 * np.eye(300)})
    report = torsion(circle(1), rep, require_unimodular=False)
    for value in report.route_coordinates.values():
        assert abs(np.log(value) - 300 * np.log(10.0)) < 1e-9


def _route_grid():
    cases = [
        (circle(k), regular_cyclic_representation(n))
        for k in (4, 8, 16, 32, 64)
        for n in (3, 5, 6)
    ]
    cases += [(lens_space(p), regular_cyclic_representation(p)) for p in (3, 5, 8, 12)]
    cases += [
        (circle(16), regular_cyclic_representation(5, side="left")),
        (lens_space(5), regular_cyclic_representation(5, side="left")),
    ]
    return cases


def test_routes_agree_on_the_fixture_grid():
    # the Laplacian route (eigh of each Delta) and the exact-sequence route
    # (the singular values and frames of each d) are independent: their log
    # coordinates agree to a few hundred ulps of the log, worst on circle(64)
    # over C[Z/6] (about 1.8e-13)
    worst = 0.0
    for K, rep in _route_grid():
        routes = torsion(K, rep).route_coordinates
        worst = max(worst, abs(np.log(routes["laplacian"]) - np.log(routes["exact_sequence"])))
    assert worst <= 1e-12


def _refuse_carrier_matrices(monkeypatch, limit):
    """Make the lazy direct-sum builders raise, and np.eye refuse sizes
    above limit (numpy-wide, for the rest of the test).  Returns np.eye."""
    eye = np.eye

    def refuse(total):
        raise AssertionError(f"built a carrier matrix of size {total.carrier_dim}")

    def small_eye(n, *args, **kwargs):
        if n > limit:
            raise AssertionError(f"built a carrier identity of size {n}")
        return eye(n, *args, **kwargs)

    monkeypatch.setattr(modules, "_direct_sum_basis_map", refuse)
    monkeypatch.setattr(modules, "_direct_sum_gram_matrix", refuse)
    monkeypatch.setattr(np, "eye", small_eye)
    return eye


def test_torsion_builds_no_carrier_matrices(monkeypatch):
    rep = regular_cyclic_representation(5)
    cells = 64  # C[Z/5] is commutative: multiplicity blocks are 64 x 64
    _refuse_carrier_matrices(monkeypatch, cells)
    report = torsion(circle(cells), rep)
    assert report.coefficients.modules[0].carrier_dim == cells * 5


def test_validate_complex_builds_no_carrier_matrices(monkeypatch):
    # maps stored as blocks 1 (x) F_k commute with the action by construction
    cx = assemble_coefficients(circle(64), regular_cyclic_representation(5))
    _refuse_carrier_matrices(monkeypatch, 64)
    report = validate_complex(cx)
    assert report.valid


def test_remetrising_builds_no_carrier_matrices(monkeypatch):
    rep = regular_cyclic_representation(5)
    cells = 64
    eye = _refuse_carrier_matrices(monkeypatch, cells)
    plain = assemble_coefficients(circle(cells), rep)
    scaled = HilbertianChainComplex(
        [m.with_reference_gram(CommutantOperator.identity(m) * 2.0) for m in plain.modules],
        plain.maps, convention=plain.convention,
    )
    again = HilbertianChainComplex(
        [m.with_reference_gram(s.reference_gram) for m, s in zip(plain.modules, scaled.modules)],
        plain.maps, convention=plain.convention,
    )
    for cx in (scaled, again):
        for m, old in zip(cx.modules, plain.modules):
            assert m.same_coordinates(old)
            assert all(np.array_equal(b, 2.0 * eye(b.shape[0])) for b in m.reference_gram.blocks)
    op = CommutantOperator.identity(rep.module) * 2.0
    for gram in (op, rep.module.with_reference_gram(op).reference_gram):
        assert rep.with_module_gram(gram).module.same_coordinates(rep.module)


def test_torsion_gram_forms_agree():
    rep = regular_cyclic_representation(5)
    op = CommutantOperator(rep.module, [np.array([[v]]) for v in (0.5, 1.3, 2.0, 0.7, 1.1)])
    forms = (
        op,
        op.to_matrix(),
        rep.module.with_reference_gram(op).reference_gram,
        ModuleMorphism(rep.module, rep.module, op.blocks),
    )
    reports = [torsion(circle(8), rep.with_module_gram(g)) for g in forms]
    first = reports[0]
    assert first.reference_hashes != torsion(circle(8), rep).reference_hashes
    for report in reports[1:]:
        assert abs(report.coordinate - first.coordinate) <= 1e-12 * first.coordinate
        assert report.reference_hashes == first.reference_hashes
