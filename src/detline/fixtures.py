"""Built-in cell complexes and coefficient representations.

Boundary words come from free differential calculus on the standard one
relator presentations: a 2-cell glued along the word w contributes the
column of free derivatives of w, and each edge labeled by a generator x
has boundary (x - 1) times its start vertex.
"""

from __future__ import annotations

import numpy as np

from .algebra import FiniteGroupTable, FiniteVonNeumannAlgebra, build_group_algebra
from .errors import ValidationError
from .modules import (
    CommutantOperator,
    HilbertianModule,
    regular_module,
    standard_module,
)
from .torsion import (
    CellComplex,
    GroupRepresentation,
    GroupRingElement,
    SubdivisionData,
    elementary_subdivide,
    ring,
)


# -- complexes ---------------------------------------------------------------


def interval() -> CellComplex:
    """Two vertices, one edge; trivial group."""
    d1 = [
        [ring("", -1)],
        [ring("", 1)],
    ]
    return CellComplex((), (("p", "q"), ("e",)), (d1,))


def circle(k: int = 1) -> CellComplex:
    """The circle with k edges; the deck generator closes the loop."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValidationError(f"the number of edges must be a positive integer, got {k!r}")
    vertices = tuple(f"p{i}" for i in range(k))
    edges = tuple(f"e{i}" for i in range(k))
    zero = GroupRingElement.zero()
    d1 = [[zero] * k for _ in range(k)]
    for i in range(k):
        if i < k - 1:
            d1[i + 1][i] = ring("", 1)
        else:
            d1[0][i] = ring("t", 1)
        d1[i][i] = d1[i][i] + ring("", -1)
    return CellComplex(("t",), (vertices, edges), (d1,))


def torus() -> CellComplex:
    """One vertex, two edges, one face glued along a b a^-1 b^-1."""
    d1 = [[ring("a") - ring(""), ring("b") - ring("")]]
    d2 = [
        [ring("") - ring("a b a^-1")],
        [ring("a") - ring("a b a^-1 b^-1")],
    ]
    return CellComplex(("a", "b"), (("v",), ("ea", "eb"), ("F",)), (d1, d2))


def klein_bottle() -> CellComplex:
    """One vertex, two edges, one face glued along a b a b^-1."""
    d1 = [[ring("a") - ring(""), ring("b") - ring("")]]
    d2 = [
        [ring("") + ring("a b")],
        [ring("a") - ring("a b a b^-1")],
    ]
    return CellComplex(("a", "b"), (("v",), ("ea", "eb"), ("F",)), (d1, d2))


def projective_plane() -> CellComplex:
    """One cell per dimension up to 2; the face runs twice around the edge."""
    d1 = [[ring("t") - ring("")]]
    d2 = [[ring("t") + ring("")]]
    return CellComplex(("t",), (("v",), ("e",), ("F",)), (d1, d2))


def lens_space(n: int) -> CellComplex:
    """One cell per dimension up to 3, deck group of order n."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
        raise ValidationError(f"lens parameter must be an integer >= 2, got {n!r}")
    d1 = [[ring("t") - ring("")]]
    d2 = [[GroupRingElement.from_pairs([(1, (("t", i),)) for i in range(n)])]]
    d3 = [[ring("t") - ring("")]]
    return CellComplex(
        ("t",), (("v",), ("e",), ("F",), ("S",)), (d1, d2, d3)
    )


# -- representations ---------------------------------------------------------


def scalar_representation(values: dict, side: str = "right") -> GroupRepresentation:
    """One-dimensional coefficients over the scalars."""
    alg = FiniteVonNeumannAlgebra(((1, 1.0),))
    module = standard_module(alg)
    images = {
        name: CommutantOperator(module, [np.array([[v]], dtype=complex)])
        for name, v in values.items()
    }
    return GroupRepresentation(module, images, side)


def trivial_representation(generators, module: HilbertianModule = None,
                           side: str = "right") -> GroupRepresentation:
    """Every generator acts as the identity."""
    if module is None:
        module = standard_module(FiniteVonNeumannAlgebra(((1, 1.0),)))
    images = {name: CommutantOperator.identity(module) for name in generators}
    return GroupRepresentation(module, images, side)


def sign_representation(generators, side: str = "right") -> GroupRepresentation:
    return scalar_representation({name: -1.0 for name in generators}, side)


def regular_cyclic_representation(n: int, side: str = "right") -> GroupRepresentation:
    """l2 of the cyclic group of order n; the generator t acts by right
    translation, which generates the commutant of the left action."""
    return regular_product_representation((n,), ("t",), side)


def regular_product_representation(orders, generators,
                                   side: str = "right") -> GroupRepresentation:
    """l2 of a product of cyclic groups, one factor per generator name.

    Used for surface groups through their finite abelian quotients: each
    generator acts by right translation with its own cyclic factor.
    """
    orders = tuple(orders)
    generators = tuple(generators)
    if len(orders) != len(generators):
        raise ValidationError("need one cyclic order per generator")
    table = FiniteGroupTable.cyclic(orders[0])
    for n in orders[1:]:
        table = FiniteGroupTable.direct_product(table, FiniteGroupTable.cyclic(n))
    dec = build_group_algebra(table)
    module = regular_module(dec)
    images = {}
    stride = table.order
    for name, n in zip(generators, orders):
        stride //= n
        images[name] = CommutantOperator.from_matrix(
            module, table.right_translation(stride % table.order)
        )
    return GroupRepresentation(module, images, side)


# -- subdivisions ------------------------------------------------------------


def split_torus_face(complex_: CellComplex):
    """Cut the torus face along the diagonal of its square.

    The new edge runs between opposite corners, so its deck value is the
    composite a b; the two triangles are glued along a b d^-1 and
    d a^-1 b^-1, whose free derivatives reproduce the square's boundary
    with the diagonal cancelling.
    """
    data = SubdivisionData(
        plus="F+",
        minus="F-",
        mid="d",
        plus_boundary={
            "ea": ring(""),
            "eb": ring("a"),
            "d": ring("", -1),
        },
        minus_boundary={
            "ea": ring("a b a^-1", -1),
            "eb": ring("a b a^-1 b^-1", -1),
            "d": ring(""),
        },
        mid_boundary={"v": ring("a b") - ring("")},
    )
    return elementary_subdivide(complex_, 2, "F", data)


def split_edge(complex_: CellComplex, label: str):
    """Split one edge at a new midpoint vertex.

    The edge boundary must consist of one +1 word and one -1 word (possibly
    on the same vertex); the halves, label+ and label-, run start to the
    midpoint labelm and from there to the end, keeping the original words.
    """
    plus, minus, mid = f"{label}+", f"{label}-", f"{label}m"
    idx = complex_.cell_index(1, label)
    column = [complex_.boundaries[0][j][idx] for j in range(len(complex_.cells[0]))]
    positive = []
    negative = []
    for cell, entry in zip(complex_.cells[0], column):
        for word, coeff in entry.terms.items():
            if coeff == 1:
                positive.append((cell, word))
            elif coeff == -1:
                negative.append((cell, word))
            else:
                raise ValidationError(f"edge {label!r} has a non-unit boundary coefficient")
    if len(positive) != 1 or len(negative) != 1:
        raise ValidationError(f"edge {label!r} is not a single oriented segment")
    (end_cell, end_word), (start_cell, start_word) = positive[0], negative[0]

    data = SubdivisionData(
        plus=plus,
        minus=minus,
        mid=mid,
        plus_boundary={
            mid: ring(""),
            start_cell: GroupRingElement({start_word: -1}),
        },
        minus_boundary={
            end_cell: GroupRingElement({end_word: 1}),
            mid: ring("", -1),
        },
    )
    return elementary_subdivide(complex_, 1, label, data)
