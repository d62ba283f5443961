"""Tests of the shape grouping that batches per-block kernels."""

import numpy as np

from detline._linalg import stacks
from detline.algebra import FiniteGroupTable, build_group_algebra
from detline.modules import CommutantOperator, HilbertianModule, standard_module

T = FiniteGroupTable


def numbered_blocks(shapes):
    """Block k filled with the value k, so a stacked block shows where it came from."""
    return [np.full(shape, k, dtype=complex) for k, shape in enumerate(shapes)]


def grouping(blocks):
    return [(list(idx), s.shape) for idx, s in stacks(blocks)]


def check_rows(blocks):
    for idx, s in stacks(blocks):
        for k, row in zip(idx, s):
            np.testing.assert_array_equal(row, blocks[k])


def test_stacks_keep_block_order_over_mixed_shapes():
    s3 = build_group_algebra(T.symmetric(3)).algebra
    blocks = numbered_blocks((m, m) for m in standard_module(s3).multiplicities)
    assert grouping(blocks) == [([0, 1], (2, 1, 1)), ([2], (1, 2, 2))]
    check_rows(blocks)

    c2s3 = build_group_algebra(T.direct_product(T.cyclic(2), T.symmetric(3))).algebra
    blocks = numbered_blocks((m, m) for m in standard_module(c2s3).multiplicities)
    assert grouping(blocks) == [([0, 1, 2, 3], (4, 1, 1)), ([4, 5], (2, 2, 2))]
    check_rows(blocks)

    # interleaved shapes group by first appearance, indices ascending
    blocks = numbered_blocks([(1, 1), (2, 3), (1, 1), (2, 2), (2, 3)])
    assert grouping(blocks) == [([0, 2], (2, 1, 1)), ([1, 4], (2, 2, 3)), ([3], (1, 2, 2))]
    check_rows(blocks)


def test_stacks_skip_zero_multiplicity_blocks():
    alg = build_group_algebra(T.cyclic(2)).algebra
    mod = HilbertianModule(alg, (0, 2))
    op = CommutantOperator.identity(mod)
    assert op.blocks[0].shape == (0, 0)
    assert grouping(op.blocks) == [([1], (1, 2, 2))]
    assert stacks([np.zeros((3, 0)), np.zeros((0, 0))]) == []


def test_a_lone_block_is_a_view():
    blocks = numbered_blocks([(1, 1), (1, 1), (3, 3)])
    (_, pair), (_, lone) = stacks(blocks)
    assert np.shares_memory(lone, blocks[2])
    assert not np.shares_memory(pair, blocks[0])
