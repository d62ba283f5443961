"""Tests of the shape grouping that batches per-block kernels."""

import numpy as np

from detline._linalg import rank_data, singular_value_stacks, stacks
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


def test_singular_values_give_the_smallest_value_the_rank_counts():
    # sigma_r is the last singular value above the cut, not the smallest;
    # a block of rank 0 counts none (inf), a block in no stack reads rank 0
    parts = [
        (np.array([0, 1]), np.array([np.diag([3.0, 1e-12]), np.diag([1e-12, 0.0])], dtype=complex)),
        (np.array([2]), np.array([np.diag([2.0, 0.5])], dtype=complex)),
    ]
    top, low, rank, logs = rank_data(singular_value_stacks(parts), 4, scale=1.0)
    np.testing.assert_array_equal(top, [3.0, 1e-12, 2.0, 0.0])
    np.testing.assert_array_equal(low, [3.0, np.inf, 0.5, np.inf])
    np.testing.assert_array_equal(rank, [1, 0, 2, 0])
    np.testing.assert_array_equal(logs, [np.log(3.0), 0.0, np.log(2.0) + np.log(0.5), 0.0])
