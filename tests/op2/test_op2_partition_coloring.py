"""Tests for partitioning and coloring."""

import numpy as np
import pytest

from repro.op2.coloring import (
    build_block_conflicts,
    color_classes,
    degree_coloring,
    greedy_coloring,
    validate_coloring,
)
from repro.op2.exceptions import PlanError
from repro.op2.partition import contiguous_blocks, validate_blocks


class TestContiguousBlocks:
    def test_exact_division(self):
        blocks = contiguous_blocks(12, 4)
        assert [(b.start, b.stop) for b in blocks] == [(0, 4), (4, 8), (8, 12)]

    def test_remainder_block(self):
        blocks = contiguous_blocks(10, 4)
        assert len(blocks[-1]) == 2

    def test_indices_sequential(self):
        blocks = contiguous_blocks(10, 3)
        assert [b.index for b in blocks] == list(range(len(blocks)))

    def test_empty_set(self):
        assert contiguous_blocks(0, 4) == []

    def test_invalid_block_size(self):
        with pytest.raises(PlanError):
            contiguous_blocks(10, 0)

    def test_elements(self):
        blocks = contiguous_blocks(10, 4)
        np.testing.assert_array_equal(blocks[1].elements(), np.arange(4, 8))


class TestValidateBlocks:
    def test_detects_gap(self):
        blocks = contiguous_blocks(10, 5)
        with pytest.raises(PlanError):
            validate_blocks([blocks[1]], 10)


class TestConflictGraph:
    def test_shared_target_conflicts(self):
        targets = [np.array([0, 1]), np.array([1, 2]), np.array([3])]
        adj = build_block_conflicts(targets)
        assert 1 in adj[0] and 0 in adj[1]
        assert not adj[2]

    def test_no_overlap_no_conflicts(self):
        targets = [np.array([0]), np.array([1]), np.array([2])]
        adj = build_block_conflicts(targets)
        assert all(not a for a in adj)

    def test_duplicate_targets_within_block_ok(self):
        targets = [np.array([0, 0, 1]), np.array([1, 1])]
        adj = build_block_conflicts(targets)
        assert adj[0] == {1}

    def test_empty_input(self):
        assert build_block_conflicts([]) == []


class TestGreedyColoring:
    def test_proper_coloring(self):
        targets = [np.array([0, 1]), np.array([1, 2]), np.array([2, 3]), np.array([3, 0])]
        adj = build_block_conflicts(targets)
        colors = greedy_coloring(adj)
        validate_coloring(adj, colors)

    def test_independent_blocks_one_color(self):
        adj = [set(), set(), set()]
        assert greedy_coloring(adj) == [0, 0, 0]

    def test_clique_needs_n_colors(self):
        adj = [{1, 2}, {0, 2}, {0, 1}]
        colors = greedy_coloring(adj)
        assert sorted(colors) == [0, 1, 2]

    def test_custom_order_must_be_permutation(self):
        with pytest.raises(PlanError):
            greedy_coloring([set(), set()], order=[0, 0])

    def test_degree_coloring_also_proper(self):
        targets = [np.arange(i, i + 3) for i in range(10)]
        adj = build_block_conflicts(targets)
        colors = degree_coloring(adj)
        validate_coloring(adj, colors)

    def test_validate_rejects_conflicting_colors(self):
        adj = [{1}, {0}]
        with pytest.raises(PlanError):
            validate_coloring(adj, [0, 0])

    def test_validate_rejects_uncolored(self):
        with pytest.raises(PlanError):
            validate_coloring([set()], [-1])

    def test_color_classes_partition(self):
        colors = [0, 1, 0, 2, 1]
        classes = color_classes(colors)
        assert classes == [[0, 2], [1, 4], [3]]
        assert sorted(sum(classes, [])) == list(range(5))
