"""Labelled trees with ancestor-decreasing side labels, and their grids."""

import pytest

from natlib.nat_core import (
    SINGLE_NODE_NAT,
    GeometricNat,
    Nat,
    count_by_recursion,
    enumerate_nats_by_size,
    enumerate_nats_of_shape,
    geometric_to_nat,
    merge,
    nat_stats,
    nat_to_geometric,
    split,
    validate_geometric,
    validate_nat,
)
from natlib.trees import (
    EMPTY_LEFT,
    EMPTY_RIGHT,
    Empty,
    Node,
    enumerate_binary_trees,
    lv_rv,
)

# frozen counts from an earlier independent brute-force enumeration
SIZE_COUNTS = {
    (1, 1): 1,
    (1, 2): 1,
    (2, 1): 1,
    (2, 2): 3,
    (2, 3): 7,
    (3, 2): 7,
    (3, 3): 31,
    (3, 4): 115,
    (4, 4): 675,
}


class TestValidation:
    def test_single_node(self):
        assert validate_nat(Node(), {}, {}) == []

    def test_good_and_bad_labellings(self):
        shape = Node(Node(Node()), None)  # chain of two left children
        assert validate_nat(shape, {"L": 2, "LL": 1}, {}) == []
        # increasing toward the leaf: rejected
        assert validate_nat(shape, {"L": 1, "LL": 2}, {}) != []
        # not a permutation of 1..2
        assert validate_nat(shape, {"L": 3, "LL": 1}, {}) != []
        # missing label
        assert validate_nat(shape, {"L": 1}, {}) != []

    def test_decrease_only_binds_same_side(self):
        # L and RL are both left children but RL is not a descendant of L
        shape = Node(Node(), Node(Node(), None))
        assert validate_nat(shape, {"L": 1, "RL": 2}, {"R": 1}) == []
        assert validate_nat(shape, {"L": 2, "RL": 1}, {"R": 1}) == []


class TestEnumeration:
    @pytest.mark.parametrize("w", sorted(SIZE_COUNTS))
    def test_counts_by_size(self, w):
        nats = enumerate_nats_by_size(*w)
        assert len(nats) == SIZE_COUNTS[w]
        assert len(set(nats)) == len(nats)
        for t in nats:
            assert (t.w_l, t.w_r) == w
            assert validate_nat(t.shape, t.left_label, t.right_label) == []

    def test_empty_shape_has_one_labelling(self):
        assert enumerate_nats_of_shape(EMPTY_LEFT) == [EMPTY_LEFT]
        assert enumerate_nats_of_shape(EMPTY_RIGHT) == [EMPTY_RIGHT]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_recursion_count_matches_enumeration(self, n):
        for shape in enumerate_binary_trees(n):
            assert count_by_recursion(shape) == len(enumerate_nats_of_shape(shape))

    def test_enumeration_validates(self):
        for shape in enumerate_binary_trees(5):
            for t in enumerate_nats_of_shape(shape):
                if isinstance(t, Empty):
                    continue
                assert validate_nat(t.shape, t.left_label, t.right_label) == []


class TestGeometric:
    @pytest.mark.parametrize("w", [(2, 2), (2, 3), (3, 3)])
    def test_roundtrip(self, w):
        for t in enumerate_nats_by_size(*w):
            g = nat_to_geometric(t)
            assert validate_geometric(g) == []
            assert (g.w_l, g.w_r) == w
            assert geometric_to_nat(g) == t

    def test_point_count_is_vertex_count(self):
        for t in enumerate_nats_by_size(3, 2):
            g = nat_to_geometric(t)
            assert len(g.points) == 1 + len(t.left_items) + len(t.right_items)

    def test_single_point(self):
        g = nat_to_geometric(SINGLE_NODE_NAT)
        assert g.points == frozenset({(0, 0)})
        assert geometric_to_nat(g) == SINGLE_NODE_NAT

    def test_rejects_bad_grids(self):
        no_root = GeometricNat(frozenset({(0, 1), (1, 0)}), 2, 2)
        assert validate_geometric(no_root) != []
        empty_row = GeometricNat(frozenset({(0, 0), (0, 1)}), 2, 2)
        assert validate_geometric(empty_row) != []
        both_parents = GeometricNat(
            frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}), 2, 2
        )
        assert validate_geometric(both_parents) != []
        with pytest.raises(ValueError):
            geometric_to_nat(no_root)

    def test_injective_on_size_classes(self):
        seen = set()
        for t in enumerate_nats_by_size(3, 3):
            g = nat_to_geometric(t)
            assert g.points not in seen
            seen.add(g.points)


class TestSplitAndStats:
    def test_split_single(self):
        left, right = split(SINGLE_NODE_NAT)
        assert left == EMPTY_LEFT
        assert right == EMPTY_RIGHT

    def test_split_standardizes(self):
        for t in enumerate_nats_by_size(3, 3):
            left, right = split(t)
            for sub in (left, right):
                if isinstance(sub, Empty):
                    continue
                assert validate_nat(sub.shape, sub.left_label,
                                    sub.right_label) == []

    def test_split_shapes(self):
        for t in enumerate_nats_by_size(2, 3):
            left, right = split(t)
            assert (isinstance(left, Empty)) == (t.shape.left is None)
            assert (isinstance(right, Empty)) == (t.shape.right is None)

    def test_merge_rejects_parts_that_do_not_fit(self):
        shape = Node(Node(), None)
        assert merge(shape, SINGLE_NODE_NAT, EMPTY_RIGHT, (), ()) == \
            Nat.from_labels(shape, {"L": 1}, {})
        with pytest.raises(ValueError):
            merge(shape, EMPTY_LEFT, EMPTY_RIGHT, (), ())
        with pytest.raises(ValueError):
            # the only left label is sent to a right subtree that is absent
            merge(shape, SINGLE_NODE_NAT, EMPTY_RIGHT, (1,), ())

    def test_stats_fields(self):
        s = nat_stats(SINGLE_NODE_NAT)
        assert (s.lo, s.ro, s.hook, s.w_l, s.w_r) == (0, 0, 1, 1, 1)

    def test_size_from_labels(self):
        t = Nat.from_labels(Node(Node(), Node()), {"L": 1}, {"R": 1})
        assert (t.w_l, t.w_r) == (2, 2)
        assert lv_rv(t.shape) == (1, 1)
