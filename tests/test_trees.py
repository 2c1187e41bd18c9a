"""Shape-level structures: binary, ordered and boxed multi-ary trees."""

from math import comb

import pytest
from hypothesis import given, strategies as st
from subtrees import dk_subtree_at, subtree_at, subtree_counts

from natlib.trees import (
    EMPTY_LEFT,
    EMPTY_RIGHT,
    LEAF,
    DKTree,
    EmptyDK,
    HookPartition,
    Node,
    OrderedTree,
    branch_stats,
    childleaf_count,
    directions,
    dk_size,
    dk_vertices,
    enumerate_binary_trees,
    enumerate_dk_trees,
    enumerate_ordered_trees,
    hook_partition,
    lv_rv,
    size,
    vertices,
)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def hook_partition_by_recursion(t: Node) -> HookPartition:
    """The recursive extraction ``hook_partition`` used before it kept its
    own stack, kept as the reference for its blocks and their order."""
    blocks, roots = [], []

    def extract(node: Node, path: str) -> None:
        block = {path}
        pending = []
        cur, p = node.left, path + "L"
        while cur is not None:
            block.add(p)
            if cur.right is not None:
                pending.append((cur.right, p + "R"))
            cur, p = cur.left, p + "L"
        cur, p = node.right, path + "R"
        while cur is not None:
            block.add(p)
            if cur.left is not None:
                pending.append((cur.left, p + "L"))
            cur, p = cur.right, p + "R"
        blocks.append(frozenset(block))
        roots.append(path)
        for sub, sub_path in pending:
            extract(sub, sub_path)

    extract(t, "")
    return HookPartition(tuple(blocks), tuple(roots))


class TestBinaryTrees:
    def test_two_empty_trees(self):
        assert enumerate_binary_trees(0) == [EMPTY_LEFT, EMPTY_RIGHT]
        assert EMPTY_LEFT != EMPTY_RIGHT

    @pytest.mark.parametrize("n", range(1, 9))
    def test_catalan_counts(self, n):
        shapes = enumerate_binary_trees(n)
        assert len(shapes) == catalan(n)
        assert len(set(shapes)) == len(shapes)
        assert all(size(t) == n for t in shapes)

    def test_vertices_preorder(self):
        t = Node(Node(None, Node()), Node())
        assert vertices(t) == ["", "L", "LR", "R"]
        assert subtree_at(t, "LR") == Node()
        with pytest.raises(KeyError):
            subtree_at(t, "RR")

    def test_lv_rv_conventions(self):
        assert lv_rv(EMPTY_LEFT) == (-1, 0)
        assert lv_rv(EMPTY_RIGHT) == (0, -1)
        assert lv_rv(Node()) == (0, 0)
        t = Node(Node(), Node(Node(), None))
        # left children: L, RL; right children: R
        assert lv_rv(t) == (2, 1)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_lv_rv_partition_vertices(self, n):
        for t in enumerate_binary_trees(n):
            lv, rv = lv_rv(t)
            assert lv + rv == n - 1

    def test_subtree_counts_count_self(self):
        t = Node(Node(), Node())
        counts = subtree_counts(t)
        # (EL, ER) for a leaf vertex is (1, 1): it counts itself
        assert counts["L"] == (1, 0)
        assert counts["R"] == (0, 1)
        # the root is neither a left nor a right child
        assert counts[""] == (1, 1)

    def test_branch_stats_examples(self):
        assert branch_stats(Node()) == (0, 0)
        assert branch_stats(Node(Node(Node()), None)) == (2, 0)
        assert branch_stats(Node(Node(), Node())) == (1, 1)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_branch_stats_bounds(self, n):
        # both branches exclude the root, so their lengths sum to < n
        for t in enumerate_binary_trees(n):
            lo, ro = branch_stats(t)
            assert 0 <= lo and 0 <= ro
            assert lo + ro <= n - 1


class TestHookPartition:
    def test_single_vertex(self):
        hp = hook_partition(Node())
        assert hp.hook_count == 1
        assert hp.blocks == (frozenset({""}),)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_blocks_partition_vertex_set(self, n):
        for t in enumerate_binary_trees(n):
            hp = hook_partition(t)
            all_paths = set()
            total = 0
            for block in hp.blocks:
                total += len(block)
                all_paths |= block
            assert total == n
            assert all_paths == set(vertices(t))
            assert hp.roots[0] == ""

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            hook_partition(EMPTY_LEFT)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_recursive_extraction(self, n):
        for t in enumerate_binary_trees(n):
            assert hook_partition(t) == hook_partition_by_recursion(t)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_vertices_carry_their_hook_count(self, n):
        for t in enumerate_binary_trees(n):
            assert t.hooks == hook_partition(t).hook_count

    def test_deep_zigzag(self):
        # children alternate left, right, ...: every second vertex roots a hook
        t = Node()
        for v in range(3000 - 1):
            t = Node(t, None) if v % 2 else Node(None, t)
        hp = hook_partition(t)
        assert hp.hook_count == t.hooks == 1500
        assert sum(len(b) for b in hp.blocks) == 3000
        assert hp.roots[:3] == ("", "RL", "RLRL")


class TestOrderedTrees:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_catalan_counts(self, n):
        trees = enumerate_ordered_trees(n)
        assert len(trees) == catalan(n)
        assert len(set(trees)) == len(trees)

    def test_childleaf_examples(self):
        assert childleaf_count(LEAF) == 0
        chain = OrderedTree((OrderedTree((LEAF,)),))
        assert childleaf_count(chain) == 1
        # only the parent vertex is counted, however many leaf children
        star = OrderedTree((LEAF, LEAF, LEAF))
        assert childleaf_count(star) == 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_childleaf_bounds(self, n):
        for t in enumerate_ordered_trees(n):
            c = childleaf_count(t)
            assert 1 <= c <= n


class TestDKTrees:
    def test_directions(self):
        assert directions(2, 1) == [(1,), (2,)]
        assert directions(3, 2) == [(1, 2), (1, 3), (2, 3)]
        assert len(directions(5, 3)) == comb(5, 3)

    def test_21_matches_binary_counts(self):
        # (2,1)-ary trees are binary trees: Catalan many of each size,
        # except the empty size where each direction gives one tree
        assert len(enumerate_dk_trees(2, 1, 0)) == 2
        for n in range(1, 7):
            assert len(enumerate_dk_trees(2, 1, n)) == catalan(n)

    @pytest.mark.parametrize("d,k", [(3, 1), (3, 2), (3, 3), (4, 2)])
    def test_sizes_and_uniqueness(self, d, k):
        for n in range(0, 4):
            trees = enumerate_dk_trees(d, k, n)
            assert len(set(trees)) == len(trees)
            assert all(dk_size(t) == n for t in trees)

    def test_vertices_and_subtree(self):
        child = DKTree(3, 2, ())
        t = DKTree(3, 2, (((1, 2), child), ((2, 3), child)))
        assert dk_vertices(t) == [(), ((1, 2),), ((2, 3),)]
        assert dk_subtree_at(t, ((1, 2),)) == child

    def test_children_must_be_sorted_and_valid(self):
        with pytest.raises(ValueError):
            DKTree(3, 2, (((2, 1), DKTree(3, 2, ())),))

    def test_empty_dk(self):
        t = EmptyDK(3, (1, 3))
        assert dk_size(t) == 0


@given(st.integers(min_value=0, max_value=7))
def test_binary_tree_enumeration_is_stable(n):
    assert enumerate_binary_trees(n) == enumerate_binary_trees(n)
