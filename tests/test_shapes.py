"""Hash-consed tree shapes: one object per distinct vertex.

``Node``, ``OrderedTree`` and ``DKTree`` keep every live vertex in one weak
table, so equal
trees are the same object however they were built, ``==`` and ``hash`` take
O(1) time at any depth, and each vertex carries the counts of its subtree.
"""

import copy
import gc
import pickle
import random
import sys
import threading
import time
import weakref
from dataclasses import FrozenInstanceError

import pytest
from subtrees import dk_subtree_counts, subtree_counts

from natlib.bijections import psi, psi_inverse, recolour, zeta, zeta_inverse
from natlib.formulas import dk_hook_formula, hook_formula
from natlib.nat_core import (
    count_by_recursion,
    enumerate_nats_by_size,
    enumerate_nats_of_shape,
)
from natlib.natdk import (
    dknat_to_geometric,
    enumerate_dknats_of_shape,
    geometric_size,
    geometric_to_dknat,
)
from natlib.treedoc import dump_document, load_document
from natlib.trees import (
    LEAF,
    DKTree,
    Node,
    OrderedTree,
    dk_size,
    enumerate_binary_trees,
    enumerate_dk_trees,
    enumerate_ordered_trees,
    lv_rv,
    size,
)


def random_children(n: int, rng: random.Random) -> list[tuple]:
    """A random binary shape as (left, right) child indices per vertex,
    children before parents; the last vertex is the root."""
    if n == 0:
        return []
    spec = []

    def grow(m: int) -> int | None:
        # m vertices; returns the index of their root
        if m == 0:
            return None
        k = rng.randrange(m)
        left, right = grow(k), grow(m - 1 - k)
        spec.append((left, right))
        return len(spec) - 1

    grow(n)
    return spec


def build_binary(spec) -> Node:
    built = []
    for left, right in spec:
        built.append(Node(None if left is None else built[left],
                          None if right is None else built[right]))
    return built[-1]


def build_dk(spec) -> DKTree:
    # a binary spec read as a (2,1)-shape: left is direction (1,)
    built = []
    for left, right in spec:
        kids = [(pi, built[c]) for pi, c in (((1,), left), ((2,), right))
                if c is not None]
        built.append(DKTree(2, 1, tuple(kids)))
    return built[-1]


def left_chain(n: int) -> Node:
    t = Node()
    for _ in range(n - 1):
        t = Node(t, None)
    return t


class TestIdentity:
    def test_no_structural_eq_or_hash(self):
        for cls in (Node, OrderedTree, DKTree):
            assert cls.__eq__ is object.__eq__
            assert cls.__hash__ is object.__hash__

    def test_independent_builds(self):
        rng = random.Random(5)
        for n in (1, 7, 40):
            spec = random_children(n, rng)
            assert build_binary(spec) is build_binary(list(spec))
            assert build_dk(spec) is build_dk(list(spec))
        assert Node(left=Node(), right=None) is Node(Node())
        leaf = DKTree(2, 1)
        assert DKTree(2, 1, [((1,), leaf)]) is DKTree(2, 1, (((1,), DKTree(2, 1)),))
        assert OrderedTree() is LEAF is OrderedTree(children=())
        assert OrderedTree([LEAF, LEAF]) is OrderedTree((OrderedTree(), LEAF))

    def test_documents(self):
        for shape in enumerate_binary_trees(5):
            assert load_document(dump_document(shape)) is shape
        for t in enumerate_nats_by_size(3, 3):
            assert load_document(dump_document(t)).shape is t.shape
        for shape in enumerate_dk_trees(3, 2, 3):
            assert load_document(dump_document(shape)) is shape

    def test_psi_inverse_and_zeta_inverse(self):
        for t in enumerate_nats_by_size(3, 4):
            assert psi_inverse(recolour(psi(t), t.w_l, t.w_r)).shape is t.shape
            assert zeta_inverse(zeta(t.shape)) is t.shape
            assert zeta(zeta_inverse(zeta(t.shape))) is zeta(t.shape)
        for t in enumerate_ordered_trees(5):
            assert load_document(dump_document(t)) is t

    def test_enumeration(self):
        rng = random.Random(6)
        shapes = enumerate_binary_trees(6)
        for shape in rng.sample(shapes, 10):
            assert all(t.shape is shape for t in enumerate_nats_of_shape(shape))
        built = {id(s) for s in shapes}
        assert all(id(t.shape) in built for t in enumerate_nats_by_size(3, 4))

    def test_dk_shapes(self):
        for shape in enumerate_dk_trees(3, 1, 3):
            for t in enumerate_dknats_of_shape(shape):
                assert geometric_to_dknat(dknat_to_geometric(t)).shape is shape
        assert enumerate_dk_trees(2, 2, 3) == enumerate_dk_trees(2, 2, 3)


class TestThreads:
    ROUNDS, THREADS, VERTICES = 40, 8, 300

    @pytest.mark.parametrize("build,measure",
                             [(build_binary, size), (build_dk, dk_size)])
    def test_one_vertex_under_threads(self, build, measure):
        # threads that build the same fresh shape at once get one object
        rng = random.Random(7)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(self.ROUNDS):
                spec = random_children(self.VERTICES, rng)
                barrier = threading.Barrier(self.THREADS, timeout=30)
                roots = [None] * self.THREADS

                def work(i):
                    barrier.wait()
                    roots[i] = build(spec)

                threads = [threading.Thread(target=work, args=(i,))
                           for i in range(self.THREADS)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=30)
                assert not any(th.is_alive() for th in threads)
                assert roots[0] is not None
                assert all(r is roots[0] for r in roots)
                assert measure(roots[0]) == self.VERTICES
        finally:
            sys.setswitchinterval(old)


class TestImmutableValues:
    SHAPES = [Node(Node(), Node(None, Node())),
              DKTree(3, 2, (((1, 2), DKTree(3, 2)), ((2, 3), DKTree(3, 2)))),
              OrderedTree((LEAF, OrderedTree((LEAF,)))), LEAF]

    @pytest.mark.parametrize("t", SHAPES)
    def test_copies_are_the_vertex(self, t):
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert copy.deepcopy([t, t])[1] is t
        assert pickle.loads(pickle.dumps(t)) is t

    @pytest.mark.parametrize("t", SHAPES)
    def test_assignment_raises(self, t):
        for name in ("left", "lv", "counts", "size", "children", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(t, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(t, "size")

    def test_repr(self):
        assert (repr(Node(Node()))
                == "Node(left=Node(left=None, right=None), right=None)")
        assert (repr(DKTree(2, 1, (((2,), DKTree(2, 1)),)))
                == "DKTree(d=2, k=1, children=(((2,), DKTree(d=2, k=1,"
                   " children=())),))")
        assert (repr(OrderedTree((LEAF,)))
                == "OrderedTree(children=(OrderedTree(children=()),))")

    def test_a_dropped_shape_is_freed(self):
        spec = random_children(57, random.Random(8))
        t, d = build_binary(spec), build_dk(spec)
        o = zeta(t)
        refs = [weakref.ref(t), weakref.ref(d), weakref.ref(o)]
        del t, d, o
        gc.collect()
        assert [r() for r in refs] == [None, None, None]
        # and is built again, with its counts, when asked for
        assert size(build_binary(spec)) == 57 == dk_size(build_dk(spec))

    def test_rejected_children_are_not_filed(self):
        with pytest.raises(ValueError, match="sorted by distinct"):
            DKTree(2, 1, (((2,), DKTree(2, 1)), ((1,), DKTree(2, 1))))
        with pytest.raises(ValueError, match="inconsistent"):
            DKTree(2, 1, (((1,), DKTree(3, 1)),))
        # the same arguments are checked again, not found
        with pytest.raises(ValueError, match="inconsistent"):
            DKTree(2, 1, (((1,), DKTree(3, 1)),))


class TestDeepShapes:
    def test_hundred_thousand_deep_chains(self):
        a = left_chain(100_000)
        start = time.perf_counter()
        b = left_chain(100_000)
        assert a == b and hash(a) == hash(b)
        assert size(a) == 100_000
        assert lv_rv(a) == (99_999, 0)
        assert count_by_recursion(a) == 1
        assert time.perf_counter() - start < 2

    def test_five_thousand_deep_chains(self):
        t = left_chain(5000)
        counts = subtree_counts(t)
        assert len(counts) == 5000 and counts["L" * 4999] == (1, 0)
        assert hook_formula(t) == 1
        d = DKTree(3, 2)
        for v in range(4999):
            d = DKTree(3, 2, ((((1, 2), (2, 3))[v % 2], d),))
        assert len(dk_subtree_counts(d)) == 5000
        assert geometric_size(d) == (2501, 5000, 2500)
        assert dk_hook_formula(d) == 1
