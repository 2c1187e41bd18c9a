"""Unlabelled tree shapes: binary, ordered and (d,k)-ary trees.

Binary trees come in two size-0 flavours (``EMPTY_LEFT`` and ``EMPTY_RIGHT``);
inside a non-empty tree the absence of a child is encoded as ``None``.
Vertices of a binary tree are addressed by root-to-vertex paths, i.e. strings
over the alphabet ``{"L", "R"}`` (the empty string is the root).

``Node``, ``OrderedTree`` and ``DKTree`` are hash-consed: one object per
distinct vertex, so ``==`` and ``hash`` are those of ``object``, O(1) at any
depth.  A vertex counts its subtree when it is built, from its children's
counts.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache

__all__ = [
    "BinaryTree",
    "Empty",
    "EMPTY_LEFT",
    "EMPTY_RIGHT",
    "Node",
    "OrderedTree",
    "LEAF",
    "Direction",
    "DKTree",
    "EmptyDK",
    "HookPartition",
    "size",
    "vertices",
    "enumerate_binary_trees",
    "enumerate_ordered_trees",
    "enumerate_dk_trees",
    "directions",
    "lv_rv",
    "branch_stats",
    "hook_partition",
    "childleaf_count",
    "dk_size",
    "dk_vertices",
]


@dataclass(frozen=True)
class Empty:
    """One of the two size-0 binary trees."""

    side: str  # "L" or "R"

    def __repr__(self) -> str:
        return "EMPTY_LEFT" if self.side == "L" else "EMPTY_RIGHT"


EMPTY_LEFT = Empty("L")
EMPTY_RIGHT = Empty("R")


class _Entry(weakref.ref):
    """A weak reference to a live vertex, filed under ``key``, the vertex's
    class and constructor arguments."""

    __slots__ = ("key",)

    def forget(self) -> None:
        # called when the vertex dies; a new vertex may have taken its place
        _remove_dead_weakref(_VERTICES, self.key)


_VERTICES: dict[tuple, _Entry] = {}
_VERTICES_LOCK = threading.Lock()


class _Vertex:
    """An immutable vertex, one object per distinct value.  A subclass
    names its constructor arguments in ``_ARGS`` and its counts after them
    in ``__slots__``; ``_counts(*args)`` checks the arguments."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):  # also what ``copy.copy`` rebuilds from
        return type(self), tuple(getattr(self, name) for name in self._ARGS)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._ARGS)
        return f"{type(self).__name__}({args})"


def _intern(cls, args: tuple):
    """The vertex of ``cls`` with constructor arguments ``args``; a miss
    checks and builds it under a lock, so no two threads build it twice."""
    key = (cls, *args)
    ref = _VERTICES.get(key)
    vertex = ref and ref()
    if vertex is None:
        with _VERTICES_LOCK:
            ref = _VERTICES.get(key)
            vertex = ref and ref()
            if vertex is None:
                vertex = object.__new__(cls)
                for name, value in zip(cls.__slots__, args + cls._counts(*args)):
                    object.__setattr__(vertex, name, value)
                entry = _VERTICES[key] = _Entry(vertex, _Entry.forget)
                entry.key = key
    return vertex


class Node(_Vertex):
    """A vertex of a non-empty binary tree; children may be ``None``.
    ``lv`` and ``rv`` count the left and right children in its subtree, and
    ``hooks`` the blocks of its ``hook_partition``.  ``hooks_l`` counts the
    hooks of its subtree other than the one it joins when it lies on the
    left arm of a hook above it: H = 1 + L(left) + R(right), with
    L = L(left) + H(right); ``hooks_r`` is R = R(right) + H(left)."""

    _ARGS = ("left", "right")
    __slots__ = (*_ARGS, "lv", "rv", "hooks", "hooks_l", "hooks_r")

    def __new__(cls, left: "Node | None" = None, right: "Node | None" = None):
        return _intern(cls, (left, right))

    @staticmethod
    def _counts(left, right) -> tuple[int, ...]:
        lv = rv = arm_l = hooks_l = arm_r = hooks_r = 0
        if left is not None:
            lv, rv, arm_l, hooks_l = left.lv + 1, left.rv, left.hooks_l, left.hooks
        if right is not None:
            lv, rv = lv + right.lv, rv + right.rv + 1
            arm_r, hooks_r = right.hooks_r, right.hooks
        return lv, rv, 1 + arm_l + arm_r, arm_l + hooks_r, arm_r + hooks_l


BinaryTree = Node | Empty


def size(t: BinaryTree | None) -> int:
    """Number of vertices of a binary tree (0 for the empty trees)."""
    if t is None or isinstance(t, Empty):
        return 0
    return t.lv + t.rv + 1


def vertices(t: BinaryTree | None) -> list[str]:
    """All vertex paths of ``t`` in preorder (root first)."""
    if t is None or isinstance(t, Empty):
        return []
    out = []
    stack = [(t, "")]
    while stack:
        node, path = stack.pop()
        out.append(path)
        if node.right is not None:
            stack.append((node.right, path + "R"))
        if node.left is not None:
            stack.append((node.left, path + "L"))
    return out


@lru_cache(maxsize=None)
def _node_shapes(n: int) -> tuple[Node | None, ...]:
    """All shapes with n vertices; ``None`` represents an absent subtree."""
    if n == 0:
        return (None,)
    shapes = []
    for left_size in range(n):
        for left in _node_shapes(left_size):
            for right in _node_shapes(n - 1 - left_size):
                shapes.append(Node(left, right))
    return tuple(shapes)


@lru_cache(maxsize=None)
def _shape_class(lv: int, rv: int) -> tuple[Node, ...]:
    """The shapes with |LV| = lv and |RV| = rv, in ``enumerate_binary_trees``
    order."""
    return tuple(s for s in _node_shapes(lv + rv + 1) if (s.lv, s.rv) == (lv, rv))


def enumerate_binary_trees(n: int) -> list[BinaryTree]:
    """All binary-tree shapes with exactly ``n`` vertices.

    Canonical order: by left-subtree size ascending, then recursively.
    For n = 0 the two empty trees are returned.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return [EMPTY_LEFT, EMPTY_RIGHT]
    return list(_node_shapes(n))


def lv_rv(t: BinaryTree) -> tuple[int, int]:
    """(|LV|, |RV|): numbers of left and right children.

    The empty trees follow the paper-style conventions
    lv_rv(EMPTY_LEFT) = (-1, 0) and lv_rv(EMPTY_RIGHT) = (0, -1).
    """
    if isinstance(t, Empty):
        return (-1, 0) if t.side == "L" else (0, -1)
    return t.lv, t.rv


def branch_stats(t: Node) -> tuple[int, int]:
    """(LO, RO): lengths of the leftmost and rightmost branches."""
    if not isinstance(t, Node):
        raise ValueError("branch_stats requires a non-empty tree")
    lo = 0
    node = t.left
    while node is not None:
        lo += 1
        node = node.left
    ro = 0
    node = t.right
    while node is not None:
        ro += 1
        node = node.right
    return lo, ro


@dataclass(frozen=True)
class HookPartition:
    """Partition of the vertex set of a binary tree into hooks."""

    blocks: tuple[frozenset[str], ...]
    roots: tuple[str, ...]

    @property
    def hook_count(self) -> int:
        return len(self.blocks)


def hook_partition(t: Node) -> HookPartition:
    """The unique partition of ``t`` into hooks.

    The hook of a vertex v is v together with the full leftmost and
    rightmost branches of the subtree rooted at v.  Extracting the root's
    hook leaves a forest of subtrees, each of which is partitioned the
    same way.
    """
    if not isinstance(t, Node):
        raise ValueError("no hooks in empty tree")
    blocks: list[frozenset[str]] = []
    roots: list[str] = []
    stack = [(t, "")]  # each hook's root before the hooks it leaves
    while stack:
        node, path = stack.pop()
        block = {path}
        pending: list[tuple[Node, str]] = []
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
        stack.extend(reversed(pending))
    return HookPartition(tuple(blocks), tuple(roots))


# --------------------------------------------------------------------------
# Ordered trees
# --------------------------------------------------------------------------


class OrderedTree(_Vertex):
    """A rooted tree with an ordered tuple of children, hash-consed like
    ``Node``."""

    _ARGS = ("children",)
    __slots__ = _ARGS

    def __new__(cls, children: tuple["OrderedTree", ...] = ()):
        return _intern(cls, (tuple(children),))

    @staticmethod
    def _counts(children) -> tuple[()]:
        return ()

    @property
    def is_leaf(self) -> bool:
        return not self.children


LEAF = OrderedTree()


@lru_cache(maxsize=None)
def enumerate_ordered_trees(edges: int) -> tuple[OrderedTree, ...]:
    """All ordered trees with ``edges`` edges (first-subtree size ascending)."""
    if edges < 0:
        raise ValueError("edge count must be non-negative")
    if edges == 0:
        return (LEAF,)
    out = []
    for first_edges in range(edges):
        for first in enumerate_ordered_trees(first_edges):
            for rest in enumerate_ordered_trees(edges - 1 - first_edges):
                out.append(OrderedTree((first,) + rest.children))
    return tuple(out)


def childleaf_count(t: OrderedTree) -> int:
    """Number of vertices with at least one leaf child."""
    count = 0
    stack = [t]
    while stack:
        children = stack.pop().children
        count += any(c.is_leaf for c in children)
        stack += children
    return count


# --------------------------------------------------------------------------
# (d,k)-ary trees
# --------------------------------------------------------------------------

Direction = tuple[int, ...]  # sorted k-subset of 1..d


def directions(d: int, k: int) -> list[Direction]:
    """All (d,k)-directions in lexicographic order."""
    if not 1 <= k <= d:
        raise ValueError(f"invalid dimension ({d},{k})")
    return [tuple(c) for c in itertools.combinations(range(1, d + 1), k)]


@dataclass(frozen=True)
class EmptyDK:
    """The empty (d,k)-ary tree of a given direction, k its length."""

    d: int
    direction: Direction


class DKTree(_Vertex):
    """A vertex of a non-empty (d,k)-ary tree.

    ``children`` is a sorted tuple of (direction, subtree) pairs; directions
    absent from the tuple have no child.  ``counts`` is (E_1..E_d) of the
    subtree, this vertex excluded: E_i counts the vertices whose direction
    contains i.  ``size`` counts the vertices, this one included.
    """

    _ARGS = ("d", "k", "children")
    __slots__ = (*_ARGS, "counts", "size")

    def __new__(cls, d: int, k: int,
                children: tuple[tuple[Direction, "DKTree"], ...] = ()):
        return _intern(cls, (d, k, tuple(children)))

    @staticmethod
    def _counts(d, k, children) -> tuple[tuple[int, ...], int]:
        dirs = [pi for pi, _ in children]
        if dirs != sorted(dirs) or len(set(dirs)) != len(dirs):
            raise ValueError("children must be sorted by distinct directions")
        counts, size = [0] * d, 1
        for pi, child in children:
            if (len(pi) != k
                    or not all(1 <= i <= d for i in pi)
                    or list(pi) != sorted(set(pi))):
                raise ValueError(f"{pi} is not a ({d},{k})-direction")
            if (child.d, child.k) != (d, k):
                raise ValueError("inconsistent (d,k) in subtree")
            counts = [c + e + (i in pi) for i, (c, e)
                      in enumerate(zip(counts, child.counts), 1)]
            size += child.size
        return tuple(counts), size


def dk_size(t: DKTree | EmptyDK) -> int:
    if isinstance(t, EmptyDK):
        return 0
    return t.size


def dk_vertices(t: DKTree) -> list[tuple[Direction, ...]]:
    """All vertex paths (tuples of directions) of ``t`` in preorder."""
    paths: list[tuple[Direction, ...]] = []
    stack = [(t, ())]
    while stack:
        node, path = stack.pop()
        paths.append(path)
        stack.extend((c, path + (pi,)) for pi, c in reversed(node.children))
    return paths


def _dk_preorder(t: DKTree) -> list[DKTree]:
    """The vertices of ``t`` in preorder, a shared one as often as it
    occurs."""
    nodes: list[DKTree] = []
    stack = [t]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(c for _, c in reversed(node.children))
    return nodes


def enumerate_dk_trees(d: int, k: int, n: int) -> list[DKTree | EmptyDK]:
    """All (d,k)-ary tree shapes with ``n`` vertices."""
    dirs = directions(d, k)  # validates (d, k)
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return [EmptyDK(d, pi) for pi in dirs]

    def forests(m: int, idx: int) -> list[tuple]:
        """The children tuples that hang m vertices on ``dirs[idx:]``."""
        if idx == len(dirs):
            return [()] if m == 0 else []
        out = forests(m, idx + 1)
        for sub_size in range(1, m + 1):
            for kids in forests(sub_size - 1, 0):
                pair = ((dirs[idx], DKTree(d, k, kids)),)
                out += [pair + rest for rest in forests(m - sub_size, idx + 1)]
        return out

    return [DKTree(d, k, kids) for kids in forests(n - 1, 0)]
