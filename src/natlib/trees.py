"""Unlabelled tree shapes: binary, ordered and (d,k)-ary trees.

Binary trees come in two size-0 flavours (``EMPTY_LEFT`` and ``EMPTY_RIGHT``);
inside a non-empty tree the absence of a child is encoded as ``None``.
Vertices of a binary tree are addressed by root-to-vertex paths, i.e. strings
over the alphabet ``{"L", "R"}`` (the empty string is the root).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
    "subtree_counts",
    "hook_partition",
    "childleaf_count",
    "dk_size",
    "dk_vertices",
    "dk_subtree_counts",
]


@dataclass(frozen=True)
class Empty:
    """One of the two size-0 binary trees."""

    side: str  # "L" or "R"

    def __repr__(self) -> str:
        return "EMPTY_LEFT" if self.side == "L" else "EMPTY_RIGHT"


EMPTY_LEFT = Empty("L")
EMPTY_RIGHT = Empty("R")


@dataclass(frozen=True)
class Node:
    """A vertex of a non-empty binary tree; children may be ``None``."""

    left: "Node | None" = None
    right: "Node | None" = None


BinaryTree = Node | Empty


def size(t: BinaryTree | None) -> int:
    """Number of vertices of a binary tree (0 for the empty trees)."""
    if t is None or isinstance(t, Empty):
        return 0
    return 1 + size(t.left) + size(t.right)


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


def subtree_at(t: Node, path: str) -> Node:
    """The vertex (subtree) of ``t`` addressed by ``path``."""
    node = t
    for step in path:
        node = node.left if step == "L" else node.right
        if node is None:
            raise KeyError(f"no vertex at path {path!r}")
    return node


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
def _node_classes(n: int) -> tuple[tuple[int, int], ...]:
    """(|LV|, |RV|) of each shape of ``_node_shapes(n)``, in the same order."""
    if n == 0:
        return ((0, 0),)
    out = []
    for left_size in range(n):
        right_size = n - 1 - left_size
        for lv_l, rv_l in _node_classes(left_size):
            for lv_r, rv_r in _node_classes(right_size):
                out.append((lv_l + lv_r + (left_size > 0),
                            rv_l + rv_r + (right_size > 0)))
    return tuple(out)


@lru_cache(maxsize=None)
def _shape_class(lv: int, rv: int) -> tuple[Node, ...]:
    """The shapes with |LV| = lv and |RV| = rv, in ``enumerate_binary_trees``
    order."""
    n = lv + rv + 1
    return tuple(shape for shape, c in zip(_node_shapes(n), _node_classes(n))
                 if c == (lv, rv))


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
    # the root is neither a left nor a right child
    return subtree_counts(t)[""]


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


def subtree_counts(t: Node) -> dict[str, tuple[int, int]]:
    """Map vertex path -> (EL, ER).

    EL(U) is the number of left children in the subtree rooted at U,
    counting U itself when U is a left child; ER symmetrically.
    """
    if not isinstance(t, Node):
        raise ValueError("subtree_counts requires a non-empty tree")
    counts: dict[str, tuple[int, int]] = {}

    def walk(node: Node, path: str) -> tuple[int, int]:
        el = er = 0
        if node.left is not None:
            l, r = walk(node.left, path + "L")
            el, er = el + l, er + r
        if node.right is not None:
            l, r = walk(node.right, path + "R")
            el, er = el + l, er + r
        if path.endswith("L"):
            el += 1
        elif path.endswith("R"):
            er += 1
        counts[path] = (el, er)
        return el, er

    walk(t, "")
    return counts


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

    def extract(node: Node, path: str) -> None:
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
        for sub, sub_path in pending:
            extract(sub, sub_path)

    extract(t, "")
    return HookPartition(tuple(blocks), tuple(roots))


# --------------------------------------------------------------------------
# Ordered trees
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderedTree:
    """A rooted tree with an ordered tuple of children."""

    children: tuple["OrderedTree", ...] = ()

    @property
    def edge_count(self) -> int:
        return sum(1 + c.edge_count for c in self.children)

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
    own = 1 if any(c.is_leaf for c in t.children) else 0
    return own + sum(childleaf_count(c) for c in t.children)


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
    """The empty (d,k)-ary tree of a given direction."""

    direction: Direction


@dataclass(frozen=True)
class DKTree:
    """A vertex of a non-empty (d,k)-ary tree.

    ``children`` is a sorted tuple of (direction, subtree) pairs; directions
    absent from the tuple have no child.
    """

    d: int
    k: int
    children: tuple[tuple[Direction, "DKTree"], ...] = ()

    def __post_init__(self) -> None:
        dirs = [pi for pi, _ in self.children]
        if dirs != sorted(dirs) or len(set(dirs)) != len(dirs):
            raise ValueError("children must be sorted by distinct directions")
        for pi, child in self.children:
            if (len(pi) != self.k
                    or not all(1 <= i <= self.d for i in pi)
                    or list(pi) != sorted(set(pi))):
                raise ValueError(f"{pi} is not a ({self.d},{self.k})-direction")
            if (child.d, child.k) != (self.d, self.k):
                raise ValueError("inconsistent (d,k) in subtree")

    def child(self, pi: Direction) -> "DKTree | None":
        for direction, sub in self.children:
            if direction == pi:
                return sub
        return None


def dk_size(t: DKTree | EmptyDK) -> int:
    if isinstance(t, EmptyDK):
        return 0
    return 1 + sum(dk_size(c) for _, c in t.children)


def dk_vertices(t: DKTree) -> list[tuple[Direction, ...]]:
    """All vertex paths (tuples of directions) of ``t`` in preorder."""
    out: list[tuple[Direction, ...]] = [()]
    for pi, child in t.children:
        out.extend((pi,) + p for p in dk_vertices(child))
    return out


def dk_subtree_counts(t: DKTree) -> dict[tuple[Direction, ...], tuple[int, ...]]:
    """Map vertex path -> (E_1..E_d).

    E_i(U) is the number of vertices in the subtree rooted at U whose
    direction contains i, counting U itself; the root has no direction.
    """
    if not isinstance(t, DKTree):
        raise ValueError("dk_subtree_counts requires a non-empty tree")
    counts: dict[tuple[Direction, ...], tuple[int, ...]] = {}

    def walk(node: DKTree, path: tuple[Direction, ...]) -> tuple[int, ...]:
        e = [0] * node.d
        for pi, child in node.children:
            for i, c in enumerate(walk(child, path + (pi,))):
                e[i] += c
        if path:
            for i in path[-1]:
                e[i - 1] += 1
        counts[path] = tuple(e)
        return counts[path]

    walk(t, ())
    return counts


def dk_subtree_at(t: DKTree, path: tuple[Direction, ...]) -> DKTree:
    node = t
    for pi in path:
        nxt = node.child(pi)
        if nxt is None:
            raise KeyError(f"no vertex at path {path}")
        node = nxt
    return node


def enumerate_dk_trees(d: int, k: int, n: int) -> list[DKTree | EmptyDK]:
    """All (d,k)-ary tree shapes with ``n`` vertices."""
    dirs = directions(d, k)  # validates (d, k)
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return [EmptyDK(pi) for pi in dirs]

    def shapes(m: int) -> list[DKTree | None]:
        if m == 0:
            return [None]
        out: list[DKTree] = []
        # distribute m - 1 vertices over the |dirs| ordered subtrees
        def place(idx: int, remaining: int,
                  acc: tuple[tuple[Direction, DKTree], ...]) -> None:
            if idx == len(dirs):
                if remaining == 0:
                    out.append(DKTree(d, k, acc))
                return
            for sub_size in range(remaining + 1):
                for sub in shapes(sub_size):
                    pair = () if sub is None else ((dirs[idx], sub),)
                    place(idx + 1, remaining - sub_size, acc + pair)

        place(0, m - 1, ())
        return out

    return [s for s in shapes(n) if s is not None]
