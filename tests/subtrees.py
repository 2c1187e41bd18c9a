"""Path-keyed subtree helpers, kept as oracles for the counts that every
``Node`` and ``DKTree`` carries (``lv``/``rv``, ``counts``), and the
child of a (d,k) vertex in one direction.

The library reads those counts off the vertex; these folds re-derive them
per vertex path.  They are quadratic in the depth where paths are long.
"""

from natlib.trees import DKTree, Direction, Node


def subtree_at(t: Node, path: str) -> Node:
    """The vertex (subtree) of ``t`` addressed by ``path``."""
    node = t
    for step in path:
        node = node.left if step == "L" else node.right
        if node is None:
            raise KeyError(f"no vertex at path {path!r}")
    return node


def subtree_counts(t: Node) -> dict[str, tuple[int, int]]:
    """Map vertex path -> (EL, ER).

    EL(U) is the number of left children in the subtree rooted at U,
    counting U itself when U is a left child; ER symmetrically.
    """
    if not isinstance(t, Node):
        raise ValueError("subtree_counts requires a non-empty tree")
    counts = {}
    stack = [(t, "")]
    while stack:
        node, path = stack.pop()
        counts[path] = (node.lv + path.endswith("L"), node.rv + path.endswith("R"))
        for child, step in ((node.right, "R"), (node.left, "L")):
            if child is not None:
                stack.append((child, path + step))
    return counts


def dk_subtree_counts(t: DKTree) -> dict[tuple[Direction, ...], tuple[int, ...]]:
    """Map vertex path -> (E_1..E_d).

    E_i(U) is the number of vertices in the subtree rooted at U whose
    direction contains i, counting U itself; the root has no direction.
    """
    if not isinstance(t, DKTree):
        raise ValueError("dk_subtree_counts requires a non-empty tree")
    counts = {}
    stack = [(t, ())]
    while stack:
        node, path = stack.pop()
        own = path[-1] if path else ()
        counts[path] = tuple(e + (i in own) for i, e in enumerate(node.counts, 1))
        stack.extend((c, path + (pi,)) for pi, c in reversed(node.children))
    return counts


def dk_child(t: DKTree, pi: Direction) -> DKTree | None:
    """The child of ``t`` in direction ``pi``, or None."""
    return dict(t.children).get(pi)


def dk_subtree_at(t: DKTree, path: tuple[Direction, ...]) -> DKTree:
    """The vertex (subtree) of ``t`` addressed by ``path``."""
    node = t
    for pi in path:
        nxt = dk_child(node, pi)
        if nxt is None:
            raise KeyError(f"no vertex at path {path}")
        node = nxt
    return node
