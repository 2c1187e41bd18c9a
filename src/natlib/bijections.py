"""Bijections between labelled trees, permutations and coloured cycles.

The zigzag construction reads a tree in geometric form as a wiring diagram:
a path enters from the north of a column or the west of a row, moves down or
right, turns at every point of the tree (down becomes right, right becomes
down), and exits south or east.  Border edges are numbered so columns keep
their index and row ``y`` gets ``w_L + w_R - 1 - y``; the map entry -> exit
is the permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nat_core import (
    Nat,
    _checked_grid,
    _grid,
    _nat_from_grid,
    _nat_grid,
    nat_to_geometric,
)
from .perms import (
    Permutation,
    TwoColouredCycle,
    excedance_profile,
    validate_2cbd,
)
from .trees import (
    EMPTY_LEFT,
    LEAF,
    BinaryTree,
    Empty,
    Node,
    OrderedTree,
)

__all__ = [
    "ZigzagTrace",
    "zigzag_traces",
    "phi",
    "psi",
    "recolour",
    "recolour_inverse",
    "psi_inverse",
    "theta",
    "omega",
    "ce",
    "zeta",
    "zeta_inverse",
]


# --------------------------------------------------------------------------
# Zigzag wiring: phi and psi
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ZigzagTrace:
    """One wire of the zigzag diagram: entry edge, turning points, exit edge."""

    start: int
    points: tuple[tuple[int, int], ...]
    end: int


def _zigzag(grid, w_l: int, w_r: int, first_column: int,
            trails: dict | None = None) -> list[int]:
    """The exit of every wire through the points of a ``_grid`` in columns
    >= first_column (0 or 1), indexed by entry label (entries left of it
    read 0).

    A row's west wire starts at its first point in those columns.  With
    ``trails``, each wire's turning points are stored under its entry label.
    """
    rows, cols, after = grid
    n = w_l + w_r
    exits = [0] * n
    for start in range(first_column, n):
        if start < w_r:
            # north entry above column ``start``
            point, down = cols[start], True
        else:
            # west entry left of row n - 1 - start
            point, down = rows[n - 1 - start], False
            if point[1] < first_column:
                point = after[point][0]
        trail = None if trails is None else trails.setdefault(start, [])
        last = None
        while point is not None:
            if trail is not None:
                trail.append(point)
            # arriving down, turn right: next point east in the row;
            # arriving right, turn down: next point south in the column
            last, point = point, after[point][0 if down else 1]
            down = not down
        # after the last turn the wire heads down and leaves south of its
        # column, or heads right and leaves east of its row; a wire that
        # meets no point leaves where it came in
        if last is None:
            exits[start] = start
        else:
            exits[start] = last[1] if down else n - 1 - last[0]
    return exits


def zigzag_traces(t: Nat, keep_first_column: bool = False) -> list[ZigzagTrace]:
    """Every wire, north entries left to right, then west entries top to
    bottom."""
    g = nat_to_geometric(t)
    first_column = 0 if keep_first_column else 1
    trails: dict[int, list] = {}
    exits = _zigzag(_grid(g.points), g.w_l, g.w_r, first_column, trails)
    n = g.w_l + g.w_r
    order = [*range(first_column, g.w_r), *range(n - 1, g.w_r - 1, -1)]
    return [ZigzagTrace(s, tuple(trails[s]), exits[s]) for s in order]


def phi(t: Nat) -> Permutation:
    """Zigzag permutation with the first column deleted.

    A permutation of {1..w_L+w_R-1} whose excedance set is {1..w_R-1}.
    """
    if not isinstance(t, Nat):
        raise ValueError("phi requires a non-empty tree")
    return tuple(_zigzag(_nat_grid(t), t.w_l, t.w_r, 1)[1:])


def psi(t: Nat) -> Permutation:
    """Zigzag map keeping the first column: a single cycle on {0..w_L+w_R-1}.

    Returned in one-line notation, 0-indexed: the i-th entry is the image
    of i.
    """
    if not isinstance(t, Nat):
        raise ValueError("psi requires a non-empty tree")
    return tuple(_zigzag(_nat_grid(t), t.w_l, t.w_r, 0))


# --------------------------------------------------------------------------
# Recolouring to two-coloured cycles
# --------------------------------------------------------------------------


def recolour(c: Permutation, w_l: int, w_r: int) -> TwoColouredCycle:
    """Replace 0..w_R-1 by blue symbols b(w_R)..b(1) and w_R..w_R+w_L-1 by
    red symbols r(1)..r(w_L) along the cycle."""
    n = w_l + w_r
    if sorted(c) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}")

    def colour(v: int) -> tuple[str, int]:
        if v < w_r:
            return ("b", w_r - v)
        return ("r", v - w_r + 1)

    word = []
    v = 0
    for _ in range(n):
        word.append(colour(v))
        v = c[v]
    if v != 0:
        raise ValueError("input permutation is not a single cycle")
    return TwoColouredCycle(w_l, w_r, tuple(word))


def recolour_inverse(c: TwoColouredCycle) -> Permutation:
    """The numeric single cycle on {0..i+j-1} behind a coloured cycle."""
    w_r = c.j
    numbers = [w_r - m if col == "b" else w_r + m - 1 for col, m in c.word]
    out = [0] * len(numbers)
    for v, nxt in zip(numbers, numbers[1:] + numbers[:1]):
        out[v] = nxt
    return tuple(out)


# --------------------------------------------------------------------------
# psi inverse: peeling the bottom row
# --------------------------------------------------------------------------


def _points_from_cycle(succ: Permutation, w_l: int,
                       w_r: int) -> set[tuple[int, int]]:
    """Reconstruct the geometric point set from the full zigzag cycle.

    Peels the rows bottom-up: a row's west wire exits south at the column of
    its leftmost point, and the wires feeding the row from columns whose last
    point lies in it immediately precede the row label in the cycle.  Peeled
    labels are spliced out of the cycle, so every label keeps its number and
    the columns left are those not yet cut off.
    """
    succ = list(succ)
    pred = [0] * len(succ)
    for v, nxt in enumerate(succ):
        pred[nxt] = v
    points: set[tuple[int, int]] = set()
    cut: set[int] = set()
    for y in range(w_l - 1, 0, -1):
        row = w_l + w_r - 1 - y  # label of the west entry of row y
        lam = succ[row]  # column of the leftmost point of row y
        points.add((y, lam))
        p = pred[row]
        while lam < p < w_r:
            points.add((y, p))
            cut.add(p)
            p = pred[p]
        succ[p], pred[lam] = lam, p
    # the top row must fill every column left
    points.update((0, x) for x in range(w_r) if x not in cut)
    return points


def _grid_of_cycle(c: TwoColouredCycle) -> tuple[dict, dict, dict]:
    """The ``_grid`` of the tree behind a coloured cycle, after every check
    of ``psi_inverse``: block-decreasing, both colours, a valid point set."""
    bad = validate_2cbd(c)
    if bad:
        raise ValueError("not block-decreasing: " + "; ".join(bad))
    if c.i < 1 or c.j < 1:
        raise ValueError("cycle must contain both colours")
    points = _points_from_cycle(recolour_inverse(c), c.i, c.j)
    return _checked_grid(frozenset(points), c.i, c.j)


def psi_inverse(c: TwoColouredCycle) -> Nat:
    """The unique tree T with recolour(psi(T)) = c."""
    return _nat_from_grid(_grid_of_cycle(c), c.i, c.j)


def theta(c: TwoColouredCycle) -> Permutation:
    """Theta = phi after psi inverse, read off the grid of psi inverse."""
    return tuple(_zigzag(_grid_of_cycle(c), c.i, c.j, 1)[1:])


# --------------------------------------------------------------------------
# The involution omega and the CE statistic
# --------------------------------------------------------------------------


def omega(c: TwoColouredCycle) -> TwoColouredCycle:
    """Swap adjacent monochromatic blocks between b(j) and r(1) when their
    number is even; identity when it is odd.  An involution."""
    if c.i == 0 or c.j == 0:
        return c
    word = c.word  # canonical: starts at b(j)
    pos = word.index(("r", 1))
    middle = word[1:pos]
    blocks: list[list[tuple[str, int]]] = []
    for sym in middle:
        if blocks and blocks[-1][-1][0] == sym[0]:
            blocks[-1].append(sym)
        else:
            blocks.append([sym])
    if len(blocks) % 2 == 1:
        return c
    swapped: list[tuple[str, int]] = []
    for a in range(0, len(blocks), 2):
        swapped.extend(blocks[a + 1])
        swapped.extend(blocks[a])
    return TwoColouredCycle(c.i, c.j, (word[0],) + tuple(swapped) + word[pos:])


def ce(sigma: Permutation, i: int, j: int) -> int:
    """CE statistic: 1 + #{u in 1..j-1 : sigma(u) > j}.

    Positions 1..j-1 play the role of columns and values j+1..i+j-1 of
    rows other than the first one; the statistic counts columns mapped to
    such rows, plus one.  Requires sigma of size i+j-1 with excedance set
    exactly {1..j-1}.
    """
    if len(sigma) != i + j - 1:
        raise ValueError(f"expected a permutation of size {i + j - 1}")
    if excedance_profile(sigma) != set(range(1, j)):
        raise ValueError(f"excedance set must be exactly 1..{j - 1}")
    return 1 + sum(1 for u in range(1, j) if sigma[u - 1] > j)


# --------------------------------------------------------------------------
# zeta: binary trees to ordered trees (vertices to edges)
# --------------------------------------------------------------------------


def zeta(b: BinaryTree | None) -> OrderedTree:
    """Bijection onto ordered trees with size(b) edges.

    The root hook of ``b`` is unrolled into the rightmost path of the
    ordered tree; hook_count(b) = childleaf_count(zeta(b)).  The hooks are
    read root first, on a stack of their own, and built in reverse: slot s
    of ``forests`` gets the children of the image of one subtree.
    """
    if b is None or isinstance(b, Empty):
        return LEAF
    forests: list[tuple] = [()]  # () for an absent subtree
    # per hook: its slot, then those of its left branch's right subtrees
    # and of its right branch's left subtrees, nearest-root first
    hooks = []
    stack = [(b, 0)]
    while stack:
        node, slot = stack.pop()
        first = len(forests)
        sub = node.left
        while sub is not None:
            if sub.right is not None:
                stack.append((sub.right, len(forests)))
            forests.append(())
            sub = sub.left
        mid = len(forests)
        sub = node.right
        while sub is not None:
            if sub.left is not None:
                stack.append((sub.left, len(forests)))
            forests.append(())
            sub = sub.right
        hooks.append((slot, first, mid, len(forests)))
    for slot, first, mid, end in reversed(hooks):
        kids = (*[OrderedTree(f) if f else LEAF for f in forests[mid:end]], LEAF)
        for f in forests[first:mid]:
            kids = (*f, OrderedTree(kids))
        forests[slot] = kids
    return OrderedTree(forests[0])


def zeta_inverse(t: OrderedTree) -> BinaryTree:
    """Inverse of zeta; the single-vertex ordered tree maps to EMPTY_LEFT.

    Reads forests (the children of an ordered tree, standing for it) root
    first, on a stack of their own, and builds their trees in reverse.
    """
    if t.is_leaf:
        return EMPTY_LEFT
    trees: list[Node | None] = [None]  # None for the empty forest
    # per forest: its slot, then those of its left and right branch's subtrees
    entries = []
    stack = [(t.children, 0)]
    while stack:
        forest, slot = stack.pop()
        first = len(trees)
        # down the last trees to the forest whose last tree is a leaf: each
        # forest above, less its last tree, is a subtree of the left branch,
        # and each tree before that leaf one of the right branch
        below = forest[-1].children
        while below:
            if len(forest) > 1:
                stack.append((forest[:-1], len(trees)))
            trees.append(None)
            forest, below = below, below[-1].children
        mid = len(trees)
        for c in forest[:-1]:
            if c.children:
                stack.append((c.children, len(trees)))
            trees.append(None)
        entries.append((slot, first, mid, len(trees)))
    for slot, first, mid, end in reversed(entries):
        left_branch = right_branch = None
        for a in trees[first:mid]:
            left_branch = Node(left_branch, a)
        for c in reversed(trees[mid:end]):
            right_branch = Node(c, right_branch)
        trees[slot] = Node(left_branch, right_branch)
    return trees[0]
