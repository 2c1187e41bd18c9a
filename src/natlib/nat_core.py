"""Non-ambiguous trees: labelled binary trees and their geometric form.

A non-ambiguous tree (NAT) is a binary tree whose left children carry the
labels 1..|LV| and right children 1..|RV|, each exactly once, with labels
strictly decreasing from ancestor to descendant on each side.

The equivalent geometric form is a point set in a w_L x w_R grid with root
(0, 0); the first coordinate is the row (grows downwards), the second the
column (grows rightwards).
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from math import comb

from .trees import (
    EMPTY_LEFT,
    EMPTY_RIGHT,
    BinaryTree,
    Empty,
    Node,
    _shape_class,
    branch_stats,
    lv_rv,
    vertices,
)

__all__ = [
    "Nat",
    "GeometricNat",
    "NatStats",
    "validate_nat",
    "enumerate_nats_of_shape",
    "enumerate_nats_by_size",
    "nat_to_geometric",
    "geometric_to_nat",
    "nat_stats",
    "split",
    "merge",
    "count_by_recursion",
    "validate_geometric",
    "SINGLE_NODE_NAT",
]


@dataclass(frozen=True)
class Nat:
    """A labelled binary tree; labels are stored as sorted (path, label) pairs."""

    shape: Node
    left_items: tuple[tuple[str, int], ...]
    right_items: tuple[tuple[str, int], ...]

    # True on a tree that passed ``validate_nat`` at a document boundary or
    # was built from a checked grid (set by ``_mark_checked`` only).  Not a
    # field, so ``==``, ``hash`` and ``repr`` ignore it; the tree is frozen,
    # so it stays valid.
    _checked = False

    @property
    def left_label(self) -> dict[str, int]:
        return dict(self.left_items)

    @property
    def right_label(self) -> dict[str, int]:
        return dict(self.right_items)

    @property
    def w_l(self) -> int:
        return len(self.left_items) + 1

    @property
    def w_r(self) -> int:
        return len(self.right_items) + 1

    @staticmethod
    def from_labels(shape: Node, left_label: dict[str, int],
                    right_label: dict[str, int]) -> "Nat":
        return Nat(
            shape,
            tuple(sorted(left_label.items())),
            tuple(sorted(right_label.items())),
        )


SINGLE_NODE_NAT = Nat(Node(), (), ())


def _mark_checked(t: Nat) -> Nat:
    """Mark a NAT as valid, so that the maps do not check it again."""
    object.__setattr__(t, "_checked", True)
    return t


def validate_nat(shape: Node, left_label: dict[str, int],
                 right_label: dict[str, int]) -> list[str]:
    """Check the two defining conditions; returns a list of violations."""
    violations = []
    paths = vertices(shape)
    for side, labels in (("left", left_label), ("right", right_label)):
        end = side[0].upper()
        side_paths = [p for p in paths if p.endswith(end)]
        if set(labels) != set(side_paths):
            violations.append(f"{side} labels must cover exactly the {side} children")
            continue
        values = sorted(labels.values())
        if values != list(range(1, len(side_paths) + 1)):
            violations.append(
                f"{side} labels must be a permutation of 1..{len(side_paths)}"
            )
            continue
        # labels decrease along the side exactly when each side child is
        # below its nearest strict ancestor on that side; ``nearest`` maps a
        # path to the side child at or above it, parents first in preorder
        nearest: dict[str, str | None] = {"": None}
        for q in paths[1:]:
            p = nearest[q[:-1]]
            if q[-1] != end:
                nearest[q] = p
                continue
            if p is not None and labels[p] <= labels[q]:
                violations.append(
                    f"ancestor-decreasing violated at {side} children"
                    f" {p!r} (label {labels[p]}) and {q!r} (label {labels[q]})"
                )
            nearest[q] = q
    return violations


# --------------------------------------------------------------------------
# Enumeration by the root-decomposition recursion
# --------------------------------------------------------------------------


def _label_split(total: int, subset) -> tuple[list[int], list[int]]:
    """Labels 1..total as (those not in ``subset``, ``subset``), both sorted."""
    chosen = set(subset)
    return [v for v in range(1, total + 1) if v not in chosen], sorted(subset)


def _subsets_with_rest(labels, size: int) -> list[tuple[tuple, tuple]]:
    """(subset, the other labels) for every ``size``-subset of the sorted
    ``labels``, in lexicographic order: the complement of the i-th subset
    is the i-th (len(labels) - size)-subset from the end."""
    rest = list(itertools.combinations(labels, len(labels) - size))
    return list(zip(itertools.combinations(labels, size), reversed(rest)))


def _moved(prefix: str, items, labels: list[int], own: bool) -> tuple:
    """The items of a standardized sub-NAT under the root's child ``prefix``,
    label i becoming ``labels[i - 1]``.  With ``own`` that child is a vertex
    of the side being labelled and comes first, with the largest label.
    Sorted items stay sorted."""
    moved = [(prefix + path, labels[lab - 1]) for path, lab in items]
    if own:
        moved.insert(0, (prefix, labels[-1]))
    return tuple(moved)


def merge(shape: Node, nat_l: Nat | Empty, nat_r: Nat | Empty,
          left_subset: tuple[int, ...], right_subset: tuple[int, ...]) -> Nat:
    """Assemble a NAT of shape ``shape`` from standardized sub-NATs.

    ``left_subset`` lists the left labels given to the left children lying
    in the *right* subtree; the remaining labels go to the left subtree,
    whose root necessarily receives the largest of them.  Symmetrically for
    ``right_subset``.
    """
    lv_l = 0 if isinstance(nat_l, Empty) else len(nat_l.left_items)
    lv_total, rv_total = lv_rv(shape)
    rv_r = 0 if isinstance(nat_r, Empty) else len(nat_r.right_items)
    into_left_left, into_right_left = _label_split(lv_total, left_subset)
    into_right_right, into_left_right = _label_split(rv_total, right_subset)

    left: list[tuple[str, int]] = []
    right: list[tuple[str, int]] = []
    if shape.left is not None:
        # the left child of the root is itself a left vertex and takes the
        # largest remaining left label
        if not isinstance(nat_l, Nat) or len(into_left_left) != lv_l + 1:
            raise ValueError("left sub-NAT and left labels do not fit the shape")
        left += _moved("L", nat_l.left_items, into_left_left, True)
        right += _moved("L", nat_l.right_items, into_left_right, False)
    if shape.right is not None:
        if not isinstance(nat_r, Nat) or len(into_right_right) != rv_r + 1:
            raise ValueError("right sub-NAT and right labels do not fit the shape")
        right += _moved("R", nat_r.right_items, into_right_right, True)
        left += _moved("R", nat_r.left_items, into_right_left, False)
    return Nat.from_labels(shape, dict(left), dict(right))


def enumerate_nats_of_shape(shape: BinaryTree) -> list[Nat | Empty]:
    """All NATs with the given shape, via the binomial merge recursion.

    An empty shape admits exactly one (empty) NAT, represented by the
    empty tree itself.
    """
    if isinstance(shape, Empty):
        return [shape]
    [(_, nats)] = _enumerate_shapes([shape])
    return [Nat(shape, left, right) for left, right in nats]


_NO_LABELS = [((), ())]


def _children(node: Node) -> list[Node]:
    return [child for child in (node.left, node.right) if child is not None]


def _children_first(shapes) -> list[Node]:
    """The distinct sub-shapes of ``shapes``, each after its children, and
    the shapes in their order (one below an earlier one comes with it).
    Per shape, a breadth-first list of its new vertices lists each one's
    last occurrence after its parents' last, so its reverse, each vertex
    kept where it first occurs, puts children first."""
    order: list[Node] = []
    seen: set[Node] = set()
    for shape in shapes:
        tree = [shape]
        for node in tree:
            tree += [child for child in _children(node) if child not in seen]
        for node in reversed(tree):
            if node not in seen:
                seen.add(node)
                order.append(node)
    return order


def _enumerate_shapes(shapes) -> Iterator[tuple[Node, list[tuple[tuple, tuple]]]]:
    """Each of ``shapes``, none below another, with the (left_items,
    right_items) of its NATs in ``merge`` order: left sub-NAT, right
    sub-NAT, left subset, right subset.

    One pass, children first, builds the NATs of every distinct sub-shape
    once, and drops them after the last shape above them is built.
    """
    order = _children_first(shapes)
    uses = Counter(child for shape in order for child in _children(shape))
    done: dict[Node, list] = {}
    for shape in order:
        nats = _merged(shape, done)
        for child in _children(shape):
            uses[child] -= 1
            if not uses[child]:
                del done[child]
        if uses[shape]:
            done[shape] = nats
        else:
            yield shape, nats


def _merged(shape: Node, done: dict) -> list[tuple[tuple, tuple]]:
    """The NATs of ``shape`` from those of its children in ``done``.  Each
    sub-NAT's items are moved once per label split, and every NAT's items
    are a concatenation of four of those parts."""
    left, right = shape.left, shape.right
    sub_l = _NO_LABELS if left is None else done[left]
    sub_r = _NO_LABELS if right is None else done[right]
    lv_r = 0 if right is None else right.lv
    rv_l = 0 if left is None else left.rv
    # (the labels given to the other side's subtree, the labels kept)
    left_splits = _subsets_with_rest(range(1, shape.lv + 1), lv_r)
    right_splits = _subsets_with_rest(range(1, shape.rv + 1), rv_l)
    has_l, has_r = left is not None, right is not None
    # each sub-NAT's part of the left and of the right items, per split
    l_left = [[_moved("L", items, own, has_l) for _, own in left_splits]
              for items, _ in sub_l]
    l_right = [[_moved("L", items, other, False) for other, _ in right_splits]
               for _, items in sub_l]
    r_left = [[_moved("R", items, other, False) for other, _ in left_splits]
              for items, _ in sub_r]
    r_right = [[_moved("R", items, own, has_r) for _, own in right_splits]
               for _, items in sub_r]
    out = []
    for a_left, a_right in zip(l_left, l_right):
        for b_left, b_right in zip(r_left, r_right):
            rights = [x + y for x, y in zip(a_right, b_right)]
            out += [(x + y, z) for x, y in zip(a_left, b_left) for z in rights]
    return out


def _nats_by_size(w_l: int, w_r: int) -> Iterator[Nat]:
    """The NATs of geometric size w_L x w_R, shape by shape."""
    for shape, nats in _enumerate_shapes(_shape_class(w_l - 1, w_r - 1)):
        for left, right in nats:
            yield Nat(shape, left, right)


def enumerate_nats_by_size(w_l: int, w_r: int) -> list[Nat]:
    """All NATs of geometric size w_L x w_R."""
    if w_l < 1 or w_r < 1:
        raise ValueError("geometric size components must be >= 1")
    return list(_nats_by_size(w_l, w_r))


# --------------------------------------------------------------------------
# Geometric form
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometricNat:
    """Point set in a w_L x w_R grid; points are (row, column), root (0, 0)."""

    points: frozenset[tuple[int, int]]
    w_l: int
    w_r: int


def _grid(points) -> tuple[dict, dict, dict]:
    """The first point of every row and of every column of a point set, and
    every point's next point east in its row and south in its column:
    ``after[p] = [east, south]``, None where ``p`` is last.  ``after`` holds
    the points in sorted order."""
    first_in_row: dict[int, tuple[int, int]] = {}
    first_in_col: dict[int, tuple[int, int]] = {}
    last_in_col: dict[int, tuple[int, int]] = {}
    after: dict[tuple[int, int], list] = {}
    west = None
    for p in sorted(points):
        after[p] = [None, None]
        # sorted by row first, so a row's points come one after another
        if west is not None and west[0] == p[0]:
            after[west][0] = p
        else:
            first_in_row[p[0]] = p
        above = last_in_col.get(p[1])
        if above is None:
            first_in_col[p[1]] = p
        else:
            after[above][1] = p
        last_in_col[p[1]] = p
        west = p
    return first_in_row, first_in_col, after


def validate_geometric(g: GeometricNat) -> list[str]:
    return _grid_violations(g.points, g.w_l, g.w_r, _grid(g.points))


def _grid_violations(points, w_l: int, w_r: int, grid) -> list[str]:
    """The violations of a point set in a w_L x w_R grid with ``_grid``."""
    violations = []
    if (0, 0) not in points:
        violations.append("condition 1: the root (0,0) is missing")
    for (x, y) in points:
        if not (0 <= x < w_l and 0 <= y < w_r):
            violations.append(f"point {(x, y)} outside the {w_l}x{w_r} grid")
    rows, cols, after = grid
    for point in after:
        if point == (0, 0):
            continue
        left, above = rows[point[0]] != point, cols[point[1]] != point
        if above and left:
            violations.append(f"condition 2-pattern: {point} has both parents")
        if not above and not left:
            violations.append(f"condition 2: {point} has no parent")
    for x in range(w_l):
        if x not in rows:
            violations.append(f"condition 3-gap: empty row {x}")
    for y in range(w_r):
        if y not in cols:
            violations.append(f"condition 3-gap: empty column {y}")
    return violations


def _nat_grid(t: Nat) -> tuple[dict, dict, dict]:
    """``_grid`` of the points of ``t`` in one preorder walk: a right child
    is the next point east, a left child the next point south, so row x
    starts at the left child labelled w_L - x, column y at the right child
    labelled w_R - y, or both at the root.  A tree the library has checked
    or built is not validated again."""
    left, right = t.left_label, t.right_label
    if not t._checked:
        bad = validate_nat(t.shape, left, right)
        if bad:
            raise ValueError("; ".join(bad))
    w_l, w_r = t.w_l, t.w_r
    rows, cols = {0: (0, 0)}, {0: (0, 0)}
    after: dict[tuple[int, int], list] = {}
    stack = [(t.shape, "", (0, 0))]
    while stack:
        node, path, point = stack.pop()
        east = south = None
        if node.right is not None:
            child = path + "R"
            east = (point[0], w_r - right[child])
            cols[east[1]] = east
            stack.append((node.right, child, east))
        if node.left is not None:
            child = path + "L"
            south = (w_l - left[child], point[1])
            rows[south[0]] = south
            stack.append((node.left, child, south))
        after[point] = [east, south]
    return rows, cols, after


def nat_to_geometric(t: Nat) -> GeometricNat:
    """Coordinates of every vertex: a left child sits in the row given by its
    label (flipped) and inherits its column from the closest right-child
    ancestor (or the root); symmetrically for right children."""
    return GeometricNat(frozenset(_nat_grid(t)[2]), t.w_l, t.w_r)


def geometric_to_nat(g: GeometricNat) -> Nat:
    """Rebuild the labelled tree: a point's parent is the nearest point above
    it in its column (left child) or to its left in its row (right child).

    In a valid grid every point below another has nothing to its left, so a
    point's left child is the next point down its column and its right child
    the next point along its row.  The tree is a NAT without a further
    check: each row x >= 1 holds exactly one left child, its first point,
    labelled w_L - x, and a left child's descendants lie in lower rows;
    symmetrically for columns.
    """
    return _nat_from_grid(_checked_grid(g.points, g.w_l, g.w_r), g.w_l, g.w_r)


def _checked_grid(points, w_l: int, w_r: int) -> tuple[dict, dict, dict]:
    """The ``_grid`` of a point set in a w_L x w_R grid; raises its
    violations."""
    grid = _grid(points)
    bad = _grid_violations(points, w_l, w_r, grid)
    if bad:
        raise ValueError("; ".join(bad))
    return grid


def _nat_from_grid(grid, w_l: int, w_r: int) -> Nat:
    """``geometric_to_nat`` of a valid grid."""
    _, _, after = grid
    left_items: list[tuple[str, int]] = []
    right_items: list[tuple[str, int]] = []
    preorder = []
    stack = [((0, 0), "")]
    while stack:
        point, path = stack.pop()
        preorder.append(point)
        east, south = after[point]
        if east is not None:
            child = path + "R"
            right_items.append((child, w_r - east[1]))
            stack.append((east, child))
        if south is not None:
            child = path + "L"
            left_items.append((child, w_l - south[0]))
            stack.append((south, child))
    # children before parents
    built: dict[tuple[int, int], Node] = {}
    for point in reversed(preorder):
        east, south = after[point]
        built[point] = Node(built.get(south), built.get(east))
    return _mark_checked(Nat(built[(0, 0)], tuple(sorted(left_items)),
                             tuple(sorted(right_items))))


# --------------------------------------------------------------------------
# Statistics and split
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NatStats:
    lo: int
    ro: int
    hook: int
    w_l: int
    w_r: int


def nat_stats(t: Nat) -> NatStats:
    lo, ro = branch_stats(t.shape)
    return NatStats(lo, ro, t.shape.hooks, t.w_l, t.w_r)


def _standardize_subtree(t: Nat, prefix: str, empty: Empty) -> Nat | Empty:
    sub_shape = t.shape.left if prefix == "L" else t.shape.right
    if sub_shape is None:
        return empty
    left = {
        p[len(prefix):]: lab for p, lab in t.left_items
        if p.startswith(prefix) and p != prefix
    }
    right = {
        p[len(prefix):]: lab for p, lab in t.right_items
        if p.startswith(prefix) and p != prefix
    }
    for labels in (left, right):
        order = {lab: i + 1 for i, lab in enumerate(sorted(labels.values()))}
        for p in labels:
            labels[p] = order[labels[p]]
    return Nat.from_labels(sub_shape, left, right)


def split(t: Nat) -> tuple[Nat | Empty, Nat | Empty]:
    """The standardized left and right sub-NATs (empty trees when absent)."""
    return (
        _standardize_subtree(t, "L", EMPTY_LEFT),
        _standardize_subtree(t, "R", EMPTY_RIGHT),
    )


def count_by_recursion(shape: BinaryTree) -> int:
    """|NAT(shape)| by the binomial recursion (independent of enumeration):
    the product over all vertices of C(lv, lv_r) C(rv, rv_l)."""
    if isinstance(shape, Empty):
        return 1
    out = 1
    stack = [shape]
    while stack:
        node = stack.pop()
        left, right = node.left, node.right
        stack += [child for child in (left, right) if child is not None]
        out *= (comb(node.lv, 0 if right is None else right.lv)
                * comb(node.rv, 0 if left is None else left.rv))
    return out
