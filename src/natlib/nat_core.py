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
from dataclasses import dataclass
from math import comb

from .trees import (
    EMPTY_LEFT,
    EMPTY_RIGHT,
    BinaryTree,
    Empty,
    Node,
    enumerate_binary_trees,
    hook_partition,
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

    left_label: dict[str, int] = {}
    right_label: dict[str, int] = {}

    into_right_left = sorted(left_subset)
    into_left_left = sorted(set(range(1, lv_total + 1)) - set(left_subset))
    into_left_right = sorted(right_subset)
    into_right_right = sorted(set(range(1, rv_total + 1)) - set(right_subset))

    if shape.left is not None:
        # the left child of the root is itself a left vertex and takes the
        # largest remaining left label
        if not isinstance(nat_l, Nat) or len(into_left_left) != lv_l + 1:
            raise ValueError("left sub-NAT and left labels do not fit the shape")
        left_label["L"] = into_left_left[-1]
        for path, lab in nat_l.left_items:
            left_label["L" + path] = into_left_left[lab - 1]
        for path, lab in nat_l.right_items:
            right_label["L" + path] = into_left_right[lab - 1]
    if shape.right is not None:
        if not isinstance(nat_r, Nat) or len(into_right_right) != rv_r + 1:
            raise ValueError("right sub-NAT and right labels do not fit the shape")
        right_label["R"] = into_right_right[-1]
        for path, lab in nat_r.right_items:
            right_label["R" + path] = into_right_right[lab - 1]
        for path, lab in nat_r.left_items:
            left_label["R" + path] = into_right_left[lab - 1]
    return Nat.from_labels(shape, left_label, right_label)


def enumerate_nats_of_shape(shape: BinaryTree) -> list[Nat | Empty]:
    """All NATs with the given shape, via the binomial merge recursion.

    An empty shape admits exactly one (empty) NAT, represented by the
    empty tree itself.
    """
    if isinstance(shape, Empty):
        return [shape]
    return list(_enumerate_shape(shape))


def _enumerate_shape(shape: Node) -> list[Nat]:
    if shape.left is None and shape.right is None:
        return [SINGLE_NODE_NAT]
    lv_total, rv_total = lv_rv(shape)
    sub_l = _enumerate_shape(shape.left) if shape.left is not None else [EMPTY_LEFT]
    sub_r = _enumerate_shape(shape.right) if shape.right is not None else [EMPTY_RIGHT]
    lv_r = 0 if shape.right is None else lv_rv(shape.right)[0]
    rv_l = 0 if shape.left is None else lv_rv(shape.left)[1]

    out = []
    for nat_l in sub_l:
        for nat_r in sub_r:
            for left_subset in itertools.combinations(range(1, lv_total + 1), lv_r):
                for right_subset in itertools.combinations(
                    range(1, rv_total + 1), rv_l
                ):
                    out.append(merge(shape, nat_l, nat_r, left_subset, right_subset))
    return out


def enumerate_nats_by_size(w_l: int, w_r: int) -> list[Nat]:
    """All NATs of geometric size w_L x w_R."""
    if w_l < 1 or w_r < 1:
        raise ValueError("geometric size components must be >= 1")
    n = (w_l - 1) + (w_r - 1) + 1
    out = []
    for shape in enumerate_binary_trees(n):
        if lv_rv(shape) == (w_l - 1, w_r - 1):
            out.extend(enumerate_nats_of_shape(shape))
    return out


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
    """The rows and the columns of a point set, each sorted, and every
    point's next point east in its row and south in its column:
    ``after[p] = [east, south]``, None where ``p`` is last."""
    rows: dict[int, list[tuple[int, int]]] = {}
    cols: dict[int, list[tuple[int, int]]] = {}
    after: dict[tuple[int, int], list] = {}
    for p in sorted(points):
        row, col = rows.setdefault(p[0], []), cols.setdefault(p[1], [])
        if row:
            after[row[-1]][0] = p
        if col:
            after[col[-1]][1] = p
        after[p] = [None, None]
        row.append(p)
        col.append(p)
    return rows, cols, after


def validate_geometric(g: GeometricNat) -> list[str]:
    violations = []
    pts = g.points
    if (0, 0) not in pts:
        violations.append("condition 1: the root (0,0) is missing")
    for (x, y) in pts:
        if not (0 <= x < g.w_l and 0 <= y < g.w_r):
            violations.append(f"point {(x, y)} outside the {g.w_l}x{g.w_r} grid")
    rows, cols, _ = _grid(pts)
    for point in sorted(pts - {(0, 0)}):
        left, above = rows[point[0]][0] != point, cols[point[1]][0] != point
        if above and left:
            violations.append(f"condition 2-pattern: {point} has both parents")
        if not above and not left:
            violations.append(f"condition 2: {point} has no parent")
    for x in range(g.w_l):
        if x not in rows:
            violations.append(f"condition 3-gap: empty row {x}")
    for y in range(g.w_r):
        if y not in cols:
            violations.append(f"condition 3-gap: empty column {y}")
    return violations


def nat_to_geometric(t: Nat) -> GeometricNat:
    """Coordinates of every vertex: a left child sits in the row given by its
    label (flipped) and inherits its column from the closest right-child
    ancestor (or the root); symmetrically for right children."""
    bad = validate_nat(t.shape, t.left_label, t.right_label)
    if bad:
        raise ValueError("; ".join(bad))
    w_l, w_r = t.w_l, t.w_r
    left, right = t.left_label, t.right_label
    coords: dict[str, tuple[int, int]] = {"": (0, 0)}
    # preorder: every parent is placed before its children
    for path in vertices(t.shape)[1:]:
        parent = coords[path[:-1]]
        if path.endswith("L"):
            coords[path] = (w_l - left[path], parent[1])
        else:
            coords[path] = (parent[0], w_r - right[path])
    return GeometricNat(frozenset(coords.values()), w_l, w_r)


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
    bad = validate_geometric(g)
    if bad:
        raise ValueError("; ".join(bad))
    _, _, after = _grid(g.points)
    left_label: dict[str, int] = {}
    right_label: dict[str, int] = {}

    def build(point: tuple[int, int], path: str) -> Node:
        if path.endswith("L"):
            left_label[path] = g.w_l - point[0]
        elif path.endswith("R"):
            right_label[path] = g.w_r - point[1]
        east, south = after[point]
        return Node(
            build(south, path + "L") if south is not None else None,
            build(east, path + "R") if east is not None else None,
        )

    shape = build((0, 0), "")
    return Nat.from_labels(shape, left_label, right_label)


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
    return NatStats(lo, ro, hook_partition(t.shape).hook_count, t.w_l, t.w_r)


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
    """|NAT(shape)| by the binomial recursion (independent of enumeration)."""
    if isinstance(shape, Empty):
        return 1
    if shape.left is None and shape.right is None:
        return 1
    lv_total, rv_total = lv_rv(shape)
    lv_r = 0 if shape.right is None else lv_rv(shape.right)[0]
    rv_l = 0 if shape.left is None else lv_rv(shape.left)[1]
    n_l = count_by_recursion(shape.left) if shape.left is not None else 1
    n_r = count_by_recursion(shape.right) if shape.right is not None else 1
    return comb(lv_total, lv_r) * comb(rv_total, rv_l) * n_l * n_r
