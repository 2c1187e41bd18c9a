"""Non-ambiguous trees of dimension (d, k).

A (d,k)-NAT is a (d choose k)-ary tree whose non-root vertices carry
(d,k)-tuples: d-tuples with integers on the k coordinates of the vertex's
direction and a placeholder elsewhere.  The root label is derived: it equals
the geometric size (w_1..w_d).  Coordinates are 1-based; the geometric form
is a point set inside the box [1,w_1] x ... x [1,w_d] with the root at
(w_1..w_d).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

from .trees import DKTree, Direction, dk_vertices

__all__ = [
    "DKNat",
    "DKGeometric",
    "Label",
    "validate_dknat",
    "geometric_size",
    "complete_labels",
    "validate_dkgeometric",
    "dknat_to_geometric",
    "geometric_to_dknat",
    "enumerate_dknats_of_shape",
    "DeskScaleError",
]

# a label is a d-tuple; None is the placeholder on coordinates outside the
# vertex's direction (0 is never valid: labels start at 1)
Label = tuple["int | None", ...]
Path = tuple[Direction, ...]

MAX_DIMENSION = 6
MAX_BOX_VOLUME = 10 ** 6
# C(d, k) times the pairs a <= e of series.solve_N_dk's plan: about a
# second of work at most
MAX_CONVOLUTION_TERMS = 2 * 10 ** 6


class DeskScaleError(ValueError):
    """Raised when an operation exceeds the supported desk scale."""


def _desk_guard(d: int, box: tuple[int, ...], terms: int = 0) -> None:
    if d > MAX_DIMENSION:
        raise DeskScaleError(f"dimension {d} exceeds the supported {MAX_DIMENSION}")
    if prod(box) > MAX_BOX_VOLUME:
        raise DeskScaleError(
            f"box volume {prod(box)} exceeds the supported {MAX_BOX_VOLUME}"
        )
    if terms > MAX_CONVOLUTION_TERMS:
        raise DeskScaleError(
            f"predicted convolution-term count {terms} exceeds the supported "
            f"{MAX_CONVOLUTION_TERMS}"
        )


@dataclass(frozen=True)
class DKNat:
    """A labelled (d choose k)-ary tree; root label derived, not stored."""

    shape: DKTree
    label_items: tuple[tuple[Path, Label], ...]

    @property
    def labels(self) -> dict[Path, Label]:
        return dict(self.label_items)

    @staticmethod
    def from_labels(shape: DKTree, labels: dict[Path, Label]) -> "DKNat":
        return DKNat(shape, tuple(sorted(labels.items())))


@dataclass(frozen=True)
class DKGeometric:
    """Point set in the box [1,w_1] x ... x [1,w_d]."""

    d: int
    k: int
    box: tuple[int, ...]
    points: frozenset[tuple[int, ...]]


def geometric_size(shape: DKTree) -> tuple[int, ...]:
    """w_i = 1 + number of vertices whose direction contains i.

    Constant over all labellings of the shape; equals the root label.
    """
    return tuple(1 + e for e in shape.counts)


def validate_dknat(t: DKNat) -> list[str]:
    """Check the four labelling conditions; returns a list of violations."""
    shape = t.shape
    d = shape.d
    labels = t.labels
    w = geometric_size(shape)
    _desk_guard(d, w)
    violations = []
    paths = [p for p in dk_vertices(shape) if p]
    if set(labels) != set(paths):
        return [f"labels must cover exactly the non-root vertices"]
    for path, lab in labels.items():
        if len(lab) != d:
            violations.append(f"condition 1: label {lab} at {path} is not a {d}-tuple")
            continue
        direction = tuple(i for i in range(1, d + 1) if lab[i - 1] is not None)
        if direction != path[-1]:
            violations.append(
                f"condition 1: label direction {direction} at {path} differs"
                f" from the child index {path[-1]}"
            )
    if violations:
        return violations
    # condition 2: strict decrease along ancestry on shared coordinates;
    # the root label (w_1..w_d) dominates everything by conditions 3-4 below
    for path, lab in labels.items():
        for cut in range(1, len(path)):
            anc = labels[path[:cut]]
            for i in range(d):
                if lab[i] is not None and anc[i] is not None and anc[i] <= lab[i]:
                    violations.append(
                        f"condition 2: coordinate {i + 1} does not decrease"
                        f" from {path[:cut]} to {path}"
                    )
    # conditions 3 and 4: per coordinate, the components (with the root's
    # w_i) are distinct and fill the interval 1..w_i
    for i in range(d):
        comps = sorted(
            lab[i] for lab in labels.values() if lab[i] is not None
        )
        if len(set(comps)) != len(comps):
            violations.append(f"condition 3: repeated component on coordinate {i + 1}")
        elif comps != list(range(1, w[i])):
            violations.append(
                f"condition 4: components on coordinate {i + 1} must be"
                f" exactly 1..{w[i] - 1}"
            )
    return violations


def complete_labels(t: DKNat) -> dict[Path, tuple[int, ...]]:
    """Fill placeholders from the nearest ancestor carrying the coordinate."""
    bad = validate_dknat(t)
    if bad:
        raise ValueError("; ".join(bad))
    labels = t.labels
    w = geometric_size(t.shape)
    completed: dict[Path, tuple[int, ...]] = {(): w}
    for path in sorted(dk_vertices(t.shape), key=len):
        if not path:
            continue
        parent = completed[path[:-1]]
        lab = labels[path]
        completed[path] = tuple(
            lab[i] if lab[i] is not None else parent[i] for i in range(t.shape.d)
        )
    return completed


# --------------------------------------------------------------------------
# Geometric form
# --------------------------------------------------------------------------


def _cone_directions(
    p: tuple[int, ...], points: frozenset[tuple[int, ...]], d: int, k: int
) -> list[Direction]:
    """Directions whose cone at p contains another point of the set."""
    out = []
    for pi in itertools.combinations(range(1, d + 1), k):
        inside = set(pi)
        for q in points:
            if q == p:
                continue
            if all(
                q[i] >= p[i] if (i + 1) in inside else q[i] == p[i]
                for i in range(d)
            ):
                out.append(pi)
                break
    return out


def validate_dkgeometric(g: DKGeometric) -> list[str]:
    """Check the five geometric conditions; returns a list of violations."""
    d, k, w = g.d, g.k, g.box
    _desk_guard(d, w)
    violations = []
    root = tuple(w)
    for p in g.points:
        if len(p) != d or any(not 1 <= p[i] <= w[i] for i in range(d)):
            violations.append(f"condition 1: point {p} outside the box {w}")
    if root not in g.points:
        violations.append(f"condition 2: the root {root} is missing")
        return violations
    types: dict[tuple[int, ...], Direction] = {}
    for p in g.points:
        if p == root:
            continue
        dirs = _cone_directions(p, g.points, d, k)
        if len(dirs) != 1:
            violations.append(
                f"condition 3: point {p} has {len(dirs)} cone directions"
                f" instead of one"
            )
        else:
            types[p] = dirs[0]
    for i in range(1, d + 1):
        for level in range(1, w[i - 1]):
            hits = [
                p for p, pi in types.items() if i in pi and p[i - 1] == level
            ]
            if len(hits) != 1:
                violations.append(
                    f"condition 4: hyperplane x_{i}={level} contains"
                    f" {len(hits)} typed points instead of one"
                )
    for pi in itertools.combinations(range(1, d + 1), k):
        outside = [i for i in range(d) if (i + 1) not in pi]
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for p in g.points:
            groups.setdefault(tuple(p[i] for i in outside), []).append(p)
        for group in groups.values():
            for p, q in itertools.combinations(group, 2):
                coords = [i - 1 for i in pi]
                if not (
                    all(p[i] > q[i] for i in coords)
                    or all(q[i] > p[i] for i in coords)
                ):
                    violations.append(
                        f"condition 5: points {p} and {q} are not comparable"
                        f" in direction {pi}"
                    )
    return violations


def dknat_to_geometric(t: DKNat) -> DKGeometric:
    """Completed labels, read as points of the box.  A valid tree gives a
    valid point set, so only the tree is checked."""
    completed = complete_labels(t)
    w = completed[()]
    return DKGeometric(t.shape.d, t.shape.k, w, frozenset(completed.values()))


def geometric_to_dknat(g: DKGeometric) -> DKNat:
    """Rebuild the labelled tree: each non-root point hangs from the closest
    point of its unique cone.  A valid set gives a valid tree, so only the
    set is checked."""
    bad = validate_dkgeometric(g)
    if bad:
        raise ValueError("; ".join(bad))
    d, k = g.d, g.k
    root = tuple(g.box)
    parent: dict[tuple[int, ...], tuple[tuple[int, ...], Direction]] = {}
    for p in g.points:
        if p == root:
            continue
        pi = _cone_directions(p, g.points, d, k)[0]
        inside = set(pi)
        cone = [
            q for q in g.points
            if q != p and all(
                q[i] >= p[i] if (i + 1) in inside else q[i] == p[i]
                for i in range(d)
            )
        ]
        closest = min(cone, key=sum)
        parent[p] = (closest, pi)

    children: dict[tuple[int, ...], dict[Direction, tuple[int, ...]]] = {
        p: {} for p in g.points
    }
    for p, (par, pi) in parent.items():
        if pi in children[par]:
            raise ValueError(f"two children of direction {pi} at {par}")
        children[par][pi] = p

    labels: dict[Path, Label] = {}

    def build(point: tuple[int, ...], path: Path) -> DKTree:
        if path:
            pi = path[-1]
            labels[path] = tuple(
                point[i] if (i + 1) in pi else None for i in range(d)
            )
        kids = tuple(
            (pi, build(q, path + (pi,)))
            for pi, q in sorted(children[point].items())
        )
        return DKTree(d, k, kids)

    shape = build(root, ())
    return DKNat.from_labels(shape, labels)


# --------------------------------------------------------------------------
# Enumeration by per-coordinate label splits
# --------------------------------------------------------------------------


def _splits(pool: list[int], sizes: list[int]):
    """All ways to split pool into ordered subsets of the given sizes, which
    sum to its length."""
    if len(sizes) < 2:
        yield (tuple(pool),) if sizes else ()
        return
    first, rest = sizes[0], sizes[1:]
    for chosen in itertools.combinations(pool, first):
        remaining = [v for v in pool if v not in chosen]
        for tail in _splits(remaining, rest):
            yield (chosen,) + tail


def enumerate_dknats_of_shape(shape: DKTree) -> list[DKNat]:
    """All valid labellings of a shape, by recursive merge.

    For each coordinate, the label pool 1..w_i-1 is split among the root's
    subtrees by a multinomial choice; inside a subtree the child itself
    takes the largest allotted label on each coordinate of its direction,
    and the standardized sub-labelling is transported order-preservingly.
    """
    _desk_guard(shape.d, geometric_size(shape))
    return [DKNat(shape, items) for items in _labellings(shape)]


def _labellings(node: DKTree) -> list[tuple]:
    """The sorted label items of every standardized labelling of the
    subtree rooted at ``node``, in the order of the label splits, then of
    the sub-labellings."""
    if not node.children:
        return [()]
    d = node.d
    # a child takes one label per coordinate of its direction, and its
    # subtree its counts; the node's own label is not in its pool
    needs = [tuple(e + (i in pi) for i, e in enumerate(sub.counts, 1))
             for pi, sub in node.children]
    per_coordinate = [
        list(_splits(list(range(1, pool + 1)), [need[i] for need in needs]))
        for i, pool in enumerate(node.counts)
    ]
    # each child's sub-labellings, with its own path put in front
    subs = [
        [[((pi,) + p, lab) for p, lab in items] for items in _labellings(sub)]
        for pi, sub in node.children
    ]
    out: list[tuple] = []
    for assignment in itertools.product(*per_coordinate):
        # assignment[i][s] = sorted labels of coordinate i + 1 for subtree s
        parts = []
        for s, ((pi, _), sub_items) in enumerate(zip(node.children, subs)):
            allot = [split[s] for split in assignment]
            # the child takes the largest allotted label on each coordinate
            # of its direction
            head = ((pi,), tuple([allot[i][-1] if i + 1 in pi else None
                                  for i in range(d)]))
            parts.append([
                (head, *[(p, tuple([a[v - 1] if v is not None else None
                                    for a, v in zip(allot, lab)]))
                         for p, lab in items])
                for items in sub_items
            ])
        out += [sum(combo, ()) for combo in itertools.product(*parts)]
    return out
