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

from .nat_core import _subsets_with_rest
from .trees import DKTree, Direction, _dk_preorder, dk_vertices

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
    # the root label (w_1..w_d) dominates everything by conditions 3-4 below.
    # Decrease is transitive, so each vertex is compared with the nearest
    # ancestor carrying each of its coordinates: ``nearest[h][i]`` is the
    # (label, path) of that vertex at or above the vertex at depth h of the
    # current root path, in preorder
    nearest = [(None,) * d]
    for path in paths:
        lab = labels[path]
        del nearest[len(path):]
        above = list(nearest[-1])
        for i, v in enumerate(lab):
            if v is None:
                continue
            if above[i] is not None and above[i][0] <= v:
                violations.append(
                    f"condition 2: coordinate {i + 1} does not decrease"
                    f" from {above[i][1]} to {path}"
                )
            above[i] = (v, path)
        nearest.append(above)
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
    # preorder: the completed labels of the current root path, by depth
    above = [w]
    for path in dk_vertices(t.shape)[1:]:
        del above[len(path):]
        lab = labels[path]
        point = tuple([v if v is not None else u for v, u in zip(lab, above[-1])])
        completed[path] = point
        above.append(point)
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

    # preorder from the root, then each vertex built after its children
    labels: dict[Path, Label] = {}
    preorder = []
    stack = [(root, ())]
    while stack:
        point, path = stack.pop()
        preorder.append(point)
        if path:
            pi = path[-1]
            labels[path] = tuple(
                point[i] if (i + 1) in pi else None for i in range(d)
            )
        stack += [(q, path + (pi,)) for pi, q in sorted(children[point].items(),
                                                         reverse=True)]
    built: dict[tuple[int, ...], DKTree] = {}
    for point in reversed(preorder):
        built[point] = DKTree(d, k, tuple(
            (pi, built[q]) for pi, q in sorted(children[point].items())))
    return DKNat.from_labels(built[root], labels)


# --------------------------------------------------------------------------
# Enumeration by per-coordinate label splits
# --------------------------------------------------------------------------


def _splits(pool: range, sizes: tuple[int, ...]) -> list[tuple]:
    """All ways to split the sorted pool into ordered subsets of the given
    sizes, which sum to its length, the first subset varying slowest."""
    splits = [((), pool)]  # (the subsets chosen, the labels left)
    for size in sizes[:-1]:
        splits = [(chosen + (subset,), rest) for chosen, left in splits
                  for subset, rest in _subsets_with_rest(left, size)]
    return [chosen + (tuple(rest),) for chosen, rest in splits]


def enumerate_dknats_of_shape(shape: DKTree) -> list[DKNat]:
    """All valid labellings of a shape, by recursive merge.

    For each coordinate, the label pool 1..w_i-1 is split among the root's
    subtrees by a multinomial choice; inside a subtree the child itself
    takes the largest allotted label on each coordinate of its direction,
    and the standardized sub-labelling is transported order-preservingly.
    """
    _desk_guard(shape.d, geometric_size(shape))
    nodes, paths = _dk_preorder(shape)
    # sorted paths are the preorder of the vertices
    return [DKNat(shape, tuple(zip(paths[1:], labels))) for labels in _labellings(nodes)]


def _labellings(nodes: list[DKTree]) -> list[tuple]:
    """The labels of the non-root vertices of every standardized labelling
    of ``nodes[0]``, whose vertices ``nodes`` lists in preorder, each
    labelling in preorder, in the order of the label splits, then of the
    sub-labellings.  A vertex's last occurrence in a preorder comes after
    its parents' last, so the reverse, each vertex taken where it first
    occurs, is one children-first pass that builds every distinct
    sub-shape's labellings once; all of them hold fewer entries than the
    paths of the result."""
    done: dict[DKTree, list[tuple]] = {}
    for node in reversed(nodes):
        if node not in done:
            done[node] = _merged(node, done)
    return done[nodes[0]]


def _merged(node: DKTree, done: dict) -> list[tuple]:
    """The labellings of ``node`` from those of its children in ``done``."""
    children = node.children
    if len(children) < 2:
        if not children:
            return [()]
        # the only child takes the whole pool: the largest label on each
        # coordinate of its direction, and its subtree keeps its labels
        [(pi, sub)] = children
        head = (tuple([e if i in pi else None for i, e in enumerate(node.counts, 1)]),)
        return [head + labels for labels in done[sub]]
    # a child takes one label per coordinate of its direction, and its
    # subtree its counts; the node's own label is not in its pool
    needs = [[e + (i in pi) for i, e in enumerate(sub.counts, 1)]
             for pi, sub in children]
    per_coordinate = []
    for pool, sizes in zip(node.counts, zip(*needs)):
        if pool in sizes:  # the whole pool goes to one child
            whole = tuple(range(1, pool + 1))
            per_coordinate.append([tuple([whole if size else () for size in sizes])])
        else:
            per_coordinate.append(_splits(range(1, pool + 1), sizes))
    # each child's parts per distinct allotment, the allotment of child s
    # being (split[s] for split in assignment)
    parts: list[dict] = [{} for _ in needs]
    out: list[tuple] = []
    for assignment in itertools.product(*per_coordinate):
        # assignment[i][s] = sorted labels of coordinate i + 1 for subtree s
        combos = None
        for s, ((pi, sub), cache) in enumerate(zip(node.children, parts)):
            allot = tuple([split[s] for split in assignment])
            part = cache.get(allot)
            if part is None:
                part = cache[allot] = _carried(pi, allot, done[sub])
            combos = part if combos is None else [x + y for x in combos for y in part]
        out += combos
    return out


def _carried(pi: Direction, allot: tuple, labellings: list[tuple]) -> list[tuple]:
    """A child's labellings under its allotment: the child takes the largest
    allotted label on each coordinate of its direction, and label v of its
    subtree on coordinate i becomes ``allot[i][v - 1]``."""
    head = (tuple([a[-1] if i in pi else None for i, a in enumerate(allot, 1)]),)
    # a leaf, or every allotment is 1..n
    if not labellings[0] or all(not a or a[-1] == len(a) for a in allot):
        return [head + labels for labels in labellings]
    return [head + tuple([tuple([a[v - 1] if v is not None else None
                                 for a, v in zip(allot, lab)]) for lab in labels])
            for labels in labellings]
