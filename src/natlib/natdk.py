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
from collections import Counter
from dataclasses import dataclass
from math import prod

from .nat_core import _subsets_with_rest
from .trees import DKTree, Direction, _dk_preorder, directions, dk_vertices

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


_UNCOVERED = "labels must cover exactly the non-root vertices"


@dataclass(frozen=True)
class DKNat:
    """A labelled (d choose k)-ary tree: the labels of the non-root vertices
    in preorder; the root label is derived, not stored."""

    shape: DKTree
    labels: tuple[Label, ...]

    @property
    def label_items(self) -> tuple[tuple[Path, Label], ...]:
        """The labels paired with the paths of their vertices."""
        return tuple(zip(dk_vertices(self.shape)[1:], self.labels))

    @staticmethod
    def from_labels(shape: DKTree, labels: dict[Path, Label]) -> "DKNat":
        """The tree whose labels ``labels`` maps from their vertices' paths."""
        paths = dk_vertices(shape)[1:]
        try:  # each path is hashed once
            if len(labels) == len(paths):
                return DKNat(shape, tuple([labels[p] for p in paths]))
        except KeyError:
            pass
        raise ValueError(_UNCOVERED)


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
    return _checked_labels(t)[0]


def complete_labels(t: DKNat) -> list[tuple[int, ...]]:
    """Fill placeholders from the nearest ancestor carrying the coordinate;
    the labels in preorder, the root's first."""
    bad, completed = _checked_labels(t)
    if bad:
        raise ValueError("; ".join(bad))
    return completed


def _checked_labels(t: DKNat) -> tuple[list[str], list[tuple[int, ...]]]:
    """The violations of the four labelling conditions, and the completed
    labels in preorder, the root's first (complete only when there are no
    violations)."""
    shape = t.shape
    d = shape.d
    labels = t.labels
    w = geometric_size(shape)
    _desk_guard(d, w)
    violations = []
    # the paths give the depths and name the vertices in messages
    paths = dk_vertices(shape)[1:]
    if len(labels) != len(paths):
        return [_UNCOVERED], []
    for path, lab in zip(paths, labels):
        if not isinstance(lab, tuple) or len(lab) != d:
            violations.append(f"condition 1: label {lab} at {path} is not a {d}-tuple")
            continue
        direction = tuple(i for i in range(1, d + 1) if lab[i - 1] is not None)
        if direction != path[-1]:
            violations.append(
                f"condition 1: label direction {direction} at {path} differs"
                f" from the child index {path[-1]}"
            )
    if violations:
        return violations, []
    # condition 2: strict decrease along ancestry on shared coordinates;
    # the root label (w_1..w_d) dominates everything by conditions 3-4 below.
    # Decrease is transitive, so each vertex is compared with the nearest
    # ancestor carrying each of its coordinates, whose value its completed
    # label takes.  ``above[h]`` is the completed label of the vertex at
    # depth h of the current root path, in preorder, and the path of that
    # carrier per coordinate (None for the root)
    completed = [w]
    above = [(w, (None,) * d)]
    for path, lab in zip(paths, labels):
        del above[len(path):]
        point, carriers = map(list, above[-1])
        for i, v in enumerate(lab):
            if v is None:
                continue
            if carriers[i] is not None and point[i] <= v:
                violations.append(
                    f"condition 2: coordinate {i + 1} does not decrease"
                    f" from {carriers[i]} to {path}"
                )
            point[i], carriers[i] = v, path
        completed.append(tuple(point))
        above.append((completed[-1], carriers))
    # conditions 3 and 4: per coordinate, the components (with the root's
    # w_i) are distinct and fill the interval 1..w_i
    for i in range(d):
        comps = sorted(lab[i] for lab in labels if lab[i] is not None)
        if len(set(comps)) != len(comps):
            violations.append(f"condition 3: repeated component on coordinate {i + 1}")
        elif comps != list(range(1, w[i])):
            violations.append(
                f"condition 4: components on coordinate {i + 1} must be"
                f" exactly 1..{w[i] - 1}"
            )
    return violations, completed


# --------------------------------------------------------------------------
# Geometric form
# --------------------------------------------------------------------------


Chains = list[tuple[Direction, list[list[tuple[int, ...]]]]]


def _chains(points, d: int, k: int) -> Chains:
    """For each direction pi, the points grouped by their coordinates
    outside pi, each group in lexicographic order.  Condition 5 says that
    each group is a chain under strict dominance on pi; in a chain, a
    point's cone in direction pi is what follows it."""
    # within a group, a point that weakly dominates another on pi is
    # lexicographically larger, so one sort serves every direction
    ordered = sorted(points)
    chains: Chains = []
    for pi in directions(d, k):
        outside = [i - 1 for i in range(1, d + 1) if i not in pi]
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for p in ordered:
            groups.setdefault(tuple([p[i] for i in outside]), []).append(p)
        chains.append((pi, list(groups.values())))
    return chains


def validate_dkgeometric(g: DKGeometric) -> list[str]:
    """Check the five geometric conditions; returns a list of violations."""
    return _checked_chains(g)[0]


def _checked_chains(g: DKGeometric) -> tuple[list[str], Chains]:
    """The violations of the five geometric conditions, and the chains of
    the points (none when conditions 1 and 2 stop the check early)."""
    d, k, w = g.d, g.k, g.box
    _desk_guard(d, w)
    directions(d, k)  # validates (d, k)
    if len(w) != d:
        return [f"condition 1: box {w} is not a {d}-tuple"], []
    violations = [f"condition 1: point {p} is not a {d}-tuple"
                  for p in g.points if len(p) != d]
    if violations:
        return violations, []
    violations = [f"condition 1: point {p} outside the box {w}" for p in g.points
                  if any(not 1 <= p[i] <= w[i] for i in range(d))]
    root = tuple(w)
    if root not in g.points:
        violations.append(f"condition 2: the root {root} is missing")
        return violations, []
    chains = _chains(g.points, d, k)
    # cones[p]: the directions whose cone at p holds another point; such a
    # point weakly dominates p on pi, so it comes later in p's group, and in
    # a chain it is the next point
    cones: dict[tuple[int, ...], list[Direction]] = {p: [] for p in g.points}
    incomparable = []
    for pi, groups in chains:
        inside = [i - 1 for i in pi]
        for group in groups:
            for a, p in enumerate(group):
                if any(all(group[b][i] >= p[i] for i in inside)
                       for b in range(a + 1, len(group))):
                    cones[p].append(pi)
            # strict dominance is transitive, so consecutive points decide;
            # a later point never lies strictly below an earlier one on pi
            if not all(all(q[i] > p[i] for i in inside)
                       for p, q in zip(group, group[1:])):
                incomparable += [
                    f"condition 5: points {p} and {q} are not comparable"
                    f" in direction {pi}"
                    for p, q in itertools.combinations(group, 2)
                    if not all(q[i] > p[i] for i in inside)
                ]
    del cones[root]
    violations += [
        f"condition 3: point {p} has {len(dirs)} cone directions instead of one"
        for p, dirs in cones.items() if len(dirs) != 1
    ]
    # the typed points per (coordinate, level)
    hits = Counter((i, p[i - 1]) for p, dirs in cones.items() if len(dirs) == 1
                   for i in dirs[0])
    violations += [
        f"condition 4: hyperplane x_{i}={level} contains {hits[i, level]}"
        f" typed points instead of one"
        for i in range(1, d + 1) for level in range(1, w[i - 1]) if hits[i, level] != 1
    ]
    return violations + incomparable, chains


def dknat_to_geometric(t: DKNat) -> DKGeometric:
    """Completed labels, read as points of the box.  A valid tree gives a
    valid point set, so only the tree is checked."""
    completed = complete_labels(t)
    return DKGeometric(t.shape.d, t.shape.k, completed[0], frozenset(completed))


def geometric_to_dknat(g: DKGeometric) -> DKNat:
    """Rebuild the labelled tree: each non-root point hangs from the next
    point of the chain of its cone's direction.  A valid set gives a valid
    tree, so only the set is checked."""
    bad, chains = _checked_chains(g)
    if bad:
        raise ValueError("; ".join(bad))
    d, k = g.d, g.k
    root = tuple(g.box)
    # in a valid set the consecutive points of the chains are the edges;
    # the directions come in order, so the children come out sorted
    children: dict[tuple[int, ...], list] = {p: [] for p in g.points}
    for pi, groups in chains:
        for group in groups:
            for p, q in zip(group, group[1:]):
                children[q].append((pi, p))
    # the points in preorder, each with the direction it hangs by
    order, stack = [], [(None, root)]
    while stack:
        pi, point = stack.pop()
        order.append((pi, point))
        stack += reversed(children[point])
    built: dict[tuple[int, ...], DKTree] = {}
    for _, point in reversed(order):
        built[point] = DKTree(d, k, tuple(
            (pi, built[q]) for pi, q in children[point]))
    return DKNat(built[root], tuple(
        tuple([v if i in pi else None for i, v in enumerate(q, 1)])
        for pi, q in order[1:]))


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
    return [DKNat(shape, labels) for labels in _labellings(_dk_preorder(shape))]


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
