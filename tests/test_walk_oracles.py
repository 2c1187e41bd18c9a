"""The walkers that keep their own stacks against the code they replaced.

``validate_dknat`` compares each vertex with the nearest ancestor carrying
each coordinate, where it compared every pair of ancestor and descendant;
``validate_dkgeometric`` and ``geometric_to_dknat`` read the chains of the
point set per direction, where they scanned every point's cone against
every other point, and ``geometric_to_dknat`` builds its tree children
first, where a nested function recursed; ``childleaf_count``,
``sigma_readings``, ``zeta`` and ``zeta_inverse`` walk with explicit
stacks.  The code below is what they did before, kept as reference
oracles.
"""

import itertools
import random
import re
from collections import Counter
from functools import lru_cache
from math import prod

import pytest
from nat_sampler import random_dknat, random_nats, random_shape

from natlib.bijections import zeta, zeta_inverse
from natlib.formulas import sigma_readings
from natlib.nat_core import enumerate_nats_of_shape
from natlib.natdk import (
    MAX_BOX_VOLUME,
    DKGeometric,
    DKNat,
    dknat_to_geometric,
    enumerate_dknats_of_shape,
    geometric_size,
    geometric_to_dknat,
    validate_dkgeometric,
    validate_dknat,
)
from natlib.trees import (
    EMPTY_LEFT,
    LEAF,
    DKTree,
    Empty,
    Node,
    OrderedTree,
    childleaf_count,
    dk_vertices,
    enumerate_binary_trees,
    enumerate_dk_trees,
    enumerate_ordered_trees,
)

# -- the replaced code ---------------------------------------------------------


def validate_dknat_pairwise(t: DKNat) -> list[str]:
    shape = t.shape
    d = shape.d
    labels = dict(t.label_items)
    w = geometric_size(shape)
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
    for path, lab in labels.items():
        for cut in range(1, len(path)):
            anc = labels[path[:cut]]
            for i in range(d):
                if lab[i] is not None and anc[i] is not None and anc[i] <= lab[i]:
                    violations.append(
                        f"condition 2: coordinate {i + 1} does not decrease"
                        f" from {path[:cut]} to {path}"
                    )
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


def _cone_directions(
    p: tuple[int, ...], points: frozenset[tuple[int, ...]], d: int, k: int
) -> list[tuple[int, ...]]:
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


def validate_dkgeometric_by_cones(g: DKGeometric) -> list[str]:
    d, k, w = g.d, g.k, g.box
    violations = []
    root = tuple(w)
    for p in g.points:
        if len(p) != d or any(not 1 <= p[i] <= w[i] for i in range(d)):
            violations.append(f"condition 1: point {p} outside the box {w}")
    if root not in g.points:
        violations.append(f"condition 2: the root {root} is missing")
        return violations
    types: dict[tuple[int, ...], tuple[int, ...]] = {}
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


def geometric_to_dknat_by_recursion(g: DKGeometric) -> DKNat:
    bad = validate_dkgeometric_by_cones(g)
    if bad:
        raise ValueError("; ".join(bad))
    d, k = g.d, g.k
    root = tuple(g.box)
    parent: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
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

    children: dict[tuple[int, ...], dict[tuple[int, ...], tuple[int, ...]]] = {
        p: {} for p in g.points
    }
    for p, (par, pi) in parent.items():
        if pi in children[par]:
            raise ValueError(f"two children of direction {pi} at {par}")
        children[par][pi] = p

    labels = {}

    def build(point, path):
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


def childleaf_count_by_recursion(t: OrderedTree) -> int:
    own = 1 if any(c.is_leaf for c in t.children) else 0
    return own + sum(childleaf_count_by_recursion(c) for c in t.children)


def zeta_by_recursion(b):
    if b is None or isinstance(b, Empty):
        return LEAF
    a_list = []
    node = b.left
    while node is not None:
        a_list.append(node.right)
        node = node.left
    c_list = []
    node = b.right
    while node is not None:
        c_list.append(node.left)
        node = node.right
    cur = OrderedTree(tuple(zeta_by_recursion(c) for c in c_list) + (LEAF,))
    for a in a_list:
        cur = OrderedTree(zeta_by_recursion(a).children + (cur,))
    return cur


def zeta_inverse_by_recursion(t):
    if t.is_leaf:
        return EMPTY_LEFT
    chain = []
    cur = t
    while not cur.children[-1].is_leaf:
        chain.append(cur)
        cur = cur.children[-1]

    def as_child(sub):
        return None if isinstance(sub, Empty) else sub

    right_branch = None
    for c in reversed(cur.children[:-1]):
        right_branch = Node(as_child(zeta_inverse_by_recursion(c)), right_branch)
    left_branch = None
    for n in chain:
        a = zeta_inverse_by_recursion(OrderedTree(n.children[:-1]))
        left_branch = Node(left_branch, as_child(a))
    return Node(left_branch, right_branch)


def sigma_readings_by_recursion(t):
    left, right = t.left_label, t.right_label

    def read(node: Node, path: str, first: str, labels: dict[str, int],
             side: str, out: list[int]) -> None:
        children = [(node.left, "L"), (node.right, "R")]
        if first == "R":
            children.reverse()
        for child, step in children:
            if child is not None:
                read(child, path + step, first, labels, side, out)
        if path.endswith(side):
            out.append(labels[path])

    sigma_l: list[int] = []
    sigma_r: list[int] = []
    read(t.shape, "", "L", left, "L", sigma_l)
    read(t.shape, "", "R", right, "R", sigma_r)
    return tuple(sigma_l), tuple(sigma_r)


# -- the (d,k) walkers ---------------------------------------------------------

# the point sets and the small trees that test_natdk sweeps
POINT_SETS = [(2, 1, 12), (3, 1, 9), (3, 2, 9), (3, 3, 9)]
SMALL_DKNATS = [(2, 1, 5), (3, 1, 5), (3, 2, 5), (3, 3, 5), (4, 2, 4)]


@lru_cache(maxsize=None)
def valid_point_sets(d: int, k: int, cells: int) -> list[DKGeometric]:
    return [g for g in every_point_set(d, k, cells) if validate_dkgeometric(g) == []]


def every_point_set(d: int, k: int, cells: int):
    """Every subset of the cells of every box of at most ``cells`` cells,
    with the root and without it."""
    for box in itertools.product(range(1, cells + 1), repeat=d):
        if prod(box) <= cells:
            points = list(itertools.product(*(range(1, w + 1) for w in box)))
            for r in range(len(points) + 1):
                for chosen in itertools.combinations(points, r):
                    yield DKGeometric(d, k, box, frozenset(chosen))


# the boxes on which the chains are compared with the cone scan: those of
# POINT_SETS and boxes of three more (d, k)
COMPARED_BOXES = POINT_SETS + [(2, 2, 10), (4, 1, 8), (4, 2, 8)]
CONDITION_5 = re.compile(
    r"condition 5: points (\(.*?\)) and (\(.*?\)) are not comparable"
    r" in direction (\(.*?\))")


def assert_same_geometric_verdict(g: DKGeometric) -> None:
    """The messages of conditions 1-4 equal, in order; those of condition
    5 the same (direction, unordered pair) multiset: the sorted chain, not
    the set's iteration order, decides which point of a pair comes first."""
    got, want = validate_dkgeometric(g), validate_dkgeometric_by_cones(g)

    def split(violations):
        pairs = Counter()
        for v in violations:
            match = CONDITION_5.fullmatch(v)
            if match:
                p, q, pi = match.groups()
                pairs[pi, frozenset((p, q))] += 1
        return [v for v in violations if not CONDITION_5.fullmatch(v)], pairs

    assert split(got) == split(want)


def assert_same_verdict(t: DKNat) -> None:
    """Empty exactly when the pairwise list is; every message one of its
    messages; the messages of the other conditions equal, in order."""
    got, want = validate_dknat(t), validate_dknat_pairwise(t)
    assert (got == []) == (want == [])
    assert set(got) <= set(want)

    def others(violations):
        return [v for v in violations if not v.startswith("condition 2")]

    assert others(got) == others(want)


@pytest.mark.parametrize("d,k,cells", POINT_SETS)
def test_geometric_to_dknat_equals_the_recursive_build(d, k, cells):
    sets = valid_point_sets(d, k, cells)
    assert sets
    for g in sets:
        t = geometric_to_dknat(g)
        assert t == geometric_to_dknat_by_recursion(g)
        assert_same_verdict(t)


@pytest.mark.parametrize("d,k,cells", COMPARED_BOXES)
def test_validate_dkgeometric_equals_the_cone_scan(d, k, cells):
    for g in every_point_set(d, k, cells):
        assert_same_geometric_verdict(g)
    assert valid_point_sets(d, k, cells)


# the sizes at which random (d,k)-NATs stay within the box guard, as a rule
RANDOM_SIZES = {(3, 1): 290, (3, 2): 140, (4, 2): 60}


@pytest.mark.parametrize("d,k", RANDOM_SIZES)
def test_geometric_maps_on_random_dknats(d, k):
    """Both maps against the cone scan on random (d,k)-NATs up to the box
    guard, and the verdicts on each point set with one point taken out and
    with one point moved."""
    rng = random.Random(1300 + 10 * d + k)
    largest = invalid = 0
    top = RANDOM_SIZES[d, k]
    for n in [top] + [rng.randint(2, top) for _ in range(5)]:
        t = random_dknat(d, k, n, rng)
        w = geometric_size(t.shape)
        if prod(w) > MAX_BOX_VOLUME:
            continue
        largest = max(largest, prod(w))
        g = dknat_to_geometric(t)
        assert validate_dkgeometric(g) == validate_dkgeometric_by_cones(g) == []
        assert geometric_to_dknat(g) == geometric_to_dknat_by_recursion(g) == t
        points = sorted(g.points)
        points.remove(g.box)
        gone = rng.choice(points)
        moved = list(gone)
        i = rng.randrange(d)
        moved[i] += 1 if moved[i] < w[i] else -1
        for changed in (g.points - {gone}, g.points - {gone} | {tuple(moved)}):
            g = DKGeometric(d, k, w, changed)
            assert_same_geometric_verdict(g)
            invalid += validate_dkgeometric(g) != []
    assert largest > MAX_BOX_VOLUME // 4
    assert invalid > 0


@pytest.mark.parametrize("d,k,n", SMALL_DKNATS)
def test_validate_dknat_on_every_small_dknat(d, k, n):
    for m in range(1, n + 1):
        for shape in enumerate_dk_trees(d, k, m):
            for t in enumerate_dknats_of_shape(shape):
                assert_same_verdict(t)
                assert geometric_to_dknat_by_recursion(dknat_to_geometric(t)) == t


@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2), (3, 3)])
def test_validate_dknat_on_every_placement(d, k):
    # every placement of labels 1..w_i-1 on the carriers of coordinate i,
    # valid or not
    for n in range(1, 5):
        for shape in enumerate_dk_trees(d, k, n):
            w = geometric_size(shape)
            paths = [p for p in dk_vertices(shape) if p]
            per_coord = []
            for i in range(1, d + 1):
                holders = [p for p in paths if i in p[-1]]
                per_coord.append([dict(zip(holders, perm)) for perm in
                                  itertools.permutations(range(1, w[i - 1]), len(holders))])
            for combo in itertools.product(*per_coord):
                labels = {p: tuple(c.get(p) for c in combo) for p in paths}
                assert_same_verdict(DKNat.from_labels(shape, labels))


def chain(d: int, k: int, directions: list) -> DKTree:
    t = DKTree(d, k)
    for pi in reversed(directions):
        t = DKTree(d, k, ((pi, t),))
    return t


HAND_MADE = [
    # labels that repeat or leave the range, so conditions 3-4 fail as well
    (chain(2, 1, [(1,)] * 4), [(1, None)] * 4),
    (chain(2, 1, [(1,), (2,), (1,), (2,)]), [(1, None), (None, 1), (2, None), (None, 2)]),
    (chain(3, 1, [(1,), (2,), (1,), (3,), (1,)]),
     [(2, None, None), (None, 1, None), (3, None, None), (None, None, 1), (1, None, None)]),
    (chain(3, 2, [(1, 2), (2, 3), (1, 3)]),
     [(1, 2, None), (None, 1, 2), (2, None, 1)]),
    (chain(2, 1, [(1,)] * 3), [(3, None), (1, None), (2, None)]),
    (chain(2, 1, [(1,)] * 3), [(7, None), (9, None), (0, None)]),
    # condition 1: a label of the wrong direction or length
    (chain(2, 1, [(1,), (1,)]), [(None, 1), (1, None)]),
    (chain(2, 1, [(1,), (1,)]), [(2, None, None), (1, None)]),
]


@pytest.mark.parametrize("case", range(len(HAND_MADE)))
def test_validate_dknat_on_hand_made_violations(case):
    shape, labels = HAND_MADE[case]
    paths = [p for p in dk_vertices(shape) if p]
    t = DKNat.from_labels(shape, dict(zip(paths, labels)))
    assert validate_dknat(t) != []
    assert_same_verdict(t)


def test_validate_dknat_on_a_tree_with_branches():
    # two branches below the root: the nearest carrier above a vertex is on
    # its own branch, not on the one the preorder visited before
    leaf = DKTree(2, 1)
    branch = DKTree(2, 1, (((1,), leaf),))
    shape = DKTree(2, 1, (((1,), branch), ((2,), DKTree(2, 1, (((1,), leaf),)))))
    paths = [p for p in dk_vertices(shape) if p]
    for values in itertools.product(range(1, 5), repeat=3):
        for second in range(1, 3):
            labels = dict(zip(paths, [(values[0], None), (values[1], None),
                                      (None, second), (values[2], None)]))
            assert_same_verdict(DKNat.from_labels(shape, labels))


# -- the binary walkers ----------------------------------------------------------


@pytest.mark.parametrize("n", range(0, 9))
def test_childleaf_count_equals_the_recursion(n):
    for t in enumerate_ordered_trees(n):
        assert childleaf_count(t) == childleaf_count_by_recursion(t)


def test_childleaf_count_on_sampled_shapes():
    rng = random.Random(11)
    for _ in range(200):
        t = zeta(random_shape(rng.randint(20, 60), rng))
        assert childleaf_count(t) == childleaf_count_by_recursion(t)


@pytest.mark.parametrize("n", range(0, 9))
def test_zeta_pair_equals_the_recursion(n):
    for b in enumerate_binary_trees(n):
        t = zeta(b)
        assert t is zeta_by_recursion(b)
        assert zeta_inverse(t) is zeta_inverse_by_recursion(t)
    for t in enumerate_ordered_trees(n):
        assert zeta_inverse(t) is zeta_inverse_by_recursion(t)
        assert zeta(zeta_inverse(t)) is t


def test_zeta_pair_on_sampled_shapes():
    rng = random.Random(12)
    for _ in range(200):
        b = random_shape(rng.randint(20, 120), rng)
        t = zeta(b)
        assert t is zeta_by_recursion(b)
        assert zeta_inverse(t) is zeta_inverse_by_recursion(t) is b


@pytest.mark.parametrize("n", range(1, 9))
def test_sigma_readings_equal_the_recursion(n):
    for shape in enumerate_binary_trees(n):
        for t in enumerate_nats_of_shape(shape):
            assert sigma_readings(t) == sigma_readings_by_recursion(t)


def test_sigma_readings_on_sampled_nats():
    for t in random_nats(240, 30, 60, seed=7):
        assert sigma_readings(t) == sigma_readings_by_recursion(t)
