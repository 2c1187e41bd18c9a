"""The enumerators against the per-tree code they replaced.

``_enumerate_shapes`` and ``_labellings`` build every distinct sub-shape's
NATs once, in one children-first pass; ``enumerate_nats_by_size`` walks a
cached class of shapes; ``enumerate_dknats_of_shape`` folds and guards once;
``nat_stats`` reads the hook count the shape carries; ``enumerate_dk_trees``
builds children tuples direction by direction.  The code below is what they
did before, kept as reference oracles, the recursive enumerators verbatim:
every list must be exactly equal, in order.
"""

import itertools
import random

import pytest
from nat_sampler import random_nats, random_shape
from subtrees import dk_subtree_counts

from natlib.formulas import hook_formula
from natlib.nat_core import (
    SINGLE_NODE_NAT,
    Nat,
    NatStats,
    count_by_recursion,
    enumerate_nats_by_size,
    enumerate_nats_of_shape,
    merge,
    nat_stats,
)
from natlib.natdk import DKNat, enumerate_dknats_of_shape, geometric_size
from natlib.trees import (
    EMPTY_LEFT,
    EMPTY_RIGHT,
    DKTree,
    Empty,
    Node,
    _shape_class,
    branch_stats,
    directions,
    enumerate_binary_trees,
    enumerate_dk_trees,
    hook_partition,
    lv_rv,
)

# -- the replaced code ---------------------------------------------------------


def dk_trees_by_placement(d: int, k: int, n: int) -> list[DKTree]:
    """The shapes with n >= 1 vertices: m - 1 vertices of a size-m shape
    are placed over the directions in order, each subtree recursively."""
    dirs = directions(d, k)

    def shapes(m: int) -> list[DKTree | None]:
        if m == 0:
            return [None]
        out: list[DKTree] = []

        def place(idx: int, remaining: int, acc: tuple) -> None:
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

    return shapes(n)


def merge_by_dicts(shape, nat_l, nat_r, left_subset, right_subset) -> Nat:
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


def enumerate_shape_by_merge(shape: Node) -> list[Nat]:
    if shape.left is None and shape.right is None:
        return [SINGLE_NODE_NAT]
    lv_total, rv_total = lv_rv(shape)
    sub_l = enumerate_shape_by_merge(shape.left) if shape.left is not None else [EMPTY_LEFT]
    sub_r = enumerate_shape_by_merge(shape.right) if shape.right is not None else [EMPTY_RIGHT]
    lv_r = 0 if shape.right is None else lv_rv(shape.right)[0]
    rv_l = 0 if shape.left is None else lv_rv(shape.left)[1]
    out = []
    for nat_l in sub_l:
        for nat_r in sub_r:
            for left_subset in itertools.combinations(range(1, lv_total + 1), lv_r):
                for right_subset in itertools.combinations(range(1, rv_total + 1), rv_l):
                    out.append(merge_by_dicts(shape, nat_l, nat_r,
                                              left_subset, right_subset))
    return out


def nats_by_size_by_filter(w_l: int, w_r: int) -> list[Nat]:
    out = []
    for shape in enumerate_binary_trees(w_l + w_r - 1):
        if lv_rv(shape) == (w_l - 1, w_r - 1):
            out.extend(enumerate_shape_by_merge(shape))
    return out


def dknats_by_dicts(shape) -> list[DKNat]:
    w = geometric_size(shape)
    d = shape.d
    subtrees = shape.children
    counts = dk_subtree_counts(shape)
    needs = [counts[(pi,)] for pi, _ in subtrees]

    def splits(pool, sizes):
        if not sizes:
            yield ()
            return
        first, rest = sizes[0], sizes[1:]
        for chosen in itertools.combinations(pool, first):
            remaining = [v for v in pool if v not in chosen]
            for tail in splits(remaining, rest):
                yield (tuple(sorted(chosen)),) + tail

    per_coordinate = []
    for i in range(1, d + 1):
        pool = list(range(1, w[i - 1]))
        per_coordinate.append(list(splits(pool, [need[i - 1] for need in needs])))
    sub_nats = [dknats_by_dicts(sub) for _, sub in subtrees]
    out = []
    for assignment in itertools.product(*per_coordinate):
        for combo in itertools.product(*sub_nats):
            labels = {}
            for s, ((pi, sub), nat) in enumerate(zip(subtrees, combo)):
                allot = [assignment[i - 1][s] for i in range(1, d + 1)]
                labels[(pi,)] = tuple(allot[i - 1][-1] if i in pi else None
                                      for i in range(1, d + 1))
                for path, lab in nat.label_items:
                    labels[(pi,) + path] = tuple(
                        allot[i][lab[i] - 1] if lab[i] is not None else None
                        for i in range(d)
                    )
            out.append(DKNat.from_labels(shape, labels))
    return out


def stats_by_partition(t: Nat) -> NatStats:
    lo, ro = branch_stats(t.shape)
    return NatStats(lo, ro, hook_partition(t.shape).hook_count, t.w_l, t.w_r)


# -- the recursive enumerators, as they were before the children-first pass ---


def _label_split(total: int, subset) -> tuple[list[int], list[int]]:
    """Labels 1..total as (those not in ``subset``, ``subset``), both sorted."""
    chosen = set(subset)
    return [v for v in range(1, total + 1) if v not in chosen], sorted(subset)


def _moved(prefix: str, items, labels: list[int], own: bool) -> tuple:
    """The items of a standardized sub-NAT under the root's child ``prefix``,
    label i becoming ``labels[i - 1]``.  With ``own`` that child is a vertex
    of the side being labelled and comes first, with the largest label.
    Sorted items stay sorted."""
    moved = [(prefix + path, labels[lab - 1]) for path, lab in items]
    if own:
        moved.insert(0, (prefix, labels[-1]))
    return tuple(moved)


_NO_LABELS = [((), ())]


def _enumerate_shape(shape: Node, memo: dict) -> list[tuple[tuple, tuple]]:
    """(left_items, right_items) of every NAT of ``shape``, in ``merge``
    order: left sub-NAT, right sub-NAT, left subset, right subset.

    Each sub-NAT's items are moved once per label split, and every NAT's
    items are a concatenation of four of those parts.  ``memo`` keeps the
    result of each proper subtree, keyed by the subtree itself, for the rest
    of the caller's walk.
    """
    left, right = shape.left, shape.right
    for child in (left, right):
        if child is not None and child not in memo:
            memo[child] = _enumerate_shape(child, memo)
    sub_l = _NO_LABELS if left is None else memo[left]
    sub_r = _NO_LABELS if right is None else memo[right]
    lv_r = 0 if right is None else right.lv
    rv_l = 0 if left is None else left.rv
    left_splits = [_label_split(shape.lv, subset)
                   for subset in itertools.combinations(range(1, shape.lv + 1), lv_r)]
    right_splits = [_label_split(shape.rv, subset)
                    for subset in itertools.combinations(range(1, shape.rv + 1), rv_l)]
    has_l, has_r = left is not None, right is not None
    # each sub-NAT's part of the left and of the right items, per split
    l_left = [[_moved("L", items, own, has_l) for own, _ in left_splits]
              for items, _ in sub_l]
    l_right = [[_moved("L", items, other, False) for _, other in right_splits]
               for _, items in sub_l]
    r_left = [[_moved("R", items, other, False) for _, other in left_splits]
              for items, _ in sub_r]
    r_right = [[_moved("R", items, own, has_r) for own, _ in right_splits]
               for _, items in sub_r]
    out = []
    for a_left, a_right in zip(l_left, l_right):
        for b_left, b_right in zip(r_left, r_right):
            rights = [x + y for x, y in zip(a_right, b_right)]
            out += [(x + y, z) for x, y in zip(a_left, b_left) for z in rights]
    return out


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


# -- the comparisons ----------------------------------------------------------

SIZES = [(i, total - i) for total in range(2, 10) for i in range(1, total)]


@pytest.mark.parametrize("w", SIZES, ids=lambda w: f"{w[0]}x{w[1]}")
def test_nats_by_size_equal_in_order(w):
    got = enumerate_nats_by_size(*w)
    assert got == nats_by_size_by_filter(*w)
    assert [nat_stats(t) for t in got] == [stats_by_partition(t) for t in got]


@pytest.mark.parametrize("n", range(1, 7))
def test_nats_of_shape_equal_in_order(n):
    for shape in enumerate_binary_trees(n):
        got = enumerate_nats_of_shape(shape)
        assert got == enumerate_shape_by_merge(shape)
        assert [nat_stats(t) for t in got] == [stats_by_partition(t) for t in got]


def test_nats_of_a_shape_do_not_depend_on_shared_subtrees():
    # the same shapes, built afresh, share no subtree objects
    def rebuild(node):
        return None if node is None else Node(rebuild(node.left), rebuild(node.right))

    for shape in enumerate_binary_trees(6):
        assert enumerate_nats_of_shape(rebuild(shape)) == enumerate_nats_of_shape(shape)


DK_CASES = [(3, 1, n) for n in range(1, 7)] + [
    (d, k, n) for d, k in ((3, 2), (4, 2)) for n in range(1, 5)
]


@pytest.mark.parametrize("d,k,n", DK_CASES + [(2, 1, n) for n in range(1, 8)]
                         + [(2, 2, 4), (3, 3, 4), (4, 1, 4), (5, 3, 3)])
def test_dk_shapes_equal_in_order(d, k, n):
    assert enumerate_dk_trees(d, k, n) == dk_trees_by_placement(d, k, n)


@pytest.mark.parametrize("d,k,n", DK_CASES)
def test_dknats_of_shape_equal_in_order(d, k, n):
    for shape in enumerate_dk_trees(d, k, n):
        assert enumerate_dknats_of_shape(shape) == dknats_by_dicts(shape)


@pytest.mark.parametrize("w", [(1, 8), (3, 6), (4, 5), (5, 4), (8, 1)],
                         ids=lambda w: f"{w[0]}x{w[1]}")
def test_nats_by_size_equal_the_recursive_merge(w):
    memo: dict = {}
    want = [Nat(shape, left, right) for shape in _shape_class(w[0] - 1, w[1] - 1)
            for left, right in _enumerate_shape(shape, memo)]
    assert enumerate_nats_by_size(*w) == want


@pytest.mark.parametrize("n", range(1, 9))
def test_nats_of_shape_equal_the_recursive_merge(n):
    for shape in enumerate_binary_trees(n):
        want = [Nat(shape, left, right) for left, right in _enumerate_shape(shape, {})]
        assert enumerate_nats_of_shape(shape) == want


@pytest.mark.parametrize("d,k,n", [(3, 1, 7), (2, 1, 8), (3, 2, 5)])
def test_dknats_equal_the_recursive_merge(d, k, n):
    for shape in enumerate_dk_trees(d, k, n):
        want = [DKNat.from_labels(shape, dict(items)) for items in _labellings(shape)]
        assert enumerate_dknats_of_shape(shape) == want


def test_stats_on_sampled_nats():
    nats = random_nats(240, 30, 60, seed=5)
    assert [nat_stats(t) for t in nats] == [stats_by_partition(t) for t in nats]


def test_count_by_recursion_is_the_hook_formula_on_random_shapes():
    rng = random.Random(6)
    for _ in range(240):
        shape = random_shape(rng.randint(30, 60), rng)
        assert count_by_recursion(shape) == hook_formula(shape)


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def subsets(total: int):
    return [c for r in range(total + 1)
            for c in itertools.combinations(range(1, total + 1), r)]


@pytest.mark.parametrize("n", range(1, 6))
def test_merge_equals_the_dict_merge(n):
    # every label subset, of the right size or not, and sub-NATs that fit
    # or not: merge returns the same NAT or raises the same error (the
    # mismatches pinned in test_nat_core.py among them)
    for shape in enumerate_binary_trees(n):
        lv, rv = lv_rv(shape)
        subs_l = enumerate_nats_of_shape(shape.left or EMPTY_LEFT)[:3]
        subs_r = enumerate_nats_of_shape(shape.right or EMPTY_RIGHT)[:3]
        for nat_l, nat_r in itertools.product(subs_l + [EMPTY_LEFT, SINGLE_NODE_NAT],
                                              subs_r + [EMPTY_RIGHT, SINGLE_NODE_NAT]):
            for ls, rs in itertools.product(subsets(lv), subsets(rv)):
                args = (shape, nat_l, nat_r, ls, rs)
                assert outcome(merge, *args) == outcome(merge_by_dicts, *args)
