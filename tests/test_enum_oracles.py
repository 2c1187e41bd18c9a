"""The enumerators against the per-tree code they replaced.

``_enumerate_shape`` reads one structural fold per shape and moves each
sub-NAT's labels once per label split; ``enumerate_nats_by_size`` walks a
cached class of shapes; ``enumerate_dknats_of_shape`` folds and guards once;
``nat_stats`` counts hooks without building the hook partition;
``enumerate_dk_trees`` builds children tuples direction by direction.  The
code below is what they did before, kept as reference oracles: every list
must be exactly equal, in order.
"""

import itertools
import random

import pytest
from nat_sampler import random_nats, random_shape

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
    branch_stats,
    directions,
    dk_subtree_counts,
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
