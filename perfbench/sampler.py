"""Seeded random inputs: uniform binary shapes and uniform NATs of a shape.

Both samplers use only natlib's public API, passed in as ``lib`` (see
``run.load_natlib``), so they run against whichever copy of the library the
benchmark imported last.
"""

from __future__ import annotations

import random
from functools import lru_cache


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    """Number of binary shapes with ``n`` vertices."""
    if n == 0:
        return 1
    return sum(catalan(k) * catalan(n - 1 - k) for k in range(n))


def random_shape(lib, n: int, rng: random.Random):
    """A binary shape with ``n >= 1`` vertices, uniform over all C_n of them.

    The left subtree gets k vertices with probability C_k C_(n-1-k) / C_n,
    then both subtrees are drawn the same way.
    """
    if n < 1:
        raise ValueError("a shape needs at least one vertex")

    def draw(m: int):
        if m == 0:
            return None
        r = rng.randrange(catalan(m))
        for k in range(m):
            weight = catalan(k) * catalan(m - 1 - k)
            if r < weight:
                return lib.trees.Node(draw(k), draw(m - 1 - k))
            r -= weight
        raise AssertionError("catalan weights do not sum to C_m")

    return draw(n)


def random_nat(lib, shape, rng: random.Random):
    """A NAT of the given non-empty shape, uniform over all of them.

    The count factorises as C(lv, lv_r) C(rv, rv_l) n_l n_r (the recursion of
    ``nat_core._enumerate_shape``), so drawing both label subsets uniformly
    and both standardized sub-NATs uniformly gives a uniform NAT (the
    recursive method of Nijenhuis & Wilf).  ``nat_core.merge`` assembles it.
    """
    trees = lib.trees
    if shape.left is None and shape.right is None:
        return lib.nat_core.SINGLE_NODE_NAT
    nat_l = trees.EMPTY_LEFT if shape.left is None else random_nat(lib, shape.left, rng)
    nat_r = trees.EMPTY_RIGHT if shape.right is None else random_nat(lib, shape.right, rng)
    # a sub-NAT carries one label per left / right child of its shape
    lv_l, rv_l = _label_counts(lib, nat_l)
    lv_r, rv_r = _label_counts(lib, nat_r)
    lv_total = lv_l + lv_r + (shape.left is not None)
    rv_total = rv_l + rv_r + (shape.right is not None)
    left_subset = tuple(sorted(rng.sample(range(1, lv_total + 1), lv_r)))
    right_subset = tuple(sorted(rng.sample(range(1, rv_total + 1), rv_l)))
    return lib.nat_core.merge(shape, nat_l, nat_r, left_subset, right_subset)


def _label_counts(lib, nat) -> tuple[int, int]:
    """(|LV|, |RV|) of a sub-NAT; 0 for the empty trees."""
    if isinstance(nat, lib.trees.Empty):
        return 0, 0
    return len(nat.left_items), len(nat.right_items)
