"""Seeded samplers: uniform binary shapes and NATs of a given shape, and
(d,k)-NATs.

Used by the tests to check the maps on trees beyond the exhaustive sizes.
"""

import random
from functools import lru_cache

from natlib.nat_core import SINGLE_NODE_NAT, Nat, merge
from natlib.natdk import DKNat
from natlib.trees import EMPTY_LEFT, EMPTY_RIGHT, DKTree, Node, directions, lv_rv


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    """Number of binary shapes with n vertices."""
    return 1 if n == 0 else sum(catalan(k) * catalan(n - 1 - k)
                                for k in range(n))


def random_shape(n: int, rng: random.Random) -> Node | None:
    """A shape with n vertices (None for n = 0), uniform over all C_n.

    The left subtree has k vertices with probability C_k C_(n-1-k) / C_n,
    then both subtrees are drawn the same way.
    """
    if n == 0:
        return None
    r = rng.randrange(catalan(n))
    for k in range(n):
        weight = catalan(k) * catalan(n - 1 - k)
        if r < weight:
            return Node(random_shape(k, rng), random_shape(n - 1 - k, rng))
        r -= weight
    raise ArithmeticError("the Catalan weights do not sum to C_n")


def random_nat(shape: Node, rng: random.Random) -> Nat:
    """A NAT of the given shape, uniform over all of them.

    The NATs of a shape number C(lv, lv_r) C(rv, rv_l) n_l n_r, where lv_r
    counts the left children in the right subtree, rv_l the right children
    in the left subtree and n_l, n_r the NATs of the two subtrees.  So two
    uniform label subsets and two uniform sub-NATs, put together by
    ``merge``, give a uniform NAT (the recursive method of Nijenhuis & Wilf,
    *Combinatorial Algorithms*, 1978).
    """
    if shape.left is None and shape.right is None:
        return SINGLE_NODE_NAT
    lv, rv = lv_rv(shape)
    lv_r = 0 if shape.right is None else lv_rv(shape.right)[0]
    rv_l = 0 if shape.left is None else lv_rv(shape.left)[1]
    nat_l = EMPTY_LEFT if shape.left is None else random_nat(shape.left, rng)
    nat_r = EMPTY_RIGHT if shape.right is None else random_nat(shape.right, rng)
    left_subset = tuple(sorted(rng.sample(range(1, lv + 1), lv_r)))
    right_subset = tuple(sorted(rng.sample(range(1, rv + 1), rv_l)))
    return merge(shape, nat_l, nat_r, left_subset, right_subset)


def random_nats(count: int, low: int, high: int, seed: int) -> list[Nat]:
    """``count`` uniform NATs of uniform shapes with low..high vertices."""
    rng = random.Random(seed)
    return [random_nat(random_shape(rng.randint(low, high), rng), rng)
            for _ in range(count)]


def random_dknat(d: int, k: int, n: int, rng: random.Random) -> DKNat:
    """A (d,k)-NAT with n vertices, not uniform, but any one can be drawn.

    Each vertex after the root takes a free (parent, direction) slot drawn
    uniformly.  Then, on each coordinate, the labels from the largest down
    go one at a time to a carrier drawn uniformly among those whose nearest
    carrying ancestor is already labelled.
    """
    dirs = directions(d, k)
    parent, direction = [None], [()]
    slots = [(0, pi) for pi in dirs]
    for v in range(1, n):
        slot = rng.randrange(len(slots))
        slots[slot], slots[-1] = slots[-1], slots[slot]
        up, pi = slots.pop()
        parent.append(up)
        direction.append(pi)
        slots += [(v, pi) for pi in dirs]
    labels: list[list] = [[None] * d for _ in range(n)]
    for i in range(1, d + 1):
        # below[v]: the carriers whose nearest carrying ancestor is v (the
        # root standing for none); a parent comes before its children
        below: list[list[int]] = [[] for _ in range(n)]
        nearest = [0] * n
        for v in range(1, n):
            up = parent[v]
            nearest[v] = up if i in direction[up] else nearest[up]
            if i in direction[v]:
                below[nearest[v]].append(v)
        ready, label = list(below[0]), sum(i in pi for pi in direction)
        while ready:
            pick = rng.randrange(len(ready))
            ready[pick], ready[-1] = ready[-1], ready[pick]
            v = ready.pop()
            labels[v][i - 1] = label
            label -= 1
            ready += below[v]
    children: list[list] = [[] for _ in range(n)]
    for v in range(1, n):
        children[parent[v]].append(v)
    built: list = [None] * n
    for v in reversed(range(n)):
        built[v] = DKTree(d, k, tuple(sorted((direction[c], built[c])
                                             for c in children[v])))
    paths: list[tuple] = [()]
    for v in range(1, n):
        paths.append(paths[parent[v]] + (direction[v],))
    return DKNat.from_labels(built[0], {paths[v]: tuple(labels[v])
                                        for v in range(1, n)})
