"""The structural counts against the per-vertex walks they replaced.

Every ``Node`` and ``DKTree`` counts its subtree when it is built (``lv``,
``rv``; ``counts``, ``size``); ``lv_rv``, the hook formulas,
``geometric_size`` and the label needs of ``enumerate_dknats_of_shape``
read those counts, as do the path-keyed ``subtree_counts`` and
``dk_subtree_counts`` of ``tests/subtrees.py``.  The walks below are the
definitions those functions used before, kept as reference oracles: among
them the recursive ``dk_vertices`` and the hook formulas over the
path-keyed folds.
"""

import random
from math import factorial, prod

import pytest
from subtrees import dk_child, dk_subtree_at, dk_subtree_counts, subtree_at, subtree_counts

from natlib.formulas import dk_hook_formula, hook_formula
from natlib.natdk import geometric_size
from natlib.trees import (
    DKTree,
    Node,
    directions,
    dk_vertices,
    enumerate_binary_trees,
    enumerate_dk_trees,
    lv_rv,
    size,
    vertices,
)

# -- the replaced walks -------------------------------------------------------


def lv_rv_by_paths(t: Node) -> tuple[int, int]:
    lv = sum(1 for p in vertices(t) if p.endswith("L"))
    rv = sum(1 for p in vertices(t) if p.endswith("R"))
    return lv, rv


def subtree_counts_by_paths(t: Node) -> dict[str, tuple[int, int]]:
    paths = vertices(t)
    return {
        u: (sum(1 for p in paths if p.startswith(u) and p.endswith("L")),
            sum(1 for p in paths if p.startswith(u) and p.endswith("R")))
        for u in paths
    }


def dk_vertices_recursive(t: DKTree) -> list:
    out = [()]
    for pi, child in t.children:
        out.extend((pi,) + p for p in dk_vertices_recursive(child))
    return out


def hook_by_path_fold(t: Node) -> int:
    denom = prod(er if path.endswith("R") else el
                 for path, (el, er) in subtree_counts(t).items() if path)
    return factorial(t.lv) * factorial(t.rv) // denom


def dk_hook_by_path_fold(shape: DKTree) -> int:
    num = prod(factorial(e) for e in shape.counts)
    denom = prod(e[i - 1] for path, e in dk_subtree_counts(shape).items()
                 if path for i in path[-1])
    return num // denom


def coordinate_need(sub_paths, i: int) -> int:
    """Non-root vertices of a subtree, given by its ``dk_vertices``, whose
    direction contains i."""
    return sum(1 for p in sub_paths if p and i in p[-1])


def label_need(shape: DKTree, path) -> tuple[int, ...]:
    """Labels per coordinate that the subtree at ``path`` consumes, the
    vertex at ``path`` included: coordinate_need plus its own direction."""
    own = path[-1] if path else ()
    sub_paths = dk_vertices(dk_subtree_at(shape, path))
    return tuple(coordinate_need(sub_paths, i) + int(i in own)
                 for i in range(1, shape.d + 1))


def geometric_size_by_paths(shape: DKTree) -> tuple[int, ...]:
    w = [1] * shape.d
    for path in dk_vertices(shape):
        if path:
            for i in path[-1]:
                w[i - 1] += 1
    return tuple(w)


def dk_hook_by_subtree_walks(shape: DKTree) -> int:
    """The quadratic form: re-walks the subtree of every vertex."""
    num = prod(factorial(wi - 1) for wi in geometric_size_by_paths(shape))
    denom = 1
    for path in dk_vertices(shape):
        if not path:
            continue
        sub_paths = dk_vertices(dk_subtree_at(shape, path))
        for i in path[-1]:
            denom *= 1 + coordinate_need(sub_paths, i)
    assert num % denom == 0
    return num // denom


# -- shapes -------------------------------------------------------------------


def random_dk_shape(d: int, k: int, n: int, rng: random.Random) -> DKTree:
    """A shape with n vertices, each hung on a free slot chosen at random."""
    dirs = directions(d, k)
    kids: list[dict] = [{}]
    for v in range(1, n):
        u, pi = rng.choice([(u, pi) for u in range(v) for pi in dirs
                            if pi not in kids[u]])
        kids[u][pi] = v
        kids.append({})

    def build(u: int) -> DKTree:
        return DKTree(d, k, tuple((pi, build(c))
                                  for pi, c in sorted(kids[u].items())))

    return build(0)


def to_binary(t: DKTree) -> Node:
    """A (2,1)-shape as a binary tree: direction (1,) is the left child."""
    left, right = dk_child(t, (1,)), dk_child(t, (2,))
    return Node(to_binary(left) if left is not None else None,
                to_binary(right) if right is not None else None)


def check_dk_folds(shape: DKTree) -> None:
    assert dk_vertices(shape) == dk_vertices_recursive(shape)
    assert dk_hook_formula(shape) == dk_hook_by_path_fold(shape)
    counts = dk_subtree_counts(shape)
    assert set(counts) == set(dk_vertices(shape))
    for path, e in counts.items():
        assert e == label_need(shape, path), path
        # the vertex's own counts leave out its own direction
        node, own = dk_subtree_at(shape, path), path[-1] if path else ()
        assert node.counts == tuple(c - (i in own) for i, c in enumerate(e, 1))
        assert node.size == sum(1 for p in counts if p[:len(path)] == path)
    assert geometric_size(shape) == geometric_size_by_paths(shape)
    assert dk_hook_formula(shape) == dk_hook_by_subtree_walks(shape)


def check_binary_folds(t: Node) -> None:
    assert subtree_counts(t) == subtree_counts_by_paths(t)
    assert hook_formula(t) == hook_by_path_fold(t)
    assert lv_rv(t) == lv_rv_by_paths(t)
    for path in vertices(t):
        node = subtree_at(t, path)
        assert (node.lv, node.rv) == lv_rv_by_paths(node), path
        assert size(node) == len(vertices(node)), path


# -- tests --------------------------------------------------------------------


@pytest.mark.parametrize("d,k", [(3, 1), (3, 2), (4, 2)])
@pytest.mark.parametrize("n", range(1, 7))
def test_dk_folds_on_every_small_shape(d, k, n):
    for shape in enumerate_dk_trees(d, k, n):
        check_dk_folds(shape)


@pytest.mark.parametrize("n", range(1, 9))
def test_binary_folds_on_every_small_shape(n):
    for t in enumerate_binary_trees(n):
        check_binary_folds(t)


@pytest.mark.parametrize("seed", range(4))
def test_folds_on_random_binary_shapes(seed):
    # 4 x 60 shapes of 30 to 60 vertices, beyond the exhaustive sizes
    rng = random.Random(seed)
    for _ in range(60):
        shape = random_dk_shape(2, 1, rng.randint(30, 60), rng)
        check_dk_folds(shape)
        t = to_binary(shape)
        check_binary_folds(t)
        assert hook_formula(t) == dk_hook_formula(shape)


@pytest.mark.parametrize("d,k", [(3, 1), (3, 2), (4, 2)])
def test_dk_folds_on_random_shapes(d, k):
    rng = random.Random(d * 10 + k)
    for _ in range(20):
        check_dk_folds(random_dk_shape(d, k, rng.randint(30, 60), rng))



def alternating_chain(n: int) -> DKTree:
    """A (2,1) chain of n vertices whose directions alternate (2,), (1,) from
    the deepest edge up."""
    t = DKTree(2, 1)
    for v in range(n - 1):
        t = DKTree(2, 1, ((((1,), (2,))[v % 2 == 0], t),))
    return t


class TestDeepChains:
    def test_dk_vertices_of_a_1500_deep_chain(self):
        t = alternating_chain(1500)
        with pytest.raises(RecursionError):
            dk_vertices_recursive(t)
        paths, path, node = [], (), t
        while True:
            paths.append(path)
            if not node.children:
                break
            (pi, node), = node.children
            path += (pi,)
        assert dk_vertices(t) == paths

    @pytest.mark.parametrize("n", [1500, 5000])
    def test_hook_formulas_of_deep_caterpillars(self, n):
        # a spine of n + 1 vertices in direction (1,), each spine vertex with
        # a leaf in direction (2,): its NATs number n!
        t, b = DKTree(2, 1), Node()
        for _ in range(n):
            t = DKTree(2, 1, (((1,), t), ((2,), DKTree(2, 1))))
            b = Node(b, Node())
        want = dk_hook_by_path_fold(t)
        assert want == factorial(n)
        assert dk_hook_formula(t) == want == hook_formula(b) == hook_by_path_fold(b)
