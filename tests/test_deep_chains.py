"""Every walker on chains far deeper than Python's recursion limit.

Each case runs one library function on a chain and checks the single
result it must give, built here by hand.  A walker that recursed once per
tree level would raise ``RecursionError`` long before these depths.
"""

import sys

import pytest

from natlib.bijections import zeta, zeta_inverse
from natlib.formulas import sigma_readings
from natlib.nat_core import Nat, enumerate_nats_of_shape
from natlib.natdk import (
    DKGeometric,
    DKNat,
    dknat_to_geometric,
    enumerate_dknats_of_shape,
    geometric_to_dknat,
    validate_dknat,
)
from natlib.treedoc import dump_document, load_document
from natlib.trees import LEAF, DKTree, Node, OrderedTree, childleaf_count, directions

DEPTH = 3000


def binary_chain(steps: str) -> Node:
    """The chain whose vertices are reached from the root by ``steps``."""
    t = Node()
    for step in reversed(steps):
        t = Node(t, None) if step == "L" else Node(None, t)
    return t


def chain_nat(steps: str) -> Nat:
    """The only NAT of a chain: on each side, labels decrease downwards."""
    labels: dict[str, dict[str, int]] = {"L": {}, "R": {}}
    remaining = {side: steps.count(side) for side in "LR"}
    for depth, step in enumerate(steps, 1):
        labels[step][steps[:depth]] = remaining[step]
        remaining[step] -= 1
    return Nat.from_labels(binary_chain(steps), labels["L"], labels["R"])


ZIGZAG = "RL" * (DEPTH // 2)  # children alternate right, left, ...


def ordered_spine(depth: int, sibling: tuple) -> OrderedTree:
    """One edge under ``depth`` vertices, each with the tree below it as
    its first child and then ``sibling``."""
    t = OrderedTree((LEAF,))
    for _ in range(depth):
        t = OrderedTree((t, *sibling))
    return t


def dk_chain_steps(d: int, k: int, depth: int) -> list[tuple[int, ...]]:
    """The directions down a chain: the first one, with every hundredth
    step taking the others in turn, so that every coordinate is carried
    and the box stays within the desk guard."""
    dirs = directions(d, k)
    return [dirs[1 + h // 100 % (len(dirs) - 1)] if h % 100 == 99 else dirs[0]
            for h in range(depth)]


def dk_chain_nat(d: int, k: int, depth: int) -> DKNat:
    """The only labelling of a (d,k) chain: on each coordinate, labels
    decrease downwards."""
    steps = dk_chain_steps(d, k, depth)
    shape = DKTree(d, k)
    for pi in reversed(steps):
        shape = DKTree(d, k, ((pi, shape),))
    remaining = [sum(i in pi for pi in steps) for i in range(1, d + 1)]
    labels = []
    for pi in steps:
        labels.append(tuple(remaining[i - 1] if i in pi else None
                            for i in range(1, d + 1)))
        for i in pi:
            remaining[i - 1] -= 1
    return DKNat(shape, tuple(labels))


def dk_chain_geometric(d: int, k: int, depth: int) -> DKGeometric:
    """The point set of that labelling: each vertex takes, on every
    coordinate, the label of the nearest vertex at or above it that
    carries the coordinate (the root carries the box corner)."""
    t = dk_chain_nat(d, k, depth)
    point = tuple(1 + sum(i in pi for pi in dk_chain_steps(d, k, depth))
                  for i in range(1, d + 1))
    box = point
    points = {point}
    for _, label in t.label_items:
        point = tuple(p if v is None else v for p, v in zip(point, label))
        points.add(point)
    return DKGeometric(d, k, box, frozenset(points))


CASES = {
    "nats_of_left_chain": (lambda: enumerate_nats_of_shape(binary_chain("L" * DEPTH)),
                           lambda: [chain_nat("L" * DEPTH)]),
    "nats_of_right_chain": (lambda: enumerate_nats_of_shape(binary_chain("R" * DEPTH)),
                            lambda: [chain_nat("R" * DEPTH)]),
    "nats_of_zigzag": (lambda: enumerate_nats_of_shape(binary_chain(ZIGZAG)),
                       lambda: [chain_nat(ZIGZAG)]),
    "dknats_of_21_chain": (lambda: enumerate_dknats_of_shape(dk_chain_nat(2, 1, DEPTH).shape),
                           lambda: [dk_chain_nat(2, 1, DEPTH)]),
    "dknats_of_31_chain": (lambda: enumerate_dknats_of_shape(dk_chain_nat(3, 1, DEPTH).shape),
                           lambda: [dk_chain_nat(3, 1, DEPTH)]),
    "validate_21_chain": (lambda: validate_dknat(dk_chain_nat(2, 1, DEPTH)), lambda: []),
    "validate_31_chain": (lambda: validate_dknat(dk_chain_nat(3, 1, DEPTH)), lambda: []),
    "geometric_of_21_chain": (lambda: dknat_to_geometric(dk_chain_nat(2, 1, DEPTH)),
                              lambda: dk_chain_geometric(2, 1, DEPTH)),
    "geometric_of_31_chain": (lambda: dknat_to_geometric(dk_chain_nat(3, 1, DEPTH)),
                              lambda: dk_chain_geometric(3, 1, DEPTH)),
    "dknat_of_21_points": (lambda: geometric_to_dknat(dk_chain_geometric(2, 1, DEPTH)),
                           lambda: dk_chain_nat(2, 1, DEPTH)),
    "dknat_of_31_points": (lambda: geometric_to_dknat(dk_chain_geometric(3, 1, DEPTH)),
                           lambda: dk_chain_nat(3, 1, DEPTH)),
    "document_of_21_chain": (lambda: load_document(dump_document(dk_chain_nat(2, 1, DEPTH))),
                             lambda: dk_chain_nat(2, 1, DEPTH)),
    "document_of_31_chain": (lambda: load_document(dump_document(dk_chain_nat(3, 1, DEPTH))),
                             lambda: dk_chain_nat(3, 1, DEPTH)),
    # the whole left (right) chain is one hook
    "childleaf_of_left_chain": (lambda: childleaf_count(zeta(binary_chain("L" * DEPTH))),
                                lambda: 1),
    "childleaf_of_right_chain": (lambda: childleaf_count(zeta(binary_chain("R" * DEPTH))),
                                 lambda: 1),
    # a left chain is one hook: its image is a path; a zigzag's hooks are
    # its (right, left) steps, each hook's image its own edge and a leaf
    "zeta_of_zigzag": (lambda: zeta(binary_chain(ZIGZAG)),
                       lambda: ordered_spine(DEPTH // 2, (LEAF,))),
    "zeta_inverse_of_zigzag": (lambda: zeta_inverse(ordered_spine(DEPTH // 2, (LEAF,))),
                               lambda: binary_chain(ZIGZAG)),
    "zeta_round_trip_of_zigzag": (lambda: zeta_inverse(zeta(binary_chain(ZIGZAG))),
                                  lambda: binary_chain(ZIGZAG)),
    # both trees are alive while the set hashes them
    "hash_of_zeta_of_left_chain": (lambda: len({zeta(binary_chain("L" * DEPTH)),
                                                ordered_spine(DEPTH, ())}),
                                   lambda: 1),
    "eq_of_zeta_of_left_chain": (lambda: zeta(binary_chain("L" * DEPTH)),
                                 lambda: ordered_spine(DEPTH, ())),
    # the deepest left child is read first
    "sigma_of_left_chain": (lambda: sigma_readings(chain_nat("L" * DEPTH)),
                            lambda: (tuple(range(1, DEPTH + 1)), ())),
    "sigma_of_zigzag": (lambda: sigma_readings(chain_nat(ZIGZAG)),
                        lambda: (tuple(range(1, DEPTH // 2 + 1)),) * 2),
}


@pytest.mark.parametrize("case", CASES)
def test_deep_chain(case):
    run, expected = CASES[case]
    assert sys.getrecursionlimit() < DEPTH
    assert run() == expected()
