"""Higher-dimensional labelled trees and their boxed point sets."""

import itertools
from math import prod

import pytest

from natlib.natdk import (
    DKGeometric,
    DKNat,
    DeskScaleError,
    complete_labels,
    dknat_to_geometric,
    enumerate_dknats_of_shape,
    geometric_size,
    geometric_to_dknat,
    validate_dkgeometric,
    validate_dknat,
)
from natlib.trees import DKTree, dk_vertices, enumerate_dk_trees


def naive_labellings(shape: DKTree):
    """All valid labellings by filtering every placement, as an oracle."""
    d = shape.d
    w = geometric_size(shape)
    paths = [p for p in dk_vertices(shape) if p]
    # choose, per coordinate, an assignment of 1..w_i-1 to the vertices
    # whose direction contains i
    per_coord = []
    for i in range(1, d + 1):
        holders = [p for p in paths if i in p[-1]]
        pool = list(range(1, w[i - 1]))
        per_coord.append([
            dict(zip(holders, perm))
            for perm in itertools.permutations(pool, len(holders))
        ])
    for combo in itertools.product(*per_coord):
        labels = {}
        for p in paths:
            labels[p] = tuple(
                combo[i - 1].get(p) for i in range(1, d + 1)
            )
        t = DKNat.from_labels(shape, labels)
        if validate_dknat(t) == []:
            yield t


class TestGeometricSize:
    def test_single_vertex(self):
        t = DKTree(3, 2, ())
        assert geometric_size(t) == (1, 1, 1)

    def test_counts_direction_members(self):
        child = DKTree(3, 2, ())
        t = DKTree(3, 2, (((1, 2), child), ((2, 3), child)))
        assert geometric_size(t) == (2, 3, 2)


class TestValidation:
    def test_single_vertex_is_valid(self):
        t = DKNat.from_labels(DKTree(3, 1, ()), {})
        assert validate_dknat(t) == []

    def test_wrong_direction_label(self):
        shape = DKTree(3, 1, (((1,), DKTree(3, 1, ())),))
        bad = DKNat.from_labels(shape, {((1,),): (None, 1, None)})
        assert any("condition 1" in v for v in validate_dknat(bad))
        good = DKNat.from_labels(shape, {((1,),): (1, None, None)})
        assert validate_dknat(good) == []

    @pytest.mark.parametrize("label", [5, None, "12", [1, None]])
    def test_a_label_that_is_no_tuple_breaks_condition_1(self, label):
        t = DKNat(DKTree(2, 1, (((1,), DKTree(2, 1)),)), (label,))
        assert validate_dknat(t) == [
            f"condition 1: label {label} at ((1,),) is not a 2-tuple"]
        with pytest.raises(ValueError, match="is not a 2-tuple"):
            complete_labels(t)

    def test_ancestor_decrease(self):
        inner = DKTree(2, 1, (((1,), DKTree(2, 1, ())),))
        shape = DKTree(2, 1, (((1,), inner),))
        increasing = DKNat.from_labels(shape, {
            ((1,),): (1, None), ((1,), (1,)): (2, None),
        })
        assert any("condition" in v for v in validate_dknat(increasing))
        decreasing = DKNat.from_labels(shape, {
            ((1,),): (2, None), ((1,), (1,)): (1, None),
        })
        assert validate_dknat(decreasing) == []

    @pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2), (3, 3)])
    def test_enumeration_matches_naive_filter(self, d, k):
        for n in range(1, 4):
            for shape in enumerate_dk_trees(d, k, n):
                if not isinstance(shape, DKTree):
                    continue
                enumerated = set(enumerate_dknats_of_shape(shape))
                oracle = set(naive_labellings(shape))
                assert enumerated == oracle
                for t in enumerated:
                    assert validate_dknat(t) == []

    def test_desk_guard_on_dimension(self):
        t = DKNat.from_labels(DKTree(7, 1, ()), {})
        with pytest.raises(DeskScaleError):
            validate_dknat(t)


class TestCompleteLabels:
    def test_root_gets_box_corner(self):
        shape = DKTree(3, 2, (((1, 2), DKTree(3, 2, ())),))
        t = DKNat.from_labels(shape, {((1, 2),): (1, 1, None)})
        completed = complete_labels(t)
        assert completed[0] == (2, 2, 1)
        # the placeholder coordinate is inherited from the parent
        assert completed[1] == (1, 1, 1)


class TestGeometricForm:
    @pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2), (3, 3)])
    def test_roundtrip(self, d, k):
        for n in range(1, 4):
            for shape in enumerate_dk_trees(d, k, n):
                if not isinstance(shape, DKTree):
                    continue
                for t in enumerate_dknats_of_shape(shape):
                    g = dknat_to_geometric(t)
                    assert validate_dkgeometric(g) == []
                    assert geometric_to_dknat(g) == t

    def test_point_count(self):
        shape = DKTree(3, 2, (((1, 3), DKTree(3, 2, ())),))
        for t in enumerate_dknats_of_shape(shape):
            g = dknat_to_geometric(t)
            assert len(g.points) == 2

    def test_rejects_missing_root(self):
        g = DKGeometric(2, 1, (2, 1), frozenset({(1, 1)}))
        assert any("condition 2" in v for v in validate_dkgeometric(g))

    def test_rejects_out_of_box(self):
        g = DKGeometric(2, 1, (1, 1), frozenset({(1, 1), (2, 1)}))
        assert any("condition 1" in v for v in validate_dkgeometric(g))

    @pytest.mark.parametrize("box", [(2,), (2, 2, 2)])
    def test_rejects_a_box_of_the_wrong_length(self, box):
        g = DKGeometric(2, 1, box, frozenset({box, (1, 1)}))
        assert validate_dkgeometric(g) == [f"condition 1: box {box} is not a 2-tuple"]
        with pytest.raises(ValueError, match="is not a 2-tuple"):
            geometric_to_dknat(g)

    def test_rejects_points_of_the_wrong_length(self):
        g = DKGeometric(2, 1, (2, 2), frozenset({(2, 2), (1,), (1, 1, 1), (3, 1)}))
        assert sorted(validate_dkgeometric(g)) == [
            "condition 1: point (1, 1, 1) is not a 2-tuple",
            "condition 1: point (1,) is not a 2-tuple",
        ]
        g = DKGeometric(3, 1, (2, 2), frozenset({(2, 2)}))
        assert validate_dkgeometric(g) == ["condition 1: box (2, 2) is not a 3-tuple"]

    @pytest.mark.parametrize("d,k", [(2, 0), (2, 3), (0, 0)])
    def test_rejects_invalid_dimensions(self, d, k):
        g = DKGeometric(d, k, (1,) * d, frozenset({(1,) * d}))
        with pytest.raises(ValueError, match="invalid dimension"):
            validate_dkgeometric(g)

    def test_21_matches_grid_form(self):
        # for (2,1), the boxed form is the mirrored version of the planar
        # grid of ordinary labelled trees: counts must agree per size
        from natlib.nat_core import enumerate_nats_by_size

        shapes = enumerate_dk_trees(2, 1, 3)
        total = sum(
            len(enumerate_dknats_of_shape(s))
            for s in shapes if isinstance(s, DKTree)
        )
        by_size = sum(
            len(enumerate_nats_by_size(i, j))
            for i in range(1, 5) for j in range(1, 5)
            if (i - 1) + (j - 1) == 2
        )
        assert total == by_size

    def test_desk_guard_on_volume(self):
        g = DKGeometric(2, 1, (2000, 2000), frozenset({(2000, 2000)}))
        with pytest.raises(DeskScaleError):
            validate_dkgeometric(g)


class TestMapsValidateOnlyTheirInput:
    """``dknat_to_geometric`` and ``geometric_to_dknat`` check what they are
    given, not what they build.  These sweeps apply the dropped post-checks
    to every output over small inputs: each map turns valid input into
    valid output."""

    @pytest.mark.parametrize("d,k,cells", [(2, 1, 12), (3, 1, 9), (3, 2, 9), (3, 3, 9)])
    def test_every_valid_point_set_gives_a_valid_dknat(self, d, k, cells):
        valid = 0
        for box in itertools.product(range(1, cells + 1), repeat=d):
            if prod(box) > cells:
                continue
            others = [p for p in itertools.product(*(range(1, w + 1) for w in box))
                      if p != box]
            for r in range(len(others) + 1):
                for chosen in itertools.combinations(others, r):
                    g = DKGeometric(d, k, box, frozenset(chosen + (box,)))
                    if validate_dkgeometric(g) == []:
                        valid += 1
                        assert validate_dknat(geometric_to_dknat(g)) == []
        assert valid > 0

    @pytest.mark.parametrize("d,k,n", [(2, 1, 5), (3, 1, 5), (3, 2, 5), (3, 3, 5),
                                       (4, 2, 4)])
    def test_every_small_dknat_gives_a_valid_point_set(self, d, k, n):
        for m in range(1, n + 1):
            for shape in enumerate_dk_trees(d, k, m):
                for t in enumerate_dknats_of_shape(shape):
                    assert validate_dkgeometric(dknat_to_geometric(t)) == []
