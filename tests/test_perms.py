"""Permutation statistics and two-coloured cyclic words."""

import itertools

import pytest
from hypothesis import given, strategies as st

from natlib.perms import (
    TwoColouredCycle,
    blue_blocks,
    cycles,
    descents,
    excedance_profile,
    imaj,
    inv,
    inverse,
    std,
    validate_2cbd,
)

perm_strategy = st.permutations(list(range(1, 8))).map(tuple)


def check_permutation(sigma) -> None:
    if sorted(sigma) != list(range(1, len(sigma) + 1)):
        raise ValueError(f"not a permutation of 1..{len(sigma)}: {sigma}")


class TestStatistics:
    def test_examples(self):
        assert inv((1, 2, 3)) == 0
        assert inv((3, 2, 1)) == 3
        assert descents((2, 1, 3)) == [1]
        assert imaj((2, 1, 3)) == sum(descents(inverse((2, 1, 3))))

    @given(perm_strategy)
    def test_inv_by_brute_force(self, sigma):
        naive = sum(
            1
            for a, b in itertools.combinations(range(len(sigma)), 2)
            if sigma[a] > sigma[b]
        )
        assert inv(sigma) == naive

    @given(perm_strategy)
    def test_inverse_is_involutive(self, sigma):
        assert inverse(inverse(sigma)) == sigma
        assert imaj(sigma) == sum(descents(inverse(sigma)))

    @given(perm_strategy)
    def test_inv_invariant_under_inverse(self, sigma):
        assert inv(sigma) == inv(inverse(sigma))

    def test_std(self):
        assert std((30, 10, 20)) == (3, 1, 2)
        assert std(()) == ()
        with pytest.raises(ValueError):
            std((5, 5))  # letters must be distinct

    @given(st.lists(st.integers(0, 50), max_size=8, unique=True))
    def test_std_is_a_permutation_preserving_order(self, word):
        sigma = std(word)
        check_permutation(sigma)
        for a, b in itertools.combinations(range(len(word)), 2):
            assert (word[a] < word[b]) == (sigma[a] < sigma[b])

    @given(perm_strategy)
    def test_excedances_by_definition(self, sigma):
        assert excedance_profile(sigma) == {
            u for u in range(1, len(sigma) + 1) if sigma[u - 1] > u
        }

    @given(perm_strategy)
    def test_cycles_cover_and_apply(self, sigma):
        cyc = cycles(sigma)
        seen = [v for c in cyc for v in c]
        assert sorted(seen) == list(range(1, len(sigma) + 1))
        for c in cyc:
            assert c[0] == min(c)
            for idx, v in enumerate(c):
                assert sigma[v - 1] == c[(idx + 1) % len(c)]


class TestTwoColouredCycle:
    def test_canonical_rotation(self):
        a = TwoColouredCycle(1, 2, (("b", 2), ("r", 1), ("b", 1)))
        b = TwoColouredCycle(1, 2, (("r", 1), ("b", 1), ("b", 2)))
        assert a == b
        assert a.word[0] == ("b", 2)
        assert str(a) == "(b2 r1 b1)"

    def test_red_only_starts_at_largest_red(self):
        c = TwoColouredCycle(3, 0, (("r", 2), ("r", 3), ("r", 1)))
        assert c.word[0] == ("r", 3)

    def test_parse_roundtrip(self):
        text = "(b2 r1 b1)"
        c = TwoColouredCycle.parse(text, 1, 2)
        assert str(c) == text

    def test_rejects_bad_alphabet(self):
        with pytest.raises(ValueError):
            TwoColouredCycle(1, 1, (("b", 1),))  # r1 missing
        with pytest.raises(ValueError):
            TwoColouredCycle(1, 1, (("b", 1), ("b", 1), ("r", 1)))

    def test_validate_block_decreasing(self):
        good = TwoColouredCycle.parse("(b2 b1 r1)", 1, 2)
        assert validate_2cbd(good) == []
        bad = TwoColouredCycle.parse("(b1 b2 r1)", 1, 2)
        assert validate_2cbd(bad) != []

    def test_blue_blocks(self):
        c = TwoColouredCycle.parse("(b3 r2 b2 b1 r1)", 2, 3)
        assert blue_blocks(c) == 2
        assert blue_blocks(TwoColouredCycle.parse("(b1 r1)", 1, 1)) == 1
        assert blue_blocks(TwoColouredCycle.parse("(r1)", 1, 0)) == 0

    def test_blue_blocks_wraps_around(self):
        # b1 at the end and b3 at the start belong to the same cyclic run
        c = TwoColouredCycle.parse("(b3 b2 r1 b1)", 1, 3)
        assert blue_blocks(c) == 1
