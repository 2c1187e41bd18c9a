"""Permutations, words, their statistics, and 2-coloured cycles.

Permutations are 1-based tuples in one-line notation: ``sigma[i - 1]`` is the
image of ``i``.  Two-coloured cycles live on the alphabet
``{r1..ri} | {b1..bj}`` with symbols encoded as ``("r", m)`` / ``("b", m)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Permutation",
    "Symbol",
    "TwoColouredCycle",
    "inv",
    "imaj",
    "descents",
    "inverse",
    "std",
    "excedance_profile",
    "cycles",
    "validate_2cbd",
    "blue_blocks",
]

Permutation = tuple[int, ...]
Symbol = tuple[str, int]  # ("r", m) or ("b", m)


def inv(sigma: Permutation) -> int:
    """Number of inversions #{i < j : sigma(i) > sigma(j)}."""
    n = len(sigma)
    return sum(1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j])


def descents(sigma: Permutation) -> list[int]:
    """Positions i with sigma(i) > sigma(i+1), 1-based."""
    return [i + 1 for i in range(len(sigma) - 1) if sigma[i] > sigma[i + 1]]


def inverse(sigma: Permutation) -> Permutation:
    out = [0] * len(sigma)
    for i, v in enumerate(sigma, start=1):
        out[v - 1] = i
    return tuple(out)


def imaj(sigma: Permutation) -> int:
    """Inverse major index: sum of the descent positions of sigma^-1."""
    return sum(descents(inverse(sigma)))


def std(word: tuple[int, ...] | list[int]) -> Permutation:
    """Standardization: the permutation order-isomorphic to ``word``."""
    if len(set(word)) != len(word):
        raise ValueError(f"repeated letter in {word}")
    order = {v: i + 1 for i, v in enumerate(sorted(word))}
    return tuple(order[v] for v in word)


def excedance_profile(sigma: Permutation) -> set[int]:
    """{i : sigma(i) > i}."""
    return {i for i, v in enumerate(sigma, start=1) if v > i}


def cycles(sigma: Permutation) -> list[tuple[int, ...]]:
    """Cycle decomposition; each cycle starts at its smallest element,
    cycles sorted by smallest element."""
    seen: set[int] = set()
    out = []
    for start in range(1, len(sigma) + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        v = sigma[start - 1]
        while v != start:
            cyc.append(v)
            seen.add(v)
            v = sigma[v - 1]
        out.append(tuple(cyc))
    return out


# --------------------------------------------------------------------------
# 2-coloured block decreasing cycles
# --------------------------------------------------------------------------

# the words ``__str__`` writes, and their symbols
_WORD_RE = re.compile(r"\(\s*([rb][0-9]+(\s+[rb][0-9]+)*)?\s*\)")
_SYMBOL_RE = re.compile(r"([rb])(\d+)")


@dataclass(frozen=True)
class TwoColouredCycle:
    """A cyclic word over {r1..ri} | {b1..bj}, each symbol exactly once.

    The stored tuple is the canonical representative: it starts at the
    largest blue symbol (largest red when j = 0).
    """

    i: int
    j: int
    word: tuple[Symbol, ...]

    def __post_init__(self) -> None:
        expected = {("r", m) for m in range(1, self.i + 1)}
        expected |= {("b", m) for m in range(1, self.j + 1)}
        if set(self.word) != expected or len(self.word) != self.i + self.j:
            raise ValueError("cycle must use each symbol exactly once")
        object.__setattr__(self, "word", _rotate_canonical(self.word, self.j))

    def __str__(self) -> str:
        return "(" + " ".join(f"{c}{m}" for c, m in self.word) + ")"

    @classmethod
    def parse(cls, text: str, i: int, j: int) -> "TwoColouredCycle":
        if not isinstance(text, str) or not _WORD_RE.fullmatch(text):
            raise ValueError(f"bad cycle word {text!r}")
        symbols = [(c, int(m)) for c, m in _SYMBOL_RE.findall(text)]
        return cls(i, j, tuple(symbols))


def _rotate_canonical(word: tuple[Symbol, ...], j: int) -> tuple[Symbol, ...]:
    start = ("b", j) if j > 0 else ("r", max(m for _, m in word))
    idx = word.index(start)
    return word[idx:] + word[:idx]


def validate_2cbd(c: TwoColouredCycle) -> list[str]:
    """Violations of the block-decreasing condition (empty list when ok)."""
    violations = []
    n = len(c.word)
    for idx, (colour, m) in enumerate(c.word):
        colour2, m2 = c.word[(idx + 1) % n]
        if colour == colour2 and m <= m2:
            violations.append(f"{colour}{m} followed by {colour2}{m2}")
    return violations


def blue_blocks(c: TwoColouredCycle) -> int:
    """Number of maximal cyclic runs of blue symbols."""
    if c.j == 0:
        return 0
    if c.i == 0:
        return 1
    n = len(c.word)
    return sum(
        1
        for idx, (colour, _) in enumerate(c.word)
        if colour == "b" and c.word[idx - 1 if idx else n - 1][0] == "r"
    )
