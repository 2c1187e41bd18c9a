"""Closed-form counting formulas and exact parameter polynomials.

``ParamPoly`` is a multivariate polynomial over exact rationals in a tuple
of parameter symbols (q, q_L, q_R, alpha, beta, z, t, ...).  All divisions in
this module are exact and checked to be so.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, prod

from .nat_core import Nat
from .perms import Permutation, imaj as _imaj, inv as _inv, std
from .trees import DKTree, Node

__all__ = [
    "ParamPoly",
    "q_factorial",
    "q_binomial",
    "rising_factorial",
    "stirling2",
    "stirling2_q",
    "hook_formula",
    "q_hook_formula",
    "sigma_readings",
    "weight",
    "count_by_size",
    "count_by_size_and_hook",
    "bsg",
    "dk_hook_formula",
]

Exponent = tuple[int, ...]


def _monomial(symbols: tuple[str, ...], expo: Exponent) -> str:
    """``a^2*b``: the symbols of non-zero exponent; empty when there are none."""
    return "*".join(s if e == 1 else f"{s}^{e}" for s, e in zip(symbols, expo) if e)


def _times(a: dict[Exponent, Fraction],
           b: dict[Exponent, Fraction]) -> dict[Exponent, Fraction]:
    """The coefficients of the product of two polynomials over one tuple of
    symbols, zeros included."""
    coeffs: dict[Exponent, Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            expo = tuple(x + y for x, y in zip(e1, e2))
            coeffs[expo] = coeffs.get(expo, Fraction(0)) + c1 * c2
    return coeffs


class ParamPoly:
    """Immutable multivariate polynomial with Fraction coefficients."""

    __slots__ = ("symbols", "coeffs")

    def __init__(self, symbols: tuple[str, ...],
                 coeffs: dict[Exponent, Fraction] | None = None):
        self.symbols = tuple(symbols)
        clean: dict[Exponent, Fraction] = {}
        for expo, c in (coeffs or {}).items():
            c = Fraction(c)
            if c:
                if len(expo) != len(self.symbols) or any(e < 0 for e in expo):
                    raise ValueError(f"bad exponent {expo} for symbols {symbols}")
                clean[tuple(expo)] = c
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value, symbols: tuple[str, ...] = ()) -> "ParamPoly":
        return ParamPoly(symbols, {(0,) * len(symbols): Fraction(value)})

    @staticmethod
    def _built(symbols: tuple[str, ...],
               coeffs: dict[Exponent, Fraction]) -> "ParamPoly":
        """The polynomial the library makes itself: ``symbols`` is a tuple,
        every exponent fits it and every coefficient is a nonzero
        ``Fraction`` the caller has made, so nothing is checked."""
        poly = object.__new__(ParamPoly)
        poly.symbols, poly.coeffs = symbols, coeffs
        return poly

    @staticmethod
    def var(symbol: str, symbols: tuple[str, ...] | None = None) -> "ParamPoly":
        symbols = symbols if symbols is not None else (symbol,)
        expo = tuple(1 if s == symbol else 0 for s in symbols)
        if symbol not in symbols:
            raise ValueError(f"{symbol} not among {symbols}")
        return ParamPoly(symbols, {expo: Fraction(1)})

    # -- helpers -----------------------------------------------------------

    def in_symbols(self, symbols: tuple[str, ...]) -> "ParamPoly":
        """Re-express over a (super)set of symbols."""
        if symbols == self.symbols:
            return self
        pos = []
        for s in self.symbols:
            if s not in symbols:
                if any(e[self.symbols.index(s)] for e in self.coeffs):
                    raise ValueError(f"cannot drop symbol {s}")
                pos.append(None)
            else:
                pos.append(symbols.index(s))
        coeffs: dict[Exponent, Fraction] = {}
        for expo, c in self.coeffs.items():
            new = [0] * len(symbols)
            for p, e in zip(pos, expo):
                if p is not None:
                    new[p] = e
            coeffs[tuple(new)] = coeffs.get(tuple(new), Fraction(0)) + c
        return ParamPoly(symbols, coeffs)

    @staticmethod
    def _aligned(a: "ParamPoly", b) -> tuple["ParamPoly", "ParamPoly"]:
        if not isinstance(b, ParamPoly):
            b = ParamPoly.constant(b)
        symbols = tuple(sorted(set(a.symbols) | set(b.symbols)))
        return a.in_symbols(symbols), b.in_symbols(symbols)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "ParamPoly":
        a, b = ParamPoly._aligned(self, other)
        coeffs = dict(a.coeffs)
        for expo, c in b.coeffs.items():
            coeffs[expo] = coeffs.get(expo, Fraction(0)) + c
        return ParamPoly(a.symbols, coeffs)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly(self.symbols, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> "ParamPoly":
        return self + (-other if isinstance(other, ParamPoly) else -Fraction(other))

    def __rsub__(self, other) -> "ParamPoly":
        return (-self) + other

    def __mul__(self, other) -> "ParamPoly":
        a, b = ParamPoly._aligned(self, other)
        return ParamPoly(a.symbols, _times(a.coeffs, b.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ParamPoly":
        if n < 0:
            raise ValueError("negative power")
        out = ParamPoly.constant(1, self.symbols)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.constant(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        a, b = ParamPoly._aligned(self, other)
        return a.coeffs == b.coeffs

    def __hash__(self) -> int:
        a = self.in_symbols(tuple(sorted(set(self.symbols))))
        return hash((a.symbols, frozenset(a.coeffs.items())))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- queries -----------------------------------------------------------

    def coefficient(self, **powers: int) -> Fraction:
        expo = tuple(powers.get(s, 0) for s in self.symbols)
        extra = set(powers) - set(self.symbols)
        if extra:
            raise KeyError(f"unknown symbols {extra}")
        return self.coeffs.get(expo, Fraction(0))

    def substitute(self, **values) -> "ParamPoly":
        """Substitute numbers (or polynomials) for some symbols, over the
        symbols kept and those of the values, wherever they occur.  Each
        power of each value is computed once, and each monomial is summed
        in from the exponents it keeps."""
        given: dict[int, ParamPoly] = {}
        names: set[str] = set()
        for p, s in enumerate(self.symbols):
            if any(e[p] for e in self.coeffs):
                if s in values:
                    v = values[s]
                    given[p] = v if isinstance(v, ParamPoly) else ParamPoly.constant(v)
                    names.update(given[p].symbols)
                else:
                    names.add(s)
        symbols = tuple(sorted(names))
        kept = [(p, symbols.index(s)) for p, s in enumerate(self.symbols)
                if s in names and p not in given]
        # powers[p][m]: the coefficients of the m-th power of the value for p
        powers = {p: [{(0,) * len(symbols): Fraction(1)}] for p in given}
        factors = {p: v.in_symbols(symbols).coeffs for p, v in given.items()}
        out: dict[Exponent, Fraction] = {}
        for expo, c in self.coeffs.items():
            start = [0] * len(symbols)
            for p, q in kept:
                start[q] = expo[p]
            term = {tuple(start): c}
            for p, row in powers.items():
                while len(row) <= expo[p]:
                    row.append(_times(row[-1], factors[p]))
                if expo[p]:
                    term = _times(term, row[expo[p]])
            for e, x in term.items():
                out[e] = out.get(e, 0) + x
        return ParamPoly(symbols, out)

    def as_fraction(self) -> Fraction:
        if any(any(expo) for expo in self.coeffs):
            raise ValueError(f"{self} is not constant")
        return self.coeffs.get((0,) * len(self.symbols), Fraction(0))

    def degree(self, symbol: str) -> int:
        idx = self.symbols.index(symbol)
        return max((e[idx] for e in self.coeffs), default=0)

    def exact_div_univariate(self, divisor: "ParamPoly", symbol: str) -> "ParamPoly":
        """Exact division by a polynomial univariate in ``symbol``."""
        a, d = ParamPoly._aligned(self, divisor)
        idx = a.symbols.index(symbol)
        if any(e[i] for e in d.coeffs for i in range(len(a.symbols)) if i != idx):
            raise ValueError(f"divisor must be univariate in {symbol}")
        div = {e[idx]: c for e, c in d.coeffs.items()}
        if not div:
            raise ZeroDivisionError("division by zero polynomial")
        deg_d = max(div)
        lead = div[deg_d]
        rem = dict(a.coeffs)
        quot: dict[Exponent, Fraction] = {}
        while rem:
            deg_r = max(e[idx] for e in rem)
            if deg_r < deg_d:
                raise ValueError("inexact polynomial division")
            for expo in [e for e in rem if e[idx] == deg_r]:
                c = rem[expo] / lead
                q_expo = expo[:idx] + (deg_r - deg_d,) + expo[idx + 1:]
                quot[q_expo] = quot.get(q_expo, Fraction(0)) + c
                for dd, dc in div.items():
                    r_expo = expo[:idx] + (deg_r - deg_d + dd,) + expo[idx + 1:]
                    new = rem.get(r_expo, Fraction(0)) - c * dc
                    if new:
                        rem[r_expo] = new
                    else:
                        rem.pop(r_expo, None)
        return ParamPoly(a.symbols, quot)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for expo in sorted(self.coeffs):
            c = self.coeffs[expo]
            mono = _monomial(self.symbols, expo)
            if mono:
                terms.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                terms.append(str(c))
        return " + ".join(terms)


# --------------------------------------------------------------------------
# q-combinatorics primitives
# --------------------------------------------------------------------------


# Univariate q-polynomials with integer coefficients are held dense, as
# lists c with c[j] the coefficient of q^j, and become ParamPoly at the end.


def _q_mul(c: list[int], m: int) -> list[int]:
    """c times [m]_q, m >= 1: each coefficient is the sum of a window of m."""
    padded = c + [0] * (m - 1)
    out, window = [], 0
    for j, v in enumerate(padded):
        window += v - (padded[j - m] if j >= m else 0)
        out.append(window)
    return out


def _q_div(c: list[int], e: int) -> list[int]:
    """c divided by [e]_q = (1 - q^e) / (1 - q), e >= 1: c times (1 - q), then
    c_j += c_(j-e) upwards divides by 1 - q^e; the remainder, the top e
    coefficients, must be zero."""
    out = [a - b for a, b in zip(c + [0], [0] + c)]
    for j in range(e, len(out)):
        out[j] += out[j - e]
    top = len(out) - e
    if top < 1 or any(out[top:]):
        raise ArithmeticError(f"[{e}]_q does not divide the polynomial")
    return out[:top]


def _q_factorial(n: int) -> list[int]:
    c = [1]
    for m in range(2, n + 1):
        c = _q_mul(c, m)
    return c


def _from_dense(c: list[int], symbol: str) -> ParamPoly:
    return ParamPoly((symbol,), {(j,): v for j, v in enumerate(c) if v})


def q_factorial(n: int, symbol: str = "q") -> ParamPoly:
    return _from_dense(_q_factorial(n), symbol)


def q_binomial(n: int, k: int, symbol: str = "q") -> ParamPoly:
    """Gaussian binomial coefficient [n-k+1]_q ... [n]_q / [k]_q!; every
    division on the way is exact."""
    if k < 0 or k > n:
        return ParamPoly.constant(0, (symbol,))
    c = [1]
    for m in range(n - k + 1, n + 1):
        c = _q_mul(c, m)
    for m in range(2, k + 1):
        c = _q_div(c, m)
    return _from_dense(c, symbol)


def rising_factorial(x: ParamPoly, n: int) -> ParamPoly:
    """x^(n) = x (x+1) ... (x+n-1)."""
    out = ParamPoly.constant(1, x.symbols)
    for m in range(n):
        out = out * (x + m)
    return out


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, by rows of
    S(m, j) = S(m-1, j-1) + j S(m-1, j) for j <= k."""
    if n == 0 and k == 0:
        return 1
    if n <= 0 or k <= 0 or k > n:
        return 0
    row = [1] + [0] * k  # S(0, 0..k)
    for m in range(1, n + 1):
        for j in range(min(m, k), 0, -1):
            row[j] = row[j - 1] + j * row[j]
        row[0] = 0
    return row[k]


def stirling2_q(n: int, k: int, symbol: str = "q") -> ParamPoly:
    """q-Stirling number: partitions of {1..n} into k blocks, q marking the
    elements other than n in the block containing n.

    Grouping partitions by the number m of those elements gives
    sum_m C(n-1, m) q^m S(n-1-m, k-1).
    """
    if n == 0 and k == 0:
        return ParamPoly.constant(1, (symbol,))
    if n <= 0 or k <= 0 or k > n:
        return ParamPoly.constant(0, (symbol,))
    coeffs = {}
    for m in range(n):
        c = comb(n - 1, m) * stirling2(n - 1 - m, k - 1)
        if c:
            coeffs[(m,)] = Fraction(c)
    return ParamPoly((symbol,), coeffs)


# --------------------------------------------------------------------------
# Hook formulas
# --------------------------------------------------------------------------


def _hooks(shape: Node) -> tuple[list[int], list[int]]:
    """EL over the left children and ER over the right children of
    ``shape``, read off each child's own counts."""
    left, right = [], []
    stack = [shape]
    while stack:
        node = stack.pop()
        if node.left is not None:
            left.append(node.left.lv + 1)
            stack.append(node.left)
        if node.right is not None:
            right.append(node.right.rv + 1)
            stack.append(node.right)
    return left, right


def hook_formula(shape: Node) -> int:
    """|LV|! |RV|! / (prod EL over left children * prod ER over right ones)."""
    if not isinstance(shape, Node):
        raise ValueError("hook formula requires a non-empty tree")
    left, right = _hooks(shape)
    denom = prod(left) * prod(right)
    num = factorial(shape.lv) * factorial(shape.rv)
    if num % denom:
        raise ArithmeticError("hook-formula division must be exact")
    return num // denom


def q_hook_formula(shape: Node) -> ParamPoly:
    """The q-analogue, a polynomial in (q_L, q_R): [|LV|]_(q_L)! over the
    [EL]_(q_L) of the left children, times the same in q_R; each division
    is exact."""
    if not isinstance(shape, Node):
        raise ValueError("q-hook formula requires a non-empty tree")
    sides = []
    for n, hooks in zip((shape.lv, shape.rv), _hooks(shape)):
        c = _q_factorial(n)
        for e in hooks:
            c = _q_div(c, e)
        sides.append(c)
    ql, qr = sides
    return ParamPoly(("q_L", "q_R"), {(i, j): a * b for i, a in enumerate(ql)
                                      if a for j, b in enumerate(qr) if b})


def sigma_readings(t: Nat) -> tuple[Permutation, Permutation]:
    """(sigma_L, sigma_R): postfix readings of the left and right labels.

    sigma_L reads, recursively, the left labels of the left subtree, then of
    the right subtree, then the root's own label if it is a left child;
    sigma_R is the mirror image.
    """
    return _postfix(t.shape, "L", t.left_label), _postfix(t.shape, "R", t.right_label)


def _postfix(shape: Node, side: str, labels: dict[str, int]) -> Permutation:
    """The labels of the ``side`` children of ``shape``, read in postorder
    with the ``side`` child first: the reverse of a preorder that visits
    the other child first."""
    steps = (side, "R" if side == "L" else "L")  # the last pushed is visited first
    out: list[int] = []
    stack = [(shape, "")]
    while stack:
        node, path = stack.pop()
        if path.endswith(side):
            out.append(labels[path])
        for step in steps:
            child = node.left if step == "L" else node.right
            if child is not None:
                stack.append((child, path + step))
    out.reverse()
    return tuple(out)


_STATISTICS = {"inv": _inv, "imaj": _imaj}


def weight(t: Nat, statistic: str) -> ParamPoly:
    """q_L^{S(sigma_L)} q_R^{S(sigma_R)} for S in {inv, imaj}."""
    stat = _STATISTICS[statistic]
    sigma_l, sigma_r = sigma_readings(t)
    return ParamPoly(("q_L", "q_R"), {(stat(sigma_l), stat(sigma_r)): Fraction(1)})


# --------------------------------------------------------------------------
# Counting by geometric size and hooks
# --------------------------------------------------------------------------


def count_by_size(i: int, j: int) -> ParamPoly:
    """(alpha, beta)-weighted number of NATs of geometric size i x j:
    sum_p (p-1)! (alpha+beta)^(p-1) S_{2,alpha}(i,p) S_{2,beta}(j,p)."""
    if i < 1 or j < 1:
        raise ValueError("size components must be >= 1")
    symbols = ("alpha", "beta")
    ab = ParamPoly.var("alpha", symbols) + ParamPoly.var("beta", symbols)
    out = ParamPoly.constant(0, symbols)
    for p in range(1, min(i, j) + 1):
        term = ParamPoly.constant(factorial(p - 1), symbols)
        term = term * rising_factorial(ab, p - 1)
        term = term * stirling2_q(i, p, "alpha").in_symbols(symbols)
        term = term * stirling2_q(j, p, "beta").in_symbols(symbols)
        out = out + term
    return out


def count_by_size_and_hook(i: int, j: int, p: int) -> int:
    """Number of NATs of geometric size i x j with hook number p."""
    if min(i, j, p) < 1:
        raise ValueError("arguments must be >= 1")
    if p > min(i, j):  # S(i, p) S(j, p) = 0
        return 0
    return factorial(p - 1) * factorial(p) * stirling2(i, p) * stirling2(j, p)


# --------------------------------------------------------------------------
# The shuffle-type bilinear map
# --------------------------------------------------------------------------


def bsg(sigma: Permutation, mu: Permutation) -> list[Permutation]:
    """All words uv with std(u) = sigma.(m+1) and std(v) = mu.

    Here sigma.(m+1) is sigma with the letter m+1 appended; the result is a
    list of permutations of size m+n+1, in lexicographic order.
    """
    m, n = len(sigma), len(mu)
    pattern_u = tuple(sigma) + (m + 1,)
    total = m + n + 1
    out = []
    for subset in itertools.combinations(range(1, total + 1), m + 1):
        u = tuple(subset[p - 1] for p in pattern_u)
        rest = sorted(set(range(1, total + 1)) - set(subset))
        v = tuple(rest[p - 1] for p in mu)
        word = u + v
        if std(word[:m + 1]) != pattern_u or std(word[m + 1:]) != tuple(mu):
            raise RuntimeError(f"bsg word {word} has the wrong standardization")
        out.append(word)
    return sorted(out)


# --------------------------------------------------------------------------
# (d,k) hook formula
# --------------------------------------------------------------------------


def dk_hook_formula(shape: DKTree) -> int:
    """prod_i (w_i - 1)! / prod over children U, i in dir(U), of E_i(U)."""
    if not isinstance(shape, DKTree):
        raise ValueError("dk hook formula requires a non-empty tree")
    num = prod(factorial(e) for e in shape.counts)  # w_i - 1 = E_i(root)
    denom = 1
    stack = [shape]
    while stack:
        node = stack.pop()
        for pi, child in node.children:
            # E_i(child) counts the child itself, as i is in its direction
            denom *= prod(child.counts[i - 1] + 1 for i in pi)
            stack.append(child)
    if num % denom:
        raise ArithmeticError("dk hook-formula division must be exact")
    return num // denom
