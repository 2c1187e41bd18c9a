"""Exact truncated multivariate power series with polynomial coefficients.

``TruncSeries`` is a quotient-ring element: variables with a total-degree cap
(and optional per-variable caps), coefficients being :class:`ParamPoly` so
that series may carry parameters (alpha, beta, z, ...).  All arithmetic is
exact over rationals.  ``exp`` needs a zero constant term, ``log`` a
constant term 1 and ``inverse`` a nonzero rational constant term (hard
errors otherwise); like the solvers, they compute each coefficient once,
in order of total degree, from the coefficients below it, over one dense
exponent plan per call.  The solvers run on integer counts and divide once,
at the boundary; so do the closed forms, their counts polynomials packed
into ints.  Derivatives are exact up to total degree ``order - 1``;
use :meth:`TruncSeries.truncate` before comparing series of different
pedigree.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import comb, factorial, prod
from operator import itemgetter, mul

from .formulas import ParamPoly, _monomial
from .natdk import _desk_guard
from .trees import directions as _directions

__all__ = [
    "TruncSeries", "solve_N", "solve_M", "closed_N_ab",
    "closed_hook_gf", "closed_hook_log_gf", "solve_N_dk", "solve_Bp_Op",
]

Exponent = tuple[int, ...]


class TruncSeries:
    """Immutable truncated power series; coefficients are ParamPoly."""

    __slots__ = ("variables", "order", "var_caps", "coeffs")

    def __init__(self, variables: tuple[str, ...], order: int,
                 coeffs: dict[Exponent, ParamPoly] | None = None,
                 var_caps: tuple[int, ...] | None = None):
        self.variables = tuple(variables)
        self.order = order
        self.var_caps = tuple(var_caps) if var_caps is not None else None
        if self.var_caps is not None and len(self.var_caps) != len(self.variables):
            raise ValueError("one cap per variable required")
        clean: dict[Exponent, ParamPoly] = {}
        for expo, poly in (coeffs or {}).items():
            if len(expo) != len(self.variables) or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent {expo}")
            if not self._within(expo):
                continue
            if not isinstance(poly, ParamPoly):
                poly = ParamPoly.constant(poly)
            if poly:
                clean[tuple(expo)] = poly
        self.coeffs = clean

    def _within(self, expo: Exponent) -> bool:
        return sum(expo) <= self.order and (self.var_caps is None or all(
            e <= c for e, c in zip(expo, self.var_caps)))

    def _context(self) -> tuple:
        return (self.variables, self.order, self.var_caps)

    def _like(self, coeffs: dict[Exponent, ParamPoly]) -> "TruncSeries":
        return TruncSeries(self.variables, self.order, coeffs, self.var_caps)

    @staticmethod
    def _built(variables: tuple[str, ...], order: int,
               coeffs: dict[Exponent, ParamPoly],
               var_caps: tuple[int, ...] | None) -> "TruncSeries":
        """The series the solvers make themselves: ``variables`` and
        ``var_caps`` are tuples, every exponent lies within the context and
        every coefficient is a nonzero ParamPoly, so nothing is checked."""
        series = object.__new__(TruncSeries)
        series.variables, series.order = variables, order
        series.var_caps, series.coeffs = var_caps, coeffs
        return series

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value, variables: tuple[str, ...], order: int,
                 var_caps: tuple[int, ...] | None = None) -> "TruncSeries":
        if not isinstance(value, ParamPoly):
            value = ParamPoly.constant(value)
        return TruncSeries(variables, order, {(0,) * len(variables): value},
                           var_caps)

    @staticmethod
    def var(name: str, variables: tuple[str, ...], order: int,
            var_caps: tuple[int, ...] | None = None) -> "TruncSeries":
        expo = tuple(1 if v == name else 0 for v in variables)
        if name not in variables:
            raise ValueError(f"{name} not among {variables}")
        return TruncSeries(variables, order, {expo: ParamPoly.constant(1)}, var_caps)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "TruncSeries":
        if isinstance(other, TruncSeries):
            if other._context() != self._context():
                raise ValueError("incompatible series contexts")
            return other
        return TruncSeries.constant(other, self.variables, self.order, self.var_caps)

    def __add__(self, other) -> "TruncSeries":
        other = self._coerce(other)
        coeffs = dict(self.coeffs)
        for expo, poly in other.coeffs.items():
            coeffs[expo] = coeffs.get(expo, ParamPoly.constant(0)) + poly
        return self._like(coeffs)

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return self._like({e: -p for e, p in self.coeffs.items()})

    def __sub__(self, other) -> "TruncSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "TruncSeries":
        return (-self) + other

    def __mul__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return self._like({e: p * other for e, p in self.coeffs.items()})
        other = self._coerce(other)
        coeffs: dict[Exponent, ParamPoly] = {}
        for e1, p1 in self.coeffs.items():
            for e2, p2 in other.coeffs.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                if not self._within(expo):
                    continue
                coeffs[expo] = coeffs.get(expo, ParamPoly.constant(0)) + p1 * p2
        return self._like(coeffs)

    def __rmul__(self, other) -> "TruncSeries":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "TruncSeries":
        if n < 0:
            raise ValueError("negative power; use inverse()")
        out = TruncSeries.constant(1, self.variables, self.order, self.var_caps)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            other = self._coerce(other)
        if other._context() != self._context():
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        zero = ParamPoly.constant(0)
        return all(
            self.coeffs.get(k, zero) == other.coeffs.get(k, zero) for k in keys
        )

    def __hash__(self):
        raise TypeError("TruncSeries is not hashable")

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- calculus ----------------------------------------------------------

    def partial_derivative(self, v: str) -> "TruncSeries":
        """d/dv; exact up to total degree order - 1."""
        idx = self.variables.index(v)
        coeffs: dict[Exponent, ParamPoly] = {}
        for expo, poly in self.coeffs.items():
            if expo[idx] == 0:
                continue
            new = expo[:idx] + (expo[idx] - 1,) + expo[idx + 1:]
            coeffs[new] = poly * expo[idx]
        return self._like(coeffs)

    def integral_from_zero(self, v: str) -> "TruncSeries":
        """Integral from 0 in v; terms pushed beyond the cap are dropped."""
        idx = self.variables.index(v)
        coeffs: dict[Exponent, ParamPoly] = {}
        for expo, poly in self.coeffs.items():
            new = expo[:idx] + (expo[idx] + 1,) + expo[idx + 1:]
            coeffs[new] = poly * Fraction(1, expo[idx] + 1)
        return self._like(coeffs)

    def constant_term(self) -> ParamPoly:
        return self.coeffs.get((0,) * len(self.variables), ParamPoly.constant(0))

    def is_nilpotent(self) -> bool:
        return not self.constant_term()

    def exp(self) -> "TruncSeries":
        """exp of a nilpotent series g: |e| f_e = sum over 0 < a <= e of
        |a| g_a f_(e-a)."""
        if not self.is_nilpotent():
            raise ValueError("exp requires a zero constant term")
        theta = {e: p * sum(e) for e, p in self.coeffs.items()}
        return self._recurrence(ParamPoly.constant(1), theta, lambda e, s: (
            s * Fraction(1, sum(e))))

    def log(self) -> "TruncSeries":
        """log of a series c with constant term 1: theta(f) c = theta(c), with
        theta the total-degree Euler operator (theta(c)_e = |e| c_e)."""
        if self.constant_term() != ParamPoly.constant(1):
            raise ValueError("log requires constant term 1")
        # h = theta(f) solves h c = theta(c), and f_e = h_e / |e|
        theta = self._recurrence(0, self.coeffs, lambda e, s: (
            self.coeffs.get(e, 0) * sum(e) - s))
        return TruncSeries._built(self.variables, self.order, {
            e: p * Fraction(1, sum(e)) for e, p in theta.coeffs.items()},
            self.var_caps)

    def inverse(self) -> "TruncSeries":
        """1/h for h with a nonzero rational constant term c: f h = 1, that is
        c f_e = -sum over a < e of f_a h_(e-a)."""
        c = self.constant_term().as_fraction()
        if c == 0:
            raise ValueError("inverse requires a nonzero constant term")
        return self._recurrence(ParamPoly.constant(1 / c), self.coeffs,
                                lambda e, s: s * (-1 / c))

    def _recurrence(self, first, g: dict, step) -> "TruncSeries":
        """The series f with f_0 = first and f_e = step(e, s_e) for e != 0,
        where s_e = sum over a <= e of g_a f_(e-a).  Exponents come in order
        of total degree, so s_e reads f below e only (f_e is not yet set).
        ``first`` and ``step`` give a ParamPoly or a zero."""
        caps = tuple(min(c, self.order) for c in
                     self.var_caps or (self.order,) * len(self.variables))
        _, cells, terms = _plan(caps, self.order, binomial=False)
        f, flat = [first] + [0] * (len(terms) - 1), [0] * len(terms)
        for e, i in cells:
            flat[i] = g.get(e, 0)
        for e, i in cells[1:]:
            f[i] = step(e, _convolve(terms[i], i, flat, f))
        return TruncSeries._built(self.variables, self.order, {
            e: f[i] for e, i in cells if f[i]}, self.var_caps)

    def compose_into_nilpotent(self, g: "TruncSeries", v: str) -> "TruncSeries":
        """Substitute the nilpotent series g for the variable v."""
        g = self._coerce(g)
        if not g.is_nilpotent():
            raise ValueError("composition requires a zero constant term")
        idx = self.variables.index(v)
        out = TruncSeries.constant(0, self.variables, self.order, self.var_caps)
        powers = [TruncSeries.constant(1, self.variables, self.order,
                                       self.var_caps)]
        for expo, poly in sorted(self.coeffs.items()):
            k = expo[idx]
            while len(powers) <= k:
                powers.append(powers[-1] * g)
            rest = expo[:idx] + (0,) + expo[idx + 1:]
            mono = TruncSeries(self.variables, self.order,
                               {rest: poly}, self.var_caps)
            out = out + mono * powers[k]
        return out

    # -- queries and reshaping --------------------------------------------

    def coefficient(self, **powers: int) -> ParamPoly:
        expo = tuple(powers.get(v, 0) for v in self.variables)
        extra = set(powers) - set(self.variables)
        if extra:
            raise KeyError(f"unknown variables {extra}")
        return self.coeffs.get(expo, ParamPoly.constant(0))

    def truncate(self, order: int,
                 var_caps: tuple[int, ...] | None = None) -> "TruncSeries":
        return TruncSeries(self.variables, order, self.coeffs, var_caps)

    def map_coefficients(self, fn) -> "TruncSeries":
        return self._like({e: fn(p) for e, p in self.coeffs.items()})

    def substitute_params(self, **values) -> "TruncSeries":
        return self.map_coefficients(lambda p: p.substitute(**values))

    def restrict_zero(self, v: str) -> "TruncSeries":
        """Set variable v to 0 and drop it from the context."""
        idx = self.variables.index(v)
        variables = self.variables[:idx] + self.variables[idx + 1:]
        caps = self.var_caps and self.var_caps[:idx] + self.var_caps[idx + 1:]
        coeffs = {e[:idx] + e[idx + 1:]: p
                  for e, p in self.coeffs.items() if e[idx] == 0}
        return TruncSeries(variables, self.order, coeffs, caps)

    def rename_variables(self, mapping: dict[str, str]) -> "TruncSeries":
        variables = tuple(mapping.get(v, v) for v in self.variables)
        return TruncSeries(variables, self.order, dict(self.coeffs),
                           self.var_caps)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0 + O(^{})".format(self.order + 1)
        terms = []
        for expo in sorted(self.coeffs, key=lambda e: (sum(e), e)):
            mono = _monomial(self.variables, expo)
            poly = repr(self.coeffs[expo])
            if "+" in poly or "-" in poly:
                poly = f"({poly})"
            terms.append(f"{poly}*{mono}" if mono else poly)
        return " + ".join(terms) + f" + O(^{self.order + 1})"


# --------------------------------------------------------------------------
# The functional-equation solvers
# --------------------------------------------------------------------------
#
# In every equation below an integration or a factor x raises the degree, so
# each coefficient of the solution depends only on coefficients of lower
# degree.  The solvers compute each coefficient once, in order of degree, on
# flat lists of integers over one plan, and divide once, into the TruncSeries
# at the end.  An exponential series is held as its counts prod(e_v!) c_e:
# integrals and derivatives are index shifts, products binomial convolutions.


_UNIT = ((1, 0),)  # the one term (1, index(0))


def _plan(caps: tuple[int, ...], order: int, binomial: bool = True,
          k: int = 1) -> tuple[list[int], list[tuple[Exponent, int]], list]:
    """The exponents e <= caps with |e| <= order, at the mixed-radix index
    i = sum e_v s_v, so that index(e - a) = i - index(a).  Returns the
    strides s, the cells (e, i) in order of total degree, and at each i the
    product terms over a <= e, factored as a pair (outer, inner) of lists
    of (weight, offset): the terms are (w wa, o + oa) for (w, o) in outer
    and (wa, oa) in inner, with weight prod binom(e_v, a_v) for counts
    (``binomial``), 1 for ordinary series.  The weight factors per axis, so
    outer spans every axis but the last, once per prefix of e and shared,
    and inner is the last axis's row.  For k > 1 only the monoid that the
    (d,k) directions span is planned, the e with |e| = k n and every
    e_v <= n, with a term only where a and e - a lie in it: outer lists
    those terms and inner is the unit."""
    strides = [prod(c + 1 for c in caps[v + 1:]) for v in range(len(caps))]
    rows = [[comb(n, a) if binomial else 1 for a in range(n + 1)]
            for n in range(max(caps, default=0) + 1)]
    # axes[v][n]: the factors (weight, offset) of a_v = 0..n on the axis v
    axes = [[tuple(zip(rows[n], range(0, (n + 1) * s, s))) for n in range(c + 1)]
            for c, s in zip(caps, strides)]
    terms: list = [()] * prod(c + 1 for c in caps)
    if k > 1:
        cells = [(e, sum(map(mul, e, strides))) for n in range(order // k + 1)
                 for e in _bounded(k * n, [min(n, c) for c in caps])]
        levels: list[set[int]] = [set() for _ in range(order // k + 1)]
        for e, i in cells:
            levels[sum(e) // k].add(i)
        kept = {i for _, i in cells}
        for e, i in cells:
            terms[i] = (_monoid_terms(e, i, k, axes, levels, kept), _UNIT)
        return strides, cells, terms
    if not caps:
        return strides, [((), 0)], [(_UNIT, _UNIT)]
    # one pass over the prefixes e_1..e_(d-1), each with its outer terms
    # and a run of last-axis entries
    by_degree: list[list] = [[] for _ in range(order + 1)]
    heads = itertools.product(*(range(c + 1) for c in caps[:-1]))
    for base, head in zip(range(0, len(terms), caps[-1] + 1), heads):
        n = sum(head)
        if n > order:
            continue
        outer = _UNIT
        for ev, axis in zip(head, axes):
            outer = tuple((w * wa, o + oa) for w, o in outer for wa, oa in axis[ev])
        for ev, inner in enumerate(axes[-1][:order - n + 1]):
            by_degree[n + ev].append((head + (ev,), base + ev))
            terms[base + ev] = (outer, inner)
    return strides, [cell for cells in by_degree for cell in cells], terms


def _bounded(total: int, high: list[int]) -> list[tuple]:
    """Every e <= high with |e| = total, in lexicographic order."""
    out: list[tuple] = [()]
    rest = sum(high)
    for hi in high:
        rest -= hi
        out = [e + (x,) for e in out
               for x in range(max(0, total - sum(e) - rest),
                              min(hi, total - sum(e)) + 1)]
    return out


def _monoid_terms(e: Exponent, i: int, k: int, axes: list,
                  levels: list[set[int]], kept: set[int]) -> tuple:
    """The terms (w, index(a)) of the monoid cell e at the index i, |e| = k n,
    with a and e - a in the monoid (``kept`` holds its cells, ``levels[m]``
    those of degree k m), in the order of index(a): lexicographic in a.
    Such an a of degree k m has e_v - (n - m) <= a_v <= m: the candidates
    are those, m by m, where they are fewer than the box a <= e (one per m
    on the diagonal monoid of k = d), a pass counting as 8 candidates."""
    n = sum(e) // k
    factors = [axis[ev] for ev, axis in zip(e, axes)]
    runs = [(factors, kept, kept)]
    if (n + 1) * (prod(min(ev, n - ev) + 1 for ev in e) + 8 * len(e)) < prod(
            map(len, factors)):
        runs = [([f[max(0, ev - n + m):min(m, ev) + 1] for f, ev in zip(factors, e)],
                 levels[m], levels[n - m]) for m in range(n + 1)]
    pairs = []
    for box, own, rest in runs:
        part = box[0]
        for f in box[1:]:
            part = [(w * wa, ia + oa) for w, ia in part for wa, oa in f]
        pairs += [(w, a) for w, a in part if a in own and i - a in rest]
    return tuple(sorted(pairs, key=itemgetter(1)) if len(runs) > 1 else pairs)


def _convolve(terms: tuple, i: int, f: list, g: list):
    """[x^e] (f g) from the factored terms (outer, inner) at the index i of
    e, skipping zero entries; weight 1 multiplies nothing, so f and g may
    hold ParamPoly."""
    outer, inner = terms
    total = 0
    for w, o in outer:
        j = i - o
        for wa, a in inner:
            fa = f[o + a]
            if fa:
                gb = g[j - a]
                if gb:
                    wa *= w
                    total += fa * gb if wa == 1 else wa * fa * gb
    return total


def _from_counts(variables, order, cells, counts, var_caps=None) -> TruncSeries:
    """The exponential series with the coefficients counts_e / prod e_v!."""
    built = ParamPoly._built
    return TruncSeries._built(variables, order, {
        e: built((), {(): Fraction(counts[i], prod(map(factorial, e)))})
        for e, i in cells if counts[i]}, var_caps)


def solve_N(order: int) -> TruncSeries:
    """Doubly exponential counting series in (x, y): N = (1+int_x N)(1+int_y N).

    On counts, int_x N is N shifted by (1, 0), and [x^i y^j] N reads the
    integrals at total degree at most i + j, so N below that degree only.
    """
    (sx, sy), cells, terms = _plan((order, order), order)
    n, ix, iy = ([0] * len(terms) for _ in range(3))  # N, int_x N, int_y N
    n[0] = 1
    for e, i in cells[1:]:
        if e[0]:
            ix[i] = n[i - sx]
        if e[1]:
            iy[i] = n[i - sy]
        n[i] = ix[i] + iy[i] + _convolve(terms[i], i, ix, iy)
    return _from_counts(("x", "y"), order, cells, n)


def solve_M(order: int) -> TruncSeries:
    """Series with M = x + y + int int (d/dx M)(d/dy M); N = d/dx d/dy M.

    On counts, d/dx M is M shifted by (-1, 0), and for i, j >= 1 the count
    at x^i y^j is that of (d/dx M)(d/dy M) at x^(i-1) y^(j-1), which only
    involves M below total degree i + j.
    """
    (sx, sy), cells, terms = _plan((order, order), order)
    m, dx, dy = ([0] * len(terms) for _ in range(3))  # M, d/dx M, d/dy M
    if order:
        m[sx] = m[sy] = dx[0] = dy[0] = 1
    for e, i in cells:
        if e[0] and e[1]:
            below = i - sx - sy
            m[i] = dx[i - sx] = dy[i - sy] = _convolve(terms[below], below,
                                                       dx, dy)
    return _from_counts(("x", "y"), order, cells, m)


# The closed forms are expanded on counts as well.  Each count is a
# polynomial in alpha, beta and z with nonnegative integer coefficients,
# packed into one int (Kronecker substitution): the monomial alpha^a beta^b
# z^c sits in a slot of ``size`` bytes at the mixed-radix place of (a, b, c),
# so that a symbol is a shift by its place, and sums and products of packed
# counts are those of the polynomials as long as no coefficient overflows
# its slot.  Nothing is negative, so no partial sum or product exceeds the
# count it adds up to, nor any count its value at alpha = beta = z = 1: one
# pass of the same recurrences with every shift 0 gives the size.


_NONZERO_BYTES = re.compile(rb"[^\x00]+")


def _log_counts(plan, z: int) -> list:
    """The counts of d_x L, L = -log(1 - w) with w = z u and z the shift
    ``z``, by d_x L = d_x w + w d_x L = z (d_x u + u d_x L): the counts of
    u = (e^x-1)(e^y-1) are 1 where x and y both divide, those of d_x u where
    y does."""
    (sx, _), cells, terms = plan
    u, lx = [0] * len(terms), [0] * len(terms)
    for e, i in cells:
        if e[0] and e[1]:
            below = i - sx
            u[i] = 1
            lx[below] = (1 + _convolve(terms[below], below, u, lx)) << z
    return lx


def _exp_counts(plan, lx: list, alpha: int, beta: int) -> list:
    """The counts of F = exp(f), f = alpha x + beta y + (alpha + beta) L,
    with alpha and beta the shifts ``alpha`` and ``beta``, by d_x F =
    (d_x f) F = alpha F + (alpha + beta) (d_x L) F; on x = 0, F = e^(beta y)."""
    (sx, sy), cells, terms = plan
    f = [1] + [0] * (len(terms) - 1)
    for e, i in cells[1:]:
        if e[0]:
            below = i - sx
            s = _convolve(terms[below], below, lx, f)
            f[i] = (f[below] << alpha) + (s << alpha) + (s << beta)
        else:
            f[i] = f[i - sy] << beta
    return f


def _closed_form(order: int, symbols: tuple[str, ...]) -> TruncSeries:
    """z e^(ax+by) / (1 - z u)^(a+b) over ``symbols``, a = alpha, b = beta,
    u = (e^x-1)(e^y-1) and z = 1 where ``symbols`` lacks it; for
    ``symbols`` ("z",), -log(1 - z u) alone."""
    plan = _plan((order, order), order)
    (sx, _), cells, _ = plan
    # a count at e has degree at most |e| in alpha and beta, and at most
    # min(e) in z before the factor z of the hook series
    sizes = [{"alpha": order + 1, "beta": order + 1, "z": order // 2 + 2}[s]
             for s in symbols]

    def counts(shifts: dict) -> tuple[list, list[list]]:
        """The counts of the series per cell, each symbol a shift (0 where
        it is 1), and every list the recurrences filled."""
        z = shifts.get("z", 0)
        lx = _log_counts(plan, z)
        if "alpha" not in shifts:
            return [lx[i - sx] if e[0] else 0 for e, i in cells], [lx]
        f = _exp_counts(plan, lx, shifts["alpha"], shifts["beta"])
        return [f[i] << z for _, i in cells], [lx, f]

    _, parts = counts(dict.fromkeys(symbols, 0))
    size = -(-max(c.bit_length() for part in parts for c in part) // 8)
    places = [prod(sizes[v + 1:]) for v in range(len(sizes))]
    packed, _ = counts({s: 8 * size * p for s, p in zip(symbols, places)})
    monomials = list(itertools.product(*map(range, sizes)))
    coeffs: dict[Exponent, ParamPoly] = {}
    for (e, _), c in zip(cells, packed):
        if not c:
            continue
        data = c.to_bytes(-(-c.bit_length() // 8), "little")
        scale = prod(map(factorial, e))
        # the nonzero slots are those that meet a run of nonzero bytes
        poly = {monomials[slot]: Fraction(int.from_bytes(
            data[slot * size:(slot + 1) * size], "little"), scale)
            for run in _NONZERO_BYTES.finditer(data)
            for slot in range(run.start() // size, (run.end() - 1) // size + 1)}
        if list(poly) == monomials[:1]:  # a constant, over no symbols
            coeffs[e] = ParamPoly._built((), {(): poly[monomials[0]]})
        else:
            coeffs[e] = ParamPoly._built(symbols, poly)
    return TruncSeries._built(("x", "y"), order, coeffs, None)


def closed_N_ab(order: int) -> TruncSeries:
    """Expansion of e^(ax+by) / (1 - (e^x-1)(e^y-1))^(a+b), a = alpha, b = beta."""
    return _closed_form(order, ("alpha", "beta"))


def closed_hook_gf(order: int) -> TruncSeries:
    """Expansion of z e^(ax+by) / (1 - z(e^x-1)(e^y-1))^(a+b)."""
    return _closed_form(order, ("alpha", "beta", "z"))


def closed_hook_log_gf(order: int) -> TruncSeries:
    """Expansion of -log(1 - z(e^x-1)(e^y-1)): the unrefined hook statistic."""
    return _closed_form(order, ("z",))


def _monoid_pairs(d: int, k: int, order: int) -> int:
    """The sum of prod(e_v + 1), the pairs a <= e, over the exponents e of
    the monoid the (d,k) directions span, e_v <= order: |e| = k n with every
    e_v <= n.  Over e <= b with |e| = m the sum is [x^m] g_b(x)^d, where
    g_b = sum over a <= b of (a+1) x^a
        = (1 - (b+2) x^(b+1) + (b+1) x^(b+2)) / (1-x)^2,
    and expanding the power of the numerator leaves binomial coefficients."""
    total = 0
    for n in range(d * order // k + 1):
        b = min(n, order)
        for i in range(d + 1):
            for j in range(d - i + 1):
                rest = k * n - i * (b + 1) - j * (b + 2)
                if rest >= 0:
                    total += (comb(d, i) * comb(d - i, j) * (-b - 2) ** i
                              * (b + 1) ** j * comb(rest + 2 * d - 1, 2 * d - 1))
    return total


def solve_N_dk(d: int, k: int, order: int) -> TruncSeries:
    """Solution of N = prod over directions pi of (1 + int_pi N).

    Variables x1..xd; truncation is per-variable at ``order`` (total degree
    up to d * order), since coefficients of interest live in the box.  On
    counts each int_pi is a shift by pi, raising the total degree by k, so
    the box is filled in order of total degree, each partial product of the
    first factors extended one exponent at a time.  Only the monoid spanned
    by the directions (|e| a multiple of k, no e_v above |e| / k) can be
    nonzero, and the plan holds it alone.  Raises ``DeskScaleError`` beyond
    natdk's dimension and box limits, or where C(d, k) times the pairs
    a <= e over the exponents e of the plan exceed its term cap: for k = 1,
    over the full box, ((order+1)(order+2)/2)^d pairs.
    """
    box = (order + 1,) * d
    _desk_guard(d, box)  # first, as it bounds the count below
    pairs = (((order + 1) * (order + 2) // 2) ** d if k == 1
             else _monoid_pairs(d, k, order))
    _desk_guard(d, box, comb(d, k) * pairs)
    dirs = _directions(d, k)
    strides, cells, terms = _plan((order,) * d, d * order, k=k)
    shifts = [sum(strides[v - 1] for v in pi) for pi in dirs]
    integrals = [[0] * len(terms) for _ in dirs]  # int_pi N
    # partial[m] = product of the first m + 1 factors; partial[-1] is N
    partial = [[0] * len(terms) for _ in dirs]
    partial[0][0] = 1
    n = partial[-1]
    for e, i in cells:
        for pi, shift, integral in zip(dirs, shifts, integrals):
            if all(e[v - 1] for v in pi):
                integral[i] = n[i - shift]
        partial[0][i] += integrals[0][i]
        for integral, prev, cur in zip(integrals[1:], partial, partial[1:]):
            cur[i] = prev[i] + _convolve(terms[i], i, integral, prev)
    variables = tuple(f"x{v}" for v in range(1, d + 1))
    return _from_counts(variables, d * order, cells, n, (order,) * d)


def solve_Bp_Op(order: int) -> tuple[TruncSeries, TruncSeries]:
    """Hook-statistic series over binary trees, two functional equations.

    Both live in (x, t): x marks vertices, t marks hooks.
      B_p = 1 + x t (1/(1 - x B_p))^2
      O_p = 1/(1 - x(O_p - 1)) * (1 + x t/(1 - x O_p))
    Each is solved on its own, on integers: the x^n coefficient of every
    right-hand side reads the unknown below x^n only.
    """
    (sx, st), cells, terms = _plan((order, order), 2 * order, binomial=False)
    # B_p = 1 + x t U^2 with U = 1/(1 - x B_p), that is U = 1 + x B_p U;
    # O_p = P (1 + x t Q) with P = 1/(1 - x(O_p - 1)) and Q = 1/(1 - x O_p),
    # that is P = 1 + x (O_p - 1) P and Q = 1 + x O_p Q.  R = 1 + x t Q.
    b, u, uu, o, pp, q, r = ([0] * len(terms) for _ in range(7))
    for (n, p), i in cells:
        if n == 0:
            b[i] = u[i] = pp[i] = q[i] = r[i] = int(p == 0)
        else:
            below = i - sx
            if p:
                b[i], r[i] = uu[below - st], q[below - st]
            u[i] = _convolve(terms[below], below, b, u)
            pp[i] = _convolve(terms[below], below, o, pp) - pp[below]
            q[i] = _convolve(terms[below], below, o, q)
        uu[i] = _convolve(terms[i], i, u, u)
        o[i] = _convolve(terms[i], i, pp, r)
    built = ParamPoly._built
    return tuple(TruncSeries._built(("x", "t"), 2 * order, {
        e: built((), {(): Fraction(s[i])}) for e, i in cells if s[i]},
        (order, order))
        for s in (b, o))

