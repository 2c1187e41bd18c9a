"""Exact truncated multivariate power series with polynomial coefficients.

``TruncSeries`` is a quotient-ring element: variables with a total-degree cap
(and optional per-variable caps), coefficients being :class:`ParamPoly` so
that series may carry parameters (alpha, beta, z, ...).  All arithmetic is
exact over rationals.  ``exp`` needs a zero constant term, ``log`` a
constant term 1 and ``inverse`` a nonzero rational constant term (hard
errors otherwise); like the solvers, they compute each coefficient once,
in order of total degree, from the coefficients below it.  Derivatives are
exact up to total degree ``order - 1``; use :meth:`TruncSeries.truncate`
before comparing series of different pedigree.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod
from operator import sub

from .formulas import ParamPoly
from .natdk import _desk_guard
from .trees import directions as _directions

__all__ = [
    "TruncSeries",
    "pump",
    "solve_N",
    "solve_M",
    "closed_N_ab",
    "closed_hook_gf",
    "closed_hook_log_gf",
    "solve_N_dk",
    "solve_Bp_Op",
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
        if sum(expo) > self.order:
            return False
        if self.var_caps is not None and any(
            e > c for e, c in zip(expo, self.var_caps)
        ):
            return False
        return True

    def _context(self) -> tuple:
        return (self.variables, self.order, self.var_caps)

    def _like(self, coeffs: dict[Exponent, ParamPoly]) -> "TruncSeries":
        return TruncSeries(self.variables, self.order, coeffs, self.var_caps)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value, variables: tuple[str, ...], order: int,
                 var_caps: tuple[int, ...] | None = None) -> "TruncSeries":
        if not isinstance(value, ParamPoly):
            value = ParamPoly.constant(value)
        zero = (0,) * len(variables)
        return TruncSeries(variables, order, {zero: value}, var_caps)

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
            return self._like(
                {e: p * other for e, p in self.coeffs.items()}
            )
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
        return self._recurrence(ParamPoly.constant(1), lambda e, f: (
            _product_coefficient(e, theta, f) * Fraction(1, sum(e))))

    def log(self) -> "TruncSeries":
        """log of a series c with constant term 1: theta(f) c = theta(c), with
        theta the total-degree Euler operator (theta(c)_e = |e| c_e)."""
        if self.constant_term() != ParamPoly.constant(1):
            raise ValueError("log requires constant term 1")
        # h = theta(f) solves h c = theta(c), and f_e = h_e / |e|
        theta = self._recurrence(0, lambda e, h: (
            self.coeffs.get(e, 0) * sum(e)
            - _product_coefficient(e, h, self.coeffs)))
        return self._like({e: p * Fraction(1, sum(e))
                           for e, p in theta.coeffs.items()})

    def inverse(self) -> "TruncSeries":
        """1/h for h with a nonzero rational constant term c: f h = 1, that is
        c f_e = -sum over a < e of f_a h_(e-a)."""
        c = self.constant_term().as_fraction()
        if c == 0:
            raise ValueError("inverse requires a nonzero constant term")
        return self._recurrence(ParamPoly.constant(1 / c), lambda e, f: (
            _product_coefficient(e, f, self.coeffs) * (-1 / c)))

    def _recurrence(self, first, step) -> "TruncSeries":
        """The series f with f_0 = first and f_e = step(e, f) for e != 0.

        Exponents come in order of total degree, so ``step`` reads f below
        e only; f_e itself is not yet set, which drops it from the products.
        """
        zero, *rest = _exponents(self.order, len(self.variables), self.var_caps)
        f = {zero: first}
        for e in rest:
            fe = step(e, f)
            if fe:
                f[e] = fe
        return self._like(f)

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
        return TruncSeries(self.variables, order, self.coeffs,
                           var_caps if var_caps is not None else None)

    def map_coefficients(self, fn) -> "TruncSeries":
        return self._like({e: fn(p) for e, p in self.coeffs.items()})

    def substitute_params(self, **values) -> "TruncSeries":
        return self.map_coefficients(lambda p: p.substitute(**values))

    def restrict_zero(self, v: str) -> "TruncSeries":
        """Set variable v to 0 and drop it from the context."""
        idx = self.variables.index(v)
        variables = self.variables[:idx] + self.variables[idx + 1:]
        caps = None
        if self.var_caps is not None:
            caps = self.var_caps[:idx] + self.var_caps[idx + 1:]
        coeffs = {
            e[:idx] + e[idx + 1:]: p
            for e, p in self.coeffs.items()
            if e[idx] == 0
        }
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
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, expo) if e
            )
            poly = repr(self.coeffs[expo])
            if "+" in poly or "-" in poly:
                poly = f"({poly})"
            terms.append(f"{poly}*{mono}" if mono else poly)
        return " + ".join(terms) + f" + O(^{self.order + 1})"


# --------------------------------------------------------------------------
# The pumping function and the functional-equation solvers
# --------------------------------------------------------------------------
#
# In every equation below an integration or a factor x raises the degree, so
# each coefficient of the solution depends only on coefficients of lower
# degree.  The solvers compute each coefficient once, in order of degree, on
# plain numbers keyed by exponent, and build the TruncSeries at the end.


def pump(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """B(f, g) = int_0^x int_0^y (d/dy f)(d/dx g)."""
    prod = f.partial_derivative("y") * g.partial_derivative("x")
    return prod.integral_from_zero("x").integral_from_zero("y")


def _product_coefficient(e: Exponent, f: dict, g: dict):
    """[x^e] (f g) for series held as {exponent: coefficient}, absent meaning 0."""
    total = 0
    for a in itertools.product(*(range(ei + 1) for ei in e)):
        fa = f.get(a)
        if fa:
            gb = g.get(tuple(map(sub, e, a)))
            if gb:
                total += fa * gb
    return total


def _exponents(order: int, n: int,
               var_caps: tuple[int, ...] | None = None) -> list[Exponent]:
    """Exponents in n variables within total degree ``order`` and the caps,
    by total degree, so each comes after every exponent below it."""
    caps = var_caps or (order,) * n
    box = itertools.product(*(range(min(c, order) + 1) for c in caps))
    return sorted((e for e in box if sum(e) <= order), key=sum)


def solve_N(order: int) -> TruncSeries:
    """Doubly exponential counting series in (x, y): N = (1+int_x N)(1+int_y N).

    Solved degree by degree: [x^i y^j] N reads int_x N and int_y N at total
    degree at most i + j, which only involve N below that degree.
    """
    n: dict[Exponent, Fraction] = {(0, 0): Fraction(1)}
    ix: dict[Exponent, Fraction] = {}  # int_x N
    iy: dict[Exponent, Fraction] = {}  # int_y N
    for total in range(1, order + 1):
        for i in range(total + 1):
            j = total - i
            e = (i, j)
            if i:
                ix[e] = n[i - 1, j] / i
            if j:
                iy[e] = n[i, j - 1] / j
            n[e] = ix.get(e, 0) + iy.get(e, 0) + _product_coefficient(e, ix, iy)
    return TruncSeries(("x", "y"), order, n)


def solve_M(order: int) -> TruncSeries:
    """Series with M = x + y + int int (d/dx M)(d/dy M); N = d/dx d/dy M.

    Solved degree by degree: for i, j >= 1, [x^i y^j] M is the coefficient
    of x^(i-1) y^(j-1) in (d/dx M)(d/dy M), divided by i j, which only
    involves M below total degree i + j.
    """
    m: dict[Exponent, Fraction] = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    dx: dict[Exponent, Fraction] = {(0, 0): Fraction(1)}  # d/dx M
    dy: dict[Exponent, Fraction] = {(0, 0): Fraction(1)}  # d/dy M
    for total in range(2, order + 1):
        for i in range(1, total):
            j = total - i
            c = Fraction(_product_coefficient((i - 1, j - 1), dx, dy), i * j)
            m[i, j] = c
            dx[i - 1, j] = c * i
            dy[i, j - 1] = c * j
    return TruncSeries(("x", "y"), order, m)


def _closed_form(order: int, z, symbols: tuple[str, ...] | None) -> TruncSeries:
    """z e^(ax+by) / (1 - z u)^(a+b) over ``symbols``, a = alpha, b = beta and
    u = (e^x-1)(e^y-1); for ``symbols`` None, -log(1 - z u) alone."""
    variables = ("x", "y")
    x = TruncSeries.var("x", variables, order)
    y = TruncSeries.var("y", variables, order)
    log = (1 - (x.exp() - 1) * (y.exp() - 1) * z).log()
    if symbols is None:
        return -log
    alpha = ParamPoly.var("alpha", symbols)
    beta = ParamPoly.var("beta", symbols)
    # (1-zu)^-(alpha+beta) = exp(-(alpha+beta) log(1-zu)), zu nilpotent
    return (x * alpha + y * beta).exp() * z * (log * (-(alpha + beta))).exp()


def closed_N_ab(order: int) -> TruncSeries:
    """Expansion of e^(ax+by) / (1 - (e^x-1)(e^y-1))^(a+b), a = alpha, b = beta."""
    return _closed_form(order, 1, ("alpha", "beta"))


def closed_hook_gf(order: int) -> TruncSeries:
    """Expansion of z e^(ax+by) / (1 - z(e^x-1)(e^y-1))^(a+b)."""
    symbols = ("alpha", "beta", "z")
    return _closed_form(order, ParamPoly.var("z", symbols), symbols)


def closed_hook_log_gf(order: int) -> TruncSeries:
    """Expansion of -log(1 - z(e^x-1)(e^y-1)): the unrefined hook statistic."""
    return _closed_form(order, ParamPoly.var("z"), None)


def solve_N_dk(d: int, k: int, order: int) -> TruncSeries:
    """Solution of N = prod over directions pi of (1 + int_pi N).

    Variables x1..xd; truncation is per-variable at ``order`` (total degree
    up to d * order), since coefficients of interest live in the box.  Each
    int_pi raises the total degree by k, so the box is filled in order of
    total degree, each partial product of the first factors extended one
    exponent at a time.  Raises ``DeskScaleError`` beyond natdk's dimension
    and box limits.
    """
    _desk_guard(d, (order + 1,) * d)
    dirs = _directions(d, k)
    integrals: list[dict[Exponent, Fraction]] = [{} for _ in dirs]
    # partial[m] = product of the first m factors; partial[-1] is N
    partial: list[dict[Exponent, Fraction]] = [{(0,) * d: Fraction(1)}]
    partial += [{} for _ in dirs]
    n = partial[-1]
    for e in _exponents(d * order, d, (order,) * d):
        for pi, integral, prev, cur in zip(dirs, integrals, partial, partial[1:]):
            if all(e[i - 1] for i in pi):
                below = tuple(ei - (i in pi) for i, ei in enumerate(e, 1))
                if below in n:
                    integral[e] = Fraction(n[below], prod(e[i - 1] for i in pi))
            c = prev.get(e, 0) + _product_coefficient(e, integral, prev)
            if c:
                cur[e] = c
    variables = tuple(f"x{i}" for i in range(1, d + 1))
    return TruncSeries(variables, d * order, n, (order,) * d)


def solve_Bp_Op(order: int) -> tuple[TruncSeries, TruncSeries]:
    """Hook-statistic series over binary trees, two functional equations.

    Both live in (x, t): x marks vertices, t marks hooks.
      B_p = 1 + x t (1/(1 - x B_p))^2
      O_p = 1/(1 - x(O_p - 1)) * (1 + x t/(1 - x O_p))
    Each is solved on its own, in order of x-degree: the x^n coefficient of
    every right-hand side reads the unknown below x^n only.
    """
    cells = [(n, p) for n in range(order + 1) for p in range(order + 1)]

    # B_p = 1 + x t U^2 with U = 1/(1 - x B_p), that is U = 1 + x B_p U
    b, u, uu = {}, {}, {}  # B_p, U and U^2
    for n, p in cells:
        if n == 0:
            b[n, p] = u[n, p] = int(p == 0)
        else:
            b[n, p] = uu.get((n - 1, p - 1), 0)
            u[n, p] = _product_coefficient((n - 1, p), b, u)
        uu[n, p] = _product_coefficient((n, p), u, u)

    # O_p = P (1 + x t Q) with P = 1/(1 - x(O_p - 1)) and Q = 1/(1 - x O_p),
    # that is P = 1 + x (O_p - 1) P and Q = 1 + x O_p Q
    o, pp, q, r = {}, {}, {}, {}  # O_p, P, Q and 1 + x t Q
    for n, p in cells:
        if n == 0:
            pp[n, p] = q[n, p] = r[n, p] = int(p == 0)
        else:
            pp[n, p] = _product_coefficient((n - 1, p), o, pp) - pp[n - 1, p]
            q[n, p] = _product_coefficient((n - 1, p), o, q)
            r[n, p] = q.get((n - 1, p - 1), 0)
        o[n, p] = _product_coefficient((n, p), pp, r)

    variables = ("x", "t")
    caps = (order, order)
    return (TruncSeries(variables, 2 * order, b, caps),
            TruncSeries(variables, 2 * order, o, caps))


def phi_weight(w: tuple[int, ...], variables: tuple[str, ...],
               order: int, var_caps: tuple[int, ...] | None = None) -> TruncSeries:
    """The monomial prod x_i^(w_i) / w_i! attached to a geometric size."""
    coeff = Fraction(1)
    for wi in w:
        coeff /= factorial(wi)
    return TruncSeries(variables, order, {tuple(w): ParamPoly.constant(coeff)},
                       var_caps)
