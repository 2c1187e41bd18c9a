"""The closed forms on packed integer counts, and ParamPoly.substitute.

The closed forms were first expanded in ``Fraction`` ``ParamPoly``
arithmetic, through ``TruncSeries.exp`` and ``log``; that expansion is kept
here as the oracle, with the substitution as first written.  The packed
expansion must give the same series: every coefficient, the symbols of each
and the ``repr``.  The paper's formula for the number of NATs of a size is a
second check, independent of both.
"""

from fractions import Fraction
from math import factorial

import pytest

from natlib.formulas import ParamPoly, count_by_size
from natlib.series import (
    TruncSeries,
    closed_hook_gf,
    closed_hook_log_gf,
    closed_N_ab,
)

# -- reference code: the ParamPoly expansion and substitution ----------------


def closed_form_by_series(order, z, symbols):
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
    return (x * alpha + y * beta).exp() * z * (log * (-(alpha + beta))).exp()


def oracle(name, order):
    if name == "closed_N_ab":
        return closed_form_by_series(order, 1, ("alpha", "beta"))
    if name == "closed_hook_gf":
        symbols = ("alpha", "beta", "z")
        return closed_form_by_series(order, ParamPoly.var("z", symbols), symbols)
    return closed_form_by_series(order, ParamPoly.var("z"), None)


def substitute_by_products(poly, **values):
    """Each monomial as a product of ParamPoly powers, summed one by one."""
    out = ParamPoly.constant(0)
    for expo, c in poly.coeffs.items():
        term = ParamPoly.constant(c)
        for s, e in zip(poly.symbols, expo):
            if e == 0:
                continue
            if s in values:
                v = values[s]
                v = v if isinstance(v, ParamPoly) else ParamPoly.constant(v)
                term = term * v ** e
            else:
                term = term * ParamPoly.var(s) ** e
        out = out + term
    return out


def assert_same_poly(got, want):
    assert got.symbols == want.symbols
    assert got.coeffs == want.coeffs
    assert all(type(c) is Fraction for c in got.coeffs.values())


CLOSED = {"closed_N_ab": closed_N_ab, "closed_hook_gf": closed_hook_gf,
          "closed_hook_log_gf": closed_hook_log_gf}

# -- the packed expansion ------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CLOSED))
def test_closed_forms_match_the_param_poly_expansion(name):
    for order in range(13):
        got, want = CLOSED[name](order), oracle(name, order)
        assert (got.variables, got.order, got.var_caps) == (
            want.variables, want.order, want.var_caps)
        assert set(got.coeffs) == set(want.coeffs)
        for e, p in got.coeffs.items():
            assert type(p) is ParamPoly
            assert_same_poly(p, want.coeffs[e])
        assert repr(got) == repr(want)


def test_closed_N_ab_counts_nats_on_the_order_20_anti_diagonal():
    # prod(e!) [x^i y^j] N_ab is the (alpha, beta)-weighted number of NATs
    # of geometric size (i+1) x (j+1)
    s = closed_N_ab(20)
    for i in range(21):
        j = 20 - i
        count = s.coeffs[(i, j)] * (factorial(i) * factorial(j))
        assert count == count_by_size(i + 1, j + 1)


def test_the_hook_series_refines_n_ab():
    # z = 1 forgets the hook statistic
    assert closed_hook_gf(10).substitute_params(z=1) == closed_N_ab(10)


# -- substitution --------------------------------------------------------------

VALUES = [
    {"alpha": 1, "beta": 1},
    {"z": 1},
    {"alpha": 2, "z": Fraction(1, 3)},
    {"beta": 0},
    {"beta": ParamPoly.var("q")},
    {"alpha": ParamPoly.var("beta") + 1},
    {"alpha": 3 * ParamPoly.var("z", ("z", "a")) - 1, "beta": -1},
    {},
    {"gamma": 5},
]


def substitution_cases():
    # the coefficients at an order are those of every order below it too
    for fn, order in ((closed_N_ab, 10), (closed_hook_gf, 8),
                      (closed_hook_log_gf, 10)):
        yield from fn(order).coeffs.values()
    for i in range(1, 7):
        for j in range(1, 7):
            yield count_by_size(i, j)


def test_substitute_matches_the_products_on_closed_forms_and_counts():
    for poly in substitution_cases():
        for values in VALUES:
            assert_same_poly(poly.substitute(**values),
                             substitute_by_products(poly, **values))


def test_substitute_keeps_the_symbols_that_occur():
    p = ParamPoly(("a", "b", "c"), {(1, 0, 0): 2, (0, 0, 2): 1})
    assert p.substitute(a=1).symbols == ("c",)
    assert p.substitute(b=1) == p and p.substitute(b=1).symbols == ("a", "c")
    assert p.substitute(a=ParamPoly.var("d")).symbols == ("c", "d")
    assert p.substitute(a=0, c=0).symbols == ()
    assert ParamPoly(("a",), {}).substitute(a=1).symbols == ()
