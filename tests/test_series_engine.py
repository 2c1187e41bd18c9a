"""The series engine: exp, log and inverse by degree-by-degree recurrences.

The Taylor loops that computed them before, over whole truncated products,
are kept here as reference code.  The recurrences must give the same series,
coefficient symbols included, and refuse the same inputs with the same
messages.  The closed forms are cross-checked against sympy expansions.
The plan is checked against the plan as first written, and the series the
solvers build without checks against the same series put through the
public constructors.
"""

import itertools
import random
from fractions import Fraction
from math import comb, prod
from operator import mul

import pytest

from natlib.formulas import ParamPoly
from natlib.series import (
    TruncSeries,
    _plan,
    closed_hook_log_gf,
    closed_N_ab,
    solve_Bp_Op,
    solve_M,
    solve_N,
    solve_N_dk,
)
from natlib.treedoc import series_to_json
from test_series_counts import DK_GRID

# -- reference code: the Taylor loops --------------------------------------


def nilpotency_bound(s):
    """Smallest m with (series minus constant)^m = 0 under truncation."""
    degrees = [sum(e) for e in s.coeffs if any(e)]
    if not degrees:
        return 0
    return s.order // min(degrees) + 1


def taylor_exp(s):
    if not s.is_nilpotent():
        raise ValueError("exp requires a zero constant term")
    out = TruncSeries.constant(1, s.variables, s.order, s.var_caps)
    term = out
    for k in range(1, nilpotency_bound(s) + 1):
        term = term * s * Fraction(1, k)
        out = out + term
    return out


def taylor_log(s):
    if s.constant_term() != ParamPoly.constant(1):
        raise ValueError("log requires constant term 1")
    g = s - 1
    out = TruncSeries.constant(0, s.variables, s.order, s.var_caps)
    term = TruncSeries.constant(1, s.variables, s.order, s.var_caps)
    for k in range(1, nilpotency_bound(g) + 1):
        term = term * g
        out = out + term * Fraction((-1) ** (k + 1), k)
    return out


def taylor_inverse(s):
    c = s.constant_term().as_fraction()
    if c == 0:
        raise ValueError("inverse requires a nonzero constant term")
    g = (s * Fraction(1, c)) - 1
    out = TruncSeries.constant(1, s.variables, s.order, s.var_caps)
    term = out
    for _ in range(nilpotency_bound(g)):
        term = term * (-g)
        out = out + term
    return out * Fraction(1, c)


# -- seeded random series ---------------------------------------------------

SYMBOL_SETS = [("alpha", "beta"), ("z",), ("alpha", "beta", "z"), ("z", "alpha")]


def random_coefficient(rng, parametric):
    if not parametric:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    symbols = rng.choice(SYMBOL_SETS)
    coeffs = {
        tuple(rng.randint(0, 2) for _ in symbols):
            Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        for _ in range(rng.randint(1, 3))
    }
    return ParamPoly(symbols, coeffs)


def random_nilpotent(rng):
    """A series with zero constant term, possibly the zero series."""
    nvars = rng.randint(1, 3)
    variables = ("x", "y", "t")[:nvars]
    order = rng.randint(0, 8)
    caps = None
    if rng.random() < 0.5:
        caps = tuple(rng.randint(0, order) for _ in variables)
    parametric = rng.random() < 0.5
    coeffs = {}
    for _ in range(rng.choice([0, 1, 2, 3, 4])):
        expo = tuple(rng.randint(0, min(order, 3)) for _ in variables)
        if any(expo):
            coeffs[expo] = random_coefficient(rng, parametric)
    return TruncSeries(variables, order, coeffs, caps)


def same_series(got, want):
    assert (got.variables, got.order, got.var_caps) == (
        want.variables, want.order, want.var_caps)
    assert got == want
    assert series_to_json(got) == series_to_json(want)


def outcome(fn, s):
    """The series fn returns, or the message of the ValueError it raises."""
    try:
        return fn(s)
    except ValueError as exc:
        return str(exc)


CASES = 240


@pytest.fixture(scope="module")
def nilpotents():
    rng = random.Random(20211)
    out = [random_nilpotent(rng) for _ in range(CASES)]
    out.append(TruncSeries(("x", "y"), 6, {}))
    return out


class TestAgainstTaylorLoops:
    def test_the_sample_covers_the_cases(self, nilpotents):
        assert len(nilpotents) > 200
        assert {len(s.variables) for s in nilpotents} == {1, 2, 3}
        assert {s.order for s in nilpotents} == set(range(9))
        assert any(s.var_caps is None for s in nilpotents)
        assert any(s.var_caps is not None for s in nilpotents)
        assert any(not s for s in nilpotents)
        symbols = {p.symbols for s in nilpotents for p in s.coeffs.values()}
        assert () in symbols and len(symbols) > 1

    def test_exp(self, nilpotents):
        for g in nilpotents:
            same_series(g.exp(), taylor_exp(g))

    def test_log(self, nilpotents):
        for g in nilpotents:
            same_series((1 + g).log(), taylor_log(1 + g))

    def test_inverse(self, nilpotents):
        rng = random.Random(20212)
        for g in nilpotents:
            c = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
            same_series((c + g).inverse(), taylor_inverse(c + g))

    def test_exp_and_log_are_mutually_inverse(self, nilpotents):
        for g in nilpotents:
            assert g.exp().log() == g
            assert (1 + g).log().exp() == 1 + g
            assert (2 + g) * (2 + g).inverse() == 1

    @pytest.mark.parametrize("method,oracle", [
        (TruncSeries.exp, taylor_exp),
        (TruncSeries.log, taylor_log),
        (TruncSeries.inverse, taylor_inverse),
    ])
    def test_same_errors_on_bad_input(self, method, oracle):
        xy = ("x", "y")
        x = TruncSeries.var("x", xy, 5)
        alpha = ParamPoly.var("alpha")
        bad = [
            TruncSeries.constant(0, xy, 5),
            x,
            1 + x,
            2 + x,
            x * alpha + alpha,
            x + ParamPoly(("alpha",), {(0,): Fraction(1)}),
        ]
        refused = 0
        for s in bad:
            got, want = outcome(method, s), outcome(oracle, s)
            if isinstance(want, str):
                refused += 1
                assert got == want
            else:
                same_series(got, want)
        assert refused >= 2


# -- sympy cross-check --------------------------------------------------------

ORDER = 6


def sympy_expansion(build):
    """{(i, j): coefficient} of the sympy expansion up to total degree ORDER."""
    sp = pytest.importorskip("sympy")
    x, y, t, z = sp.symbols("x y t z")
    expr = build(sp, x, y, z)
    series = sp.series(expr.subs({x: t * x, y: t * y}, simultaneous=True),
                       t, 0, ORDER + 1).removeO()
    poly = sp.Poly(sp.expand(series), t, x, y)
    return {(i, j): c for (_, i, j), c in poly.terms()}, sp, z


def as_fraction(c):
    return Fraction(int(c.p), int(c.q))


class TestSympyCrossCheck:
    def test_closed_N_ab_at_alpha_beta_one(self):
        want, _, _ = sympy_expansion(
            lambda sp, x, y, z:
            sp.exp(x + y) / (1 - (sp.exp(x) - 1) * (sp.exp(y) - 1)) ** 2)
        got = closed_N_ab(ORDER).substitute_params(alpha=1, beta=1)
        assert set(got.coeffs) == set(want)
        for expo, c in want.items():
            assert got.coeffs[expo].as_fraction() == as_fraction(c)

    def test_closed_hook_log_gf(self):
        want, sp, z = sympy_expansion(
            lambda sp, x, y, z:
            -sp.log(1 - z * (sp.exp(x) - 1) * (sp.exp(y) - 1)))
        got = closed_hook_log_gf(ORDER)
        assert set(got.coeffs) == set(want)
        for expo, c in want.items():
            terms = sp.Poly(c, z).terms()
            assert got.coeffs[expo] == ParamPoly(
                ("z",), {p: as_fraction(v) for p, v in terms})


# -- the dense plan and the trusted builder -----------------------------------


def plan_by_products(caps, order, binomial=True, keep=None):
    """The plan as first written: each cell's terms grown axis by axis from
    [(1, 0)], reading weights off Pascal rows."""
    strides = [prod(c + 1 for c in caps[v + 1:]) for v in range(len(caps))]
    rows = [[comb(n, a) if binomial else 1 for a in range(n + 1)]
            for n in range(max(caps, default=0) + 1)]
    box = itertools.product(*(range(c + 1) for c in caps))
    cells = [(e, sum(map(mul, e, strides))) for e in sorted(
        (e for e in box if sum(e) <= order and (keep is None or keep(e))),
        key=sum)]
    kept = None if keep is None else {i for _, i in cells}
    terms = [()] * prod(c + 1 for c in caps)
    for e, i in cells:
        pairs = [(1, 0)]
        for ev, s in zip(e, strides):
            pairs = [(w * rows[ev][a], ia + a * s)
                     for w, ia in pairs for a in range(ev + 1)]
        if kept is not None:
            pairs = [(w, a) for w, a in pairs if a in kept and i - a in kept]
        terms[i] = tuple(pairs)
    return strides, cells, terms


def monoid(k):
    return lambda e: sum(e) % k == 0 and k * max(e) <= sum(e)


PLAN_CAPS = [(), (0,), (5,), (3, 3), (4, 1), (0, 2), (2, 3, 1), (3, 3, 3),
             (2, 2, 2, 2)]


def expanded(plan):
    """The plan with each cell's factored terms (outer, inner) multiplied
    out, outer-major, as the kernel reads them."""
    strides, cells, terms = plan
    return strides, cells, [
        tuple((w * wa, o + oa) for w, o in t[0] for wa, oa in t[1]) if t else t
        for t in terms]


@pytest.mark.parametrize("caps", PLAN_CAPS)
@pytest.mark.parametrize("binomial", [True, False])
def test_plan_matches_the_plan_by_products(caps, binomial):
    for order in range(sum(caps) + 2):
        for k in range(1, max(len(caps), 1) + 1):
            got = _plan(caps, order, binomial, k)
            want = plan_by_products(caps, order, binomial,
                                    None if k == 1 else monoid(k))
            assert expanded(got) == want
            assert all(type(t) is tuple and all(
                type(part) is tuple and all(type(p) is tuple for p in part)
                for part in t) for t in got[2])


@pytest.mark.parametrize("d,k,order", [(6, 6, 4), (5, 5, 5), (4, 2, 4),
                                       (4, 3, 4), (3, 2, 8), (5, 2, 2)])
def test_monoid_plan_of_solve_n_dk_matches_the_box_scan(d, k, order):
    # the plan solve_N_dk builds lists the monoid's cells and terms directly;
    # the box scan filters every cell and every pair a <= e
    caps = (order,) * d
    assert expanded(_plan(caps, d * order, True, k)) == plan_by_products(
        caps, d * order, True, monoid(k))


def rebuilt(s):
    """``s`` through the public constructors, which check everything."""
    return TruncSeries(s.variables, s.order, {
        e: ParamPoly(p.symbols, p.coeffs) for e, p in s.coeffs.items()},
        s.var_caps)


def same_as_rebuilt(s):
    want = rebuilt(s)
    assert type(s.variables) is tuple and s.variables == want.variables
    assert s.order == want.order
    assert s.var_caps is None or type(s.var_caps) is tuple
    assert s.var_caps == want.var_caps
    assert list(s.coeffs) == list(want.coeffs)
    for e, p in s.coeffs.items():
        assert type(e) is tuple and type(p) is ParamPoly
        assert p.symbols == want.coeffs[e].symbols
        assert list(p.coeffs.items()) == list(want.coeffs[e].coeffs.items())
        assert all(type(c) is Fraction for c in p.coeffs.values())
    assert repr(s) == repr(want)


class TestTrustedResults:
    def test_solvers(self):
        for order in range(21):
            same_as_rebuilt(solve_N(order))
        for order in range(17):
            same_as_rebuilt(solve_M(order))
        for order in range(13):
            for s in solve_Bp_Op(order):
                same_as_rebuilt(s)
        for d, k, order in DK_GRID:
            same_as_rebuilt(solve_N_dk(d, k, order))

    def test_exp_log_inverse(self, nilpotents):
        for g in nilpotents:
            same_as_rebuilt(g.exp())
            same_as_rebuilt((1 + g).log())
            same_as_rebuilt((3 + g).inverse())
        same_as_rebuilt(closed_N_ab(4))

    def test_public_constructors_still_check(self):
        with pytest.raises(ValueError, match="bad exponent"):
            TruncSeries(("x",), 3, {(-1,): 1})
        with pytest.raises(ValueError, match="bad exponent"):
            TruncSeries(("x", "y"), 3, {(1,): 1})
        with pytest.raises(ValueError, match="bad exponent"):
            ParamPoly(("q",), {(-1,): 1})
        with pytest.raises(ValueError, match="bad exponent"):
            ParamPoly(("q",), {(1, 0): 1})
        with pytest.raises(ValueError, match="one cap per variable"):
            TruncSeries(("x", "y"), 3, {}, (1,))
        # out-of-context terms and zeros are dropped, numbers wrapped
        s = TruncSeries(("x", "y"), 3, {(4, 0): 1, (1, 2): 0, (2, 1): 2,
                                        (0, 2): 5}, (2, 1))
        assert list(s.coeffs) == [(2, 1)]
        assert s.coeffs[(2, 1)].coeffs == {(): Fraction(2)}
        assert type(s.coeffs[(2, 1)].coeffs[()]) is Fraction
        x = TruncSeries.var("x", ("x",), 2, (1,))
        assert x.integral_from_zero("x") == 0
