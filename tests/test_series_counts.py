"""The solvers on integer counts over one exponent plan.

The solvers that computed the same series on ``Fraction`` coefficients in
``{exponent: coefficient}`` dicts, one ``_product_coefficient`` per
coefficient, are kept here as reference code; the new solvers must give
equal series on every case the fixed-point oracles of ``test_series.py``
do not already pin.  Beyond the exhaustive tests, the fast paths are
cross-checked against independent formulas: the Stirling-sum NAT counts,
the Catalan numbers and the closed form of the (d,d) series.
"""

import itertools
from fractions import Fraction
from math import comb, factorial, prod
from operator import sub

import pytest

from natlib.formulas import count_by_size
from natlib.natdk import MAX_CONVOLUTION_TERMS, DeskScaleError
from natlib.series import (
    TruncSeries,
    _monoid_pairs,
    solve_Bp_Op,
    solve_M,
    solve_N,
    solve_N_dk,
)
from natlib.trees import directions

# -- reference code: the dict-based solvers ---------------------------------


def product_coefficient(e, f, g):
    """[x^e] (f g) for series held as {exponent: coefficient}."""
    total = 0
    for a in itertools.product(*(range(ei + 1) for ei in e)):
        fa = f.get(a)
        if fa:
            gb = g.get(tuple(map(sub, e, a)))
            if gb:
                total += fa * gb
    return total


def exponents(order, n, var_caps=None):
    caps = var_caps or (order,) * n
    box = itertools.product(*(range(min(c, order) + 1) for c in caps))
    return sorted((e for e in box if sum(e) <= order), key=sum)


def ref_N(order):
    n = {(0, 0): Fraction(1)}
    ix, iy = {}, {}
    for total in range(1, order + 1):
        for i in range(total + 1):
            j = total - i
            e = (i, j)
            if i:
                ix[e] = n[i - 1, j] / i
            if j:
                iy[e] = n[i, j - 1] / j
            n[e] = ix.get(e, 0) + iy.get(e, 0) + product_coefficient(e, ix, iy)
    return TruncSeries(("x", "y"), order, n)


def ref_M(order):
    m = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    dx = {(0, 0): Fraction(1)}
    dy = {(0, 0): Fraction(1)}
    for total in range(2, order + 1):
        for i in range(1, total):
            j = total - i
            c = Fraction(product_coefficient((i - 1, j - 1), dx, dy), i * j)
            m[i, j] = c
            dx[i - 1, j] = c * i
            dy[i, j - 1] = c * j
    return TruncSeries(("x", "y"), order, m)


def ref_N_dk(d, k, order):
    dirs = directions(d, k)
    integrals = [{} for _ in dirs]
    partial = [{(0,) * d: Fraction(1)}] + [{} for _ in dirs]
    n = partial[-1]
    for e in exponents(d * order, d, (order,) * d):
        for pi, integral, prev, cur in zip(dirs, integrals, partial, partial[1:]):
            if all(e[i - 1] for i in pi):
                below = tuple(ei - (i in pi) for i, ei in enumerate(e, 1))
                if below in n:
                    integral[e] = Fraction(n[below], prod(e[i - 1] for i in pi))
            c = prev.get(e, 0) + product_coefficient(e, integral, prev)
            if c:
                cur[e] = c
    variables = tuple(f"x{i}" for i in range(1, d + 1))
    return TruncSeries(variables, d * order, n, (order,) * d)


def ref_Bp_Op(order):
    cells = [(n, p) for n in range(order + 1) for p in range(order + 1)]
    b, u, uu = {}, {}, {}
    for n, p in cells:
        if n == 0:
            b[n, p] = u[n, p] = int(p == 0)
        else:
            b[n, p] = uu.get((n - 1, p - 1), 0)
            u[n, p] = product_coefficient((n - 1, p), b, u)
        uu[n, p] = product_coefficient((n, p), u, u)
    o, pp, q, r = {}, {}, {}, {}
    for n, p in cells:
        if n == 0:
            pp[n, p] = q[n, p] = r[n, p] = int(p == 0)
        else:
            pp[n, p] = product_coefficient((n - 1, p), o, pp) - pp[n - 1, p]
            q[n, p] = product_coefficient((n - 1, p), o, q)
            r[n, p] = q.get((n - 1, p - 1), 0)
        o[n, p] = product_coefficient((n, p), pp, r)
    caps = (order, order)
    return (TruncSeries(("x", "t"), 2 * order, b, caps),
            TruncSeries(("x", "t"), 2 * order, o, caps))


def assert_same(new, old):
    assert (new.variables, new.order, new.var_caps) == (
        old.variables, old.order, old.var_caps)
    assert new == old
    assert all(p.symbols == () for p in new.coeffs.values())


# -- the counts solvers against the reference code ---------------------------


@pytest.mark.parametrize("order", [0, 1, 2, 3, 5, 9, 14])
def test_n(order):
    assert_same(solve_N(order), ref_N(order))


@pytest.mark.parametrize("order", [0, 1, 2, 3, 5, 9, 12])
def test_m(order):
    assert_same(solve_M(order), ref_M(order))


@pytest.mark.parametrize("order", [0, 1, 2, 3, 7, 10])
def test_bp_op(order):
    for new, old in zip(solve_Bp_Op(order), ref_Bp_Op(order)):
        assert_same(new, old)


DK_GRID = [(2, 1, 12), (2, 2, 10), (3, 1, 5), (3, 2, 4), (3, 3, 4), (4, 1, 3),
           (4, 2, 3), (4, 4, 3), (5, 1, 2), (5, 5, 2)]


@pytest.mark.parametrize("d,k,order", DK_GRID + [
    (1, 1, 6), (2, 1, 0), (3, 3, 3), (4, 3, 3), (5, 2, 2), (6, 3, 2)])
def test_n_dk(d, k, order):
    assert_same(solve_N_dk(d, k, order), ref_N_dk(d, k, order))


# -- the work guard ------------------------------------------------------------


def test_n_dk_refuses_work_beyond_the_cap():
    # 31^3 cells pass the box guard; 3 * 496^3 products do not
    with pytest.raises(DeskScaleError) as info:
        solve_N_dk(3, 1, 30)
    message = str(info.value)
    assert str(3 * 496 ** 3) in message
    assert str(MAX_CONVOLUTION_TERMS) in message


def test_n_dk_admits_work_up_to_the_cap():
    # C(d, k) ((order+1)(order+2)/2)^d terms: 3 * 78^3 is under the cap
    assert comb(3, 1) * 78 ** 3 <= MAX_CONVOLUTION_TERMS
    s = solve_N_dk(3, 1, 11)
    assert len(s.coeffs) == 12 ** 3


@pytest.mark.parametrize("d,k", [(d, k) for d in range(1, 6)
                                 for k in range(1, d + 1)])
def test_monoid_pairs_count_the_plan(d, k):
    # prod(e_v + 1) over the exponents e of the plan solve_N_dk builds
    for order in range(6 if d < 5 else 3):
        want = sum(prod(v + 1 for v in e)
                   for e in itertools.product(range(order + 1), repeat=d)
                   if sum(e) % k == 0 and k * max(e) <= sum(e))
        assert _monoid_pairs(d, k, order) == want
        if k == 1:
            assert want == ((order + 1) * (order + 2) // 2) ** d


def test_n_dk_guard_counts_the_monoid_for_k_above_one():
    # (2,2): the plan is the diagonal (n, n), with (n+1)^2 pairs each
    s = solve_N_dk(2, 2, 180)
    assert len(s.coeffs) == 181
    with pytest.raises(DeskScaleError) as info:
        solve_N_dk(2, 2, 181)
    assert str(sum((n + 1) ** 2 for n in range(182))) in str(info.value)
    # counted over the full box, (3, 3, 20) had 231^3 = 12,326,391 pairs
    assert len(solve_N_dk(3, 3, 20).coeffs) == 21


# -- cross-checks beyond the exhaustive tests ----------------------------------


def test_n_30_counts_nats_on_an_anti_diagonal():
    # [x^(i-1) y^(j-1)] N, scaled, counts the NATs of size i x j
    n = solve_N(30)
    for i in range(1, 32):
        j = 32 - i
        scaled = n.coefficient(x=i - 1, y=j - 1).as_fraction()
        scaled *= factorial(i - 1) * factorial(j - 1)
        at_one = sum(count_by_size(i, j).coeffs.values())
        assert scaled == at_one


def test_bp_slices_sum_to_catalan_numbers():
    b, _ = solve_Bp_Op(20)
    for n in range(21):
        total = sum(b.coefficient(x=n, t=p).as_fraction() for p in range(21))
        assert total == comb(2 * n, n) // (n + 1)


@pytest.mark.parametrize("d,order", [(1, 30), (2, 30), (3, 12), (3, 20),
                                     (4, 6), (5, 4), (6, 3)])
def test_dd_series_is_its_closed_form(d, order):
    # N = sum over n of (x1 ... xd)^n / (n!)^d
    s = solve_N_dk(d, d, order)
    closed = TruncSeries(s.variables, d * order, {
        (n,) * d: Fraction(1, factorial(n) ** d) for n in range(order + 1)
    }, (order,) * d)
    assert s == closed
