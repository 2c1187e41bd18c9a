"""Truncated series: ring operations, fixed points, closed-form cross-checks."""

from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

from natlib.formulas import ParamPoly, count_by_size, count_by_size_and_hook
from natlib.nat_core import enumerate_nats_by_size, nat_stats
from natlib.series import (
    TruncSeries,
    closed_hook_gf,
    closed_hook_log_gf,
    closed_N_ab,
    solve_Bp_Op,
    solve_M,
    solve_N,
    solve_N_dk,
)
from natlib.trees import (
    Empty,
    Node,
    directions,
    enumerate_binary_trees,
    hook_partition,
)

XY = ("x", "y")


def pump(f, g):
    """B(f, g) = int_0^x int_0^y (d/dy f)(d/dx g)."""
    product = f.partial_derivative("y") * g.partial_derivative("x")
    return product.integral_from_zero("x").integral_from_zero("y")


def phi_weight(w, variables, order, var_caps=None):
    """The monomial prod x_i^(w_i) / w_i! attached to a geometric size."""
    coeff = Fraction(1, prod(map(factorial, w)))
    return TruncSeries(variables, order, {tuple(w): ParamPoly.constant(coeff)},
                       var_caps)


def s_var(name, order=8):
    return TruncSeries.var(name, XY, order)


class TestRingOperations:
    def test_addition_and_multiplication(self):
        x, y = s_var("x"), s_var("y")
        assert (x + y) * (x - y) == x * x - y * y
        assert (1 + x) ** 3 == 1 + 3 * x + 3 * x * x + x ** 3

    def test_truncation_drops_high_degrees(self):
        x = TruncSeries.var("x", ("x",), 3)
        assert x ** 4 == TruncSeries.constant(0, ("x",), 3)

    def test_var_caps(self):
        x = TruncSeries.var("x", XY, 6, var_caps=(2, 6))
        assert x ** 3 == TruncSeries.constant(0, XY, 6, var_caps=(2, 6))

    def test_incompatible_contexts_rejected(self):
        with pytest.raises(ValueError):
            s_var("x", 8) + s_var("x", 9)

    def test_exp_log_roundtrip(self):
        x, y = s_var("x"), s_var("y")
        f = x + 2 * y + x * y
        assert f.exp().log() == f
        assert (1 + f).log().exp() == 1 + f

    def test_exp_requires_nilpotent(self):
        with pytest.raises(ValueError):
            (1 + s_var("x")).exp()

    def test_inverse(self):
        x = s_var("x")
        f = 2 + x
        assert f * f.inverse() == TruncSeries.constant(1, XY, 8)
        with pytest.raises(ValueError):
            x.inverse()

    def test_derivative_integral(self):
        x, y = s_var("x"), s_var("y")
        f = x ** 2 * y + 3 * x
        assert f.partial_derivative("x") == 2 * x * y + 3
        assert (x ** 2).integral_from_zero("x") == x ** 3 * Fraction(1, 3)

    def test_composition(self):
        x, y = s_var("x"), s_var("y")
        f = 1 + x + x ** 2
        g = y + y ** 2
        expected = 1 + g + g * g
        assert f.compose_into_nilpotent(g, "x") == expected

    def test_parameter_coefficients(self):
        a = ParamPoly.var("alpha")
        x = s_var("x")
        f = x * a + x * x
        assert f.coefficient(x=1) == a
        assert f.substitute_params(alpha=2).coefficient(x=1) == \
            ParamPoly.constant(2)


# counts of labelled trees by geometric size, frozen from enumeration
COUNTS = {
    (1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 3, (2, 3): 7, (3, 2): 7,
    (3, 3): 31, (2, 4): 15, (4, 2): 15, (3, 4): 115, (4, 3): 115,
    (4, 4): 675,
}


class TestSolveN:
    def test_coefficients_are_scaled_counts(self):
        n = solve_N(8)
        for (i, j), c in COUNTS.items():
            coeff = n.coefficient(x=i - 1, y=j - 1).as_fraction()
            assert coeff * factorial(i - 1) * factorial(j - 1) == c

    def test_matches_closed_form(self):
        n = solve_N(8)
        closed = closed_N_ab(8).substitute_params(alpha=1, beta=1)
        assert n == closed

    def test_fixed_point_equation_holds(self):
        n = solve_N(8)
        rhs = ((1 + n.integral_from_zero("x"))
               * (1 + n.integral_from_zero("y")))
        # integration is exact here, no truncation slack needed
        assert n == rhs


class TestSolveM:
    def test_n_is_mixed_second_derivative(self):
        m = solve_M(8)
        lhs = m.partial_derivative("x").partial_derivative("y").truncate(6)
        assert lhs == solve_N(8).truncate(6)

    def test_linear_part(self):
        m = solve_M(8)
        assert m.coefficient(x=1).as_fraction() == 1
        assert m.coefficient(y=1).as_fraction() == 1
        assert m.constant_term().as_fraction() == 0


class TestClosedHookGF:
    @pytest.mark.parametrize("i,j", [(i, j) for i in range(1, 4)
                                     for j in range(1, 4)])
    def test_matches_weighted_enumeration(self, i, j):
        gf = closed_hook_gf(6)
        alpha = ParamPoly.var("alpha", ("alpha", "beta", "z"))
        beta = ParamPoly.var("beta", ("alpha", "beta", "z"))
        z = ParamPoly.var("z", ("alpha", "beta", "z"))
        total = ParamPoly.constant(0, ("alpha", "beta", "z"))
        for t in enumerate_nats_by_size(i, j):
            s = nat_stats(t)
            total = total + alpha ** s.lo * beta ** s.ro * z ** s.hook
        coeff = gf.coefficient(x=i - 1, y=j - 1)
        scale = Fraction(1, factorial(i - 1) * factorial(j - 1))
        assert coeff == total * scale

    @pytest.mark.parametrize("i,j", [(1, 1), (2, 2), (3, 2), (3, 3)])
    def test_log_gf_counts_by_hook(self, i, j):
        gf = closed_hook_log_gf(6)
        coeff = gf.coefficient(x=i, y=j)
        for p in range(1, min(i, j) + 1):
            got = coeff.coefficient(z=p) * factorial(i) * factorial(j)
            assert got == count_by_size_and_hook(i, j, p)


class TestPumpingIdentity:
    @staticmethod
    def _phi_sum(trees, order=8):
        total = TruncSeries.constant(0, XY, order)
        for t in trees:
            if isinstance(t, Empty):
                w = (0, 1) if t.side == "L" else (1, 0)
            else:
                w = (t.w_l, t.w_r)
            total = total + phi_weight(w, XY, order)
        return total

    @pytest.mark.parametrize("n", range(1, 7))
    def test_shape_sum_is_pump_of_subtree_sums(self, n):
        from natlib.nat_core import enumerate_nats_of_shape
        from natlib.trees import EMPTY_LEFT, EMPTY_RIGHT

        for shape in enumerate_binary_trees(n):
            left = shape.left if shape.left is not None else EMPTY_LEFT
            right = shape.right if shape.right is not None else EMPTY_RIGHT
            lhs = self._phi_sum(enumerate_nats_of_shape(shape))
            rhs = pump(self._phi_sum(enumerate_nats_of_shape(left)),
                       self._phi_sum(enumerate_nats_of_shape(right)))
            assert lhs == rhs


class TestSolveNdk:
    def test_21_equals_n(self):
        ndk = solve_N_dk(2, 1, 6)
        renamed = ndk.rename_variables({"x1": "x", "x2": "y"})
        plain = TruncSeries(XY, 6, {e: p for e, p in renamed.coeffs.items()
                                    if sum(e) <= 6})
        assert plain == solve_N(6)

    @pytest.mark.parametrize("d", [2, 3])
    def test_dd_diagonal(self, d):
        s = solve_N_dk(d, d, 3)
        for expo, poly in s.coeffs.items():
            # only diagonal monomials appear, with coefficient 1/(n!)^d
            assert len(set(expo)) == 1
            n = expo[0]
            assert poly.as_fraction() == Fraction(1, factorial(n) ** d)

    def test_restriction_drops_a_dimension(self):
        s3 = solve_N_dk(3, 1, 4).restrict_zero("x3")
        s2 = solve_N_dk(2, 1, 4)
        for expo, poly in s2.coeffs.items():
            if sum(expo) <= 4:
                assert s3.coeffs.get(expo, ParamPoly.constant(0)) == poly


class TestBpOp:
    def test_series_are_equal(self):
        b, o = solve_Bp_Op(8)
        assert b == o

    @pytest.mark.parametrize("n", range(1, 8))
    def test_slices_are_hook_histograms(self, n):
        b, _ = solve_Bp_Op(8)
        histogram = Counter()
        for t in enumerate_binary_trees(n):
            assert isinstance(t, Node)
            histogram[hook_partition(t).hook_count] += 1
        for k in range(0, n + 1):
            coeff = b.coefficient(x=n, t=k).as_fraction()
            assert coeff == histogram.get(k, 0)


# The functional equations as one Picard step each, on TruncSeries
# arithmetic alone.  Their fixed point is unique in the truncated ring, so a
# solver's output is right exactly when one step leaves it unchanged.


def _one(s):
    return TruncSeries.constant(1, s.variables, s.order, s.var_caps)


def _var(s, name):
    return TruncSeries.var(name, s.variables, s.order, s.var_caps)


def step_n(n):
    one = _one(n)
    return (one + n.integral_from_zero("x")) * (one + n.integral_from_zero("y"))


def step_m(m):
    prod = m.partial_derivative("x") * m.partial_derivative("y")
    return (_var(m, "x") + _var(m, "y")
            + prod.integral_from_zero("x").integral_from_zero("y"))


def step_n_dk(n, k):
    one = out = _one(n)
    for pi in directions(len(n.variables), k):
        term = n
        for i in pi:
            term = term.integral_from_zero(f"x{i}")
        out = out * (one + term)
    return out


def step_b(b):
    one, x, t = _one(b), _var(b, "x"), _var(b, "t")
    return one + x * t * ((one - x * b).inverse()) ** 2


def step_o(o):
    one, x, t = _one(o), _var(o, "x"), _var(o, "t")
    return ((one - x * (o - one)).inverse()
            * (one + x * t * (one - x * o).inverse()))


class TestFixedPointOracles:
    def test_n(self):
        n = solve_N(20)
        assert (n.variables, n.order, n.var_caps) == (XY, 20, None)
        assert step_n(n) == n

    def test_n_counts_nats_by_size(self):
        n = solve_N(20)
        for i in range(21):
            for j in range(21 - i):
                scaled = n.coefficient(x=i, y=j) * factorial(i) * factorial(j)
                # the coefficient sum is the value at alpha = beta = 1
                at_one = sum(count_by_size(i + 1, j + 1).coeffs.values())
                assert scaled.as_fraction() == at_one

    def test_m(self):
        m = solve_M(16)
        assert (m.variables, m.order, m.var_caps) == (XY, 16, None)
        assert step_m(m) == m

    @pytest.mark.parametrize("d,k,order", [(2, 1, 10), (3, 1, 6), (3, 2, 4)])
    def test_n_dk(self, d, k, order):
        s = solve_N_dk(d, k, order)
        variables = tuple(f"x{i}" for i in range(1, d + 1))
        assert (s.variables, s.order, s.var_caps) == (
            variables, d * order, (order,) * d)
        assert step_n_dk(s, k) == s

    def test_bp_and_op_each_solve_their_own_equation(self):
        b, o = solve_Bp_Op(12)
        for s in (b, o):
            assert (s.variables, s.order, s.var_caps) == (("x", "t"), 24, (12, 12))
        assert step_b(b) == b
        assert step_o(o) == o

    def test_coefficients_are_constant_polynomials(self):
        for s in (solve_N(6), solve_M(6), solve_N_dk(3, 1, 2), *solve_Bp_Op(4)):
            assert s.coeffs
            assert all(p.symbols == () for p in s.coeffs.values())
