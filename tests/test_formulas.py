"""Closed-form counting: hook formulas, q-analogues, Stirling sums, shuffles."""

import ast
import itertools
import json
import re
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import pytest
from subtrees import dk_child, subtree_counts

import natlib
from natlib.formulas import (
    ParamPoly,
    _q_div,
    bsg,
    count_by_size,
    count_by_size_and_hook,
    dk_hook_formula,
    hook_formula,
    q_binomial,
    q_factorial,
    q_hook_formula,
    rising_factorial,
    sigma_readings,
    stirling2,
    stirling2_q,
    weight,
)
from natlib.nat_core import enumerate_nats_by_size, enumerate_nats_of_shape, nat_stats
from natlib.natdk import enumerate_dknats_of_shape
from natlib.perms import imaj, inv
from natlib.treedoc import load_document
from natlib.trees import (
    DKTree,
    Node,
    enumerate_binary_trees,
    enumerate_dk_trees,
)

FIGURES = Path(__file__).parent.parent / "demos" / "figures"

# the 8-vertex reference shape whose labelling count is 24
EX_SHAPE = Node(
    left=Node(left=Node(), right=Node()),
    right=Node(left=Node(right=Node()), right=Node()),
)


def load_figure(name):
    with open(FIGURES / name, "r", encoding="utf-8") as fh:
        return load_document(json.load(fh))


def set_partitions(items, k):
    """All partitions of ``items`` into exactly k non-empty blocks."""
    if not items:
        if k == 0:
            yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest, k):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
    for part in set_partitions(rest, k - 1):
        yield [[first]] + part


class TestParamPoly:
    def test_arithmetic_and_alignment(self):
        a = ParamPoly.var("a")
        b = ParamPoly.var("b")
        assert (a + b) * (a - b) == a * a - b * b
        assert (a + 1) ** 2 == a * a + 2 * a + 1

    def test_substitute_and_coefficient(self):
        p = (ParamPoly.var("q") + 1) ** 3
        assert p.coefficient(q=2) == 3
        assert p.substitute(q=1).as_fraction() == 8
        assert p.substitute(q=Fraction(1, 2)).as_fraction() == Fraction(27, 8)

    def test_exact_division(self):
        q = ParamPoly.var("q")
        num = q * q - 1
        assert num.exact_div_univariate(q + 1, "q") == q - 1
        with pytest.raises(ValueError):
            (q + 2).exact_div_univariate(q + 1, "q")


# -- reference code: the q-analogues on ParamPoly arithmetic -------------------


def q_int(n, symbol="q"):
    """[n]_q = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return ParamPoly((symbol,), {(i,): Fraction(1) for i in range(n)})


def q_factorial_by_products(n, symbol="q"):
    out = ParamPoly.constant(1, (symbol,))
    for m in range(1, n + 1):
        out = out * q_int(m, symbol)
    return out


def q_binomial_by_division(n, k, symbol="q"):
    if k < 0 or k > n:
        return ParamPoly.constant(0, (symbol,))
    num = q_factorial_by_products(n, symbol)
    num = num.exact_div_univariate(q_factorial_by_products(k, symbol), symbol)
    return num.exact_div_univariate(q_factorial_by_products(n - k, symbol),
                                    symbol)


def q_hook_by_division(shape):
    counts = subtree_counts(shape)
    lv, rv = counts[""]
    out = (q_factorial_by_products(lv, "q_L").in_symbols(("q_L", "q_R"))
           * q_factorial_by_products(rv, "q_R"))
    for path, (el, er) in counts.items():
        if path.endswith("L"):
            out = out.exact_div_univariate(q_int(el, "q_L"), "q_L")
        elif path.endswith("R"):
            out = out.exact_div_univariate(q_int(er, "q_R"), "q_R")
    return out


def same_poly(got, want):
    """Equal polynomials over the same symbols, with Fraction coefficients."""
    assert got == want
    assert got.symbols == want.symbols
    assert sorted(got.coeffs.items()) == sorted(want.coeffs.items())
    assert all(type(c) is Fraction for c in got.coeffs.values())
    assert repr(got) == repr(want)


class TestQPrimitives:
    def test_q_int_and_factorial(self):
        q = ParamPoly.var("q")
        assert q_int(3) == 1 + q + q * q
        assert q_factorial(3) == (1 + q) * (1 + q + q * q)
        assert q_factorial(0) == ParamPoly.constant(1, ("q",))

    def test_q_binomial_values(self):
        q = ParamPoly.var("q")
        assert q_binomial(4, 2) == 1 + q + 2 * q ** 2 + q ** 3 + q ** 4
        assert q_binomial(3, 5) == ParamPoly.constant(0, ("q",))
        assert q_binomial(5, 0) == ParamPoly.constant(1, ("q",))

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 9)
                                     for k in range(1, n + 1)])
    def test_q_pascal_identity(self, n, k):
        q = ParamPoly.var("q")
        lhs = q_binomial(n, k)
        rhs = q_binomial(n - 1, k - 1) + q ** k * q_binomial(n - 1, k)
        assert lhs == rhs

    @pytest.mark.parametrize("symbol", ["q", "q_L"])
    def test_dense_q_factorial_and_binomial_match_division(self, symbol):
        for n in range(-1, 13):
            same_poly(q_factorial(n, symbol), q_factorial_by_products(n, symbol))
            for k in range(-1, n + 2):
                same_poly(q_binomial(n, k, symbol),
                          q_binomial_by_division(n, k, symbol))

    def test_inexact_q_division_raises(self):
        assert _q_div([1, 2, 2, 1], 3) == [1, 1]  # (1 + q)[3]_q
        with pytest.raises(ArithmeticError):
            _q_div([1, 0, 1], 2)  # 1 + q^2 over 1 + q
        with pytest.raises(ArithmeticError):
            _q_div([1], 2)

    def test_rising_factorial(self):
        x = ParamPoly.var("x")
        assert rising_factorial(x, 0) == ParamPoly.constant(1, ("x",))
        assert rising_factorial(x, 3) == x * (x + 1) * (x + 2)
        two = ParamPoly.constant(2)
        assert rising_factorial(two, 3).as_fraction() == 24  # 2*3*4


class TestStirling:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_stirling2_against_partition_enumeration(self, n):
        for k in range(0, n + 1):
            oracle = sum(1 for _ in set_partitions(list(range(1, n + 1)), k))
            assert stirling2(n, k) == oracle

    @staticmethod
    def stirling2_recursive(n, k):
        """The two-branch recursion ``stirling2`` used to be."""
        if n == 0 and k == 0:
            return 1
        if n <= 0 or k <= 0 or k > n:
            return 0
        return (TestStirling.stirling2_recursive(n - 1, k - 1)
                + k * TestStirling.stirling2_recursive(n - 1, k))

    def test_stirling2_against_the_recursion(self):
        for n in range(-1, 21):
            for k in range(-1, n + 2):
                assert stirling2(n, k) == self.stirling2_recursive(n, k)

    def test_stirling2_against_sympy(self):
        sympy_stirling = pytest.importorskip(
            "sympy.functions.combinatorial.numbers").stirling
        for n in range(0, 61):
            for k in range(0, n + 1):
                assert stirling2(n, k) == sympy_stirling(n, k, kind=2)

    def test_stirling2_q_reference_values(self):
        q = ParamPoly.var("q")
        assert stirling2_q(3, 2) == 1 + 2 * q
        assert stirling2_q(4, 2) == 1 + 3 * q + 3 * q ** 2
        assert stirling2_q(4, 3) == 3 + 3 * q

    @pytest.mark.parametrize("n", range(1, 8))
    def test_stirling2_q_against_partition_enumeration(self, n):
        # the power of q counts the elements other than n in n's block
        q = ParamPoly.var("q")
        for k in range(1, n + 1):
            oracle = ParamPoly.constant(0, ("q",))
            for part in set_partitions(list(range(1, n + 1)), k):
                block = next(b for b in part if n in b)
                oracle = oracle + q ** (len(block) - 1)
            assert stirling2_q(n, k) == oracle

    def test_stirling2_q_at_one(self):
        for n in range(1, 8):
            for k in range(0, n + 1):
                assert stirling2_q(n, k).substitute(q=1).as_fraction() == \
                    stirling2(n, k)


class TestHookFormula:
    def test_single_node(self):
        assert hook_formula(Node()) == 1

    def test_reference_shape_is_24(self):
        assert hook_formula(EX_SHAPE) == 24

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            hook_formula(None)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_enumeration(self, n):
        for shape in enumerate_binary_trees(n):
            assert hook_formula(shape) == len(enumerate_nats_of_shape(shape))


class TestQHookFormula:
    def test_reference_polynomial(self):
        ql = ParamPoly.var("q_L", ("q_L", "q_R"))
        qr = ParamPoly.var("q_R", ("q_L", "q_R"))
        expected = ((qr ** 3 + qr ** 2 + qr + 1)
                    * (ql ** 2 + ql + 1) * (qr + 1))
        assert q_hook_formula(EX_SHAPE) == expected
        assert q_hook_formula(EX_SHAPE).coefficient(q_R=2, q_L=1) == 2

    @pytest.mark.parametrize("n", range(1, 7))
    def test_specializes_to_hook_formula(self, n):
        for shape in enumerate_binary_trees(n):
            poly = q_hook_formula(shape)
            assert poly.substitute(q_L=1, q_R=1).as_fraction() == \
                hook_formula(shape)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_division_on_every_small_shape(self, n):
        # all 2,055 shapes of 1 to 8 vertices
        for shape in enumerate_binary_trees(n):
            same_poly(q_hook_formula(shape), q_hook_by_division(shape))

    def test_two_long_chains(self):
        # a 19-vertex left chain and a 20-vertex right chain under the root:
        # every [EL] and [ER] cancels a factor of [19]! or [20]!, which the
        # division by ParamPoly took seconds to find
        left = right = None
        for _ in range(19):
            left = Node(left, None)
        for _ in range(20):
            right = Node(None, right)
        start = time.perf_counter()
        poly = q_hook_formula(Node(left, right))
        assert time.perf_counter() - start < 2
        same_poly(poly, ParamPoly.constant(1, ("q_L", "q_R")))

    @pytest.mark.parametrize("statistic", ["inv", "imaj"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_weight_sum(self, n, statistic):
        for shape in enumerate_binary_trees(n):
            total = ParamPoly.constant(0, ("q_L", "q_R"))
            for t in enumerate_nats_of_shape(shape):
                total = total + weight(t, statistic)
            assert total == q_hook_formula(shape)


class TestSigmaReadings:
    def test_reference_tree(self):
        t = load_figure("sigma_example.json")
        sigma_l, sigma_r = sigma_readings(t)
        assert sigma_l == (2, 1, 4, 3, 6, 10, 8, 9, 5, 7)
        assert sigma_r == (1, 2, 3, 4, 5, 7, 11, 9, 6, 8, 10)
        assert weight(t, "inv").coefficient(q_L=11, q_R=7) == 1
        assert weight(t, "imaj").coefficient(q_L=25, q_R=24) == 1

    def test_single_node(self):
        from natlib.nat_core import SINGLE_NODE_NAT

        assert sigma_readings(SINGLE_NODE_NAT) == ((), ())
        assert weight(SINGLE_NODE_NAT, "inv") == ParamPoly.constant(
            1, ("q_L", "q_R"))

    def test_left_chain_reads_identity(self):
        shape = Node(Node(Node()), None)
        t_labels = {"L": 2, "LL": 1}
        from natlib.nat_core import Nat

        t = Nat.from_labels(shape, t_labels, {})
        sigma_l, sigma_r = sigma_readings(t)
        assert sigma_l == (1, 2)
        assert sigma_r == ()


class TestCountBySize:
    def test_one_by_one(self):
        assert count_by_size(1, 1) == ParamPoly.constant(1, ("alpha", "beta"))

    @pytest.mark.parametrize("i,j", [(i, j) for i in range(1, 5)
                                     for j in range(1, 5)])
    def test_against_branch_statistics(self, i, j):
        # coefficient of alpha^a beta^b counts trees with branch
        # lengths (a, b)
        histogram = Counter()
        for t in enumerate_nats_by_size(i, j):
            s = nat_stats(t)
            histogram[(s.lo, s.ro)] += 1
        poly = count_by_size(i, j)
        for (a, b), c in histogram.items():
            assert poly.coefficient(alpha=a, beta=b) == c
        total = poly.substitute(alpha=1, beta=1).as_fraction()
        assert total == sum(histogram.values())

    @pytest.mark.parametrize("i,j", [(i, j) for i in range(1, 6)
                                     for j in range(1, 6) if i + j <= 10])
    def test_hook_sum_identity(self, i, j):
        total = sum(count_by_size_and_hook(i, j, p)
                    for p in range(1, min(i, j) + 1))
        assert total == count_by_size(i, j).substitute(
            alpha=1, beta=1).as_fraction()

    @pytest.mark.parametrize("i,j", [(i, j) for i in range(1, 5)
                                     for j in range(1, 5)])
    def test_hook_histogram(self, i, j):
        histogram = Counter()
        for t in enumerate_nats_by_size(i, j):
            histogram[nat_stats(t).hook] += 1
        for p in range(1, min(i, j) + 1):
            assert count_by_size_and_hook(i, j, p) == histogram.get(p, 0)

    def test_trivial_hook_count(self):
        assert count_by_size_and_hook(1, 1, 1) == 1

    def test_hook_beyond_the_size_counts_nothing_at_once(self):
        start = time.perf_counter()
        assert count_by_size_and_hook(3, 3, 200_000) == 0
        assert time.perf_counter() - start < 0.1


class TestBsg:
    def test_reference_example(self):
        out = bsg((2, 1), (1, 2))
        expected = {
            (2, 1, 3, 4, 5), (2, 1, 4, 3, 5), (2, 1, 5, 3, 4),
            (3, 1, 4, 2, 5), (3, 1, 5, 2, 4), (4, 1, 5, 2, 3),
            (3, 2, 4, 1, 5), (3, 2, 5, 1, 4), (4, 2, 5, 1, 3),
            (4, 3, 5, 1, 2),
        }
        assert set(out) == expected
        assert len(out) == 10

    def test_empty_inputs(self):
        assert bsg((), ()) == [(1,)]

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(0, 4)
                                     for n in range(0, 4) if m + n <= 5])
    def test_shuffle_lemma(self, m, n):
        q = ParamPoly.var("q")
        stats = {"inv": inv, "imaj": imaj}
        for tau in itertools.permutations(range(1, m + 1)):
            for mu in itertools.permutations(range(1, n + 1)):
                words = bsg(tau, mu)
                for name, stat in stats.items():
                    total = ParamPoly.constant(0, ("q",))
                    for w in words:
                        total = total + q ** stat(w)
                    expected = (q ** (stat(tau) + stat(mu))
                                * q_binomial(m + n + 1, m + 1))
                    assert total == expected, (name, tau, mu)


class TestDKHookFormula:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_21_matches_binary_hook_formula(self, n):
        # (2,1)-ary trees are binary trees: direction (1,) = left child
        def to_binary(t: DKTree) -> Node:
            left = dk_child(t, (1,))
            right = dk_child(t, (2,))
            return Node(
                to_binary(left) if left is not None else None,
                to_binary(right) if right is not None else None,
            )

        for t in enumerate_dk_trees(2, 1, n):
            assert isinstance(t, DKTree)
            assert dk_hook_formula(t) == hook_formula(to_binary(t))

    @pytest.mark.parametrize("d", [2, 3])
    def test_dd_chain_counts_one(self, d):
        full = tuple(range(1, d + 1))
        t = DKTree(d, d, ())
        for _ in range(3):
            t = DKTree(d, d, ((full, t),))
            assert dk_hook_formula(t) == 1
            assert len(enumerate_dknats_of_shape(t)) == 1

    @pytest.mark.parametrize("d,k", [(3, 1), (3, 2)])
    def test_matches_brute_force(self, d, k):
        for n in range(1, 5):
            for t in enumerate_dk_trees(d, k, n):
                if not isinstance(t, DKTree):
                    continue
                assert dk_hook_formula(t) == len(enumerate_dknats_of_shape(t))


def test_library_checks_survive_optimized_mode():
    # python -O strips assert statements, so the library raises instead
    paths = sorted(Path(natlib.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        asserts = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Assert)]
        assert asserts == [], f"{path.name} has assert statements at {asserts}"


def test_library_imports_are_used():
    # a name imported into a module is used there or re-exported by __all__
    paths = sorted(Path(natlib.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {
            name
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)
        }
        unused = sorted(imported - used - exported)
        assert unused == [], f"{path.name} imports {unused} but never uses them"


def test_library_definitions_are_referenced():
    # every def and class of the library is named outside its own body, as a
    # name, an attribute or a word of a string (``__all__``, the tracer's
    # layer names), in the library, the tests, the benchmark or the demos;
    # dunder methods are called by Python itself
    library = Path(natlib.__file__).parent
    root = library.parents[1]
    where = defaultdict(list)  # word -> [(path, line)]
    for folder in ("src", "tests", "perfbench", "demos"):
        for path in sorted((root / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    words = [node.id]
                elif isinstance(node, ast.Attribute):
                    words = [node.attr]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    words = re.findall(r"\w+", node.value)
                else:
                    continue
                for word in words:
                    where[word].append((path, node.lineno))
    unreferenced = []
    for path in sorted(library.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or re.fullmatch(r"__\w+__", node.name)):
                continue
            if all(p == path and node.lineno <= line <= node.end_lineno
                   for p, line in where[node.name]):
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    assert unreferenced == []
