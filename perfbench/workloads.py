"""The four benchmark workloads: inputs, timed calls and output checks.

A workload object is built once per run around ``lib``, the namespace of
natlib modules the run imported (see ``run.load_natlib``).  Calls look every
library function up on its module at call time, so the tracer's wrappers
are seen when they are installed.

- ``generate(rng)`` returns one *set* of inputs in a seeded order; the timed
  loop repeats the set.
- ``call(inp)`` is the timed unit of work.
- ``items(inp)`` is the number of items the call should produce, and
  ``verify(inp, out)`` raises ``Mismatch`` when the output is wrong; both
  run outside the timed region.  Every oracle takes another code path than the call it
  checks (closed formulas, another solver, an inverse map) and is cached
  per input, so repeating a set costs only a comparison with ``digest``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import factorial

from sampler import random_nat, random_shape


class Mismatch(Exception):
    """An output disagrees with its oracle."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


# -- exact values outside the library's own arithmetic ----------------------


def canon(poly) -> tuple:
    """A ParamPoly as sorted (monomial, coefficient) pairs, symbols by name."""
    return tuple(sorted(
        (tuple((s, e) for s, e in zip(poly.symbols, expo) if e), c)
        for expo, c in poly.coeffs.items() if c
    ))


def at_one(poly, keep: tuple[str, ...] = ()) -> dict[tuple[int, ...], Fraction]:
    """Set every symbol outside ``keep`` to 1: exponents of ``keep`` -> value."""
    out: dict[tuple[int, ...], Fraction] = {}
    for expo, c in poly.coeffs.items():
        powers = dict(zip(poly.symbols, expo))
        key = tuple(powers.get(s, 0) for s in keep)
        out[key] = out.get(key, Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def const(poly) -> Fraction:
    """The value of a constant ParamPoly (0 for a missing coefficient)."""
    if poly is None:
        return Fraction(0)
    expect(not any(any(e) for e in poly.coeffs), f"non-constant coefficient {poly}")
    return sum(poly.coeffs.values(), Fraction(0))


def series_digest(s) -> tuple:
    return (s.variables, s.order, s.var_caps,
            tuple(sorted((e, canon(p)) for e, p in s.coeffs.items())))


def scaled(s, expo: tuple[int, ...]) -> Fraction:
    """prod(e!) * [x^expo] s: the count behind an exponential coefficient."""
    value = const(s.coeffs.get(expo))
    for e in expo:
        value *= factorial(e)
    return value


class Workload:
    name = ""
    # stop the timed loop only at the end of a set (few, unequal calls)
    whole_sets = False
    # the call_tail_ms percentile: the highest of 50/75/90/95/99 that leaves
    # at least ten samples beyond it, with room to spare, at the sample count
    # of baseline.json, and at least ten distinct inputs where the set has
    # that many; fixed so that parent and change compare the same rank
    tail_pct = 99.0

    def __init__(self, lib):
        self.lib = lib
        self._counts: dict[tuple[int, int], int] = {}

    def items(self, inp) -> int:
        """Items the call for ``inp`` should produce, from the oracle."""
        return 1

    def digest(self, out):
        return out

    def count(self, i: int, j: int) -> int:
        """NATs of geometric size i x j, from the Stirling-sum formula."""
        if (i, j) not in self._counts:
            total = at_one(self.lib.formulas.count_by_size(i, j)).get((), 0)
            self._counts[(i, j)] = int(total)
        return self._counts[(i, j)]

    def hooks(self, i: int, j: int) -> dict[int, int]:
        """Hook histogram of the NATs of size i x j, from the closed formula."""
        cbh = self.lib.formulas.count_by_size_and_hook
        return {p: cbh(i, j, p) for p in range(1, min(i, j) + 1)}


# --------------------------------------------------------------------------
# series: fixed-point solvers on parameter-free series
# --------------------------------------------------------------------------


class Series(Workload):
    name = "series"
    whole_sets = True
    tail_pct = 75.0
    CALLS = (
        ("solve_N", (10,)),
        ("solve_M", (10,)),
        ("solve_Bp_Op", (7,)),
        ("solve_N_dk", (2, 1, 6)),
        ("solve_N_dk", (3, 1, 3)),
    )
    # (3,1) coefficients of total degree up to this are checked against the
    # dk hook formula summed over shapes; the others by restriction
    DK_ORACLE_DEGREE = 5

    def __init__(self, lib):
        super().__init__(lib)
        self._shape_hooks: dict[int, Counter] = {}
        self._dk31: dict[tuple[int, ...], int] | None = None

    def generate(self, rng):
        calls = list(self.CALLS)
        rng.shuffle(calls)
        return calls

    def call(self, inp):
        fn, args = inp
        return getattr(self.lib.series, fn)(*args)

    def digest(self, out):
        if isinstance(out, tuple):
            return tuple(series_digest(s) for s in out)
        return series_digest(out)

    def verify(self, inp, out) -> None:
        fn, args = inp
        getattr(self, "_check_" + fn)(out, *args)

    def _check_solve_N(self, s, order):
        expect(s.variables == ("x", "y"), "N must be a series in x, y")
        expect(all(sum(e) <= order for e in s.coeffs), "N has terms beyond its order")
        for a in range(order + 1):
            for b in range(order + 1 - a):
                expect(scaled(s, (a, b)) == self.count(a + 1, b + 1),
                       f"N: {a}!{b}![x^{a} y^{b}] is not count_by_size({a + 1}, {b + 1})")

    def _check_solve_M(self, m, order):
        # N = d/dx d/dy M, so (a+1)!(b+1)! [x^(a+1) y^(b+1)] M counts NATs
        expect(m.variables == ("x", "y"), "M must be a series in x, y")
        edge = {e for e in m.coeffs if 0 in e}
        expect(edge == {(1, 0), (0, 1)}, f"M has boundary terms {sorted(edge)}")
        expect(scaled(m, (1, 0)) == 1 == scaled(m, (0, 1)), "M must start x + y")
        for a in range(order - 1):
            for b in range(order - 1 - a):
                expect(scaled(m, (a + 1, b + 1)) == self.count(a + 1, b + 1),
                       f"M: coefficient of x^{a + 1} y^{b + 1} is not a NAT count")

    def _shape_hook_counts(self, n: int) -> Counter:
        """Binary shapes with n vertices by hook number, by enumeration."""
        if n not in self._shape_hooks:
            trees = self.lib.trees
            self._shape_hooks[n] = Counter(
                trees.hook_partition(s).hook_count
                for s in trees.enumerate_binary_trees(n)
            )
        return self._shape_hooks[n]

    def _check_solve_Bp_Op(self, out, order):
        b, o = out
        expect(series_digest(b) == series_digest(o), "B_p differs from O_p")
        expect(b.variables == ("x", "t"), "B_p must be a series in x, t")
        expect(const(b.coeffs.get((0, 0))) == 1, "B_p must start at 1")
        for n in range(1, order + 1):
            hooks = self._shape_hook_counts(n)
            got = {p: const(b.coeffs.get((n, p))) for p in range(order + 1)}
            want = {p: hooks.get(p, 0) for p in range(order + 1)}
            expect(got == want, f"B_p: x^{n} does not count shapes by hooks")
        expect(all(e[0] <= order and e[1] <= order for e in b.coeffs),
               "B_p has terms beyond its caps")

    def _dk31_counts(self) -> dict[tuple[int, ...], int]:
        """(3,1)-NATs by geometric size, from the dk hook formula."""
        if self._dk31 is None:
            trees, natdk, formulas = self.lib.trees, self.lib.natdk, self.lib.formulas
            counts: dict[tuple[int, ...], int] = {}
            for n in range(1, self.DK_ORACLE_DEGREE + 2):
                for shape in trees.enumerate_dk_trees(3, 1, n):
                    w = natdk.geometric_size(shape)
                    counts[w] = counts.get(w, 0) + formulas.dk_hook_formula(shape)
            self._dk31 = counts
        return self._dk31

    def _check_solve_N_dk(self, s, d, k, order):
        box = list(itertools.product(range(order + 1), repeat=d))
        expect(set(s.coeffs) <= set(box), "N_dk has terms outside its box")
        for expo in box:
            got = scaled(s, expo)
            rest = [e for e in expo if e]
            if len(rest) <= 2:
                # a zero coordinate restricts (d,1) to (d-1,1); (2,1) is N
                a, b = (rest + [0, 0])[:2]
                want = self.count(a + 1, b + 1)
            elif sum(expo) <= self.DK_ORACLE_DEGREE:
                want = self._dk31_counts().get(tuple(e + 1 for e in expo), 0)
            else:
                expect(got > 0 and got.denominator == 1,
                       f"N_dk: {expo} does not scale to a positive count")
                continue
            expect(got == want, f"N_dk({d},{k}): coefficient {expo} scales to "
                                f"{got}, expected {want}")


# --------------------------------------------------------------------------
# qpoly: parametric ParamPoly work
# --------------------------------------------------------------------------


class QPoly(Workload):
    name = "qpoly"
    HOOK_SHAPE_SIZE = 7
    SHUFFLE_TOTAL = 6  # |tau| + |mu|
    SIZE_TOTAL = 14  # i + j for count_by_size
    HOOK_GF_ORDER = 7

    def __init__(self, lib):
        super().__init__(lib)
        self._q_binomial: dict[tuple[int, int], dict] = {}

    def generate(self, rng):
        calls = [("q_hook", s)
                 for s in self.lib.trees.enumerate_binary_trees(self.HOOK_SHAPE_SIZE)]
        for m in range(self.SHUFFLE_TOTAL + 1):
            for n in range(self.SHUFFLE_TOTAL + 1 - m):
                for tau in itertools.permutations(range(1, m + 1)):
                    for mu in itertools.permutations(range(1, n + 1)):
                        calls.append(("shuffle", tau, mu, "inv"))
                        calls.append(("shuffle", tau, mu, "imaj"))
        calls += [("count_by_size", i, j)
                  for i in range(1, self.SIZE_TOTAL)
                  for j in range(1, self.SIZE_TOTAL + 1 - i)]
        calls.append(("closed_hook_gf", self.HOOK_GF_ORDER))
        rng.shuffle(calls)
        return calls

    def call(self, inp):
        formulas = self.lib.formulas
        kind = inp[0]
        if kind == "q_hook":
            return formulas.q_hook_formula(inp[1])
        if kind == "shuffle":
            _, tau, mu, stat = inp
            stat_fn = getattr(self.lib.perms, stat)
            q = formulas.ParamPoly.var("q")
            total = formulas.ParamPoly.constant(0, ("q",))
            for w in formulas.bsg(tau, mu):
                total = total + q ** stat_fn(w)
            return total
        if kind == "count_by_size":
            return formulas.count_by_size(inp[1], inp[2])
        return self.lib.series.closed_hook_gf(inp[1])

    def digest(self, out):
        if isinstance(out, self.lib.formulas.ParamPoly):
            return canon(out)
        return series_digest(out)

    def verify(self, inp, out) -> None:
        formulas = self.lib.formulas
        kind = inp[0]
        if kind == "q_hook":
            value = at_one(out).get((), 0)
            expect(value == formulas.hook_formula(inp[1]),
                   "q_hook_formula at q = 1 differs from hook_formula")
        elif kind == "shuffle":
            _, tau, mu, stat = inp
            stat_fn = getattr(self.lib.perms, stat)
            shift = stat_fn(tau) + stat_fn(mu)
            m, n = len(tau), len(mu)
            if (m, n) not in self._q_binomial:
                qb = formulas.q_binomial(m + n + 1, m + 1)
                self._q_binomial[(m, n)] = at_one(qb, ("q",))
            want = {(e + shift,): c for (e,), c in self._q_binomial[(m, n)].items()}
            expect(set(out.symbols) <= {"q"} and at_one(out, ("q",)) == want,
                   f"shuffle sum of q^{stat} over bsg{tau, mu} is not the q-binomial")
        elif kind == "count_by_size":
            _, i, j = inp
            expect(at_one(out).get((), 0) == sum(self.hooks(i, j).values()),
                   f"count_by_size({i}, {j}) at alpha = beta = 1 is wrong")
        else:
            self._check_hook_gf(out, inp[1])

    def _check_hook_gf(self, gf, order):
        expect(all(sum(e) <= order for e in gf.coeffs), "hook series beyond its order")
        for a in range(order + 1):
            for b in range(order + 1 - a):
                poly = gf.coeffs.get((a, b))
                got = {} if poly is None else at_one(poly, ("z",))
                scale = factorial(a) * factorial(b)
                got = {key[0]: v * scale for key, v in got.items()}
                want = {p: c for p, c in self.hooks(a + 1, b + 1).items() if c}
                expect(got == want, f"hook series at x^{a} y^{b} is not the "
                                    "hook histogram")


# --------------------------------------------------------------------------
# census: exhaustive enumeration
# --------------------------------------------------------------------------


class Census(Workload):
    name = "census"
    whole_sets = True
    tail_pct = 75.0
    SIZE_TOTAL = 9  # i + j
    DK = (3, 1, 6)  # all (d,k)-shapes with this many vertices

    def __init__(self, lib):
        super().__init__(lib)
        self._dk: list[int] | None = None

    def generate(self, rng):
        calls = [("size", i, self.SIZE_TOTAL - i) for i in range(1, self.SIZE_TOTAL)]
        d, k, n = self.DK
        shapes = tuple(s for s in self.lib.trees.enumerate_dk_trees(d, k, n)
                       if isinstance(s, self.lib.trees.DKTree))
        calls.append(("dk", shapes))
        rng.shuffle(calls)
        return calls

    def call(self, inp):
        core = self.lib.nat_core
        if inp[0] == "size":
            nats = core.enumerate_nats_by_size(inp[1], inp[2])
            hist = Counter(core.nat_stats(t).hook for t in nats)
            return len(nats), dict(hist)
        enum = self.lib.natdk.enumerate_dknats_of_shape
        return tuple(len(enum(s)) for s in inp[1])

    def items(self, inp) -> int:
        if inp[0] == "size":
            return self.count(inp[1], inp[2])
        return sum(self._dk_want(inp[1]))

    def _dk_want(self, shapes) -> list[int]:
        if self._dk is None:
            self._dk = [self.lib.formulas.dk_hook_formula(s) for s in shapes]
        return self._dk

    def verify(self, inp, out) -> None:
        if inp[0] == "size":
            _, i, j = inp
            total, hist = out
            want = self.count(i, j)
            expect(total == want, f"{total} NATs of size {i}x{j}, expected {want}")
            expect(hist == {p: c for p, c in self.hooks(i, j).items() if c},
                   f"hook histogram of size {i}x{j} is wrong")
        else:
            expect(list(out) == self._dk_want(inp[1]),
                   "dk NAT counts differ from the dk hook formula")


# --------------------------------------------------------------------------
# roundtrip: documents through every bijection
# --------------------------------------------------------------------------


class Roundtrip(Workload):
    name = "roundtrip"
    tail_pct = 95.0
    POOL = 600  # distinct trees per set
    MIN_VERTICES, MAX_VERTICES = 10, 60

    def generate(self, rng):
        span = self.MAX_VERTICES - self.MIN_VERTICES + 1
        # every size equally often, so the set's mean cost hardly depends
        # on the seed; shapes and labels are uniform
        sizes = [self.MIN_VERTICES + k % span for k in range(self.POOL)]
        rng.shuffle(sizes)
        calls = []
        for n in sizes:
            t = random_nat(self.lib, random_shape(self.lib, n, rng), rng)
            calls.append((self.lib.treedoc.dump_document(t), t))
        return calls

    def call(self, inp):
        lib = self.lib
        bij = lib.bijections
        t = lib.treedoc.load_document(inp[0])
        perm = bij.phi(t)
        cyc = bij.recolour(bij.psi(t), t.w_l, t.w_r)
        back = bij.psi_inverse(cyc)
        twin = bij.omega(cyc)
        sigma = bij.theta(twin)
        ce = bij.ce(sigma, t.w_l, t.w_r)
        blocks = lib.perms.blue_blocks(cyc)
        hook = lib.nat_core.nat_stats(t).hook
        ordered = bij.zeta(t.shape)
        shape = bij.zeta_inverse(ordered)
        doc = lib.treedoc.dump_document(cyc)
        return t, perm, cyc, back, twin, sigma, ce, blocks, hook, ordered, shape, doc

    def verify(self, inp, out) -> None:
        lib = self.lib
        perms = lib.perms
        t, perm, cyc, back, twin, sigma, ce, blocks, hook, ordered, shape, doc = out
        i, j = t.w_l, t.w_r
        expect(t == inp[1], "load_document changed the tree")
        expect(back == t, "psi_inverse(recolour(psi(t))) is not t")
        expect(sorted(perm) == list(range(1, i + j))
               and perms.excedance_profile(perm) == set(range(1, j)),
               "phi(t) is not a permutation with excedance set 1..w_R-1")
        expect(blocks == hook, f"{blocks} blue blocks but {hook} hooks")
        expect(lib.trees.hook_partition(t.shape).hook_count == hook,
               "nat_stats hook differs from the hook partition")
        expect(perms.validate_2cbd(twin) == [], "omega broke block-decrease")
        expect(lib.bijections.omega(twin) == cyc, "omega is not an involution")
        expect(perms.excedance_profile(sigma) == set(range(1, j)),
               "theta(omega(c)) has the wrong excedance set")
        expect(ce == 1 + sum(1 for u in range(1, j) if sigma[u - 1] > j),
               "ce disagrees with its definition")
        expect(shape == t.shape, "zeta_inverse(zeta(shape)) is not the shape")
        expect(lib.trees.childleaf_count(ordered) == hook,
               "childleaf count of zeta(shape) is not the hook number")
        expect(lib.treedoc.load_document(doc) == cyc, "cycle document does not load back")


WORKLOADS = {w.name: w for w in (Series, QPoly, Census, Roundtrip)}

