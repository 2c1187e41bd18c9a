"""The NAT <-> grid <-> cycle maps against the walks they replaced.

``vertices``, ``validate_nat``, ``validate_geometric``, ``geometric_to_nat``,
the zigzag walk and ``_points_from_cycle`` are linear walks over one grid
form (``nat_core._grid``).  The functions below are the definitions they had
before: recursive path building, pairwise ancestor checks, whole-row and
whole-column scans and the recursive, renumbering row peel.  They are kept
as reference oracles, as are the trace-building ``phi`` and ``psi`` on a
grid of the points kept, and ``theta`` as ``phi`` after ``psi_inverse``.

``phi`` and ``psi`` read the grid off the tree (``nat_core._nat_grid``), and
``psi_inverse`` and ``theta`` build one grid per point set.  The point-set
path they replaced, which sorted a ``GeometricNat`` into a grid per map, is
kept below as well.
"""

import random
from collections import Counter

import pytest

from nat_sampler import catalan, random_nat, random_nats, random_shape
from natlib.bijections import (
    ZigzagTrace,
    _points_from_cycle,
    omega,
    phi,
    psi,
    psi_inverse,
    recolour,
    recolour_inverse,
    theta,
    zigzag_traces,
)
from natlib.nat_core import (
    GeometricNat,
    Nat,
    _grid,
    _nat_grid,
    enumerate_nats_by_size,
    enumerate_nats_of_shape,
    geometric_to_nat,
    nat_to_geometric,
    validate_geometric,
    validate_nat,
)
from natlib.perms import TwoColouredCycle, validate_2cbd
from natlib.treedoc import dump_document, load_document
from natlib.trees import Empty, Node, vertices

# -- the replaced walks -------------------------------------------------------


def vertices_recursive(t):
    if t is None or isinstance(t, Empty):
        return []
    out = [""]
    out.extend("L" + p for p in vertices_recursive(t.left))
    out.extend("R" + p for p in vertices_recursive(t.right))
    return out


def validate_nat_pairwise(shape, left_label, right_label):
    violations = []
    paths = vertices_recursive(shape)
    for side, end, labels in (("left", "L", left_label),
                              ("right", "R", right_label)):
        side_paths = [p for p in paths if p.endswith(end)]
        if set(labels) != set(side_paths):
            violations.append(f"{side} labels must cover exactly the {side} children")
            continue
        if sorted(labels.values()) != list(range(1, len(side_paths) + 1)):
            violations.append(
                f"{side} labels must be a permutation of 1..{len(side_paths)}")
            continue
        for p in side_paths:
            for q in side_paths:
                if p != q and q.startswith(p) and labels[p] <= labels[q]:
                    violations.append(
                        f"ancestor-decreasing violated at {side} children"
                        f" {p!r} (label {labels[p]}) and {q!r} (label {labels[q]})")
    return violations


def nat_to_geometric_by_depth(t):
    if validate_nat_pairwise(t.shape, t.left_label, t.right_label):
        raise ValueError("not a NAT")
    coords = {"": (0, 0)}
    for path in sorted(vertices_recursive(t.shape), key=len)[1:]:
        parent = coords[path[:-1]]
        if path.endswith("L"):
            coords[path] = (t.w_l - t.left_label[path], parent[1])
        else:
            coords[path] = (parent[0], t.w_r - t.right_label[path])
    return GeometricNat(frozenset(coords.values()), t.w_l, t.w_r)


def validate_geometric_by_scans(g):
    violations = []
    pts = g.points
    if (0, 0) not in pts:
        violations.append("condition 1: the root (0,0) is missing")
    for (x, y) in pts:
        if not (0 <= x < g.w_l and 0 <= y < g.w_r):
            violations.append(f"point {(x, y)} outside the {g.w_l}x{g.w_r} grid")
    for (x, y) in sorted(pts - {(0, 0)}):
        above = any((x2, y) in pts for x2 in range(x))
        left = any((x, y2) in pts for y2 in range(y))
        if above and left:
            violations.append(f"condition 2-pattern: {(x, y)} has both parents")
        if not above and not left:
            violations.append(f"condition 2: {(x, y)} has no parent")
    rows = {x for x, _ in pts}
    cols = {y for _, y in pts}
    for x in range(g.w_l):
        if x not in rows:
            violations.append(f"condition 3-gap: empty row {x}")
    for y in range(g.w_r):
        if y not in cols:
            violations.append(f"condition 3-gap: empty column {y}")
    return violations


def geometric_to_nat_by_scans(g):
    if validate_geometric_by_scans(g):
        raise ValueError("not a valid grid")
    pts = g.points
    children = {p: {} for p in pts}
    for (x, y) in pts - {(0, 0)}:
        above = [x2 for x2 in range(x) if (x2, y) in pts]
        if above:
            par, side = (max(above), y), "L"
        else:
            par, side = (x, max(y2 for y2 in range(y) if (x, y2) in pts)), "R"
        if side in children[par]:
            raise ValueError(f"two {side}-children attached at {par}")
        children[par][side] = (x, y)
    left_label, right_label = {}, {}

    def build(point, path):
        if path.endswith("L"):
            left_label[path] = g.w_l - point[0]
        elif path.endswith("R"):
            right_label[path] = g.w_r - point[1]
        kids = children[point]
        return Node(build(kids["L"], path + "L") if "L" in kids else None,
                    build(kids["R"], path + "R") if "R" in kids else None)

    shape = build((0, 0), "")
    if validate_nat_pairwise(shape, left_label, right_label):
        raise ValueError("rebuilt tree is not a NAT")
    return Nat.from_labels(shape, left_label, right_label)


def wire_by_scans(points, w_l, w_r, first_column):
    pts = {(y, x) for (y, x) in points if x >= first_column}

    def row_label(y):
        return w_l + w_r - 1 - y

    def walk(start, point, down):
        trace = []
        while True:
            trace.append(point)
            y, x = point
            if down:
                east = sorted(x2 for (y2, x2) in pts if y2 == y and x2 > x)
                if not east:
                    return ZigzagTrace(start, tuple(trace), row_label(y))
                point, down = (y, east[0]), False
            else:
                south = sorted(y2 for (y2, x2) in pts if x2 == x and y2 > y)
                if not south:
                    return ZigzagTrace(start, tuple(trace), x)
                point, down = (south[0], x), True

    traces = []
    for x in range(first_column, w_r):
        col = sorted(y for (y, x2) in pts if x2 == x)
        traces.append(walk(x, (col[0], x), True) if col
                      else ZigzagTrace(x, (), x))
    for y in range(w_l):
        row = sorted(x for (y2, x) in pts if y2 == y)
        traces.append(walk(row_label(y), (y, row[0]), False) if row
                      else ZigzagTrace(row_label(y), (), row_label(y)))
    return traces


def grid_of_lists(points):
    """``nat_core._grid`` as it was: every row and column as a sorted list."""
    rows, cols, after = {}, {}, {}
    for p in sorted(points):
        row, col = rows.setdefault(p[0], []), cols.setdefault(p[1], [])
        if row:
            after[row[-1]][0] = p
        if col:
            after[col[-1]][1] = p
        after[p] = [None, None]
        row.append(p)
        col.append(p)
    return rows, cols, after


def wire_on_kept_points(points, w_l, w_r, first_column):
    """Every wire as a trace, on a grid of the points in columns >=
    first_column only."""
    rows, cols, after = grid_of_lists(p for p in points if p[1] >= first_column)

    def row_label(y):
        return w_l + w_r - 1 - y

    def walk(start_label, point, arriving_down):
        trace = []
        while True:
            trace.append(point)
            y, x = point
            nxt = after[point][0 if arriving_down else 1]
            if nxt is None:
                end = row_label(y) if arriving_down else x
                return ZigzagTrace(start_label, tuple(trace), end)
            point, arriving_down = nxt, not arriving_down

    traces = []
    for x in range(first_column, w_r):
        if x not in cols:
            traces.append(ZigzagTrace(x, (), x))
        else:
            traces.append(walk(x, cols[x][0], True))
    for y in range(w_l):
        if y not in rows:
            traces.append(ZigzagTrace(row_label(y), (), row_label(y)))
        else:
            traces.append(walk(row_label(y), rows[y][0], False))
    return traces


def phi_by_traces(t):
    g = nat_to_geometric(t)
    out = [0] * (t.w_l + t.w_r - 1)
    for tr in wire_on_kept_points(g.points, g.w_l, g.w_r, 1):
        out[tr.start - 1] = tr.end
    return tuple(out)


def psi_by_traces(t):
    g = nat_to_geometric(t)
    out = [0] * (t.w_l + t.w_r)
    for tr in wire_on_kept_points(g.points, g.w_l, g.w_r, 0):
        out[tr.start] = tr.end
    return tuple(out)


def theta_by_psi_inverse(c):
    return phi_by_traces(psi_inverse(c))


def points_from_cycle_recursive(succ, w_l, w_r):
    if w_l == 1:
        return {(0, x) for x in range(w_r)}
    bottom = w_r
    lam = succ[bottom]
    pred = {v: k for k, v in succ.items()}
    ds = []
    p = pred[bottom]
    while lam < p < bottom:
        ds.append(p)
        p = pred[p]
    removed = set(ds) | {bottom}
    sub_succ = {}
    for v in succ:
        if v in removed:
            continue
        nxt = succ[v]
        while nxt in removed:
            nxt = succ[nxt]
        sub_succ[v] = nxt
    kept_cols = [x for x in range(w_r) if x not in ds]

    def renumber(v):
        return kept_cols.index(v) if v < w_r else v - len(ds) - 1

    sub = {renumber(v): renumber(nxt) for v, nxt in sub_succ.items()}
    inner = points_from_cycle_recursive(sub, w_l - 1, w_r - len(ds))
    points = {(y, kept_cols[x]) for (y, x) in inner}
    points.add((w_l - 1, lam))
    points.update((w_l - 1, d) for d in ds)
    return points


# -- comparisons --------------------------------------------------------------


def check_maps(t: Nat) -> None:
    assert vertices(t.shape) == vertices_recursive(t.shape)
    assert validate_nat(t.shape, t.left_label, t.right_label) == []
    assert validate_nat_pairwise(t.shape, t.left_label, t.right_label) == []
    g = nat_to_geometric(t)
    assert g == nat_to_geometric_by_depth(t)
    assert validate_geometric(g) == validate_geometric_by_scans(g) == []
    back = geometric_to_nat(g)
    assert back == geometric_to_nat_by_scans(g) == t
    assert validate_nat(back.shape, back.left_label, back.right_label) == []
    for first_column in (0, 1):
        assert (zigzag_traces(t, keep_first_column=first_column == 0)
                == wire_on_kept_points(g.points, g.w_l, g.w_r, first_column)
                == wire_by_scans(g.points, g.w_l, g.w_r, first_column))
    numeric = recolour_inverse(recolour(psi(t), t.w_l, t.w_r))
    succ = dict(enumerate(numeric))
    assert (_points_from_cycle(numeric, t.w_l, t.w_r)
            == points_from_cycle_recursive(succ, t.w_l, t.w_r) == set(g.points))


def check_corrupted_labels(t: Nat, rng: random.Random) -> None:
    """Swap two labels on one side: the verdicts agree, and every violation
    reported is one the pairwise check reports too."""
    for side in ("left", "right"):
        labels = dict(t.left_items if side == "left" else t.right_items)
        if len(labels) < 2:
            continue
        p, q = rng.sample(sorted(labels), 2)
        labels[p], labels[q] = labels[q], labels[p]
        left, right = ((labels, t.right_label) if side == "left"
                       else (t.left_label, labels))
        new = validate_nat(t.shape, left, right)
        old = validate_nat_pairwise(t.shape, left, right)
        assert bool(new) == bool(old)
        assert set(new) <= set(old)


def check_grid_verdicts(g: GeometricNat) -> None:
    new, old = validate_geometric(g), validate_geometric_by_scans(g)
    assert bool(new) == bool(old)
    # the scans looked for parents from row and column 0 on only, so the
    # messages differ where a point lies at a negative coordinate
    if all(x >= 0 and y >= 0 for x, y in g.points):
        assert new == old
    try:
        expected = geometric_to_nat_by_scans(g)
    except ValueError:
        with pytest.raises(ValueError):
            geometric_to_nat(g)
    else:
        assert geometric_to_nat(g) == expected


def every_small_nat():
    for total in range(2, 9):
        for w_l in range(1, total):
            yield from enumerate_nats_by_size(w_l, total - w_l)


# -- tests --------------------------------------------------------------------


def test_maps_on_every_nat_up_to_size_8():
    count = 0
    for t in every_small_nat():
        check_maps(t)
        count += 1
    assert count == 1966


@pytest.mark.parametrize("seed", range(4))
def test_maps_on_random_nats(seed):
    # 4 x 60 uniform NATs of 30 to 60 vertices, beyond the exhaustive sizes
    for t in random_nats(60, 30, 60, seed):
        check_maps(t)


def test_corrupted_labels_get_the_same_verdict():
    rng = random.Random(11)
    for t in every_small_nat():
        check_corrupted_labels(t, rng)
    for t in random_nats(100, 30, 60, 12):
        check_corrupted_labels(t, rng)


def test_random_point_sets_get_the_same_verdict():
    rng = random.Random(13)
    for _ in range(3000):
        w_l, w_r = rng.randint(1, 5), rng.randint(1, 5)
        density = rng.random()
        points = {(x, y) for x in range(-1, w_l + 1) for y in range(-1, w_r + 1)
                  if (0 <= x < w_l and 0 <= y < w_r and rng.random() < density)
                  or rng.random() < 0.01}
        check_grid_verdicts(GeometricNat(frozenset(points), w_l, w_r))


def test_nudged_grids_get_the_same_verdict():
    # one point of a valid grid added, dropped or moved
    rng = random.Random(14)
    for t in random_nats(200, 5, 40, 15):
        g = nat_to_geometric(t)
        points = set(g.points)
        victim = rng.choice(sorted(points))
        extra = (rng.randrange(g.w_l), rng.randrange(g.w_r))
        for changed in (points | {extra}, points - {victim},
                        (points - {victim}) | {extra}):
            check_grid_verdicts(GeometricNat(frozenset(changed), g.w_l, g.w_r))


def test_sampler_is_uniform_on_small_cases():
    rng = random.Random(16)
    shapes = Counter(random_shape(4, rng) for _ in range(2800))
    assert len(shapes) == catalan(4) == 14
    assert max(shapes.values()) < 2 * min(shapes.values())
    shape = Node(Node(Node(), Node()), Node(Node(None, Node()), None))
    nats = Counter(random_nat(shape, rng) for _ in range(2400))
    assert set(nats) == set(enumerate_nats_of_shape(shape))
    assert max(nats.values()) < 2 * min(nats.values())


def left_chain(n: int) -> Nat:
    """The n-vertex left chain; labels decrease downwards."""
    shape = Node()
    for _ in range(n - 1):
        shape = Node(shape, None)
    return Nat.from_labels(shape, {"L" * k: n - k for k in range(1, n)}, {})


def test_deep_chain_maps_return():
    # deeper than the interpreter's recursion limit
    n = 2000
    t = left_chain(n)
    assert validate_nat(t.shape, t.left_label, t.right_label) == []
    # one column of n points: phi's wires run straight through the rows,
    # psi's column wire exits east of row 0 and each row wire one row lower
    assert phi(t) == tuple(range(1, n + 1))
    assert psi(t) == (n,) + tuple(range(n))
    assert recolour(psi(t), t.w_l, t.w_r).word[:2] == (("b", 1), ("r", n))


def test_deep_chain_comes_back_from_its_cycle_and_grid():
    # deeper than the interpreter's recursion limit; the trees are compared
    # by their preorder paths and labels, since ``==`` on shapes recurses
    t = left_chain(2000)
    for back in (psi_inverse(recolour(psi(t), t.w_l, t.w_r)),
                 geometric_to_nat(nat_to_geometric(t))):
        assert vertices(back.shape) == vertices(t.shape)
        assert (back.left_items, back.right_items) == (t.left_items, t.right_items)


def test_psi_inverse_of_a_valid_cycle_is_a_nat():
    for t in random_nats(50, 10, 60, 17):
        back = psi_inverse(recolour(psi(t), t.w_l, t.w_r))
        assert validate_nat(back.shape, back.left_label, back.right_label) == []


# -- the trace-free walk and the checked mark ---------------------------------


def check_zigzag(t: Nat, marked: Nat) -> None:
    """phi, psi, theta and the traces against the trace-building oracles,
    on a tree and on a copy of it that the library has checked."""
    assert marked._checked
    # compared by items, since ``==`` on deep shapes recurses
    assert (marked.left_items, marked.right_items) == (t.left_items, t.right_items)
    for tree in (t, marked):
        assert phi(tree) == phi_by_traces(tree)
        assert psi(tree) == psi_by_traces(tree)
    c = recolour(psi(t), t.w_l, t.w_r)
    for cycle in (c, omega(c)):
        assert theta(cycle) == theta_by_psi_inverse(cycle)


def test_zigzag_on_every_nat_up_to_size_8():
    count = 0
    for t in every_small_nat():
        check_zigzag(t, load_document(dump_document(t)))
        count += 1
    assert count == 1966


@pytest.mark.parametrize("seed", range(5))
def test_zigzag_on_random_nats(seed):
    # 5 x 100 uniform NATs of 10 to 120 vertices
    for t in random_nats(100, 10, 120, 30 + seed):
        check_zigzag(t, load_document(dump_document(t)))
        g = nat_to_geometric(t)
        for first_column in (0, 1):
            assert (zigzag_traces(t, keep_first_column=first_column == 0)
                    == wire_on_kept_points(g.points, g.w_l, g.w_r, first_column))


def test_zigzag_on_a_deep_chain():
    # the document writer recurses, so the checked copy comes from the grid
    t = left_chain(2000)
    check_zigzag(t, geometric_to_nat(nat_to_geometric(t)))


def invalid_nats():
    """Hand-built trees that break each condition of ``validate_nat``."""
    shape = Node(Node(Node(), None), Node(None, Node()))
    good = {"L": 2, "LL": 1}, {"R": 2, "RR": 1}
    yield Nat.from_labels(shape, *good)
    yield Nat.from_labels(shape, {"L": 1, "LL": 2}, good[1])
    yield Nat.from_labels(shape, good[0], {"R": 1, "RR": 2})
    yield Nat.from_labels(shape, {"L": 2}, good[1])
    yield Nat.from_labels(shape, {"L": 2, "LL": 1, "RL": 3}, good[1])
    yield Nat.from_labels(shape, {"L": 3, "LL": 1}, {"R": 2, "RR": 0})
    yield Nat.from_labels(shape, {"L": 1, "LL": 2}, {"R": 1, "RR": 2})
    rng = random.Random(18)
    for t in random_nats(40, 10, 40, 19):
        items = list(t.left_items)
        if len(items) > 1:
            k, m = rng.sample(range(len(items)), 2)
            (p, a), (q, b) = items[k], items[m]
            items[k], items[m] = (p, b), (q, a)
            yield Nat(t.shape, tuple(items), t.right_items)


def test_invalid_hand_built_nats_raise_the_validation_message():
    raised = 0
    for t in invalid_nats():
        bad = validate_nat(t.shape, t.left_label, t.right_label)
        if not bad:
            assert phi(t) == phi_by_traces(t)
            continue
        raised += 1
        for f in (phi, psi, zigzag_traces, nat_to_geometric, phi_by_traces):
            with pytest.raises(ValueError) as exc:
                f(t)
            assert str(exc.value) == "; ".join(bad)
    assert raised >= 30


def symbols(i, j):
    return [("b", m) for m in range(1, j + 1)] + [("r", m) for m in range(1, i + 1)]


def raised(f, c):
    try:
        f(c)
    except ValueError as exc:
        return str(exc)
    return None


def test_theta_raises_what_psi_inverse_raises():
    rng = random.Random(20)
    seen = 0
    for _ in range(400):
        i, j = rng.randint(1, 6), rng.randint(1, 6)
        word = symbols(i, j)
        rng.shuffle(word)
        c = TwoColouredCycle(i, j, tuple(word))
        if not validate_2cbd(c):
            continue
        message = raised(psi_inverse, c)
        assert message is not None and message.startswith("not block-decreasing")
        assert raised(theta, c) == message
        seen += 1
    assert seen > 300
    # a cycle of one colour cannot decrease all the way round
    for i, j in ((0, 1), (0, 4), (1, 0), (5, 0)):
        c = TwoColouredCycle(i, j, tuple(sorted(symbols(i, j), reverse=True)))
        message = raised(psi_inverse, c)
        assert message is not None
        assert raised(theta, c) == message


@pytest.mark.parametrize("change", ["drop", "add", "move"])
def test_theta_raises_what_psi_inverse_raises_on_a_bad_point_set(monkeypatch,
                                                                 change):
    # every block-decreasing cycle of both colours peels to a valid grid, so
    # the peel is made to return a broken one
    t = random_nats(1, 20, 30, 21)[0]
    c = recolour(psi(t), t.w_l, t.w_r)
    points = set(nat_to_geometric(t).points)
    victim = max(points)
    broken = {"drop": points - {victim},
              "add": points | {(t.w_l, 0)},
              "move": (points - {victim}) | {(victim[0], t.w_r)}}[change]
    monkeypatch.setattr("natlib.bijections._points_from_cycle",
                        lambda succ, w_l, w_r: broken)
    bad = validate_geometric(GeometricNat(frozenset(broken), t.w_l, t.w_r))
    assert bad
    assert raised(psi_inverse, c) == raised(theta, c) == "; ".join(bad)


def test_checked_mark_is_invisible():
    for t in random_nats(50, 5, 40, 22):
        for marked in (load_document(dump_document(t)),
                       geometric_to_nat(nat_to_geometric(t)),
                       psi_inverse(recolour(psi(t), t.w_l, t.w_r))):
            assert marked._checked and not t._checked
            assert marked == t and hash(marked) == hash(t)
            assert repr(marked) == repr(t)
            assert dump_document(marked) == dump_document(t)
            assert {marked, t} == {t}
    # the enumerators do not mark their output
    assert not any(t._checked for t in enumerate_nats_by_size(3, 3))


def test_checked_trees_are_not_validated_again(monkeypatch):
    t = random_nats(1, 20, 30, 24)[0]
    marked = load_document(dump_document(t))

    def refuse(*args):
        raise AssertionError("validate_nat ran on a checked tree")

    monkeypatch.setattr("natlib.nat_core.validate_nat", refuse)
    assert phi(marked) == phi(geometric_to_nat(nat_to_geometric(marked)))
    assert psi(marked) == tuple(psi_by_traces(marked))
    with pytest.raises(AssertionError):
        phi(t)


# -- one grid per tree: the point-set path the maps replaced -------------------


def nat_to_geometric_by_walk(t):
    """``nat_to_geometric`` as it was: validate, then place every vertex
    below its parent in preorder."""
    left, right = t.left_label, t.right_label
    if not t._checked:
        bad = validate_nat(t.shape, left, right)
        if bad:
            raise ValueError("; ".join(bad))
    coords = {"": (0, 0)}
    for path in vertices(t.shape)[1:]:
        parent = coords[path[:-1]]
        if path.endswith("L"):
            coords[path] = (t.w_l - left[path], parent[1])
        else:
            coords[path] = (parent[0], t.w_r - right[path])
    return GeometricNat(frozenset(coords.values()), t.w_l, t.w_r)


def zigzag_by_points(points, w_l, w_r, first_column, trails=None):
    """The zigzag walk as it was: on the grid of a point set."""
    rows, cols, after = _grid(points)
    n = w_l + w_r
    exits = [0] * n
    for start in range(first_column, n):
        if start < w_r:
            point, down = cols[start], True
        else:
            point, down = rows[n - 1 - start], False
            if point[1] < first_column:
                point = after[point][0]
        trail = None if trails is None else trails.setdefault(start, [])
        last = None
        while point is not None:
            if trail is not None:
                trail.append(point)
            last, point = point, after[point][0 if down else 1]
            down = not down
        if last is None:
            exits[start] = start
        else:
            exits[start] = last[1] if down else n - 1 - last[0]
    return exits


def phi_by_points(t):
    g = nat_to_geometric_by_walk(t)
    return tuple(zigzag_by_points(g.points, g.w_l, g.w_r, 1)[1:])


def psi_by_points(t):
    g = nat_to_geometric_by_walk(t)
    return tuple(zigzag_by_points(g.points, g.w_l, g.w_r, 0))


def zigzag_traces_by_points(t, keep_first_column):
    g = nat_to_geometric_by_walk(t)
    first_column = 0 if keep_first_column else 1
    trails = {}
    exits = zigzag_by_points(g.points, g.w_l, g.w_r, first_column, trails)
    n = g.w_l + g.w_r
    order = [*range(first_column, g.w_r), *range(n - 1, g.w_r - 1, -1)]
    return [ZigzagTrace(s, tuple(trails[s]), exits[s]) for s in order]


def geometric_of_cycle(c):
    """The checked point set behind a coloured cycle, as ``psi_inverse``
    built it before: every check, then a ``GeometricNat``."""
    bad = validate_2cbd(c)
    if bad:
        raise ValueError("not block-decreasing: " + "; ".join(bad))
    if c.i < 1 or c.j < 1:
        raise ValueError("cycle must contain both colours")
    points = _points_from_cycle(recolour_inverse(c), c.i, c.j)
    g = GeometricNat(frozenset(points), c.i, c.j)
    bad = validate_geometric_by_scans(g)
    if bad:
        raise ValueError("; ".join(bad))
    return g


def psi_inverse_by_points(c):
    return geometric_to_nat_by_scans(geometric_of_cycle(c))


def theta_by_points(c):
    g = geometric_of_cycle(c)
    return tuple(zigzag_by_points(g.points, g.w_l, g.w_r, 1)[1:])


def check_one_grid(t: Nat) -> None:
    # the grid read off the tree is the grid of its point set, as mappings
    rows, cols, after = _nat_grid(t)
    points = nat_to_geometric_by_walk(t).points
    assert (rows, cols, after) == _grid(points)
    assert nat_to_geometric(t).points == points
    assert phi(t) == phi_by_points(t)
    assert psi(t) == psi_by_points(t)
    for keep in (False, True):
        assert zigzag_traces(t, keep) == zigzag_traces_by_points(t, keep)
    c = recolour(psi(t), t.w_l, t.w_r)
    for cycle in (c, omega(c)):
        assert psi_inverse(cycle) == psi_inverse_by_points(cycle)
        assert theta(cycle) == theta_by_points(cycle)
    assert psi_inverse(c) == t


def test_one_grid_on_every_nat_up_to_size_8():
    count = 0
    for t in every_small_nat():
        check_one_grid(t)
        check_one_grid(load_document(dump_document(t)))
        count += 1
    assert count == 1966


def test_one_grid_on_sampled_nats():
    # 240 uniform NATs of 10 to 80 vertices
    for t in random_nats(240, 10, 80, 40):
        check_one_grid(t)
        check_one_grid(load_document(dump_document(t)))


def test_invalid_nats_raise_what_the_point_set_path_raised():
    raised = 0
    for t in invalid_nats():
        try:
            nat_to_geometric_by_walk(t)
        except ValueError as exc:
            message = str(exc)
        else:
            assert phi(t) == phi_by_points(t) and psi(t) == psi_by_points(t)
            continue
        raised += 1
        for f in (phi, psi, _nat_grid):
            with pytest.raises(ValueError) as exc:
                f(t)
            assert str(exc.value) == message
    assert raised >= 30
