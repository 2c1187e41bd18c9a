"""Command-line interface: counting, bijections, series and histograms.

All output is machine-readable: JSON records on stdout (sorted keys,
deterministic ordering) except ``histogram``, which prints CSV with a
header row.  Exit codes: 0 success, 1 self-check found a counterexample
(``bijection --verify-roundtrip``), 2 input error, 3 resource guard (also
for a result nested too deeply to write).
The only environment knob is ``NATLIB_MAX_ORDER``, bounding series orders
and exhaustive-enumeration sizes.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections import Counter
from fractions import Fraction
from math import factorial

from .bijections import (
    ce,
    phi,
    psi,
    psi_inverse,
    recolour,
    theta,
    zeta,
    zeta_inverse,
)
from .formulas import (
    count_by_size,
    count_by_size_and_hook,
    dk_hook_formula,
    hook_formula,
    q_hook_formula,
)
from .nat_core import Nat, _nats_by_size, nat_stats
from .natdk import DeskScaleError
from .perms import TwoColouredCycle, cycles
from .series import (
    TruncSeries,
    closed_hook_gf,
    closed_N_ab,
    solve_Bp_Op,
    solve_M,
    solve_N,
    solve_N_dk,
)
from .treedoc import (
    DocumentError,
    dump_document,
    load_document,
    poly_to_json,
    series_to_json,
)
from .trees import (
    DKTree,
    Empty,
    Node,
    childleaf_count,
    enumerate_binary_trees,
    enumerate_ordered_trees,
    hook_partition,
    lv_rv,
)

__all__ = ["main"]

DEFAULT_MAX_ORDER = 30
# the numerator of the q-hook formula has degree lv(lv-1)/2 + rv(rv-1)/2,
# which bounds both its work and its output: a 49-vertex shape of degree 552
# with 44,521 output terms takes about 0.5 s
MAX_Q_DEGREE = 600


class InputError(Exception):
    """Maps to exit code 2."""


class ResourceError(Exception):
    """Maps to exit code 3."""


def _max_order() -> int:
    raw = os.environ.get("NATLIB_MAX_ORDER", "")
    try:
        return int(raw) if raw else DEFAULT_MAX_ORDER
    except ValueError:
        raise InputError(f"NATLIB_MAX_ORDER must be an integer, got {raw!r}")


def _guard(value: int, what: str) -> None:
    cap = _max_order()
    if value > cap:
        raise ResourceError(f"{what} {value} exceeds the cap {cap} "
                            "(set NATLIB_MAX_ORDER to raise it)")


def _emit(record: dict) -> None:
    # render first, so a record too deep to write leaves stdout empty
    try:
        text = json.dumps(record, indent=2, sort_keys=True)
    except RecursionError:
        raise ResourceError("the result is nested too deeply to write")
    sys.stdout.write(text + "\n")


def _load_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise InputError(f"{path} is nested too deeply to read")
    try:
        return load_document(doc)
    except DocumentError as exc:
        raise InputError(f"{path}: {exc}")


def _parse_size(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    try:
        i, j = (int(p) for p in parts)
    except ValueError:
        raise InputError(f"size must look like 2x3, got {text!r}")
    if i < 1 or j < 1:
        raise InputError("size components must be >= 1")
    return i, j


# --------------------------------------------------------------------------
# count
# --------------------------------------------------------------------------


def _cmd_count(args: argparse.Namespace) -> int:
    if (args.size is None) == (args.shape is None):
        raise InputError("give exactly one of --size and --shape")
    if args.size is not None:
        i, j = _parse_size(args.size)
        _guard(i + j, "size total")
        if args.hook is not None:
            _emit({"count": count_by_size_and_hook(i, j, args.hook)})
            return 0
        poly = count_by_size(i, j)
        if args.alpha or args.beta:
            _emit({"polynomial": poly_to_json(poly)})
            return 0
        _emit({"count": int(poly.substitute(alpha=1, beta=1).as_fraction())})
        return 0
    tree = _load_file(args.shape)
    if isinstance(tree, (Node, Empty)):
        if isinstance(tree, Empty):
            _emit({"count": 1})
            return 0
        if args.q:
            lv, rv = lv_rv(tree)
            degree = lv * (lv - 1) // 2 + rv * (rv - 1) // 2
            if degree > MAX_Q_DEGREE:
                raise ResourceError(f"the q-hook numerator has degree {degree}, "
                                    f"over the cap {MAX_Q_DEGREE}")
            _emit({"polynomial": poly_to_json(q_hook_formula(tree))})
            return 0
        _emit({"count": hook_formula(tree)})
        return 0
    if isinstance(tree, DKTree):
        _emit({"count": dk_hook_formula(tree)})
        return 0
    raise InputError("count --shape expects a binary or dk tree document")


# --------------------------------------------------------------------------
# bijection
# --------------------------------------------------------------------------


def _cycles_str(sigma: tuple[int, ...]) -> str:
    return "".join(
        "(" + " ".join(str(v) for v in cyc) + ")" for cyc in cycles(sigma)
    )


def _counterexample(tree, checked: int) -> dict:
    return {"ok": False, "checked": checked,
            "counterexample": dump_document(tree)}


def _verify_roundtrip(which: str, max_size: int) -> dict:
    # the smallest zeta input is the empty tree; the smallest NAT has size 2
    smallest = 0 if which == "zeta" else 2
    if max_size < smallest:
        raise InputError(f"--max-size must be at least {smallest} for {which}, "
                         "or the self-check checks nothing")
    _guard(max_size, "max size")
    checked = 0
    if which == "zeta":
        for n in range(0, max_size + 1):
            for b in enumerate_binary_trees(n):
                t = zeta(b)
                back = zeta_inverse(t)
                # the two empty trees are identified under zeta
                same = back == b or (isinstance(back, Empty)
                                     and isinstance(b, Empty))
                if not same or isinstance(b, Node) and (
                    hook_partition(b).hook_count != childleaf_count(t)
                ):
                    return _counterexample(b, checked)
                checked += 1
        return {"ok": True, "checked": checked}
    for total in range(2, max_size + 1):
        for w_l in range(1, total):
            w_r = total - w_l
            for t in _nats_by_size(w_l, w_r):
                ok = True
                if which == "phi":
                    sigma = phi(t)
                    ok = sorted(sigma) == list(range(1, w_l + w_r))
                elif which == "psi":
                    c = recolour(psi(t), w_l, w_r)
                    ok = psi_inverse(c) == t
                elif which == "theta":
                    ok = theta(recolour(psi(t), w_l, w_r)) == phi(t)
                if not ok:
                    return _counterexample(t, checked)
                checked += 1
    return {"ok": True, "checked": checked}


def _cmd_bijection(args: argparse.Namespace) -> int:
    which = args.map
    if args.verify_roundtrip:
        record = _verify_roundtrip(which, args.max_size)
        _emit(record)
        return 0 if record["ok"] else 1
    if which == "zeta" and args.size is not None:
        if not args.all:
            raise InputError("zeta --size requires --all")
        _guard(args.size, "size")
        pairs = []
        for b in enumerate_binary_trees(args.size):
            t = zeta(b)
            pairs.append({
                "binary": dump_document(b),
                "ordered": dump_document(t),
            })
        _emit({"pairs": pairs})
        return 0
    if args.input is None:
        raise InputError("an input document is required")
    obj = _load_file(args.input)
    if which == "phi":
        if not isinstance(obj, Nat):
            raise InputError("phi expects a nat document")
        sigma = phi(obj)
        _emit({"permutation": list(sigma), "cycles": _cycles_str(sigma)})
        return 0
    if which == "psi":
        if not isinstance(obj, Nat):
            raise InputError("psi expects a nat document")
        numeric = psi(obj)
        coloured = recolour(numeric, obj.w_l, obj.w_r)
        _emit({"one_line": list(numeric), "cycle": dump_document(coloured)})
        return 0
    if which == "theta":
        if not isinstance(obj, TwoColouredCycle):
            raise InputError("theta expects a cycle document")
        sigma = theta(obj)
        _emit({"permutation": list(sigma), "cycles": _cycles_str(sigma)})
        return 0
    if which == "zeta":
        if isinstance(obj, (Node, Empty)):
            _emit({"ordered": dump_document(zeta(obj))})
            return 0
        raise InputError("zeta expects a binary tree document")
    raise InputError(f"unknown bijection {which!r}")


# --------------------------------------------------------------------------
# series
# --------------------------------------------------------------------------


def _max_abs_diff(a: TruncSeries, b: TruncSeries) -> Fraction:
    """Largest |coefficient| of a - b, for series of one context."""
    return max((abs(c) for p in (a - b).coeffs.values() for c in p.coeffs.values()),
               default=Fraction(0))


def _series_pair(which: str, order: int, d: int, k: int):
    """The requested series as a record, and its closed-form gap (None where
    no closed form is defined), each deferred so that only the printed one
    is computed."""
    if which == "N":
        n = solve_N(order)
        return (lambda: {"series": series_to_json(n)},
                lambda: _max_abs_diff(
                    n, closed_N_ab(order).substitute_params(alpha=1, beta=1)))
    if which == "M":
        m = solve_M(order)

        def gap():
            # d/dx d/dy M is known below total degree order - 2 only
            if order < 2:
                raise InputError("M --diff-against-closed-form needs order "
                                 "at least 2, or there is nothing to compare")
            return _max_abs_diff(
                m.partial_derivative("x").partial_derivative("y")
                .truncate(order - 2), solve_N(order).truncate(order - 2))

        return lambda: {"series": series_to_json(m)}, gap
    if which == "N_ab":
        s = closed_N_ab(order)
        return (lambda: {"series": series_to_json(s)},
                lambda: _max_abs_diff(s.substitute_params(alpha=1, beta=1),
                                      solve_N(order)))
    if which == "hookgf":
        s = closed_hook_gf(order)
        return (lambda: {"series": series_to_json(s)},
                lambda: _max_abs_diff(s.substitute_params(z=1), closed_N_ab(order)))
    if which == "Ndk":
        if d is None or k is None:
            raise InputError("Ndk requires --d and --k")
        if not 1 <= k <= d:
            raise InputError("need 1 <= k <= d")
        try:
            s = solve_N_dk(d, k, order)
        except DeskScaleError as exc:
            raise ResourceError(str(exc))

        def record():
            return {"series": series_to_json(s)}

        if (d, k) == (2, 1):
            return record, lambda: _max_abs_diff(
                TruncSeries(("x", "y"), order, s.coeffs), solve_N(order))
        if k == d:
            # closed form: sum over n of (x1...xd)^n / (n!)^d
            coeffs = {
                (n,) * d: Fraction(1, factorial(n) ** d)
                for n in range(order + 1)
            }
            closed = TruncSeries(s.variables, d * order, coeffs, (order,) * d)
            return record, lambda: _max_abs_diff(s, closed)
        return record, None
    if which == "BpOp":
        b, o = solve_Bp_Op(order)
        return (lambda: {"B_p": series_to_json(b), "O_p": series_to_json(o)},
                lambda: _max_abs_diff(b, o))
    raise InputError(f"unknown series {which!r}")


def _cmd_series(args: argparse.Namespace) -> int:
    if args.order < 0:
        raise InputError("order must be >= 0")
    _guard(args.order, "order")
    record, diff = _series_pair(args.which, args.order, args.d, args.k)
    if args.diff_against_closed_form:
        if diff is None:
            raise InputError(
                f"no closed form is available for this {args.which} instance")
        _emit({"difference": str(diff())})
        return 0
    _emit(record())
    return 0


# --------------------------------------------------------------------------
# histogram
# --------------------------------------------------------------------------


def _nat_statistic(t: Nat, stat: str) -> int:
    if stat == "ce":
        return ce(phi(t), t.w_l, t.w_r)
    stats = nat_stats(t)
    return {"hook": stats.hook, "lo": stats.lo, "ro": stats.ro}[stat]


def _cmd_histogram(args: argparse.Namespace) -> int:
    sources = [s for s in (args.size, args.binary_size, args.ordered_edges)
               if s is not None]
    if len(sources) != 1:
        raise InputError("give exactly one of --size, --binary-size "
                         "and --ordered-edges")
    table: Counter[int] = Counter()
    if args.size is not None:
        if args.stat not in ("hook", "ce", "lo", "ro"):
            raise InputError("--size supports --stat hook|ce|lo|ro")
        i, j = _parse_size(args.size)
        _guard(i + j, "size total")
        for t in _nats_by_size(i, j):
            table[_nat_statistic(t, args.stat)] += 1
    elif args.binary_size is not None:
        if args.stat != "hook":
            raise InputError("--binary-size supports --stat hook only")
        _guard(args.binary_size, "size")
        for b in enumerate_binary_trees(args.binary_size):
            if isinstance(b, Node):
                table[hook_partition(b).hook_count] += 1
            else:
                table[0] += 1
    else:
        if args.stat != "childleaf":
            raise InputError("--ordered-edges supports --stat childleaf only")
        _guard(args.ordered_edges, "edges")
        for t in enumerate_ordered_trees(args.ordered_edges):
            table[childleaf_count(t)] += 1
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["value", "count"])
    for value in sorted(table):
        writer.writerow([value, table[value]])
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="natlib",
        description="Counting, bijections, series and histograms for "
                    "tree-like structures with ancestor-decreasing labels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="counting formulas")
    p_count.add_argument("--size", help="geometric size, e.g. 2x3")
    p_count.add_argument("--shape", help="tree document file")
    p_count.add_argument("--alpha", action="store_true",
                         help="keep the alpha parameter")
    p_count.add_argument("--beta", action="store_true",
                         help="keep the beta parameter")
    p_count.add_argument("--hook", type=int,
                         help="count only trees with this hook number")
    p_count.add_argument("--q", action="store_true",
                         help="emit the q-analogue polynomial")
    p_count.set_defaults(fn=_cmd_count)

    p_bij = sub.add_parser("bijection", help="apply or verify a bijection")
    p_bij.add_argument("map", choices=["phi", "psi", "theta", "zeta"])
    p_bij.add_argument("input", nargs="?", help="input document file")
    p_bij.add_argument("--verify-roundtrip", action="store_true")
    p_bij.add_argument("--max-size", type=int, default=6)
    p_bij.add_argument("--size", type=int, help="zeta: enumerate this size")
    p_bij.add_argument("--all", action="store_true",
                       help="zeta: list every pair of the size")
    p_bij.set_defaults(fn=_cmd_bijection)

    p_series = sub.add_parser("series", help="truncated series expansions")
    p_series.add_argument("which",
                          choices=["N", "M", "N_ab", "hookgf", "Ndk", "BpOp"])
    p_series.add_argument("--order", type=int, required=True)
    p_series.add_argument("--d", type=int)
    p_series.add_argument("--k", type=int)
    p_series.add_argument("--diff-against-closed-form", action="store_true")
    p_series.set_defaults(fn=_cmd_series)

    p_hist = sub.add_parser("histogram", help="statistic histograms as CSV")
    p_hist.add_argument("--size", help="geometric size, e.g. 3x3")
    p_hist.add_argument("--binary-size", type=int)
    p_hist.add_argument("--ordered-edges", type=int)
    p_hist.add_argument("--stat", required=True,
                        choices=["hook", "ce", "lo", "ro", "childleaf"])
    p_hist.set_defaults(fn=_cmd_histogram)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments, which matches our convention
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ResourceError, DeskScaleError) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except (InputError, DocumentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
