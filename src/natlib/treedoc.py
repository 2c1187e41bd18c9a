"""JSON tree documents: serialization for every object the CLI handles.

A document is ``{"kind": ..., ...}`` with kinds:

- ``binary``:  {"kind": "binary", "root": node|null, "side": "L"|"R"}
  where node = {"left": node|null, "right": node|null}; an absent root is
  one of the two empty trees, told apart by "side".
- ``nat``:     binary document plus {"left_labels": {path: int},
  "right_labels": {path: int}}, paths being strings over {"L","R"}
  ("" is the root).
- ``ordered``: {"kind": "ordered", "root": {"children": [node, ...]}}.
- ``dk``:      {"kind": "dk", "d": d, "k": k, "root": node|null,
  "direction": "i1,i2"} with node = {"children": {"1,3": node, ...}};
  "direction" is only needed for empty trees.
- ``dknat``:   dk document plus {"labels": {path: [int|null, ...]}},
  paths being "/"-joined directions such as "1,3/2,3".
- ``cycle``:   {"kind": "cycle", "i": i, "j": j, "word": "(b2 b1 r1)"}
  for two-coloured cycles.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Any

from .formulas import ParamPoly, _monomial
from .nat_core import Nat, _mark_checked, validate_nat
from .natdk import DKNat, validate_dknat
from .perms import TwoColouredCycle, validate_2cbd
from .series import TruncSeries
from .trees import (
    EMPTY_LEFT,
    EMPTY_RIGHT,
    DKTree,
    Direction,
    Empty,
    EmptyDK,
    Node,
    OrderedTree,
)

__all__ = [
    "DocumentError",
    "dump_document",
    "load_document",
    "poly_to_json",
    "series_to_json",
]


class DocumentError(ValueError):
    """Raised when a JSON document is malformed or fails validation."""


# -- binary trees ----------------------------------------------------------
#
# Documents nest as deep as their trees, so the walkers keep their own
# stacks instead of recursing.


def _node_to_json(node: Node | None) -> Any:
    if node is None:
        return None
    root: dict = {}
    stack = [(node, root)]
    while stack:
        node, out = stack.pop()
        left, right = node.left, node.right
        out["left"] = None if left is None else {}
        out["right"] = None if right is None else {}
        if left is not None:
            stack.append((left, out["left"]))
        if right is not None:
            stack.append((right, out["right"]))
    return root


def _node_from_json(obj: Any) -> Node | None:
    if obj is None:
        return None
    # check the objects in preorder, as recursion would, noting which
    # children each has; in reverse preorder the subtrees of a node are
    # built just before it, its left one last
    has, stack = [], [obj]
    while stack:
        o = stack.pop()
        if not isinstance(o, dict):
            raise DocumentError(f"binary node must be an object, got {o!r}")
        left, right = o.get("left"), o.get("right")
        has.append((left is not None, right is not None))
        if right is not None:
            stack.append(right)
        if left is not None:
            stack.append(left)
    built: list = []
    for has_left, has_right in reversed(has):
        left = built.pop() if has_left else None
        built.append(Node(left, built.pop() if has_right else None))
    return built[0]


# -- ordered trees ---------------------------------------------------------


def _ordered_to_json(t: OrderedTree) -> Any:
    root: dict = {"children": []}
    stack = [(t, root)]
    while stack:
        node, out = stack.pop()
        for c in node.children:
            out["children"].append({"children": []})
            stack.append((c, out["children"][-1]))
    return root


def _ordered_from_json(obj: Any) -> OrderedTree:
    # as for binary nodes: checked in preorder, built in reverse preorder
    order, stack = [], [obj]
    while stack:
        o = stack.pop()
        if not isinstance(o, dict) or not isinstance(o.get("children"), list):
            raise DocumentError(f"ordered node must have a children list: {o!r}")
        order.append(len(o["children"]))
        stack.extend(reversed(o["children"]))
    built: list = []
    for n in reversed(order):
        built.append(OrderedTree(tuple(built.pop() for _ in range(n))))
    return built[0]


# -- dk trees ---------------------------------------------------------------


def _direction_str(pi: Direction) -> str:
    return ",".join(str(i) for i in pi)


def _direction_from_str(text: str, d: int, k: int) -> Direction:
    try:
        pi = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise DocumentError(f"bad direction {text!r}") from None
    if len(pi) != k or sorted(set(pi)) != list(pi) or not all(1 <= i <= d for i in pi):
        raise DocumentError(f"{text!r} is not a ({d},{k})-direction")
    return pi


def _dk_to_json(t: DKTree, name) -> Any:
    root: dict = {"children": {}}
    stack = [(t, root)]
    while stack:
        node, out = stack.pop()
        for pi, sub in node.children:
            child = out["children"][name(pi)] = {"children": {}}
            stack.append((sub, child))
    return root


def _dk_from_json(obj: Any, d: int, k: int, direction) -> DKTree:
    # as recursion would: a node is checked when reached, each child key
    # just before its subtree, and a node is built once its subtrees are
    built: list[tuple] = []  # (direction, subtree) of each node built
    stack: list[tuple] = [(False, None, obj)]
    while stack:
        done, key, o = stack.pop()
        if done:  # key is the node's direction, o its number of children
            children = sorted((built.pop() for _ in range(o)), key=lambda c: c[0])
            try:
                built.append((key, DKTree(d, k, tuple(children))))
            except ValueError as exc:
                raise DocumentError(str(exc)) from None
            continue
        pi = None if key is None else direction(key)
        if not isinstance(o, dict) or not isinstance(o.get("children"), dict):
            raise DocumentError(f"dk node must have a children mapping: {o!r}")
        stack.append((True, pi, len(o["children"])))
        stack.extend((False, *item) for item in reversed(o["children"].items()))
    return built[0][1]


# -- documents ---------------------------------------------------------------


def dump_document(obj) -> dict:
    """Serialize a library object to a JSON-compatible document."""
    if isinstance(obj, Empty):
        return {"kind": "binary", "root": None, "side": obj.side}
    if isinstance(obj, Node):
        return {"kind": "binary", "root": _node_to_json(obj)}
    if isinstance(obj, Nat):
        return {
            "kind": "nat",
            "root": _node_to_json(obj.shape),
            "left_labels": {p: v for p, v in obj.left_items},
            "right_labels": {p: v for p, v in obj.right_items},
        }
    if isinstance(obj, OrderedTree):
        return {"kind": "ordered", "root": _ordered_to_json(obj)}
    if isinstance(obj, EmptyDK):
        return {"kind": "dk", "d": obj.d, "k": len(obj.direction), "root": None,
                "direction": _direction_str(obj.direction)}
    if isinstance(obj, DKTree):
        return {"kind": "dk", "d": obj.d, "k": obj.k,
                "root": _dk_to_json(obj, _direction_str)}
    if isinstance(obj, DKNat):
        # each distinct direction is formatted, and parsed below, once per
        # document
        name = lru_cache(maxsize=None)(_direction_str)
        return {
            "kind": "dknat",
            "d": obj.shape.d,
            "k": obj.shape.k,
            "root": _dk_to_json(obj.shape, name),
            "labels": {
                "/".join(map(name, path)): list(lab)
                for path, lab in obj.label_items
            },
        }
    if isinstance(obj, TwoColouredCycle):
        return {"kind": "cycle", "i": obj.i, "j": obj.j, "word": str(obj)}
    raise DocumentError(f"cannot serialize {type(obj).__name__}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DocumentError(message)


def _is_int(value: Any) -> bool:
    """An integer proper: JSON ``true``/``false`` load as bools, which are
    ints to Python, and are not accepted as numbers."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_document(doc: Any):
    """Parse and validate a JSON document into a library object."""
    _require(isinstance(doc, dict), "document must be a JSON object")
    kind = doc.get("kind")
    if kind == "binary":
        root = _node_from_json(doc.get("root"))
        if root is None:
            side = doc.get("side", "L")
            _require(side in ("L", "R"), f"bad empty-tree side {side!r}")
            return EMPTY_LEFT if side == "L" else EMPTY_RIGHT
        return root
    if kind == "nat":
        root = _node_from_json(doc.get("root"))
        _require(root is not None, "a nat document needs a non-empty root")
        left = doc.get("left_labels", {})
        right = doc.get("right_labels", {})
        _require(
            isinstance(left, dict) and isinstance(right, dict),
            "labels must be path -> integer mappings",
        )
        for path, value in (*left.items(), *right.items()):
            _require(_is_int(value),
                     f"label at {path!r} must be an integer, got {value!r}")
        bad = validate_nat(root, left, right)
        if bad:
            raise DocumentError("; ".join(bad))
        # checked here, so the maps do not check it again
        return _mark_checked(Nat.from_labels(root, left, right))
    if kind == "ordered":
        return _ordered_from_json(doc.get("root"))
    if kind in ("dk", "dknat"):
        d, k = doc.get("d"), doc.get("k")
        _require(
            _is_int(d) and _is_int(k) and 1 <= k <= d,
            "dk documents need integers 1 <= k <= d",
        )
        if doc.get("root") is None:
            _require(kind == "dk", "a dknat document needs a non-empty root")
            return EmptyDK(d, _direction_from_str(doc.get("direction", ""), d, k))
        direction = lru_cache(maxsize=None)(partial(_direction_from_str, d=d, k=k))
        shape = _dk_from_json(doc["root"], d, k, direction)
        if kind == "dk":
            return shape
        labels_doc = doc.get("labels", {})
        _require(isinstance(labels_doc, dict), "labels must be a mapping")
        labels = {}
        for key, lab in labels_doc.items():
            # the parts of the key, empty ones dropped
            path = tuple(map(direction, filter(None, key.split("/"))))
            _require(
                isinstance(lab, list) and len(lab) == d
                and all(v is None or _is_int(v) for v in lab),
                f"label at {key!r} must be a {d}-list of integers and nulls",
            )
            labels[path] = tuple(lab)
        try:
            t = DKNat.from_labels(shape, labels)
        except ValueError as exc:
            raise DocumentError(str(exc)) from None
        bad = validate_dknat(t)
        if bad:
            raise DocumentError("; ".join(bad))
        return t
    if kind == "cycle":
        i, j = doc.get("i"), doc.get("j")
        _require(
            _is_int(i) and _is_int(j) and i >= 0 and j >= 0,
            "cycle documents need non-negative integers i and j",
        )
        try:
            c = TwoColouredCycle.parse(doc.get("word"), i, j)
        except ValueError as exc:
            raise DocumentError(str(exc)) from None
        bad = validate_2cbd(c)
        if bad:
            raise DocumentError("; ".join(bad))
        return c
    raise DocumentError(f"unknown document kind {kind!r}")


# -- polynomials and series --------------------------------------------------


def poly_to_json(poly: ParamPoly) -> list[dict]:
    """Sorted list of {"monomial": "a^2*b", "coeff": "3"} records."""
    return [
        {
            "monomial": _monomial(poly.symbols, expo) or "1",
            "coeff": str(poly.coeffs[expo]),
        }
        for expo in sorted(poly.coeffs)
    ]


def series_to_json(s: TruncSeries) -> list[dict]:
    """Flattened coefficient table: series variables and parameters mixed."""
    rows = []
    for expo in sorted(s.coeffs, key=lambda e: (sum(e), e)):
        poly = s.coeffs[expo]
        for p_expo in sorted(poly.coeffs):
            symbols = s.variables + poly.symbols
            exponents = expo + p_expo
            rows.append(
                {
                    "monomial": _monomial(symbols, exponents) or "1",
                    "coeff": str(poly.coeffs[p_expo]),
                }
            )
    return rows
