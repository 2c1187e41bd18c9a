"""JSON document round-trips and schema conformance."""

import json
from pathlib import Path

import jsonschema
import pytest

from natlib.natdk import DKNat, enumerate_dknats_of_shape
from natlib.nat_core import SINGLE_NODE_NAT, Nat, enumerate_nats_by_size
from natlib.perms import TwoColouredCycle
from natlib.treedoc import (
    DocumentError,
    _direction_from_str,
    dump_document,
    load_document,
    poly_to_json,
    series_to_json,
)
from natlib.formulas import ParamPoly
from natlib.series import TruncSeries
from natlib.trees import (
    EMPTY_LEFT,
    EMPTY_RIGHT,
    LEAF,
    DKTree,
    EmptyDK,
    Node,
    OrderedTree,
    enumerate_binary_trees,
    enumerate_dk_trees,
    enumerate_ordered_trees,
)

SCHEMA_PATH = (Path(__file__).parent.parent / "src" / "natlib" / "schemas"
               / "treedoc.schema.json")
with open(SCHEMA_PATH, "r", encoding="utf-8") as fh:
    SCHEMA = json.load(fh)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def roundtrip(obj):
    doc = dump_document(obj)
    VALIDATOR.validate(doc)
    # force a pass through real JSON text
    return load_document(json.loads(json.dumps(doc)))


class TestRoundTrips:
    def test_binary(self):
        for n in range(0, 5):
            for t in enumerate_binary_trees(n):
                assert roundtrip(t) == t
        assert roundtrip(EMPTY_LEFT) == EMPTY_LEFT
        assert roundtrip(EMPTY_RIGHT) == EMPTY_RIGHT

    def test_nat(self):
        assert roundtrip(SINGLE_NODE_NAT) == SINGLE_NODE_NAT
        for t in enumerate_nats_by_size(3, 2):
            assert roundtrip(t) == t

    def test_ordered(self):
        assert roundtrip(LEAF) == LEAF
        for t in enumerate_ordered_trees(4):
            assert roundtrip(t) == t

    def test_dk(self):
        for t in enumerate_dk_trees(3, 2, 3):
            assert roundtrip(t) == t
        assert roundtrip(EmptyDK(3, (1, 3))) == EmptyDK(3, (1, 3))

    def test_dknat(self):
        shape = DKTree(3, 2, (((1, 2), DKTree(3, 2, ())),
                              ((2, 3), DKTree(3, 2, ()))))
        for t in enumerate_dknats_of_shape(shape):
            assert roundtrip(t) == t

    def test_cycle(self):
        c = TwoColouredCycle.parse("(b2 b1 r1)", 1, 2)
        assert roundtrip(c) == c

    @pytest.mark.parametrize("d", range(1, 5))
    def test_empty_dk_keeps_its_dimension(self, d):
        for k in range(1, d + 1):
            for t in enumerate_dk_trees(d, k, 0):
                doc = dump_document(t)
                assert (doc["d"], doc["k"]) == (d, k)
                assert roundtrip(t) == t


DK_LEAF = {"children": {}}


def dk_from_json_by_recursion(obj, d, k):
    """The recursive reader ``treedoc`` used before it kept its own stack,
    kept as the reference for which bad node is reported first."""
    if not isinstance(obj, dict) or not isinstance(obj.get("children"), dict):
        raise DocumentError(f"dk node must have a children mapping: {obj!r}")
    children = tuple(
        sorted(
            (_direction_from_str(key, d, k), dk_from_json_by_recursion(sub, d, k))
            for key, sub in obj["children"].items()
        )
    )
    try:
        return DKTree(d, k, children)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def same_shape(a, b, children) -> bool:
    """Compare two trees without recursion (``==`` on nodes recurses)."""
    stack = [(a, b)]
    while stack:
        u, v = stack.pop()
        if (u is None) != (v is None):
            return False
        if u is not None:
            cu, cv = children(u), children(v)
            if len(cu) != len(cv):
                return False
            stack.extend(zip(cu, cv))
    return True


def binary_children(node):
    return [node.left, node.right]


def ordered_children(node):
    return list(node.children)


class TestDeepDocuments:
    """The document walkers keep their own stacks: trees far deeper than the
    interpreter's recursion limit are written and read back."""

    DEPTH = 5000

    def test_left_chain_nat(self):
        n = self.DEPTH
        shape = Node()
        for _ in range(n - 1):
            shape = Node(shape, None)
        t = Nat.from_labels(shape, {"L" * k: n - k for k in range(1, n)}, {})
        back = load_document(dump_document(t))
        assert isinstance(back, Nat)
        assert (back.left_items, back.right_items) == (t.left_items, t.right_items)
        assert same_shape(back.shape, t.shape, binary_children)

    def test_right_chain_binary(self):
        t = Node()
        for _ in range(self.DEPTH - 1):
            t = Node(None, t)
        back = load_document(dump_document(t))
        assert same_shape(back, t, binary_children)
        assert not same_shape(back, Node(None, Node()), binary_children)

    def test_ordered_chain(self):
        t = LEAF
        for _ in range(self.DEPTH - 1):
            t = OrderedTree((LEAF, t))
        back = load_document(dump_document(t))
        assert same_shape(back, t, ordered_children)

    def test_the_first_bad_node_is_reported(self):
        doc = {"kind": "binary", "root": {"left": {"left": 1}, "right": 2}}
        with pytest.raises(DocumentError, match="got 1"):
            load_document(doc)
        doc = {"kind": "ordered",
               "root": {"children": [{"children": [3]}, {"kids": []}]}}
        with pytest.raises(DocumentError, match="3"):
            load_document(doc)

    def test_dk_chain(self):
        t = DKTree(2, 1)
        for _ in range(self.DEPTH - 1):
            t = DKTree(2, 1, (((1,), t),))
        assert load_document(dump_document(t)) == t

    @pytest.mark.parametrize("root", [
        {"children": {"1": {"children": {"x": DK_LEAF}}, "2": 5}},
        {"children": {"1": {"children": {"2": []}}, "3": DK_LEAF}},
        {"children": {"1": DK_LEAF, "1,2": {"children": {"2": 5}}}},
        {"children": {"2": {"children": {"1": DK_LEAF, " 1": DK_LEAF}},
                      "9": DK_LEAF}},
        {"children": {"2": DK_LEAF, "1": {"kids": {}}}},
        {"children": []},
    ])
    def test_the_first_bad_dk_node_is_the_recursive_one(self, root):
        # preorder, children in document order, a node's own (d,k) check
        # after its subtrees
        with pytest.raises(DocumentError) as expected:
            dk_from_json_by_recursion(root, 2, 1)
        with pytest.raises(DocumentError) as got:
            load_document({"kind": "dk", "d": 2, "k": 1, "root": root})
        assert str(got.value) == str(expected.value)

    def test_repeated_dk_direction_is_a_document_error(self):
        # "1" and " 1" read as the same direction; the recursive reader
        # compared the two subtrees while sorting and raised TypeError
        root = {"children": {"1": DK_LEAF, " 1": {"children": {"2": DK_LEAF}}}}
        with pytest.raises(DocumentError, match="distinct directions"):
            load_document({"kind": "dk", "d": 2, "k": 1, "root": root})


class TestRejections:
    def test_unknown_kind(self):
        with pytest.raises(DocumentError):
            load_document({"kind": "weird"})
        with pytest.raises(DocumentError):
            load_document([1, 2, 3])

    def test_invalid_nat_labelling(self):
        doc = {
            "kind": "nat",
            "root": {"left": {"left": None, "right": None}, "right": None},
            "left_labels": {"L": 7},
            "right_labels": {},
        }
        with pytest.raises(DocumentError):
            load_document(doc)

    def test_invalid_cycle(self):
        doc = {"kind": "cycle", "i": 1, "j": 2, "word": "(b1 b2 r1)"}
        with pytest.raises(DocumentError):
            load_document(doc)  # blocks must decrease

    @pytest.mark.parametrize("labels", [
        {},  # a missing key
        {"3": [None, None, 1], "1": [1, None, None]},  # an extra key
    ])
    def test_dknat_labels_must_cover_the_vertices(self, labels):
        doc = {"kind": "dknat", "d": 3, "k": 1,
               "root": {"children": {"3": {"children": {}}}}, "labels": labels}
        with pytest.raises(DocumentError) as info:
            load_document(doc)
        assert str(info.value) == "labels must cover exactly the non-root vertices"

    @pytest.mark.parametrize("word", [5, None, ["b1", "r1"], "(b1 r1) hello",
                                      "(b1 r1)\n", "b1 r1", "(b1,r1)"])
    def test_cycle_word_must_be_as_written(self, word):
        doc = {"kind": "cycle", "i": 1, "j": 1, "word": word}
        with pytest.raises(DocumentError):
            load_document(doc)

    def test_bad_direction(self):
        doc = {"kind": "dk", "d": 3, "k": 2, "root": None, "direction": "2,1"}
        with pytest.raises(DocumentError):
            load_document(doc)

    @pytest.mark.parametrize("bad,error", [
        ("2,1", "'2,1' is not a (3,1)-direction"),
        ("x", "bad direction 'x'"),
    ])
    def test_bad_direction_deep_in_a_label_key(self, bad, error):
        # every distinct direction string is checked, also one that only
        # appears deep inside the last key, whose other parts were all read
        # before
        shape = DKTree(3, 1)
        for pi in [(1,), (2,), (3,)] * 10:
            shape = DKTree(3, 1, ((pi, shape),))
        doc = dump_document(enumerate_dknats_of_shape(shape)[0])
        key = max(doc["labels"], key=len)
        parts = key.split("/")
        assert len(parts) == 30
        parts[15] = bad
        doc["labels"]["/".join(parts)] = doc["labels"].pop(key)
        with pytest.raises(DocumentError) as got:
            load_document(doc)
        assert str(got.value) == error

    @pytest.mark.parametrize("value", ["1", 1.0, True, None, [1]])
    def test_nat_label_must_be_an_integer(self, value):
        doc = {
            "kind": "nat",
            "root": {"left": {"left": None, "right": None}, "right": None},
            "left_labels": {"L": value},
            "right_labels": {},
        }
        with pytest.raises(DocumentError, match="must be an integer"):
            load_document(doc)

    @pytest.mark.parametrize("doc", [
        {"kind": "dk", "d": True, "k": 1, "root": None, "direction": "1"},
        {"kind": "dk", "d": 2, "k": True, "root": None, "direction": "1"},
        {"kind": "dknat", "d": 3, "k": 1,
         "root": {"children": {"3": {"children": {}}}},
         "labels": {"3": [None, None, True]}},
        {"kind": "cycle", "i": True, "j": 2, "word": "(b2 b1 r1)"},
        {"kind": "cycle", "i": 1, "j": True, "word": "(b1 r1)"},
    ])
    def test_booleans_are_not_integers(self, doc):
        with pytest.raises(DocumentError):
            load_document(doc)

    # JSON Schema's "integer" admits 1.0; the loader, stricter, refuses it,
    # and the schema can only say so in its description
    @pytest.mark.parametrize("doc", [
        {"kind": "nat",
         "root": {"left": {"left": None, "right": None}, "right": None},
         "left_labels": {"L": 1.0}, "right_labels": {}},
        {"kind": "dk", "d": 2.0, "k": 1, "root": None, "direction": "1"},
        {"kind": "dknat", "d": 3, "k": 1,
         "root": {"children": {"3": {"children": {}}}},
         "labels": {"3": [None, None, 1.0]}},
        {"kind": "cycle", "i": 1.0, "j": 1, "word": "(b1 r1)"},
    ])
    def test_schema_admits_integral_floats_that_load_document_refuses(self, doc):
        assert VALIDATOR.is_valid(doc)
        with pytest.raises(DocumentError, match="integer"):
            load_document(doc)
        integral = json.loads(json.dumps(doc).replace("1.0", "1")
                              .replace("2.0", "2"))
        assert VALIDATOR.is_valid(integral)
        load_document(integral)

    def test_nat_needs_root(self):
        with pytest.raises(DocumentError):
            load_document({"kind": "nat", "root": None,
                           "left_labels": {}, "right_labels": {}})


class TestShippedFigures:
    @pytest.mark.parametrize("name", ["burstein.json", "sigma_example.json",
                                      "ex_hook.json"])
    def test_figures_are_schema_valid(self, name):
        path = Path(__file__).parent.parent / "demos" / "figures" / name
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        VALIDATOR.validate(doc)
        load_document(doc)


class TestPolynomialSerialization:
    def test_poly_rows(self):
        a = ParamPoly.var("a", ("a", "b"))
        b = ParamPoly.var("b", ("a", "b"))
        rows = poly_to_json(3 * a ** 2 * b + 1)
        assert {"monomial": "1", "coeff": "1"} in rows
        assert {"monomial": "a^2*b", "coeff": "3"} in rows

    def test_rational_coefficients_are_strings(self):
        from fractions import Fraction

        p = ParamPoly(("q",), {(1,): Fraction(1, 3)})
        assert poly_to_json(p) == [{"monomial": "q", "coeff": "1/3"}]

    def test_series_rows(self):
        x = TruncSeries.var("x", ("x",), 3)
        rows = series_to_json(1 + 2 * x)
        assert rows == [
            {"monomial": "1", "coeff": "1"},
            {"monomial": "x", "coeff": "2"},
        ]
