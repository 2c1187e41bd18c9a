"""Command-line interface: outputs, determinism, exit codes."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from math import factorial
from pathlib import Path

import jsonschema
import pytest

from nat_sampler import random_nats, random_shape
from natlib.bijections import omega, psi, recolour
from natlib.cli import MAX_Q_DEGREE, main
from natlib.nat_core import SINGLE_NODE_NAT, Nat, enumerate_nats_by_size
from natlib.treedoc import dump_document, load_document
from natlib.trees import Node

FIGURES = Path(__file__).parent.parent / "demos" / "figures"
SCHEMA_PATH = (Path(__file__).parent.parent / "src" / "natlib" / "schemas"
               / "treedoc.schema.json")
with open(SCHEMA_PATH, "r", encoding="utf-8") as fh:
    VALIDATOR = jsonschema.Draft202012Validator(json.load(fh))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def run_fresh(*argv):
    """``natlib`` in a fresh interpreter, so the test runner's own stack
    does not count."""
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "natlib", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)


def left_chain_file(tmp_path, n):
    """A binary tree document of the n-vertex left chain."""
    root = '{"left": ' * n + "null" + ', "right": null}' * n
    path = tmp_path / "chain.json"
    path.write_text('{"kind": "binary", "root": ' + root + "}")
    return path


class TestCount:
    def test_trivial_size(self, capsys):
        assert run_json(capsys, "count", "--size", "1x1") == {"count": 1}

    def test_derived_size(self, capsys):
        assert run_json(capsys, "count", "--size", "2x2") == {"count": 3}

    def test_shape_file(self, capsys):
        out = run_json(capsys, "count", "--shape",
                       str(FIGURES / "ex_hook.json"))
        assert out == {"count": 24}

    def test_q_polynomial(self, capsys):
        out = run_json(capsys, "count", "--shape",
                       str(FIGURES / "ex_hook.json"), "--q")
        rows = out["polynomial"]
        assert {"monomial": "q_L*q_R^2", "coeff": "2"} in rows
        assert sum(int(r["coeff"]) for r in rows) == 24

    def test_hook_refinement(self, capsys):
        out = run_json(capsys, "count", "--size", "3x3", "--hook", "2")
        assert out == {"count": 18}

    def test_hook_beyond_the_size_counts_nothing(self, capsys):
        out = run_json(capsys, "count", "--size", "3x3", "--hook", "200000")
        assert out == {"count": 0}

    def test_alpha_beta_polynomial(self, capsys):
        out = run_json(capsys, "count", "--size", "2x2", "--alpha", "--beta")
        total = sum(int(r["coeff"]) for r in out["polynomial"])
        assert total == 3

    # stdout digests recorded while q_hook_formula divided ParamPoly by
    # ParamPoly: the shapes of the three figures, then the 20 seeded random
    # shapes of 5-30 vertices together
    Q_HOOK_DIGESTS = {
        "burstein.json":
            "fc37ac656398c8cdbc859e3903d5b878ea6c9bd6874a1d8d4307c9f8424a0633",
        "ex_hook.json":
            "1196c01de84e27ed2b63d2943b89bdf1cb319d7b79cfbc961f4a6df51c06cc95",
        "sigma_example.json":
            "7c05d9de961d85e6dfc425e5df5dd230e302eef4707ca5ff9f80ce813a78bc2f",
    }
    Q_HOOK_RANDOM_DIGEST = (
        "f58f33d63d126315f3cbf43e8b3df2962c09edf83807aa4a32657b46c5ad6ee6")

    @staticmethod
    def q_hook_stdout(capsys, tmp_path, shape):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(dump_document(shape)))
        code, out, err = run(capsys, "count", "--shape", str(path), "--q")
        assert code == 0, err
        return out

    @pytest.mark.parametrize("figure", sorted(Q_HOOK_DIGESTS))
    def test_q_stdout_is_byte_identical(self, capsys, tmp_path, figure):
        with open(FIGURES / figure, "r", encoding="utf-8") as fh:
            doc = load_document(json.load(fh))
        shape = doc.shape if isinstance(doc, Nat) else doc
        out = self.q_hook_stdout(capsys, tmp_path, shape)
        assert hashlib.sha256(out.encode()).hexdigest() == \
            self.Q_HOOK_DIGESTS[figure]

    def test_q_stdout_on_random_shapes_is_byte_identical(self, capsys,
                                                         tmp_path):
        rng = random.Random(24)
        digest = hashlib.sha256()
        for _ in range(20):
            shape = random_shape(rng.randint(5, 30), rng)
            digest.update(self.q_hook_stdout(capsys, tmp_path, shape).encode())
        assert digest.hexdigest() == self.Q_HOOK_RANDOM_DIGEST

    def test_q_beyond_the_degree_cap_is_resource_error(self, capsys, tmp_path):
        # 37 vertices: the numerator [36]_q! has degree 630
        code, out, err = run(capsys, "count", "--shape",
                             str(left_chain_file(tmp_path, 37)), "--q")
        assert code == 3
        assert out == ""
        assert "degree 630" in err and f"cap {MAX_Q_DEGREE}" in err

    def test_q_on_a_deep_chain_exits_before_any_work(self, tmp_path):
        proc = run_fresh("count", "--shape", left_chain_file(tmp_path, 971),
                         "--q")
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert "degree 469965" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bad_size_is_input_error(self, capsys):
        code, _, err = run(capsys, "count", "--size", "2by2")
        assert code == 2
        assert err

    def test_missing_file_is_input_error(self, capsys):
        code, _, _ = run(capsys, "count", "--shape", "/no/such/file.json")
        assert code == 2

    @pytest.mark.parametrize("argv", [("count", "--shape"), ("bijection", "zeta")])
    def test_deep_document_is_input_error(self, capsys, tmp_path, argv):
        # a 3,000-deep left chain nests deeper than the JSON reader recurses
        depth = 3000
        root = '{"left": ' * depth + "null" + ', "right": null}' * depth
        path = tmp_path / "chain.json"
        path.write_text('{"kind": "binary", "root": ' + root + "}")
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert "nested too deeply" in err
        assert "Traceback" not in err


class TestBijection:
    def test_phi_reference(self, capsys):
        out = run_json(capsys, "bijection", "phi",
                       str(FIGURES / "burstein.json"))
        assert out["cycles"] == ("(1 6 20 12 5 22 10 2 23 13)"
                                 "(3 7 17 15 4 19 18)(8 16 14 9)(11)(21)")
        assert out["permutation"][22] == 13

    def test_psi_reference(self, capsys):
        out = run_json(capsys, "bijection", "psi",
                       str(FIGURES / "burstein.json"))
        VALIDATOR.validate(out["cycle"])
        assert out["cycle"]["word"].startswith("(b9 r5 b8 b3")

    def test_theta_from_cycle_document(self, capsys, tmp_path):
        doc = {"kind": "cycle", "i": 1, "j": 2, "word": "(b2 b1 r1)"}
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(doc))
        out = run_json(capsys, "bijection", "theta", str(path))
        assert sorted(out["permutation"]) == [1, 2]

    @pytest.mark.parametrize("word", [5, None, ["b1", "r1"], "(b1 r1) hello"])
    def test_cycle_word_must_be_as_written(self, capsys, tmp_path, word):
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({"kind": "cycle", "i": 1, "j": 1, "word": word}))
        code, out, err = run(capsys, "bijection", "theta", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: bad cycle word ")

    @pytest.mark.parametrize("labels", [{}, {"3": [None, None, 1], "1": [1, None, None]}])
    def test_dknat_labels_must_cover_the_vertices(self, capsys, tmp_path, labels):
        path = tmp_path / "dknat.json"
        path.write_text(json.dumps({"kind": "dknat", "d": 3, "k": 1,
                                    "root": {"children": {"3": {"children": {}}}},
                                    "labels": labels}))
        code, out, err = run(capsys, "bijection", "phi", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: labels must cover exactly the non-root vertices\n"

    def test_zeta_on_file(self, capsys):
        out = run_json(capsys, "bijection", "zeta",
                       str(FIGURES / "ex_hook.json"))
        VALIDATOR.validate(out["ordered"])

    def test_zeta_table(self, capsys):
        out = run_json(capsys, "bijection", "zeta", "--size", "3", "--all")
        assert len(out["pairs"]) == 5
        for pair in out["pairs"]:
            VALIDATOR.validate(pair["binary"])
            VALIDATOR.validate(pair["ordered"])

    @pytest.mark.parametrize("which", ["phi", "psi", "theta", "zeta"])
    def test_verify_roundtrip(self, capsys, which):
        out = run_json(capsys, "bijection", which,
                       "--verify-roundtrip", "--max-size", "5")
        assert out["ok"] is True
        assert out["checked"] > 0

    @pytest.mark.parametrize("which,checked", [
        ("phi", 8), ("psi", 8), ("theta", 8), ("zeta", 24),
    ])
    def test_verify_roundtrip_stdout(self, capsys, which, checked):
        code, out, _ = run(capsys, "bijection", which,
                           "--verify-roundtrip", "--max-size", "4")
        assert code == 0
        assert out == f'{{\n  "checked": {checked},\n  "ok": true\n}}\n'

    def test_failing_roundtrip_names_its_counterexample(self, capsys,
                                                        monkeypatch):
        # every cycle maps back to the one-vertex tree, so the first tree
        # with two vertices fails
        monkeypatch.setattr("natlib.cli.psi_inverse",
                            lambda cycle: SINGLE_NODE_NAT)
        code, stdout, _ = run(capsys, "bijection", "psi", "--verify-roundtrip",
                              "--max-size", "4")
        # the record is printed as usual, and the process fails
        assert code == 1
        out = json.loads(stdout)
        first_wrong = enumerate_nats_by_size(1, 2)[0]
        assert out == {"ok": False, "checked": 1,
                       "counterexample": dump_document(first_wrong)}
        VALIDATOR.validate(out["counterexample"])
        assert load_document(out["counterexample"]) == first_wrong

    @pytest.mark.parametrize("which,max_size", [
        ("phi", "-1"), ("psi", "-1"), ("theta", "-1"), ("zeta", "-1"),
        ("psi", "1"),
    ])
    def test_roundtrip_that_checks_nothing_is_input_error(self, capsys, which,
                                                          max_size):
        code, out, err = run(capsys, "bijection", which, "--verify-roundtrip",
                             "--max-size", max_size)
        assert code == 2
        assert out == ""
        assert "--max-size" in err

    # stdout digests recorded before the maps moved to the shared grid form
    BURSTEIN_PHI = "17aecf46c92092d4f636f2107234ed6ddc0df2fcd4a33cee06bb21f46fa45019"
    ROUNDTRIP_OK = "6bbc3f57e3cbf4f3ee7aa83cf572720cf7f5c02fe645230a181f6604fad4e9f1"

    @pytest.mark.parametrize("argv,digest", [
        ("phi burstein.json", BURSTEIN_PHI),
        ("phi sigma_example.json",
         "2d3c8a32805d7ff9b7810634922a4d1ce888c5e645099439c525917e371b8889"),
        ("psi burstein.json",
         "eb3d1b6a353b413b9d22da433065d3e41af0b037ee4890b93907508bcf71360c"),
        ("psi sigma_example.json",
         "8f94192bc82439b544238bf20f237039ac28c73e935ba8204429bd32b92a55ea"),
        ("zeta ex_hook.json",
         "585ad5244c407564e9a71e90ac9712db90214508b30a447ee7b3ab97881a334c"),
        ("phi --verify-roundtrip --max-size 8", ROUNDTRIP_OK),
        ("psi --verify-roundtrip --max-size 8", ROUNDTRIP_OK),
        ("theta --verify-roundtrip --max-size 8", ROUNDTRIP_OK),
        ("zeta --verify-roundtrip --max-size 8",
         "8f38979b43610792133792f41e05aea92975de225a966dd6af8b61ca88aa14f8"),
    ])
    def test_stdout_is_byte_identical(self, capsys, argv, digest):
        which, *rest = argv.split()
        if rest[0].endswith(".json"):
            rest[0] = str(FIGURES / rest[0])
        code, out, err = run(capsys, "bijection", which, *rest)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_theta_stdout_is_byte_identical(self, capsys, tmp_path):
        # psi(T) of the Burstein figure: theta maps it to phi(T)
        word = ("(b9 r5 b8 b3 r12 r4 b4 r14 r2 b7 r15 r13 r10 b6 b2 r9 r7 b5"
                " r11 r6 r1 b1 r8 r3)")
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({"kind": "cycle", "i": 15, "j": 9,
                                    "word": word}))
        code, out, err = run(capsys, "bijection", "theta", str(path))
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == self.BURSTEIN_PHI

    # stdout digests recorded before phi, psi and theta moved to the
    # trace-free walk: sha256 of the stdouts of all 20 documents, in order
    RANDOM_DOCUMENT_DIGESTS = {
        "phi": "135f7af04e246f89feaa06c37bb9b2ab355ebdb392f3cdf3c985158296ecadaf",
        "psi": "a4dfaa61d99b971be823c7c22b8fd16a4575487f3f3b749125f8bbb4d11c9580",
        "theta": "8057a103de5ec172c7ee844c35edf5d3fa3c0ad0e622a6de9fdb39cd62ec50b3",
    }

    @staticmethod
    def random_documents(which):
        """20 seeded NAT documents of 5-60 vertices, or for theta the cycles
        of 20 such NATs, every other one under omega."""
        nats = random_nats(20, 5, 60, 23 if which == "theta" else 22)
        if which != "theta":
            return [dump_document(t) for t in nats]
        cycles = [recolour(psi(t), t.w_l, t.w_r) for t in nats]
        return [dump_document(omega(c) if k % 2 else c)
                for k, c in enumerate(cycles)]

    @pytest.mark.parametrize("which", ["phi", "psi", "theta"])
    def test_random_documents_stdout_is_byte_identical(self, capsys, tmp_path,
                                                      which):
        digest = hashlib.sha256()
        for k, doc in enumerate(self.random_documents(which)):
            path = tmp_path / f"doc{k}.json"
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, "bijection", which, str(path))
            assert code == 0, err
            digest.update(out.encode())
        assert digest.hexdigest() == self.RANDOM_DOCUMENT_DIGESTS[which]

    @staticmethod
    def zeta_on_left_chain(tmp_path, n):
        """``natlib bijection zeta`` on an n-vertex left chain."""
        return run_fresh("bijection", "zeta", left_chain_file(tmp_path, n))

    def test_theta_on_a_deep_chain_cycle(self, tmp_path):
        # psi(T) of a 1,500-vertex left chain, as a cycle document
        n = 1500
        shape = Node()
        for _ in range(n - 1):
            shape = Node(shape, None)
        t = Nat.from_labels(shape, {"L" * k: n - k for k in range(1, n)}, {})
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(dump_document(recolour(psi(t), t.w_l, t.w_r))))
        proc = run_fresh("bijection", "theta", path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["permutation"] == list(range(1, n + 1))

    @pytest.mark.parametrize("n", [600, 980])
    def test_zeta_too_deep_to_write_is_resource_error(self, tmp_path, n):
        # the ordered tree of a left chain is a chain as deep as the input
        proc = self.zeta_on_left_chain(tmp_path, n)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "nested too deeply to write" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_zeta_on_a_200_vertex_chain(self, tmp_path):
        proc = self.zeta_on_left_chain(tmp_path, 200)
        assert proc.returncode == 0, proc.stderr
        node, depth = json.loads(proc.stdout)["ordered"]["root"], 0
        while node["children"]:
            (node,) = node["children"]
            depth += 1
        assert depth == 200

    def test_wrong_document_kind(self, capsys):
        code, _, _ = run(capsys, "bijection", "phi",
                         str(FIGURES / "ex_hook.json"))
        assert code == 2

    def test_missing_input(self, capsys):
        code, _, _ = run(capsys, "bijection", "phi")
        assert code == 2


def chain_nat_doc(left_labels):
    """A NAT document of a root with a left chain below it."""
    root = {"left": None, "right": None}
    for _ in left_labels:
        root = {"left": root, "right": None}
    return {"kind": "nat", "root": root, "left_labels": left_labels,
            "right_labels": {}}


class TestStrictDocuments:
    """Numbers in documents are JSON integers: strings, floats and booleans
    are input errors (exit 2), not tracebacks or silent conversions."""

    DK_SHAPE = {"children": {"1": {"children": {}}}}

    @pytest.mark.parametrize("command,doc", [
        ("phi", chain_nat_doc({"L": "a", "LL": 1})),
        ("phi", chain_nat_doc({"L": 1.0})),
        ("psi", chain_nat_doc({"L": 1.0})),
        ("psi", chain_nat_doc({"L": True})),
        ("phi", chain_nat_doc({"L": 2, "LL": False})),
        ("phi", {"kind": "dknat", "d": 3, "k": 1,
                 "root": {"children": {"3": {"children": {}}}},
                 "labels": {"3": [None, None, True]}}),
        ("count", {"kind": "dk", "d": True, "k": 1, "root": DK_SHAPE}),
        ("count", {"kind": "dk", "d": 3, "k": True, "root": DK_SHAPE}),
        ("theta", {"kind": "cycle", "i": True, "j": 2, "word": "(b2 b1 r1)"}),
        ("theta", {"kind": "cycle", "i": 1, "j": 2.0, "word": "(b2 b1 r1)"}),
    ])
    def test_non_integer_numbers_are_input_errors(self, tmp_path, command, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = (("count", "--shape", path) if command == "count"
                else ("bijection", command, path))
        proc = run_fresh(*argv)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "integer" in proc.stderr

    def test_integer_labels_still_load(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(chain_nat_doc({"L": 2, "LL": 1})))
        out = run_json(capsys, "bijection", "psi", str(path))
        assert out["one_line"] == [3, 0, 1, 2]


class TestSeries:
    @pytest.mark.parametrize("which,extra", [
        ("N", []),
        ("M", []),
        ("N_ab", []),
        ("hookgf", []),
        ("Ndk", ["--d", "2", "--k", "1"]),
        ("Ndk", ["--d", "3", "--k", "3"]),
        ("BpOp", []),
    ])
    def test_diff_against_closed_form_is_zero(self, capsys, which, extra):
        out = run_json(capsys, "series", which, "--order", "5",
                       "--diff-against-closed-form", *extra)
        assert out == {"difference": "0"}

    def test_coefficient_dump(self, capsys):
        out = run_json(capsys, "series", "N", "--order", "3")
        rows = {r["monomial"]: r["coeff"] for r in out["series"]}
        assert rows["1"] == "1"
        assert rows["x*y"] == "3"

    def test_ndk_requires_dimensions(self, capsys):
        code, _, _ = run(capsys, "series", "Ndk", "--order", "3")
        assert code == 2

    def test_order_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("NATLIB_MAX_ORDER", "4")
        code, _, err = run(capsys, "series", "N", "--order", "6")
        assert code == 3
        assert "cap" in err

    def test_no_closed_form_is_input_error(self, capsys):
        code, _, _ = run(capsys, "series", "Ndk", "--order", "3",
                         "--d", "3", "--k", "2",
                         "--diff-against-closed-form")
        assert code == 2

    @pytest.mark.parametrize("order", ["0", "1"])
    def test_m_below_order_2_has_no_gap_to_report(self, capsys, order):
        # d/dx d/dy M is known below total degree order - 2 only
        code, out, err = run(capsys, "series", "M", "--order", order,
                             "--diff-against-closed-form")
        assert code == 2
        assert out == ""
        assert "nothing to compare" in err
        # the series itself is still written
        assert "series" in run_json(capsys, "series", "M", "--order", order)

    # the closed forms on packed counts reach orders the ParamPoly
    # expansion took tens of seconds for
    @pytest.mark.parametrize("argv", ["N --order 30", "hookgf --order 16"])
    def test_closed_form_gap_at_high_order_is_zero(self, capsys, argv):
        code, out, err = run(capsys, "series", *argv.split(),
                             "--diff-against-closed-form")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a9f7c5c4d98bb531bb628d28d8dece2ddc7b816fc2422e270b999158932f48f4")


    @pytest.mark.parametrize("extra", [
        ["--d", "7", "--k", "1", "--order", "2"],
        ["--d", "6", "--k", "3", "--order", "30"],
    ])
    def test_ndk_beyond_desk_scale_is_resource_error(self, capsys, extra):
        code, out, err = run(capsys, "series", "Ndk", *extra)
        assert code == 3
        assert out == ""
        assert "exceeds the supported" in err

    def test_ndk_guard_counts_the_monoid_the_plan_keeps(self, capsys):
        # refused before, at 231^3 predicted terms over the full box
        rows = run_json(capsys, "series", "Ndk", "--d", "3", "--k", "3",
                        "--order", "20")["series"]
        assert len(rows) == 21
        assert rows[-1] == {"monomial": "x1^20*x2^20*x3^20",
                            "coeff": f"1/{factorial(20) ** 3}"}

    def test_ndk_guard_counts_the_work_not_only_the_box(self):
        # 31^3 cells pass the box guard; the 3 * 496^3 products they need
        # are refused before any is computed
        start = time.perf_counter()
        proc = run_fresh("series", "Ndk", "--d", 3, "--k", 1, "--order", 30)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert f"convolution-term count {3 * 496 ** 3} exceeds" in proc.stderr
        assert elapsed < 1

    # stdout digests recorded with the earlier Picard-iteration solvers:
    # computing the coefficients degree by degree must not change a byte
    @pytest.mark.parametrize("argv,digest", [
        ("N --order 12",
         "5fc3ade5b951086793ad50fb5875a3bf9d832d8a35e7db4b35d2030ab4b502e5"),
        ("M --order 10",
         "22ec834238e508eb07edb1d713a5caa770f9ed3bc16de1311c508014aeb835d8"),
        ("Ndk --d 3 --k 1 --order 5",
         "e4985a2541c49e1cd11ba74459b4d738d1db0f96de91a1b957e446141b2fef55"),
        ("BpOp --order 10",
         "fe278bdf4557a9ed696bcb2684d9c17446e433f0c8cc41e816897834c1936332"),
        ("N --order 12 --diff-against-closed-form",
         "a9f7c5c4d98bb531bb628d28d8dece2ddc7b816fc2422e270b999158932f48f4"),
        # recorded with the Taylor-loop exp, log and inverse
        ("N_ab --order 10",
         "1e47fd8f5dc3b1f97603e1c0a01dfbc6d1cf78a96d52450999a7099fd6fdeabb"),
        ("hookgf --order 8",
         "e0920c91bc299b7395b94d3e7ac59d0439b8a632beeb867fec1f3bd85b5b4c34"),
        ("N --order 24",
         "a636b7b05089238c48464199986632efc9364bca2d04d676d0219cb174c279e4"),
        ("N --order 30",
         "41beb6d921988d8406a58524b18ca37345ce83b288fd0c5b6d60dc423b873b54"),
        *((f"{which} --order 8 --diff-against-closed-form",
           "a9f7c5c4d98bb531bb628d28d8dece2ddc7b816fc2422e270b999158932f48f4")
          for which in ("N_ab", "hookgf", "M", "Ndk --d 2 --k 1",
                        "Ndk --d 3 --k 3", "BpOp")),
    ])
    def test_stdout_is_byte_identical(self, capsys, argv, digest):
        code, out, err = run(capsys, "series", *argv.split())
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @staticmethod
    def _refuse(monkeypatch, name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{name} is not needed for this output")
        monkeypatch.setattr(f"natlib.cli.{name}", refuse)

    @pytest.mark.parametrize("refused,argv", [
        ("closed_N_ab", "N --order 8"),
        ("closed_N_ab", "hookgf --order 6"),
        ("solve_N", "N_ab --order 6"),
    ])
    def test_series_alone_computes_no_closed_form_gap(self, capsys, monkeypatch,
                                                      refused, argv):
        self._refuse(monkeypatch, refused)
        out = run_json(capsys, "series", *argv.split())
        assert out["series"]

    def test_closed_form_gap_renders_no_series(self, capsys, monkeypatch):
        self._refuse(monkeypatch, "series_to_json")
        out = run_json(capsys, "series", "N", "--order", "8",
                       "--diff-against-closed-form")
        assert out == {"difference": "0"}


class TestHistogram:
    def test_hook_csv(self, capsys):
        code, out, _ = run(capsys, "histogram", "--size", "2x2",
                           "--stat", "hook")
        assert code == 0
        assert out.splitlines() == ["value,count", "1,1", "2,2"]

    def test_ce_matches_hook(self, capsys):
        _, hook_out, _ = run(capsys, "histogram", "--size", "3x3",
                             "--stat", "hook")
        _, ce_out, _ = run(capsys, "histogram", "--size", "3x3",
                           "--stat", "ce")
        assert hook_out == ce_out

    def test_binary_vs_ordered_transport(self, capsys):
        _, b_out, _ = run(capsys, "histogram", "--binary-size", "4",
                          "--stat", "hook")
        _, o_out, _ = run(capsys, "histogram", "--ordered-edges", "4",
                          "--stat", "childleaf")
        assert b_out == o_out

    def test_size_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("NATLIB_MAX_ORDER", "4")
        code, _, _ = run(capsys, "histogram", "--size", "4x4",
                         "--stat", "hook")
        assert code == 3

    def test_invalid_stat_combination(self, capsys):
        code, _, _ = run(capsys, "histogram", "--binary-size", "3",
                         "--stat", "ce")
        assert code == 2


class TestDeterminism:
    def test_repeated_runs_agree(self, capsys):
        first = run(capsys, "series", "N_ab", "--order", "4")
        second = run(capsys, "series", "N_ab", "--order", "4")
        assert first == second
