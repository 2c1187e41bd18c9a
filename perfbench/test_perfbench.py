"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import random

import pytest

import run
import tracing
import workloads
from sampler import random_nat, random_shape

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return run.load_natlib()


def test_sampler_reaches_every_nat_of_every_5_vertex_shape(lib):
    rng = random.Random(0)
    for shape in lib.trees.enumerate_binary_trees(5):
        expected = set(lib.nat_core.enumerate_nats_of_shape(shape))
        seen = {random_nat(lib, shape, rng) for _ in range(40 * len(expected))}
        assert seen == expected


def test_shape_generator_is_seeded_and_reaches_every_shape(lib):
    rng = random.Random(0)
    seen = {random_shape(lib, 4, rng) for _ in range(400)}
    assert seen == set(lib.trees.enumerate_binary_trees(4))
    assert random_shape(lib, 30, random.Random(5)) == random_shape(lib, 30, random.Random(5))


def test_inputs_depend_only_on_the_seed(lib):
    for name, cls in workloads.WORKLOADS.items():
        if name == "roundtrip":
            continue
        assert cls(lib).generate(random.Random(4)) == cls(lib).generate(random.Random(4))
    w = workloads.Roundtrip(lib)
    w.POOL = 20
    first = [doc for doc, _ in w.generate(random.Random(4))]
    assert first == [doc for doc, _ in w.generate(random.Random(4))]
    assert first != [doc for doc, _ in w.generate(random.Random(5))]


def _result(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def test_a_run_prints_every_end_to_end_metric_and_its_metadata(capsys):
    code = run.main(["--workload", "series", "--seed", "2", "--seconds", "0.01"])
    meta, result = _result(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 5 and result["failed"] == 0
    names = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for key in ("git_revision", "nproc", "python", "seed", "src_lines", "fail_ratio"):
        assert key in meta
    assert meta["seed"] == 2 and meta["fail_ratio"] == 0
    assert set(meta["metrics"]) == set(names)
    assert meta["metrics"]["call_tail_ms"]["percentile"] == workloads.Series.tail_pct
    assert meta["metrics"]["setup_s"]["samples"] == run.SETUP_REPEATS


def test_a_wrong_expected_value_fails_the_run(capsys, monkeypatch):
    real = workloads.Workload.count
    monkeypatch.setattr(workloads.Workload, "count",
                        lambda self, i, j: real(self, i, j) + (i + j == 7))
    code = run.main(["--workload", "series", "--seed", "2", "--seconds", "0.01"])
    meta, result = _result(capsys)
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    assert meta["fail_ratio"] > 0


def test_a_run_that_checks_nothing_does_not_succeed(capsys, monkeypatch):
    monkeypatch.setattr(workloads.Series, "generate", lambda self, rng: [])
    code = run.main(["--workload", "series", "--seed", "2", "--seconds", "0.01"])
    assert code != 0
    assert '"correct"' not in capsys.readouterr().out


def test_per_layer_metrics_match_benchmark_json():
    names = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert dict(tracing.PER_LAYER) == names
    documented = json.loads((run.HERE / "metrics.json").read_text())
    assert set(documented["per_layer"]) == set(names)
    assert set(documented["end_to_end"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_install_patches_every_binding_and_uninstall_restores(lib):
    originals = (lib.trees.vertices, lib.nat_core.nat_to_geometric,
                 vars(lib.formulas.ParamPoly)["__radd__"])
    tr = tracing.Tracer()
    tr.install(lib, [lib.trees, lib.nat_core, lib.bijections, lib.formulas])
    try:
        assert lib.nat_core.vertices.__wrapped__ is originals[0]
        assert lib.trees.vertices.__wrapped__ is originals[0]
        assert lib.bijections.nat_to_geometric.__wrapped__ is originals[1]
        assert vars(lib.formulas.ParamPoly)["__radd__"].__wrapped__ is originals[2]
    finally:
        tr.uninstall()
    assert lib.nat_core.vertices is originals[0] is lib.trees.vertices
    assert lib.bijections.nat_to_geometric is originals[1]
    assert vars(lib.formulas.ParamPoly)["__radd__"] is originals[2]


def _small_set(lib, name):
    w = workloads.WORKLOADS[name](lib)
    if name == "roundtrip":
        w.POOL = 8
    inputs = w.generate(random.Random(3))
    if name == "series":
        inputs = [i for i in inputs if i in (("solve_M", (10,)), ("solve_N_dk", (2, 1, 6)))]
    elif name == "census":
        shapes = next(i for i in inputs if i[0] == "dk")[1]
        inputs = [i for i in inputs if i[0] == "size" and i[1] in (2, 7)]
        inputs.append(("dk", shapes[:40]))
    elif name == "qpoly":
        inputs = inputs[:60]
    return w, inputs


def _traced_pass(lib, w, inputs):
    tr = tracing.Tracer()
    tr.install(lib, [m for m in vars(lib).values()])
    try:
        digests = []
        for idx, inp in enumerate(inputs):
            tr.begin_call(idx)
            digests.append(w.digest(w.call(inp)))
            tr.end_call("call")
    finally:
        tr.uninstall()
    return digests, tracing.layer_metrics(tr, len(inputs), 1.0)


COUNTS = [name for name, unit in tracing.PER_LAYER if unit == "count"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_keeps_outputs_and_repeats_op_counts(lib, name):
    w, inputs = _small_set(lib, name)
    untraced = [w.digest(w.call(inp)) for inp in inputs]
    first, metrics_1 = _traced_pass(lib, w, inputs)
    second, metrics_2 = _traced_pass(lib, w, inputs)
    assert first == untraced == second
    assert {k: metrics_1[k] for k in COUNTS} == {k: metrics_2[k] for k in COUNTS}
    assert any(metrics_1[k] for k in COUNTS)
