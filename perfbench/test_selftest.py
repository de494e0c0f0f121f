"""Tiny-size self-test of the benchmark: every workload path, traced and
untraced, every output check and the tracer, in about a minute.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import harness  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    wl = WORKLOADS[name]
    return dataclasses.replace(
        wl, synth={**wl.synth, "n_scenes": 16},
        train={**wl.train, "stage1_epochs": 1, "stage2_epochs": 1}, datasets=2)


def test_workloads_match_the_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_clean(name, trace):
    names = [m["name"] for m in SPEC["per_layer"]]
    result = harness.run_workload(tiny(name), seed=3, seconds=0, trace=trace,
                                  root=ROOT, per_layer_names=names)
    assert result["record"]["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    expected = names if trace else [m["name"] for m in SPEC["end_to_end"]]
    assert sorted(metrics) == sorted(expected)
    assert all(math.isfinite(v) for v in metrics.values())
    if not trace:
        assert all(v > 0 for v in metrics.values())
        return
    if name == "infer-dense":
        assert metrics["gradkit.backward.self_s"] == 0
        assert all(v == 0 for k, v in metrics.items() if k.startswith("matching."))
        assert metrics["hrs.score_expression.calls"] > 0
    else:
        assert metrics["gradkit.backward.self_s"] > 0
        assert metrics["matching.cost_cells"] > 0
        assert metrics["gradkit.tape_nodes_per_scene"] > 100
    assert metrics["synth.scenes.gen_scenes_s"] > 0
    assert metrics["geometry.iou.calls"] > 0


def test_failed_command_is_counted(tmp_path):
    ops = harness.Ops()
    harness.run_cli(ops, ["eval", "--out", str(tmp_path), "--split", "test"])
    assert ops.attempted == 1 and len(ops.failures) == 1


def test_output_checks_count_failures(tmp_path):
    wl = WORKLOADS["train-sparse"]
    header = json.dumps({"record": "header"})
    (tmp_path / "predictions-test.jsonl").write_text(header + "\n{}\n")
    (tmp_path / "report-test.json").write_text(json.dumps({"by_scale": {}}))
    ops = harness.Ops()
    harness.check_outputs(wl, tmp_path, ops, {"test": {"expressions": 2}})
    assert ops.attempted == 2
    assert any("1 prediction records for 2" in f for f in ops.failures)
    assert any("lacks the overall row" in f for f in ops.failures)

    ops = harness.Ops()
    harness.check_same(ops, "round", [{"params.json": "a"}, {"params.json": "a"},
                                      {"params.json": "b"}])
    assert ops.attempted == 2 and len(ops.failures) == 1


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.run_id = "r"
    with tracer.span("hrs.score_expression"):
        with tracer.span("gradkit.backward"):
            pass
        with tracer.span("trace.tape_count"):
            pass
    outer, inner, other = tracer.spans
    assert inner.parent == 0 and other.parent == 0 and outer.parent is None
    agg = tracer.aggregate(["r"])
    expected = (outer.end - outer.start) - (inner.end - inner.start) - (other.end - other.start)
    assert agg.metric("hrs.score_expression.self_s") == pytest.approx(expected)
    assert agg.metric("hrs.score_expression.calls") == 1
    assert agg.self_time_table()["hrs.score_expression"]["gradkit"] == pytest.approx(
        inner.end - inner.start)


def test_instrument_restores_originals():
    from gvgkit import evaluation, hrs
    before = (hrs.score_expression, hrs.HrsParams.__dict__["load"], evaluation.iou)
    with Tracer().instrument("r"):
        assert evaluation.iou is not before[2]
        assert hrs.HrsParams.__dict__["load"] is not before[1]
    assert (hrs.score_expression, hrs.HrsParams.__dict__["load"], evaluation.iou) == before


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-sparse",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
