import base64
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gvgkit import datagen
from gvgkit.cli import main
from gvgkit.synth import SplitData, load_config, train_two_stage
from gvgkit.synth.predict import read_predictions


def decode_le(text: str, dtype: str) -> np.ndarray:
    """The flat array stored as ``text``, base64 of little-endian bytes."""
    return np.frombuffer(base64.b64decode(text, validate=True), dtype=dtype)


def encode_le(values, dtype: str) -> str:
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode()


def decode_tensor(spec: dict) -> np.ndarray:
    """The flat float64 values of one checkpoint tensor entry."""
    return decode_le(spec["float64_le"], "<f8")


def set_tensor_value(payload: dict, name: str, index, value: float) -> None:
    """Decode tensor ``name`` of a checkpoint payload, set its flat entry
    or entries ``index`` (an int or a slice) to ``value`` and store it
    back encoded."""
    spec = payload["tensors"][name]
    values = decode_tensor(spec).copy()
    values[index] = value
    spec["float64_le"] = encode_le(values, "<f8")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = {
        "synth": {"seed": 3, "n_scenes": 30},
        "train": {"seed": 3, "stage1_epochs": 4, "stage2_epochs": 4},
    }
    cfg_path = out / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["build", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["train", "--out", str(out)]) == 0
        assert main(["predict", "--out", str(out), "--split", "test"]) == 0
        assert main(["eval", "--out", str(out), "--split", "test"]) == 0
    return out


class TestPipeline:
    def test_artifacts_exist(self, run_dir):
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "stats.json",
                     "config.json", "refiner.json", "params.json", "log.csv",
                     "predictions-test.jsonl", "report-test.json", "report-test.txt"):
            assert (run_dir / name).exists(), name

    def test_seed_recorded_in_headers(self, run_dir):
        for name in ("train.jsonl", "predictions-test.jsonl"):
            header = json.loads((run_dir / name).read_text().splitlines()[0])
            assert header["seed"] == 3
        assert json.loads((run_dir / "report-test.json").read_text())["seed"] == 3
        assert (run_dir / "log.csv").read_text().startswith("# seed=3")

    def test_build_idempotent(self, run_dir, tmp_path):
        out2 = tmp_path / "again"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["build", "--config", str(run_dir / "config.json"),
                         "--out", str(out2)]) == 0
        for name in ("train.jsonl", "val.jsonl", "test.jsonl"):
            assert (run_dir / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_stats_counts_match_records(self, run_dir):
        stats = json.loads((run_dir / "stats.json").read_text())
        for name in ("train", "val", "test"):
            lines = (run_dir / f"{name}.jsonl").read_text().splitlines()
            records = [json.loads(l) for l in lines[1:]]
            n_scenes = sum(1 for r in records if r["record"] == "scene")
            n_exprs = sum(1 for r in records if r["record"] == "expression")
            assert stats["splits"][name]["scenes"] == n_scenes
            assert stats["splits"][name]["expressions"] == n_exprs

    def test_negatives_only_in_test_split(self, run_dir):
        for name in ("train", "val", "test"):
            lines = (run_dir / f"{name}.jsonl").read_text().splitlines()
            kinds = {json.loads(l)["negative_kind"] for l in lines[1:]
                     if json.loads(l)["record"] == "expression"}
            if name == "test":
                assert kinds - {"none"}, "test split should carry manipulations"
            else:
                assert kinds <= {"none"}

    def test_predictions_sorted_and_readable(self, run_dir):
        preds = read_predictions(run_dir / "predictions-test.jsonl")
        assert preds.records
        for rec in preds.records:
            assert np.all(np.diff(rec.scores) <= 0)

    def test_report_contains_strata(self, run_dir):
        table = (run_dir / "report-test.txt").read_text()
        for heading in ("Top-1", "Neg-Acc", "Tiny", "Weighted Average",
                        ">30 Instances"):
            assert heading in table
        payload = json.loads((run_dir / "report-test.json").read_text())
        assert "by_scale" in payload and "neg_acc_by_kind" in payload

    def test_stage_resume_reproduces_log(self, run_dir, tmp_path):
        out2 = tmp_path / "resume"
        out2.mkdir()
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "config.json"):
            (out2 / name).write_bytes((run_dir / name).read_bytes())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["train", "--out", str(out2), "--stage", "1"]) == 0
            assert main(["train", "--out", str(out2), "--stage", "2"]) == 0
        resumed = [l for l in (out2 / "log.csv").read_text().splitlines()
                   if l.startswith(tuple("0123456789")) and ",2," in l]
        joint = [l for l in (run_dir / "log.csv").read_text().splitlines()
                 if l.startswith(tuple("0123456789")) and ",2," in l]
        assert resumed == joint
        assert (out2 / "params.json").read_bytes() == (run_dir / "params.json").read_bytes()

    def test_stage2_needs_no_refiner(self, run_dir, tmp_path):
        for name in ("train.jsonl", "config.json"):
            (tmp_path / name).write_bytes((run_dir / name).read_bytes())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["train", "--out", str(tmp_path), "--stage", "2"]) == 0
        assert not (tmp_path / "refiner.json").exists()
        assert (tmp_path / "params.json").read_bytes() == (run_dir / "params.json").read_bytes()

    def test_ablation_flag(self, run_dir, tmp_path):
        out2 = tmp_path / "ablate"
        out2.mkdir()
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "config.json"):
            (out2 / name).write_bytes((run_dir / name).read_bytes())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["train", "--out", str(out2), "--ablate", "no-constraint"]) == 0
        assert (out2 / "params.json").read_bytes() != (run_dir / "params.json").read_bytes()

    def test_strict_negatives_flag(self, run_dir):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["eval", "--out", str(run_dir), "--split", "test",
                         "--strict-negatives", "--format", "json"]) == 0
        payload = json.loads((run_dir / "report-test.json").read_text())
        assert payload["strict_negatives"] is True


class TestErrors:
    def test_eval_without_predictions_fails(self, tmp_path):
        out = tmp_path / "empty"
        out.mkdir()
        config = {"synth": {"seed": 3, "n_scenes": 12},
                  "train": {"stage1_epochs": 1, "stage2_epochs": 1}}
        (out / "cfg.json").write_text(json.dumps(config))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["build", "--config", str(out / "cfg.json"),
                         "--out", str(out)]) == 0
        assert main(["eval", "--out", str(out), "--split", "test"]) == 1

    def test_unknown_config_key_fails(self, tmp_path):
        out = tmp_path / "bad"
        out.mkdir()
        (out / "cfg.json").write_text('{"synth": {"n_scene": 10}}')
        assert main(["build", "--config", str(out / "cfg.json"),
                     "--out", str(out)]) == 1

    def test_train_without_dataset_fails(self, tmp_path):
        out = tmp_path / "nodata"
        out.mkdir()
        assert main(["train", "--out", str(out)]) == 1

    # fault -> (line of the error, part of its message)
    MALFORMED = {
        "not json": (3, "not JSON"),
        "no ranking": (3, "missing key 'ranking_int32_le'"),
        "no expression_id": (3, "missing key 'expression_id'"),
        "ranking out of range": (3, "ranking index out of range"),
        "ranking longer than scores": (3, "one entry per box"),
        "negative ranking index": (3, "ranking index out of range"),
        "partial ranking entry": (3, "not a whole number of 4-byte entries"),
        "invalid base64": (3, "scores_float64_le is not base64"),
        "duplicate expression_id": (3, "a second record for expression "),
        "image without box table": (3, "no box table"),
        "3-coordinate box": (1, "needs 4 coordinates"),
        "partial box table entry": (1, "not a whole number of 8-byte entries"),
        "version 1": (1, "unsupported predictions version 1; re-run `gvgkit predict`"),
        "version 2": (1, "unsupported predictions version 2; re-run `gvgkit predict`"),
    }

    @pytest.mark.parametrize("fault", list(MALFORMED))
    def test_malformed_prediction_is_a_one_line_error(self, run_dir, tmp_path, capsys,
                                                      fault):
        for name in ("test.jsonl", "config.json"):
            (tmp_path / name).write_bytes((run_dir / name).read_bytes())
        lines = (run_dir / "predictions-test.jsonl").read_text().splitlines()
        header, record = json.loads(lines[0]), json.loads(lines[2])
        tables = header["boxes_xyxy_px_float64_le"]
        image = record["image_id"]
        table = decode_le(tables[image], "<f8").reshape(-1, 4)
        ranking = decode_le(record["ranking_int32_le"], "<i4")
        assert ranking.size and len(table), "the faults below need a ranked box"
        if fault == "not json":
            lines[2] = lines[2][:-1]
        elif fault == "no ranking":
            del record["ranking_int32_le"]
        elif fault == "no expression_id":
            del record["expression_id"]
        elif fault == "ranking out of range":
            record["ranking_int32_le"] = encode_le(np.r_[ranking[:-1], len(table)], "<i4")
        elif fault == "ranking longer than scores":
            record["ranking_int32_le"] = encode_le(np.r_[ranking, 0], "<i4")
        elif fault == "negative ranking index":
            record["ranking_int32_le"] = encode_le(np.r_[-1, ranking[1:]], "<i4")
        elif fault == "partial ranking entry":   # the last int32 cut to two bytes
            record["ranking_int32_le"] = base64.b64encode(ranking.tobytes()[:-2]).decode()
        elif fault == "invalid base64":
            # a lenient decoder would skip the stray character and read the scores
            record["scores_float64_le"] = "*" + record["scores_float64_le"]
        elif fault == "duplicate expression_id":   # line 2's record again, reversed
            record = json.loads(lines[1])
            record["ranking_int32_le"] = encode_le(
                decode_le(record["ranking_int32_le"], "<i4")[::-1], "<i4")
            lines.insert(2, lines[1])
        elif fault == "image without box table":
            del tables[image]
        elif fault == "3-coordinate box":
            tables[image] = encode_le(np.delete(table.ravel(), 3), "<f8")
        elif fault == "partial box table entry":   # half of the last coordinate
            tables[image] = base64.b64encode(table.tobytes()[:-4]).decode()
        elif fault == "version 1":
            # every line lists its boxes, the header none
            del header["boxes_xyxy_px_float64_le"]
            del record["ranking_int32_le"], record["scores_float64_le"]
            header["version"] = 1
            record["proposals"] = [{"bbox_xyxy_px": [1.0, 2.0, 3.0, 4.0], "score": 0.5}]
        else:
            # version 2: the same fields as JSON number lists
            header["version"] = 2
            stored = header.pop("boxes_xyxy_px_float64_le")
            header["boxes_xyxy_px"] = {i: decode_le(t, "<f8").reshape(-1, 4).tolist()
                                       for i, t in stored.items()}
            record["ranking"] = decode_le(record.pop("ranking_int32_le"), "<i4").tolist()
            record["scores"] = decode_le(record.pop("scores_float64_le"), "<f8").tolist()
        if fault != "not json":
            lines[2] = json.dumps(record)
        lines[0] = json.dumps(header)
        path = tmp_path / "predictions-test.jsonl"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", "--out", str(tmp_path), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        line, message = self.MALFORMED[fault]
        assert f"{path}, line {line}: " in err and message in err, err

    def test_record_of_another_image_is_a_one_line_error(self, run_dir, tmp_path, capsys):
        """A record moved to another image of the file, with a ranking
        valid there, is not scored against its expression's scene."""
        for name in ("test.jsonl", "config.json"):
            (tmp_path / name).write_bytes((run_dir / name).read_bytes())
        lines = (run_dir / "predictions-test.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        sizes = {i: decode_le(t, "<f8").size // 4
                 for i, t in header["boxes_xyxy_px_float64_le"].items()}
        _, expressions, _ = datagen.read_dataset(run_dir / "test.jsonl")
        instance = {e.expression_id for e in expressions if e.level == "instance"}
        index = next(k for k, line in enumerate(lines[1:], start=1)
                     if json.loads(line)["expression_id"] in instance)
        record = json.loads(lines[index])
        other = max((i for i in sizes if i != record["image_id"]), key=sizes.get)
        record["image_id"] = other
        ranking = decode_le(record["ranking_int32_le"], "<i4") % sizes[other]
        record["ranking_int32_le"] = encode_le(ranking, "<i4")
        lines[index] = json.dumps(record)
        path = tmp_path / "predictions-test.jsonl"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", "--out", str(tmp_path), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
        assert f"expression {record['expression_id']!r} is for image {other!r}" in err, err
        assert not (tmp_path / "report-test.json").exists()

    def test_diverging_stage2_is_a_one_line_error(self, run_dir, tmp_path, capsys):
        for name in ("train.jsonl", "refiner.json"):
            (tmp_path / name).write_bytes((run_dir / name).read_bytes())
        config = json.loads((run_dir / "config.json").read_text())
        config["train"]["lr_init"] = 1e150
        (tmp_path / "config.json").write_text(json.dumps(config))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["train", "--out", str(tmp_path), "--stage", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 2 diverged in epoch 0:"), err
        assert err.count("\n") == 1, err
        assert not (tmp_path / "params.json").exists()


def run_subprocess(argv):
    """``gvgkit`` in a fresh interpreter, where numpy warnings reach stderr
    as a user sees them (pytest captures them in-process)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "gvgkit.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)


# case -> (command, (edited file, edits), start of the error); an edit
# (key, index, value) sets train[key] in config.json, or the flat entries
# ``index`` of tensor ``key`` in a checkpoint; a dataset split keeps only
# its header line, so it holds no scenes
FAILING_RUNS = {
    "empty training split": (["train"], ("train.jsonl", []),
                             "error: training split has no scenes"),
    "stage 1 diverges": (["train", "--stage", "1"],
                         ("config.json", [("lr_init", None, 1e307)]),
                         "error: stage 1 diverged in epoch 0:"),
    "stage 2 diverges": (["train", "--stage", "2"],
                         ("config.json", [("lr_init", None, 1e150)]),
                         "error: stage 2 diverged in epoch 0:"),
    "scores overflow": (["predict", "--split", "test"],   # temperature 5e-324
                        ("params.json", [("log_temperature", 0, -745.0)]),
                        "error: non-finite referring scores"),
    # box.w2 is (hidden, 4), so [c::4] is column c: every refined centre
    # overflows to -inf, and every size stays finite
    "refined boxes overflow": (["predict", "--split", "test"],
                               ("refiner.json", [("box.w1", slice(None), 1e300),
                                                 ("box.w2", slice(0, None, 4), -1e300),
                                                 ("box.w2", slice(1, None, 4), -1e300),
                                                 ("box.w2", slice(2, None, 4), 0.0),
                                                 ("box.w2", slice(3, None, 4), 0.0)]),
                               "error: non-finite refined boxes"),
}


@pytest.mark.parametrize("case", list(FAILING_RUNS))
def test_failing_run_prints_only_its_error(run_dir, tmp_path, case):
    copied = ("train.jsonl", "test.jsonl", "config.json", "refiner.json", "params.json")
    for name in copied:
        (tmp_path / name).write_bytes((run_dir / name).read_bytes())
    argv, (edited, edits), message = FAILING_RUNS[case]
    if edited.endswith(".jsonl"):
        header = (tmp_path / edited).read_text().splitlines()[0]
        (tmp_path / edited).write_text(header + "\n")
    else:
        payload = json.loads((tmp_path / edited).read_text())
        for key, index, value in edits:
            if edited == "config.json":
                payload["train"][key] = value
            else:
                set_tensor_value(payload, key, index, value)
        (tmp_path / edited).write_text(json.dumps(payload))
    edited_bytes = (tmp_path / edited).read_bytes()
    proc = run_subprocess(argv + ["--out", str(tmp_path)])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1, proc.stderr
    # nothing is written: no checkpoint, log or predictions
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(copied)
    for name in set(copied) - {edited}:
        assert (tmp_path / name).read_bytes() == (run_dir / name).read_bytes(), name
    assert (tmp_path / edited).read_bytes() == edited_bytes


def short_run(run_dir, out: Path) -> None:
    """``out`` with the training split of ``run_dir`` and its config cut
    to one epoch per stage."""
    (out / "train.jsonl").write_bytes((run_dir / "train.jsonl").read_bytes())
    config = json.loads((run_dir / "config.json").read_text())
    config["train"].update(stage1_epochs=1, stage2_epochs=1)
    (out / "config.json").write_text(json.dumps(config))


def test_train_warns_about_missing_image_types(run_dir, tmp_path):
    short_run(run_dir, tmp_path)
    scenes, expressions, meta = datagen.read_dataset(tmp_path / "train.jsonl")
    kept = [s for s in scenes if s.image_type != "empty"]
    ids = {s.image_id for s in kept}
    expressions = [e for e in expressions if e.image_id in ids]
    datagen.write_dataset(kept, expressions, tmp_path / "train.jsonl", meta)

    def lacking(run):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        return [str(w.message) for w in caught if "lacks image types" in str(w.message)]

    split = SplitData(name="train", scenes=kept, expressions=expressions)
    library = lacking(lambda: train_two_stage(split, *load_config(tmp_path / "config.json")))
    assert library == ["training split lacks image types: ['empty']"]
    assert lacking(lambda: main(["train", "--out", str(tmp_path)])) == library


def test_train_stores_its_config(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"synth": {"seed": 3, "n_scenes": 12},
         "train": {"stage1_epochs": 1, "stage2_epochs": 1}}))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["build", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path)]) == 0
        built = (tmp_path / "config.json").read_bytes()
        assert main(["train", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "config.json").read_bytes() == built


def test_stage2_trains_the_ablation_stage1_recorded(run_dir, tmp_path):
    short_run(run_dir, tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["train", "--out", str(tmp_path), "--stage", "1",
                     "--ablate", "no-interp-iou"]) == 0
        assert main(["train", "--out", str(tmp_path), "--stage", "2"]) == 0
    config = json.loads((tmp_path / "config.json").read_text())
    assert config["train"]["ablation"]["no_interp_iou"] is True
    params = json.loads((tmp_path / "params.json").read_text())
    assert params["ablation"] == config["train"]["ablation"]


def test_predict_rejects_a_refiner_of_another_box_loss(run_dir, tmp_path, capsys):
    short_run(run_dir, tmp_path)
    (tmp_path / "test.jsonl").write_bytes((run_dir / "test.jsonl").read_bytes())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["train", "--out", str(tmp_path), "--stage", "1",
                     "--ablate", "no-interp-iou"]) == 0
        assert main(["train", "--out", str(tmp_path), "--stage", "2",
                     "--ablate", "sentence-only"]) == 0
    refiner = json.loads((tmp_path / "refiner.json").read_text())
    assert refiner["ablation"]["no_interp_iou"] is True
    capsys.readouterr()
    assert main(["predict", "--out", str(tmp_path), "--split", "test"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: refiner.json was trained with ablation no-interp-iou "
                          "and params.json with sentence-only"), err
    assert err.count("\n") == 1, err
    assert not (tmp_path / "predictions-test.jsonl").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["train", "--config", "b.json"], id="train with another config"),
    pytest.param(["predict", "--seed", "4"], id="predict with another seed"),
    pytest.param(["eval", "--seed", "4"], id="eval with another seed")])
def test_split_of_another_config_is_a_one_line_error(tmp_path, capsys, argv):
    config = {"synth": {"seed": 3, "n_scenes": 12},
              "train": {"stage1_epochs": 1, "stage2_epochs": 1}}
    (tmp_path / "a.json").write_text(json.dumps(config))
    config["synth"]["feature_noise"] = 0.5
    (tmp_path / "b.json").write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["build", "--config", str(tmp_path / "a.json"),
                     "--out", str(tmp_path)]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    built = json.loads((tmp_path / "train.jsonl").read_text().splitlines()[0])["config_hash"]
    assert err.startswith("error: ") and err.count("\n") == 1, err
    synth_cfg, _ = load_config(tmp_path / ("b.json" if "train" in argv else "a.json"))
    if "--seed" in argv:
        synth_cfg = dataclasses.replace(synth_cfg, seed=4)
    assert (f"built from config {built}, but this run's config hashes "
            f"{synth_cfg.config_hash()};") in err, err
    assert "run `gvgkit build`" in err, err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_predict_reads_the_ablation_from_the_checkpoint(run_dir, tmp_path, capsys):
    for name in ("train.jsonl", "test.jsonl", "config.json"):
        (tmp_path / name).write_bytes((run_dir / name).read_bytes())
    config = json.loads((tmp_path / "config.json").read_text())
    config["train"].update(stage1_epochs=1, stage2_epochs=1)
    (tmp_path / "config.json").write_text(json.dumps(config))
    predictions = tmp_path / "predictions-test.jsonl"
    outputs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["train", "--out", str(tmp_path), "--ablate", "sentence-only"]) == 0
        for flag in ([], ["--ablate", "sentence-only"]):
            assert main(["predict", "--out", str(tmp_path), "--split", "test", *flag]) == 0
            outputs.append(predictions.read_bytes())
        predictions.unlink()
        capsys.readouterr()
        assert main(["predict", "--out", str(tmp_path), "--split", "test",
                     "--ablate", "word-only"]) == 1
    assert outputs[0] == outputs[1]
    err = capsys.readouterr().err
    assert err.startswith("error: --ablate word-only does not match the checkpoint, "
                          "trained with ablation sentence-only"), err
    assert err.count("\n") == 1, err
    assert not predictions.exists()


class TestCheckpointErrors:
    @pytest.fixture
    def copied(self, run_dir, tmp_path):
        for name in ("test.jsonl", "config.json", "refiner.json", "params.json"):
            (tmp_path / name).write_bytes((run_dir / name).read_bytes())
        return tmp_path

    @pytest.mark.parametrize("checkpoint,tensor", [("params.json", "attn_k"),
                                                   ("refiner.json", "box.w2")])
    @pytest.mark.parametrize("fault", ["missing", "wrong shape", "NaN", "-Infinity",
                                       "bad base64", "wrong byte count"])
    def test_bad_tensor_is_a_one_line_error(self, copied, capsys, checkpoint, tensor,
                                            fault):
        path = copied / checkpoint
        payload = json.loads(path.read_text())
        spec = payload["tensors"][tensor]
        if fault == "missing":
            del payload["tensors"][tensor]
        elif fault == "wrong shape":
            spec["shape"] = spec["shape"][::-1] + [1]
        elif fault == "bad base64":
            # a lenient decoder would skip the stray character and load the values
            spec["float64_le"] = spec["float64_le"][:4] + "*" + spec["float64_le"][4:]
        elif fault == "wrong byte count":   # one value short
            spec["float64_le"] = base64.b64encode(decode_tensor(spec)[:-1].tobytes()).decode()
        else:
            value = float(fault.lower().replace("infinity", "inf"))
            set_tensor_value(payload, tensor, 1, value)
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["predict", "--out", str(copied), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert repr(tensor) in err


    @pytest.mark.parametrize("shape", [[10**12], [16, 1], ["16"]])
    def test_bad_refiner_width_is_a_one_line_error(self, copied, capsys, shape):
        # the refiner's width comes from the stored shape of box.b1
        path = copied / "refiner.json"
        payload = json.loads(path.read_text())
        payload["tensors"]["box.b1"]["shape"] = shape
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["predict", "--out", str(copied), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: tensor 'box.b1' in box-refiner checkpoint {path} is malformed\n"

    @pytest.mark.parametrize("dims,ffn_w1_shape,message", [
        pytest.param({"d": 2**40, "heads": 1}, None, "tensor 'visual_proj'", id="huge"),
        # a stored shape alone cannot vouch for a dim: its payload must hold it
        pytest.param({"d_ff": 2**40}, [64, 2**40], "tensor 'ffn_w1'", id="huge, shape to match"),
        pytest.param({"d_ff": -128}, None, "model dim d_ff = -128", id="negative"),
        pytest.param({"d_hidden": "32"}, None, "model dim d_hidden = '32'", id="string")])
    def test_bad_model_dims_are_a_one_line_error(self, copied, capsys, dims, ffn_w1_shape,
                                                 message):
        # the dims size the model's arrays before any tensor is read
        path = copied / "params.json"
        payload = json.loads(path.read_text())
        assert payload["dims"]["d"] == 64
        payload["dims"].update(dims)
        if ffn_w1_shape:
            payload["tensors"]["ffn_w1"]["shape"] = ffn_w1_shape
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["predict", "--out", str(copied), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert message in err, err

    def test_collapsed_refiner_is_a_one_line_error(self, copied, capsys):
        # a finite refiner whose boxes shrink to nothing
        path = copied / "refiner.json"
        payload = json.loads(path.read_text())
        set_tensor_value(payload, "box.b2", 3, -800.0)     # every height exp(-800) = 0
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["predict", "--out", str(copied), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert err == "error: the refiner collapsed a box to a non-positive size\n", err
        assert not (copied / "predictions-test.jsonl").exists()

    @pytest.mark.parametrize("checkpoint", ["params.json", "refiner.json"])
    def test_truncated_checkpoint_is_a_one_line_error(self, copied, capsys, checkpoint):
        path = copied / checkpoint
        path.write_bytes(path.read_bytes()[:len(path.read_bytes()) // 2])
        capsys.readouterr()
        assert main(["predict", "--out", str(copied), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not valid JSON"), err
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("checkpoint,version,message", [
        ("params.json", 2, "unsupported checkpoint version 2; re-run `gvgkit train`"),
        ("refiner.json", 1, "unsupported refiner version 1; re-run `gvgkit train`")])
    def test_float_list_checkpoint_is_a_one_line_error(self, copied, capsys, checkpoint,
                                                       version, message):
        # the previous format: the same tensors as lists of floats
        path = copied / checkpoint
        payload = json.loads(path.read_text())
        payload["version"] = version
        payload["tensors"] = {name: {"shape": spec["shape"],
                                     "data": decode_tensor(spec).tolist()}
                              for name, spec in payload["tensors"].items()}
        if checkpoint == "refiner.json":
            del payload["ablation"]     # refiner version 1 did not record it
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["predict", "--out", str(copied), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n", err

    @pytest.mark.parametrize("fault,message", [
        ("version 1", "unsupported checkpoint version 1"),
        ("no ablation", "lacks its ablation flags")])
    def test_outdated_checkpoint_is_a_one_line_error(self, copied, capsys, fault, message):
        path = copied / "params.json"
        payload = json.loads(path.read_text())
        del payload["ablation"]           # version 1 did not record it
        if fault == "version 1":
            payload["version"] = 1
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["predict", "--out", str(copied), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert message in err, err

    @pytest.mark.parametrize("log_temperature,message", [
        pytest.param(1000.0, "exp produced a non-finite value", id="exp overflows"),
        pytest.param(-745.0, "non-finite referring scores",     # temperature 5e-324
                     id="scores overflow")])
    def test_overflowing_checkpoint_is_a_one_line_error(self, copied, capsys,
                                                        log_temperature, message):
        # a finite checkpoint whose forward pass overflows
        path = copied / "params.json"
        payload = json.loads(path.read_text())
        set_tensor_value(payload, "log_temperature", 0, log_temperature)
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["predict", "--out", str(copied), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert message in err, err
        assert not (copied / "predictions-test.jsonl").exists()


def test_closed_pipe_exits_without_traceback(run_dir):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gvgkit.cli", "eval", "--out", str(run_dir),
         "--split", "test", "--format", "table"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()    # the reader is gone before the table is written
    err = proc.stderr.read().decode()
    proc.stderr.close()
    proc.wait(timeout=120)
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


NO_SCIPY_SCRIPT = """
import json, sys, warnings
import gvgkit.cli
loaded = {"import": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}
out = sys.argv[1]
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    for argv in (["build", "--config", out + "/cfg.json"], ["train"],
                 ["predict", "--split", "test"], ["eval", "--split", "test"]):
        assert gvgkit.cli.main(argv + ["--out", out]) == 0, argv
        loaded[argv[0]] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(loaded))
"""


def test_no_command_imports_scipy(tmp_path):
    # scipy is a test oracle only: neither the import nor any command,
    # stage-1 matching included, may load it
    config = {"synth": {"seed": 5, "n_scenes": 12},
              "train": {"seed": 5, "stage1_epochs": 1, "stage2_epochs": 1}}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == dict.fromkeys(["import", "build", "train", "predict", "eval"], []), loaded
    assert (tmp_path / "report-test.json").exists()
