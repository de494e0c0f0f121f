import base64
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gvgkit import datagen
from gvgkit.cli import main
from gvgkit.hrs import VARIANTS
from gvgkit.synth import SplitData, load_config, train_two_stage
from gvgkit.synth import scenes as scenes_module
from gvgkit.synth.predict import read_predictions

import reference_metrics as ref


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

    def test_each_split_draws_its_negatives_from_its_own_stream(self, run_dir, tmp_path,
                                                                monkeypatch):
        synth_cfg, _ = load_config(run_dir / "config.json")
        streams = {"train": [synth_cfg.seed, 1], "val": [synth_cfg.seed, 2],
                   "test": synth_cfg.seed}
        for name, seed in streams.items():
            scenes, expressions, _ = datagen.read_dataset(run_dir / f"{name}.jsonl")
            stored = [e for e in expressions if e.negative_kind != "none"]
            assert stored, f"the {name} split should carry instance negatives"
            assert stored == datagen.gen_instance_negatives(scenes, seed)[0]

        # a build whose train and val splits draw no negatives writes the
        # same test split, and train and val less their negatives
        def test_stream_only(scenes, seed):
            negatives, meta = datagen.gen_instance_negatives(scenes, seed)
            return (negatives if seed == synth_cfg.seed else []), meta

        monkeypatch.setattr(scenes_module, "gen_instance_negatives", test_stream_only)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["build", "--config", str(run_dir / "config.json"),
                         "--out", str(tmp_path)]) == 0
        assert (tmp_path / "test.jsonl").read_bytes() == (run_dir / "test.jsonl").read_bytes()
        for name in ("train", "val"):
            lines = [line for line in (run_dir / f"{name}.jsonl").read_text().splitlines()
                     if json.loads(line).get("negative_kind", "none") == "none"]
            assert (tmp_path / f"{name}.jsonl").read_text().splitlines() == lines

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

    @pytest.mark.parametrize("reverse", [False, True], ids=["as written", "rankings reversed"])
    def test_report_neg_acc_matches_the_oracle(self, run_dir, tmp_path, reverse):
        """Eval's Neg-Acc rows equal the oracle's over the records and
        boxes of a real predictions file. This small run's top boxes may
        reject no negative, so a second file reverses every ranking,
        scores kept best-first: other boxes come on top, and some reject."""
        for name in ("test.jsonl", "config.json"):
            (tmp_path / name).write_bytes((run_dir / name).read_bytes())
        lines = (run_dir / "predictions-test.jsonl").read_text().splitlines()
        if reverse:
            for k, line in enumerate(lines[1:], start=1):
                record = json.loads(line)
                ranking = decode_le(record["ranking_int32_le"], "<i4")
                record["ranking_int32_le"] = encode_le(ranking[::-1], "<i4")
                lines[k] = json.dumps(record)
        (tmp_path / "predictions-test.jsonl").write_text("\n".join(lines) + "\n")
        assert main(["eval", "--out", str(tmp_path), "--split", "test"]) == 0

        scenes, expressions, _ = datagen.read_dataset(tmp_path / "test.jsonl")
        preds = read_predictions(tmp_path / "predictions-test.jsonl")
        records = preds.by_expression()
        by_image = {s.image_id: s for s in scenes}
        cases = {kind: [] for kind in datagen.NEGATIVE_KINDS}
        for expr in expressions:
            if expr.level != "instance" or expr.polarity != "negative":
                continue
            scene, rec = by_image[expr.image_id], records[expr.expression_id]
            scale = np.array([scene.width, scene.height] * 2, dtype=np.float64)
            cases[expr.negative_kind].append({
                "proposals": [tuple(b) for b in preds.tables[rec.image_id][rec.ranking] / scale],
                "scores": list(rec.scores),
                "scene_boxes": [tuple(np.array([i.x1, i.y1, i.x2, i.y2]) / scale)
                                for i in scene.instances]})
        every = [case for kind in cases.values() for case in kind]
        assert every, "the test split should carry instance negatives"
        report = json.loads((tmp_path / "report-test.json").read_text())
        assert report["version"] == 2 and "strict_negatives" not in report
        assert report["overall"]["neg_support"] == len(every)
        assert report["overall"]["neg_acc"] == ref.ref_neg_acc(every)
        assert report["overall"]["neg_acc"] > 0 or not reverse
        rows = report["neg_acc_by_kind"]
        for kind, kind_cases in cases.items():
            assert rows[kind]["neg_support"] == len(kind_cases), kind
            assert rows[kind]["neg_acc"] == (ref.ref_neg_acc(kind_cases) if kind_cases
                                             else None), kind
        assert rows["weighted_average"]["neg_acc"] == pytest.approx(ref.ref_neg_acc(every),
                                                                    abs=1e-9)


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

    # fault -> (line of the error, or None for the whole file, part of its message)
    MALFORMED = {
        "empty file": (None, "empty, no header line; re-run `gvgkit predict`"),
        "not json": (3, "not JSON"),
        "not a JSON object": (3, "not a JSON object"),
        "a scene record in a predictions file": (3, "unexpected record kind 'scene'"),
        "no ranking": (3, "missing key 'ranking_int32_le'"),
        "no expression_id": (3, "missing key 'expression_id'"),
        "ranking out of range": (3, "ranking index out of range"),
        "ranking longer than scores": (3, "one entry per box"),
        "negative ranking index": (3, "ranking index out of range"),
        "repeated ranking index": (3, "must hold each of the "),
        "ranking shorter than its table": (3, "must hold each of the "),
        "ranking longer than its table": (3, "must hold each of the "),
        "partial ranking entry": (3, "not a whole number of 4-byte entries"),
        "invalid base64": (3, "scores_float64_le is not base64"),
        "duplicate expression_id": (3, "a second record for expression "),
        "image without box table": (3, "no box table"),
        "level0_class not an int": (3, "level0_class must be an int in [0, 4), not True"),
        "level0_class out of range": (3, "level0_class must be an int in [0, 4), not 4"),
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
        assert ranking.size > 1, "the faults below need two ranked boxes"
        if fault == "not json":
            lines[2] = lines[2][:-1]
        elif fault == "not a JSON object":
            lines[2] = "[]"
        elif fault == "a scene record in a predictions file":
            lines[2] = (run_dir / "test.jsonl").read_text().splitlines()[1]
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
        elif fault == "repeated ranking index":
            record["ranking_int32_le"] = encode_le(np.r_[ranking[0], ranking[:-1]], "<i4")
        elif fault == "ranking shorter than its table":
            record["ranking_int32_le"] = encode_le(ranking[:-1], "<i4")
            record["scores_float64_le"] = encode_le(
                decode_le(record["scores_float64_le"], "<f8")[:-1], "<f8")
        elif fault == "ranking longer than its table":   # every box, then one again
            record["ranking_int32_le"] = encode_le(np.r_[ranking, ranking[-1]], "<i4")
            scores = decode_le(record["scores_float64_le"], "<f8")
            record["scores_float64_le"] = encode_le(np.r_[scores, scores[-1]], "<f8")
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
        elif fault == "level0_class not an int":
            record["level0_class"] = True
        elif fault == "level0_class out of range":
            record["level0_class"] = 4
        elif fault == "3-coordinate box":
            tables[image] = encode_le(np.delete(table.ravel(), 3), "<f8")
        elif fault == "partial box table entry":   # half of the last coordinate
            tables[image] = base64.b64encode(table.tobytes()[:-4]).decode()
        elif fault == "empty file":
            lines = []
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
        if lines:
            if fault not in ("not json", "not a JSON object",
                             "a scene record in a predictions file"):
                lines[2] = json.dumps(record)
            lines[0] = json.dumps(header)
        path = tmp_path / "predictions-test.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        capsys.readouterr()
        assert main(["eval", "--out", str(tmp_path), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        line, message = self.MALFORMED[fault]
        where = f"{path}: " if line is None else f"{path}, line {line}: "
        assert where in err and message in err, err

    # fault in test.jsonl -> (line of the error: 1, None for the whole file,
    # or the line of the edited scene record, first expression, first
    # expression with targets ("positive"), first instance negative, or of
    # a copy; part of the message)
    SPLIT_FAULTS = {
        "non-object line": ("scene", "not a JSON object"),
        "not json": ("scene", "not JSON"),
        "unknown record kind": ("scene", "unexpected record kind 'plant'"),
        "missing key": ("scene", "missing key 'instances'"),
        "unknown category": ("scene", "unknown category 'kudzu'"),
        "orphan expression": ("expression", "which no earlier scene record holds"),
        "duplicate scene": ("scene copy", "a second record for scene 'scene-"),
        "duplicate expression": ("expression copy", "a second record for expression '"),
        "non-numeric coordinate": ("scene", "box coordinates must be numbers, not ['a', "),
        "three-number box": ("scene", "box coordinates must be a list of 4 numbers, not ["),
        "bare-number box": ("scene", "box coordinates must be a list of 4 numbers, not 7"),
        "zero width": ("scene", "width and height must be positive and finite, not [0, "),
        "text not a string": ("expression", "text must be a string, not 5"),
        "attributes not an object": ("expression", "attributes must be an object, not 5"),
        "nested target ids": ("expression", "target ids must be a list of ints, not [[1]]"),
        "NaN coordinate": ("scene", "box coordinates must be finite, not [nan, "),
        "Infinity coordinate": ("scene", "box coordinates must be finite, not [inf, "),
        "coordinate past the float range": ("scene", "box coordinates must be at most 1e300 "
                                                     "in magnitude, not ["),
        "unknown level": ("expression", "unknown kind of expression: level 'object', "),
        "unknown polarity": ("expression", ", polarity 'positve', "),
        "unknown negative kind": ("expression", ", negative_kind 'swap_colour'"),
        "unknown instance size bin": ("scene", "unknown size_bin 'huge'"),
        "unknown instance grid cell": ("scene", "unknown grid_cell 'under'"),
        "unknown attribute size bin": ("positive", "unknown attributes: size_bin 'huge', "),
        "unknown attribute grid cell": ("positive", ", grid_cell 'under'"),
        "unknown expression category": ("positive", "unknown category 'kudzu' for an "
                                                    "expression of level 'instance'"),
        "instance category in an image expression": ("image", "unknown category 'maize' "
                                                     "for an expression of level 'image'"),
        "instance id not an int": ("scene", "instance id must be an int, not '0'"),
        "repeated instance id": ("scene", "a second instance with id "),
        "unknown target id": ("positive", "target ids [99] name no instance of image 'scene-"),
        "inverted box": ("scene", " must have 0 <= x1 < x2 <= "),
        "zero-width box": ("scene", " must have 0 <= x1 < x2 <= "),
        "box outside the image": ("scene", " must have 0 <= x1 < x2 <= "),
        "image type its instances do not make": ("scene", "image_type 'empty' does not match "
                                                          "the instances, which make the scene "),
        "size bin its box does not make": ("scene", ", but its box makes it '"),
        "grid cell its box does not make": ("scene", ", but its box makes it '"),
        "image area past the float range": ("scene", ", but its box makes it '"),
        "target its attributes do not name": ("positive", "the instances of image 'scene-"),
        "negative whose attributes name an instance": ("negative", "] are not [0"),
        "another format": (1, "not a gref-cw-like file"),
        "version 2": (1, "unsupported dataset version 2; re-run `gvgkit build`"),
        "empty file": (None, "empty, no header line; re-run `gvgkit build`"),
    }

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("fault", list(SPLIT_FAULTS))
    def test_malformed_split_is_a_one_line_error(self, run_dir, tmp_path, capsys, fault,
                                                 command):
        copied = ["config.json", "params.json", "refiner.json"]
        if command == "eval":
            copied.append("predictions-test.jsonl")
        for name in copied:
            (tmp_path / name).write_bytes((run_dir / name).read_bytes())
        lines = (run_dir / "test.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        unedited = [json.loads(line) for line in lines]
        header = records[0]
        # the first scene with a plant, the first expression, the first
        # positive and the first image-level expression
        at = next(k for k, r in enumerate(records) if r["record"] == "scene" and r["instances"])
        first = next(k for k, r in enumerate(records) if r["record"] == "expression")
        positive = next(k for k, r in enumerate(records) if r["record"] == "expression"
                        and r["target_ids"])
        image = next(k for k, r in enumerate(records) if r.get("level") == "image")
        negative = next(k for k, r in enumerate(records)
                        if r.get("negative_kind", "none") != "none")
        scene, expression, targeted = records[at], records[first], records[positive]
        scene_of = {r["image_id"]: r for r in records if r["record"] == "scene"}
        if fault == "non-object line":
            lines[at] = "[]"
        elif fault == "not json":
            lines[at] = lines[at][:-1]
        elif fault == "unknown record kind":
            scene["record"] = "plant"
        elif fault == "missing key":
            del scene["instances"]
        elif fault == "unknown category":
            scene["instances"][0]["category"] = "kudzu"
        elif fault == "orphan expression":
            expression["image_id"] = "scene-9999"
        elif fault == "duplicate scene":
            lines.insert(at + 1, lines[at])
        elif fault == "duplicate expression":
            lines.insert(first + 1, lines[first])
        elif fault == "non-numeric coordinate":
            scene["instances"][0]["bbox_xyxy_px"][0] = "a"
        elif fault == "three-number box":
            del scene["instances"][0]["bbox_xyxy_px"][0]
        elif fault == "bare-number box":
            scene["instances"][0]["bbox_xyxy_px"] = 7
        elif fault == "zero width":
            scene["width"] = 0
        elif fault == "text not a string":
            expression["text"] = 5
        elif fault == "attributes not an object":
            expression["attributes"] = 5
        elif fault == "nested target ids":
            expression["target_ids"] = [[1]]
        elif fault == "NaN coordinate":
            scene["instances"][0]["bbox_xyxy_px"][0] = math.nan
        elif fault == "Infinity coordinate":
            scene["instances"][0]["bbox_xyxy_px"][0] = math.inf
        elif fault == "coordinate past the float range":
            scene["instances"][0]["bbox_xyxy_px"][2] = 10**400
        elif fault == "unknown level":
            expression["level"] = "object"
        elif fault == "unknown polarity":
            expression["polarity"] = "positve"
        elif fault == "unknown negative kind":
            expression["negative_kind"] = "swap_colour"
        elif fault == "unknown instance size bin":
            scene["instances"][0]["size_bin"] = "huge"
        elif fault == "unknown instance grid cell":
            scene["instances"][0]["grid_cell"] = "under"
        elif fault == "unknown attribute size bin":
            targeted["attributes"]["size_bin"] = "huge"
        elif fault == "unknown attribute grid cell":
            targeted["attributes"]["grid_cell"] = "under"
        elif fault == "unknown expression category":
            targeted["attributes"]["category"] = "kudzu"
        elif fault == "instance category in an image expression":
            records[image]["attributes"]["category"] = "maize"
        elif fault == "instance id not an int":
            scene["instances"][0]["instance_id"] = "0"
        elif fault == "repeated instance id":
            scene["instances"].append(dict(scene["instances"][0]))
        elif fault == "unknown target id":
            targeted["target_ids"] = [99]
        elif fault == "inverted box":
            box = scene["instances"][0]["bbox_xyxy_px"]
            box[0], box[2] = box[2], box[0]
        elif fault == "zero-width box":
            box = scene["instances"][0]["bbox_xyxy_px"]
            box[2] = box[0]
        elif fault == "box outside the image":
            box = scene["instances"][0]["bbox_xyxy_px"]
            box[0] += 5000
            box[2] += 5000
        elif fault == "image type its instances do not make":
            scene["image_type"] = "empty"
        elif fault == "size bin its box does not make":
            words = datagen.SIZE_BINS
            inst = scene["instances"][0]
            inst["size_bin"] = words[(words.index(inst["size_bin"]) + 1) % len(words)]
        elif fault == "grid cell its box does not make":
            words = datagen.GRID_CELLS
            inst = scene["instances"][0]
            inst["grid_cell"] = words[(words.index(inst["grid_cell"]) + 1) % len(words)]
        elif fault == "image area past the float range":
            # each side and box fits a float, their product does not
            scale = 1e200 / scene["width"]
            scene["width"] = scene["height"] = 1e200
            for inst in scene["instances"]:
                inst["bbox_xyxy_px"] = [v * scale for v in inst["bbox_xyxy_px"]]
        elif fault == "target its attributes do not name":
            targeted["target_ids"] = [next(
                i["instance_id"] for i in scene_of[targeted["image_id"]]["instances"]
                if i["instance_id"] not in targeted["target_ids"])]
        elif fault == "negative whose attributes name an instance":
            inst = next(i for i in scene_of[records[negative]["image_id"]]["instances"]
                        if i["instance_id"] == 0)
            records[negative]["attributes"] = {key: inst[key] for key in
                                               ("category", "size_bin", "grid_cell")}
        elif fault == "another format":
            header["format"] = "gvgkit-predictions"
        elif fault == "version 2":
            header["version"] = 2
        else:
            lines = []
        for k in {0, at, first, positive, image, negative}:   # write back the records edited
            if records[k] != unedited[k]:
                lines[k] = json.dumps(records[k])
        path = tmp_path / "test.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        capsys.readouterr()
        assert main([command, "--out", str(tmp_path), "--split", "test"]) == 1
        err = capsys.readouterr().err
        line, message = self.SPLIT_FAULTS[fault]
        line = {"scene": at + 1, "scene copy": at + 2, "expression": first + 1,
                "expression copy": first + 2, "positive": positive + 1,
                "image": image + 1, "negative": negative + 1}.get(line, line)
        where = f"{path}: " if line is None else f"{path}, line {line}: "
        assert err.startswith(f"error: {where}") and err.count("\n") == 1, err
        assert message in err, err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(copied + ["test.jsonl"])

    @pytest.mark.parametrize("text,message", [
        pytest.param("[]", "{path} is not a JSON object", id="not an object"),
        pytest.param('{"synth": {"n_scenes": 12,}}', "{path} is not valid JSON",
                     id="not json"),
        pytest.param('{"synth": {"n_scenes": "x"}}',
                     'config synth.n_scenes must be like its default 240, not "x"',
                     id="a string for an int"),
        pytest.param('{"train": {"lambda_centre": -1.0}}',
                     "matching weights must be non-negative", id="a negative matching weight"),
        pytest.param('{"train": {"d": 0}}', "TrainConfig.d must be positive, not 0",
                     id="a zero model dim"),
        pytest.param('{"train": {"heads": 0}}', "TrainConfig.heads must be positive, not 0",
                     id="no attention heads"),
        pytest.param('{"train": {"heads": 3}}',
                     "TrainConfig.d = 64 must be divisible by TrainConfig.heads = 3",
                     id="heads that do not divide the model dim"),
        pytest.param('{"train": {"d_ff": 0}}', "TrainConfig.d_ff must be positive, not 0",
                     id="a zero feed-forward dim"),
        pytest.param('{"train": {"d_hidden": -2}}',
                     "TrainConfig.d_hidden must be positive, not -2", id="a negative hidden dim"),
        pytest.param('{"train": {"lr_init": -1.0}}',
                     "TrainConfig.lr_init must be positive and finite, not -1.0",
                     id="a negative learning rate"),
        pytest.param('{"train": {"lr_init": 0}}',
                     "TrainConfig.lr_init must be positive and finite, not 0",
                     id="a zero learning rate"),
        pytest.param('{"train": {"lr_init": NaN}}',
                     "TrainConfig.lr_init must be positive and finite, not nan",
                     id="a NaN learning rate"),
        pytest.param('{"train": {"lr_init": Infinity}}',
                     "TrainConfig.lr_init must be positive and finite, not inf",
                     id="an infinite learning rate"),
        pytest.param('{"synth": {"split_ratios": [0.5, 0.6, -0.1]}}',
                     "split_ratios must be a probability vector, got (0.5, 0.6, -0.1)",
                     id="a negative split ratio"),
        pytest.param('{"synth": {"split_ratios": [0.5, 0.2, 0.2]}}',
                     "split_ratios must be a probability vector, got (0.5, 0.2, 0.2)",
                     id="split ratios short of 1"),
        pytest.param('{"synth": {"n_scenes": -3}}',
                     "SynthConfig.n_scenes must be at least 1, not -3", id="negative scenes"),
        pytest.param('{"synth": {"image_size": 0}}',
                     "SynthConfig.image_size must be at least 1, not 0", id="a zero image size"),
        pytest.param('{"synth": {"max_tokens": 0}}',
                     "SynthConfig.max_tokens must be at least 1, not 0", id="a zero token cap"),
        pytest.param('{"synth": {"empty_scene_proposals": 0}}',
                     "SynthConfig.empty_scene_proposals must be at least 1, not 0",
                     id="no proposals in an empty scene"),
        pytest.param('{"synth": {"feature_noise": -0.1}}',
                     "SynthConfig.feature_noise must be at least 0, not -0.1",
                     id="a negative feature noise"),
        pytest.param('{"synth": {"context_noise": -0.1}}',
                     "SynthConfig.context_noise must be at least 0, not -0.1",
                     id="a negative context noise"),
        pytest.param('{"synth": {"jitter_centre": -0.1}}',
                     "SynthConfig.jitter_centre must be at least 0, not -0.1",
                     id="a negative centre jitter"),
        pytest.param('{"synth": {"jitter_scale": -0.2}}',
                     "SynthConfig.jitter_scale must be at least 0, not -0.2",
                     id="a negative scale jitter")])
    def test_malformed_config_is_a_one_line_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        capsys.readouterr()
        assert main(["build", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message.format(path=path)}"), err
        assert err.count("\n") == 1, err

    def test_record_of_another_image_is_a_one_line_error(self, run_dir, tmp_path, capsys):
        """A record moved to another image of the file, with the ranking
        and scores of a record of that image, is not scored against its
        expression's scene."""
        for name in ("test.jsonl", "config.json"):
            (tmp_path / name).write_bytes((run_dir / name).read_bytes())
        lines = (run_dir / "predictions-test.jsonl").read_text().splitlines()
        _, expressions, _ = datagen.read_dataset(run_dir / "test.jsonl")
        instance = {e.expression_id for e in expressions if e.level == "instance"}
        index = next(k for k, line in enumerate(lines[1:], start=1)
                     if json.loads(line)["expression_id"] in instance)
        record = json.loads(lines[index])
        donor = next(r for r in map(json.loads, lines[1:]) if r["image_id"] != record["image_id"])
        other = donor["image_id"]
        for key in ("image_id", "ranking_int32_le", "scores_float64_le"):
            record[key] = donor[key]
        lines[index] = json.dumps(record)
        path = tmp_path / "predictions-test.jsonl"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", "--out", str(tmp_path), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
        assert f"expression {record['expression_id']!r} is for image {other!r}" in err, err
        assert not (tmp_path / "report-test.json").exists()

    @pytest.mark.parametrize("made_for, evaluated", [("val", "test"), ("test", "val")])
    def test_predictions_of_another_split_are_a_one_line_error(self, run_dir, tmp_path, capsys,
                                                                made_for, evaluated):
        """Predictions copied over another split's file name are not
        scored: no expression of that split has a record, so every one
        would count as a miss."""
        for name in ("test.jsonl", "val.jsonl", "config.json", "params.json", "refiner.json"):
            (tmp_path / name).write_bytes((run_dir / name).read_bytes())
        assert main(["predict", "--out", str(tmp_path), "--split", made_for]) == 0
        path = tmp_path / f"predictions-{evaluated}.jsonl"
        path.write_bytes((tmp_path / f"predictions-{made_for}.jsonl").read_bytes())
        capsys.readouterr()
        assert main(["eval", "--out", str(tmp_path), "--split", evaluated]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {path} holds predictions for split {made_for!r}, not "
                       f"{evaluated!r}; re-run `gvgkit predict --split {evaluated}`\n"), err
        assert not (tmp_path / f"report-{evaluated}.json").exists()
        assert not (tmp_path / f"report-{evaluated}.txt").exists()

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
# ``index`` of tensor ``key`` in a checkpoint; a dataset split keeps as
# many lines as its edit says: its header line, so it holds no scenes, or
# none; ``{out}`` in the error stands for the run directory
FAILING_RUNS = {
    "empty training split": (["train"], ("train.jsonl", 1),
                             "error: training split has no scenes"),
    "empty file": (["train"], ("train.jsonl", 0),
                   "error: {out}/train.jsonl: empty, no header line; re-run `gvgkit build`"),
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
        kept = (tmp_path / edited).read_text().splitlines()[:edits]
        (tmp_path / edited).write_text("".join(line + "\n" for line in kept))
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
    message = message.format(out=tmp_path)
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


def short_run_without_empty_scenes(run_dir, out: Path) -> SplitData:
    """``short_run`` with the empty scenes dropped from the training split,
    which is returned."""
    short_run(run_dir, out)
    scenes, expressions, meta = datagen.read_dataset(out / "train.jsonl")
    kept = [s for s in scenes if s.image_type != "empty"]
    ids = {s.image_id for s in kept}
    expressions = [e for e in expressions if e.image_id in ids]
    datagen.write_dataset(kept, expressions, out / "train.jsonl", meta)
    return SplitData(name="train", scenes=kept, expressions=expressions)


def test_train_warns_about_missing_image_types(run_dir, tmp_path):
    split = short_run_without_empty_scenes(run_dir, tmp_path)

    def lacking(run):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        return [str(w.message) for w in caught if "lacks image types" in str(w.message)]

    library = lacking(lambda: train_two_stage(split, *load_config(tmp_path / "config.json")))
    assert library == ["training split lacks image types: ['empty']"]
    assert lacking(lambda: main(["train", "--out", str(tmp_path)])) == library


def test_a_warning_prints_as_one_line(run_dir, tmp_path):
    # no file path and no source line, as Python's own format gives
    short_run_without_empty_scenes(run_dir, tmp_path)
    proc = run_subprocess(["train", "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "warning: training split lacks image types: ['empty']\n"


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
    assert config["train"]["ablation"] == "no-interp-iou"
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
    assert refiner["ablation"] == "no-interp-iou"
    capsys.readouterr()
    assert main(["predict", "--out", str(tmp_path), "--split", "test"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: refiner.json was trained with ablation no-interp-iou "
                          "and params.json with sentence-only"), err
    assert err.count("\n") == 1, err
    assert not (tmp_path / "predictions-test.jsonl").exists()


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_variant_is_recorded_and_predicted(run_dir, tmp_path, variant):
    short_run(run_dir, tmp_path)
    (tmp_path / "test.jsonl").write_bytes((run_dir / "test.jsonl").read_bytes())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["train", "--out", str(tmp_path), "--ablate", variant]) == 0
        assert main(["predict", "--out", str(tmp_path), "--split", "test"]) == 0
    assert json.loads((tmp_path / "config.json").read_text())["train"]["ablation"] == variant
    for name in ("refiner.json", "params.json"):
        assert json.loads((tmp_path / name).read_text())["ablation"] == variant, name
    assert (tmp_path / "predictions-test.jsonl").exists()


def test_ablate_full_trains_the_full_model_again(run_dir, tmp_path):
    # the stored config names word-only; --ablate full replaces it
    never, back = tmp_path / "never", tmp_path / "back"
    for out in (never, back):
        out.mkdir()
        short_run(run_dir, out)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["train", "--out", str(never)]) == 0
        assert main(["train", "--out", str(back), "--ablate", "word-only"]) == 0
        assert main(["train", "--out", str(back), "--ablate", "full"]) == 0
    for name in ("params.json", "refiner.json", "config.json"):
        assert (back / name).read_bytes() == (never / name).read_bytes(), name


NOT_A_VARIANT = ("must be one of full, sentence-only, word-only, no-projection, "
                 "no-constraint, no-interp-iou, not ")


@pytest.mark.parametrize("argv,ablation,message", [
    pytest.param([], {"sentence_only": False, "word_only": True, "no_projection": False,
                      "no_constraint": False, "no_interp_iou": False},
                 'config train.ablation must be like its default "full", not {"sentence_only": ',
                 id="the flag dict in config.json"),
    pytest.param([], "word_only", f"TrainConfig.ablation {NOT_A_VARIANT}'word_only'",
                 id="an underscore name in config.json"),
    pytest.param([], "none", f"TrainConfig.ablation {NOT_A_VARIANT}'none'",
                 id="an unknown name in config.json"),
    pytest.param(["--ablate", "word_only"], "full",
                 f"TrainConfig.ablation {NOT_A_VARIANT}'word_only'",
                 id="an underscore name to --ablate"),
    pytest.param(["--ablate", "none"], "full", f"TrainConfig.ablation {NOT_A_VARIANT}'none'",
                 id="an unknown name to --ablate")])
def test_a_variant_that_is_not_a_name_is_a_one_line_error(run_dir, tmp_path, capsys, argv,
                                                          ablation, message):
    short_run(run_dir, tmp_path)
    config = json.loads((tmp_path / "config.json").read_text())
    config["train"]["ablation"] = ablation
    (tmp_path / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["train", "--out", str(tmp_path)] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert not (tmp_path / "params.json").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["train", "--config", "b.json"], id="train with another config"),
    pytest.param(["predict"], id="predict after config.json was edited"),
    pytest.param(["eval"], id="eval after config.json was edited")])
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
    if "--config" not in argv:
        # the stored config's synth section edited after the build
        (tmp_path / "config.json").write_text(json.dumps(config))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    built = json.loads((tmp_path / "train.jsonl").read_text().splitlines()[0])["config_hash"]
    assert err.startswith("error: ") and err.count("\n") == 1, err
    synth_cfg, _ = load_config(tmp_path / "b.json")
    assert (f"built from config {built}, but this run's config hashes "
            f"{synth_cfg.config_hash()};") in err, err
    assert "run `gvgkit build`" in err, err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command", ["build", "train", "predict", "eval"])
def test_a_config_error_names_its_file(run_dir, tmp_path, capsys, command):
    for name in ("train.jsonl", "test.jsonl", "config.json", "refiner.json",
                 "params.json", "predictions-test.jsonl"):
        (tmp_path / name).write_bytes((run_dir / name).read_bytes())
    stored = tmp_path / "config.json"
    config = json.loads(stored.read_text())
    config["synth"]["d_t"] = 40
    stored.write_text(json.dumps(config))
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    for argv, hint in (([], f"; `gvgkit build --config FILE --out {tmp_path}` replaces it"),
                       (["--config", str(tmp_path / "cfg.json")], "")):
        capsys.readouterr()
        assert main([command, "--out", str(tmp_path)] + argv) == 1
        err = capsys.readouterr().err
        path = stored if not argv else tmp_path / "cfg.json"
        assert err == f"error: unknown SynthConfig keys: ['d_t'], in {path}{hint}\n", err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command", ["train", "predict", "eval"])
def test_seed_is_an_option_of_build_only(tmp_path, capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--out", str(tmp_path), "--seed", "3"])
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


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
        # the stored config names another variant: predict does not read it
        for variant in ("sentence-only", "word-only"):
            config = json.loads((tmp_path / "config.json").read_text())
            config["train"]["ablation"] = variant
            (tmp_path / "config.json").write_text(json.dumps(config))
            assert main(["predict", "--out", str(tmp_path), "--split", "test"]) == 0
            outputs.append(predictions.read_bytes())
        predictions.unlink()
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            main(["predict", "--out", str(tmp_path), "--split", "test",
                  "--ablate", "sentence-only"])
    assert outputs[0] == outputs[1]
    assert info.value.code == 2
    assert "unrecognized arguments: --ablate sentence-only" in capsys.readouterr().err
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
        # the refiner's width is fixed; a stored box.b1 of any other shape
        # is the tensor check's error
        path = copied / "refiner.json"
        payload = json.loads(path.read_text())
        payload["tensors"]["box.b1"]["shape"] = shape
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["predict", "--out", str(copied), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: tensor 'box.b1' in box-refiner checkpoint {path} has shape "
                       f"{shape} and 128 bytes, expected [16] and 128\n")

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
        pytest.param("no ablation", f"{NOT_A_VARIANT}None", id="no ablation")])
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

    def test_feature_dims_not_the_encoders_are_a_one_line_error(self, copied, capsys):
        # a well-formed head whose proposal and token dims are 12
        path = copied / "params.json"
        payload = json.loads(path.read_text())
        payload["dims"].update(d_v=12, d_t=12)
        for name in ("visual_proj", "text_proj"):
            spec = payload["tensors"][name]
            spec["float64_le"] = encode_le(decode_tensor(spec)[:12 * 64], "<f8")
            spec["shape"] = [12, 64]
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["predict", "--out", str(copied), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert err == ("error: params.json has feature dims d_v = 12, d_t = 12, not the "
                       "encoder's 40\n"), err

    @pytest.mark.parametrize("checkpoint,kind", [("params.json", "checkpoint"),
                                                 ("refiner.json", "box-refiner checkpoint")])
    @pytest.mark.parametrize("ablation", ["word_only", "none", 1, {"word_only": True}])
    def test_ablation_that_is_not_a_name_is_a_one_line_error(self, copied, capsys,
                                                             checkpoint, kind, ablation):
        path = copied / checkpoint
        payload = json.loads(path.read_text())
        payload["ablation"] = ablation
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["predict", "--out", str(copied), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: the ablation of {kind} {path} {NOT_A_VARIANT}{ablation!r}\n", err
        assert not (copied / "predictions-test.jsonl").exists()

    @pytest.mark.parametrize("checkpoint,version,message", [
        ("params.json", 3, "unsupported checkpoint version 3; re-run `gvgkit train`"),
        ("refiner.json", 2, "unsupported refiner version 2; re-run `gvgkit train`")])
    def test_checkpoint_with_ablation_flags_is_a_one_line_error(self, copied, capsys,
                                                                checkpoint, version, message):
        # the previous version: the variant as five flags
        path = copied / checkpoint
        payload = json.loads(path.read_text())
        payload["version"] = version
        payload["ablation"] = {"sentence_only": False, "word_only": True,
                               "no_projection": False, "no_constraint": False,
                               "no_interp_iou": False}
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["predict", "--out", str(copied), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n", err

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
