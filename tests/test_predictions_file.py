"""Predictions file, version 3: each image's box table is written once
in the header, every array is stored as base64 of its little-endian
bytes, and the tables and every record's ranking and scores read back
bit for bit."""

import base64
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gvgkit.synth.predict import (
    PredictionRecord,
    Predictions,
    read_predictions,
    write_predictions,
)


def record(expression_id, image_id, ranking, scores):
    return PredictionRecord(expression_id=expression_id, image_id=image_id,
                            level0_class=2, ranking=np.asarray(ranking, dtype=np.intp),
                            scores=np.asarray(scores, dtype=np.float64))


def assert_same_predictions(loaded, preds):
    assert loaded.tables.keys() == preds.tables.keys()
    for image_id, table in preds.tables.items():
        got = loaded.tables[image_id]
        assert got.dtype == np.float64 and got.shape == table.shape
        assert got.tobytes() == table.tobytes(), image_id
    assert [r.expression_id for r in loaded.records] == [r.expression_id for r in preds.records]
    for got, want in zip(loaded.records, preds.records):
        assert (got.image_id, got.level0_class) == (want.image_id, want.level0_class)
        assert got.ranking.dtype == np.intp
        assert np.array_equal(got.ranking, want.ranking), want.expression_id
        assert got.scores.dtype == np.float64 and got.scores.shape == want.scores.shape
        assert got.scores.tobytes() == want.scores.tobytes(), want.expression_id
        # so the ranked boxes are the same bits too
        ranked = loaded.tables[got.image_id][got.ranking]
        assert ranked.tobytes() == preds.tables[want.image_id][want.ranking].tobytes()


def test_roundtrip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    boxes = rng.uniform(0.0, 1000.0, (6, 4)) / 3.0
    boxes[3] = boxes[1]                     # the same box twice in one table
    boxes[4] = [-0.0, 0.0, 5.0, 5.0]        # equal to the next row but for
    boxes[5] = [0.0, 0.0, 5.0, 5.0]         # the sign of one zero
    tables = {"img-a": boxes, "img-b": rng.uniform(0.0, 1.0, (3, 4)),
              "img-c": np.empty((0, 4))}    # an image without boxes
    records = [
        record("e0", "img-a", [2, 0, 5, 1, 3, 4],
               [2.5, 1.0 / 3.0, 0.0, -0.0, -1e-300, -7.0]),
        record("e1", "img-a", [4, 3, 5, 0, 2, 1],           # another order
               [0.25, -0.0, -0.0, -1.0, -2.0, -3.0]),
        record("e2", "img-b", [2, 0, 1], [1e300, 0.1, -0.1]),
        record("e3", "img-c", [], []),
    ]
    meta = {"split": "test", "gate_level0": True}
    preds = Predictions(records=records, tables=tables, meta=meta)
    path = tmp_path / "predictions.jsonl"
    write_predictions(preds, path, seed=7)
    loaded = read_predictions(path)
    assert_same_predictions(loaded, preds)
    assert loaded.meta == {"format": "gvgkit-predictions", "version": 3, "seed": 7, **meta}

    def decoded(text, dtype):
        return np.frombuffer(base64.b64decode(text, validate=True), dtype=dtype)

    lines = path.read_text().splitlines()
    assert len(lines) == 1 + len(records)
    stored = json.loads(lines[0])["boxes_xyxy_px_float64_le"]
    assert {k: decoded(v, "<f8").size for k, v in stored.items()} == \
        {"img-a": 24, "img-b": 12, "img-c": 0}
    assert decoded(stored["img-a"], "<f8").tobytes() == boxes.astype("<f8").tobytes()
    for line, rec in zip(lines[1:], records):
        stored = json.loads(line)
        assert decoded(stored["ranking_int32_le"], "<i4").tolist() == rec.ranking.tolist()
        assert decoded(stored["scores_float64_le"], "<f8").tobytes() == rec.scores.tobytes()
    # the file read back writes the same bytes again
    again = tmp_path / "again.jsonl"
    write_predictions(loaded, again, seed=7)
    assert again.read_bytes() == path.read_bytes()


# a small pool of boxes, so tables share and repeat some
POOL = np.array([[0.0, 0.0, 1.0, 1.0], [-0.0, 0.0, 1.0, 1.0], [0.1, 0.2, 0.3, 0.4],
                 [1e-310, 2.0, 3.0, 1e308], [10.0, 20.0, 30.0, 40.0]])


@given(st.lists(st.lists(st.integers(0, len(POOL) - 1), max_size=6), min_size=3, max_size=3),
       st.lists(st.tuples(st.integers(0, 2), st.permutations(range(6)),
                          st.floats(-1e300, 1e300)),
                max_size=8))
@settings(max_examples=60, deadline=None)
def test_any_records_round_trip(tmp_path_factory, rows, specs):
    tables = {f"img-{k}": POOL[r].reshape(-1, 4) for k, r in enumerate(rows)}
    records = []
    for i, (image, order, score) in enumerate(specs):
        # every row of the image's table once: the rows of a permutation of 0..5
        ranking = [k for k in order if k < len(rows[image])]
        records.append(record(f"e{i}", f"img-{image}", ranking,
                              np.arange(len(ranking), 0, -1) * score))
    preds = Predictions(records=records, tables=tables)
    path = tmp_path_factory.mktemp("pred") / "predictions.jsonl"
    write_predictions(preds, path, seed=1)
    assert_same_predictions(read_predictions(path), preds)
