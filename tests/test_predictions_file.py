"""Predictions file, version 2: each image's boxes are written once in
the header, and every record reads its boxes and scores back bit for
bit."""

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


def record(expression_id, image_id, boxes, scores):
    return PredictionRecord(expression_id=expression_id, image_id=image_id,
                            level0_class=2,
                            boxes_px=np.asarray(boxes, dtype=np.float64).reshape(-1, 4),
                            scores=np.asarray(scores, dtype=np.float64))


def assert_same_records(loaded, records):
    assert [r.expression_id for r in loaded] == [r.expression_id for r in records]
    for got, want in zip(loaded, records):
        assert (got.image_id, got.level0_class) == (want.image_id, want.level0_class)
        for a, b in ((got.boxes_px, want.boxes_px), (got.scores, want.scores)):
            assert a.dtype == np.float64 and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), want.expression_id


def test_roundtrip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    boxes = rng.uniform(0.0, 1000.0, (6, 4)) / 3.0
    boxes[3] = boxes[1]                     # the same box twice in one image
    boxes[4] = [-0.0, 0.0, 5.0, 5.0]        # equal to the next row but for
    boxes[5] = [0.0, 0.0, 5.0, 5.0]         # the sign of one zero
    records = [
        record("e0", "img-a", boxes[[2, 0, 5, 1, 3, 4]],
               [2.5, 1.0 / 3.0, 0.0, -0.0, -1e-300, -7.0]),
        record("e1", "img-a", boxes[[4, 3]], [0.25, -0.0]),  # another box set
        record("e2", "img-a", np.empty((0, 4)), []),           # no proposals
        record("e3", "img-b", rng.uniform(0.0, 1.0, (3, 4)), [1e300, 0.1, -0.1]),
        record("e4", "img-c", np.empty((0, 4)), []),           # an image without boxes
    ]
    meta = {"split": "test", "gate_level0": True}
    path = tmp_path / "predictions.jsonl"
    write_predictions(Predictions(records=records, meta=meta), path, seed=7)
    loaded = read_predictions(path)
    assert_same_records(loaded.records, records)
    assert loaded.meta == {"format": "gvgkit-predictions", "version": 2, "seed": 7, **meta}

    lines = path.read_text().splitlines()
    assert len(lines) == 1 + len(records)
    tables = json.loads(lines[0])["boxes_xyxy_px"]
    assert {k: len(v) for k, v in tables.items()} == {"img-a": 5, "img-b": 3, "img-c": 0}
    # the file read back writes the same bytes again
    again = tmp_path / "again.jsonl"
    write_predictions(loaded, again, seed=7)
    assert again.read_bytes() == path.read_bytes()


# a small pool of boxes, so records of one image share and repeat some
POOL = np.array([[0.0, 0.0, 1.0, 1.0], [-0.0, 0.0, 1.0, 1.0], [0.1, 0.2, 0.3, 0.4],
                 [1e-310, 2.0, 3.0, 1e308], [10.0, 20.0, 30.0, 40.0]])


@given(st.lists(st.tuples(st.integers(0, 2),
                          st.lists(st.integers(0, len(POOL) - 1), max_size=6),
                          st.floats(-1e300, 1e300)),
                max_size=8))
@settings(max_examples=60, deadline=None)
def test_any_records_round_trip(tmp_path_factory, specs):
    records = [record(f"e{i}", f"img-{image}", POOL[rows],
                      np.arange(len(rows), 0, -1) * score)
               for i, (image, rows, score) in enumerate(specs)]
    path = tmp_path_factory.mktemp("pred") / "predictions.jsonl"
    write_predictions(Predictions(records=records), path, seed=1)
    assert_same_records(read_predictions(path).records, records)
