"""Training and prediction give the same bytes as the commit that set the
constants below.

A small fixed config is built, trained through both stages and predicted
on its test split, and each artifact's sha256 is compared with the value
recorded when it was last changed on purpose. A change that only makes
the code faster must leave every constant as it is. A change that alters
training or prediction on purpose updates the constants it moves, and
records the change and the reason in CHANGES.md.

The digests do not depend on the number of BLAS threads: the run gives
the same bytes with ``OPENBLAS_NUM_THREADS=1`` and without it.
"""

import hashlib
import json
import warnings

from gvgkit.cli import main

CONFIG = {
    "synth": {"seed": 5, "n_scenes": 48},
    "train": {"seed": 5, "stage1_epochs": 3, "stage2_epochs": 3},
}

SHA256 = {
    "refiner.json": "4fe154c991344fe9ffaca365601eb29d8d54c55d6f35319fac0bef29e206ce48",
    "params.json": "7609f7a9f4b4d8f447776ebffcaf9ae7b7d0c01497a0a8ce828a75d10db164ff",
    "log.csv": "2c75cb34e39725d98f1bc11ec1e19ef147eaa07483822d4192424b8428e230d9",
    "predictions-test.jsonl": "a66bf2cb140996c3069724f1ca5eb36a88d74d509316e6a318408b1ba62f43f7",
}


def test_training_and_prediction_keep_their_bytes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CONFIG))
    out = str(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # a split may lack an image type
        assert main(["build", "--config", str(cfg_path), "--out", out]) == 0
        assert main(["train", "--out", out]) == 0
        assert main(["predict", "--out", out, "--split", "test"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in SHA256}
    assert digests == SHA256
