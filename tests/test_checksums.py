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
    "refiner.json": "e9dc8a3eeafb13ffabb0237731d4846d0ea90f8d59541356f84a74d8a03036dc",
    "params.json": "b7ddf30c035c228b3f0fc4dbaff2811629c5d68f27a60ef9e59c38a5639b887d",
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
