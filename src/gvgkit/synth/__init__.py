from gvgkit.synth.boxhead import (
    BoxRefiner,
    giou_loss_diff,
    interp_iou_loss_diff,
)
from gvgkit.synth.config import (
    SynthConfig,
    TrainConfig,
    load_config,
)
from gvgkit.synth.encode import EmbeddingTable, encode_proposals, encode_text, tokenize
from gvgkit.synth.predict import (
    PredictionRecord,
    Predictions,
    predict_split,
    read_predictions,
    write_predictions,
)
from gvgkit.synth.scenes import (
    SplitData,
    SyntheticDataset,
    dataset_stats,
    gen_scenes,
    write_split,
)
from gvgkit.synth.train import (
    EncodedScene,
    LogRow,
    TrainingDiverged,
    TrainResult,
    encode_split,
    train_two_stage,
    write_log,
)

__all__ = [
    "BoxRefiner", "EmbeddingTable", "EncodedScene", "LogRow",
    "PredictionRecord", "Predictions", "SplitData", "SyntheticDataset",
    "SynthConfig", "TrainConfig", "TrainResult", "TrainingDiverged",
    "dataset_stats", "encode_proposals", "encode_split", "encode_text",
    "gen_scenes", "giou_loss_diff", "interp_iou_loss_diff", "load_config",
    "predict_split", "read_predictions", "tokenize", "train_two_stage",
    "write_log", "write_predictions", "write_split",
]
