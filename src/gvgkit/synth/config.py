"""Configuration for the synthetic benchmark and the training loop.

Defaults mirror the stated hyperparameters of the method (temperature
0.07, interpolation factor 0.99, matching weights 2.0/0.5, per-type loss
weights, learning rate 2e-4 with cosine annealing, batch size 4, 64
token cap); everything else is sized for a few minutes on one CPU core.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from gvgkit.gradkit.io import read_json_object
from gvgkit.hrs import check_variant

# feature layout: one-hot word space plus reserved scene-context block
WORD_SPACE_DIMS = 32
CONTEXT_DIMS = 8
FEATURE_DIMS = WORD_SPACE_DIMS + CONTEXT_DIMS


@dataclass
class SynthConfig:
    """Scene generator and feature encoder settings."""

    seed: int = 7
    n_scenes: int = 240
    image_size: int = 1280
    # crop_only, weed_only, mixed, empty
    type_mix: tuple[float, float, float, float] = (0.26, 0.26, 0.26, 0.22)
    # density buckets 1-10, 11-20, 21-30, >30
    density_probs: tuple[float, float, float, float] = (0.72, 0.18, 0.07, 0.03)
    max_instances: int = 36
    # tiny, small, medium, large draw probabilities (long-tailed like real
    # field imagery, where most instances are tiny or small)
    size_probs: tuple[float, float, float, float] = (0.45, 0.40, 0.12, 0.03)
    sub_min_rate: float = 0.2      # chance of one extra unidentifiable instance
    split_ratios: tuple[float, float, float] = (0.70, 0.15, 0.15)
    copy_paste_rate: float = 0.25  # train-split instance duplication rate

    feature_noise: float = 0.12    # sigma on proposal word dims
    context_noise: float = 0.45    # sigma of the per-scene noise on the context
                                   # block, relative to context_strength:
                                   # existence stays learnable but never trivial
    context_strength: float = 1.0  # scene-context block and noise scale (0 disables)
    context_bg_scale: float = 0.4  # context attenuation on background proposals
    jitter_centre: float = 0.10    # proposal centre noise, fraction of box size
    jitter_scale: float = 0.20     # proposal size noise, relative
    distractor_rate: float = 0.75  # background proposals per real instance
    distractor_min: int = 2
    empty_scene_proposals: int = 10
    max_tokens: int = 64

    def __post_init__(self) -> None:
        for name in ("type_mix", "density_probs", "size_probs", "split_ratios"):
            probs = getattr(self, name)
            if not abs(sum(probs) - 1.0) <= 1e-9 or not all(p >= 0 for p in probs):
                raise ValueError(f"{name} must be a probability vector, got {probs}")
        _require(self, ("n_scenes", "image_size", "max_tokens", "empty_scene_proposals"),
                 lambda v: v >= 1, "at least 1")
        _require(self, ("feature_noise", "context_noise", "jitter_centre", "jitter_scale"),
                 lambda v: v >= 0, "at least 0")
        if self.max_instances < 31:
            raise ValueError("max_instances must allow the >30 density bucket")

    def config_hash(self) -> str:
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass
class TrainConfig:
    """Two-stage schedule and model sizes.

    The schedule is tuned for a small from-scratch model on a few
    hundred scenes; fine-tuning-scale settings (lr 2e-4, long epochs)
    remain reachable through configuration.
    """

    seed: int = 7
    stage1_epochs: int = 20
    stage2_epochs: int = 45
    batch_size: int = 4
    lr_init: float = 1e-3
    expressions_per_scene: int = 3
    interp_alpha: float = 0.99
    lambda_centre: float = 2.0
    lambda_size: float = 0.5
    d: int = 64
    heads: int = 4
    d_ff: int = 128
    d_hidden: int = 32
    ablation: str = "full"     # one of hrs.VARIANTS

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.stage1_epochs < 1 or self.stage2_epochs < 1:
            raise ValueError("epochs and batch size must be positive")
        if self.expressions_per_scene < 1:
            raise ValueError("expressions_per_scene must be positive")
        if not 0.0 < self.interp_alpha < 1.0:
            raise ValueError("interp_alpha must lie in (0, 1)")
        if self.lambda_centre < 0 or self.lambda_size < 0:
            raise ValueError("matching weights must be non-negative")
        _require(self, ("d", "heads", "d_ff", "d_hidden"), lambda v: v >= 1, "positive")
        if self.d % self.heads:
            raise ValueError(f"TrainConfig.d = {self.d} must be divisible by "
                             f"TrainConfig.heads = {self.heads}")
        _require(self, ("lr_init",), lambda v: 0 < v < math.inf, "positive and finite")
        check_variant(self.ablation, "TrainConfig.ablation")


def _require(cfg, names: tuple[str, ...], ok, rule: str) -> None:
    """Raise a one-line ValueError naming the first field of ``names``
    whose value fails ``ok`` (NaN fails every rule)."""
    for name in names:
        value = getattr(cfg, name)
        if not ok(value):
            raise ValueError(f"{type(cfg).__name__}.{name} must be {rule}, not {value!r}")


def _fits(value, default) -> bool:
    """Whether a config value has its field's type, read off the default:
    any number for a float, a list as long as a tuple."""
    if isinstance(default, tuple):
        return (isinstance(value, tuple) and len(value) == len(default)
                and all(map(_fits, value, default)))
    if isinstance(default, float) and not isinstance(value, bool):
        return isinstance(value, (int, float))
    return type(value) is type(default)


def _from_dict(cls, payload, section: str):
    if not isinstance(payload, dict):
        raise ValueError(f"config section {section!r} is not a JSON object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    defaults = cls()
    converted = {}
    for key, value in payload.items():
        default = getattr(defaults, key)
        value = tuple(value) if isinstance(value, list) else value
        if not _fits(value, default):
            raise ValueError(f"config {section}.{key} must be like its default "
                             f"{json.dumps(default)}, not {json.dumps(value)}")
        converted[key] = value
    return cls(**converted)


def load_config(path: str | Path | None) -> tuple[SynthConfig, TrainConfig]:
    """Read a run configuration: {"synth": {...}, "train": {...}}. A file
    that is not a JSON object, or a value of the wrong type for its field,
    raises a one-line ValueError that names the file."""
    if path is None:
        return SynthConfig(), TrainConfig()
    payload = read_json_object(path)
    try:
        unknown = set(payload) - {"synth", "train"}
        if unknown:
            raise ValueError(f"unknown top-level config sections: {sorted(unknown)}")
        return (_from_dict(SynthConfig, payload.get("synth", {}), "synth"),
                _from_dict(TrainConfig, payload.get("train", {}), "train"))
    except ValueError as err:
        raise ValueError(f"{err}, in {path}") from None
