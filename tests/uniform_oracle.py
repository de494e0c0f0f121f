"""The proposal encoder written one proposal at a time, with one
``rng.uniform`` call per box number and a ``BBox`` per box.
``gvgkit.synth.encode`` builds each scene's arrays with array operations
and draws one ``rng.random`` block per box set instead; both must give
the same arrays, bit for bit, and leave the generator in the same state.
Used only to cross-check the package.
"""

from collections.abc import Sequence

import numpy as np

from gvgkit.datagen import SceneAnnotation
from gvgkit.synth.config import CONTEXT_DIMS, FEATURE_DIMS, WORD_SPACE_DIMS, SynthConfig
from gvgkit.synth.encode import CTX_BARE_PATCH, EmbeddingTable, _context_block, _scene_rng

from box_oracle import BBox


def normalized_boxes(scene: SceneAnnotation) -> list[BBox]:
    """The scene's instance boxes as fractions of the image size, one
    ``BBox`` per instance, each divided on its own."""
    return [BBox.from_corners(i.x1 / scene.width, i.y1 / scene.height,
                              i.x2 / scene.width, i.y2 / scene.height)
            for i in scene.instances]


def centre_rows(boxes: Sequence[BBox]) -> np.ndarray:
    """(N, 4) centre-form rows (cx, cy, w, h) of a box list."""
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes],
                    dtype=np.float64).reshape(-1, 4)


def jitter_box(box: BBox, cfg: SynthConfig, rng: np.random.Generator) -> BBox:
    bias_c = 0.6 * cfg.jitter_centre
    noise_c = 0.4 * cfg.jitter_centre
    bias_s = 0.75 * cfg.jitter_scale
    noise_s = 0.25 * cfg.jitter_scale
    cx = box.cx + (bias_c + rng.uniform(-noise_c, noise_c)) * box.w
    cy = box.cy + (bias_c + rng.uniform(-noise_c, noise_c)) * box.h
    w = box.w * (1.0 + bias_s + rng.uniform(-noise_s, noise_s))
    h = box.h * (1.0 + bias_s + rng.uniform(-noise_s, noise_s))
    w, h = max(w, 1e-4), max(h, 1e-4)
    cx = min(max(cx, w / 2), 1 - w / 2)
    cy = min(max(cy, h / 2), 1 - h / 2)
    return BBox(cx, cy, w, h)


def background_box(gt_boxes: list[BBox], rng: np.random.Generator) -> BBox:
    gt_corners = [box.to_corners() for box in gt_boxes]
    for _ in range(60):
        w = rng.uniform(0.04, 0.14)
        h = rng.uniform(0.04, 0.14)
        cx = rng.uniform(w / 2, 1 - w / 2)
        cy = rng.uniform(h / 2, 1 - h / 2)
        candidate = BBox(cx, cy, w, h)
        x1, y1, x2, y2 = candidate.to_corners()
        for ox1, oy1, ox2, oy2 in gt_corners:
            if not (x2 <= ox1 or ox2 <= x1 or y2 <= oy1 or oy2 <= y1):
                break
        else:
            return candidate
    return candidate


def encode_proposals(scene: SceneAnnotation, cfg: SynthConfig, table: EmbeddingTable
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``gvgkit.synth.encode.encode_proposals``, one proposal at a time:
    each instance's jittered box, then each background box, then the
    word noise, then the scene noise."""
    rng = _scene_rng(cfg.seed, scene.image_id, "proposals")
    ctx = _context_block(scene, cfg)
    gt_boxes = normalized_boxes(scene)

    features = []
    boxes = []
    source_ids = []
    for inst, gt_box in zip(scene.instances, gt_boxes):
        vec = np.zeros(FEATURE_DIMS)
        for word in inst.triple:
            vec = np.maximum(vec, table.matrix[table.row[word]])
        vec[WORD_SPACE_DIMS:] = ctx
        features.append(vec)
        boxes.append(jitter_box(gt_box, cfg, rng))
        source_ids.append(inst.instance_id)

    n_bg = max(cfg.distractor_min, int(round(cfg.distractor_rate * len(scene.instances))))
    if not scene.instances:
        n_bg = cfg.empty_scene_proposals
    for _ in range(n_bg):
        vec = np.zeros(FEATURE_DIMS)
        vec[WORD_SPACE_DIMS:] = ctx * cfg.context_bg_scale
        vec[WORD_SPACE_DIMS + CTX_BARE_PATCH] = 1.0 * cfg.context_strength
        features.append(vec)
        boxes.append(background_box(gt_boxes, rng))
        source_ids.append(-1)

    if not features:
        raise ValueError(f"scene {scene.image_id!r} has no proposals")
    feats = np.stack(features)
    if cfg.feature_noise > 0:
        feats[:, :WORD_SPACE_DIMS] += rng.normal(
            0.0, cfg.feature_noise, size=(feats.shape[0], WORD_SPACE_DIMS))
    context_sigma = cfg.context_noise * cfg.context_strength
    if context_sigma > 0:
        scene_noise = rng.normal(0.0, context_sigma, size=CONTEXT_DIMS)
        n_inst = len(scene.instances)
        feats[:n_inst, WORD_SPACE_DIMS:] += scene_noise
        feats[n_inst:, WORD_SPACE_DIMS:] += scene_noise * cfg.context_bg_scale
    return feats, centre_rows(boxes), np.asarray(source_ids, dtype=np.int64)
