"""Deterministic stand-in encoders for the vision and text backbones.

Content words (categories, size bins, grid cells, plus "no" and the
[EMPTY] token) each own one unit-norm coordinate axis of the word space
under a seeded random permutation, so the embedding table is orthogonal
and max-pooling over a sentence yields the union of its attribute axes.
The umbrella words "crop" and "vegetation" are unit-norm blends of the
category axes they cover. Filler words share the null (zero) embedding
and are masked out as non-content.

Proposal features live in the same space: a real instance's feature is
the max-pooled embedding of its own attribute words, plus a reserved
scene-context block (what a detector's query would soak up from global
attention: which kinds of vegetation the scene contains and how dense it
is), plus Gaussian noise on the word dims. The context block and its
noise describe the scene, so both are drawn once per scene: instances
with the same attributes get the same noiseless feature. Background
proposals carry no attribute content and only an attenuated context
echo (block and noise scaled by ``context_bg_scale``).
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np

from gvgkit.datagen import (
    CATEGORIES,
    CROP_CATEGORIES,
    GRID_CELLS,
    SIZE_BINS,
    SceneAnnotation,
)
from gvgkit.geometry import BBox
from gvgkit.hrs import ProposalFeatures, TextFeatures
from gvgkit.synth.config import CONTEXT_DIMS, FEATURE_DIMS, WORD_SPACE_DIMS, SynthConfig

EXTRA_WORDS = ("no", "crop", "vegetation", "[EMPTY]")
CONTENT_WORDS = tuple(CATEGORIES) + tuple(SIZE_BINS) + tuple(GRID_CELLS) + EXTRA_WORDS

# context block layout (offsets within the reserved dims); the first
# dims describe the scene a query attends to, BARE_PATCH describes the
# query's own anchor: high when it sits on soil rather than a plant
CTX_HAS_CROP = 0
CTX_HAS_WEED = 1
CTX_HAS_BOTH = 2
CTX_HAS_NONE = 3
CTX_DENSITY = 4
CTX_BARE_PATCH = 5


def _scene_rng(seed: int, image_id: str, purpose: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{purpose}:{image_id}".encode()).digest()
    stream = int.from_bytes(digest[:8], "little")
    return np.random.default_rng([seed, stream])


class EmbeddingTable:
    """Word -> axis assignment, fixed by the dataset seed.

    Every content word embeds as a unit-norm vector. Attribute words
    (categories, size bins, grid cells) plus "no" and [EMPTY] own one
    axis each. The umbrella words are compositional, the way a text
    encoder relates a hypernym to its hyponyms: "crop" is the unit-norm
    blend of the eight crop-category axes, and "vegetation" the
    unit-norm blend of all nine category axes, crop and weed alike.
    That shared structure lets existence supervision on absence
    sentences shape the same per-category geometry instance expressions
    use. The axes the permutation assigns to "crop" and "vegetation"
    stay unused.
    """

    def __init__(self, seed: int):
        if len(CONTENT_WORDS) > WORD_SPACE_DIMS:
            raise ValueError("word space too small for the vocabulary")
        rng = np.random.default_rng([seed, 0xE0B])
        axes = rng.permutation(WORD_SPACE_DIMS)[:len(CONTENT_WORDS)]
        self.axis = {word: int(axes[i]) for i, word in enumerate(CONTENT_WORDS)}
        self._table = {word: self._blend([word]) for word in CONTENT_WORDS}
        self._table["crop"] = self._blend(CROP_CATEGORIES)
        self._table["vegetation"] = self._blend(CATEGORIES)

    def _blend(self, words) -> np.ndarray:
        """Unit-norm sum of the words' own axes."""
        vec = np.zeros(FEATURE_DIMS)
        for word in words:
            vec[self.axis[word]] = 1.0
        return vec / np.linalg.norm(vec)

    def embed(self, word: str) -> np.ndarray:
        return self._table[word].copy()

    def is_content(self, word: str) -> bool:
        return word in self._table


def tokenize(text: str) -> list[str]:
    """Whitespace split with greedy lookup of two-word attribute names."""
    parts = text.split()
    tokens = []
    i = 0
    while i < len(parts):
        if i + 1 < len(parts):
            compound = f"{parts[i]} {parts[i + 1]}"
            if compound in CONTENT_WORDS:
                tokens.append(compound)
                i += 2
                continue
        tokens.append(parts[i])
        i += 1
    return tokens


def encode_text(text: str, table: EmbeddingTable, max_tokens: int = 64) -> TextFeatures:
    """Token embeddings for one expression; filler tokens get the shared
    null embedding and are masked as non-content."""
    tokens = tokenize(text)
    if len(tokens) > max_tokens:
        warnings.warn(f"expression truncated to {max_tokens} tokens: {text!r}")
        tokens = tokens[:max_tokens]
    embeddings = np.zeros((len(tokens), FEATURE_DIMS))
    mask = np.zeros(len(tokens), dtype=bool)
    for k, token in enumerate(tokens):
        if table.is_content(token):
            embeddings[k] = table.embed(token)
            mask[k] = True
    if not mask.any():
        raise ValueError(f"expression has no content words: {text!r}")
    return TextFeatures(token_embeddings=embeddings, valid_mask=mask)


def _context_block(scene: SceneAnnotation, cfg: SynthConfig) -> np.ndarray:
    has_crop = any(i.category != "weed" for i in scene.instances)
    has_weed = any(i.category == "weed" for i in scene.instances)
    ctx = np.zeros(CONTEXT_DIMS)
    ctx[CTX_HAS_CROP] = 1.0 if has_crop else 0.0
    ctx[CTX_HAS_WEED] = 1.0 if has_weed else 0.0
    ctx[CTX_HAS_BOTH] = 1.0 if (has_crop and has_weed) else 0.0
    ctx[CTX_HAS_NONE] = 1.0 if not scene.instances else 0.0
    ctx[CTX_DENSITY] = min(len(scene.instances), 40) / 40.0
    return ctx * cfg.context_strength


def _jitter_box(box: BBox, cfg: SynthConfig, rng: np.random.Generator) -> BBox:
    """Detector-style box corruption: a systematic bias (boxes inflated
    and shifted toward the lower right, as an untuned detector would
    produce consistently) plus random noise. The systematic part is what
    the refinement stage can and should learn away; totals stay within
    the configured centre/scale envelopes."""
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


def _background_box(gt_boxes: list[BBox], rng: np.random.Generator) -> BBox:
    """A box over soil: disjoint from every instance when possible."""
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
        else:   # clear of every instance
            return candidate
    return candidate  # crowded scene: accept the last sample


def encode_proposals(scene: SceneAnnotation, cfg: SynthConfig,
                     table: EmbeddingTable) -> tuple[ProposalFeatures, np.ndarray]:
    """Simulated detector output for one scene.

    Returns the proposal set plus the source instance id per proposal
    (-1 for background distractors). Real instances contribute one
    jittered box each with attribute-aligned features; distractors sit
    on background with noise-only features. Everything is a pure
    function of the dataset seed and the image id.
    """
    rng = _scene_rng(cfg.seed, scene.image_id, "proposals")
    ctx = _context_block(scene, cfg)
    gt_boxes = [inst.normalized_box(scene.width, scene.height)
                for inst in scene.instances]

    features = []
    boxes = []
    source_ids = []
    for inst, gt_box in zip(scene.instances, gt_boxes):
        vec = np.zeros(FEATURE_DIMS)
        for word in inst.triple:
            vec = np.maximum(vec, table.embed(word))
        vec[WORD_SPACE_DIMS:] = ctx
        features.append(vec)
        boxes.append(_jitter_box(gt_box, cfg, rng))
        source_ids.append(inst.instance_id)

    n_bg = max(cfg.distractor_min, int(round(cfg.distractor_rate * len(scene.instances))))
    if not scene.instances:
        n_bg = cfg.empty_scene_proposals
    for _ in range(n_bg):
        vec = np.zeros(FEATURE_DIMS)
        vec[WORD_SPACE_DIMS:] = ctx * cfg.context_bg_scale
        vec[WORD_SPACE_DIMS + CTX_BARE_PATCH] = 1.0 * cfg.context_strength
        features.append(vec)
        boxes.append(_background_box(gt_boxes, rng))
        source_ids.append(-1)

    feats = np.stack(features)
    if cfg.feature_noise > 0:
        feats[:, :WORD_SPACE_DIMS] += rng.normal(
            0.0, cfg.feature_noise, size=(feats.shape[0], WORD_SPACE_DIMS))
    context_sigma = cfg.context_noise * cfg.context_strength
    if context_sigma > 0:
        # one draw per scene, like the block it perturbs; drawn last so
        # the box and word-noise streams do not depend on it
        scene_noise = rng.normal(0.0, context_sigma, size=CONTEXT_DIMS)
        n_inst = len(scene.instances)
        feats[:n_inst, WORD_SPACE_DIMS:] += scene_noise
        feats[n_inst:, WORD_SPACE_DIMS:] += scene_noise * cfg.context_bg_scale
    return (ProposalFeatures(features=feats, boxes=boxes),
            np.asarray(source_ids, dtype=np.int64))
