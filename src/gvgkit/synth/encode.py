"""Deterministic stand-in encoders for the vision and text backbones.

Content words (categories, size bins, grid cells, plus "no" and the
[EMPTY] token) each own one unit-norm coordinate axis of the word space
under a seeded random permutation, so the embedding table is orthogonal
and max-pooling over a sentence yields the union of its attribute axes.
The umbrella words "crop" and "vegetation" are unit-norm blends of the
category axes they cover. Filler words have no embedding: a text
encodes as the table rows of its content words alone.

Proposal features live in the same space: a real instance's feature is
the max-pooled embedding of its own attribute words, plus a reserved
scene-context block (what a detector's query would soak up from global
attention: which kinds of vegetation the scene contains and how dense it
is), plus Gaussian noise on the word dims. The context block and its
noise describe the scene, so both are drawn once per scene: instances
with the same attributes get the same noiseless feature. Background
proposals carry no attribute content and only an attenuated context
echo (block and noise scaled by ``context_bg_scale``).

``encode_proposals`` builds a scene's arrays with array operations. Its
random stream is a pure function of the dataset seed and the image id,
and is drawn in this order: one (cx, cy, w, h) jitter draw per instance,
then each background box's tries, then the word noise, then the scene
noise. Drawing the scene noise last keeps the box and word-noise draws
independent of it.
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
from gvgkit.geometry import corners
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
        # row k of ``matrix`` embeds word ``CONTENT_WORDS[k]``; ``row`` maps
        # a word to its row, so a scene's words are gathered in one index
        self.row = {word: k for k, word in enumerate(CONTENT_WORDS)}
        self.matrix = np.stack([self._blend([word]) for word in CONTENT_WORDS])
        self.matrix[self.row["crop"]] = self._blend(CROP_CATEGORIES)
        self.matrix[self.row["vegetation"]] = self._blend(CATEGORIES)

    def _blend(self, words) -> np.ndarray:
        """Unit-norm sum of the words' own axes."""
        vec = np.zeros(FEATURE_DIMS)
        for word in words:
            vec[self.axis[word]] = 1.0
        return vec / np.linalg.norm(vec)


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


def encode_text(text: str, table: EmbeddingTable, max_tokens: int = 64) -> np.ndarray:
    """One expression as the (V, d_t) table rows of its content words, in
    token order; filler words get no row. The token cap counts fillers
    too."""
    tokens = tokenize(text)
    if len(tokens) > max_tokens:
        warnings.warn(f"expression truncated to {max_tokens} tokens: {text!r}")
        tokens = tokens[:max_tokens]
    rows = [table.row[token] for token in tokens if token in table.row]
    if not rows:
        raise ValueError(f"expression has no content words: {text!r}")
    return table.matrix[rows]


def _context_block(scene: SceneAnnotation, cfg: SynthConfig) -> np.ndarray:
    image_type = scene.image_type
    ctx = np.zeros(CONTEXT_DIMS)
    ctx[CTX_HAS_CROP] = 1.0 if image_type in ("crop_only", "mixed") else 0.0
    ctx[CTX_HAS_WEED] = 1.0 if image_type in ("weed_only", "mixed") else 0.0
    ctx[CTX_HAS_BOTH] = 1.0 if image_type == "mixed" else 0.0
    ctx[CTX_HAS_NONE] = 1.0 if image_type == "empty" else 0.0
    ctx[CTX_DENSITY] = min(len(scene.instances), 40) / 40.0
    return ctx * cfg.context_strength


# ``rng.uniform(low, high)`` is ``low + (high - low) * rng.random()``.
# The jitter and the soil draws below apply that arithmetic to
# ``rng.random`` draws (for ``low = -noise``, ``high - low`` is
# ``2 * noise`` exactly), so they equal ``rng.uniform``'s, bit for bit.
_BG_SIDE_LOW = 0.04
_BG_SIDE_SPAN = 0.14 - 0.04


def _jitter_boxes(gt: np.ndarray, cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Detector-style corruption of the (n, 4) centre rows ``gt``: a
    systematic bias (boxes inflated and shifted toward the lower right,
    as an untuned detector would produce consistently) plus random
    noise. The systematic part is what the refinement stage can and
    should learn away; totals stay within the configured centre/scale
    envelopes. Row i takes row i of one ``rng.random((n, 4))`` as its
    (cx, cy, w, h) draws; sides are floored at 1e-4 and centres clamped
    so that the box stays inside the image."""
    bias_c = 0.6 * cfg.jitter_centre
    noise_c = 0.4 * cfg.jitter_centre
    bias_s = 0.75 * cfg.jitter_scale
    noise_s = 0.25 * cfg.jitter_scale
    u = rng.random((len(gt), 4))
    cx, cy, w, h = gt.T
    out = np.empty_like(gt)
    out[:, 0] = cx + (bias_c + (-noise_c + 2 * noise_c * u[:, 0])) * w
    out[:, 1] = cy + (bias_c + (-noise_c + 2 * noise_c * u[:, 1])) * h
    sides = out[:, 2:]
    sides[:, 0] = w * (1.0 + bias_s + (-noise_s + 2 * noise_s * u[:, 2]))
    sides[:, 1] = h * (1.0 + bias_s + (-noise_s + 2 * noise_s * u[:, 3]))
    np.maximum(sides, 1e-4, out=sides)
    half = sides / 2
    out[:, :2] = np.minimum(np.maximum(out[:, :2], half), 1 - half)
    return out


def _background_boxes(n: int, gt: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``n`` boxes over soil, as (n, 4) centre-form rows: each is the first
    draw clear of every instance row of ``gt``, or the 60th draw in a
    crowded scene. Each try draws one ``rng.random(4)``, as (w, h, cx,
    cy). The instances' corners come from their centre rows, with the
    arithmetic of ``geometry.corners``, as do the draws' corners."""
    random = rng.random
    gt_corners = corners(gt).tolist()
    rows = []
    for _ in range(n):
        for _ in range(60):
            u_w, u_h, u_cx, u_cy = random(4).tolist()
            w = _BG_SIDE_LOW + _BG_SIDE_SPAN * u_w
            h = _BG_SIDE_LOW + _BG_SIDE_SPAN * u_h
            hw, hh = w / 2, h / 2
            cx = hw + (1 - hw - hw) * u_cx
            cy = hh + (1 - hh - hh) * u_cy
            x1, y1, x2, y2 = cx - hw, cy - hh, cx + hw, cy + hh
            for ox1, oy1, ox2, oy2 in gt_corners:
                if x1 < ox2 and ox1 < x2 and y1 < oy2 and oy1 < y2:
                    break
            else:   # clear of every instance
                break
        rows.append((cx, cy, w, h))
    return np.array(rows, dtype=np.float64).reshape(n, 4)


def encode_proposals(scene: SceneAnnotation, cfg: SynthConfig, table: EmbeddingTable
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulated detector output for one scene, as three aligned arrays:
    the (N, d_v) features, the (N, 4) centre-form boxes and the (N,)
    source instance ids (-1 for background distractors). Real instances
    contribute one jittered box each with attribute-aligned features;
    distractors sit on background with noise-only features. Everything
    is a pure function of the dataset seed and the image id. A scene
    with no proposal raises ValueError.
    """
    n_inst = len(scene.instances)
    n_bg = max(cfg.distractor_min, int(round(cfg.distractor_rate * n_inst)))
    if not n_inst:
        n_bg = cfg.empty_scene_proposals
    if not n_inst + n_bg:
        raise ValueError(f"scene {scene.image_id!r} has no proposals")
    rng = _scene_rng(cfg.seed, scene.image_id, "proposals")
    ctx = _context_block(scene, cfg)
    gt = scene.normalized_rows()

    feats = np.zeros((n_inst + n_bg, FEATURE_DIMS))
    boxes = np.empty((n_inst + n_bg, 4))
    source_ids = np.full(n_inst + n_bg, -1, dtype=np.int64)
    words = table.matrix[[table.row[word] for inst in scene.instances
                          for word in inst.triple]].reshape(n_inst, 3, FEATURE_DIMS)
    np.maximum(np.maximum(np.maximum(0.0, words[:, 0]), words[:, 1]), words[:, 2],
               out=feats[:n_inst])
    feats[:n_inst, WORD_SPACE_DIMS:] = ctx
    feats[n_inst:, WORD_SPACE_DIMS:] = ctx * cfg.context_bg_scale
    feats[n_inst:, WORD_SPACE_DIMS + CTX_BARE_PATCH] = 1.0 * cfg.context_strength
    source_ids[:n_inst] = [inst.instance_id for inst in scene.instances]
    boxes[:n_inst] = _jitter_boxes(gt, cfg, rng)
    boxes[n_inst:] = _background_boxes(n_bg, gt, rng)

    if cfg.feature_noise > 0:
        feats[:, :WORD_SPACE_DIMS] += rng.normal(
            0.0, cfg.feature_noise, size=(feats.shape[0], WORD_SPACE_DIMS))
    context_sigma = cfg.context_noise * cfg.context_strength
    if context_sigma > 0:
        # one draw per scene, like the block it perturbs
        scene_noise = rng.normal(0.0, context_sigma, size=CONTEXT_DIMS)
        feats[:n_inst, WORD_SPACE_DIMS:] += scene_noise
        feats[n_inst:, WORD_SPACE_DIMS:] += scene_noise * cfg.context_bg_scale
    return feats, boxes, source_ids
