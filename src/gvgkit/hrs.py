"""Hierarchical relevance scoring for generalised grounding.

Scoring runs at two levels. Level 0 decides the global semantic state of
an image by classifying over a small fixed vocabulary of image-level
sentences (each scored by max-pooling per-proposal scores). Level 1
ranks candidate regions for a given expression by fusing sentence-level
and word-level similarities with a learned balance weight.

Both levels come from one pass per scene, ``score_scene``, which
training and prediction share: ``score_expression`` scores the scene's
K texts against its N proposals at once, through one token projection,
one masked multi-head cross-attention, one feed-forward block and one
cosine step, into a (K, N) referring-score matrix, as the variant its
``HrsParams`` carries. Training runs it on gradkit tensors, so the
losses get exact reverse-mode gradients. A frozen model
(``HrsParams.frozen``, which prediction uses) runs ``fuse``, the
attention and feed-forward block, on plain numpy arrays and the rest,
``referring_score``, on constant tensors: it gives the same bits and
raises the same errors, and records no graph.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from gvgkit import gradkit as gk
from gvgkit.gradkit import Tensor
from gvgkit.gradkit.tensor import _reduce

PARAMS_FORMAT = "gvgkit-params"
PARAMS_VERSION = 4

# the level-0 vocabulary: one image-level sentence per global image state
LEVEL0_SENTENCES = (
    "there is no crop in the image",
    "there is no weed in the image",
    "there is no vegetation in the image",
    "[EMPTY]",
)
# by image type (``datagen.IMAGE_TYPES``), the row of ``LEVEL0_SENTENCES``
# that is its level-0 class; a mixed scene has no true absence sentence,
# so it maps to [EMPTY]
LEVEL0_CLASS = {"crop_only": 1, "weed_only": 0, "mixed": 3, "empty": 2}

# (lambda_level0, lambda_level1) by image type
HMCE_WEIGHTS = {
    "crop_only": (1.0, 2.0),
    "weed_only": (1.0, 2.0),
    "mixed": (1.0, 2.5),
    "empty": (1.0, 0.0),
}


class EmptyTextError(ValueError):
    pass


@dataclass
class RelevanceOutput:
    """Per-proposal relevance pieces for K texts; row k belongs to text k."""

    sentence_scores: Tensor      # (K, N)    cosine-to-sentence / temperature
    word_scores: Tensor          # (K, N, T) cosine-to-token / temperature, over
                                 #           the content-token slots of
                                 #           ``stack_texts``; entries at its
                                 #           padding are not scores
    sentence_weight: Tensor      # (K, 1)    balance in (0, 1)
    referring_scores: Tensor     # (K, N)    fused ranking scores


# the model's variants: the full model and its five ablations
VARIANTS = ("full", "sentence-only", "word-only", "no-projection", "no-constraint",
            "no-interp-iou")


def check_variant(name, what: str) -> str:
    """``name`` if it is one of ``VARIANTS``; else a one-line ValueError
    that names ``what`` and lists the variants."""
    if name not in VARIANTS:
        raise ValueError(f"{what} must be one of {', '.join(VARIANTS)}, not {name!r}")
    return name


class HrsParams:
    """All learnable state of the scoring head.

    The encoders put proposals and text in one shared space, so when
    ``d_v == d_t`` the text projection starts as a copy of the visual
    projection: the projected cosine then starts out ranking the way the
    raw cosine does, instead of through two unrelated random maps. The
    two stay separate arrays and are trained separately.

    ``ablation``, one of ``VARIANTS``, names the variant the head is
    trained as. It is the only record of the variant: the forward pass,
    the losses and the optimiser read it from here, and the checkpoint
    saves it.
    """

    def __init__(self, d_v: int, d_t: int, d: int = 64, heads: int = 4,
                 d_ff: int = 128, d_hidden: int = 32, seed: int = 0,
                 ablation: str = "full"):
        if d % heads != 0:
            raise ValueError(f"model dim {d} not divisible by {heads} heads")
        self.ablation = ablation
        self.d_v, self.d_t, self.d = d_v, d_t, d
        self.heads, self.d_ff, self.d_hidden = heads, d_ff, d_hidden
        rng = np.random.default_rng(seed)

        def linear(fan_in, *shape):
            bound = 1.0 / np.sqrt(fan_in)
            return gk.tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)

        self.visual_proj = linear(d_v, d_v, d)
        if d_t == d_v:
            self.text_proj = gk.tensor(self.visual_proj.value.copy(), requires_grad=True)
        else:
            self.text_proj = linear(d_t, d_t, d)
        self.attn_q = linear(d, d, d)
        self.attn_k = linear(d, d, d)
        self.attn_v = linear(d, d, d)
        self.attn_out = linear(d, d, d)
        self.ffn_w1 = linear(d, d, d_ff)
        self.ffn_b1 = linear(d, d_ff)
        self.ffn_w2 = linear(d_ff, d_ff, d)
        self.ffn_b2 = linear(d_ff, d)
        self.fusion_w1 = linear(d, d, d_hidden)
        self.fusion_b1 = linear(d, d_hidden)
        self.fusion_w2 = linear(d_hidden, d_hidden, 1)
        self.fusion_b2 = linear(d_hidden, 1)
        # the temperature starts at 0.07, stored on log scale so it stays positive
        self.log_temperature = gk.tensor(np.log(0.07), requires_grad=True)

    _TENSOR_NAMES = (
        "visual_proj", "text_proj", "attn_q", "attn_k", "attn_v", "attn_out",
        "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2",
        "fusion_w1", "fusion_b1", "fusion_w2", "fusion_b2", "log_temperature",
    )

    def leaves(self) -> list[tuple[str, Tensor]]:
        return [(name, getattr(self, name)) for name in self._TENSOR_NAMES]

    def trainable(self) -> list[Tensor]:
        """Tensors the optimizer may update; the model's no-projection
        ablation freezes both projections at their initialisation, which
        for ``d_v == d_t`` is one shared random map."""
        skip = {"visual_proj", "text_proj"} if self.ablation == "no-projection" else set()
        return [t for name, t in self.leaves() if name not in skip]

    def frozen(self) -> "HrsParams":
        """The same model with constant tensors sharing these values,
        for inference. With no tensor that requires grad,
        ``score_expression`` runs ``fuse`` on plain arrays, with its
        intermediates updated in place, and ``referring_score`` on
        constants: no graph is recorded. Neither writes to the shared
        values."""
        frozen = copy.copy(self)
        for name, t in self.leaves():
            setattr(frozen, name, gk.constant(t.value))
        return frozen

    @property
    def temperature(self) -> float:
        return float(np.exp(self.log_temperature.value))

    def save(self, path: str | Path, seed: int | None = None) -> None:
        payload = {
            "format": PARAMS_FORMAT,
            "version": PARAMS_VERSION,
            "seed": seed,
            "dims": {"d_v": self.d_v, "d_t": self.d_t, "d": self.d,
                     "heads": self.heads, "d_ff": self.d_ff, "d_hidden": self.d_hidden},
            "ablation": self.ablation,
            "tensors": gk.dump_leaves(self.leaves()),
        }
        Path(path).write_text(json.dumps(payload))

    # the stored tensor each pair of dims shapes: with each tensor's
    # values bounded by its payload, these bound every array __init__ makes
    _DIM_SHAPES = {"visual_proj": ("d_v", "d"), "text_proj": ("d_t", "d"),
                   "attn_q": ("d", "d"), "ffn_w1": ("d", "d_ff"),
                   "fusion_w1": ("d", "d_hidden")}

    @classmethod
    def load(cls, path: str | Path) -> "HrsParams":
        payload = gk.read_checkpoint(path, PARAMS_FORMAT, PARAMS_VERSION, "checkpoint")
        dims, tensors = payload.get("dims"), payload.get("tensors")
        try:
            dims = {key: dims[key] for key in ("d_v", "d_t", "d", "heads", "d_ff", "d_hidden")}
        except (KeyError, TypeError):
            raise ValueError(f"checkpoint {path} lacks its model dims") from None
        # the dims size arrays before load_leaves checks any tensor
        for key, value in dims.items():
            if type(value) is not int or value < 1:
                raise ValueError(f"model dim {key} = {value!r} in checkpoint {path} "
                                 "is not a positive int")
        for name, keys in cls._DIM_SHAPES.items():
            shape = [dims[key] for key in keys]
            try:
                spec = tensors[name]
                fits = spec["shape"] == shape and math.prod(shape) <= len(spec["float64_le"])
            except (KeyError, TypeError):
                fits = False
            if not fits:
                raise ValueError(f"tensor {name!r} in checkpoint {path} does not hold "
                                 f"the ({', '.join(keys)}) = {shape} its model dims give")
        params = cls(**dims, ablation=check_variant(payload.get("ablation"),
                                                    f"the ablation of checkpoint {path}"))
        gk.load_leaves(params.leaves(), payload.get("tensors"), f"checkpoint {path}")
        return params


def stack_texts(texts: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Pack K texts, each the (V, d_t) rows of its content words, in
    order and to the left, into one (K, T, d_t) token block and its
    (K, T) validity mask, T being the longest text. Padding positions
    are zero and invalid. A text with no row raises ``EmptyTextError``;
    both forward passes run this check, before they split."""
    if not texts:
        raise ValueError("need at least one text to score")
    counts = np.array([len(text) for text in texts])
    if not counts.all():
        raise EmptyTextError("a text has no content word")
    embeddings = np.zeros((len(texts), counts.max(), texts[0].shape[1]))
    for k, text in enumerate(texts):
        embeddings[k, :len(text)] = text
    return embeddings, np.arange(counts.max()) < counts[:, None]


def fuse(features: np.ndarray, tokens: Tensor, valid_mask: np.ndarray,
         params: HrsParams) -> Tensor:
    """Let the N proposals, rows of ``features`` (N, d_v), attend to the
    tokens of each of K texts; residual plus feed-forward on top.
    Returns (K, N, d).

    ``tokens`` are the projected tokens (K, T, d) and ``valid_mask``
    (K, T) marks the real ones. The proposals are projected once for all
    K texts, and each attention product covers every text and head in
    one node. Padding positions receive a large negative attention
    bias, so their values cannot reach the fused features.
    """
    n_texts, width = valid_mask.shape
    d, heads = params.d, params.heads
    dh = d // heads
    p = gk.matmul(gk.constant(features), params.visual_proj)               # (N, d)
    q = gk.permute(gk.reshape(gk.matmul(p, params.attn_q), (-1, heads, dh)),
                   (1, 0, 2))                                               # (H, N, dh)
    k = gk.permute(gk.reshape(gk.matmul(tokens, params.attn_k),
                              (n_texts, width, heads, dh)), (0, 2, 3, 1))   # (K, H, dh, T)
    v = gk.permute(gk.reshape(gk.matmul(tokens, params.attn_v),
                              (n_texts, width, heads, dh)), (0, 2, 1, 3))   # (K, H, T, dh)
    bias = np.where(valid_mask, 0.0, -1e9)[:, None, None, :]               # (K, 1, 1, T)
    scores = gk.add(gk.mul(gk.matmul(q, k), 1.0 / np.sqrt(dh)), gk.constant(bias))
    heads_out = gk.matmul(gk.softmax(scores, axis=-1), v)                  # (K, H, N, dh)
    message = gk.matmul(gk.reshape(gk.permute(heads_out, (0, 2, 1, 3)), (n_texts, -1, d)),
                        params.attn_out)                                    # (K, N, d)

    fused = gk.add(p, message)
    hidden = gk.relu(gk.add(gk.matmul(fused, params.ffn_w1), params.ffn_b1))
    return gk.add(fused, gk.add(gk.matmul(hidden, params.ffn_w2), params.ffn_b2))


def _unit_rows(x: Tensor, null_ok: np.ndarray | None = None) -> Tensor:
    """``x`` scaled to unit norm along its last axis. Rows flagged in
    ``null_ok`` get 1 added to their squared norm, so masked rows that
    may be null vectors pass; any other null row raises DomainError."""
    squared = gk.reduce_sum(gk.mul(x, x), axis=-1, keepdims=True)
    if null_ok is not None:
        squared = gk.add(squared, gk.constant(null_ok.astype(np.float64)))
    return gk.div(x, gk.sqrt(squared))


def referring_score(fused: Tensor, tokens: Tensor, valid_mask: np.ndarray,
                    params: HrsParams) -> RelevanceOutput:
    """Temperature-scaled sentence and word similarities for K texts,
    fused into one (K, N) ranking score by each text's learned sentence
    weight, which the model's sentence-only and word-only variants fix
    at 1 and 0.

    A text's sentence feature is the max-pool of its valid projected
    tokens. Word scores keep the block's token width; entries at padding
    positions are not similarities and never enter the rowwise max.
    """
    n_texts, n_props = fused.shape[:2]
    sentence = gk.masked_max_pool(tokens, valid_mask[:, :, None], axis=1)  # (K, d)
    tau = gk.exp(params.log_temperature)

    unit_fused = _unit_rows(fused)                                          # (K, N, d)
    unit_sentence = gk.reshape(_unit_rows(sentence), (n_texts, -1, 1))      # (K, d, 1)
    sentence_scores = gk.div(gk.reshape(gk.matmul(unit_fused, unit_sentence),
                                        (n_texts, n_props)), tau)           # (K, N)
    unit_tokens = _unit_rows(tokens, null_ok=~valid_mask[:, :, None])       # (K, T, d)
    word_scores = gk.div(gk.matmul(unit_fused, gk.permute(unit_tokens, (0, 2, 1))),
                         tau)                                               # (K, N, T)
    word_max = gk.masked_max_pool(word_scores, valid_mask[:, None, :], axis=2)  # (K, N)

    hidden = gk.relu(gk.add(gk.matmul(sentence, params.fusion_w1), params.fusion_b1))
    weight = gk.sigmoid(gk.add(gk.matmul(hidden, params.fusion_w2),
                               params.fusion_b2))                          # (K, 1)
    if params.ablation == "sentence-only":
        weight = gk.constant(np.ones((n_texts, 1)))
    elif params.ablation == "word-only":
        weight = gk.constant(np.zeros((n_texts, 1)))
    referring = gk.add(gk.mul(weight, sentence_scores),
                       gk.mul(gk.sub(1.0, weight), word_max))
    return RelevanceOutput(sentence_scores=sentence_scores, word_scores=word_scores,
                           sentence_weight=weight, referring_scores=referring)


def score_expression(features: np.ndarray, texts: Sequence[np.ndarray],
                     params: HrsParams) -> RelevanceOutput:
    """The full forward pass of one scene: every text in ``texts``
    against all its proposals, the rows of ``features`` (N, d_v), in one
    batch, as the variant that ``params.ablation`` names. Each text is
    the (V, d_t) array of its content words' rows. The text
    projection is computed once and shared by the attention and the
    scores.

    A model with no tensor that requires grad (``HrsParams.frozen``)
    runs ``fuse`` as ``_plain_fuse``, on plain arrays, and gets the same
    bits; any other model runs it on the graph. Both then score through
    ``referring_score``."""
    embeddings, valid_mask = stack_texts(texts)
    tokens = gk.matmul(gk.constant(embeddings), params.text_proj)          # (K, T, d)
    if any(t.requires_grad for _, t in params.leaves()):
        fused = fuse(features, tokens, valid_mask, params)
    else:
        fused = gk.constant(_plain_fuse(features, tokens.value, valid_mask, params))
    return referring_score(fused, tokens, valid_mask, params)


def _plain_fuse(features: np.ndarray, tokens: np.ndarray, valid_mask: np.ndarray,
                params: HrsParams) -> np.ndarray:
    """``fuse`` on plain arrays, bit for bit as the graph gives it, for
    a frozen model.

    Each step is the graph's numpy operation on the same operands, in
    the same order; a step whose input is not needed again runs in
    place (the bias adds, relu, the softmax steps, the residual), and
    the short-axis reductions go through gradkit's ``_reduce``. Only
    this block is worth the copy: its (K, H, N, T) attention and
    (K, N, d_ff) feed-forward blocks are the largest arrays of the pass.
    Measured on a 2-vCPU host with one BLAS thread, a frozen model's
    ``score_expression`` over a 39-scene sparse and a 32-scene dense
    test split (minimum of 25 loops per process) took 51-55 and 74-78
    ms with this block, against 68-70 and 105-134 ms with ``fuse`` on
    constant tensors. ``referring_score`` on constants, instead of on
    plain arrays, moved the same loops from 55-59 to 51-53 ms (sparse)
    and from 74-76 to 78-80 ms (dense), so it is not copied.
    """
    w = {name: t.value for name, t in params.leaves()}
    n_texts, width = valid_mask.shape
    d, heads = params.d, params.heads
    dh = d // heads
    p = features @ w["visual_proj"]                                         # (N, d)
    q = (p @ w["attn_q"]).reshape(-1, heads, dh).transpose(1, 0, 2)         # (H, N, dh)
    k = (tokens @ w["attn_k"]).reshape(n_texts, width, heads, dh).transpose(0, 2, 3, 1)
    v = (tokens @ w["attn_v"]).reshape(n_texts, width, heads, dh).transpose(0, 2, 1, 3)
    attention = q @ k                                                       # (K, H, N, T)
    attention *= 1.0 / np.sqrt(dh)
    attention += np.where(valid_mask, 0.0, -1e9)[:, None, None, :]
    attention -= _reduce(np.maximum, attention, -1)
    np.exp(attention, out=attention)
    attention /= _reduce(np.add, attention, -1)
    fused = ((attention @ v).transpose(0, 2, 1, 3).reshape(n_texts, -1, d)
             @ w["attn_out"])                                               # (K, N, d)
    fused += p
    hidden = fused @ w["ffn_w1"]
    hidden += w["ffn_b1"]
    np.maximum(hidden, 0.0, out=hidden)
    out = hidden @ w["ffn_w2"]
    out += w["ffn_b2"]
    out += fused
    return out


def level0_logits(referring_scores: Tensor) -> Tensor:
    """Image-level class logits from a scene's (K, N) referring scores
    whose first rows score ``LEVEL0_SENTENCES``: each row is max-pooled
    over proposals. Their softmax is the class distribution;
    ``loss_lvl0`` takes its cross-entropy, and predict needs only the
    argmax. Fewer rows than sentences raise ``gk.ShapeError``."""
    return gk.max_over_axis(gk.narrow(referring_scores, 0, 0, len(LEVEL0_SENTENCES)), axis=1)


# the name under which perfbench/spans.py times level 0; the tracer
# patches every binding of the function, so both names are traced
level0_distribution = level0_logits


class SceneScores(NamedTuple):
    """The readouts of one scene's pass; all but ``batch`` are cut from it."""

    batch: Tensor           # (K, N)  every text's referring scores
    level0: Tensor          # (C,)    level-0 class logits, one per LEVEL0_SENTENCES row
    expressions: Tensor     # (E, N)  the expressions' rows, in their order
    background: Tensor      # (1, N)  the no-vegetation row, each proposal's backgroundness


def score_scene(features: np.ndarray, expression_texts: Sequence[str], params: HrsParams,
                encode: Callable[[str], np.ndarray]) -> SceneScores:
    """One ``score_expression`` pass over a scene's batch of texts, each
    read through ``encode``: ``LEVEL0_SENTENCES``, then ``expression_texts``
    in order. Only here are readouts cut from the batch; ``background``,
    the empty image's class row, ranks the proposals of an absent referent."""
    texts = [encode(text) for text in (*LEVEL0_SENTENCES, *expression_texts)]
    batch = score_expression(features, texts, params).referring_scores
    return SceneScores(batch, level0_logits(batch),
                       gk.narrow(batch, 0, len(LEVEL0_SENTENCES), len(expression_texts)),
                       gk.narrow(batch, 0, LEVEL0_CLASS["empty"], 1))


def loss_lvl0(level0_logits: Tensor, true_class: int) -> Tensor:
    """Cross-entropy of the image-level class distribution."""
    return gk.cross_entropy(level0_logits, true_class)


def loss_lvl1(referring_scores: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy over proposals, the last axis: (N,)
    scores give one loss, a (k, N) block one per expression. An
    all-negative target row is the normal case for absence expressions."""
    targets = np.asarray(targets, dtype=np.float64)
    return gk.bce_with_logits(referring_scores, targets, axis=-1)


def loss_constrained(l1: Tensor, l0: Tensor) -> Tensor:
    """Instance loss floored by the image-level loss: learning to rank
    instances cannot outpace learning whether they exist at all. The
    gradient flows only into the active branch. ``l1`` may hold one loss
    per expression; each is floored by the scalar ``l0``."""
    return gk.maximum(l1, l0)


def loss_hmce(l0: Tensor, l1c: Tensor, image_type: str) -> Tensor:
    """Sum of the two levels weighted by the scene's image type; empty
    images train existence only."""
    lam0, lam1 = HMCE_WEIGHTS[image_type]
    weighted = gk.mul(l0, lam0)
    if lam1 == 0.0:
        return weighted
    return gk.add(weighted, gk.mul(l1c, lam1))


def loss_total(hmce: Tensor, interp_iou: Tensor | float) -> Tensor:
    """Final objective: semantic alignment plus box regression."""
    if isinstance(interp_iou, (int, float)) and float(interp_iou) == 0.0:
        return hmce
    return gk.add(hmce, interp_iou)

