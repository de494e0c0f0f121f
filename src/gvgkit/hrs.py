"""Hierarchical relevance scoring for generalised grounding.

Scoring runs at two levels. Level 0 decides the global semantic state of
an image by classifying over a small fixed vocabulary of image-level
sentences (each scored by max-pooling per-proposal scores). Level 1
ranks candidate regions for a given expression by fusing sentence-level
and word-level similarities with a learned balance weight.

Both levels come from one batched pass per scene: ``score_expression``
packs the vocabulary sentences and the scene's expressions into one
(K, T) token batch and scores all K texts against the N proposals at
once. The block holds content tokens only: each text's valid tokens
sit to the left, and T is the largest content count, so filler words
never reach the pass. The proposals are projected once; the K texts
share one token projection, one masked multi-head cross-attention, one
feed-forward block and one cosine step, which yield a (K, N)
referring-score matrix.
``level0_logits`` pools the vocabulary rows of that matrix into the
level-0 class logits, and each expression reads its own row. The pass
runs on gradkit tensors so the training losses get exact reverse-mode
gradients; prediction code just reads ``.value``.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from gvgkit import gradkit as gk
from gvgkit.geometry import BBox
from gvgkit.gradkit import Tensor

PARAMS_FORMAT = "gvgkit-params"
PARAMS_VERSION = 3

# (lambda_level0, lambda_level1) per coarse image type
HMCE_WEIGHTS = {
    "mixed": (1.0, 2.5),
    "single": (1.0, 2.0),
    "empty": (1.0, 0.0),
}


class EmptyTextError(ValueError):
    pass


@dataclass
class TextFeatures:
    """Raw token embeddings with a validity mask.

    ``sentence_feature`` is derived: the per-channel maximum over valid
    tokens, the pooling the scoring head mirrors in its shared space.
    """

    token_embeddings: np.ndarray
    valid_mask: np.ndarray
    sentence_feature: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.token_embeddings = np.asarray(self.token_embeddings, dtype=np.float64)
        self.valid_mask = np.asarray(self.valid_mask, dtype=bool)
        if self.token_embeddings.ndim != 2:
            raise ValueError("token embeddings must be (tokens, dim)")
        if self.valid_mask.shape != (self.token_embeddings.shape[0],):
            raise ValueError("valid mask must have one flag per token")
        if not self.valid_mask.any():
            raise EmptyTextError("expression has no valid tokens")
        self.sentence_feature = self.token_embeddings[self.valid_mask].max(axis=0)


@dataclass
class ProposalFeatures:
    """Candidate regions: one feature row and one box per proposal."""

    features: np.ndarray
    boxes: list[BBox]

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("proposal features must be a non-empty (N, d) matrix")
        if len(self.boxes) != self.features.shape[0]:
            raise ValueError("feature rows and boxes must align")


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


@dataclass(frozen=True)
class Level0Vocabulary:
    """Fixed image-level sentences, one per global image state.

    Mixed scenes carry no true negation sentence, so they map to the
    dedicated [EMPTY] entry.
    """

    sentences: tuple[str, ...] = (
        "there is no crop in the image",
        "there is no weed in the image",
        "there is no vegetation in the image",
        "[EMPTY]",
    )
    class_by_image_type: dict = field(default_factory=lambda: {
        "crop_only": 1,   # crops present, weeds absent
        "weed_only": 0,
        "empty": 2,
        "mixed": 3,
    })

    def __post_init__(self) -> None:
        if len(self.sentences) < 2:
            raise ValueError("vocabulary needs at least two sentences")
        if sum(1 for s in self.sentences if s == "[EMPTY]") != 1:
            raise ValueError("vocabulary must contain exactly one [EMPTY] entry")
        for image_type, idx in self.class_by_image_type.items():
            if not 0 <= idx < len(self.sentences):
                raise ValueError(f"class index {idx} for {image_type} out of range")

    @property
    def empty_index(self) -> int:
        return self.sentences.index("[EMPTY]")

    def true_class(self, image_type: str) -> int:
        if image_type not in self.class_by_image_type:
            raise ValueError(f"unknown image type {image_type!r}")
        return self.class_by_image_type[image_type]


@dataclass(frozen=True)
class AblationFlags:
    sentence_only: bool = False
    word_only: bool = False
    no_projection: bool = False
    no_constraint: bool = False
    no_interp_iou: bool = False

    def __post_init__(self) -> None:
        if self.sentence_only and self.word_only:
            raise ValueError("sentence_only and word_only are mutually exclusive")


class HrsParams:
    """All learnable state of the scoring head.

    The encoders put proposals and text in one shared space, so when
    ``d_v == d_t`` the text projection starts as a copy of the visual
    projection: the projected cosine then starts out ranking the way the
    raw cosine does, instead of through two unrelated random maps. The
    two stay separate arrays and are trained separately.

    ``ablation`` names the variant the head is trained as. It shapes the
    forward pass, so the checkpoint records it.
    """

    def __init__(self, d_v: int, d_t: int, d: int = 64, heads: int = 4,
                 d_ff: int = 128, d_hidden: int = 32, seed: int = 0,
                 temperature_init: float = 0.07,
                 ablation: AblationFlags = AblationFlags()):
        if d % heads != 0:
            raise ValueError(f"model dim {d} not divisible by {heads} heads")
        if temperature_init <= 0:
            raise ValueError("temperature must be positive")
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
        # stored on log scale so the temperature stays positive
        self.log_temperature = gk.tensor(np.log(temperature_init), requires_grad=True)

    _TENSOR_NAMES = (
        "visual_proj", "text_proj", "attn_q", "attn_k", "attn_v", "attn_out",
        "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2",
        "fusion_w1", "fusion_b1", "fusion_w2", "fusion_b2", "log_temperature",
    )

    def leaves(self) -> list[tuple[str, Tensor]]:
        return [(name, getattr(self, name)) for name in self._TENSOR_NAMES]

    def trainable(self, ablation: AblationFlags = AblationFlags()) -> list[Tensor]:
        """Tensors the optimizer may update; the no-projection ablation
        freezes both projections at their initialisation, which for
        ``d_v == d_t`` is one shared random map."""
        skip = {"visual_proj", "text_proj"} if ablation.no_projection else set()
        return [t for name, t in self.leaves() if name not in skip]

    def frozen(self) -> "HrsParams":
        """The same model with constant tensors sharing these values.
        Passes over it record no graph, so each intermediate is freed as
        soon as the pass moves on: for inference, where a batched pass
        would otherwise keep all of them alive."""
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
            "ablation": asdict(self.ablation),
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
        params = cls(**dims)
        try:
            params.ablation = AblationFlags(**payload["ablation"])
        except (KeyError, TypeError):
            raise ValueError(f"checkpoint {path} lacks its ablation flags") from None
        gk.load_leaves(params.leaves(), payload.get("tensors"), f"checkpoint {path}")
        return params


def stack_texts(texts: Sequence[TextFeatures]) -> tuple[np.ndarray, np.ndarray]:
    """Pack the valid tokens of K texts, in order and to the left, into
    one (K, T, d_t) token block and its (K, T) validity mask, T being
    the largest content count. Padding positions are zero and invalid.
    Invalid tokens add exact zeros to every score, so leaving them out
    changes only the order of the sums."""
    if not texts:
        raise ValueError("need at least one text to score")
    content = [text.token_embeddings[text.valid_mask] for text in texts]
    counts = np.array([len(tokens) for tokens in content])
    embeddings = np.zeros((len(texts), counts.max(), texts[0].token_embeddings.shape[1]))
    for k, tokens in enumerate(content):
        embeddings[k, :len(tokens)] = tokens
    return embeddings, np.arange(counts.max()) < counts[:, None]


def fuse(proposals: ProposalFeatures, tokens: Tensor, valid_mask: np.ndarray,
         params: HrsParams) -> Tensor:
    """Let the proposals attend to the tokens of each of K texts; residual
    plus feed-forward on top. Returns (K, N, d).

    ``tokens`` are the projected tokens (K, T, d) and ``valid_mask``
    (K, T) marks the real ones. The proposals are projected once for all
    K texts, and each attention product covers every text and head in
    one node. Invalid tokens (fillers and padding) receive a large
    negative attention bias, so their values cannot reach the fused
    features.
    """
    if not valid_mask.any(axis=1).all():
        raise EmptyTextError("expression has no valid tokens")
    n_texts, width = valid_mask.shape
    d, heads = params.d, params.heads
    dh = d // heads
    p = gk.matmul(gk.constant(proposals.features), params.visual_proj)      # (N, d)
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
                    params: HrsParams,
                    ablation: AblationFlags = AblationFlags()) -> RelevanceOutput:
    """Temperature-scaled sentence and word similarities for K texts,
    fused into one (K, N) ranking score by each text's learned sentence
    weight.

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
    if ablation.sentence_only:
        weight = gk.constant(np.ones((n_texts, 1)))
    elif ablation.word_only:
        weight = gk.constant(np.zeros((n_texts, 1)))
    referring = gk.add(gk.mul(weight, sentence_scores),
                       gk.mul(gk.sub(1.0, weight), word_max))
    return RelevanceOutput(sentence_scores=sentence_scores, word_scores=word_scores,
                           sentence_weight=weight, referring_scores=referring)


def score_expression(proposals: ProposalFeatures, texts: Sequence[TextFeatures],
                     params: HrsParams,
                     ablation: AblationFlags = AblationFlags()) -> RelevanceOutput:
    """The full forward pass of one scene: every text in ``texts``
    against all its proposals, in one batch. The text projection is
    computed once and shared by the attention and the scores."""
    embeddings, valid_mask = stack_texts(texts)
    tokens = gk.matmul(gk.constant(embeddings), params.text_proj)          # (K, T, d)
    fused = fuse(proposals, tokens, valid_mask, params)
    return referring_score(fused, tokens, valid_mask, params, ablation)


def level0_logits(referring_scores: Tensor, vocab_size: int) -> Tensor:
    """Image-level class logits from a scene's (K, N) referring scores
    whose first ``vocab_size`` rows score the vocabulary sentences: each
    row is max-pooled over proposals. Their softmax is the class
    distribution; ``loss_lvl0`` takes its cross-entropy, and predict
    needs only the argmax."""
    if vocab_size < 2:
        raise ValueError("level-0 needs at least two vocabulary sentences")
    return gk.max_over_axis(gk.narrow(referring_scores, 0, 0, vocab_size), axis=1)


# the name under which perfbench/spans.py times level 0; the tracer
# patches every binding of the function, so both names are traced
level0_distribution = level0_logits


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
    """Type-weighted sum of the two levels; empty images train existence
    only."""
    if image_type not in HMCE_WEIGHTS:
        raise ValueError(f"unknown image type {image_type!r}; "
                         f"expected one of {sorted(HMCE_WEIGHTS)}")
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


def coarse_image_type(image_type: str) -> str:
    """Collapse scene types to the loss-weight classes."""
    if image_type in ("crop_only", "weed_only"):
        return "single"
    if image_type in ("mixed", "empty"):
        return image_type
    raise ValueError(f"unknown image type {image_type!r}")
