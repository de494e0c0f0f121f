"""Per-text reference forward of the hierarchical scoring head.

One full projection + cross-attention + scoring pass per text, built
from the 2-D gradkit primitives: the straightforward form of the model
that the batched scene pass in ``gvgkit.hrs`` must reproduce. Also
holds the per-text stage-2 scene loss and prediction ranking built on
it, and the vector ops only this per-text form needs. Used only to
cross-check the package.
"""

import numpy as np

from gvgkit import gradkit as gk
from gvgkit import hrs
from gvgkit.hrs import LEVEL0_CLASS, LEVEL0_SENTENCES, RelevanceOutput
from gvgkit.synth.encode import encode_text
from gvgkit.synth.train import _pick_expressions


def cosine_similarity(rows, vec):
    """Cosine similarity of each row of ``rows`` (N, d) with ``vec`` (d,)."""
    if rows.value.ndim != 2 or vec.value.ndim != 1:
        raise gk.ShapeError("cosine_similarity expects a matrix and a vector")
    if np.any(np.linalg.norm(rows.value, axis=1) == 0.0) or np.linalg.norm(vec.value) == 0.0:
        raise gk.DomainError("cosine similarity of a zero-norm vector")
    row_norms = gk.sqrt(gk.reduce_sum(gk.mul(rows, rows), axis=1))
    vec_norm = gk.sqrt(gk.reduce_sum(gk.mul(vec, vec)))
    dots = gk.matmul(rows, vec)
    return gk.div(dots, gk.mul(row_norms, vec_norm))


def cosine_matrix(a, b):
    """Pairwise cosine similarities between rows of a (N, d) and b (M, d)."""
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise gk.ShapeError("cosine_matrix expects two matrices")
    if (np.any(np.linalg.norm(a.value, axis=1) == 0.0)
            or np.any(np.linalg.norm(b.value, axis=1) == 0.0)):
        raise gk.DomainError("cosine similarity of a zero-norm vector")
    a_norm = gk.sqrt(gk.reduce_sum(gk.mul(a, a), axis=1, keepdims=True))
    b_norm = gk.sqrt(gk.reduce_sum(gk.mul(b, b), axis=1, keepdims=True))
    return gk.matmul(gk.div(a, a_norm), gk.permute(gk.div(b, b_norm), (1, 0)))


def stack(scalars):
    """Stack 0-d tensors into a vector."""
    if any(s.value.ndim != 0 for s in scalars):
        raise gk.ShapeError("stack expects 0-d tensors")
    return gk.concat([gk.reshape(s, (1,)) for s in scalars], axis=0)


def fuse(features, text, params):
    """Proposal queries, the rows of ``features``, attend to the rows of
    one text (V, d_t); residual plus feed-forward on top."""
    p = gk.matmul(gk.constant(features), params.visual_proj)                # (N, d)
    t = gk.matmul(gk.constant(text), params.text_proj)                      # (V, d)

    d, heads = params.d, params.heads
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    q_all = gk.matmul(p, params.attn_q)
    k_all = gk.matmul(t, params.attn_k)
    v_all = gk.matmul(t, params.attn_v)

    head_outputs = []
    for h in range(heads):
        q = gk.narrow(q_all, 1, h * dh, dh)
        k = gk.narrow(k_all, 1, h * dh, dh)
        v = gk.narrow(v_all, 1, h * dh, dh)
        scores = gk.mul(gk.matmul(q, gk.permute(k, (1, 0))), scale)
        attn = gk.softmax(scores, axis=-1)
        head_outputs.append(gk.matmul(attn, v))
    message = gk.matmul(gk.concat(head_outputs, axis=1), params.attn_out)

    fused = gk.add(p, message)
    hidden = gk.relu(gk.add(gk.matmul(fused, params.ffn_w1), params.ffn_b1))
    return gk.add(fused, gk.add(gk.matmul(hidden, params.ffn_w2), params.ffn_b2))


def referring_score(fused, text, params, ablation="full"):
    """Sentence and word cosines over temperature for one text, fused by
    its learned sentence weight; word scores are (N, V)."""
    t = gk.matmul(gk.constant(text), params.text_proj)                      # (V, d)
    sentence = gk.max_over_axis(t, axis=0)                                  # (d,)
    tau = gk.exp(params.log_temperature)

    sentence_scores = gk.div(cosine_similarity(fused, sentence), tau)       # (N,)
    word_scores = gk.div(cosine_matrix(fused, t), tau)                      # (N, V)
    word_max = gk.max_over_axis(word_scores, axis=1)                        # (N,)

    hidden = gk.relu(gk.add(gk.matmul(sentence, params.fusion_w1), params.fusion_b1))
    logit = gk.add(gk.matmul(hidden, params.fusion_w2), params.fusion_b2)
    weight = gk.sigmoid(gk.reduce_sum(logit))

    if ablation == "sentence-only":
        weight = gk.constant(1.0)
    elif ablation == "word-only":
        weight = gk.constant(0.0)
    referring = gk.add(gk.mul(weight, sentence_scores),
                       gk.mul(gk.sub(1.0, weight), word_max))
    return RelevanceOutput(sentence_scores=sentence_scores, word_scores=word_scores,
                           sentence_weight=weight, referring_scores=referring)


def score_expression(features, text, params, ablation="full"):
    return referring_score(fuse(features, text, params), text, params, ablation)


def level0_texts(table, max_tokens):
    """The level-0 sentences, each encoded on its own."""
    return [encode_text(sentence, table, max_tokens) for sentence in LEVEL0_SENTENCES]


def level0_logits(features, vocab_texts, params, ablation="full"):
    """One fused pass per vocabulary sentence, max-pooled over proposals."""
    pooled = []
    for text in vocab_texts:
        out = score_expression(features, text, params, ablation)
        pooled.append(gk.max_over_axis(out.referring_scores, axis=0))
    return stack(pooled)


def scene_loss(item, params, table, tcfg, rng, max_tokens):
    """Stage-2 objective of one scene and its terms by name, every text
    scored on its own, as the variant ``params`` carries."""
    ablation = params.ablation
    vocab_texts = level0_texts(table, max_tokens)
    l0 = hrs.loss_lvl0(level0_logits(item.features, vocab_texts, params, ablation),
                       LEVEL0_CLASS[item.scene.image_type])
    exprs = _pick_expressions(item, tcfg.expressions_per_scene, rng)
    if not exprs:
        l1c = gk.constant(0.0)
    else:
        pieces = []
        for expr in exprs:
            text = encode_text(expr.text, table, max_tokens)
            out = score_expression(item.features, text, params, ablation)
            targets = np.isin(item.source_ids,
                              np.asarray(expr.target_ids, dtype=np.int64))
            l1 = hrs.loss_lvl1(out.referring_scores, targets.astype(float))
            pieces.append(l1 if ablation == "no-constraint"
                          else hrs.loss_constrained(l1, l0))
        l1c = gk.mul(pieces[0], 1.0 / len(pieces))
        for extra in pieces[1:]:
            l1c = gk.add(l1c, gk.mul(extra, 1.0 / len(pieces)))
    return hrs.loss_hmce(l0, l1c, item.scene.image_type), {"loss_lvl0": l0, "loss_lvl1c": l1c}


def predict_scene(features, expressions, table, params, ablation, max_tokens,
                  gate_level0=True):
    """Level-0 class and, per expression, the proposal order, the scores
    and whether the existence gate fell back to a separate background
    pass."""
    vocab_texts = level0_texts(table, max_tokens)
    logits = level0_logits(features, vocab_texts, params, ablation)
    background = LEVEL0_CLASS["empty"]
    background_scores = score_expression(features, vocab_texts[background], params,
                                         ablation).referring_scores.value
    ranked = []
    for expr in expressions:
        text = encode_text(expr.text, table, max_tokens)
        scores = score_expression(features, text, params, ablation).referring_scores.value
        fell_back = gate_level0 and expr.level == "instance" and float(np.max(scores)) < 0.0
        if fell_back:
            scores = background_scores
        order = np.argsort(-scores, kind="stable")
        ranked.append((order, scores[order], fell_back))
    return int(np.argmax(logits.value)), ranked
