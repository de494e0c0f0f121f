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
from gvgkit.hrs import AblationFlags, RelevanceOutput
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
    return gk.matmul(gk.div(a, a_norm), gk.transpose(gk.div(b, b_norm)))


def stack(scalars):
    """Stack 0-d tensors into a vector."""
    if any(s.value.ndim != 0 for s in scalars):
        raise gk.ShapeError("stack expects 0-d tensors")
    return gk.concat([gk.reshape(s, (1,)) for s in scalars], axis=0)


def fuse(proposals, text, params):
    """Proposal queries attend to one text's tokens; residual plus
    feed-forward on top. Invalid tokens get a large negative bias."""
    p = gk.matmul(gk.constant(proposals.features), params.visual_proj)       # (N, d)
    t = gk.matmul(gk.constant(text.token_embeddings), params.text_proj)     # (T, d)

    d, heads = params.d, params.heads
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    q_all = gk.matmul(p, params.attn_q)
    k_all = gk.matmul(t, params.attn_k)
    v_all = gk.matmul(t, params.attn_v)
    bias = np.where(text.valid_mask, 0.0, -1e9)[None, :]                    # (1, T)

    head_outputs = []
    for h in range(heads):
        q = gk.narrow(q_all, 1, h * dh, dh)
        k = gk.narrow(k_all, 1, h * dh, dh)
        v = gk.narrow(v_all, 1, h * dh, dh)
        scores = gk.add(gk.mul(gk.matmul(q, gk.transpose(k)), scale), gk.constant(bias))
        attn = gk.softmax(scores, axis=-1)
        head_outputs.append(gk.matmul(attn, v))
    message = gk.matmul(gk.concat(head_outputs, axis=1), params.attn_out)

    fused = gk.add(p, message)
    hidden = gk.relu(gk.add(gk.matmul(fused, params.ffn_w1), params.ffn_b1))
    return gk.add(fused, gk.add(gk.matmul(hidden, params.ffn_w2), params.ffn_b2))


def referring_score(fused, text, params, ablation=AblationFlags()):
    """Sentence and word cosines over temperature for one text, fused by
    its learned sentence weight; word scores are zero at invalid tokens."""
    t = gk.matmul(gk.constant(text.token_embeddings), params.text_proj)     # (T, d)
    sentence = gk.masked_max_pool(t, text.valid_mask, axis=0)               # (d,)
    tau = gk.exp(params.log_temperature)

    sentence_scores = gk.div(cosine_similarity(fused, sentence), tau)       # (N,)
    valid_idx = np.flatnonzero(text.valid_mask)
    select = np.zeros((len(valid_idx), len(text.valid_mask)))
    select[np.arange(len(valid_idx)), valid_idx] = 1.0
    t_valid = gk.matmul(gk.constant(select), t)                             # (V, d)
    word_valid = gk.div(cosine_matrix(fused, t_valid), tau)                 # (N, V)
    word_max = gk.max_over_axis(word_valid, axis=1)                         # (N,)
    word_scores = gk.matmul(word_valid, gk.constant(select))                # (N, T)

    hidden = gk.relu(gk.add(gk.matmul(sentence, params.fusion_w1), params.fusion_b1))
    logit = gk.add(gk.matmul(hidden, params.fusion_w2), params.fusion_b2)
    weight = gk.sigmoid(gk.reduce_sum(logit))

    if ablation.sentence_only:
        weight = gk.constant(1.0)
    elif ablation.word_only:
        weight = gk.constant(0.0)
    referring = gk.add(gk.mul(weight, sentence_scores),
                       gk.mul(gk.sub(1.0, weight), word_max))
    return RelevanceOutput(sentence_scores=sentence_scores, word_scores=word_scores,
                           sentence_weight=weight, referring_scores=referring)


def score_expression(proposals, text, params, ablation=AblationFlags()):
    return referring_score(fuse(proposals, text, params), text, params, ablation)


def level0_logits(proposals, vocab_texts, params, ablation=AblationFlags()):
    """One fused pass per vocabulary sentence, max-pooled over proposals."""
    pooled = []
    for text in vocab_texts:
        out = score_expression(proposals, text, params, ablation)
        pooled.append(gk.max_over_axis(out.referring_scores, axis=0))
    return stack(pooled)


def scene_loss(item, params, vocab, vocab_texts, table, tcfg, rng, max_tokens):
    """Stage-2 objective of one scene, every text scored on its own."""
    l0 = hrs.loss_lvl0(level0_logits(item.proposals, vocab_texts, params, tcfg.ablation),
                       vocab.true_class(item.scene.image_type))
    exprs = _pick_expressions(item, tcfg.expressions_per_scene, rng)
    if not exprs:
        l1c = gk.constant(0.0)
    else:
        pieces = []
        for expr in exprs:
            text = encode_text(expr.text, table, max_tokens)
            out = score_expression(item.proposals, text, params, tcfg.ablation)
            targets = np.isin(item.source_ids,
                              np.asarray(expr.target_ids, dtype=np.int64))
            l1 = hrs.loss_lvl1(out.referring_scores, targets.astype(float))
            pieces.append(l1 if tcfg.ablation.no_constraint
                          else hrs.loss_constrained(l1, l0))
        l1c = gk.mul(pieces[0], 1.0 / len(pieces))
        for extra in pieces[1:]:
            l1c = gk.add(l1c, gk.mul(extra, 1.0 / len(pieces)))
    return hrs.loss_hmce(l0, l1c, hrs.coarse_image_type(item.scene.image_type))


def predict_scene(proposals, expressions, vocab, vocab_texts, table, params,
                  ablation, max_tokens, gate_level0=True):
    """Level-0 class and, per expression, the proposal order, the scores
    and whether the existence gate fell back to a separate background
    pass."""
    logits = level0_logits(proposals, vocab_texts, params, ablation)
    background = vocab.class_by_image_type["empty"]
    background_scores = score_expression(proposals, vocab_texts[background], params,
                                         ablation).referring_scores.value
    ranked = []
    for expr in expressions:
        text = encode_text(expr.text, table, max_tokens)
        scores = score_expression(proposals, text, params, ablation).referring_scores.value
        fell_back = gate_level0 and expr.level == "instance" and float(np.max(scores)) < 0.0
        if fell_back:
            scores = background_scores
        order = np.argsort(-scores, kind="stable")
        ranked.append((order, scores[order], fell_back))
    return int(np.argmax(logits.value)), ranked
