"""Brute-force reference implementations of the grounding metrics.

Deliberately independent of the package under test: plain corner-tuple
arithmetic and naive loops, taking unsorted proposal lists and sorting
by score internally. Used only to cross-check the real metric suite.
"""


def ref_iou(a, b):
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    inter = iw * ih if iw > 0 and ih > 0 else 0.0
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union if union > 0 else 0.0


def ref_giou(a, b):
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    inter = iw * ih if iw > 0 and ih > 0 else 0.0
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if union <= 0:
        return 0.0
    ew = max(ax2, bx2) - min(ax1, bx1)
    eh = max(ay2, by2) - min(ay1, by1)
    enclosing = ew * eh
    if enclosing <= 0:
        return inter / union
    return inter / union - (enclosing - union) / enclosing


def _ranked(case):
    pairs = list(zip(case["proposals"], case["scores"]))
    pairs.sort(key=lambda p: -p[1])
    return [box for box, _ in pairs]


def ref_topk(cases, k):
    """cases: positive expressions as dicts with unsorted 'proposals',
    'scores' and 'targets' (corner boxes)."""
    if not cases:
        return 0.0
    hits = 0
    for case in cases:
        ranked = _ranked(case)[:k]
        hit = False
        for box in ranked:
            for target in case["targets"]:
                if ref_iou(box, target) >= 0.5:
                    hit = True
        if hit:
            hits += 1
    return 100.0 * hits / len(cases)


def ref_recall_at_05(cases):
    covered = 0
    total = 0
    for case in cases:
        for target in case["targets"]:
            total += 1
            ok = False
            for box in case["proposals"]:
                if ref_iou(box, target) >= 0.5:
                    ok = True
            if ok:
                covered += 1
    return 100.0 * covered / total if total else 0.0


def ref_mean_iou(cases):
    if not cases:
        return 0.0
    acc = 0.0
    for case in cases:
        ranked = _ranked(case)
        if not ranked:
            continue
        best = 0.0
        for target in case["targets"]:
            value = ref_iou(ranked[0], target)
            if value > best:
                best = value
        acc += best
    return 100.0 * acc / len(cases)


def ref_neg_acc(cases, boundary_tol=1e-12):
    """cases: negative expressions as dicts with unsorted 'proposals',
    'scores' and 'scene_boxes' (all annotated instances). The top-ranked
    box is judged; the GIoU <= 0 boundary is inclusive up to float
    noise."""
    if not cases:
        return 0.0
    correct = 0
    for case in cases:
        if not case["scene_boxes"]:
            correct += 1
            continue
        ranked = _ranked(case)
        if not ranked:
            continue
        ok = True
        for gt in case["scene_boxes"]:
            if ref_giou(ranked[0], gt) > boundary_tol:
                ok = False
        if ok:
            correct += 1
    return 100.0 * correct / len(cases)
