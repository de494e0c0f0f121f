"""The encoder's box draws written with one ``rng.uniform`` call per
number. ``gvgkit.synth.encode`` draws ``rng.random(4)`` per box instead;
both must give the same boxes and leave the generator in the same state.
Used only to cross-check the package.
"""

import numpy as np

from gvgkit.geometry import BBox
from gvgkit.synth.config import SynthConfig


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
