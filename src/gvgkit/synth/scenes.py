"""Random field-scene generator feeding the annotation pipeline.

Produces scenes with non-overlapping pixel boxes under configurable
image-type, density and size distributions, pipes them through instance
filtering and attribute derivation, splits them per type, duplicates a
few instances across training scenes for extra diversity, and attaches
expressions (positives, image-level absence sentences and verified
instance-level negative expressions, each split's from its own random
stream).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from gvgkit import datagen
from gvgkit.datagen import (
    CROP_CATEGORIES,
    DENSITY_BUCKETS,
    DENSITY_LABELS,
    IMAGE_TYPES,
    SIZE_BINS,
    WEED_CATEGORY,
    Expression,
    InstanceAnnotation,
    SceneAnnotation,
    attribute_words,
    density_label,
    filter_instances,
    gen_image_negatives,
    gen_instance_negatives,
    gen_positive_expressions,
    stratified_split,
)
from gvgkit.synth.config import SynthConfig

# sqrt-area fractions per size bin used when drawing boxes; kept inside
# datagen.SIZE_THRESHOLDS' bins so derived attributes match the draw
_SIZE_RANGES = {
    "tiny": (0.016, 0.048),
    "small": (0.052, 0.115),
    "medium": (0.125, 0.28),
    "large": (0.305, 0.42),
}


@dataclass
class SplitData:
    name: str
    scenes: list[SceneAnnotation]
    expressions: list[Expression] = field(default_factory=list)


@dataclass
class SyntheticDataset:
    splits: dict[str, SplitData]
    meta: dict


def _draw_side_px(bin_name: str, image_size: int, rng) -> tuple[int, int]:
    lo, hi = _SIZE_RANGES[bin_name]
    r = rng.uniform(lo, hi)
    aspect = rng.uniform(0.75, 1.33)
    w = r * np.sqrt(aspect) * image_size
    h = r / np.sqrt(aspect) * image_size
    return max(int(round(w)), 17), max(int(round(h)), 17)


def _place_box(w: int, h: int, occupied: list[tuple[int, int, int, int]],
               image_size: int, rng) -> tuple[int, int, int, int] | None:
    for _ in range(120):
        x1 = int(rng.integers(0, image_size - w))
        y1 = int(rng.integers(0, image_size - h))
        box = (x1, y1, x1 + w, y1 + h)
        if all(box[2] <= o[0] or o[2] <= box[0] or box[3] <= o[1] or o[3] <= box[1]
               for o in occupied):
            return box
    return None


def _scene_categories(image_type: str, rng) -> list[str]:
    crops = list(rng.choice(len(CROP_CATEGORIES), size=int(rng.integers(1, 4)),
                            replace=False))
    crop_names = [CROP_CATEGORIES[i] for i in sorted(crops)]
    if image_type == "crop_only":
        return crop_names
    if image_type == "weed_only":
        return [WEED_CATEGORY]
    return crop_names + [WEED_CATEGORY]


def _generate_raw_scene(image_id: str, image_type: str, cfg: SynthConfig,
                        rng) -> SceneAnnotation:
    scene = SceneAnnotation(image_id=image_id, width=cfg.image_size,
                            height=cfg.image_size)
    if image_type == "empty":
        return scene

    _, lo, hi = DENSITY_BUCKETS[int(rng.choice(len(DENSITY_BUCKETS), p=cfg.density_probs))]
    hi = cfg.max_instances if hi is None else hi
    target = int(rng.integers(lo, hi + 1))
    categories = _scene_categories(image_type, rng)

    occupied: list[tuple[int, int, int, int]] = []
    instances: list[InstanceAnnotation] = []
    placed = 0
    size_names = list(_SIZE_RANGES)
    while placed < target:
        bin_name = size_names[int(rng.choice(4, p=cfg.size_probs))]
        box = None
        # fall back to smaller bins when the scene gets crowded
        for attempt_bin in size_names[size_names.index(bin_name)::-1]:
            w, h = _draw_side_px(attempt_bin, cfg.image_size, rng)
            box = _place_box(w, h, occupied, cfg.image_size, rng)
            if box is not None:
                break
        if box is None:
            warnings.warn(f"{image_id}: could only place {placed} of {target} "
                          "instances; density downgraded")
            break
        if image_type == "mixed" and placed == 0:
            category = categories[0]           # guarantee one crop
        elif image_type == "mixed" and placed == 1:
            category = WEED_CATEGORY           # and one weed
        else:
            category = categories[int(rng.integers(len(categories)))]
        occupied.append(box)
        instances.append(InstanceAnnotation(
            instance_id=len(instances), category=category,
            x1=box[0], y1=box[1], x2=box[2], y2=box[3]))
        placed += 1

    # occasionally add an instance below the identifiability limit, which
    # the filtering stage must remove
    if rng.random() < cfg.sub_min_rate:
        side = int(rng.integers(8, 15))
        box = _place_box(side, side, occupied, cfg.image_size, rng)
        if box is not None:
            instances.append(InstanceAnnotation(
                instance_id=len(instances), category=categories[0],
                x1=box[0], y1=box[1], x2=box[2], y2=box[3]))

    scene.instances = instances
    return scene


def _copy_paste(train_scenes: list[SceneAnnotation], cfg: SynthConfig, rng) -> int:
    """Duplicate instances between training scenes (boxes and attributes
    re-derived at the new position); returns the number of clones."""
    donors = [s for s in train_scenes if s.instances]
    if len(donors) < 2:
        return 0
    clones = 0
    for scene in train_scenes:
        if scene.image_type == "empty" or rng.random() >= cfg.copy_paste_rate:
            continue
        donor = donors[int(rng.integers(len(donors)))]
        if donor.image_id == scene.image_id or not donor.instances:
            continue
        src = donor.instances[int(rng.integers(len(donor.instances)))]
        w, h = int(src.x2 - src.x1), int(src.y2 - src.y1)
        occupied = [(int(i.x1), int(i.y1), int(i.x2), int(i.y2))
                    for i in scene.instances]
        box = _place_box(w, h, occupied, cfg.image_size, rng)
        if box is None:
            continue
        clone = InstanceAnnotation(
            instance_id=max(i.instance_id for i in scene.instances) + 1,
            category=src.category, x1=box[0], y1=box[1], x2=box[2], y2=box[3])
        scene.instances.append(clone)
        clone.size_bin, clone.grid_cell = attribute_words(
            np.array([box], dtype=np.float64), scene.width, scene.height)[0]
        clones += 1
    return clones


def gen_scenes(cfg: SynthConfig) -> SyntheticDataset:
    """Full dataset build: raw scenes, filtering, split, copy-paste on
    the training split, and expressions. Each split draws its instance
    negatives from a stream of its own, test's from ``cfg.seed``, so the
    test split is the same with or without the others'."""
    rng = np.random.default_rng(cfg.seed)
    scenes = []
    for k in range(cfg.n_scenes):
        image_type = IMAGE_TYPES[int(rng.choice(len(IMAGE_TYPES), p=cfg.type_mix))]
        raw = _generate_raw_scene(f"scene-{k:04d}", image_type, cfg, rng)
        scenes.append(filter_instances(raw))

    train, val, test = stratified_split(scenes, cfg.split_ratios, seed=cfg.seed)
    clones = _copy_paste(train, cfg, np.random.default_rng([cfg.seed, 0xC0]))

    expressions, negative_meta = {}, {}
    for name, group, seed in (("train", train, [cfg.seed, 1]), ("val", val, [cfg.seed, 2]),
                              ("test", test, cfg.seed)):
        expressions[name] = []
        for scene in group:
            expressions[name].extend(gen_positive_expressions(scene))
            expressions[name].extend(gen_image_negatives(scene))
        negatives, negative_meta[name] = gen_instance_negatives(group, seed)
        expressions[name].extend(negatives)
    splits = {name: SplitData(name=name, scenes=group, expressions=expressions[name])
              for name, group in (("train", train), ("val", val), ("test", test))}

    split_types = {name: [scene.image_type for scene in s.scenes] for name, s in splits.items()}
    meta = {
        "seed": cfg.seed,
        "config_hash": cfg.config_hash(),
        "copy_paste_clones": clones,
        "negatives": negative_meta["test"],
        "scene_counts": {name: len(s.scenes) for name, s in splits.items()},
        "type_counts": {name: {t: types.count(t) for t in IMAGE_TYPES}
                        for name, types in split_types.items()},
    }
    return SyntheticDataset(splits=splits, meta=meta)


def dataset_stats(split: SplitData) -> dict:
    """Scale and density histograms for the build summary."""
    scale_hist = dict.fromkeys(SIZE_BINS, 0)
    density_hist = dict.fromkeys(DENSITY_LABELS, 0)
    for scene in split.scenes:
        for inst in scene.instances:
            scale_hist[inst.size_bin] += 1
        if scene.instances:
            density_hist[density_label(len(scene.instances))] += 1
    return {
        "scenes": len(split.scenes),
        "expressions": len(split.expressions),
        "instances": sum(len(s.instances) for s in split.scenes),
        "scale_histogram": scale_hist,
        "density_histogram": density_hist,
    }


def write_split(split: SplitData, path, meta: dict) -> None:
    datagen.write_dataset(split.scenes, split.expressions, path,
                          meta={**meta, "split": split.name})
