"""Annotation pipeline for the synthetic crop/weed grounding benchmark.

Scenes hold pixel-space instance boxes. The pipeline filters instances
too small to identify, derives each instance's words (size bin, 3x3
grid cell) from its box (``attribute_words``), renders one template
referring expression per group of instances with the same words
(``SceneAnnotation.referents``) and the whole group as its targets,
adds image-level absence sentences, manufactures verified negative
expressions whose words name no instance, and writes everything to a
JSON-lines file that round-trips exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from gvgkit.geometry import centres
from gvgkit.gradkit.io import check_unique, read_records, write_records

FORMAT_NAME = "gref-cw-like"
FORMAT_VERSION = 1

CATEGORIES = ("maize", "sugar beet", "bean", "pea", "sunflower", "soy",
              "potato", "pumpkin", "weed")
CROP_CATEGORIES = CATEGORIES[:-1]
WEED_CATEGORY = "weed"

SIZE_BINS = ("tiny", "small", "medium", "large")
# boundaries on sqrt(box area / image area); value on a boundary bins upward
SIZE_THRESHOLDS = (0.05, 0.12, 0.30)

GRID_ROWS = ("top", "middle", "bottom")
GRID_COLS = ("left", "centre", "right")
GRID_CELLS = tuple(
    "centre" if (r, c) == ("middle", "centre") else f"{r} {c}"
    for r in GRID_ROWS for c in GRID_COLS
)

IMAGE_TYPES = ("crop_only", "weed_only", "mixed", "empty")
NEGATIVE_KINDS = ("replace_category", "swap_size", "swap_position")
# the share of a split's candidate triples that each kind manipulates
NEGATIVE_FRACTION_PER_KIND = 1 / 3

# scene density buckets: label and instance-count range, the last open-ended
DENSITY_BUCKETS = (("1-10", 1, 10), ("11-20", 11, 20), ("21-30", 21, 30), (">30", 31, None))
DENSITY_LABELS = tuple(label for label, _, _ in DENSITY_BUCKETS)

MIN_INSTANCE_AREA_PX = 256  # anything smaller is unidentifiable by eye

IMAGE_NEGATIVE_TEXT = {
    "crop_only": "there is no weed in the image",
    "weed_only": "there is no crop in the image",
    "empty": "there is no vegetation in the image",
}


def attribute_words(corners: np.ndarray, width, height) -> list[tuple[str, str]]:
    """The (size bin, grid cell) of each of the (n, 4) pixel corner rows
    (x1, y1, x2, y2) of boxes in an image of ``width`` x ``height``
    pixels (numbers, or one per row). The size bin compares
    sqrt(box area / image area), from the pixel sides, with
    ``SIZE_THRESHOLDS``, and a value on a boundary bins upward. The grid
    cell compares the centre of the box's fractions of the image with
    1/3 and 2/3, and a value on a boundary falls into the lower cell."""
    x1, y1, x2, y2 = corners.T
    r = np.sqrt((x2 - x1) * (y2 - y1) / (width * height))
    sizes = np.searchsorted(SIZE_THRESHOLDS, r, side="right")
    cx, cy = centres(corners / np.stack([width, height, width, height], axis=-1))[:, :2].T
    row, col = np.searchsorted((1 / 3, 2 / 3), (cy, cx), side="left")
    return [(SIZE_BINS[size], GRID_CELLS[cell])
            for size, cell in zip(sizes.tolist(), (3 * row + col).tolist())]


def density_label(n_instances: int) -> str:
    """The density bucket of a scene with ``n_instances`` instances: the
    first whose highest count it does not exceed."""
    return next(label for label, _, hi in DENSITY_BUCKETS
                if hi is None or n_instances <= hi)


@dataclass
class InstanceAnnotation:
    """A single labelled plant: pixel box plus derived attributes."""

    instance_id: int
    category: str
    x1: float
    y1: float
    x2: float
    y2: float
    size_bin: str = ""
    grid_cell: str = ""

    @property
    def pixel_area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    @property
    def triple(self) -> tuple[str, str, str]:
        return (self.category, self.size_bin, self.grid_cell)


def classify_image_type(instances: list[InstanceAnnotation]) -> str:
    has_crop = any(i.category != WEED_CATEGORY for i in instances)
    has_weed = any(i.category == WEED_CATEGORY for i in instances)
    if has_crop and has_weed:
        return "mixed"
    if has_crop:
        return "crop_only"
    if has_weed:
        return "weed_only"
    return "empty"


@dataclass
class SceneAnnotation:
    image_id: str
    width: int
    height: int
    instances: list[InstanceAnnotation] = field(default_factory=list)

    @property
    def image_type(self) -> str:
        return classify_image_type(self.instances)

    def fractions(self, px: np.ndarray) -> np.ndarray:
        """Pixel rows of (x1, y1, x2, y2) as fractions of the image size."""
        return px / (self.width, self.height, self.width, self.height)

    def pixel_rows(self) -> np.ndarray:
        """(n, 4) pixel corner rows of the instance boxes."""
        return np.array([(i.x1, i.y1, i.x2, i.y2) for i in self.instances],
                        dtype=np.float64).reshape(-1, 4)

    def corner_rows(self) -> np.ndarray:
        """(n, 4) corner rows of the instance boxes as fractions of the
        image size."""
        return self.fractions(self.pixel_rows())

    def normalized_rows(self) -> np.ndarray:
        """(n, 4) centre-form rows of ``corner_rows``: the rows
        matching and proposal encoding read."""
        return centres(self.corner_rows())

    def referents(self) -> dict[tuple[str, str, str], list[int]]:
        """The ids of the instances with each (category, size bin, grid
        cell) triple of words, the triples in order of first instance."""
        groups: dict[tuple[str, str, str], list[int]] = {}
        for inst in self.instances:
            groups.setdefault(inst.triple, []).append(inst.instance_id)
        return groups


@dataclass
class Attributes:
    category: str
    size_bin: str | None = None
    grid_cell: str | None = None


@dataclass
class Expression:
    expression_id: str
    image_id: str
    text: str
    level: str                      # image | instance
    polarity: str                   # positive | negative
    negative_kind: str              # none | replace_category | swap_size | swap_position
    attributes: Attributes
    target_ids: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.polarity == "negative" and self.target_ids:
            raise ValueError("negative expressions cannot have targets")
        if self.polarity == "positive" and self.level == "instance" and not self.target_ids:
            raise ValueError("positive instance expressions need at least one target")


def instance_template(size: str, category: str, cell: str) -> str:
    return f"the {size} {category} at the {cell} of the image"


def filter_instances(raw: SceneAnnotation) -> SceneAnnotation:
    """Drop instances below the identifiability area and derive the words
    of the rest from their boxes."""
    scene = SceneAnnotation(image_id=raw.image_id, width=raw.width, height=raw.height,
                            instances=[inst for inst in raw.instances
                                       if inst.pixel_area >= MIN_INSTANCE_AREA_PX])
    words = attribute_words(scene.pixel_rows(), scene.width, scene.height)
    scene.instances = [replace(inst, size_bin=size, grid_cell=cell)
                       for inst, (size, cell) in zip(scene.instances, words)]
    return scene


def gen_positive_expressions(scene: SceneAnnotation) -> list[Expression]:
    """One expression per distinct attribute triple in the scene; its
    targets are every instance with the triple (multi-positive)."""
    return [Expression(
        expression_id=f"{scene.image_id}-pos-{k}",
        image_id=scene.image_id,
        text=instance_template(size, category, cell),
        level="instance",
        polarity="positive",
        negative_kind="none",
        attributes=Attributes(category=category, size_bin=size, grid_cell=cell),
        target_ids=ids,
    ) for k, ((category, size, cell), ids) in enumerate(scene.referents().items())]


def gen_image_negatives(scene: SceneAnnotation) -> list[Expression]:
    """Image-level absence sentence for single-type and empty scenes;
    mixed scenes have nothing truthfully absent to state."""
    image_type = scene.image_type
    if image_type == "mixed":
        return []
    subject = {"crop_only": "weed", "weed_only": "crop", "empty": "vegetation"}
    return [Expression(
        expression_id=f"{scene.image_id}-imgneg-0",
        image_id=scene.image_id,
        text=IMAGE_NEGATIVE_TEXT[image_type],
        level="image",
        polarity="negative",
        negative_kind="none",
        attributes=Attributes(category=subject[image_type]),
        target_ids=[],
    )]


def _valid_alternatives(referents: dict, triple: tuple[str, str, str],
                        kind: str) -> list[tuple[str, str, str]]:
    category, size, cell = triple
    if kind == "replace_category":
        pool = [(c, size, cell) for c in CATEGORIES if c != category]
    elif kind == "swap_size":
        pool = [(category, s, cell) for s in SIZE_BINS if s != size]
    else:   # swap_position, the last of NEGATIVE_KINDS
        pool = [(category, size, g) for g in GRID_CELLS if g != cell]
    return [t for t in pool if t not in referents]


def gen_instance_negatives(scenes: list[SceneAnnotation], seed) -> tuple[list[Expression], dict]:
    """Manufacture instance-level negatives for the given scenes, drawn
    from the random stream of ``seed`` (anything ``np.random.default_rng``
    takes).

    Candidates are the attribute triples of the scenes' positive
    instance expressions. For each manipulation kind, a random third of
    the candidates is sampled; each sampled candidate gets one attribute
    changed to a value that names no group of the scene's
    ``referents``. Candidates admitting no valid change are skipped and
    replaced by the next sampled one; if the pool runs dry the shortfall
    is reported in the metadata rather than raised.
    """
    rng = np.random.default_rng(seed)
    candidates: list[tuple[SceneAnnotation, dict, tuple[str, str, str]]] = []
    for scene in scenes:
        referents = scene.referents()
        candidates.extend((scene, referents, triple) for triple in referents)

    per_kind_target = int(round(len(candidates) * NEGATIVE_FRACTION_PER_KIND))
    negatives: list[Expression] = []
    meta = {"candidates": len(candidates), "per_kind_target": per_kind_target,
            "per_kind_actual": {}, "shortfall": {}}
    for kind in NEGATIVE_KINDS:
        order = rng.permutation(len(candidates))
        produced = 0
        for idx in order:
            if produced >= per_kind_target:
                break
            scene, referents, triple = candidates[idx]
            options = _valid_alternatives(referents, triple, kind)
            if not options:
                continue
            category, size, cell = options[rng.integers(len(options))]
            negatives.append(Expression(
                expression_id=f"{scene.image_id}-neg-{kind}-{produced}",
                image_id=scene.image_id,
                text=instance_template(size, category, cell),
                level="instance",
                polarity="negative",
                negative_kind=kind,
                attributes=Attributes(category=category, size_bin=size, grid_cell=cell),
                target_ids=[],
            ))
            produced += 1
        meta["per_kind_actual"][kind] = produced
        meta["shortfall"][kind] = per_kind_target - produced
    negatives.sort(key=lambda e: (e.image_id, e.expression_id))
    return negatives, meta


def stratified_split(scenes: list[SceneAnnotation], ratios: tuple[float, float, float],
                     seed: int) -> tuple[list[SceneAnnotation], ...]:
    """Per-image-type proportional split with largest-remainder rounding,
    so each type deviates from the ratios by at most one scene. The
    ratios sum to 1, as ``SynthConfig`` checks."""
    rng = np.random.default_rng(seed)
    splits: tuple[list[SceneAnnotation], ...] = ([], [], [])
    by_type: dict[str, list[SceneAnnotation]] = {t: [] for t in IMAGE_TYPES}
    for scene in scenes:
        by_type[scene.image_type].append(scene)
    for group in by_type.values():
        if not group:
            continue
        order = rng.permutation(len(group))
        group = [group[i] for i in order]
        n = len(group)
        exact = [n * r for r in ratios]
        counts = [int(math.floor(e)) for e in exact]
        remainder = n - sum(counts)
        by_frac = sorted(range(3), key=lambda k: (-(exact[k] - counts[k]), k))
        for k in by_frac[:remainder]:
            counts[k] += 1
        offset = 0
        for k in range(3):
            splits[k].extend(group[offset:offset + counts[k]])
            offset += counts[k]
    for split in splits:
        split.sort(key=lambda s: s.image_id)
    return splits


# ---------------------------------------------------------------------------
# serialization


def _scene_record(scene: SceneAnnotation) -> dict:
    return {
        "record": "scene",
        "image_id": scene.image_id,
        "width": scene.width,
        "height": scene.height,
        "image_type": scene.image_type,
        "instances": [
            {
                "instance_id": i.instance_id,
                "category": i.category,
                "bbox_xyxy_px": [i.x1, i.y1, i.x2, i.y2],
                "size_bin": i.size_bin,
                "grid_cell": i.grid_cell,
            }
            for i in scene.instances
        ],
    }


def _expression_record(expr: Expression) -> dict:
    return {
        "record": "expression",
        "expression_id": expr.expression_id,
        "image_id": expr.image_id,
        "level": expr.level,
        "polarity": expr.polarity,
        "negative_kind": expr.negative_kind,
        "text": expr.text,
        "attributes": {
            "category": expr.attributes.category,
            "size_bin": expr.attributes.size_bin,
            "grid_cell": expr.attributes.grid_cell,
        },
        "target_ids": expr.target_ids,
    }


def write_dataset(scenes: list[SceneAnnotation], expressions: list[Expression],
                  path: str | Path, meta: dict | None = None) -> None:
    header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, **(meta or {})}
    write_records(path, header, itertools.chain(map(_scene_record, scenes),
                                                map(_expression_record, expressions)))


def read_dataset(path: str | Path
                 ) -> tuple[list[SceneAnnotation], list[Expression], dict]:
    """Parse a dataset file. Each of these raises a one-line ValueError
    naming the file and the line: a malformed line; a value this module
    never writes; an instance box that is empty, inverted or not inside
    its image; an image type its scene's instances do not make; a second
    scene or expression with one id, or a second instance with one id in
    a scene; an expression whose image no earlier scene record holds, or
    with a target id that names no instance of that image. After the
    whole file has passed these, two more raise in the same form: an
    instance whose stored size bin or grid cell its box does not make
    (``attribute_words``, once for the file), and an instance expression
    whose target ids are not, as a set, the instances its attributes
    name (``SceneAnnotation.referents``), none for a negative."""
    scenes: dict[str, SceneAnnotation] = {}
    instance_ids: dict[str, set[int]] = {}  # image id -> its instances' ids
    expressions: list[Expression] = []
    scene_lines: dict[str, int] = {}        # id -> its record's line
    expression_lines: dict[str, int] = {}

    def scene(record: dict, lineno: int) -> None:
        width, height = _numbers((record["width"], record["height"]), "width and height")
        if not (0 < width < math.inf and 0 < height < math.inf):
            raise ValueError(f"width and height must be positive and finite, "
                             f"not {[width, height]!r}")
        instances = []
        ids: set[int] = set()
        for spec in record["instances"]:
            _known(spec, "category", "size_bin", "grid_cell")
            instance_id = spec["instance_id"]
            if type(instance_id) is not int:
                raise ValueError(f"instance id must be an int, not {instance_id!r}")
            if instance_id in ids:
                raise ValueError(f"a second instance with id {instance_id}")
            ids.add(instance_id)
            box = spec["bbox_xyxy_px"]
            if type(box) is not list or len(box) != 4:
                raise ValueError(f"box coordinates must be a list of 4 numbers, not {box!r}")
            x1, y1, x2, y2 = _numbers(box, "box coordinates")
            if not (0 <= x1 < x2 <= width and 0 <= y1 < y2 <= height):
                raise ValueError(f"instance {instance_id} box {[x1, y1, x2, y2]!r} must have "
                                 f"0 <= x1 < x2 <= {width} and 0 <= y1 < y2 <= {height}")
            instances.append(InstanceAnnotation(
                instance_id=instance_id, category=spec["category"],
                x1=x1, y1=y1, x2=x2, y2=y2,
                size_bin=spec["size_bin"], grid_cell=spec["grid_cell"]))
        _known(record, "image_type")
        image_type = classify_image_type(instances)
        if record["image_type"] != image_type:
            raise ValueError(f"image_type {record['image_type']!r} does not match the "
                             f"instances, which make the scene {image_type!r}")
        check_unique(scene_lines, record["image_id"], lineno, "scene")
        instance_ids[record["image_id"]] = ids
        scenes[record["image_id"]] = SceneAnnotation(
            image_id=record["image_id"], width=width, height=height, instances=instances)

    def expression(record: dict, lineno: int) -> None:
        check_unique(expression_lines, record["expression_id"], lineno, "expression")
        if record["image_id"] not in scenes:
            raise ValueError(f"expression {record['expression_id']!r} is for image "
                             f"{record['image_id']!r}, which no earlier scene record holds")
        if type(record["text"]) is not str:
            raise ValueError(f"text must be a string, not {record['text']!r}")
        target_ids = record["target_ids"]
        if type(target_ids) is not list or any(type(i) is not int for i in target_ids):
            raise ValueError(f"target ids must be a list of ints, not {target_ids!r}")
        if not instance_ids[record["image_id"]].issuperset(target_ids):
            unknown = sorted(set(target_ids) - instance_ids[record["image_id"]])
            raise ValueError(f"target ids {unknown} name no instance of image "
                             f"{record['image_id']!r}")
        kind = (record["level"], record["polarity"], record["negative_kind"])
        if kind not in _EXPRESSION_KINDS:
            raise ValueError("unknown kind of expression: level {!r}, polarity {!r}, "
                             "negative_kind {!r}".format(*kind))
        attrs = record["attributes"]
        if type(attrs) is not dict:
            raise ValueError(f"attributes must be an object, not {attrs!r}")
        if attrs["category"] not in _EXPRESSION_CATEGORIES[record["level"]]:
            raise ValueError(f"unknown category {attrs['category']!r} for an expression "
                             f"of level {record['level']!r}")
        place = (attrs.get("size_bin"), attrs.get("grid_cell"))
        if place not in _ATTRIBUTE_PLACES:
            raise ValueError("unknown attributes: size_bin {!r}, grid_cell {!r}".format(*place))
        expressions.append(Expression(
            expression_id=record["expression_id"], image_id=record["image_id"],
            text=record["text"], level=record["level"], polarity=record["polarity"],
            negative_kind=record["negative_kind"],
            attributes=Attributes(category=attrs["category"],
                                  size_bin=attrs.get("size_bin"),
                                  grid_cell=attrs.get("grid_cell")),
            target_ids=target_ids))

    meta = read_records(path, FORMAT_NAME, FORMAT_VERSION, "dataset", "build",
                        {"scene": scene, "expression": expression})
    placed = [(s, inst) for s in scenes.values() for inst in s.instances]
    if placed:
        size = np.array([(s.width, s.height) for s, _ in placed], dtype=np.float64)
        # an image area past the float range overflows to inf or NaN here:
        # no numpy warning, the words compare as they come out
        with np.errstate(over="ignore", invalid="ignore"):
            words = attribute_words(np.concatenate([s.pixel_rows() for s in scenes.values()]),
                                    size[:, 0], size[:, 1])
        for (owner, inst), made in zip(placed, words):
            if (inst.size_bin, inst.grid_cell) != made:
                raise ValueError(f"{path}, line {scene_lines[owner.image_id]}: instance "
                                 f"{inst.instance_id} is {inst.size_bin!r} at "
                                 f"{inst.grid_cell!r}, but its box makes it {made[0]!r} at "
                                 f"{made[1]!r}")
    referents = {image_id: s.referents() for image_id, s in scenes.items()}
    for expr in expressions:
        if expr.level != "instance":
            continue
        attrs = expr.attributes
        named = referents[expr.image_id].get((attrs.category, attrs.size_bin, attrs.grid_cell), [])
        if set(expr.target_ids) != set(named):
            raise ValueError(f"{path}, line {expression_lines[expr.expression_id]}: target ids "
                             f"{sorted(set(expr.target_ids))} are not {named}, the instances "
                             f"of image {expr.image_id!r} that its attributes name")
    return list(scenes.values()), expressions, meta


# the values this module writes: by instance and scene record key; the
# (level, polarity, negative_kind) of an expression; the (size_bin,
# grid_cell) of its attributes, neither for an image-level expression;
# the category of its attributes, by level
_KNOWN = {
    "category": frozenset(CATEGORIES),
    "size_bin": frozenset(SIZE_BINS),
    "grid_cell": frozenset(GRID_CELLS),
    "image_type": frozenset(IMAGE_TYPES),
}
_EXPRESSION_KINDS = frozenset([("image", "negative", "none"), ("instance", "positive", "none")]
                              + [("instance", "negative", kind) for kind in NEGATIVE_KINDS])
_EXPRESSION_CATEGORIES = {"instance": frozenset(CATEGORIES),
                          "image": frozenset(("crop", "weed", "vegetation"))}
_ATTRIBUTE_PLACES = frozenset([(None, None)] + list(itertools.product(SIZE_BINS, GRID_CELLS)))
_NUMBER_TYPES = frozenset((int, float))
# the largest magnitude a number in a split may have: ``json`` reads an
# int of any size, and one past the float range fails in float arithmetic
_LARGEST = 1e300


def _known(record: dict, *keys: str) -> None:
    """Raise unless each ``record[key]`` is a value this module writes there."""
    for key in keys:
        if record[key] not in _KNOWN[key]:
            raise ValueError(f"unknown {key} {record[key]!r}")


def _numbers(values, what: str):
    """``values``, if each is a finite JSON number of magnitude at most
    ``_LARGEST`` (``json`` also reads NaN, Infinity and ints of any size)."""
    for value in values:
        if type(value) not in _NUMBER_TYPES:
            raise ValueError(f"{what} must be numbers, not {values!r}")
        if type(value) is float and not math.isfinite(value):
            raise ValueError(f"{what} must be finite, not {values!r}")
        if abs(value) > _LARGEST:
            raise ValueError(f"{what} must be at most 1e300 in magnitude, not {values!r}")
    return values
