import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvgkit.datagen import (
    CATEGORIES,
    GRID_CELLS,
    SIZE_BINS,
    SIZE_THRESHOLDS,
    Attributes,
    Expression,
    InstanceAnnotation,
    SceneAnnotation,
    attribute_words,
    filter_instances,
    gen_image_negatives,
    gen_instance_negatives,
    gen_positive_expressions,
    instance_template,
    read_dataset,
    stratified_split,
    write_dataset,
)
from gvgkit.synth.scenes import _SIZE_RANGES

from box_oracle import BBox


def oracle_grid_cell(box: BBox) -> str:
    """3x3 position name from the normalized box centre, one box at a
    time; boundary values at 1/3 and 2/3 fall into the lower cell."""
    def index(v: float) -> int:
        if v <= 1 / 3:
            return 0
        if v <= 2 / 3:
            return 1
        return 2

    row, col = index(box.cy), index(box.cx)
    if (row, col) == (1, 1):
        return "centre"
    return f"{('top', 'middle', 'bottom')[row]} {('left', 'centre', 'right')[col]}"


def oracle_size_bin(corners, image_w: float, image_h: float) -> str:
    """Scale class from sqrt of the box's share of the image area, taken
    from the pixel sides of its (x1, y1, x2, y2) corners, one box at a
    time, with the thresholds written out: 0.05, 0.12 and 0.30, a value
    on a boundary binning upward."""
    x1, y1, x2, y2 = corners
    r = math.sqrt((x2 - x1) * (y2 - y1) / (image_w * image_h))
    if r < 0.05:
        return "tiny"
    if r < 0.12:
        return "small"
    if r < 0.30:
        return "medium"
    return "large"


def oracle_words(corners, image_w: float, image_h: float) -> tuple[str, str]:
    """The scalar oracles' words for one box of pixel corners."""
    x1, y1, x2, y2 = corners
    box = BBox.from_corners(x1 / image_w, y1 / image_h, x2 / image_w, y2 / image_h)
    return oracle_size_bin(corners, image_w, image_h), oracle_grid_cell(box)


def words(corners, image_w: float, image_h: float) -> tuple[str, str]:
    """``attribute_words`` on the one box of pixel corners ``corners``."""
    return attribute_words(np.array([corners], dtype=np.float64), image_w, image_h)[0]


def scan_matching(scene: SceneAnnotation, triple) -> list[int]:
    """The ids of the scene's instances with ``triple``, by scan."""
    return [i.instance_id for i in scene.instances if i.triple == tuple(triple)]


def make_scene(image_id="img0", w=1000, h=1000, specs=()):
    """specs: (category, x1, y1, x2, y2) tuples in pixels."""
    raw = SceneAnnotation(image_id=image_id, width=w, height=h, instances=[
        InstanceAnnotation(instance_id=k, category=cat, x1=x1, y1=y1, x2=x2, y2=y2)
        for k, (cat, x1, y1, x2, y2) in enumerate(specs)
    ])
    return filter_instances(raw)


class TestFiltering:
    def test_area_rule(self):
        scene = make_scene(specs=[
            ("maize", 0, 0, 15, 20),    # 300 px^2: kept
            ("maize", 50, 50, 60, 60),  # 100 px^2: removed
        ])
        assert [i.instance_id for i in scene.instances] == [0]

    def test_all_removed_becomes_empty(self):
        scene = make_scene(specs=[("weed", 0, 0, 10, 10)])
        assert scene.instances == []
        assert scene.image_type == "empty"

    def test_image_type_classification(self):
        crop = make_scene(specs=[("maize", 0, 0, 100, 100)])
        weed = make_scene(specs=[("weed", 0, 0, 100, 100)])
        mixed = make_scene(specs=[("maize", 0, 0, 100, 100),
                                  ("weed", 200, 200, 300, 300)])
        assert crop.image_type == "crop_only"
        assert weed.image_type == "weed_only"
        assert mixed.image_type == "mixed"

    def test_the_type_follows_the_instances(self):
        # the type is read from the instances, so an appended weed makes
        # a crop scene mixed
        scene = SceneAnnotation(image_id="s", width=100, height=100,
                                instances=[InstanceAnnotation(0, "maize", 0, 0, 10, 10)])
        assert scene.image_type == "crop_only"
        scene.instances.append(InstanceAnnotation(1, "weed", 20, 20, 30, 30))
        assert scene.image_type == "mixed"
        assert SceneAnnotation(image_id="e", width=100, height=100).image_type == "empty"


class TestAttributes:
    def test_grid_cells(self):
        for corners, cell in [((75, 175, 125, 225), "top left"),
                              ((475, 475, 525, 525), "centre"),
                              # boundary value stays in the lower cell
                              ((1000 / 3 - 25, 475, 1000 / 3 + 25, 525), "middle left"),
                              ((875, 875, 925, 925), "bottom right")]:
            assert oracle_words(corners, 1000, 1000)[1] == cell
            assert words(corners, 1000, 1000)[1] == cell
        assert len(GRID_CELLS) == 9 and "centre" in GRID_CELLS

    def test_size_bins(self):
        # r exactly on a boundary bins upward
        for corners, size, image in [((0, 0, 16, 16), "tiny", 1445),
                                     ((0, 0, 1402, 1402), "large", 1445),
                                     ((440, 440, 560, 560), "medium", 1000)]:
            assert oracle_size_bin(corners, image, image) == size
            assert words(corners, image, image)[0] == size

    @pytest.mark.parametrize("side, size", [(64, "small"), (384, "large")])
    def test_a_square_on_a_boundary_has_one_size_wherever_it_stands(self, side, size):
        # r is exactly 0.05 or 0.30 in a 1280 px image, at every x position
        raw = SceneAnnotation("s", 1280, 1280, [
            InstanceAnnotation(x, "maize", x, 0, x + side, side) for x in range(1280 - side + 1)])
        assert {inst.size_bin for inst in filter_instances(raw).instances} == {size}
        assert oracle_size_bin((0, 0, side, side), 1280, 1280) == size

    @pytest.mark.parametrize("image", [(1000, 1000), (1280, 1280), (1445, 960)])
    def test_boundaries_match_the_scalar_formulas(self, image):
        # a centre at 1/3 or 2/3, and r at each threshold, at many pixel
        # positions
        w, h = image
        boxes = []
        for r in SIZE_THRESHOLDS:
            side_w, side_h = r * w, r * h
            boxes += [(c * w - side_w / 2, d * h - side_h / 2, c * w + side_w / 2,
                       d * h + side_h / 2) for c in (1 / 3, 2 / 3) for d in (1 / 3, 2 / 3)]
            boxes += [(x1, x1, x1 + side_w, x1 + side_h) for x1 in range(0, 40)]
            side = round(r * w)
            boxes.append((w / 3 - side / 2, 0, w / 3 + side / 2, side))
        assert attribute_words(np.array(boxes), w, h) == [oracle_words(b, w, h) for b in boxes]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4000), st.integers(1, 4000), st.data())
    def test_words_match_the_scalar_formulas(self, w, h, data):
        # pixel corners of any box inside the image, integer or not, as
        # the scene holds them; a row per box, one call for all of them
        corner = st.floats(0, 1, allow_nan=False)
        specs = data.draw(st.lists(st.tuples(corner, corner, corner, corner),
                                   min_size=1, max_size=8))
        instances = []
        for k, (a, b, c, d) in enumerate(specs):
            x1, x2 = sorted((a * w, c * w))
            y1, y2 = sorted((b * h, d * h))
            instances.append(InstanceAnnotation(k, "maize", x1, y1, x2, y2))
        scene = SceneAnnotation("s", w, h, instances)
        expected = [oracle_words((i.x1, i.y1, i.x2, i.y2), w, h) for i in instances]
        assert attribute_words(scene.pixel_rows(), w, h) == expected
        # one call for many images at once, as a split's reader makes it
        size = np.array([(w, h)] * len(instances), dtype=np.float64)
        assert attribute_words(scene.pixel_rows(), size[:, 0], size[:, 1]) == expected

    def test_drawn_size_ranges_lie_inside_their_bins(self):
        bounds = (0.0, *SIZE_THRESHOLDS, math.inf)
        assert tuple(_SIZE_RANGES) == SIZE_BINS
        for k, (lo, hi) in enumerate(_SIZE_RANGES.values()):
            assert bounds[k] <= lo < hi < bounds[k + 1]

    def test_derived_attributes_on_instances(self):
        scene = make_scene(specs=[("pea", 0, 0, 40, 40)])
        inst = scene.instances[0]
        assert inst.size_bin == "tiny"
        assert inst.grid_cell == "top left"


class TestExpressions:
    def test_template_text(self):
        scene = make_scene(specs=[("maize", 100, 100, 180, 180)])
        expr, = gen_positive_expressions(scene)
        assert expr.text == "the small maize at the top left of the image"
        assert expr.target_ids == [0]

    def test_template_wording_matches_attributes(self):
        assert instance_template("small", "maize", "top left") == \
            "the small maize at the top left of the image"

    def test_identical_attribute_instances_share_one_expression(self):
        scene = make_scene(specs=[
            ("weed", 100, 100, 180, 180),
            ("weed", 120, 130, 200, 210),
            ("maize", 700, 700, 780, 780),
        ])
        exprs = gen_positive_expressions(scene)
        assert len(exprs) == 2
        weed_expr = next(e for e in exprs if e.attributes.category == "weed")
        assert sorted(weed_expr.target_ids) == [0, 1]

    def test_expression_count_bounded_by_instances(self):
        rng = np.random.default_rng(0)
        specs = []
        for _ in range(12):
            x1, y1 = rng.integers(0, 900, 2)
            side = rng.integers(20, 90)
            specs.append((CATEGORIES[rng.integers(len(CATEGORIES))],
                          x1, y1, x1 + side, y1 + side))
        scene = make_scene(specs=specs)
        exprs = gen_positive_expressions(scene)
        assert len(exprs) <= len(scene.instances)
        for e in exprs:
            matching = scan_matching(scene, (e.attributes.category, e.attributes.size_bin,
                                             e.attributes.grid_cell))
            assert sorted(e.target_ids) == sorted(matching)
        assert {e.text for e in exprs} == {instance_template(i.size_bin, i.category, i.grid_cell)
                                           for i in scene.instances}

    def test_targets_invariant_on_positive(self):
        with pytest.raises(ValueError):
            Expression(expression_id="x", image_id="img0", text="t",
                       level="instance", polarity="positive", negative_kind="none",
                       attributes=Attributes("maize"), target_ids=[])


class TestImageNegatives:
    def test_type_mapping(self):
        crop = make_scene(specs=[("maize", 0, 0, 100, 100)])
        negs = gen_image_negatives(crop)
        assert len(negs) == 1
        assert negs[0].text == "there is no weed in the image"
        assert negs[0].level == "image"
        assert negs[0].target_ids == []

        weed = make_scene(specs=[("weed", 0, 0, 100, 100)])
        assert gen_image_negatives(weed)[0].text == "there is no crop in the image"

        empty = make_scene(specs=[])
        assert gen_image_negatives(empty)[0].text == "there is no vegetation in the image"

        mixed = make_scene(specs=[("maize", 0, 0, 100, 100),
                                  ("weed", 200, 200, 300, 300)])
        assert gen_image_negatives(mixed) == []


class TestNegatives:
    def _scenes(self, n=12, seed=0):
        rng = np.random.default_rng(seed)
        scenes = []
        for k in range(n):
            specs = []
            for _ in range(int(rng.integers(1, 6))):
                x1, y1 = rng.integers(0, 800, 2)
                side = int(rng.integers(25, 200))
                cat = CATEGORIES[rng.integers(len(CATEGORIES))]
                specs.append((cat, int(x1), int(y1), int(x1) + side, int(y1) + side))
            scenes.append(make_scene(image_id=f"img{k}", specs=specs))
        return scenes

    def test_negatives_never_match_instances(self):
        scenes = self._scenes()
        by_id = {s.image_id: s for s in scenes}
        negatives, meta = gen_instance_negatives(scenes, seed=1)
        assert negatives, "expected some negatives"
        for neg in negatives:
            scene = by_id[neg.image_id]
            matching = scan_matching(scene, (neg.attributes.category, neg.attributes.size_bin,
                                             neg.attributes.grid_cell))
            assert matching == []
            assert neg.target_ids == []
            assert neg.negative_kind in ("replace_category", "swap_size", "swap_position")

    def test_replacement_on_single_category_scene(self):
        # three triples, so each kind manipulates round(3 / 3) = 1 of them
        scene = make_scene(specs=[("maize", 100, 100, 180, 180), ("maize", 600, 100, 680, 180),
                                  ("maize", 100, 600, 180, 680)])
        negatives, meta = gen_instance_negatives([scene], seed=2)
        assert meta["per_kind_target"] == 1
        replace = [n for n in negatives if n.negative_kind == "replace_category"]
        assert replace and all(n.attributes.category != "maize" for n in replace)

    def test_counts_near_one_third(self):
        scenes = self._scenes(n=30, seed=3)
        negatives, meta = gen_instance_negatives(scenes, seed=4)
        for kind, actual in meta["per_kind_actual"].items():
            assert actual + meta["shortfall"][kind] == meta["per_kind_target"]

    def test_deterministic(self):
        scenes = self._scenes(n=10, seed=5)
        a, _ = gen_instance_negatives(scenes, seed=6)
        b, _ = gen_instance_negatives(scenes, seed=6)
        assert [(x.expression_id, x.text) for x in a] == [(x.expression_id, x.text) for x in b]


class TestSplit:
    RATIOS = (0.70, 0.15, 0.15)

    def _uniform_scenes(self, n, image_type="crop_only"):
        cat = {"crop_only": "maize", "weed_only": "weed"}.get(image_type, "maize")
        scenes = []
        for k in range(n):
            if image_type == "empty":
                scenes.append(make_scene(image_id=f"s{k}", specs=[]))
            else:
                scenes.append(make_scene(image_id=f"s{k}",
                                         specs=[(cat, 0, 0, 100, 100)]))
        return scenes

    def test_exact_ratio(self):
        train, val, test = stratified_split(self._uniform_scenes(100), self.RATIOS, seed=0)
        assert (len(train), len(val), len(test)) == (70, 15, 15)

    def test_largest_remainder(self):
        train, val, test = stratified_split(self._uniform_scenes(10), self.RATIOS, seed=0)
        assert (len(train), len(val), len(test)) == (7, 2, 1)

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        scenes = []
        for k in range(40):
            t = ["crop_only", "weed_only", "mixed", "empty"][int(rng.integers(4))]
            if t == "empty":
                scenes.append(make_scene(image_id=f"p{k}", specs=[]))
            elif t == "mixed":
                scenes.append(make_scene(image_id=f"p{k}", specs=[
                    ("maize", 0, 0, 100, 100), ("weed", 200, 200, 300, 300)]))
            elif t == "weed_only":
                scenes.append(make_scene(image_id=f"p{k}", specs=[("weed", 0, 0, 100, 100)]))
            else:
                scenes.append(make_scene(image_id=f"p{k}", specs=[("maize", 0, 0, 100, 100)]))
        train, val, test = stratified_split(scenes, self.RATIOS, seed=2)
        ids = sorted(s.image_id for s in train + val + test)
        assert ids == sorted(s.image_id for s in scenes)
        assert not (set(s.image_id for s in train) & set(s.image_id for s in val))
        assert not (set(s.image_id for s in train) & set(s.image_id for s in test))
        assert not (set(s.image_id for s in val) & set(s.image_id for s in test))


class TestSerialization:
    def _dataset(self):
        scenes = [make_scene(image_id="a", specs=[("maize", 10, 10, 90, 90)]),
                  make_scene(image_id="b", specs=[("weed", 10, 10, 90, 90)])]
        exprs = []
        for s in scenes:
            exprs.extend(gen_positive_expressions(s))
            exprs.extend(gen_image_negatives(s))
        return scenes, exprs

    def test_roundtrip_exact(self, tmp_path):
        scenes, exprs = self._dataset()
        path = tmp_path / "data.jsonl"
        write_dataset(scenes, exprs, path, meta={"seed": 0, "split": "train"})
        scenes2, exprs2, meta = read_dataset(path)
        assert meta["seed"] == 0
        assert [s.__dict__ for s in scenes2] == [
            {**s.__dict__, "instances": s.instances} for s in scenes]
        assert len(exprs2) == len(exprs)
        for e1, e2 in zip(exprs, exprs2):
            assert e1.__dict__ == e2.__dict__
        # byte identity when written twice
        path2 = tmp_path / "data2.jsonl"
        write_dataset(scenes2, exprs2, path2, meta={"seed": 0, "split": "train"})
        assert path.read_bytes() == path2.read_bytes()
        # sorted keys and no spaces, so the bytes depend on the contents only
        for line in path.read_text().splitlines():
            assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))

    def test_unknown_category_rejected(self, tmp_path):
        scenes, exprs = self._dataset()
        path = tmp_path / "data.jsonl"
        write_dataset(scenes, exprs, path)
        lines = path.read_text().splitlines()
        bad = lines[1].replace("maize", "kudzu")
        path.write_text("\n".join([lines[0], bad] + lines[2:]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 2: "):
            read_dataset(path)

    def test_version_mismatch_rejected(self, tmp_path):
        scenes, exprs = self._dataset()
        path = tmp_path / "data.jsonl"
        write_dataset(scenes, exprs, path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"version":1', '"version":2')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="version"):
            read_dataset(path)
