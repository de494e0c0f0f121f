from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvgkit import datagen, evaluation
from gvgkit.datagen import (
    Attributes,
    Expression,
    NEGATIVE_KINDS,
    InstanceAnnotation,
    SceneAnnotation,
    filter_instances,
)
from gvgkit.evaluation import (
    EvalReport,
    format_table,
    mean_iou,
    neg_acc,
    recall_at_05,
    stratify,
    topk,
)
from gvgkit.synth.predict import PredictionRecord, Predictions

import reference_metrics as ref

IMG = 100  # micro-scene image size in px


def scene_with(image_id, inst_boxes, categories=None):
    cats = categories or ["maize"] * len(inst_boxes)
    raw = SceneAnnotation(image_id=image_id, width=IMG, height=IMG, instances=[
        InstanceAnnotation(instance_id=k, category=cats[k],
                           x1=b[0], y1=b[1], x2=b[2], y2=b[3])
        for k, b in enumerate(inst_boxes)
    ])
    return filter_instances(raw)


def positive_expr(expr_id, image_id, target_ids, size="small", cat="maize",
                  cell="top left"):
    return Expression(expression_id=expr_id, image_id=image_id,
                      text=f"the {size} {cat} at the {cell} of the image",
                      level="instance", polarity="positive", negative_kind="none",
                      attributes=Attributes(cat, size, cell), target_ids=target_ids)


def negative_expr(expr_id, image_id, kind="replace_category"):
    return Expression(expression_id=expr_id, image_id=image_id,
                      text="the small pea at the top left of the image",
                      level="instance", polarity="negative", negative_kind=kind,
                      attributes=Attributes("pea", "small", "top left"),
                      target_ids=[])


def record(expr_id, image_id, boxes, scores):
    """One expression's boxes and their scores, unsorted."""
    return expr_id, image_id, boxes, scores


def predictions(specs):
    """Predictions of ``record`` specs: each spec's boxes are appended to
    its image's table, and its ranking orders them by descending score."""
    tables, records = {}, []
    for expr_id, image_id, boxes, scores in specs:
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        table = tables.get(image_id, np.empty((0, 4)))
        order = np.argsort(-np.asarray(scores), kind="stable")
        records.append(PredictionRecord(expression_id=expr_id, image_id=image_id,
                                        level0_class=0, ranking=len(table) + order,
                                        scores=np.asarray(scores, dtype=np.float64)[order]))
        tables[image_id] = np.concatenate([table, boxes])
    return Predictions(records=records, tables=tables)


class TestBasicMetrics:
    def test_exact_top1_hit(self):
        scene = scene_with("a", [(10, 10, 40, 40)])
        expr = positive_expr("e0", "a", [0])
        preds = predictions([record("e0", "a", [(10, 10, 40, 40)], [5.0])])
        assert topk(preds, [expr], [scene], 1) == 100.0
        assert mean_iou(preds, [expr], [scene]) == pytest.approx(100.0)

    def test_rank3_hit_is_top5_only(self):
        scene = scene_with("a", [(10, 10, 40, 40)])
        expr = positive_expr("e0", "a", [0])
        boxes = [(60, 60, 90, 90), (60, 10, 90, 40), (10, 10, 40, 40)]
        preds = predictions([record("e0", "a", boxes, [3.0, 2.0, 1.0])])
        assert topk(preds, [expr], [scene], 1) == 0.0
        assert topk(preds, [expr], [scene], 5) == 100.0

    def test_iou_exactly_half_is_hit(self):
        scene = scene_with("a", [(0, 0, 40, 40)])
        expr = positive_expr("e0", "a", [0])
        # half-width box: inter 800, union 1600, IoU exactly 0.5
        preds = predictions([record("e0", "a", [(0, 0, 20, 40)], [1.0])])
        assert topk(preds, [expr], [scene], 1) == 100.0

    def test_recall_counts_targets(self):
        scene = scene_with("a", [(10, 10, 40, 40), (60, 60, 90, 90)])
        expr = positive_expr("e0", "a", [0, 1])
        both = [(10, 10, 40, 40), (60, 60, 90, 90)]
        preds = predictions([record("e0", "a", both, [1.0, 0.5])])
        assert recall_at_05(preds, [expr], [scene]) == 100.0
        preds = predictions([record("e0", "a", both[:1], [1.0])])
        assert recall_at_05(preds, [expr], [scene]) == 50.0
        far = [(0, 60, 5, 65)]
        preds = predictions([record("e0", "a", far, [1.0])])
        assert recall_at_05(preds, [expr], [scene]) == 0.0

    def test_mean_iou_partial(self):
        # geometry example: IoU 1/7
        scene = scene_with("a", [(0, 0, 20, 20)])
        expr = positive_expr("e0", "a", [0])
        preds = predictions([record("e0", "a", [(10, 10, 30, 30)], [1.0])])
        assert mean_iou(preds, [expr], [scene]) == pytest.approx(100 / 7, abs=1e-9)

    def test_missing_prediction_counts_as_miss(self):
        scene = scene_with("a", [(10, 10, 40, 40)])
        expr = positive_expr("e0", "a", [0])
        preds = predictions([])
        assert topk(preds, [expr], [scene], 1) == 0.0
        assert mean_iou(preds, [expr], [scene]) == 0.0


class TestNegAcc:
    def test_three_crafted_cases(self):
        scene = scene_with("a", [(40, 40, 60, 60)])
        neg = negative_expr("n0", "a")
        disjoint = predictions([record("n0", "a", [(70, 70, 90, 90)], [1.0])])
        overlapping = predictions([record("n0", "a", [(45, 45, 65, 65)], [1.0])])
        touching = predictions([record("n0", "a", [(60, 40, 80, 60)], [1.0])])
        assert neg_acc(disjoint, [neg], [scene]) == 100.0
        assert neg_acc(overlapping, [neg], [scene]) == 0.0
        assert neg_acc(touching, [neg], [scene]) == 100.0

    def test_empty_scene_counts_correct(self):
        scene = scene_with("a", [])
        neg = negative_expr("n0", "a")
        preds = predictions([record("n0", "a", [(1, 1, 20, 20)], [1.0])])
        assert neg_acc(preds, [neg], [scene]) == 100.0

    def test_only_the_top_box_is_judged(self):
        scene = scene_with("a", [(40, 40, 60, 60)])
        neg = negative_expr("n0", "a")
        boxes = [(70, 70, 90, 90), (45, 45, 65, 65)]  # top-1 clean, rank-2 overlaps
        preds = predictions([record("n0", "a", boxes, [2.0, 1.0])])
        assert neg_acc(preds, [neg], [scene]) == 100.0

    def test_monotone_score_transform_invariance(self):
        rng = np.random.default_rng(0)
        scene = scene_with("a", [(40, 40, 60, 60)])
        neg = negative_expr("n0", "a")
        boxes = rng.integers(0, 80, size=(6, 2))
        boxes = [(int(x), int(y), int(x) + 15, int(y) + 15) for x, y in boxes]
        scores = rng.normal(size=6)
        base = neg_acc(predictions([record("n0", "a", boxes, scores)]),
                       [neg], [scene])
        for transform in (lambda s: 3 * s + 2, np.exp, lambda s: s ** 3):
            moved = transform(np.asarray(scores))
            out = neg_acc(predictions([record("n0", "a", boxes, moved)]),
                          [neg], [scene])
            assert out == base


class TestAgainstReference:
    def _random_case(self, rng, image_id):
        n_inst = int(rng.integers(1, 4))
        inst_boxes = []
        for _ in range(n_inst):
            x1, y1 = rng.integers(0, 55, 2)
            w, h = rng.integers(17, 40, 2)
            inst_boxes.append((int(x1), int(y1), int(x1 + w), int(y1 + h)))
        scene = scene_with(image_id, inst_boxes)
        n_prop = int(rng.integers(1, 7))
        prop_boxes = []
        for _ in range(n_prop):
            x1, y1 = rng.integers(0, 60, 2)
            w, h = rng.integers(10, 40, 2)
            prop_boxes.append((int(x1), int(y1), int(x1 + w), int(y1 + h)))
        scores = rng.normal(size=n_prop).tolist()
        return scene, prop_boxes, scores

    def test_randomized_micro_scenes(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            scenes, expressions, records = [], [], []
            pos_cases, neg_cases = [], []
            for s in range(int(rng.integers(1, 4))):
                image_id = f"img{trial}-{s}"
                scene, prop_boxes, scores = self._random_case(rng, image_id)
                if not scene.instances:
                    continue
                scenes.append(scene)
                norm = 1.0 / IMG
                targets = [i.instance_id for i in scene.instances][: int(rng.integers(1, len(scene.instances) + 1))]
                expr = positive_expr(f"e{image_id}", image_id, targets)
                expressions.append(expr)
                records.append(record(expr.expression_id, image_id, prop_boxes, scores))
                target_corners = [
                    (i.x1 * norm, i.y1 * norm, i.x2 * norm, i.y2 * norm)
                    for i in scene.instances if i.instance_id in targets]
                pos_cases.append({
                    "proposals": [(b[0] * norm, b[1] * norm, b[2] * norm, b[3] * norm)
                                  for b in prop_boxes],
                    "scores": list(scores),
                    "targets": target_corners,
                })
                neg = negative_expr(f"n{image_id}", image_id,
                                    kind=("replace_category", "swap_size",
                                          "swap_position")[s % 3])
                expressions.append(neg)
                records.append(record(neg.expression_id, image_id, prop_boxes, scores))
                neg_cases.append({
                    "proposals": pos_cases[-1]["proposals"],
                    "scores": list(scores),
                    "scene_boxes": [(i.x1 * norm, i.y1 * norm, i.x2 * norm, i.y2 * norm)
                                    for i in scene.instances],
                })
            if not scenes:
                continue
            preds = predictions(records)
            for k in (1, 5):
                assert topk(preds, expressions, scenes, k) == pytest.approx(
                    ref.ref_topk(pos_cases, k), abs=1e-9)
            assert recall_at_05(preds, expressions, scenes) == pytest.approx(
                ref.ref_recall_at_05(pos_cases), abs=1e-9)
            assert mean_iou(preds, expressions, scenes) == pytest.approx(
                ref.ref_mean_iou(pos_cases), abs=1e-9)
            assert neg_acc(preds, expressions, scenes) == pytest.approx(
                ref.ref_neg_acc(neg_cases), abs=1e-9)


class TestStratify:
    def _dataset(self):
        scenes = [
            scene_with("a", [(10, 10, 40, 40)]),                      # 1 instance
            scene_with("b", [(i * 9, 10, i * 9 + 8, 45) for i in range(11)],
                       categories=["weed"] * 11),                      # 11 instances
        ]
        expressions = [
            positive_expr("e0", "a", [0], size=scenes[0].instances[0].size_bin,
                          cell=scenes[0].instances[0].grid_cell),
            positive_expr("e1", "b", [0], size=scenes[1].instances[0].size_bin,
                          cat="weed", cell=scenes[1].instances[0].grid_cell),
            negative_expr("n0", "a", kind="replace_category"),
            negative_expr("n1", "b", kind="swap_size"),
        ]
        records = [
            record("e0", "a", [(10, 10, 40, 40)], [1.0]),
            record("e1", "b", [(0, 10, 7, 30)], [1.0]),
            record("n0", "a", [(70, 70, 90, 90)], [1.0]),
            record("n1", "b", [(40, 60, 60, 80)], [1.0]),
        ]
        return scenes, expressions, predictions(records)

    def test_supports_sum_to_overall(self):
        scenes, expressions, preds = self._dataset()
        report = stratify(preds, scenes, expressions)
        assert sum(r.support for r in report.by_scale.values()) == report.overall.support
        assert sum(r.support for r in report.by_density.values()) == report.overall.support
        kinds = [report.neg_acc_by_kind[k].neg_support for k in
                 ("replace_category", "swap_size", "swap_position")]
        assert sum(kinds) == report.overall.neg_support

    def test_weighted_average_recomputes(self):
        scenes, expressions, preds = self._dataset()
        report = stratify(preds, scenes, expressions)
        total = 0.0
        support = 0
        for kind in ("replace_category", "swap_size", "swap_position"):
            row = report.neg_acc_by_kind[kind]
            if row.neg_acc is not None:
                total += row.neg_acc * row.neg_support
                support += row.neg_support
        avg = report.neg_acc_by_kind["weighted_average"]
        assert avg.neg_acc == pytest.approx(total / support, abs=1e-9)

    def test_density_bucket_boundaries(self):
        def bucket(n):
            boxes = [(i % 10 * 9, i // 10 * 9, i % 10 * 9 + 8, i // 10 * 9 + 8)
                     for i in range(n)]
            scene = SceneAnnotation(image_id="x", width=1000, height=1000, instances=[
                InstanceAnnotation(instance_id=k, category="maize",
                                   x1=b[0] * 10, y1=b[1] * 10,
                                   x2=b[2] * 10, y2=b[3] * 10)
                for k, b in enumerate(boxes)])
            scene = filter_instances(scene)
            assert len(scene.instances) == n
            expr = positive_expr("e", "x", [0],
                                 size=scene.instances[0].size_bin,
                                 cell=scene.instances[0].grid_cell)
            preds = predictions([record("e", "x", [(0, 0, 80, 80)], [1.0])])
            report = stratify(preds, [scene], [expr])
            return [label for label, row in report.by_density.items() if row.support][0]

        assert bucket(10) == "1-10"
        assert bucket(11) == "11-20"
        assert bucket(30) == "21-30"
        assert bucket(31) == ">30"

    def test_single_stratum_equals_overall(self):
        scenes = [scene_with("a", [(10, 10, 40, 40)])]
        inst = scenes[0].instances[0]
        expressions = [positive_expr("e0", "a", [0], size=inst.size_bin,
                                     cell=inst.grid_cell)]
        preds = predictions([record("e0", "a", [(10, 10, 40, 40)], [1.0])])
        report = stratify(preds, scenes, expressions)
        stratum = report.by_scale[f"{inst.size_bin}/crop"]
        assert stratum.top1 == report.overall.top1
        assert stratum.miou == report.overall.miou

    def test_top1_implies_miou_at_least_50(self):
        scenes, expressions, preds = self._dataset()
        for expr in expressions:
            if expr.polarity != "positive":
                continue
            t1 = topk(preds, [expr], scenes, 1)
            if t1 == 100.0:
                assert mean_iou(preds, [expr], scenes) >= 50.0

    def test_table_contains_strata_headings(self):
        scenes, expressions, preds = self._dataset()
        table = format_table(stratify(preds, scenes, expressions))
        for heading in ("Top-1", "Top-5", "R@0.5", "mIoU", "Neg-Acc",
                        "Tiny", "Small", "Medium", "Large", "Crop", "Weed",
                        "1-10 Instances", "11-20 Instances", "21-30 Instances",
                        ">30 Instances", "Replace Category", "Swap Size",
                        "Swap Position", "Weighted Average"):
            assert heading in table, heading


class TestStratifyAgainstReference:
    """Every row of ``stratify`` against the brute-force oracle, on random
    datasets that hold empty and >30-instance scenes, expressions without
    a prediction record, records without proposals, boxes at IoU exactly
    0.5 and boxes that only touch an instance (GIoU exactly 0). The image
    side is a power of two, so those boundary values are exact."""

    SIDE = 1024

    def _scene(self, rng, image_id, n):
        instances = []
        for k in range(n):
            w, h = np.exp(rng.uniform(np.log(16), np.log(420), 2)).astype(int)
            x1 = int(rng.integers(0, self.SIDE - w))
            y1 = int(rng.integers(0, self.SIDE - h))
            instances.append(InstanceAnnotation(
                instance_id=k, category=str(rng.choice(["maize", "weed", "pea"])),
                x1=x1, y1=y1, x2=x1 + int(w), y2=y1 + int(h)))
        return filter_instances(SceneAnnotation(
            image_id=image_id, width=self.SIDE, height=self.SIDE, instances=instances))

    def _boxes(self, rng, scene, targets):
        """Random boxes mixed with exact, half-size and edge-touching
        copies of the scene's instances, so boundary cases rank anywhere."""
        boxes = []
        for _ in range(int(rng.integers(1, 9))):
            pick = rng.random()
            if scene.instances and pick < 0.5:
                pool = targets if targets and rng.random() < 0.7 else scene.instances
                inst = pool[int(rng.integers(len(pool)))]
                x1, y1, x2, y2 = inst.x1, inst.y1, inst.x2, inst.y2
                if pick < 0.15:
                    boxes.append((x1, y1, x2, y2))
                elif pick < 0.35 and (x2 - x1) % 2 == 0:
                    boxes.append((x1, y1, x1 + (x2 - x1) // 2, y2))   # IoU 0.5
                else:
                    boxes.append((x2, y1, x2 + 40, y2))                # touches
            else:
                x1, y1 = rng.integers(0, self.SIDE - 100, 2)
                w, h = rng.integers(16, 300, 2)
                boxes.append((int(x1), int(y1), int(x1 + w), int(y1 + h)))
        return boxes

    def _dataset(self, rng):
        """Each scene's records rank rows of one box table. A record either
        appends boxes of its own to the table, now and then with a copy of
        a row the table holds already, or ranks rows drawn with
        replacement from those already there: records share rows, rank
        different subsets of them and may rank one row twice."""
        scenes, expressions, records, tables = [], [], [], {}
        sizes = [0, int(rng.integers(1, 11)), int(rng.integers(11, 31)),
                 int(rng.integers(31, 40))]
        for s, n in enumerate(sizes):
            scene = self._scene(rng, f"s{s}", n)
            scenes.append(scene)
            exprs = datagen.gen_positive_expressions(scene) + datagen.gen_image_negatives(scene)
            exprs += [negative_expr(f"s{s}-neg{k}", scene.image_id, kind=kind)
                      for k, kind in enumerate(NEGATIVE_KINDS)]
            table = np.empty((0, 4))
            for expr in exprs:
                fate = rng.random()
                if fate < 0.1:
                    continue                                  # no record at all
                if fate < 0.2:
                    rows = np.empty(0, dtype=np.intp)         # no proposals
                elif fate < 0.55 or len(table) == 0:
                    targets = [i for i in scene.instances if i.instance_id in expr.target_ids]
                    boxes = np.array(self._boxes(rng, scene, targets), dtype=np.float64)
                    if len(table) and rng.random() < 0.3:
                        boxes = np.concatenate([boxes, table[rng.integers(len(table))][None]])
                    rows = len(table) + np.arange(len(boxes))
                    table = np.concatenate([table, boxes])
                else:
                    rows = rng.integers(0, len(table), int(rng.integers(1, 9)))
                scores = rng.normal(size=len(rows))
                order = np.argsort(-scores, kind="stable")
                records.append(PredictionRecord(
                    expression_id=expr.expression_id, image_id=scene.image_id,
                    level0_class=0, ranking=rows[order], scores=scores[order]))
            tables[scene.image_id] = table
            expressions += exprs
        return scenes, expressions, Predictions(records=records, tables=tables)

    @staticmethod
    def _cases(scenes, expressions, preds):
        """Oracle inputs: unsorted normalized corner boxes per expression."""
        by_id = {s.image_id: s for s in scenes}
        recs = preds.by_expression()
        pos, neg = [], []
        for expr in expressions:
            if expr.level != "instance":
                continue
            scene = by_id[expr.image_id]
            norm = lambda b: tuple(v / scene.width for v in b)   # square images
            rec = recs.get(expr.expression_id)
            case = {"expr": expr, "density": len(scene.instances),
                    "proposals": ([norm(b) for b in preds.tables[rec.image_id][rec.ranking]]
                                  if rec else []),
                    "scores": list(rec.scores) if rec else []}
            boxes = [(i.x1, i.y1, i.x2, i.y2) for i in scene.instances]
            if expr.polarity == "positive":
                case["targets"] = [norm(b) for b, i in zip(boxes, scene.instances)
                                   if i.instance_id in expr.target_ids]
                pos.append(case)
            else:
                case["scene_boxes"] = [norm(b) for b in boxes]
                neg.append(case)
        return pos, neg

    @staticmethod
    def _assert_row(row, pos, neg):
        assert row.support == len(pos) and row.neg_support == len(neg)
        assert row.target_support == sum(len(c["targets"]) for c in pos)
        if pos:
            assert row.top1 == ref.ref_topk(pos, 1)
            assert row.top5 == ref.ref_topk(pos, 5)
            assert row.r_at_05 == ref.ref_recall_at_05(pos)
            assert row.miou == pytest.approx(ref.ref_mean_iou(pos), abs=1e-9)
        else:
            assert row.top1 is row.top5 is row.r_at_05 is row.miou is None
        if neg:
            assert row.neg_acc == ref.ref_neg_acc(neg)
        else:
            assert row.neg_acc is None

    def test_every_row_matches_the_oracle(self):
        rng = np.random.default_rng(7)
        seen = dict.fromkeys(("missing", "no boxes", "iou 0.5", "touching",
                              "shared row", "row ranked twice", "box twice in a table"), 0)
        for _ in range(12):
            scenes, expressions, preds = self._dataset(rng)
            pos, neg = self._cases(scenes, expressions, preds)
            report = stratify(preds, scenes, expressions)

            self._assert_row(report.overall, pos, neg)
            for size in ("tiny", "small", "medium", "large"):
                for group, is_weed in (("crop", False), ("weed", True)):
                    cases = [c for c in pos if c["expr"].attributes.size_bin == size
                             and (c["expr"].attributes.category == "weed") == is_weed]
                    self._assert_row(report.by_scale[f"{size}/{group}"], cases, [])
            for label, lo, hi in (("1-10", 0, 10), ("11-20", 11, 20),
                                  ("21-30", 21, 30), (">30", 31, 10**6)):
                cases = [c for c in pos if lo <= c["density"] <= hi]
                self._assert_row(report.by_density[label], cases, [])
            for kind in NEGATIVE_KINDS:
                cases = [c for c in neg if c["expr"].negative_kind == kind]
                self._assert_row(report.neg_acc_by_kind[kind], [], cases)
            average = report.neg_acc_by_kind["weighted_average"]
            assert average.neg_support == len(neg)
            assert average.neg_acc == pytest.approx(ref.ref_neg_acc(neg), abs=1e-9)

            for case in pos + neg:
                seen["missing"] += case["expr"].expression_id not in preds.by_expression()
                seen["no boxes"] += (case["expr"].expression_id in preds.by_expression()
                                     and not case["proposals"])
            seen["iou 0.5"] += sum(ref.ref_iou(b, t) == 0.5 for c in pos
                                   for b in c["proposals"] for t in c["targets"])
            seen["touching"] += sum(ref.ref_giou(b, g) == 0.0 for c in neg
                                    for b in c["proposals"] for g in c["scene_boxes"])
            ranked_by = {}
            for rec in preds.records:
                for row in rec.ranking:
                    ranked_by.setdefault((rec.image_id, row), set()).add(rec.expression_id)
                seen["row ranked twice"] += len(set(rec.ranking)) < len(rec.ranking)
            seen["shared row"] += sum(len(ids) > 1 for ids in ranked_by.values())
            seen["box twice in a table"] += sum(len(np.unique(t, axis=0)) < len(t)
                                                for t in preds.tables.values())
        assert all(seen.values()), seen

    @given(st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=30, deadline=None)
    def test_report_ignores_record_and_box_order(self, seed, data):
        """The report reads a record by its expression and a ranked row by
        its box: shuffling the records, or permuting an image's box table
        with every ranking of that image remapped to match, leaves every
        figure as it was, bit for bit."""
        scenes, expressions, preds = self._dataset(np.random.default_rng(seed))
        report = asdict(stratify(preds, scenes, expressions))
        order = data.draw(st.permutations(range(len(preds.records))), label="records")
        shuffled = Predictions(records=[preds.records[k] for k in order], tables=preds.tables)
        assert asdict(stratify(shuffled, scenes, expressions)) == report
        tables, new_row = {}, {}
        for image_id, table in preds.tables.items():
            perm = np.array(data.draw(st.permutations(range(len(table))), label=image_id),
                            dtype=np.intp)
            tables[image_id] = table[perm]
            new_row[image_id] = np.argsort(perm)       # old row -> its row in the new table
        records = [replace(r, ranking=new_row[r.image_id][r.ranking]) for r in preds.records]
        permuted = Predictions(records=records, tables=tables)
        assert asdict(stratify(permuted, scenes, expressions)) == report

    def test_at_most_one_matrix_of_each_kind_per_image(self, monkeypatch):
        """However many expressions rank an image's boxes, ``stratify``
        computes at most one IoU and one GIoU matrix for the image."""
        calls = dict.fromkeys(("iou", "giou"), 0)
        for name in calls:
            def counted(*args, _name=name, _core=getattr(evaluation, name)):
                calls[_name] += 1
                return _core(*args)
            monkeypatch.setattr(evaluation, name, counted)
        rng = np.random.default_rng(11)
        for _ in range(4):
            scenes, expressions, preds = self._dataset(rng)
            before = dict(calls)
            stratify(preds, scenes, expressions)
            for name in calls:
                assert 0 < calls[name] - before[name] <= len(scenes), (name, calls, before)
