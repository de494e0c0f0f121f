import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from gvgkit.datagen import InstanceAnnotation, SceneAnnotation, attribute_words, read_dataset
from gvgkit.geometry import corners, iou
from gvgkit.hrs import LEVEL0_SENTENCES, HrsParams
from gvgkit.synth import (
    EmbeddingTable,
    SynthConfig,
    TrainConfig,
    TrainingDiverged,
    encode_proposals,
    encode_text,
    gen_scenes,
    predict_split,
    read_predictions,
    tokenize,
    train_two_stage,
    write_predictions,
    write_split,
)
from gvgkit.synth.config import FEATURE_DIMS, WORD_SPACE_DIMS
from gvgkit.synth.encode import _context_block, _scene_rng
from gvgkit.synth.scenes import SplitData
from gvgkit.synth.train import LOG_TERMS, encode_split, text_encoder, train_stage2, write_log

import uniform_oracle


def checksum(model) -> str:
    """Digest of a model's named leaves: equal iff every tensor is
    equal bit for bit."""
    digest = hashlib.sha256()
    for name, t in model.leaves():
        digest.update(name.encode())
        digest.update(t.value.tobytes())
    return digest.hexdigest()


def quiet_gen(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return gen_scenes(cfg)


SMALL = dict(n_scenes=48, seed=11)


class TestTokenizer:
    def test_compound_attribute_words(self):
        tokens = tokenize("the small sugar beet at the top left of the image")
        assert "sugar beet" in tokens
        assert "top left" in tokens
        assert tokens.count("the") == 3

    def test_single_words(self):
        assert tokenize("there is no weed in the image") == \
            ["there", "is", "no", "weed", "in", "the", "image"]


class TestTextEncoding:
    def test_rows_are_the_content_words_table_rows_in_order(self):
        table = EmbeddingTable(seed=0)
        text = encode_text("the small maize at the top left of the image", table)
        rows = [table.row[word] for word in ("small", "maize", "top left")]
        want = np.stack([table.matrix[k] for k in rows])
        assert text.dtype == np.float64
        assert np.array_equal(text, want)

    def test_umbrella_words_are_compositional(self):
        table = EmbeddingTable(seed=0)
        crop = table.matrix[table.row["crop"]]
        veg = table.matrix[table.row["vegetation"]]
        maize = table.matrix[table.row["maize"]]
        weed = table.matrix[table.row["weed"]]
        assert crop @ maize > 0 and crop @ weed == 0
        assert veg @ maize > 0 and veg @ weed > 0
        assert np.isclose(np.linalg.norm(crop), 1.0)

    def test_truncation_warns(self):
        table = EmbeddingTable(seed=0)
        long_text = "maize " * 80
        with pytest.warns(UserWarning, match="truncated"):
            text = encode_text(long_text, table, max_tokens=64)
        assert text.shape == (64, FEATURE_DIMS)
        # the cap counts filler tokens too
        with pytest.warns(UserWarning, match="truncated"):
            text = encode_text("the maize " * 40, table, max_tokens=64)
        assert len(text) == 32


class TestProposalEncoding:
    # the image-type dims of the context block: crop, weed, both, none
    @pytest.mark.parametrize("categories, flags", [
        (("maize",), [1, 0, 0, 0]), (("weed",), [0, 1, 0, 0]),
        (("maize", "weed"), [1, 1, 1, 0]), ((), [0, 0, 0, 1])],
        ids=["crop_only", "weed_only", "mixed", "empty"])
    def test_the_context_block_flags_the_image_type(self, categories, flags):
        scene = SceneAnnotation(image_id="s", width=100, height=100, instances=[
            InstanceAnnotation(k, category, 10 * k, 0, 10 * k + 5, 5)
            for k, category in enumerate(categories)])
        ctx = _context_block(scene, SynthConfig(context_strength=1.0))
        assert ctx[:4].tolist() == flags

    def test_noiseless_feature_equals_token_maxpool(self):
        # with zero noise and no context, an instance's feature is exactly
        # the max-pooled embedding of its own expression's attribute words
        cfg = SynthConfig(**SMALL, feature_noise=0.0, context_strength=0.0)
        ds = quiet_gen(cfg)
        table = EmbeddingTable(cfg.seed)
        scene = next(s for s in ds.train.scenes if s.instances)
        features, _, source_ids = encode_proposals(scene, cfg, table)
        for row, sid in zip(features, source_ids):
            if sid < 0:
                continue
            inst = next(i for i in scene.instances if i.instance_id == sid)
            expr_text = f"the {inst.size_bin} {inst.category} at the {inst.grid_cell} of the image"
            text = encode_text(expr_text, table)
            assert np.array_equal(row, text.max(axis=0))

    def test_identical_attributes_identical_noiseless_features(self):
        cfg = SynthConfig(**SMALL, feature_noise=0.0)
        ds = quiet_gen(cfg)
        table = EmbeddingTable(cfg.seed)
        for scene in ds.train.scenes:
            features, _, source_ids = encode_proposals(scene, cfg, table)
            by_triple = {}
            for row, sid in zip(features, source_ids):
                if sid < 0:
                    continue
                inst = next(i for i in scene.instances if i.instance_id == sid)
                by_triple.setdefault(inst.triple, []).append(row)
            for rows in by_triple.values():
                for row in rows[1:]:
                    assert np.array_equal(rows[0], row)

    def test_background_proposals_disjoint_and_marked(self):
        cfg = SynthConfig(**SMALL)
        ds = quiet_gen(cfg)
        table = EmbeddingTable(cfg.seed)
        scene = next(s for s in ds.train.scenes if 0 < len(s.instances) <= 8)
        _, boxes, source_ids = encode_proposals(scene, cfg, table)
        assert (source_ids == -1).sum() >= cfg.distractor_min
        gt = uniform_oracle.normalized_boxes(scene)
        background = boxes[source_ids == -1]
        assert np.all(iou(corners(background), corners(uniform_oracle.centre_rows(gt))) == 0.0)

    def test_encoding_deterministic(self):
        cfg = SynthConfig(**SMALL)
        ds = quiet_gen(cfg)
        table = EmbeddingTable(cfg.seed)
        scene = ds.train.scenes[0]
        a, boxes_a, ids_a = encode_proposals(scene, cfg, table)
        b, boxes_b, ids_b = encode_proposals(scene, cfg, table)
        assert np.array_equal(a, b)
        assert np.array_equal(boxes_a, boxes_b)
        assert np.array_equal(ids_a, ids_b)

    def test_arrays_align_and_an_empty_set_is_rejected(self):
        # one row per proposal in each array: one per instance, then the
        # distractors; a scene without any proposal is an error
        cfg = SynthConfig(**SMALL)
        ds = quiet_gen(cfg)
        table = EmbeddingTable(cfg.seed)
        for scene in ds.train.scenes:
            features, boxes, source_ids = encode_proposals(scene, cfg, table)
            n = len(source_ids)
            assert features.shape == (n, FEATURE_DIMS) and boxes.shape == (n, 4)
            assert source_ids[:len(scene.instances)].tolist() == [
                i.instance_id for i in scene.instances]
            assert np.all(source_ids[len(scene.instances):] == -1)
        empty = next(s for s in ds.train.scenes if not s.instances)
        bare = dataclasses.replace(cfg)
        bare.empty_scene_proposals = 0      # set after the config's own check, which rejects 0
        with pytest.raises(ValueError, match=f"scene {empty.image_id!r} has no proposals"):
            encode_proposals(empty, bare, table)

    @pytest.mark.parametrize("extra", [{}, {"density_probs": (0.0, 0.5, 0.35, 0.15)},
                                       {"context_strength": 0.0}, {"feature_noise": 0.0},
                                       {"distractor_min": 0, "distractor_rate": 0.0}],
                             ids=["small", "dense", "no context", "no word noise",
                                  "no soil boxes"])
    def test_every_scene_encodes_as_the_per_proposal_oracle(self, extra):
        cfg = SynthConfig(**SMALL, **extra)
        ds = quiet_gen(cfg)
        table = EmbeddingTable(cfg.seed)
        for split in ds.splits.values():
            for scene in split.scenes:
                assert_same_as_oracle(scene, cfg, table)

    @pytest.mark.parametrize("crowded", [False, True])
    def test_box_draws_match_rng_uniform(self, crowded):
        # random instances, each scene's word noise drawn after its boxes,
        # so equal features show that both took the same number of draws
        cfg = SynthConfig(jitter_centre=0.6, jitter_scale=1.2)
        table = EmbeddingTable(cfg.seed)
        setup = np.random.default_rng(0)
        retried = 0
        for k in range(300):
            # large boxes all over the image use up the soil draws' retries
            boxes = [_centre_box(*setup.uniform(0.2, 0.8, 2), *setup.uniform(0.3, 0.6, 2))
                     for _ in range(12)] if crowded else [
                _centre_box(*setup.uniform(0.1, 0.9, 2), *setup.uniform(0.01, 0.6, 2))]
            scene = _scene(f"scene-{k}", boxes)
            assert_same_as_oracle(scene, cfg, table)
            # did the first soil box need more than one try?
            gts = uniform_oracle.normalized_boxes(scene)
            rng = _scene_rng(cfg.seed, scene.image_id, "proposals")
            one_try = _scene_rng(cfg.seed, scene.image_id, "proposals")
            rng.random(4 * len(gts))
            uniform_oracle.background_box(gts, rng)
            one_try.random(4 * len(gts) + 4)
            retried += one_try.bit_generator.state != rng.bit_generator.state
        assert retried > (250 if crowded else 0)

    def test_instances_on_the_borders_take_every_clamp(self):
        # an instance on each border: jittered boxes pushed out of the
        # image are clamped back, on each side
        cfg = SynthConfig(jitter_centre=0.6, jitter_scale=1.2)
        table = EmbeddingTable(cfg.seed)
        clamped = np.zeros((2, 2), dtype=int)      # (low, high) x (x, y)
        for k in range(40):
            scene = _scene(f"scene-{k}", [(0, 400, 300, 700), (500, 0, 700, 250),
                                          (1000, 300, 1280, 600), (200, 1100, 600, 1280)])
            assert_same_as_oracle(scene, cfg, table)
            _, boxes, source_ids = encode_proposals(scene, cfg, table)
            centre, half = boxes[source_ids >= 0, :2], boxes[source_ids >= 0, 2:] / 2
            clamped[0] += (centre == half).sum(axis=0)
            clamped[1] += (centre == 1 - half).sum(axis=0)
        assert np.all(clamped > 0), clamped

    def test_a_covered_image_uses_up_every_soil_try(self):
        # four quadrants cover the image: no draw is clear, so each soil
        # box is its 60th draw and overlaps a plant
        cfg = SynthConfig()
        table = EmbeddingTable(cfg.seed)
        scene = _scene("scene-covered", [(0, 0, 640, 640), (640, 0, 1280, 640),
                                         (0, 640, 640, 1280), (640, 640, 1280, 1280)])
        assert_same_as_oracle(scene, cfg, table)
        _, boxes, source_ids = encode_proposals(scene, cfg, table)
        soil = corners(boxes[source_ids == -1])
        assert np.all(iou(soil, corners(scene.normalized_rows())).max(axis=1) > 0)

    def test_an_empty_scene_encodes_as_the_oracle(self):
        cfg = SynthConfig()
        table = EmbeddingTable(cfg.seed)
        scene = _scene("scene-empty", [])
        assert_same_as_oracle(scene, cfg, table)
        assert len(encode_proposals(scene, cfg, table)[2]) == cfg.empty_scene_proposals

    def test_overlap_reads_the_corners_of_the_centre_rows(self):
        # an instance whose left edge, as pixels / image size, is the first
        # soil draw's right edge: the corners of its centre row fall one
        # bit inside the draw, so the draw overlaps it and is retried
        cfg = SynthConfig()
        table = EmbeddingTable(cfg.seed)
        size = 1024                 # pixels / size is exact
        for k in range(50):
            image_id = f"scene-edge-{k}"
            rng = _scene_rng(cfg.seed, image_id, "proposals")
            rng.random(4)           # the instance's jitter
            edge = uniform_oracle.background_box([], rng).to_corners()[2]
            x1 = edge * size
            inside = [x2 for x2 in x1 + np.arange(1, 400) * 0.37 if x2 <= size
                      and (x1 / size + x2 / size) / 2.0 - (x2 / size - x1 / size) / 2.0 < edge]
            if inside:
                break
        scene = _scene(image_id, [(x1, 0, inside[0], size)], size=size)
        assert_same_as_oracle(scene, cfg, table)
        _, boxes, source_ids = encode_proposals(scene, cfg, table)
        assert corners(boxes[source_ids == -1])[0, 2] != edge

    def test_tables_of_other_seeds_at_one_address_encode_their_own_words(self):
        # each table is dropped after use, so the next one is likely to
        # take its address: what the encoder derives from a table must
        # come from that table, never from a lookup keyed by its id
        cfg = SynthConfig(**SMALL)
        scenes = [s for s in quiet_gen(cfg).train.scenes if s.instances][:4]
        for seed in (1, 2, 1, 2):
            table = EmbeddingTable(seed)
            for scene in scenes:
                assert_arrays_equal(encode_proposals(scene, cfg, table),
                                    uniform_oracle.encode_proposals(scene, cfg,
                                                                    EmbeddingTable(seed)))
            del table


def _centre_box(cx, cy, w, h, size=1280):
    """Pixel corners of a normalised centre-form box."""
    return ((cx - w / 2) * size, (cy - h / 2) * size, (cx + w / 2) * size, (cy + h / 2) * size)


def _scene(image_id, boxes, size=1280):
    """A scene of maize plants at the given pixel corners, attributes derived."""
    scene = SceneAnnotation(image_id=image_id, width=size, height=size, instances=[
        InstanceAnnotation(k, "maize", *box) for k, box in enumerate(boxes)])
    for inst, (size_bin, cell) in zip(scene.instances,
                                      attribute_words(scene.pixel_rows(), size, size)):
        inst.size_bin, inst.grid_cell = size_bin, cell
    return scene


def assert_arrays_equal(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_as_oracle(scene, cfg, table):
    assert_arrays_equal(encode_proposals(scene, cfg, table),
                        uniform_oracle.encode_proposals(scene, cfg, table))


class TestSceneGeneration:
    def test_deterministic_bytes(self, tmp_path):
        cfg = SynthConfig(**SMALL)
        files = []
        for run in range(2):
            ds = quiet_gen(cfg)
            path = tmp_path / f"train-{run}.jsonl"
            write_split(ds.train, path, meta={"seed": cfg.seed})
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_all_empty_config(self):
        cfg = SynthConfig(n_scenes=12, seed=3, type_mix=(0.0, 0.0, 0.0, 1.0))
        ds = quiet_gen(cfg)
        for split in ds.splits.values():
            for scene in split.scenes:
                assert scene.image_type == "empty"
                assert scene.instances == []

    def test_dense_bucket_minimum(self):
        cfg = SynthConfig(n_scenes=10, seed=4, density_probs=(0.0, 0.0, 0.0, 1.0),
                          type_mix=(0.5, 0.5, 0.0, 0.0), sub_min_rate=0.0)
        ds = quiet_gen(cfg)
        for split in ds.splits.values():
            for scene in split.scenes:
                assert len(scene.instances) >= 31

    def test_filtered_instances_respect_area(self):
        cfg = SynthConfig(**SMALL, sub_min_rate=1.0)
        ds = quiet_gen(cfg)
        for split in ds.splits.values():
            for scene in split.scenes:
                for inst in scene.instances:
                    assert inst.pixel_area >= 256

    def test_encode_split_groups_expressions_like_a_scan(self):
        cfg = SynthConfig(**SMALL)
        ds = quiet_gen(cfg)
        table = EmbeddingTable(cfg.seed)
        for split in ds.splits.values():
            # the first scene loses its expressions, so one scene has none
            bare = split.scenes[0].image_id
            split = SplitData(split.name, split.scenes,
                              [e for e in split.expressions if e.image_id != bare])
            encoded = encode_split(split, cfg, table)
            assert [item.scene for item in encoded] == split.scenes
            for item in encoded:
                scan = [e for e in split.expressions if e.image_id == item.scene.image_id]
                assert item.expressions == scan, item.scene.image_id
            assert encoded[0].expressions == []

    def test_roundtrip_through_files(self, tmp_path):
        cfg = SynthConfig(**SMALL)
        ds = quiet_gen(cfg)
        path = tmp_path / "test.jsonl"
        write_split(ds.test, path, meta={"seed": cfg.seed})
        scenes, expressions, meta = read_dataset(path)
        assert meta["split"] == "test"
        assert len(scenes) == len(ds.test.scenes)
        assert len(expressions) == len(ds.test.expressions)


class TestTraining:
    @pytest.fixture(scope="class")
    def tiny_setup(self):
        cfg = SynthConfig(n_scenes=32, seed=5, feature_noise=0.15)
        ds = quiet_gen(cfg)
        tcfg = TrainConfig(seed=5, stage1_epochs=6, stage2_epochs=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = train_two_stage(ds.train, cfg, tcfg)
        return cfg, ds, tcfg, result

    def test_stage1_loss_decreases(self, tiny_setup):
        _, _, _, result = tiny_setup
        stage1 = [r for r in result.log if r.stage == 1]
        assert stage1[-1].loss_total < stage1[0].loss_total

    def test_log_rows_carry_each_stage_terms(self, tiny_setup):
        _, _, tcfg, result = tiny_setup
        assert [(r.stage, r.epoch) for r in result.log] == \
            [(1, e) for e in range(tcfg.stage1_epochs)] + [(2, e) for e in range(tcfg.stage2_epochs)]
        for row in result.log:
            if row.stage == 1:
                assert row.terms == {"loss_interp_iou": row.loss_total}
                assert row.loss_total > 0.0
            else:
                assert row.terms.keys() == {"loss_lvl0", "loss_lvl1c"}
                assert row.terms["loss_lvl0"] > 0.0 and row.terms["loss_lvl1c"] > 0.0

    def test_log_csv_has_a_column_for_every_recorded_term(self, tiny_setup, tmp_path):
        # a term a stage records but LOG_TERMS leaves out would never
        # reach log.csv
        _, _, _, result = tiny_setup
        assert set().union(*(row.terms for row in result.log)) == set(LOG_TERMS)
        write_log(result.log, tmp_path / "log.csv", seed=5)
        lines = (tmp_path / "log.csv").read_text().splitlines()
        assert lines[:2] == ["# seed=5", ",".join(("epoch", "stage", "loss_total",
                                                   *LOG_TERMS, "lr"))]
        for row, line in zip(result.log, lines[2:], strict=True):
            written = dict(zip(LOG_TERMS, map(float, line.split(",")[3:-1]), strict=True))
            # a term the row's stage does not record is written as 0
            assert written == pytest.approx({name: row.terms.get(name, 0.0)
                                             for name in LOG_TERMS}, abs=5e-9)

    def test_stage2_preserves_refiner(self, tiny_setup):
        cfg, ds, tcfg, result = tiny_setup
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stage1 = train_two_stage(ds.train, cfg, tcfg, stages=(1,))
        assert stage1.params is None
        assert checksum(stage1.refiner) == checksum(result.refiner)
        assert [r for r in result.log if r.stage == 1] == stage1.log

    def test_reproducible_bit_for_bit(self, tiny_setup):
        cfg, ds, tcfg, result = tiny_setup
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            again = train_two_stage(ds.train, cfg, tcfg)
        assert checksum(again.params) == checksum(result.params)
        assert checksum(again.refiner) == checksum(result.refiner)
        assert [r.loss_total for r in again.log] == [r.loss_total for r in result.log]

    def test_ablation_changes_training(self, tiny_setup):
        cfg, ds, tcfg, result = tiny_setup
        import dataclasses
        ncfg = dataclasses.replace(tcfg, ablation="no-constraint")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            other = train_two_stage(ds.train, cfg, ncfg)
        assert checksum(other.params) != checksum(result.params)
        # the refinement stage is untouched by the no-constraint variant
        assert checksum(other.refiner) == checksum(result.refiner)

    def test_empty_scene_hmce_equals_lvl0(self, tiny_setup):
        cfg, ds, tcfg, result = tiny_setup
        from gvgkit.synth.encode import EmbeddingTable
        from gvgkit.synth.train import _scene_losses
        table = EmbeddingTable(cfg.seed)
        encoded = encode_split(ds.train, cfg, table)
        empty_items = [e for e in encoded if e.scene.image_type == "empty"]
        assert empty_items, "training split should carry empty scenes"
        rng = np.random.default_rng(0)
        encode = text_encoder(table, cfg.max_tokens)
        for item in empty_items[:2]:
            objective, terms = _scene_losses(item, result.params, tcfg, rng, encode)
            assert objective.item() == terms["loss_lvl0"].item()


    @pytest.mark.parametrize("scenes,epoch", [(4, 1), (8, 0)])
    def test_divergence_rolls_back_to_last_good_epoch(self, scenes, epoch):
        # lr 1e150: one Adam step lifts every parameter to ~1e150 and the
        # next forward pass overflows. With 4 scenes (one batch) epoch 0
        # completes and epoch 1 fails; with 8 the second batch of epoch 0
        # fails after the first one has stepped.
        cfg = SynthConfig(n_scenes=32, seed=5, feature_noise=0.15)
        ds = quiet_gen(cfg)
        table = EmbeddingTable(cfg.seed)
        encoded = encode_split(ds.train, cfg, table)[:scenes]
        tcfg = TrainConfig(seed=5, stage2_epochs=3, lr_init=1e150)

        def fresh():
            return HrsParams(d_v=FEATURE_DIMS, d_t=FEATURE_DIMS, d=tcfg.d, heads=tcfg.heads,
                             d_ff=tcfg.d_ff, d_hidden=tcfg.d_hidden, seed=tcfg.seed)

        last_good = fresh()
        if epoch:
            train_stage2(encoded, last_good, dataclasses.replace(tcfg, stage2_epochs=epoch),
                         text_encoder(table, cfg.max_tokens))
        params = fresh()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(TrainingDiverged,
                               match=f"stage 2 diverged in epoch {epoch}:"):
                train_stage2(encoded, params, tcfg, text_encoder(table, cfg.max_tokens))
        for (name, t), (_, good) in zip(params.leaves(), last_good.leaves()):
            assert np.array_equal(t.value, good.value), name

    def test_training_caps_tokens_like_prediction(self):
        # 4 tokens keep a content word of every text ("the small maize at ...")
        cfg = SynthConfig(n_scenes=16, seed=5, max_tokens=4)
        ds = quiet_gen(cfg)
        tcfg = TrainConfig(seed=5, stage1_epochs=1, stage2_epochs=1)

        def truncations(run):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = run()
            warned = [str(w.message) for w in caught if "truncated" in str(w.message)]
            # each text is encoded, and warned about, once per command,
            # also when an absence sentence is a level-0 sentence too
            assert len(warned) == len(set(warned))
            return result, set(warned)

        result, in_training = truncations(lambda: train_two_stage(ds.train, cfg, tcfg))
        _, in_prediction = truncations(lambda: predict_split(
            ds.train, cfg, result.params, result.refiner))
        vocab = {f"expression truncated to 4 tokens: {s!r}"
                 for s in LEVEL0_SENTENCES if len(tokenize(s)) > 4}
        assert vocab and vocab <= in_training       # the vocabulary sentences
        assert in_training - vocab                  # and the sampled expressions
        # every text training saw was cut where prediction cuts it
        assert in_training <= in_prediction


class TestPrediction:
    @pytest.fixture(scope="class")
    def predicted(self):
        cfg = SynthConfig(n_scenes=32, seed=5, feature_noise=0.15)
        ds = quiet_gen(cfg)
        tcfg = TrainConfig(seed=5, stage1_epochs=6, stage2_epochs=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = train_two_stage(ds.train, cfg, tcfg)
        preds = predict_split(ds.test, cfg, result.params, result.refiner)
        return cfg, tcfg, ds, result, preds

    def test_scores_non_increasing(self, predicted):
        _, _, _, _, preds = predicted
        assert preds.records
        for rec in preds.records:
            assert np.all(np.diff(rec.scores) <= 0)

    def test_deterministic_and_roundtrip(self, predicted, tmp_path):
        # a second call gives the same records, and neither call edits a
        # weight of either model in place
        cfg, tcfg, ds, result, preds = predicted
        before = checksum(result.params), checksum(result.refiner)
        again = predict_split(ds.test, cfg, result.params, result.refiner)
        assert (checksum(result.params), checksum(result.refiner)) == before
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_predictions(preds, p1, seed=cfg.seed)
        write_predictions(again, p2, seed=cfg.seed)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = read_predictions(p1)
        assert len(loaded.records) == len(preds.records)
        for got, want in zip(loaded.records, preds.records):
            assert np.array_equal(got.ranking, want.ranking)
            assert (loaded.tables[got.image_id][got.ranking].tobytes()
                    == preds.tables[want.image_id][want.ranking].tobytes())
            assert got.scores.tobytes() == want.scores.tobytes()

    def test_every_expression_predicted(self, predicted):
        _, _, ds, _, preds = predicted
        assert {r.expression_id for r in preds.records} == \
            {e.expression_id for e in ds.test.expressions}

    @pytest.mark.parametrize("gate", [True, False])
    def test_scene_without_expressions(self, predicted, gate):
        # the block of an image's expression rows is empty for this scene
        cfg, tcfg, ds, result, _ = predicted
        full = predict_split(ds.test, cfg, result.params, result.refiner,
                             gate_level0=gate)
        victim = next(s.image_id for s in ds.test.scenes
                      if any(e.level == "instance" and e.image_id == s.image_id
                             for e in ds.test.expressions))
        split = SplitData(ds.test.name, ds.test.scenes,
                          [e for e in ds.test.expressions if e.image_id != victim])
        preds = predict_split(split, cfg, result.params, result.refiner,
                              gate_level0=gate)
        assert not any(r.image_id == victim for r in preds.records)
        kept = [r for r in full.records if r.image_id != victim]
        assert len(preds.records) == len(kept) < len(full.records)
        for got, want in zip(preds.records, kept):
            assert (got.expression_id, got.image_id, got.level0_class) == \
                (want.expression_id, want.image_id, want.level0_class)
            assert np.array_equal(got.ranking, want.ranking)
            assert got.scores.tobytes() == want.scores.tobytes()
        assert preds.tables.keys() == full.tables.keys()
        for image_id, table in full.tables.items():
            assert preds.tables[image_id].tobytes() == table.tobytes()


class TestTopOneBeatsRandom:
    def test_sigma_zero_top1_factor_five(self):
        # clean features: ranking must beat random ordering comfortably
        cfg = SynthConfig(n_scenes=40, seed=13, feature_noise=0.0)
        ds = quiet_gen(cfg)
        tcfg = TrainConfig(seed=13, stage1_epochs=8, stage2_epochs=10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = train_two_stage(ds.train, cfg, tcfg)
        preds = predict_split(ds.val, cfg, result.params, result.refiner)
        from gvgkit.evaluation import topk
        top1 = topk(preds, ds.val.expressions, ds.val.scenes, 1)
        n_by_expr = {r.expression_id: len(r.scores) for r in preds.records}
        positives = [e for e in ds.val.expressions
                     if e.level == "instance" and e.polarity == "positive"]
        random_baseline = 100.0 * float(np.mean(
            [min(len(e.target_ids), n_by_expr[e.expression_id]) / n_by_expr[e.expression_id]
             for e in positives]))
        assert top1 >= 5 * random_baseline, (top1, random_baseline)
