"""Command-line pipeline: build, train, predict, eval.

Every command is deterministic given the same inputs and seed; the seed
travels in every artifact header, the configuration hash in the
splits'. A run directory holds the dataset splits, checkpoints,
predictions and reports:

    gvgkit build   --out runs/demo
    gvgkit train   --out runs/demo
    gvgkit predict --out runs/demo --split test
    gvgkit eval    --out runs/demo --split test --format table
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings
from pathlib import Path

from gvgkit import datagen
from gvgkit.evaluation import format_table, stratify, write_report
from gvgkit.hrs import VARIANTS, HrsParams
from gvgkit.synth import (
    BoxRefiner,
    SplitData,
    SynthConfig,
    TrainConfig,
    dataset_stats,
    gen_scenes,
    load_config,
    predict_split,
    read_predictions,
    train_two_stage,
    write_log,
    write_predictions,
    write_split,
)
from gvgkit.synth.config import FEATURE_DIMS

SPLITS = ("train", "val", "test")


def _resolve_configs(args) -> tuple[SynthConfig, TrainConfig]:
    config_path = args.config
    if config_path is None and (Path(args.out) / "config.json").exists():
        config_path = Path(args.out) / "config.json"
    try:
        synth_cfg, train_cfg = load_config(config_path)
    except ValueError as err:
        if args.config is not None:
            raise
        raise ValueError(f"{err}; `gvgkit build --config FILE --out {args.out}` "
                         "replaces it") from None
    seed = getattr(args, "seed", None)
    if seed is not None:
        synth_cfg = dataclasses.replace(synth_cfg, seed=seed)
        train_cfg = dataclasses.replace(train_cfg, seed=seed)
    ablate = getattr(args, "ablate", None)
    if ablate is not None:
        train_cfg = dataclasses.replace(train_cfg, ablation=ablate)
    return synth_cfg, train_cfg


def _store_config(out: Path, synth_cfg: SynthConfig, train_cfg: TrainConfig) -> None:
    payload = {"synth": dataclasses.asdict(synth_cfg),
               "train": dataclasses.asdict(train_cfg)}
    (out / "config.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_split(out: Path, name: str, synth_cfg: SynthConfig) -> SplitData:
    """A split built from ``synth_cfg``: one built from another config is
    an error."""
    path = out / f"{name}.jsonl"
    if not path.exists():
        raise FileNotFoundError(f"missing dataset split {path}; run `gvgkit build` first")
    scenes, expressions, meta = datagen.read_dataset(path)
    if meta.get("config_hash") != synth_cfg.config_hash():
        raise ValueError(f"{path} was built from config {meta.get('config_hash')}, but "
                         f"this run's config hashes {synth_cfg.config_hash()}; run "
                         "`gvgkit build` with this config or use the one it was built from")
    return SplitData(name=name, scenes=scenes, expressions=expressions)


def cmd_build(args) -> int:
    synth_cfg, train_cfg = _resolve_configs(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = gen_scenes(synth_cfg)
    meta = {"seed": synth_cfg.seed, "config_hash": synth_cfg.config_hash()}
    stats = {}
    for name in SPLITS:
        split = dataset.splits[name]
        write_split(split, out / f"{name}.jsonl", meta)
        stats[name] = dataset_stats(split)
    summary = {"seed": synth_cfg.seed, "config_hash": synth_cfg.config_hash(),
               "generation": dataset.meta, "splits": stats}
    (out / "stats.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _store_config(out, synth_cfg, train_cfg)
    print(f"built {sum(s['scenes'] for s in stats.values())} scenes across "
          f"{len(SPLITS)} splits in {out}")
    return 0


def cmd_train(args) -> int:
    synth_cfg, train_cfg = _resolve_configs(args)
    out = Path(args.out)
    stages = (1, 2) if args.stage == "both" else (int(args.stage),)
    split = _load_split(out, "train", synth_cfg)
    result = train_two_stage(split, synth_cfg, train_cfg, stages)
    if result.refiner is not None:
        result.refiner.save(out / "refiner.json", seed=train_cfg.seed)
    if result.params is not None:
        result.params.save(out / "params.json", seed=train_cfg.seed)
    write_log(result.log, out / "log.csv", seed=train_cfg.seed)
    # a later `train --stage 2` trains the same variant
    _store_config(out, synth_cfg, train_cfg)
    print(f"trained stage {args.stage}; checkpoints and log.csv in {out}")
    return 0


def cmd_predict(args) -> int:
    synth_cfg, train_cfg = _resolve_configs(args)
    out = Path(args.out)
    split = _load_split(out, args.split, synth_cfg)
    params = HrsParams.load(out / "params.json")
    if params.d_v != FEATURE_DIMS or params.d_t != FEATURE_DIMS:
        raise ValueError(f"params.json has feature dims d_v = {params.d_v}, d_t = "
                         f"{params.d_t}, not the encoder's {FEATURE_DIMS}")
    refiner = BoxRefiner.load(out / "refiner.json")
    # no-interp-iou is the one variant stage 1 trains under
    if (refiner.ablation == "no-interp-iou") != (params.ablation == "no-interp-iou"):
        raise ValueError(f"refiner.json was trained with ablation {refiner.ablation} and "
                         f"params.json with {params.ablation}, which differ in "
                         "no-interp-iou; re-run `gvgkit train`")
    preds = predict_split(split, synth_cfg, params, refiner,
                          gate_level0=not args.no_gate_level0)
    path = out / f"predictions-{args.split}.jsonl"
    write_predictions(preds, path, seed=train_cfg.seed)
    print(f"wrote {len(preds.records)} prediction records to {path}")
    return 0


def cmd_eval(args) -> int:
    synth_cfg, train_cfg = _resolve_configs(args)
    out = Path(args.out)
    split = _load_split(out, args.split, synth_cfg)
    path = out / f"predictions-{args.split}.jsonl"
    preds = read_predictions(path)
    if preds.meta.get("split") != args.split:
        raise ValueError(f"{path} holds predictions for split {preds.meta.get('split')!r}, "
                         f"not {args.split!r}; re-run `gvgkit predict --split {args.split}`")
    try:
        report = stratify(preds, split.scenes, split.expressions)
    except ValueError as err:   # a record that does not fit the split
        raise ValueError(f"{path}: {err}") from None
    write_report(report, out / f"report-{args.split}.json", seed=train_cfg.seed,
                 fmt="json")
    write_report(report, out / f"report-{args.split}.txt", seed=train_cfg.seed,
                 fmt="table")
    if args.format == "table":
        print(format_table(report))
    else:
        print(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gvgkit",
        description="Desk-scale generalised visual grounding experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config; defaults to <out>/config.json when present")
        p.add_argument("--out", type=Path, required=True, help="run directory")

    p_build = sub.add_parser("build", help="generate dataset splits")
    common(p_build)
    p_build.add_argument("--seed", type=int, default=None,
                         help="override the seed for both data and training")
    p_build.set_defaults(fn=cmd_build)

    p_train = sub.add_parser("train", help="run the two-stage training")
    common(p_train)
    p_train.add_argument("--stage", choices=("1", "2", "both"), default="both")
    p_train.add_argument("--ablate", default=None,
                         help=f"the variant to train: one of {', '.join(VARIANTS)}")
    p_train.set_defaults(fn=cmd_train)

    p_pred = sub.add_parser("predict", help="score a split with a checkpoint")
    common(p_pred)
    p_pred.add_argument("--split", choices=SPLITS, default="test")
    p_pred.add_argument("--no-gate-level0", action="store_true",
                        help="rank by raw referring scores without the "
                             "existence-aware re-ranking of absent referents")
    p_pred.set_defaults(fn=cmd_predict)

    p_eval = sub.add_parser("eval", help="compute the metric report")
    common(p_eval)
    p_eval.add_argument("--split", choices=SPLITS, default="test")
    p_eval.add_argument("--format", choices=("json", "table"), default="table")
    p_eval.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a warning prints as one line, with no file path or source line
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe early (`gvgkit eval | head`): point
        # stdout at devnull so the interpreter's last flush stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, FileNotFoundError, RuntimeError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
