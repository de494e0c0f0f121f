"""Closed-loop benchmark of the gvgkit CLI, run in-process.

One process runs one workload. From the benchmark seed it derives a few
datasets and sets each up (``gvgkit build``, plus checkpoint training on
infer-dense), dataset 0 twice. Then it runs the workload's timed commands
in rounds, one dataset per round in turn, until the time budget is spent;
dataset 0 always runs at least twice. Each command starts only after the
previous one returns. Every command and every output check is one
operation; a failed one is counted, never dropped.

Spreading a run over several datasets, rather than repeating one, makes
the medians depend less on how many dense scenes one seed happens to draw.

Every timed command is bracketed by a fixed calibration loop. A shared
host can change speed by up to 2x from one minute to the next (seen on a
2-vCPU VM), for the program and the loop alike, so the end-to-end metrics
rate each command at the reference speed at which the loop takes
``CAL_REF_S``:
reference seconds = wall seconds x ``CAL_REF_S`` / loop seconds. The raw
wall-clock samples stay in the record.

With tracing on, each dataset runs untraced and then traced, so the
tracing overhead is measured on the same inputs, and the first set-up
build is traced as well; infer-dense's checkpoint training stays untraced.
Per-layer times are wall-clock; the overhead is in reference seconds.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import time
import warnings
from pathlib import Path

import numpy as np
import scipy

from gvgkit import cli, datagen
from gvgkit.synth import EmbeddingTable, SplitData, dataset_stats, encode_proposals, load_config

from spans import Tracer
from workloads import Workload

SPLITS = ("train.jsonl", "val.jsonl", "test.jsonl")
CAL_STEPS = 2500
CAL_REF_S = 0.05         # loop time that defines the reference speed
CHECKPOINTS = ("refiner.json", "params.json")
BUILD_METRICS = ("synth.scenes.gen_scenes_s", "datagen.write_dataset_s", "cli.build.self_s")


class Ops:
    """Attempted and failed operations, with a reason per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def calibrate() -> float:
    """Seconds for a fixed loop of the interpreter-bound work gvgkit does:
    small numpy products, dict updates and JSON round trips."""
    a = np.linspace(-1.0, 1.0, 16 * 40).reshape(16, 40)
    w = np.linspace(1.0, -1.0, 40 * 64).reshape(40, 64)
    table = {}
    start = time.perf_counter()
    for i in range(CAL_STEPS):
        h = np.maximum(a @ w, 0.0)
        table[i % 64] = json.loads(json.dumps({"i": i, "h": float(h[0, 0])}))
    return time.perf_counter() - start


def run_cli(ops: Ops, argv: list[str], tracer: Tracer | None = None,
            run_id: str = "") -> tuple[float, float, int]:
    """Time one ``gvgkit`` command; returns wall seconds, reference seconds
    (see the module docstring) and the number of warnings raised."""
    gc.collect()    # leave no garbage of the previous command to this one
    loop_before = calibrate()
    instrument = tracer.instrument(run_id) if tracer else contextlib.nullcontext()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), instrument:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as err:  # a crash is one failed operation
            rc = f"{type(err).__name__}: {err}"
        elapsed = time.perf_counter() - start
    loop_s = (loop_before + calibrate()) / 2
    ops.check(rc == 0, f"gvgkit {' '.join(argv)} -> {rc}")
    return elapsed, elapsed * CAL_REF_S / loop_s, len(caught)


def dataset_seed(seed: int, k: int) -> int:
    """Seed of dataset ``k`` of a run; distinct for every (seed, k < 100)."""
    return seed * 100 + k


def setup(wl: Workload, seed: int, run_dir: Path, ops: Ops,
          tracer: Tracer | None = None) -> tuple[dict, dict, int]:
    """Build the dataset (and train the checkpoint when the workload asks);
    returns wall and reference seconds per command and the build's
    warning count."""
    run_dir.mkdir(parents=True)
    config = run_dir / "bench-config.json"
    config.write_text(json.dumps({"synth": {**wl.synth, "seed": seed},
                                  "train": {**wl.train, "seed": seed}}))
    out = str(run_dir)
    wall, ref = {}, {}
    wall["build"], ref["build"], warned = run_cli(
        ops, ["build", "--config", str(config), "--out", out], tracer, "build")
    if wl.train_in_setup:
        for stage in ("1", "2"):
            wall[f"train{stage}"], ref[f"train{stage}"], _ = run_cli(
                ops, ["train", "--out", out, "--stage", stage])
    return wall, ref, warned


def run_round(wl: Workload, run_dir: Path, ops: Ops, tracer: Tracer | None = None,
              run_id: str = "") -> tuple[dict, dict]:
    """One round of the workload's timed commands; returns wall and
    reference seconds per command."""
    out = str(run_dir)
    commands = {}
    if not wl.train_in_setup:
        for stage in ("1", "2"):
            commands[f"train{stage}"] = ["train", "--out", out, "--stage", stage]
    for split in wl.splits:
        commands[f"predict-{split}"] = ["predict", "--out", out, "--split", split]
        commands[f"eval-{split}"] = ["eval", "--out", out, "--split", split]
    wall, ref = {}, {}
    for key, argv in commands.items():
        wall[key], ref[key], _ = run_cli(ops, argv, tracer, run_id)
    return wall, ref


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def check_outputs(wl: Workload, run_dir: Path, ops: Ops, sizes: dict) -> dict:
    """Check one round's outputs; returns its fingerprint: checkpoint
    checksums plus each split's Top-1 and Neg-Acc."""
    fingerprint = {name: _sha256(run_dir / name) for name in CHECKPOINTS}
    for split in wl.splits:
        preds = run_dir / f"predictions-{split}.jsonl"
        records = len(preds.read_text().splitlines()) - 1 if preds.exists() else 0
        expected = sizes[split]["expressions"]
        ops.check(records == expected,
                  f"{split}: {records} prediction records for {expected} expressions")
        report_path = run_dir / f"report-{split}.json"
        report = json.loads(report_path.read_text()) if report_path.exists() else {}
        overall = report.get("overall") or {}
        ops.check(overall.get("top1") is not None, f"{split}: eval report lacks the overall row")
        fingerprint[split] = {"top1": overall.get("top1"), "neg_acc": overall.get("neg_acc")}
    return fingerprint


def check_same(ops: Ops, what: str, fingerprints: list[dict]) -> None:
    """Runs at one seed must agree bit for bit."""
    for k, fp in enumerate(fingerprints[1:], start=1):
        ops.check(fp == fingerprints[0],
                  f"{what}: run {k} differs from run 0 at the same seed: "
                  f"{fp} != {fingerprints[0]}")


def input_size(run_dir: Path, splits: tuple[str, ...]) -> dict:
    """What the commands actually ran on, per split. A dense build can
    downgrade scenes, so the density is the one the build produced."""
    synth_cfg, _ = load_config(run_dir / "config.json")
    table = EmbeddingTable(synth_cfg.seed)
    sizes = {}
    for name in splits:
        scenes, exprs, _ = datagen.read_dataset(run_dir / f"{name}.jsonl")
        instance = [e for e in exprs if e.level == "instance"]
        proposals = [len(encode_proposals(s, synth_cfg, table)[1]) for s in scenes]
        texts = [e.text for e in exprs]
        sizes[name] = {
            "scenes": len(scenes),
            "expressions": len(exprs),
            "positive_expressions": sum(e.polarity == "positive" for e in instance),
            "negative_expressions": sum(e.polarity == "negative" for e in instance),
            "image_level_expressions": len(exprs) - len(instance),
            "mean_instances": float(np.mean([len(s.instances) for s in scenes])),
            "mean_proposals": float(np.mean(proposals)),
            "text_repeat_ratio": 1.0 - len(set(texts)) / len(texts) if texts else 0.0,
            "density_histogram": dataset_stats(SplitData(name, scenes, exprs))["density_histogram"],
        }
    return sizes


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = root / ".git" / ref
    if loose.exists():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": _git_commit(root),
        "source_sha256": digest.hexdigest(),
    }


def _median_by_dataset(samples) -> float:
    """Median over datasets of each dataset's median sample, so one dataset
    that drew many dense scenes cannot pull the result."""
    by_dataset: dict[int, list[float]] = {}
    for d, value in samples:
        by_dataset.setdefault(d, []).append(value)
    return statistics.median(statistics.median(v) for v in by_dataset.values())


def end_to_end(wl: Workload, sizes: list[dict], setups: list[tuple[int, dict]],
               rounds: list[tuple[int, dict]]) -> dict:
    """Each end-to-end metric over the set-ups (setup_s, and training on
    infer-dense) or the rounds, given as (dataset, seconds per command);
    every sample is rated at the size of the dataset it ran on."""
    trainings = setups if wl.train_in_setup else rounds
    med = _median_by_dataset

    def exprs(d):
        return sum(sizes[d][s]["expressions"] for s in wl.splits)

    return {
        "setup_s": med((d, sum(t.values())) for d, t in setups),
        "stage1_scenes_per_s": med((d, sizes[d]["train"]["scenes"] * wl.train["stage1_epochs"]
                                    / t["train1"]) for d, t in trainings),
        "stage2_scenes_per_s": med((d, sizes[d]["train"]["scenes"] * wl.train["stage2_epochs"]
                                    / t["train2"]) for d, t in trainings),
        "predict_exprs_per_s": med((d, exprs(d) / sum(t[f"predict-{s}"] for s in wl.splits))
                                   for d, t in rounds),
        "eval_exprs_per_s": med((d, exprs(d) / sum(t[f"eval-{s}"] for s in wl.splits))
                                for d, t in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Tracer, names: list[str], traced: list[str],
              overhead_s: float, test_quality: dict) -> tuple[dict, dict]:
    """Per-layer metrics per traced round (build metrics per traced build),
    and the phase x layer self-time table of the traced rounds."""
    rounds, build = tracer.aggregate(traced), tracer.aggregate(["build"])
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = overhead_s
        elif name in ("evaluation.top1", "evaluation.neg_acc"):
            values[name] = test_quality[name.split(".")[1]]
        else:
            values[name] = (build if name in BUILD_METRICS else rounds).metric(name)
    return values, rounds.self_time_table()


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, root: Path,
                 per_layer_names: list[str] = ()) -> dict:
    """Set up, run rounds for ``seconds``, check every output; returns
    the metrics plus a record of inputs, samples and failures."""
    ops = Ops()
    tracer = Tracer() if trace else None
    work = root / ".perfbench_work" / f"{wl.name}-seed{seed}-{os.getpid()}"
    try:
        dirs = [work / f"data-{d}" for d in range(wl.datasets)]
        again = work / "data-0-again"
        setups, warned = [], []
        for k, run_dir in enumerate(dirs + [again]):
            d = k % wl.datasets
            wall, ref, w = setup(wl, dataset_seed(seed, d), run_dir, ops,
                                 tracer if k == 0 else None)
            setups.append((d, wall, ref))
            warned.append(w)
        check_same(ops, "set-up of dataset 0",
                   [{name: _sha256(run_dir / name) for name in SPLITS + CHECKPOINTS}
                    for run_dir in (dirs[0], again)])
        split_names = tuple(dict.fromkeys(("train",) + wl.splits))
        sizes = [input_size(run_dir, split_names) for run_dir in dirs]

        # untraced: datasets in turn, dataset 0 twice; traced: each dataset
        # untraced, then traced
        plan = ((lambda i: ((i // 2) % wl.datasets, i % 2 == 1)) if trace
                else (lambda i: (i % wl.datasets, False)))
        min_rounds = 2 if trace else wl.datasets + 1
        rounds, traced, fingerprints = [], [], {}
        start = time.perf_counter()
        # start another round only while it would end nearer the budget
        # than stopping now does
        while len(rounds) < min_rounds or (
                time.perf_counter() - start + 0.5 * sum(rounds[-1][1].values()) < seconds):
            d, on = plan(len(rounds))
            wall, ref = run_round(wl, dirs[d], ops, tracer if on else None,
                                  f"round-{len(rounds)}")
            rounds.append((d, wall, ref))
            traced.append(on)
            fingerprints.setdefault(d, []).append(check_outputs(wl, dirs[d], ops, sizes[d]))
        for d, fps in sorted(fingerprints.items()):
            check_same(ops, f"rounds on dataset {d}", fps)

        record = {
            "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
            "environment": environment(root),
            "input": {"dataset_seeds": [dataset_seed(seed, d) for d in range(wl.datasets)],
                      "density_downgrade_warnings": warned[:wl.datasets],
                      "splits": sizes, "train_config": wl.train},
            "fingerprints": [fps[0] for _, fps in sorted(fingerprints.items())],
            "calibration": {"steps": CAL_STEPS, "reference_s": CAL_REF_S},
            "setups_wall_s": [(d, wall) for d, wall, _ in setups],
            "rounds_wall_s": [(d, wall) for d, wall, _ in rounds],
            "traced_rounds": traced,
        }
        if trace:
            # in reference seconds, so that a change of host speed between
            # the two rounds does not pass for tracing overhead
            round_s = [sum(ref.values()) for _, _, ref in rounds]
            # round 2j is untraced and round 2j + 1 traced, on the same dataset
            overhead = statistics.median(round_s[i] - round_s[i - 1]
                                         for i, on in enumerate(traced) if on)
            metrics, table = per_layer(
                tracer, list(per_layer_names),
                [f"round-{i}" for i, on in enumerate(traced) if on],
                overhead, fingerprints[0][0]["test"])
            record["layer_self_s_per_round"] = table
            trace_path = root / ".perfbench_out" / f"trace-{wl.name}-seed{seed}.json"
            tracer.write(trace_path, {"workload": wl.name, "seed": seed})
            record["trace_file"] = str(trace_path.relative_to(root))
        else:
            metrics = end_to_end(wl, sizes, [(d, ref) for d, _, ref in setups],
                                 [(d, ref) for d, _, ref in rounds])
            record["wall_clock_metrics"] = end_to_end(
                wl, sizes, [(d, wall) for d, wall, _ in setups],
                [(d, wall) for d, wall, _ in rounds])
        record["failures"] = ops.failures
        return {"correct": not ops.failures, "attempted": ops.attempted,
                "failed": len(ops.failures), "metrics": metrics, "record": record}
    finally:
        shutil.rmtree(work, ignore_errors=True)
