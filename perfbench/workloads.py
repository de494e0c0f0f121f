"""The benchmark's workloads: generated gvgkit configs, minus the seed.

Each dataset of a run gets a seed derived from the benchmark's ``--seed``
(``harness.dataset_seed``) in both the synth and the train config, so it
fixes the data and the training run. Why each workload exists is recorded
in ``BENCHMARK.json``. Sizes are per dataset, chosen so that one round of
timed commands takes a few seconds on one core.
"""

from __future__ import annotations

from dataclasses import dataclass

# density buckets 1-10, 11-20, 21-30, >30: no sparse scenes at all
DENSE_MIX = (0.0, 0.5, 0.35, 0.15)


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict
    train: dict
    # splits that every timed round predicts and evaluates
    splits: tuple[str, ...]
    # True: the checkpoint is trained during set-up and rounds only run
    # predict/eval; False: every round trains stage 1 and stage 2 first
    train_in_setup: bool = False
    # distinct datasets per run, each derived from the benchmark seed
    datasets: int = 5


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-sparse",
        synth={"n_scenes": 100, "split_ratios": [0.5, 0.1, 0.4]},
        train={"stage1_epochs": 6, "stage2_epochs": 1},
        splits=("test",),
    ),
    Workload(
        name="train-dense",
        synth={"n_scenes": 60, "split_ratios": [0.55, 0.1, 0.35],
               "density_probs": list(DENSE_MIX)},
        train={"stage1_epochs": 5, "stage2_epochs": 1},
        splits=("test",),
    ),
    Workload(
        name="infer-dense",
        synth={"n_scenes": 80, "split_ratios": [0.3, 0.3, 0.4],
               "density_probs": list(DENSE_MIX)},
        train={"stage1_epochs": 8, "stage2_epochs": 2},
        splits=("val", "test"),
        train_in_setup=True,
        datasets=3,
    ),
)}
