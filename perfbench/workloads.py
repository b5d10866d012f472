"""The benchmark's workloads: inputs made from a seed, commands, expected outputs.

Every workload is a list of ``evofa`` CLI commands over a config that this
module writes from ``--seed`` (the seed is both the synthetic generator's
``rng_seed`` and the experiment ``seed``). ``smoke=True`` shrinks every
count so the whole pipeline runs in seconds with the same code paths.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

CSV_COLUMNS = (
    "protocol,subject,session,method,shots,way,queries,episodes,"
    "mean_accuracy,std_accuracy,std_over"
)

# Span names every traced repetition must hit (a name with zero calls fails the run).
_EVERY = (
    "autodiff.conv2d", "autodiff.conv2d.bwd", "autodiff.backward",
    "backbone.encode", "backbone.adapt", "mmd.mmd2", "mmd.median_heuristic",
    "fsl.meta_train", "fsl.sample_episode", "fsl.classify_query",
    "adapt.evofa_test", "adapt.evofa_run", "adapt.inner_adapt", "adapt.outer_update",
    "adapt.sample_snapshots", "data.split", "data.select", "harness.load_config",
    "harness.write_results",
)
_COMPARE = _EVERY + (
    "cli.compare", "harness.run_protocol", "harness.run_cell", "data.generate",
    "fsl.train_supervised_baseline", "fsl.classify_pool",
)
_INTER = _EVERY + (
    "cli.train", "cli.evaluate", "data.import_features", "checkpoint.save",
    "checkpoint.load", "checkpoint.crc64",
)


def _synthetic(seed: int, **overrides) -> dict:
    base = {
        "num_subjects": 2, "num_sessions": 3, "trials_per_session": 15,
        "samples_per_trial": 20, "num_classes": 3, "n_electrodes": 6, "d_bands": 4,
        "class_separation": 1.0, "intra_drift_rate": 2.0,
        "inter_subject_offset_scale": 0.0, "noise_std": 1.0, "rng_seed": seed,
    }
    return {**base, **overrides}


def _backbone(n_electrodes: int, d_bands: int) -> dict:
    return {"n_electrodes": n_electrodes, "d_bands": d_bands, "conv_channels": [8, 8, 8, 16],
            "embedding_dim": 16, "adapter_hidden": 32}


def _demo(seed: int, smoke: bool) -> dict:
    """The README experiment config with two subjects (two intra cells)."""
    return {
        "dataset": {"synthetic": _synthetic(seed)},
        "protocol": "intra",
        "backbone": _backbone(6, 4),
        "train": {"episodes_per_epoch": 2 if smoke else 30, "max_epochs": 1 if smoke else 5,
                  "learning_rate": 0.3, "way": 3, "shot": 1, "queries": 10,
                  "validation_episodes": 2 if smoke else 20},
        "adapt": {"n_snapshots": 3, "snapshot_size": 32, "eta_in": 0.01, "eta_out": 0.01,
                  "max_iter": 1, "target_calibration_size": 30},
        "supervised": {"num_classes": 3, "max_epochs": 1 if smoke else 20},
        "eval_episodes": 3 if smoke else 200,
        "seed": seed,
    }


def _seed_shaped(seed: int, smoke: bool) -> dict:
    """SEED-shaped features (62 electrodes x 5 bands), one intra cell, few episodes."""
    return {
        "dataset": {"synthetic": _synthetic(
            seed, num_subjects=1, trials_per_session=6, samples_per_trial=4 if smoke else 6,
            n_electrodes=62, d_bands=5)},
        "protocol": "intra",
        "backbone": _backbone(62, 5),
        "train": {"episodes_per_epoch": 1 if smoke else 2, "max_epochs": 1, "learning_rate": 0.3,
                  "way": 3, "shot": 1, "queries": 2 if smoke else 10, "validation_episodes": 1},
        "adapt": {"n_snapshots": 2, "snapshot_size": 2 if smoke else 8, "eta_in": 0.01,
                  "eta_out": 0.01, "max_iter": 1, "target_calibration_size": 6},
        "supervised": {"num_classes": 3, "max_epochs": 1, "batch_size": 32},
        "eval_episodes": 1 if smoke else 2,
        "seed": seed,
    }


def _inter_generator(seed: int, smoke: bool) -> dict:
    """15 subjects x 3 sessions x 15 trials x 20 samples of 8x4 features: 675 files."""
    return _synthetic(
        seed, num_subjects=15, samples_per_trial=4 if smoke else 20, n_electrodes=8,
        class_separation=2.0, intra_drift_rate=1.0, inter_subject_offset_scale=0.5)


def _inter(seed: int, smoke: bool, manifest: str) -> dict:
    return {
        "dataset": {"import": manifest},
        "protocol": "inter",
        "backbone": _backbone(8, 4),
        "train": {"episodes_per_epoch": 2 if smoke else 30, "max_epochs": 1 if smoke else 3,
                  "learning_rate": 0.3, "way": 3, "shot": 1, "queries": 10,
                  "validation_episodes": 2 if smoke else 10},
        "adapt": {"n_snapshots": 3, "snapshot_size": 8 if smoke else 32, "eta_in": 0.01,
                  "eta_out": 0.01, "max_iter": 1, "target_calibration_size": 30},
        "eval_episodes": 3 if smoke else 40,
        "seed": seed,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    required_spans: tuple[str, ...]
    # (subject, method, shots) per results.csv row, in file order
    expected_rows: tuple[tuple[str, str, int], ...]

    def prepare(self, work: Path, seed: int, smoke: bool) -> tuple[Path, list[str] | None]:
        """Write the experiment config; return it plus the set-up command, if any."""
        config = work / "experiment.json"
        setup = None
        if self.name == "inter-cli-8x4":
            generator = work / "generator.json"
            generator.write_text(json.dumps(_inter_generator(seed, smoke)))
            container = work / "container"
            setup = ["synth-gen", "--config", str(generator), "--out", str(container)]
            obj = _inter(seed, smoke, str(container / "manifest.json"))
        elif self.name == "demo-6x4":
            obj = _demo(seed, smoke)
        else:
            obj = _seed_shaped(seed, smoke)
        config.write_text(json.dumps(obj, indent=2))
        return config, setup

    def commands(self, config: Path, out: Path) -> list[list[str]]:
        if self.name != "inter-cli-8x4":
            return [["compare", "--config", str(config), "--out", str(out)]]
        return [
            ["train", "--config", str(config), "--out", str(out)],
            ["evaluate", "--config", str(config), "--checkpoint",
             str(out / "checkpoints" / "model.ckpt"), "--out", str(out),
             "--adapt", "on", "--shots", "1,5"],
        ]


def _compare_rows(subjects: int) -> tuple[tuple[str, str, int], ...]:
    methods = (("supervised", 0), ("fsl", 1), ("fsl+evofa", 1))
    labels = [str(s) for s in range(1, subjects + 1)] + ["all"]
    return tuple((label, m, k) for label in labels for m, k in methods)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("demo-6x4", _COMPARE, _compare_rows(2)),
        Workload("seed-62x5", _COMPARE, _compare_rows(1)),
        Workload(
            "inter-cli-8x4", _INTER,
            (("1", "fsl+evofa", 1), ("1", "fsl+evofa", 5),
             ("all", "fsl+evofa", 1), ("all", "fsl+evofa", 5)),
        ),
    )
}
