#!/usr/bin/env python3
"""End-to-end walkthrough of README's minimal synthetic config, no files needed.

Its one intra cell is trained and evaluated by the harness calls ``evofa compare`` makes, so the supervised
and 1-shot rows equal compare's cell rows. Added: 5-shot rows on the same episodes, and the alignment drop of
one adaptation round under a fixed kernel. Runs in about 5 seconds on 2 vCPUs.
"""
import time
from dataclasses import replace

import numpy as np

from evofa import harness
from evofa.adapt import evofa_run, mean_alignment, sample_snapshots_intra
from evofa.backbone import encode_rows
from evofa.mmd import KernelSpec

# README's "Minimal synthetic example", key for key
CONFIG = harness.experiment_config_from_obj({
    "dataset": {"synthetic": {"num_subjects": 1, "num_sessions": 3, "trials_per_session": 15, "samples_per_trial": 20,
        "num_classes": 3, "n_electrodes": 6, "d_bands": 4, "class_separation": 1.0, "intra_drift_rate": 2.0,
        "inter_subject_offset_scale": 0.0, "noise_std": 1.0, "rng_seed": 0}},
    "protocol": "intra",
    "backbone": {"n_electrodes": 6, "d_bands": 4, "conv_channels": [8, 8, 8, 16], "embedding_dim": 16,
        "adapter_hidden": 32},
    "train": {"episodes_per_epoch": 30, "max_epochs": 5, "learning_rate": 0.3, "way": 3, "shot": 1, "queries": 10,
        "validation_episodes": 20},
    "adapt": {"n_snapshots": 3, "snapshot_size": 32, "eta_in": 0.01, "eta_out": 0.01, "max_iter": 1,
        "target_calibration_size": 30},
    "supervised": {"num_classes": 3, "max_epochs": 20}, "eval_episodes": 200, "seed": 0,
})


def main() -> int:
    ds = harness.load_dataset(CONFIG)
    [cell] = harness.plan_cells(CONFIG, ds)
    pools = harness.cell_pools(CONFIG, ds, *cell)
    train, val, test = pools
    print(f"dataset: {len(ds)} samples, schema {ds.schema}, {ds.num_classes} classes")
    print(f"splits: train {len(train)} / val {len(val)} / test {len(test)} (sessions 1/2/3)")
    t0 = time.time()
    model = harness.train_cell(CONFIG, pools, *cell)
    print(f"meta-trained prototypical model in {time.time() - t0:.0f}s")
    supervised = harness.train_supervised_cell(CONFIG, pools, *cell)
    rows = harness.evaluate_cell(CONFIG, model, pools, *cell, (None, CONFIG.adapt), [1, 5], supervised)
    acc = {(r.method, r.shots): r.mean_accuracy for r in rows}
    print(f"supervised 0-shot: {acc['supervised', 0]:.4f}  (whole test pool, no calibration)")
    for shot in (1, 5):
        base, adapted = acc["fsl", shot], acc["fsl+evofa", shot]
        print(f"fsl {shot}-shot:       {base:.4f}  fsl+evofa: {adapted:.4f}  (paired delta {adapted - base:+.4f})")
    # what adaptation optimizes, under a fixed kernel so that before and after compare; these draws feed no row
    fixed = replace(CONFIG.adapt, kernel=KernelSpec((2.0,), (1.0,)))
    snaps = sample_snapshots_intra(train, fixed, np.random.default_rng(7))[None]
    picks = np.random.default_rng(8).choice(len(test), size=fixed.target_calibration_size, replace=False)
    train_rows, target = encode_rows(model, train.features), encode_rows(model, test.features)[picks][None]
    alignment = lambda: mean_alignment(model.phi, train_rows, snaps, target, fixed)[0]
    before = alignment()
    evofa_run(model.phi, train_rows, [snaps] * fixed.max_iter, target, fixed)
    print(f"adapter alignment: snapshot-vs-target MMD^2 {before:.5f} -> {alignment():.5f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
