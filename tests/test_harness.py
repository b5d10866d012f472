"""Tests for protocol orchestration, result tables, and config round trips."""
import json
from dataclasses import replace

import numpy as np
import pytest

from evofa import harness
from evofa.adapt import AdaptConfig
from evofa.backbone import BackboneConfig
from evofa.data import DriftConfig, generate_synthetic_drift
from evofa.errors import ConfigError, ProtocolError
from evofa.fsl import SupervisedConfig, TrainConfig
from evofa.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    ResultRow,
    ResultTable,
    cell_pools,
    cell_seed,
    config_to_obj,
    derive_seed,
    evaluate_cell,
    experiment_config_from_obj,
    load_experiment_config,
    plan_cells,
    run_protocol,
    train_cell,
    write_run_manifest,
)
from evofa.mmd import KernelSpec

BACKBONE = BackboneConfig(
    n_electrodes=4,
    d_bands=3,
    conv_channels=(2, 2, 2, 4),
    embedding_dim=4,
    adapter_hidden=8,
)

DATASET = DriftConfig(
    num_subjects=2,
    num_sessions=3,
    trials_per_session=6,
    samples_per_trial=10,
    num_classes=3,
    n_electrodes=4,
    d_bands=3,
    class_separation=3.0,
    intra_drift_rate=0.5,
    inter_subject_offset_scale=1.0,
    noise_std=1.0,
    rng_seed=11,
)

CONFIG = ExperimentConfig(
    dataset=DATASET,
    protocol="intra",
    train=TrainConfig(
        backbone=BACKBONE,
        episodes_per_epoch=5,
        max_epochs=2,
        learning_rate=0.1,
        way=3,
        shot=1,
        queries=5,
        validation_episodes=5,
    ),
    adapt=AdaptConfig(n_snapshots=2, snapshot_size=8),
    supervised=SupervisedConfig(backbone=BACKBONE, num_classes=3, max_epochs=3),
    eval_episodes=6,
    seed=3,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic_drift(DATASET)


@pytest.fixture(scope="module")
def table(dataset):
    return run_protocol(CONFIG, dataset)


def row(**overrides):
    base = dict(
        protocol="intra",
        subject="1",
        session="3",
        method="fsl",
        shots=1,
        way=3,
        queries=5,
        episodes=6,
        mean_accuracy=0.5,
        std_accuracy=0.1,
        std_over="episodes",
        wall_clock_seconds=1.0,
    )
    base.update(overrides)
    return ResultRow(**base)


# -- result rows and aggregation ---------------------------------------------------


def test_row_rejects_accuracy_outside_unit_interval():
    with pytest.raises(ConfigError, match="outside"):
        row(mean_accuracy=1.5)


def test_row_rejects_negative_std():
    with pytest.raises(ConfigError, match="negative std"):
        row(std_accuracy=-0.1)


def test_row_rejects_unknown_method():
    with pytest.raises(ConfigError, match="method"):
        row(method="oracle")


def test_aggregate_recomputes_mean_and_subject_std():
    cells = [
        row(subject="1", mean_accuracy=0.5, episodes=6, wall_clock_seconds=1.0),
        row(subject="2", mean_accuracy=0.9, episodes=6, wall_clock_seconds=2.0),
        row(subject="1", method="fsl+evofa", mean_accuracy=0.7),
        row(subject="2", method="fsl+evofa", mean_accuracy=0.8),
    ]
    agg = ResultTable.aggregate(cells)
    assert [(r.method, r.shots) for r in agg] == [("fsl", 1), ("fsl+evofa", 1)]
    fsl, evofa = agg
    assert fsl.subject == "all" and fsl.session == "all"
    assert fsl.std_over == "subjects"
    assert fsl.episodes == 12
    assert abs(fsl.mean_accuracy - 0.7) < 1e-12
    assert abs(fsl.std_accuracy - np.std([0.5, 0.9])) < 1e-12
    assert abs(fsl.wall_clock_seconds - 3.0) < 1e-12
    assert abs(evofa.mean_accuracy - 0.75) < 1e-12


def test_aggregate_groups_by_method_and_shots():
    cells = [row(shots=1), row(shots=5), row(shots=1, subject="2")]
    agg = ResultTable.aggregate(cells)
    assert [(r.method, r.shots, r.episodes) for r in agg] == [
        ("fsl", 1, 12),
        ("fsl", 5, 6),
    ]


def test_with_aggregates_appends_after_cells():
    t = ResultTable([row(subject="1"), row(subject="2")]).with_aggregates()
    assert [r.subject for r in t.rows] == ["1", "2", "all"]
    assert t.cell_rows() == t.rows[:2]
    assert t.aggregate_rows() == t.rows[2:]


# -- CSV and JSON rendering ---------------------------------------------------------


def test_csv_header_and_columns():
    text = ResultTable([row()]).to_csv_text()
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert "wall" not in text  # timing lives in the JSON report only


def test_csv_uses_12_digit_floats():
    text = ResultTable([row(mean_accuracy=2 / 3)]).to_csv_text()
    assert "0.666666666667" in text


def test_json_report_carries_semantics_and_timing(tmp_path):
    t = ResultTable([row()])
    csv_path, json_path = t.write(tmp_path)
    assert csv_path.read_text() == t.to_csv_text()
    obj = json.loads(json_path.read_text())
    assert obj["version"].startswith("evofa-")
    assert set(obj["std_semantics"]) == {"episodes", "subjects", "pool"}
    assert obj["rows"][0]["wall_clock_seconds"] == 1.0
    assert obj["rows"][0]["mean_accuracy"] == 0.5


# -- seeds and planning --------------------------------------------------------------


def test_derive_seed_is_deterministic_and_sensitive():
    assert derive_seed(3, 1, 1, 0) == derive_seed(3, 1, 1, 0)
    seen = {derive_seed(3, i, j, k) for i in range(3) for j in range(3) for k in range(3)}
    assert len(seen) == 27
    assert all(0 <= s < 2**32 for s in seen)


def test_plan_cells_intra_lists_subjects(dataset):
    assert plan_cells(CONFIG, dataset) == [(1, None), (2, None)]
    only_two = replace(CONFIG, subjects=(2,))
    assert plan_cells(only_two, dataset) == [(2, None)]


def test_plan_cells_inter_is_session_major(dataset):
    cfg = replace(CONFIG, protocol="inter", sessions=(1, 2))
    assert plan_cells(cfg, dataset) == [(1, 1), (2, 1), (1, 2), (2, 2)]


def test_plan_cells_rejects_unknown_subject(dataset):
    with pytest.raises(ProtocolError, match="subject 9"):
        plan_cells(replace(CONFIG, subjects=(9,)), dataset)


def test_run_protocol_rejects_schema_mismatch(dataset):
    wrong = replace(
        CONFIG, train=replace(CONFIG.train, backbone=replace(BACKBONE, n_electrodes=6))
    )
    with pytest.raises(ConfigError, match="features"):
        run_protocol(wrong, dataset)


def test_run_protocol_rejects_too_many_ways(dataset):
    wide = replace(CONFIG, train=replace(CONFIG.train, way=5))
    with pytest.raises(ConfigError, match="5-way"):
        run_protocol(wide, dataset)


# -- protocol execution ---------------------------------------------------------------


def test_protocol_row_layout(table):
    cells = table.cell_rows()
    assert [r.subject for r in cells] == ["1", "1", "1", "2", "2", "2"]
    assert [r.method for r in cells] == ["supervised", "fsl", "fsl+evofa"] * 2
    assert all(r.session == "3" for r in cells)
    agg = table.aggregate_rows()
    assert [r.method for r in agg] == ["supervised", "fsl", "fsl+evofa"]
    assert all(r.subject == "all" for r in agg)


def test_protocol_episode_counts_and_pairing(table):
    for r in table.cell_rows():
        if r.method == "supervised":
            assert r.shots == 0 and r.episodes == 0 and r.std_over == "pool"
        else:
            assert r.shots == 1 and r.episodes == 6 and r.std_over == "episodes"


def test_csv_bytes_deterministic_across_runs(table, dataset):
    again = run_protocol(CONFIG, dataset)
    assert again.to_csv_text() == table.to_csv_text()


def test_zero_rate_adaptation_reduces_to_baseline(dataset):
    noop = replace(
        CONFIG,
        subjects=(1,),
        include_supervised=False,
        adapt=replace(CONFIG.adapt, eta_in=0.0, eta_out=0.0),
    )
    t = run_protocol(noop, dataset)
    fsl = [r for r in t.cell_rows() if r.method == "fsl"]
    evofa = [r for r in t.cell_rows() if r.method == "fsl+evofa"]
    assert len(fsl) == len(evofa) == 1
    assert fsl[0].mean_accuracy == evofa[0].mean_accuracy
    assert fsl[0].std_accuracy == evofa[0].std_accuracy


@pytest.fixture(scope="module")
def trained_cell(dataset):
    pools = cell_pools(CONFIG, dataset, 1, None)
    return train_cell(CONFIG, pools, 1, None), pools


def test_evaluate_cell_orders_rows_by_shot_then_method(trained_cell):
    model, pools = trained_cell
    rows = evaluate_cell(CONFIG, model, pools, 1, None, (None, CONFIG.adapt), [1, 2])
    assert [(r.method, r.shots) for r in rows] == [
        ("fsl", 1),
        ("fsl+evofa", 1),
        ("fsl", 2),
        ("fsl+evofa", 2),
    ]
    assert all(r.episodes == CONFIG.eval_episodes for r in rows)
    assert all(r.wall_clock_seconds > 0 for r in rows)
    assert len(ResultTable(rows).with_aggregates().aggregate_rows()) == 4


def test_compare_and_evaluate_draw_from_distinct_seeds(trained_cell, monkeypatch):
    model, pools = trained_cell
    seeds = []
    real = harness.evofa_test

    def spy(*args):
        seeds.append(args[4].rng_seed)
        return real(*args)

    monkeypatch.setattr(harness, "evofa_test", spy)
    evaluate_cell(CONFIG, model, pools, 1, None, (None,))  # compare: the config's shot
    evaluate_cell(CONFIG, model, pools, 1, None, (None,), [1, 2])  # evaluate --shots 1,2
    unkeyed = derive_seed(CONFIG.seed, 2, 1, 0)
    per_shot = [derive_seed(CONFIG.seed, 2, 1, 0, k) for k in (1, 2)]
    assert seeds == [unkeyed] + per_shot
    assert len(set(seeds)) == 3
    assert cell_seed(CONFIG, 2, 1, None) == unkeyed
    assert cell_seed(CONFIG, 2, 1, 2) == derive_seed(CONFIG.seed, 2, 1, 3)  # inter: 1 + session


# -- artifacts -------------------------------------------------------------------------


def test_run_manifest_round_trips_config(tmp_path):
    path = write_run_manifest(tmp_path, CONFIG)
    obj = json.loads(path.read_text())
    assert obj["version"].startswith("evofa-")
    assert obj["seed"] == CONFIG.seed
    assert obj["created_unix"] > 0
    assert experiment_config_from_obj(obj["config"]) == CONFIG


# -- config (de)serialization ----------------------------------------------------------


def test_config_round_trip_defaults():
    assert experiment_config_from_obj(config_to_obj(CONFIG)) == CONFIG


def test_config_round_trip_kernel_spec_and_import_path():
    cfg = replace(
        CONFIG,
        dataset="data/manifest.json",
        supervised=None,
        adapt=replace(CONFIG.adapt, kernel=KernelSpec((0.5, 1.0, 2.0), (1.0, 1.0, 1.0))),
        subjects=(1, 2),
        sessions=(2,),
        persist_adaptation=True,
        include_supervised=False,
    )
    assert experiment_config_from_obj(config_to_obj(cfg)) == cfg


def test_config_json_round_trip_through_text():
    text = json.dumps(config_to_obj(CONFIG))
    assert experiment_config_from_obj(json.loads(text)) == CONFIG


def test_config_rejects_non_object():
    with pytest.raises(ConfigError, match="must be an object"):
        experiment_config_from_obj([1, 2])


def test_config_rejects_unknown_top_level_key():
    obj = config_to_obj(CONFIG)
    obj["optimizer"] = "adam"
    with pytest.raises(ConfigError, match="unknown config keys.*optimizer"):
        experiment_config_from_obj(obj)


def test_config_requires_dataset():
    obj = config_to_obj(CONFIG)
    del obj["dataset"]
    with pytest.raises(ConfigError, match="dataset"):
        experiment_config_from_obj(obj)


def test_config_rejects_malformed_dataset():
    obj = config_to_obj(CONFIG)
    obj["dataset"] = {"synthetic": {}, "import": "x"}
    with pytest.raises(ConfigError, match="synthetic.*import"):
        experiment_config_from_obj(obj)
    obj["dataset"] = {"records": []}
    with pytest.raises(ConfigError, match="synthetic.*import"):
        experiment_config_from_obj(obj)
    obj["dataset"] = {"import": {"manifest": "data/manifest.json"}}
    with pytest.raises(ConfigError, match="import.*path string"):
        experiment_config_from_obj(obj)


@pytest.mark.parametrize(
    "section,key",
    [
        ("backbone", "depth"),
        ("train", "optimizer"),
        ("adapt", "momentum"),
        ("supervised", "dropout"),
    ],
)
def test_config_rejects_unknown_nested_keys(section, key):
    obj = config_to_obj(CONFIG)
    obj[section][key] = 1
    with pytest.raises(ConfigError, match=f"bad {section}"):
        experiment_config_from_obj(obj)


def test_config_rejects_unknown_synthetic_key():
    obj = config_to_obj(CONFIG)
    obj["dataset"]["synthetic"]["gain"] = 2.0
    with pytest.raises(ConfigError, match="bad synthetic dataset"):
        experiment_config_from_obj(obj)


def test_config_rejects_bad_protocol():
    obj = config_to_obj(CONFIG)
    obj["protocol"] = "cross"
    with pytest.raises(ConfigError, match="protocol"):
        experiment_config_from_obj(obj)


def test_load_experiment_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_experiment_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_experiment_config(bad)


def test_load_experiment_config_round_trip(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config_to_obj(CONFIG)))
    assert load_experiment_config(path) == CONFIG
