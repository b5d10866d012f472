"""Tests for protocol orchestration, result tables, and config round trips."""
import hashlib
import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evofa import backbone, harness
from evofa.adapt import AdaptConfig, EvalConfig
from evofa.backbone import BackboneConfig
from evofa.data import FIELD_RULES, DriftConfig, generate_synthetic_drift
from evofa.errors import ConfigError, ProtocolError
from evofa.fsl import EPISODIC_HEADS, SupervisedConfig, TrainConfig
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
    train_supervised_cell,
    write_run_manifest,
)
from evofa.mmd import KernelSpec

from jsonfuzz import mutated, mutation_lists

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
    backbone=BACKBONE,
    protocol="intra",
    train=TrainConfig(
        episodes_per_epoch=5,
        max_epochs=2,
        learning_rate=0.1,
        way=3,
        shot=1,
        queries=5,
        validation_episodes=5,
    ),
    adapt=AdaptConfig(n_snapshots=2, snapshot_size=8),
    supervised=SupervisedConfig(num_classes=3, max_epochs=3),
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
    with pytest.raises(ConfigError, match=r"^mean_accuracy must be a number in \[0, 1\], got 1.5$"):
        row(mean_accuracy=1.5)


@pytest.mark.parametrize("std", [-0.1, float("nan"), float("inf")])
def test_row_rejects_negative_or_non_finite_std(std):
    with pytest.raises(ConfigError, match=r"^std_accuracy must be a number in \[0, 1\]"):
        row(std_accuracy=std)


@pytest.mark.parametrize(
    "field,value,must",
    [("subject", 1, "a string"), ("shots", -1, "a nonnegative integer"), ("way", 0, "a positive integer"),
     ("episodes", 2.5, "a nonnegative integer"), ("wall_clock_seconds", -1.0, "a finite nonnegative number")],
)
def test_row_holds_each_field_to_its_annotated_rule(field, value, must):
    with pytest.raises(ConfigError, match=f"^{field} must be {must}, got {re.escape(repr(value))}$"):
        row(**{field: value})


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
    wrong = replace(CONFIG, backbone=replace(BACKBONE, n_electrodes=6))
    with pytest.raises(ConfigError, match="features"):
        run_protocol(wrong, dataset)


def test_run_protocol_rejects_too_many_ways(dataset):
    wide = replace(CONFIG, train=replace(CONFIG.train, way=5))
    with pytest.raises(ConfigError, match="5-way"):
        run_protocol(wide, dataset)


@pytest.mark.parametrize("num_classes", [2, 5])
def test_plan_cells_rejects_supervised_num_classes_other_than_the_datasets(dataset, num_classes):
    # 2 was a bare IndexError mid-run; 5 trained a 5-class head on 3-class data
    cfg = replace(CONFIG, supervised=replace(CONFIG.supervised, num_classes=num_classes))
    with pytest.raises(ConfigError, match=f"supervised num_classes {num_classes} must equal the dataset's 3"):
        plan_cells(cfg, dataset)


def test_run_protocol_rejects_one_class_dataset_for_supervised_baseline_before_training(monkeypatch):
    # the default supervised config takes the dataset's class count; one class used to
    # fail only after the first cell had meta-trained, naming no config field
    one_class = replace(CONFIG, dataset=replace(DATASET, num_classes=1), supervised=None,
                        train=replace(CONFIG.train, way=1))
    ds = generate_synthetic_drift(one_class.dataset)
    monkeypatch.setattr(harness, "meta_train", lambda *args, **kwargs: pytest.fail("a cell trained"))
    with pytest.raises(ConfigError, match="include_supervised needs .* the dataset has 1"):
        run_protocol(one_class, ds)
    assert plan_cells(one_class, ds) == [(1, None), (2, None)]  # train and evaluate plan no baseline


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


# Two micro protocols whose results.csv digests were recorded when pools were
# still lists of per-sample objects: the column-wise data model must keep every
# byte. Adaptation rates are high enough that fsl+evofa rows differ from fsl.
GOLDEN = {
    "intra": (
        replace(
            CONFIG,
            adapt=AdaptConfig(
                n_snapshots=2,
                snapshot_size=8,
                target_calibration_size=10,
                eta_in=0.5,
                eta_out=0.5,
                max_iter=2,
            ),
            eval_episodes=4,
        ),
        "b211a8aec9314fb38371448b0c47e1f008087c0cd64369a9141adf0909c9c1b3",
    ),
    "inter": (
        ExperimentConfig(
            dataset=DriftConfig(
                num_subjects=14,
                num_sessions=1,
                trials_per_session=3,
                samples_per_trial=6,
                num_classes=3,
                n_electrodes=4,
                d_bands=3,
                rng_seed=5,
            ),
            backbone=BACKBONE,
            protocol="inter",
            train=TrainConfig(
                episodes_per_epoch=3,
                max_epochs=2,
                learning_rate=0.1,
                way=3,
                shot=1,
                queries=3,
                validation_episodes=3,
            ),
            adapt=AdaptConfig(
                n_snapshots=3,
                snapshot_size=4,
                target_calibration_size=6,
                eta_in=0.5,
                eta_out=0.5,
                max_iter=2,
            ),
            supervised=SupervisedConfig(num_classes=3, max_epochs=2),
            eval_episodes=3,
            seed=8,
            subjects=(2, 9),
        ),
        "36463310c5bb89b965e124bd70de44abda15a7043d1e10402aa48aa1efd08a08",
    ),
}


@pytest.mark.parametrize("protocol", list(GOLDEN))
def test_results_csv_bytes_match_golden_digest(protocol):
    cfg, digest = GOLDEN[protocol]
    text = run_protocol(cfg).to_csv_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("adapted", [True, False], ids=["adapted", "unadapted"])
def test_evaluate_cell_encodes_each_pool_once(trained_cell, monkeypatch, adapted):
    """Eval-mode encoder rows over two shots: the test pool once, the train pool once if adapting."""
    model, pools = trained_cell
    train, _, test = pools
    encoded = []
    real = backbone.encode

    def spy(features, model, mode="eval"):
        if mode == "eval":
            encoded.append(features.shape[0])
        return real(features, model, mode=mode)

    monkeypatch.setattr(backbone, "encode", spy)
    adapt_cfgs = (None, CONFIG.adapt) if adapted else (None,)
    evaluate_cell(CONFIG, model, pools, 1, None, adapt_cfgs, [1, 2])
    assert sum(encoded) == len(test) + (len(train) if adapted else 0)


def test_compare_and_evaluate_draw_every_shot_from_the_cell_evaluation_seed(dataset, trained_cell, monkeypatch):
    model, pools = trained_cell
    seeds = []
    real = harness.evofa_test

    def spy(*args, **kwargs):
        seeds.append(args[4].rng_seed)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "evofa_test", spy)
    compared = replace(CONFIG, subjects=(1,), include_supervised=False)
    run_protocol(compared, dataset)  # compare: fsl and fsl+evofa at the config's shot
    evaluate_cell(CONFIG, model, pools, 1, None, (None,), [1, 2])  # evaluate --shots 1,2
    assert seeds == [cell_seed(CONFIG, 2, 1, None)] * 4
    assert cell_seed(CONFIG, 2, 1, None) == derive_seed(CONFIG.seed, 2, 1, 0)
    assert cell_seed(CONFIG, 2, 1, 2) == derive_seed(CONFIG.seed, 2, 1, 3)  # inter: 1 + session


def test_run_protocol_trains_both_models_on_the_one_backbone(dataset, monkeypatch):
    cfg = replace(CONFIG, subjects=(2,))
    calls = []

    def spy(name, real):
        def trainer(*args, **kwargs):
            calls.append((name, args[3], args[4]))
            return real(*args, **kwargs)
        return trainer

    monkeypatch.setattr(harness, "meta_train", spy("fsl", harness.meta_train))
    monkeypatch.setattr(harness, "train_supervised_baseline", spy("supervised", harness.train_supervised_baseline))
    run_protocol(cfg, dataset)
    assert [(name, seed) for name, _, seed in calls] == [
        ("fsl", cell_seed(cfg, 1, 2, None)), ("supervised", cell_seed(cfg, 4, 2, None))
    ]
    assert all(arch is cfg.backbone for _, arch, _ in calls)


@pytest.mark.parametrize("section", [None, SupervisedConfig(num_classes=3, max_epochs=2)])
def test_train_supervised_cell_passes_the_cells_pools_seed_and_supervised_section(dataset, monkeypatch, section):
    # with no supervised section, SupervisedConfig's defaults at the class count the pool keeps from its dataset
    cfg = replace(CONFIG, supervised=section)
    calls = []
    monkeypatch.setattr(harness, "train_supervised_baseline", lambda *args: calls.append(args))
    pools = cell_pools(cfg, dataset, 2, None)
    train_supervised_cell(cfg, pools, 2, None)
    [(train, val, scfg, arch, seed)] = calls
    assert train is pools[0] and val is pools[1] and arch is cfg.backbone
    assert scfg == (section or SupervisedConfig(num_classes=dataset.num_classes))
    assert seed == cell_seed(cfg, 4, 2, None)


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
        protocol="inter",
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
    with pytest.raises(ConfigError, match="^experiment config has unknown key 'optimizer'$"):
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
    with pytest.raises(ConfigError, match="^config dataset has unknown key 'records'$"):
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
    with pytest.raises(ConfigError, match=f"^config {section} has unknown key '{key}'$"):
        experiment_config_from_obj(obj)


def test_config_rejects_unknown_synthetic_key():
    obj = config_to_obj(CONFIG)
    obj["dataset"]["synthetic"]["gain"] = 2.0
    with pytest.raises(ConfigError, match="^config dataset synthetic has unknown key 'gain'$"):
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


def test_load_experiment_config_rejects_non_utf8_naming_file(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"protocol": "intra\xe9"}'.encode("latin-1"))
    with pytest.raises(ConfigError, match=f"config {bad} is not valid JSON"):
        load_experiment_config(bad)


def test_load_experiment_config_round_trip(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config_to_obj(CONFIG)))
    assert load_experiment_config(path) == CONFIG


def test_config_booleans_must_be_json_booleans():
    for field in ("persist_adaptation", "include_supervised"):
        obj = config_to_obj(CONFIG)
        obj[field] = "false"  # a non-empty string is truthy: it must not switch the flag on
        with pytest.raises(ConfigError, match=f"'{field}' must be true or false, got 'false'"):
            experiment_config_from_obj(obj)


CROSS_FIELD = {
    "supervised": (("supervised",), {"num_classes": 1}, "config supervised: num_classes must be at least 2, got 1"),
    "backbone": (
        ("backbone",),
        {"d_bands": 5, "g2g_channels": 2},
        "config backbone: d_bands 5 not divisible by g2g_channels 2",
    ),
    "synthetic": (
        ("dataset", "synthetic"),
        {"num_classes": 13},  # above the 4 x 3 feature dimension
        "config dataset synthetic: feature dimension must be at least num_classes",
    ),
    "kernel": (
        ("adapt",),
        {"kernel": {"bandwidths": [1.0, 2.0], "weights": [1.0]}},
        "config adapt kernel: one weight per bandwidth",
    ),
    # each loaded and failed, or ran, only later: at the first cell, or as MMD^2 of 0 or NaN
    **{
        f"head_kind={kind}": (
            ("train",),
            {"head_kind": kind},
            f"config train: head_kind must be one of ('matching', 'relation', 'proto'), got {kind!r}",
        )
        for kind in ("xyz", "linear")
    },
    "kernel-weight-sum": (
        ("adapt",),
        {"kernel": {"bandwidths": [1.0, 2.0], "weights": [1e308, 1e308]}},
        "config adapt kernel: weights must not all be zero and must have a finite sum",
    ),
    "kernel-bandwidth": (
        ("adapt",),
        {"kernel": {"bandwidths": [1e-160], "weights": [1.0]}},
        "config adapt kernel: bandwidths must have finite positive sigma^2 and 1/sigma^2",
    ),
}


@pytest.mark.parametrize("case", CROSS_FIELD)
def test_config_cross_field_error_names_its_section(tmp_path, case):
    path, entries, message = CROSS_FIELD[case]
    obj = config_to_obj(CONFIG)
    section = obj
    for key in path:
        section = section[key]
    section.update(entries)
    with pytest.raises(ConfigError, match=re.escape(message)):
        experiment_config_from_obj(obj)
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(obj))
    with pytest.raises(ConfigError, match=re.escape(f"{config_file}: {message}")):
        load_experiment_config(config_file)


def _set(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


MISTYPED = [
        (("backbone",), 5),
        (("train",), []),
        (("adapt",), "fast"),
        (("supervised",), 3),
        (("dataset", "synthetic"), 7),
        (("backbone", "conv_channels"), 5),
        (("adapt", "kernel"), {"bandwidths": 5, "weights": [1.0]}),
        (("adapt", "kernel"), {"bandwidths": ["a"], "weights": [1.0]}),
        (("seed",), "x"),
        (("seed",), -1),
        (("subjects",), "12"),
        (("adapt", "n_snapshots"), 2.5),
        (("adapt", "snapshot_size"), 3.0),
        (("train", "learning_rate"), "0.1"),
        (("backbone", "matching_temperature"), float("nan")),
        (("train", "learning_rate"), 0),
        (("supervised", "learning_rate"), 0),
        (("train", "way"), True),
        (("adapt", "max_iter"), -1),
        (("adapt", "eta_out"), -0.5),
        (("eval_episodes",), 0),
        (("dataset", "synthetic", "rng_seed"), -1),
        (("dataset", "synthetic", "noise_std"), float("inf")),
]


@pytest.mark.parametrize(
    "path,value", MISTYPED, ids=[".".join(p) + "=" + repr(v) for p, v in MISTYPED]
)
def test_config_rejects_mistyped_field_naming_it(path, value):
    obj = config_to_obj(CONFIG)
    _set(obj, path, value)
    section, field = (path, "bandwidths") if isinstance(value, dict) else (path[:-1], path[-1])
    where = " ".join(("config",) + section) if section else "experiment config"
    with pytest.raises(ConfigError, match=f"^{where} field '{field}' must be"):
        experiment_config_from_obj(obj)


def test_config_rejects_unknown_kernel_key():
    obj = config_to_obj(CONFIG)
    obj["adapt"]["kernel"] = {"bandwidths": [1.0], "weights": [1.0], "scale": 2}
    with pytest.raises(ConfigError, match="^config adapt kernel has unknown key 'scale'$"):
        experiment_config_from_obj(obj)


def test_load_experiment_config_names_file_and_field(tmp_path):
    obj = config_to_obj(CONFIG)
    obj["adapt"]["n_snapshots"] = 2.5
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ConfigError, match=f"{path}: config adapt field 'n_snapshots'"):
        load_experiment_config(path)


@pytest.mark.parametrize("section", ["train", "supervised"])
def test_config_rejects_backbone_inside_section_naming_it(section):
    obj = config_to_obj(CONFIG)
    obj[section]["backbone"] = {"n_electrodes": 62}  # would be dropped for the shared backbone
    with pytest.raises(ConfigError, match=f"config {section} field 'backbone' repeats the shared backbone"):
        experiment_config_from_obj(obj)


@pytest.mark.parametrize("name,values", [("subjects", [1, 1, 2]), ("sessions", [2, 3, 2])])
def test_config_rejects_repeated_subjects_or_sessions(name, values):
    obj = {**config_to_obj(CONFIG), name: values}
    with pytest.raises(ConfigError, match=f"{name} names an entry more than once: \\{values}"):
        experiment_config_from_obj(obj)
    with pytest.raises(ConfigError, match=f"{name} names an entry more than once"):
        replace(CONFIG, **{name: tuple(values)})


def test_config_rejects_sessions_under_the_intra_protocol_naming_field():
    obj = {**config_to_obj(CONFIG), "sessions": [7, 9]}
    with pytest.raises(ConfigError, match=r"sessions \[7, 9\] is for the inter protocol"):
        experiment_config_from_obj(obj)
    with pytest.raises(ConfigError, match="sessions .* is for the inter protocol"):
        replace(CONFIG, sessions=(2,))
    assert replace(CONFIG, protocol="inter", sessions=(2,)).sessions == (2,)


def test_config_rejects_number_no_float_holds_naming_field():
    obj = config_to_obj(CONFIG)
    obj["train"]["learning_rate"] = 10**400  # a JSON integer; was a bare OverflowError
    with pytest.raises(ConfigError, match="config train field 'learning_rate' must be a finite positive number"):
        experiment_config_from_obj(json.loads(json.dumps(obj)))


def test_config_keys_left_out_take_the_dataclass_defaults():
    cfg = experiment_config_from_obj({"dataset": {"synthetic": {}}})
    assert cfg == ExperimentConfig(dataset=DriftConfig())
    assert cfg.backbone == BackboneConfig() and cfg.supervised is None


SET_ELSEWHERE = [
    ("backbone", "head_kind", "relation", "is set by train.head_kind"),
    ("backbone", "num_classes", 5, "is set by train.way and supervised.num_classes"),
    ("train", "rng_seed", 123, "is derived for each cell from the top-level seed"),
    ("supervised", "rng_seed", 123, "is derived for each cell from the top-level seed"),
]


@pytest.mark.parametrize(
    "section,key,value,owner", SET_ELSEWHERE, ids=[f"{s}.{k}" for s, k, _, _ in SET_ELSEWHERE]
)
def test_config_rejects_field_with_another_owner_naming_file_section_and_field(tmp_path, section, key, value, owner):
    # each was accepted, then overridden: the run's bytes were those of a config without it
    obj = config_to_obj(CONFIG)
    obj[section][key] = value
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ConfigError, match=re.escape(f"{path}: config {section} field '{key}' {owner}")):
        load_experiment_config(path)


@pytest.mark.parametrize("section,key,value,owner", SET_ELSEWHERE[:2], ids=["head_kind", "num_classes"])
def test_python_built_config_rejects_backbone_field_with_another_owner_as_the_reader_does(section, key, value, owner):
    # the backbone's head and class count were dropped silently on the way to run-manifest.json
    with pytest.raises(ConfigError, match=f"^{re.escape(f'config {section} field {key!r} {owner}')}"):
        replace(CONFIG, backbone=replace(BACKBONE, **{key: value}))


COUNTS = st.integers(1, 10**6)
NATURALS = st.integers(0, 2**63 - 1)
POSITIVES = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
SCALES = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def drift_configs(draw):
    n_electrodes, d_bands = draw(COUNTS), draw(COUNTS)
    return DriftConfig(
        *draw(st.tuples(COUNTS, COUNTS, COUNTS, COUNTS)), draw(st.integers(1, min(n_electrodes * d_bands, 10**6))),
        n_electrodes, d_bands, *draw(st.tuples(SCALES, SCALES, SCALES, SCALES)), draw(NATURALS),
    )


@st.composite
def backbone_configs(draw):
    widths = draw(st.tuples(COUNTS, COUNTS, COUNTS, COUNTS))
    groups = draw(st.integers(1, 8))
    return BackboneConfig(
        n_electrodes=draw(COUNTS), d_bands=groups * draw(st.integers(1, 8)), g2g_channels=groups,
        conv_channels=widths, embedding_dim=widths[-1], adapter_hidden=2 * widths[-1] + 2 * draw(st.integers(0, 8)),
        matching_temperature=draw(POSITIVES), relation_hidden=draw(COUNTS),
    )


BANDWIDTHS = st.floats(1e-150, 1e150)  # sigma^2 and 1/sigma^2 finite
KERNELS = st.integers(1, 4).flatmap(
    lambda n: st.builds(KernelSpec, st.tuples(*[BANDWIDTHS] * n), st.tuples(*[st.integers(1, 9)] * n))
)
ADAPT_CONFIGS = st.builds(
    AdaptConfig, COUNTS, COUNTS, SCALES, SCALES, NATURALS, NATURALS, st.just("median-auto") | KERNELS
)
TRAIN_CONFIGS = st.builds(
    TrainConfig, st.sampled_from(EPISODIC_HEADS), COUNTS, NATURALS, POSITIVES, COUNTS, COUNTS, COUNTS, COUNTS
)
SUPERVISED_CONFIGS = st.builds(SupervisedConfig, st.integers(2, 10**6), COUNTS, POSITIVES, NATURALS)
IDS = st.lists(st.integers(0, 10**6), unique=True, max_size=4).map(tuple)


@st.composite
def experiment_configs(draw):
    protocol = draw(st.sampled_from(["intra", "inter"]))
    return ExperimentConfig(
        dataset=draw(drift_configs() | st.text()),
        backbone=draw(backbone_configs()),
        protocol=protocol,
        train=draw(TRAIN_CONFIGS),
        adapt=draw(ADAPT_CONFIGS),
        supervised=draw(st.none() | SUPERVISED_CONFIGS),
        eval_episodes=draw(COUNTS),
        seed=draw(NATURALS),
        subjects=draw(IDS),
        sessions=draw(IDS) if protocol == "inter" else (),
        persist_adaptation=draw(st.booleans()),
        include_supervised=draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None)
@given(experiment_configs())
def test_every_buildable_config_round_trips_through_json(cfg):
    # every field has one owner, so the JSON document drops nothing that a Python-built config holds
    assert experiment_config_from_obj(json.loads(json.dumps(config_to_obj(cfg)))) == cfg


CONFIG_CLASSES = (ExperimentConfig, DriftConfig, BackboneConfig, TrainConfig, SupervisedConfig, AdaptConfig, KernelSpec)


@pytest.mark.parametrize("cls", CONFIG_CLASSES + (EvalConfig,), ids=lambda cls: cls.__name__)
def test_reader_table_knows_every_config_field_annotation(cls):
    # a field whose annotation the table lacks would load unchecked, or not at all;
    # a number field annotated bare int or float would skip its range rule
    names = {c.__name__ for c in CONFIG_CLASSES} | FIELD_RULES.keys()
    for f in fields(cls):
        assert f.type not in ("int", "float"), f"{cls.__name__}.{f.name} names no rule"
        assert f.name in harness._SET_ELSEWHERE.get(cls, {}) or f.type in harness._JSON_KINDS, f"{cls.__name__}.{f.name}"
        assert set(re.findall(r"[A-Z]\w*", f.type)) - {"None"} <= names  # every section it holds is listed


# each config's number fields by rule, written out here so that a changed annotation shows
RULED_FIELDS = {
    DriftConfig: {
        "Count": ("num_subjects", "num_sessions", "trials_per_session", "samples_per_trial",
                  "num_classes", "n_electrodes", "d_bands"),
        "Scale": ("class_separation", "intra_drift_rate", "inter_subject_offset_scale", "noise_std"),
        "Natural": ("rng_seed",),
    },
    BackboneConfig: {
        "Count": ("n_electrodes", "d_bands", "g2g_channels", "embedding_dim", "adapter_hidden",
                  "num_classes", "relation_hidden"),
        "Positive": ("matching_temperature",),
    },
    TrainConfig: {
        "Count": ("episodes_per_epoch", "way", "shot", "queries", "validation_episodes"),
        "Natural": ("max_epochs",),
        "Positive": ("learning_rate",),
    },
    SupervisedConfig: {
        "Count": ("num_classes", "batch_size"),
        "Natural": ("max_epochs",),
        "Positive": ("learning_rate",),
    },
    AdaptConfig: {
        "Count": ("n_snapshots", "snapshot_size"),
        "Natural": ("max_iter", "target_calibration_size"),
        "Scale": ("eta_in", "eta_out"),
    },
    EvalConfig: {"Count": ("episodes", "way", "shot", "queries"), "Natural": ("rng_seed",)},
    ExperimentConfig: {"Count": ("eval_episodes",), "Natural": ("seed",)},
}
RULE_BREAKERS = {  # what each rule's value must be, and values that break it
    "Count": ("a positive integer", (True, 2.5, 0, np.int64(3))),
    "Natural": ("a nonnegative integer", (False, 2.5, -1, 2**63)),
    "Positive": ("a finite positive number", (True, 0.0, -1.0, float("nan"), float("inf"), 10**400)),
    "Scale": ("a finite nonnegative number", (False, -0.5, float("nan"), float("-inf"), "1")),
}
RULE_CASES = [
    (cls, name, rule, value)
    for cls, rules in RULED_FIELDS.items()
    for rule, names in rules.items()
    for name in names
    for value in RULE_BREAKERS[rule][1]
]


@pytest.mark.parametrize(
    "cls,name,rule,value", RULE_CASES, ids=[f"{c.__name__}.{n}={v!r}" for c, n, _, v in RULE_CASES]
)
def test_config_rejects_value_breaking_its_field_rule_naming_field(cls, name, rule, value):
    required = {"dataset": DATASET} if cls is ExperimentConfig else {}
    must = RULE_BREAKERS[rule][0]
    with pytest.raises(ConfigError, match=f"^{name} must be {must}, got {re.escape(repr(value))}$"):
        cls(**required, **{name: value})


CONFIG_FUZZ_VALUES = (
    None, True, False, "false", -1, 0, 1, 2, 1.5, 2**70, float("nan"), float("inf"),
    "x", "", "median-auto", [], {}, [1], [0.5, 1.0], [{}],
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_config_loads_or_raises_config_error(draw):
    original = config_to_obj(replace(CONFIG, adapt=replace(CONFIG.adapt, kernel=KernelSpec((1.0, 2.0), (0.5, 0.5)))))
    doc = mutated(original, draw.draw(mutation_lists(original, CONFIG_FUZZ_VALUES)))
    try:
        cfg = experiment_config_from_obj(json.loads(json.dumps(doc)))
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
    assert isinstance(cfg.persist_adaptation, bool) and isinstance(cfg.include_supervised, bool)
    assert all(isinstance(s, int) for s in cfg.subjects + cfg.sessions)
    assert isinstance(cfg.seed, int) and cfg.seed >= 0
