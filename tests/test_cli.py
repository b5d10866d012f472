"""End-to-end tests for the command-line entry points."""
import json
from pathlib import Path

import pytest

from evofa.checkpoint import load_checkpoint, save_checkpoint
from evofa.backbone import BackboneConfig, create_model
from evofa.cli import _Outputs, main

DATASET_OBJ = {
    "num_subjects": 2,
    "num_sessions": 3,
    "trials_per_session": 6,
    "samples_per_trial": 10,
    "num_classes": 3,
    "n_electrodes": 4,
    "d_bands": 3,
    "class_separation": 3.0,
    "intra_drift_rate": 0.5,
    "inter_subject_offset_scale": 1.0,
    "noise_std": 1.0,
    "rng_seed": 11,
}

CONFIG_OBJ = {
    "dataset": {"synthetic": DATASET_OBJ},
    "protocol": "intra",
    "backbone": {
        "n_electrodes": 4,
        "d_bands": 3,
        "conv_channels": [2, 2, 2, 4],
        "embedding_dim": 4,
        "adapter_hidden": 8,
    },
    "train": {
        "episodes_per_epoch": 4,
        "max_epochs": 1,
        "learning_rate": 0.1,
        "way": 3,
        "shot": 1,
        "queries": 5,
        "validation_episodes": 4,
    },
    "adapt": {"n_snapshots": 2, "snapshot_size": 8},
    "supervised": {"num_classes": 3, "max_epochs": 2},
    "eval_episodes": 4,
    "seed": 7,
    "subjects": [1],
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "exp.json"
    config.write_text(json.dumps(CONFIG_OBJ, indent=2))
    dataset = root / "dataset.json"
    dataset.write_text(json.dumps({"synthetic": DATASET_OBJ}, indent=2))
    return root


@pytest.fixture(scope="module")
def trained(workspace):
    out = workspace / "trained"
    assert main(["train", "--config", str(workspace / "exp.json"), "--out", str(out)]) == 0
    return out


def read_csv_rows(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# -- synth-gen and import-check -------------------------------------------------------


def test_synth_gen_writes_dataset(workspace, capsys):
    out = workspace / "data"
    rc = main(["synth-gen", "--config", str(workspace / "dataset.json"), "--out", str(out)])
    assert rc == 0
    assert "wrote 360 samples over 2 subjects (schema 4x3, 3 classes)" in capsys.readouterr().out
    assert (out / "manifest.json").exists()
    assert (out / "run-manifest.json").exists()
    assert len(list((out / "features").glob("*.evfa"))) == 2 * 3 * 6


def test_synth_gen_accepts_bare_generator_config(workspace, tmp_path, capsys):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(DATASET_OBJ))
    assert main(["synth-gen", "--config", str(bare), "--out", str(tmp_path / "d")]) == 0
    assert "360 samples" in capsys.readouterr().out


def test_synth_gen_rejects_unknown_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"synthetic": {**DATASET_OBJ, "gain": 2.0}}))
    rc = main(["synth-gen", "--config", str(bad), "--out", str(tmp_path / "d")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "d" / "manifest.json").exists()


def test_import_check_reports_inventory(workspace, capsys):
    out = workspace / "data"
    if not (out / "manifest.json").exists():
        main(["synth-gen", "--config", str(workspace / "dataset.json"), "--out", str(out)])
        capsys.readouterr()
    rc = main(["import-check", "--manifest", str(out / "manifest.json")])
    assert rc == 0
    line = capsys.readouterr().out
    assert "ok: 360 samples, 2 subjects, sessions [1, 2, 3], schema 4x3, 3 classes" in line


def test_import_check_missing_manifest(tmp_path, capsys):
    rc = main(["import-check", "--manifest", str(tmp_path / "absent.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


# -- train ------------------------------------------------------------------------------


def test_train_writes_checkpoint_log_and_manifest(workspace, trained, capsys):
    ckpt = trained / "checkpoints" / "model.ckpt"
    assert ckpt.exists()
    model = load_checkpoint(ckpt)
    assert model.config.embedding_dim == 4
    log_lines = (trained / "logs" / "train_log.csv").read_text().splitlines()
    assert log_lines[0] == "epoch,val_accuracy"
    assert len(log_lines) == 1 + CONFIG_OBJ["train"]["max_epochs"]
    assert log_lines[1].startswith("0,")
    manifest = json.loads((trained / "run-manifest.json").read_text())
    assert manifest["seed"] == 7


def test_train_reports_best_validation(workspace, tmp_path, capsys):
    out = tmp_path / "t"
    assert main(["train", "--config", str(workspace / "exp.json"), "--out", str(out)]) == 0
    line = capsys.readouterr().out
    assert "trained subject 1 (intra)" in line
    assert "best validation accuracy" in line


def test_train_rejects_subject_outside_plan(workspace, tmp_path, capsys):
    rc = main(
        [
            "train",
            "--config",
            str(workspace / "exp.json"),
            "--out",
            str(tmp_path / "t"),
            "--subject",
            "9",
        ]
    )
    assert rc == 1
    assert "not in the protocol plan" in capsys.readouterr().err


def test_train_rejects_session_on_intra_config(workspace, tmp_path, capsys):
    rc = main(
        [
            "train",
            "--config",
            str(workspace / "exp.json"),
            "--out",
            str(tmp_path / "t"),
            "--subject",
            "1",
            "--session",
            "2",
        ]
    )
    assert rc == 1
    assert "intra protocol cells have no session" in capsys.readouterr().err
    assert not (tmp_path / "t" / "checkpoints" / "model.ckpt").exists()


def test_train_rejects_session_without_subject_on_inter_config(workspace, tmp_path, capsys):
    config = tmp_path / "inter.json"
    config.write_text(json.dumps({**CONFIG_OBJ, "protocol": "inter", "subjects": []}))
    rc = main(["train", "--config", str(config), "--out", str(tmp_path / "t"), "--session", "2"])
    assert rc == 1
    assert "without a subject" in capsys.readouterr().err
    assert not (tmp_path / "t" / "checkpoints" / "model.ckpt").exists()


def test_failing_train_discards_partial_outputs(workspace, tmp_path, monkeypatch, capsys):
    import evofa.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("disk full")

    monkeypatch.setattr(cli, "write_run_manifest", boom)
    out = tmp_path / "t"
    rc = main(["train", "--config", str(workspace / "exp.json"), "--out", str(out)])
    assert rc == 1
    assert "disk full" in capsys.readouterr().err
    assert not (out / "checkpoints" / "model.ckpt").exists()
    assert not (out / "logs" / "train_log.csv").exists()


# -- evaluate ---------------------------------------------------------------------------


def test_evaluate_baseline(workspace, trained, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = main(
        [
            "evaluate",
            "--config",
            str(workspace / "exp.json"),
            "--checkpoint",
            str(trained / "checkpoints" / "model.ckpt"),
            "--out",
            str(out),
            "--adapt",
            "off",
        ]
    )
    assert rc == 0
    assert "fsl 1-shot:" in capsys.readouterr().out
    rows = read_csv_rows(out / "results.csv")
    assert [r["method"] for r in rows] == ["fsl", "fsl"]  # cell then aggregate
    assert rows[0]["episodes"] == "4"
    report = json.loads((out / "results.json").read_text())
    assert all(r["wall_clock_seconds"] > 0 for r in report["rows"])  # timed, unlike the CSV
    assert (out / "run-manifest.json").exists()


def test_evaluate_adapted_with_shot_list(workspace, trained, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = main(
        [
            "evaluate",
            "--config",
            str(workspace / "exp.json"),
            "--checkpoint",
            str(trained / "checkpoints" / "model.ckpt"),
            "--out",
            str(out),
            "--adapt",
            "on",
            "--shots",
            "1,2",
            "--episodes",
            "3",
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "fsl+evofa 1-shot:" in printed and "fsl+evofa 2-shot:" in printed
    cells = [r for r in read_csv_rows(out / "results.csv") if r["subject"] != "all"]
    assert [r["shots"] for r in cells] == ["1", "2"]
    assert all(r["method"] == "fsl+evofa" and r["episodes"] == "3" for r in cells)


def test_evaluate_rejects_zero_shots(workspace, trained, tmp_path, capsys):
    rc = main(
        [
            "evaluate",
            "--config",
            str(workspace / "exp.json"),
            "--checkpoint",
            str(trained / "checkpoints" / "model.ckpt"),
            "--out",
            str(tmp_path / "e"),
            "--shots",
            "0",
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "positive" in err and "--shots" in err


@pytest.mark.parametrize(
    "shots",
    ["", "1,,2", "1,x", "1,1", "2,-1"],
    ids=["empty", "empty-item", "not-an-integer", "duplicate", "negative"],
)
def test_evaluate_rejects_bad_shot_lists(workspace, trained, tmp_path, capsys, shots):
    out = tmp_path / "e"
    rc = main(
        [
            "evaluate",
            "--config",
            str(workspace / "exp.json"),
            "--checkpoint",
            str(trained / "checkpoints" / "model.ckpt"),
            "--out",
            str(out),
            "--shots",
            shots,
        ]
    )
    assert rc == 1
    assert "--shots" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_evaluate_rejects_architecture_mismatch(workspace, tmp_path, capsys):
    other = BackboneConfig(
        n_electrodes=4,
        d_bands=3,
        conv_channels=(2, 2, 2, 4),
        embedding_dim=4,
        adapter_hidden=10,
    )
    ckpt = save_checkpoint(create_model(other, seed=0), tmp_path / "other.ckpt")
    rc = main(
        [
            "evaluate",
            "--config",
            str(workspace / "exp.json"),
            "--checkpoint",
            str(ckpt),
            "--out",
            str(tmp_path / "e"),
        ]
    )
    assert rc == 1
    assert "disagrees" in capsys.readouterr().err
    assert not (tmp_path / "e" / "results.csv").exists()


def test_evaluate_missing_checkpoint(workspace, tmp_path, capsys):
    rc = main(
        [
            "evaluate",
            "--config",
            str(workspace / "exp.json"),
            "--checkpoint",
            str(tmp_path / "absent.ckpt"),
            "--out",
            str(tmp_path / "e"),
        ]
    )
    assert rc == 1
    assert "cannot read checkpoint" in capsys.readouterr().err


# -- compare and report -------------------------------------------------------------------


@pytest.fixture(scope="module")
def compared(workspace):
    out = workspace / "cmp"
    assert main(["compare", "--config", str(workspace / "exp.json"), "--out", str(out)]) == 0
    return out


def test_compare_writes_all_methods(workspace, compared, capsys):
    rows = read_csv_rows(compared / "results.csv")
    cells = [r for r in rows if r["subject"] != "all"]
    assert [r["method"] for r in cells] == ["supervised", "fsl", "fsl+evofa"]
    assert [r["method"] for r in rows if r["subject"] == "all"] == [
        "supervised",
        "fsl",
        "fsl+evofa",
    ]
    assert (compared / "results.json").exists()


def test_compare_prints_aggregates(workspace, tmp_path, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(workspace / "exp.json"), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    for needle in ("supervised 0-shot:", "fsl 1-shot:", "fsl+evofa 1-shot:", "results:"):
        assert needle in printed


def test_report_renders_table(compared, capsys):
    assert main(["report", "--results", str(compared)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == [
        "protocol",
        "subject",
        "session",
        "method",
        "shots",
        "mean_accuracy",
        "std_accuracy",
    ]
    rows = read_csv_rows(compared / "results.csv")
    assert len(lines) == 1 + len(rows)


def test_report_accepts_results_json_path(compared, capsys):
    assert main(["report", "--results", str(compared / "results.json")]) == 0
    assert "fsl+evofa" in capsys.readouterr().out


def test_report_missing_results(tmp_path, capsys):
    assert main(["report", "--results", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_report_rejects_empty_rows(tmp_path, capsys):
    (tmp_path / "results.json").write_text(json.dumps({"rows": []}))
    assert main(["report", "--results", str(tmp_path)]) == 1
    assert "holds no rows" in capsys.readouterr().err


# -- parser behavior ------------------------------------------------------------------------


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--results", "x", "--frobnicate"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_outputs_discard_tolerates_missing(tmp_path):
    out = _Outputs()
    real = tmp_path / "a.txt"
    real.write_text("x")
    out.track(real)
    out.track(tmp_path / "never-created.txt")
    out.discard_all()
    assert not real.exists()
