"""End-to-end tests for the command-line entry points."""
import importlib
import json
import sys
from pathlib import Path

import pytest

from evofa import __version__, cli
from evofa.checkpoint import load_checkpoint, save_checkpoint
from evofa.backbone import BackboneConfig, create_model
from evofa.cli import main
from evofa.data import DriftConfig
from evofa.harness import METHODS

from helpers import fail_replace_at, tree

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


def test_synth_gen_manifest_names_version_and_generator_config(workspace, tmp_path):
    out = tmp_path / "data"
    assert main(["synth-gen", "--config", str(workspace / "dataset.json"), "--out", str(out)]) == 0
    manifest = json.loads((out / "run-manifest.json").read_text())
    assert manifest.keys() == {"version", "dataset", "created_unix"}
    assert manifest["version"] == f"evofa-{__version__}"
    assert manifest["created_unix"] > 0
    assert DriftConfig(**manifest["dataset"]["synthetic"]) == DriftConfig(**DATASET_OBJ)


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


SYNTH_GEN_DEFECTS = {
    "bool_count": ({"synthetic": {**DATASET_OBJ, "num_subjects": True}}, "field 'num_subjects' must be a positive integer"),
    "bare_bool_count": ({**DATASET_OBJ, "samples_per_trial": False}, "field 'samples_per_trial' must be a positive integer"),
    "string_scale": ({"synthetic": {**DATASET_OBJ, "noise_std": "1"}}, "field 'noise_std' must be a finite nonnegative number"),
    "not_an_object": ([DATASET_OBJ], "synthetic dataset config must be an object"),
    "keys_beside_synthetic": (
        {"synthetic": DATASET_OBJ, "seed": 5, "typo_key": 1},
        "synthetic dataset config has unknown key 'seed'",
    ),
    "malformed": ('{"synthetic": {num_subjects: 2}}', "is not valid JSON"),
}


@pytest.mark.parametrize("defect", list(SYNTH_GEN_DEFECTS))
def test_synth_gen_rejects_config_naming_file_and_field(tmp_path, capsys, defect):
    obj, says = SYNTH_GEN_DEFECTS[defect]
    bad = tmp_path / "gen.json"
    bad.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    assert main(["synth-gen", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err
    assert says in err
    assert not (tmp_path / "d" / "manifest.json").exists()


def test_synth_gen_missing_config_names_file(tmp_path, capsys):
    absent = tmp_path / "absent.json"
    assert main(["synth-gen", "--config", str(absent), "--out", str(tmp_path / "d")]) == 1
    assert f"cannot read config {absent}" in capsys.readouterr().err


def test_import_check_reports_inventory(workspace, capsys):
    out = workspace / "data"
    if not (out / "manifest.json").exists():
        main(["synth-gen", "--config", str(workspace / "dataset.json"), "--out", str(out)])
        capsys.readouterr()
    rc = main(["import-check", "--manifest", str(out / "manifest.json")])
    assert rc == 0
    line = capsys.readouterr().out
    assert "ok: 360 samples, 2 subjects, sessions [1, 2, 3], schema 4x3, 3 classes" in line


def test_import_check_rejects_a_negative_subject_id_naming_manifest_entry_and_field(workspace, tmp_path, capsys):
    # a subject id seeds its cell's random streams, so -1 must fail here, not once training starts
    out = tmp_path / "data"
    assert main(["synth-gen", "--config", str(workspace / "dataset.json"), "--out", str(out)]) == 0
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["subjects"][0]["id"] = -1
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["import-check", "--manifest", str(manifest_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{manifest_path}: subject -1 field 'id' must be a nonnegative integer, got -1" in captured.err


@pytest.mark.parametrize("classes", [[None, {}, []], ["a", "a", "b"]], ids=["not-strings", "repeated"])
def test_import_check_rejects_class_names_naming_manifest_and_field(workspace, tmp_path, capsys, classes):
    out = tmp_path / "data"
    assert main(["synth-gen", "--config", str(workspace / "dataset.json"), "--out", str(out)]) == 0
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["classes"] = classes
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["import-check", "--manifest", str(manifest_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{manifest_path}: manifest field 'classes' must be a list of distinct strings, got {classes!r}" in captured.err


def test_synth_gen_whose_manifest_cannot_be_written_leaves_no_file(workspace, tmp_path, capsys):
    out = tmp_path / "c"
    (out / "manifest.json").mkdir(parents=True)
    assert main(["synth-gen", "--config", str(workspace / "dataset.json"), "--out", str(out)]) == 1
    assert f"Is a directory: '{out / 'manifest.json'}'" in capsys.readouterr().err
    assert [p for p in out.rglob("*") if not p.is_dir()] == []


def test_failing_synth_gen_removes_the_directories_it_made(tmp_path, capsys):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"num_subjects": 1, "trials_per_session": 3, "samples_per_trial": 2}))
    out = tmp_path / "c"
    (out / "manifest.json").mkdir(parents=True)
    assert main(["synth-gen", "--config", str(config), "--out", str(out)]) == 1
    assert "Is a directory" in capsys.readouterr().err
    assert list(out.rglob("*")) == [out / "manifest.json"]  # features/ went with its files


def test_failing_command_keeps_an_out_directory_that_existed_empty(workspace, tmp_path, monkeypatch, capsys):
    import evofa.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("disk full")

    monkeypatch.setattr(cli, "write_run_manifest", boom)
    out = tmp_path / "existing"
    out.mkdir()
    assert main(["synth-gen", "--config", str(workspace / "dataset.json"), "--out", str(out)]) == 1
    assert "disk full" in capsys.readouterr().err
    assert out.is_dir() and list(out.iterdir()) == []


def test_failing_synth_gen_keeps_the_files_it_did_not_write(workspace, tmp_path, capsys):
    out = tmp_path / "c"
    (out / "run-manifest.json").mkdir(parents=True)
    older = out / "features" / "sub99_ses1_trial01.evfa"
    older.parent.mkdir()
    older.write_text("an earlier container's file")
    assert main(["synth-gen", "--config", str(workspace / "dataset.json"), "--out", str(out)]) == 1
    assert f"Is a directory: '{out / 'run-manifest.json'}'" in capsys.readouterr().err
    assert [p for p in out.rglob("*") if not p.is_dir()] == [older]


def command_argv(command: str, workspace: Path, trained: Path, out: Path) -> list[str]:
    """The argv of ``command`` on the workspace's tiny configs, writing to ``out``."""
    if command == "synth-gen":
        generator = workspace / "tiny-generator.json"
        generator.write_text(json.dumps({**DATASET_OBJ, "num_subjects": 1, "num_sessions": 1, "trials_per_session": 2}))
        return ["synth-gen", "--config", str(generator), "--out", str(out)]
    argv = [command, "--config", str(workspace / "exp.json"), "--out", str(out)]
    return argv + ["--checkpoint", str(trained / "checkpoints" / "model.ckpt")] if command == "evaluate" else argv


@pytest.mark.parametrize("existing", [False, True], ids=["new_nested_out", "out_with_a_previous_run"])
@pytest.mark.parametrize("command", ["synth-gen", "train", "evaluate", "compare"])
def test_a_write_failing_anywhere_leaves_the_tree_as_it_was(workspace, trained, tmp_path, monkeypatch, capsys, command, existing):
    out = tmp_path / "run" if existing else tmp_path / "a" / "b"
    counted = out if existing else tmp_path / "counted"
    if existing:
        out.mkdir()
        (out / "unrelated.txt").write_text("not the command's")
    renames = fail_replace_at(monkeypatch, 0)
    assert main(command_argv(command, workspace, trained, counted)) == 0  # the previous run, or a count of its writes
    assert len(renames) == (4 if command == "synth-gen" else 3)  # synth-gen: two trials, manifest, run manifest
    before = tree(tmp_path)  # at and above --out
    for k in range(1, len(renames) + 1):
        fail_replace_at(monkeypatch, k)
        assert main(command_argv(command, workspace, trained, out)) == 1
        assert "No space left on device (injected)" in capsys.readouterr().err
        assert tree(tmp_path) == before, f"the {k}-th of {len(renames)} renames failed"


@pytest.mark.parametrize("parent", ["file", "dangling_symlink"])
def test_failing_command_keeps_what_stands_where_out_needs_a_directory(workspace, tmp_path, capsys, parent):
    notes = tmp_path / "notes.txt"
    if parent == "file":
        notes.write_text("the user's notes")
    else:
        notes.symlink_to(tmp_path / "nowhere")
    out = notes / "run"
    assert main(["synth-gen", "--config", str(workspace / "dataset.json"), "--out", str(out)]) == 1
    assert str(out) in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]
    if parent == "file":
        assert notes.read_text() == "the user's notes"
    else:
        assert notes.is_symlink() and notes.readlink() == tmp_path / "nowhere"


def test_a_command_keeps_the_users_old_files_whether_it_fails_or_ends(workspace, tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    argv = ["synth-gen", "--config", str(workspace / "dataset.json"), "--out", str(out)]
    assert main(argv) == 0  # a previous run, whose files the next two overwrite
    for path in [p for p in out.rglob("*") if p.is_file()]:
        path.with_name(path.name + ".old").write_text(f"the user's backup of {path.name}")
    before = tree(tmp_path)
    fail_replace_at(monkeypatch, 2)
    assert main(argv) == 1
    assert "No space left on device (injected)" in capsys.readouterr().err
    assert tree(tmp_path) == before
    fail_replace_at(monkeypatch, 0)
    assert main(argv) == 0
    after = tree(tmp_path)  # the same paths, and every .old holds the user's bytes; run-manifest.json's time moves
    assert after.keys() == before.keys()
    assert {k: v for k, v in after.items() if k.endswith(".old")} == {k: v for k, v in before.items() if k.endswith(".old")}


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


def test_train_with_no_epochs_says_no_validation_ran(workspace, tmp_path, capsys):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({**CONFIG_OBJ, "train": {**CONFIG_OBJ["train"], "max_epochs": 0}}))
    out = tmp_path / "t"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    line = capsys.readouterr().out
    assert "no validation epoch ran (train.max_epochs is 0)" in line
    assert "best validation accuracy" not in line
    assert (out / "logs" / "train_log.csv").read_text() == "epoch,val_accuracy\n"
    load_checkpoint(out / "checkpoints" / "model.ckpt")  # the initial parameters


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


@pytest.mark.parametrize(
    "flags, says",
    [
        (["--session", "2"], "session 2 given without a subject to pick the cell"),
        (["--subject", "1"], "subject 1 given without a session: an inter cell needs one of [1, 3]"),
    ],
    ids=["session-only", "subject-only"],
)
def test_train_rejects_half_an_inter_cell(tmp_path, capsys, flags, says):
    config = tmp_path / "inter.json"
    config.write_text(json.dumps({**CONFIG_OBJ, "protocol": "inter", "subjects": [], "sessions": [1, 3]}))
    rc = main(["train", "--config", str(config), "--out", str(tmp_path / "t"), *flags])
    assert rc == 1
    assert says in capsys.readouterr().err
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
    assert not out.exists()  # nor the directories the command made for them


def test_interrupted_command_removes_its_outputs_and_is_not_caught(workspace, tmp_path, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "write_run_manifest", interrupt)
    out = tmp_path / "t"
    with pytest.raises(KeyboardInterrupt):
        main(["train", "--config", str(workspace / "exp.json"), "--out", str(out)])
    assert list(tmp_path.iterdir()) == []


def test_compare_whose_results_json_cannot_be_written_leaves_no_file(workspace, tmp_path, capsys):
    out = tmp_path / "run"
    (out / "results.json").mkdir(parents=True)
    assert main(["compare", "--config", str(workspace / "exp.json"), "--out", str(out)]) == 1
    assert f"Is a directory: '{out / 'results.json'}'" in capsys.readouterr().err
    assert [p for p in out.rglob("*") if not p.is_dir()] == []


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


def test_evaluate_adapted_with_shot_list(trained, tmp_path, capsys):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({**CONFIG_OBJ, "eval_episodes": 3}))
    out = tmp_path / "eval"
    rc = main(
        [
            "evaluate",
            "--config",
            str(config),
            "--checkpoint",
            str(trained / "checkpoints" / "model.ckpt"),
            "--out",
            str(out),
            "--adapt",
            "on",
            "--shots",
            "1,2",
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "fsl+evofa 1-shot:" in printed and "fsl+evofa 2-shot:" in printed
    cells = [r for r in read_csv_rows(out / "results.csv") if r["subject"] != "all"]
    assert [r["shots"] for r in cells] == ["1", "2"]
    assert all(r["method"] == "fsl+evofa" and r["episodes"] == "3" for r in cells)


@pytest.mark.parametrize("flag", [["--episodes", "3"], ["--persist-adaptation"]])
def test_evaluate_has_no_flag_that_repeats_a_config_field(workspace, tmp_path, capsys, flag):
    # eval_episodes and persist_adaptation are read from the config alone
    args = ["evaluate", "--config", str(workspace / "exp.json"), "--checkpoint", "m.ckpt", "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(args + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


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


def test_evaluate_architecture_mismatch_names_checkpoint_and_first_differing_field(tmp_path, capsys):
    trained_with, evaluated_with = tmp_path / "a.json", tmp_path / "b.json"
    for path, channels in ((trained_with, [4, 4, 4, 8]), (evaluated_with, [4, 4, 6, 8])):
        backbone = {**CONFIG_OBJ["backbone"], "conv_channels": channels}
        backbone.update(embedding_dim=8, adapter_hidden=16)  # the widths a last conv of 8 needs
        path.write_text(json.dumps({**CONFIG_OBJ, "backbone": backbone}))
    assert main(["train", "--config", str(trained_with), "--out", str(tmp_path / "t")]) == 0
    ckpt = tmp_path / "t" / "checkpoints" / "model.ckpt"
    out = tmp_path / "e"
    rc = main(["evaluate", "--config", str(evaluated_with), "--checkpoint", str(ckpt), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"checkpoint {ckpt} architecture disagrees" in err
    assert "field 'conv_channels' is (4, 4, 4, 8) in the checkpoint, (4, 4, 6, 8) in the config" in err
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize(
    "train", [{"way": 2}, {"head_kind": "matching"}, {"head_kind": "relation"}], ids=["way2", "matching", "relation"]
)
def test_evaluate_accepts_the_checkpoint_train_wrote(tmp_path, capsys, train):
    # train builds cfg.train.model_config(cfg.backbone): head and way come from the train section
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({**CONFIG_OBJ, "train": {**CONFIG_OBJ["train"], **train}}))
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "t")]) == 0
    ckpt = tmp_path / "t" / "checkpoints" / "model.ckpt"
    out = tmp_path / "e"
    assert main(["evaluate", "--config", str(config), "--checkpoint", str(ckpt), "--out", str(out)]) == 0
    rows = read_csv_rows(out / "results.csv")
    assert rows[0]["way"] == str(train.get("way", 3))


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


# -- one evaluation path -------------------------------------------------------------------

# the inter protocol trains on 12 other subjects of the test subject's session
INTER_DATASET_OBJ = {**DATASET_OBJ, "num_subjects": 14, "trials_per_session": 3, "samples_per_trial": 6}

# per protocol: the config's overrides, whose plan is one cell, and the flags that pick that cell
IDENTITY_CELLS = {
    "intra": ({}, ["--subject", "1"]),
    "inter": (
        {
            "dataset": {"synthetic": INTER_DATASET_OBJ},
            "protocol": "inter",
            "sessions": [2],
            "train": {**CONFIG_OBJ["train"], "queries": 3},
        },
        ["--subject", "1", "--session", "2"],
    ),
}


@pytest.mark.parametrize("protocol", list(IDENTITY_CELLS))
def test_train_then_evaluate_gives_compare_rows(tmp_path, capsys, protocol):
    overrides, cell = IDENTITY_CELLS[protocol]
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({**CONFIG_OBJ, **overrides, "include_supervised": False}))
    run = lambda *args: main([args[0], "--config", str(config), *args[1:]])
    assert run("compare", "--out", str(tmp_path / "cmp")) == 0
    assert run("train", "--out", str(tmp_path / "t"), *cell) == 0
    ckpt = str(tmp_path / "t" / "checkpoints" / "model.ckpt")
    for adapt in ("off", "on"):
        assert run("evaluate", "--checkpoint", ckpt, "--out", str(tmp_path / adapt), "--adapt", adapt, *cell) == 0
    compared = (tmp_path / "cmp" / "results.csv").read_text().splitlines()
    evaluated = [(tmp_path / adapt / "results.csv").read_text().splitlines()[1] for adapt in ("off", "on")]
    assert [line.split(",")[3] for line in evaluated] == ["fsl", "fsl+evofa"]
    assert compared[1:3] == evaluated  # the cell's rows, byte for byte


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


def test_compare_rejects_dataset_without_subjects(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth-gen", "--config", str(workspace / "dataset.json"), "--out", str(data)]) == 0
    manifest = data / "manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "subjects": []}))
    obj = {k: v for k, v in CONFIG_OBJ.items() if k != "subjects"}
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({**obj, "dataset": {"import": str(manifest)}}))
    capsys.readouterr()
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(manifest) in err and "protocol plan is empty" in err
    assert not (out / "results.csv").exists()


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


GOOD_ROW = {
    "protocol": "intra", "subject": "1", "session": "3", "method": "fsl", "shots": 1, "way": 3,
    "queries": 10, "episodes": 200, "mean_accuracy": 0.5, "std_accuracy": 0.1, "std_over": "episodes",
    "wall_clock_seconds": 1.5,
}
RANGE = "must be a number in [0, 1], got"
NAN = float("nan")
ORACLE = {**GOOD_ROW, "protocol": None, "subject": [1], "session": 3, "method": "oracle", "shots": -2.5}


def second_row(**change) -> list[dict]:
    """A good row, then a copy of it with ``change`` applied; a value of None drops the field."""
    return [GOOD_ROW, {k: v for k, v in {**GOOD_ROW, **change}.items() if v is not None}]


# case: (rows of results.json, the error after "results <path> ")
BAD_ROWS = {
    "missing_method": (second_row(method=None), "row 1 is missing field 'method'"),
    "missing_std": (second_row(std_accuracy=None), "row 1 is missing field 'std_accuracy'"),
    "mean_nan": (second_row(mean_accuracy=NAN), f"row 1 field 'mean_accuracy' {RANGE} nan"),
    "mean_above_one": (second_row(mean_accuracy=1.5), f"row 1 field 'mean_accuracy' {RANGE} 1.5"),
    "mean_string": (second_row(mean_accuracy="0.5"), f"row 1 field 'mean_accuracy' {RANGE} '0.5'"),
    "mean_bool": (second_row(mean_accuracy=True), f"row 1 field 'mean_accuracy' {RANGE} True"),
    "std_nan": (second_row(std_accuracy=NAN), f"row 1 field 'std_accuracy' {RANGE} nan"),
    "std_inf": (second_row(std_accuracy=float("inf")), f"row 1 field 'std_accuracy' {RANGE} inf"),
    "std_negative": (second_row(std_accuracy=-0.1), f"row 1 field 'std_accuracy' {RANGE} -0.1"),
    "nan_then_foreign": ([{"method": "fsl", "mean_accuracy": NAN}, {"foo": 1}], "row 0 is missing field 'protocol'"),
    "oracle": ([ORACLE], "row 0 field 'protocol' must be a string, got None"),
    "subject_list": (second_row(subject=[1]), "row 1 field 'subject' must be a string, got [1]"),
    "session_int": (second_row(session=3), "row 1 field 'session' must be a string, got 3"),
    "method_int": (second_row(method=1), f"row 1 field 'method' must be one of {METHODS}, got 1"),
    "method_unknown": (second_row(method="oracle"), f"row 1 field 'method' must be one of {METHODS}, got 'oracle'"),
    "shots_negative": (second_row(shots=-1), "row 1 field 'shots' must be a nonnegative integer, got -1"),
    "shots_fraction": (second_row(shots=-2.5), "row 1 field 'shots' must be a nonnegative integer, got -2.5"),
    "shots_string": (second_row(shots="1"), "row 1 field 'shots' must be a nonnegative integer, got '1'"),
    "shots_bool": (second_row(shots=True), "row 1 field 'shots' must be a nonnegative integer, got True"),
}


@pytest.mark.parametrize("case", list(BAD_ROWS))
def test_report_rejects_bad_row_naming_file_row_and_field(tmp_path, capsys, case):
    rows, message = BAD_ROWS[case]
    path = tmp_path / "results.json"
    path.write_text(json.dumps({"rows": rows}))  # NaN and Infinity as Python's json writes them
    assert main(["report", "--results", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"results {path} {message}" in captured.err


@pytest.mark.parametrize(
    "obj, message",
    [
        ([1, 2], "must be an object, got list"),
        ({"rows": [1]}, "row 0 must be an object, got int"),
        ({"rows": "abc"}, "field 'rows' must be a list, got 'abc'"),
        ({"row": [GOOD_ROW]}, "is missing field 'rows'"),
        ({"rows": [GOOD_ROW], "note": 1}, "has unknown key 'note'"),
        ({"rows": [GOOD_ROW], "version": 7}, "field 'version' must be a string, got 7"),
        ({"rows": [GOOD_ROW], "std_semantics": "population"}, "field 'std_semantics' must be an object, got 'population'"),
    ],
    ids=["list", "row_not_object", "rows_string", "misspelled_rows", "unknown_key", "version_int", "std_semantics_string"],
)
def test_report_rejects_malformed_rows_naming_file_and_field(tmp_path, capsys, obj, message):
    path = tmp_path / "results.json"
    path.write_text(json.dumps(obj))
    assert main(["report", "--results", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"results {path} {message}" in captured.err


def test_report_prints_accuracies_to_four_places(tmp_path, capsys):
    (tmp_path / "results.json").write_text(json.dumps({"rows": [GOOD_ROW]}))
    assert main(["report", "--results", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[1].split() == ["intra", "1", "3", "fsl", "1", "0.5000", "0.1000"]


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


# -- malloc settings of the command's process ----------------------------------------------

# glibc's malloc.h: M_MMAP_THRESHOLD, M_TRIM_THRESHOLD, M_TOP_PAD, and the values main sets
HEAP_SETTINGS = [(-3, 1 << 30), (-1, 1 << 30), (-2, 64 << 20)]


class FakeLibc:
    """Stands in for the C library: records each ``mallopt`` call and returns ``accepts``."""

    def __init__(self):
        self.calls = []
        self.accepts = 1

        def mallopt(param, value):
            self.calls.append((param, value))
            return self.accepts

        self.mallopt = mallopt  # a function, so that argtypes and restype can be set on it


@pytest.fixture
def libc(monkeypatch):
    fake = FakeLibc()
    monkeypatch.setattr(cli.os, "confstr", lambda name: "glibc 2.36" if name == "CS_GNU_LIBC_VERSION" else None)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: fake)
    return fake


def report(tmp_path) -> list[str]:
    (tmp_path / "results.json").write_text(json.dumps({"rows": [GOOD_ROW]}))
    return ["report", "--results", str(tmp_path)]


def test_main_sets_mmap_threshold_then_trim_threshold_then_top_pad(tmp_path, capsys, libc):
    assert main(report(tmp_path)) == 0
    assert libc.calls == HEAP_SETTINGS


def test_main_stops_after_a_refused_mmap_threshold(tmp_path, capsys, libc):
    """Either threshold set alone switches off glibc's dynamic threshold, so a refusal ends the settings."""
    libc.accepts = 0
    assert main(report(tmp_path)) == 0
    assert libc.calls == HEAP_SETTINGS[:1]


def _not_configurable(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [lambda name: None, _not_configurable], ids=["unset", "unknown_name"])
def test_main_leaves_malloc_alone_without_glibc(tmp_path, capsys, libc, monkeypatch, confstr):
    monkeypatch.setattr(cli.os, "confstr", confstr)
    assert main(report(tmp_path)) == 0
    assert libc.calls == []


def test_import_and_library_runs_leave_malloc_alone(workspace, libc, monkeypatch):
    """Only the command's process is tuned: a fresh ``import evofa`` and ``run_protocol`` make no call."""
    for name in [n for n in sys.modules if n == "evofa" or n.startswith("evofa.")]:
        monkeypatch.delitem(sys.modules, name)
    assert importlib.import_module("evofa.cli") is not cli
    harness = sys.modules["evofa.harness"]
    table = harness.run_protocol(harness.load_experiment_config(workspace / "exp.json"))
    assert table.rows
    assert libc.calls == []
