"""Every function the package defines is reached by a command: code that only tests reach leaves the package.

The commands run in-process through ``evofa.cli.main`` on tiny configs,
under a ``sys.setprofile`` recorder that notes each Python function entered.
"""
import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import evofa
from evofa.cli import main

# qualname (module.function or module.Class.method) -> why no command needs to call it
ALLOWED = {
    "checkpoint._build_table": "builds the CRC-64 table once, at import, before any command runs",
    "adapt.mean_alignment": (
        "the MMD^2 alignment measure that scripts/demo_quickstart.py and gate criterion 8 print; "
        "a run's report of what adaptation did will read it"
    ),
}

GENERATOR = {
    "num_subjects": 14, "num_sessions": 3, "trials_per_session": 3, "samples_per_trial": 6,
    "num_classes": 3, "n_electrodes": 4, "d_bands": 3, "class_separation": 2.0,
    "intra_drift_rate": 1.0, "inter_subject_offset_scale": 0.5, "noise_std": 1.0, "rng_seed": 3,
}
BACKBONE = {"n_electrodes": 4, "d_bands": 3, "conv_channels": [2, 2, 2, 4], "embedding_dim": 4, "adapter_hidden": 8}
TRAIN = {"episodes_per_epoch": 1, "max_epochs": 1, "way": 3, "shot": 1, "queries": 1, "validation_episodes": 1}
ADAPT = {"n_snapshots": 2, "snapshot_size": 2, "target_calibration_size": 4}


def experiment(**overrides) -> dict:
    """An intra experiment on one synthetic subject; ``train`` and ``adapt`` overrides merge into their parts."""
    obj = {
        "dataset": {"synthetic": {**GENERATOR, "num_subjects": 1, "trials_per_session": 6}},
        "protocol": "intra",
        "backbone": BACKBONE,
        "train": {**TRAIN, **overrides.pop("train", {})},
        "adapt": {**ADAPT, **overrides.pop("adapt", {})},
        "supervised": {"num_classes": 3, "max_epochs": 1},
        "eval_episodes": 2,
        "seed": 1,
    }
    return {**obj, **overrides}


def commands(root: Path) -> list[tuple[list[str], int]]:
    """Each command's argv and its expected exit status."""
    def config(name, obj):
        path = root / f"{name}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    data, inter = root / "data", root / "inter"
    inter_cfg = config("inter", {
        "dataset": {"import": str(data / "manifest.json")}, "protocol": "inter", "backbone": BACKBONE,
        "train": TRAIN, "adapt": ADAPT, "eval_episodes": 2, "seed": 1, "subjects": [2],
        "sessions": [1],
    })
    compare = lambda name, **overrides: (
        ["compare", "--config", config(name, experiment(**overrides)), "--out", str(root / name)], 0
    )
    blocked = root / "blocked"
    (blocked / "manifest.json").mkdir(parents=True)
    return [
        (["synth-gen", "--config", config("generator", GENERATOR), "--out", str(data)], 0),
        (["import-check", "--manifest", str(data / "manifest.json")], 0),
        (["train", "--config", inter_cfg, "--out", str(inter)], 0),
        ([
            "evaluate", "--config", inter_cfg, "--checkpoint", str(inter / "checkpoints" / "model.ckpt"),
            "--out", str(inter), "--adapt", "on", "--shots", "1,5",
        ], 0),
        compare("proto"),
        compare("matching", train={"head_kind": "matching"}, include_supervised=False),
        compare("relation", train={"head_kind": "relation"}, include_supervised=False),
        compare("persist", persist_adaptation=True, include_supervised=False),
        compare("fixed", adapt={"kernel": {"bandwidths": [1.0, 2.0], "weights": [1.0, 1.0]}}, include_supervised=False),
        (["report", "--results", str(root / "proto")], 0),
        (["synth-gen", "--config", config("generator", GENERATOR), "--out", str(blocked)], 1),
    ]


def package_functions() -> dict:
    """qualname -> code object of every module-level function and class method defined in ``src/evofa``."""
    found = {}
    for info in pkgutil.iter_modules(evofa.__path__):
        module = importlib.import_module(f"evofa.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__code__.co_filename == module.__file__:
                found[f"{info.name}.{name}"] = obj.__code__
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in vars(obj).items():
                    fn = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
                    # dataclass-made methods are compiled from a string, not defined in the module
                    if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                        found[f"{info.name}.{name}.{attr}"] = fn.__code__
    return found


def called_code(run) -> set:
    """The code objects of the Python functions entered while ``run()`` runs."""
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return called


def test_every_package_function_is_reached_by_a_command(tmp_path, capsys):
    runs, statuses = commands(tmp_path), []
    called = called_code(lambda: statuses.extend(main(argv) for argv, _ in runs))
    capsys.readouterr()
    assert statuses == [status for _, status in runs]
    defined = package_functions()
    assert set(ALLOWED) <= set(defined), "an allowlist entry names no package function"
    assert [name for name in ALLOWED if defined[name] in called] == [], "a command reaches an allowlist entry"
    unreached = sorted(name for name, code in defined.items() if code not in called and name not in ALLOWED)
    assert unreached == [], f"no command calls {unreached}: delete them, or add each to ALLOWED with its reason"
