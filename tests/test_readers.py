"""The package's readers: one way in for every file, and no unknown key gets through.

Every external input (a synth-gen manifest, an experiment config, a checkpoint
header, a results.json row) is read by ``data.read_json``, ``data.read_versioned``
and ``data.read_fields``. The property tests add a key that no reader knows to
any object of a valid input and require the package's own error naming that key.
The structural guard fails naming any call in ``src/evofa`` that reads a file or
decodes JSON outside those readers, so a second reader cannot grow back, and
any call that writes, makes or removes a file or directory outside
``data.atomic_write`` and ``data.all_or_nothing``, so a second writer cannot either.
"""
import ast
import contextlib
import io
import json
import re
import struct
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evofa
from evofa import adapt, backbone, data, fsl, harness, mmd
from evofa.checkpoint import crc64, load_checkpoint, save_checkpoint
from evofa.cli import main
from evofa.errors import CheckpointError, ConfigError, DatasetSchemaError

from jsonfuzz import json_paths

# every key some reader knows, in any object: a generated key avoids them all
KNOWN = {
    f.name
    for cls in (
        harness.ExperimentConfig, data.DriftConfig, backbone.BackboneConfig, fsl.TrainConfig,
        fsl.SupervisedConfig, adapt.AdaptConfig, mmd.KernelSpec, harness.ResultRow,
    )
    for f in fields(cls)
} | {
    "synthetic", "import", "rng_seed",  # config layout and set-elsewhere keys
    "schema", "classes", "subjects", "electrodes", "bands", "id", "sessions", "trials", "label", "file", "count",
    "rows", "version", "std_semantics",
}
UNKNOWN_KEYS = st.one_of(
    st.sampled_from(["note", "sampling_hz", "lable", "Label", "id ", "", "depth", "comment"]),
    st.text(max_size=12),
).filter(lambda key: key not in KNOWN)

CONFIG = {
    "dataset": {"synthetic": {"num_subjects": 1, "num_sessions": 3, "n_electrodes": 4, "d_bands": 3}},
    "protocol": "intra",
    "backbone": {
        "n_electrodes": 4, "d_bands": 3, "conv_channels": [2, 2, 2, 4], "embedding_dim": 4, "adapter_hidden": 8,
    },
    "train": {"way": 3, "shot": 1, "queries": 1},
    "adapt": {"n_snapshots": 2, "kernel": {"bandwidths": [1.0, 2.0], "weights": [1.0, 1.0]}},
    "supervised": {"num_classes": 3, "max_epochs": 1},
    "eval_episodes": 2,
    "seed": 1,
}
TINY = backbone.BackboneConfig(n_electrodes=4, d_bands=3, conv_channels=(2, 2, 2, 4), embedding_dim=4, adapter_hidden=8)


def objects(doc) -> list[tuple]:
    """The key/index path of every JSON object in ``doc``, the document itself first."""
    paths = [()] + list(json_paths(doc))
    return [path for path in paths if isinstance(at(doc, path), dict)]


def at(doc, path: tuple):
    for key in path:
        doc = doc[key]
    return doc


def with_key(doc, draw, only=None):
    """A copy of ``doc`` with a drawn unknown key added to a drawn object; returns it and the key."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(objects(doc) if only is None else only))
    key = draw(UNKNOWN_KEYS)
    at(doc, path)[key] = 1
    return doc, key


def quiet(argv) -> tuple[int, str]:
    """``evofa`` on ``argv``, returning its exit status and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """One valid input of each kind: a synth-gen manifest, a config, a checkpoint and a results.json."""
    root = tmp_path_factory.mktemp("inputs")
    generator = root / "generator.json"
    generator.write_text(json.dumps({
        "num_subjects": 2, "num_sessions": 2, "trials_per_session": 2, "samples_per_trial": 2,
        "n_electrodes": 4, "d_bands": 3,
    }))
    assert quiet(["synth-gen", "--config", str(generator), "--out", str(root / "data")])[0] == 0
    checkpoint = save_checkpoint(backbone.create_model(TINY, seed=5), root / "m.ckpt")
    row = dict(protocol="intra", subject="1", session="3", shots=1, way=3, queries=10, episodes=2,
               mean_accuracy=0.5, std_accuracy=0.1, std_over="episodes", wall_clock_seconds=1.0)
    rows = [harness.ResultRow(method=method, **row) for method in ("fsl", "fsl+evofa")]
    harness.ResultTable(rows).with_aggregates().write(root / "results")
    return {
        "manifest": root / "data" / "manifest.json",
        "config": root / "config.json",
        "checkpoint": (checkpoint, checkpoint.read_bytes()),
        "results": root / "results" / "results.json",
    }


def test_each_input_is_valid_as_written(inputs):
    assert len(data.import_features(inputs["manifest"])) == 2 * 2 * 2 * 2
    inputs["config"].write_text(json.dumps(CONFIG))
    assert harness.load_experiment_config(inputs["config"]).adapt.kernel.bandwidths == (1.0, 2.0)
    assert load_checkpoint(inputs["checkpoint"][0]).config == TINY
    assert quiet(["report", "--results", str(inputs["results"])]) == (0, "")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_manifest_rejects_an_unknown_key_at_every_level(inputs, draw):
    path = inputs["manifest"]
    original = path.read_text()
    doc, key = with_key(json.loads(original), draw.draw)
    path.write_text(json.dumps(doc))
    try:
        with pytest.raises(DatasetSchemaError, match=f"^{re.escape(str(path))}: ") as err:
            data.import_features(path)
    finally:
        path.write_text(original)
    assert f" has unknown key {key!r}" in str(err.value)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_config_rejects_an_unknown_key_in_every_section(inputs, draw):
    path = inputs["config"]
    doc, key = with_key(CONFIG, draw.draw)
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: ") as err:
        harness.load_experiment_config(path)
    assert f" has unknown key {key!r}" in str(err.value)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_checkpoint_header_rejects_an_unknown_key(inputs, draw):
    path, blob = inputs["checkpoint"]
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header, key = with_key(json.loads(blob[16 : 16 + header_len]), draw.draw)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = blob[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes + blob[16 + header_len : -8]
    path.write_bytes(body + struct.pack("<Q", crc64(body)))  # re-signed, so only the header is wrong
    try:
        with pytest.raises(CheckpointError, match=f"^checkpoint {re.escape(str(path))} header") as err:
            load_checkpoint(path)
    finally:
        path.write_bytes(blob)
    assert f" has unknown key {key!r}" in str(err.value)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_report_rejects_an_unknown_key_at_the_top_or_in_a_row(inputs, draw):
    path = inputs["results"]
    original = path.read_text()
    doc = json.loads(original)
    doc, key = with_key(doc, draw.draw, only=[()] + [("rows", i) for i in range(len(doc["rows"]))])
    path.write_text(json.dumps(doc))
    try:
        status, err = quiet(["report", "--results", str(path)])
    finally:
        path.write_text(original)
    assert status == 1
    assert re.search(f"results {re.escape(str(path))}( row [0-9]+)? has unknown key {re.escape(repr(key))}", err)


# -- structural guard: only the readers read, only the writer writes ---------------------------

READS = {"json.loads", ".read_text(", ".read_bytes(", "open(", ".open("}
WRITES = {".write_bytes(", ".write_text(", "os.replace", "os.link", ".mkdir(", ".unlink(", ".rmdir("}

# (qualname, call) -> why that call may read or decode there
ALLOWED_READS = {
    ("data.read_json", "json.loads"): "the reader of every JSON file: config, manifest, results.json",
    ("data.read_json", ".read_text("): "the reader of every JSON file: config, manifest, results.json",
    ("data.read_versioned", ".read_bytes("): "the reader of every binary file: .evfa feature files, checkpoints",
    ("checkpoint.load_checkpoint", "json.loads"): (
        "decodes the header inside the bytes that read_versioned returned, then hands it to read_fields"
    ),
    ("harness.config_to_obj", "json.loads"): (
        "round-trips the package's own config to turn tuples into lists; reads no file"
    ),
}
# (qualname, call) -> why that call may write, make or remove a file or directory there
ALLOWED_WRITES = {
    ("data.atomic_write", ".mkdir("): "makes the directories a file goes in, noting them for all_or_nothing",
    ("data.atomic_write", ".write_bytes("): "writes the .tmp that is renamed over the file",
    ("data.atomic_write", "os.replace"): "renames the .tmp over the file: a reader sees all of it or none",
    ("data.atomic_write", "os.link"): (
        "keeps the bytes a file held before, as .evofa-old, for all_or_nothing to give back"
    ),
    ("data.atomic_write", ".unlink("): "removes a failed write's .tmp, and an .evofa-old that a killed run left",
    ("data.all_or_nothing", "os.replace"): "gives a file overwritten in a failed block its old bytes back",
    ("data.all_or_nothing", ".unlink("): "removes a failed block's new files, or the .evofa-old of a block that ended",
    ("data.all_or_nothing", ".rmdir("): "removes the directories a failed block made, if they are empty",
}


def named_call(node: ast.Call) -> str | None:
    """``node``'s call as the guards name it: ``open(``, ``json.loads``, ``os.replace``, ``.attr(``."""
    func = node.func
    if isinstance(func, ast.Name):
        return f"{func.id}("
    if not isinstance(func, ast.Attribute):
        return None
    if isinstance(func.value, ast.Name) and func.value.id in ("json", "os"):
        return f"{func.value.id}.{func.attr}"
    return f".{func.attr}("


def calls_under(node, scope: list[str], names: set[str]):
    """(qualname, call) of each call in ``names`` under ``node``, whose qualname is ``scope``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from calls_under(child, scope + [child.name], names)
            continue
        if isinstance(child, ast.Call) and named_call(child) in names:
            yield ".".join(scope), named_call(child)
        yield from calls_under(child, scope, names)


def package_calls(names: set[str]) -> set[tuple[str, str]]:
    """(module.function qualname, call) of every call in ``names`` in ``src/evofa``."""
    sources = sorted(Path(evofa.__file__).parent.glob("*.py"))
    return {call for source in sources for call in calls_under(ast.parse(source.read_text()), [source.stem], names)}


def check_guard(names: set[str], allowed: dict, only: str) -> None:
    """Fail naming each call in ``names`` that ``allowed`` does not list, then each entry that names no call."""
    calls = package_calls(names)
    stray = sorted(calls - allowed.keys())
    assert stray == [], f"called outside {only}: {stray}"
    assert sorted(allowed.keys() - calls) == [], "an allowlist entry names no call: delete it"


def test_only_the_readers_read_files_or_decode_json():
    check_guard(READS, ALLOWED_READS, "data.read_json / data.read_versioned")


def test_only_the_writer_writes_makes_or_removes_files():
    check_guard(WRITES, ALLOWED_WRITES, "data.atomic_write / data.all_or_nothing")
