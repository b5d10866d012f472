"""Dataset container, importer, synthetic drift, and split protocols."""
import json
import re
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evofa import data, mmd
from evofa.autodiff import Tensor
from evofa.errors import (
    ConfigError,
    DataError,
    DatasetSchemaError,
    IngestError,
    ProtocolError,
)

from jsonfuzz import mutated, mutation_lists

SMALL = data.DriftConfig(
    num_subjects=2,
    num_sessions=3,
    trials_per_session=6,
    samples_per_trial=5,
    num_classes=3,
    n_electrodes=4,
    d_bands=3,
    class_separation=2.0,
    intra_drift_rate=0.5,
    inter_subject_offset_scale=1.0,
    noise_std=1.0,
    rng_seed=7,
)


def write_manifest(tmp_path, trials, schema=(4, 2), classes=("neg", "neu", "pos")):
    (tmp_path / "features").mkdir(parents=True, exist_ok=True)
    manifest = {
        "schema": {"electrodes": schema[0], "bands": schema[1]},
        "classes": list(classes),
        "subjects": [
            {
                "id": 1,
                "sessions": [{"id": 1, "trials": trials}],
            }
        ],
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def write_binary(path, arr):
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = np.ascontiguousarray(arr, dtype="<f4").tobytes()
    path.write_bytes(data.FEATURE_MAGIC + struct.pack("<I", data.FEATURE_VERSION) + payload)


# -- importer -------------------------------------------------------------------

def test_import_counts_and_schema(tmp_path):
    rng = np.random.default_rng(0)
    trials = []
    for trial in (1, 2):
        arr = rng.normal(size=(3, 4, 2))
        write_binary(tmp_path / "features" / f"t{trial}.evfa", arr)
        trials.append({"id": trial, "label": trial - 1, "file": f"features/t{trial}.evfa", "count": 3})
    ds = data.import_features(write_manifest(tmp_path, trials))
    assert len(ds) == 6
    assert ds.schema == (4, 2)
    assert ds.num_classes == 3
    assert ds.time.tolist() == [0, 1, 2, 3, 4, 5]
    assert ds.trial.tolist() == [1, 1, 1, 2, 2, 2]


def test_import_missing_file_names_path(tmp_path):
    trials = [{"id": 1, "label": 0, "file": "features/absent.evfa", "count": 3}]
    path = write_manifest(tmp_path, trials)
    with pytest.raises(IngestError, match="absent.evfa"):
        data.import_features(path)


def test_import_truncated_binary_rejected(tmp_path):
    arr = np.zeros((3, 4, 2))
    fpath = tmp_path / "features"
    fpath.mkdir(exist_ok=True)
    write_binary(fpath / "t1.evfa", arr)
    blob = (fpath / "t1.evfa").read_bytes()
    (fpath / "t1.evfa").write_bytes(blob[:-5])
    trials = [{"id": 1, "label": 0, "file": "features/t1.evfa", "count": 3}]
    with pytest.raises(DatasetSchemaError):
        data.import_features(write_manifest(tmp_path, trials))


def test_import_count_mismatch_rejected(tmp_path):
    arr = np.zeros((3, 4, 2))
    (tmp_path / "features").mkdir(exist_ok=True)
    write_binary(tmp_path / "features" / "t1.evfa", arr)
    trials = [{"id": 1, "label": 0, "file": "features/t1.evfa", "count": 4}]
    with pytest.raises(DatasetSchemaError):
        data.import_features(write_manifest(tmp_path, trials))


def test_import_bad_magic_rejected(tmp_path):
    (tmp_path / "features").mkdir(exist_ok=True)
    (tmp_path / "features" / "t1.evfa").write_bytes(b"XXXX" + b"\x00" * 30)
    trials = [{"id": 1, "label": 0, "file": "features/t1.evfa", "count": 1}]
    with pytest.raises(DatasetSchemaError, match="magic"):
        data.import_features(write_manifest(tmp_path, trials, schema=(1, 1)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_import_non_finite_reports_coordinates(tmp_path, value):
    arr = np.zeros((3, 4, 2))
    arr[1, 2, 0] = value
    (tmp_path / "features").mkdir(exist_ok=True)
    write_binary(tmp_path / "features" / "t1.evfa", arr)
    trials = [{"id": 1, "label": 0, "file": "features/t1.evfa", "count": 3}]
    feature_file = (tmp_path / "features" / "t1.evfa").resolve()
    with pytest.raises(DataError, match="trial 1 row 1") as err:
        data.import_features(write_manifest(tmp_path, trials))
    assert str(err.value).startswith(f"{feature_file}: non-finite value")


def test_import_signaling_nan_rejected_without_runtime_warning(tmp_path):
    # a float32 signaling NaN makes numpy warn when it is widened; the reader rejects it quietly
    payload = np.zeros(4 * 2, dtype="<f4").tobytes()[:-4] + struct.pack("<I", 0x7FA00000)
    (tmp_path / "features").mkdir(exist_ok=True)
    (tmp_path / "features" / "t1.evfa").write_bytes(
        data.FEATURE_MAGIC + struct.pack("<I", data.FEATURE_VERSION) + payload
    )
    trials = [{"id": 1, "label": 0, "file": "features/t1.evfa", "count": 1}]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="trial 1 row 0 position \\(3,1\\)"):
            data.import_features(write_manifest(tmp_path, trials))


@pytest.mark.parametrize("label", [5, 3, -1])
def test_import_label_outside_class_map_rejected(tmp_path, label):
    arr = np.zeros((1, 4, 2))
    (tmp_path / "features").mkdir(exist_ok=True)
    write_binary(tmp_path / "features" / "t1.evfa", arr)
    trials = [{"id": 1, "label": label, "file": "features/t1.evfa", "count": 1}]
    manifest = write_manifest(tmp_path, trials)
    says = f"{manifest}: subject 1 session 1 trial 1 field 'label' is {label}, outside the class map (size 3)"
    with pytest.raises(DatasetSchemaError, match=re.escape(says)):
        data.import_features(manifest)


# where the error names the entry that lacks each field: trial, session or subject level
MISSING_FIELD_WHERE = {
    "count": "subject 1 session 1 trial 7",
    "file": "subject 1 session 1 trial 7",
    "label": "subject 1 session 1 trial 7",
    "id": "subject 1 session 1 trial at position 0",
    "session.id": "subject 1 session at position 0",
    "session.trials": "subject 1 session 1",
    "subject.id": "subject at position 0",
    "subject.sessions": "subject 1",
}


@pytest.mark.parametrize("field", list(MISSING_FIELD_WHERE))
def test_import_trial_missing_field_names_manifest_trial_and_field(tmp_path, field):
    write_binary(tmp_path / "features" / "t7.evfa", np.zeros((1, 4, 2)))
    trial = {"id": 7, "label": 0, "file": "features/t7.evfa", "count": 1}
    path = write_manifest(tmp_path, [trial])
    manifest = json.loads(path.read_text())
    subject = manifest["subjects"][0]
    session = subject["sessions"][0]
    level, _, key = field.rpartition(".")
    del {"subject": subject, "session": session, "": session["trials"][0]}[level][key]
    path.write_text(json.dumps(manifest))
    with pytest.raises(DatasetSchemaError) as err:
        data.import_features(path)
    message = str(err.value)
    assert str(path) in message
    assert f"{MISSING_FIELD_WHERE[field]} is missing field {key!r}" in message


# (entry holding the field, field, wrong value, what the error says about it)
WRONG_TYPE = [
    ("subject", "sessions", 5, "subject 1 field 'sessions' must be a list"),
    ("session", "trials", None, "subject 1 session 1 field 'trials' must be a list"),
    ("session", "trials", [5], "subject 1 session 1 trial at position 0 must be an object"),
    ("trial", "label", None, "trial 7 field 'label' must be an integer"),
    ("trial", "label", "1", "trial 7 field 'label' must be an integer"),
    ("trial", "file", 5, "trial 7 field 'file' must be a string"),
    ("trial", "id", "x", "trial at position 0 field 'id' must be an integer"),
    ("trial", "id", 1.7, "trial at position 0 field 'id' must be an integer"),
    ("trial", "id", True, "trial at position 0 field 'id' must be an integer"),
    ("trial", "count", "a", "trial 7 field 'count' must be a nonnegative integer"),
    ("trial", "count", -1, "trial 7 field 'count' must be a nonnegative integer"),
    ("schema", "electrodes", "x", "schema field 'electrodes' must be an integer"),
    ("schema", "bands", 0, "schema field 'bands' must be an integer"),
    ("manifest", "subjects", {}, "field 'subjects' must be a list"),
    ("manifest", "classes", "abc", "field 'classes' must be a list"),
]


@pytest.mark.parametrize(
    "level,key,value,says", WRONG_TYPE, ids=[f"{w[0]}.{w[1]}={w[2]!r}" for w in WRONG_TYPE]
)
def test_import_wrong_type_names_manifest_entry_and_field(tmp_path, level, key, value, says):
    write_binary(tmp_path / "features" / "t7.evfa", np.zeros((1, 4, 2)))
    trial = {"id": 7, "label": 0, "file": "features/t7.evfa", "count": 1}
    path = write_manifest(tmp_path, [trial])
    manifest = json.loads(path.read_text())
    subject = manifest["subjects"][0]
    session = subject["sessions"][0]
    entries = {
        "manifest": manifest,
        "schema": manifest["schema"],
        "subject": subject,
        "session": session,
        "trial": session["trials"][0],
    }
    entries[level][key] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(DatasetSchemaError) as err:
        data.import_features(path)
    message = str(err.value)
    assert str(path) in message
    assert says in message


def test_import_rejects_repeated_trial_id(tmp_path):
    write_binary(tmp_path / "features" / "t1.evfa", np.zeros((3, 4, 2)))
    trial = {"id": 1, "label": 0, "file": "features/t1.evfa", "count": 3}
    path = write_manifest(tmp_path, [trial, dict(trial)])
    with pytest.raises(DatasetSchemaError, match="trial 1 is listed more than once"):
        data.import_features(path)


def test_import_rejects_two_trials_naming_one_file(tmp_path):
    write_binary(tmp_path / "features" / "t1.evfa", np.zeros((3, 4, 2)))
    trials = [
        {"id": 1, "label": 0, "file": "features/t1.evfa", "count": 3},
        {"id": 2, "label": 1, "file": "features/./t1.evfa", "count": 3},  # the same file, spelled apart
    ]
    path = write_manifest(tmp_path, trials)
    says = (
        f"{path}: subject 1 session 1 trial 2 field 'file' names the file of "
        "subject 1 session 1 trial 1: 'features/./t1.evfa'"
    )
    with pytest.raises(DatasetSchemaError, match=f"^{re.escape(says)}$"):
        data.import_features(path)


@pytest.mark.parametrize("where", ["parent", "absolute"])
def test_import_rejects_file_outside_manifest_directory(tmp_path, where):
    container = tmp_path / "container"
    outside = tmp_path / "outside.evfa"
    write_binary(outside, np.zeros((1, 4, 2)))  # the file exists: only its place is wrong
    file = "../outside.evfa" if where == "parent" else str(outside)
    trials = [{"id": 1, "label": 0, "file": file, "count": 1}]
    path = write_manifest(container, trials)
    with pytest.raises(DatasetSchemaError, match="trial 1 field 'file' lies outside"):
        data.import_features(path)


# -- manifest fuzzing ---------------------------------------------------------------

FUZZ_SOURCE = data.DriftConfig(
    num_subjects=2, num_sessions=2, trials_per_session=2, samples_per_trial=2,
    num_classes=2, n_electrodes=2, d_bands=1, rng_seed=4,
)


@pytest.fixture(scope="module")
def fuzz_container(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    manifest = data.export_features(data.generate_synthetic_drift(FUZZ_SOURCE), root / "c")
    write_binary(root / "outside.evfa", np.zeros((2, 2, 1)))  # loadable, were paths unconfined
    return manifest, json.loads(manifest.read_text())


FUZZ_VALUES = (
    None, True, -1, 0, 1, 2, 1.5, 2**70, "x", "", [], {}, [{}],
    "features", "../outside.evfa", "/outside.evfa", "features/../../outside.evfa",
    "features/sub01_ses1_trial01.evfa", "features/absent.evfa",
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_manifest_loads_or_raises_ingest_error(fuzz_container, draw):
    manifest_path, original = fuzz_container
    mutations = draw.draw(mutation_lists(original, FUZZ_VALUES))
    manifest_path.write_text(json.dumps(mutated(original, mutations)))
    try:
        ds = data.import_features(manifest_path)
    except IngestError:
        return
    assert isinstance(ds, data.DatasetIndex)
    assert ds.features.shape == (len(ds),) + ds.schema


# -- feature binary fuzzing -----------------------------------------------------------


@pytest.fixture(scope="module")
def feature_container(tmp_path_factory):
    manifest = data.export_features(
        data.generate_synthetic_drift(FUZZ_SOURCE), tmp_path_factory.mktemp("evfa")
    )
    blobs = {path: path.read_bytes() for path in sorted(manifest.parent.glob("features/*.evfa"))}
    return manifest, manifest.read_text(), blobs


@st.composite
def mutated_feature_files(draw, blob: bytes, count: int) -> tuple[bytes, int]:
    """An .evfa blob with its magic, version, length or payload bytes mutated, or a
    manifest ``count`` for it, sometimes with the payload cut to that many rows."""
    head = len(data.FEATURE_MAGIC) + 4
    row = (len(blob) - head) // count
    body = bytearray(blob)
    kind = draw(st.sampled_from(("magic", "version", "length", "payload", "count")))
    if kind == "magic":
        body[:4] = draw(st.sampled_from((b"EVFB", b"evfa", b"AFVE", bytes(4))))
    elif kind == "version":
        body[4:8] = struct.pack("<I", draw(st.sampled_from((0, 2, 255, 2**32 - 1))))
    elif kind == "length":
        body = body[: draw(st.integers(0, len(blob)))] + draw(st.binary(max_size=12))
    elif kind == "payload":
        for position in draw(st.lists(st.integers(head, len(blob) - 1), min_size=1, max_size=4)):
            body[position] = draw(st.integers(0, 255))
    else:
        count = draw(st.sampled_from((0, count - 1, count + 1, 2 * count, 2**40)))
        if count <= len(blob) and draw(st.booleans()):
            body = body[: head + count * row]
    return bytes(body), count


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_feature_file_loads_or_raises_ingest_error(feature_container, draw):
    manifest_path, manifest_text, blobs = feature_container
    target = draw.draw(st.sampled_from(list(blobs)))
    manifest = json.loads(manifest_text)
    trials = [t for s in manifest["subjects"] for x in s["sessions"] for t in x["trials"]]
    trial = next(t for t in trials if t["file"] == f"features/{target.name}")
    body, trial["count"] = draw.draw(mutated_feature_files(blobs[target], trial["count"]))
    target.write_bytes(body)
    manifest_path.write_text(json.dumps(manifest))
    try:
        ds = data.import_features(manifest_path)
    except IngestError:
        return
    finally:
        target.write_bytes(blobs[target])
        manifest_path.write_text(manifest_text)
    assert ds.features.shape == (len(ds),) + ds.schema
    assert np.isfinite(ds.features).all()


def test_mutated_leaves_fuzz_values_unchanged():
    before = repr(FUZZ_VALUES)
    for value in FUZZ_VALUES:
        # retype a list to `value`, then mutate inside what was stored there
        mutations = [
            (("subjects",), "retype", value),
            (("subjects", 0), "retype", value),
            (("subjects", 0), "duplicate", value),
        ]
        json.dumps(mutated({"subjects": [{"id": 1}]}, mutations))
    assert repr(FUZZ_VALUES) == before


def test_import_missing_manifest(tmp_path):
    with pytest.raises(IngestError):
        data.import_features(tmp_path / "nope.json")


def test_import_non_utf8_manifest_names_it(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_bytes('{"classes": ["\xe9"]}'.encode("latin-1"))
    with pytest.raises(DatasetSchemaError, match=f"manifest is not valid JSON: {path}"):
        data.import_features(path)


def test_export_import_round_trip_seed_convention(tmp_path):
    cfg = data.DriftConfig(
        num_subjects=15,
        num_sessions=3,
        trials_per_session=15,
        samples_per_trial=2,
        num_classes=3,
        n_electrodes=62,
        d_bands=5,
        rng_seed=11,
    )
    ds = data.generate_synthetic_drift(cfg)
    manifest = data.export_features(ds, tmp_path)
    back = data.import_features(manifest)
    assert len(back) == len(ds) == 15 * 3 * 15 * 2
    assert back.schema == (62, 5)
    assert back.class_names == ds.class_names
    for column in ("features",) + data.COLUMNS:
        assert np.array_equal(getattr(ds, column), getattr(back, column)), column


@pytest.mark.parametrize("value", [1e39, -1e39, np.inf, np.nan])
def test_export_refuses_a_feature_float32_cannot_hold_naming_its_trial(tmp_path, value):
    # a finite 1e39 was written as inf, and the importer then rejected the container
    ds = data.generate_synthetic_drift(SMALL)
    features = ds.features.copy()
    row = int(np.flatnonzero((ds.subject == 2) & (ds.session == 3) & (ds.trial == 4))[1])
    features[row, 3, 2] = value
    bad = data.DatasetIndex(
        features, ds.subject, ds.session, ds.trial, ds.time, ds.label, ds.num_classes, ds.schema
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="^feature beyond float32 range or not finite at subject 2, session 3, trial 4$"):
            data.export_features(bad, tmp_path)
    assert not (tmp_path / "manifest.json").exists()
    assert not (tmp_path / "features").exists()


# -- dataset invariants ---------------------------------------------------------

def test_time_index_strictly_increasing_per_session():
    ds = data.generate_synthetic_drift(SMALL)
    for subject in ds.subjects():
        for session in ds.sessions(subject):
            times = ds.select(subject=subject, session=session).time
            assert np.all(np.diff(times) > 0)


def test_dataset_rejects_unsorted_samples():
    ds = data.generate_synthetic_drift(SMALL)
    reversed_columns = [getattr(ds, c)[::-1] for c in ("features",) + data.COLUMNS]
    with pytest.raises(DataError):
        data.DatasetIndex(*reversed_columns, num_classes=ds.num_classes, schema=ds.schema)


def test_dataset_rejects_schema_mismatch():
    ds = data.generate_synthetic_drift(SMALL)
    columns = [getattr(ds, c) for c in ("features",) + data.COLUMNS]
    with pytest.raises(DatasetSchemaError):
        data.DatasetIndex(*columns, num_classes=ds.num_classes, schema=(9, 9))


def _columns(ds):
    return {c: getattr(ds, c).copy() for c in ("features",) + data.COLUMNS}


def test_dataset_rejects_short_column():
    ds = data.generate_synthetic_drift(SMALL)
    columns = _columns(ds)
    columns["trial"] = columns["trial"][:-1]
    with pytest.raises(DatasetSchemaError, match="column trial"):
        data.DatasetIndex(**columns, num_classes=ds.num_classes, schema=ds.schema)


def test_dataset_names_first_bad_label_and_repeated_time():
    ds = data.generate_synthetic_drift(SMALL)
    columns = _columns(ds)
    columns["label"][40] = 7
    with pytest.raises(DataError, match="label 7 out of range at subject 1, session 2, trial 3"):
        data.DatasetIndex(**columns, num_classes=ds.num_classes, schema=ds.schema)
    columns = _columns(ds)
    columns["time"][31] = columns["time"][30]
    with pytest.raises(DataError, match="time_index not strictly increasing within subject 1 session 2"):
        data.DatasetIndex(**columns, num_classes=ds.num_classes, schema=ds.schema)


def test_select_keeps_dataset_order_and_metadata():
    ds = data.generate_synthetic_drift(SMALL)
    part = ds.select(session=2)
    assert isinstance(part, data.DatasetIndex)
    assert len(part) == SMALL.num_subjects * SMALL.samples_per_session
    assert part.subjects() == [1, 2] and part.sessions() == [2]
    assert np.array_equal(part.features, ds.features[ds.session == 2])
    assert (part.num_classes, part.schema, part.class_names) == (
        ds.num_classes, ds.schema, ds.class_names
    )


def test_split_spec_rejects_overlapping_cells():
    with pytest.raises(ProtocolError, match="overlap on subject 1, session 2"):
        data.SplitSpec(
            train=frozenset({(1, 1)}),
            val=frozenset({(1, 2)}),
            test=frozenset({(1, 2), (1, 3)}),
        )


def test_labels_constant_within_trial():
    ds = data.generate_synthetic_drift(SMALL)
    for subject in ds.subjects():
        for session in ds.sessions(subject):
            for trial in range(1, SMALL.trials_per_session + 1):
                labels = ds.select(subject=subject, session=session, trial=trial).label
                assert len(set(labels.tolist())) == 1


# -- synthetic generator ----------------------------------------------------------

def test_generator_deterministic():
    a = data.generate_synthetic_drift(SMALL)
    b = data.generate_synthetic_drift(SMALL)
    assert len(a) == len(b)
    assert np.array_equal(a.features, b.features)


def test_generator_config_validation():
    with pytest.raises(ConfigError):
        data.DriftConfig(num_subjects=0)
    with pytest.raises(ConfigError):
        data.DriftConfig(noise_std=-1.0)
    with pytest.raises(ConfigError):
        data.DriftConfig(n_electrodes=1, d_bands=1, num_classes=3)


@pytest.mark.parametrize("field", ["num_subjects", "samples_per_trial", "d_bands"])
def test_generator_config_rejects_bool_counts(field):
    with pytest.raises(ConfigError, match=f"{field} must be a positive integer, got True"):
        data.DriftConfig(**{field: True})


@pytest.mark.parametrize(
    "field", ["class_separation", "intra_drift_rate", "inter_subject_offset_scale", "noise_std"]
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_generator_rejects_non_finite_scales(field, value):
    with pytest.raises(ConfigError, match=field):
        data.DriftConfig(**{field: value})


@pytest.mark.parametrize(
    "field,value", [("class_separation", 1e39), ("noise_std", 1e39), ("intra_drift_rate", 1e38), ("noise_std", 1e308)]
)
def test_generator_rejects_scales_whose_features_float32_cannot_hold(field, value):
    # each value meets its Scale rule; the features came out inf, with only numpy's cast warning
    cfg = replace(SMALL, **{field: value})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=f"beyond float32 range: .*{field}"):
            data.generate_synthetic_drift(cfg)


def test_class_separation_is_exact_in_the_noiseless_limit():
    cfg = data.DriftConfig(
        num_subjects=1,
        num_sessions=1,
        trials_per_session=3,
        samples_per_trial=4,
        num_classes=3,
        n_electrodes=4,
        d_bands=3,
        class_separation=5.0,
        intra_drift_rate=0.0,
        inter_subject_offset_scale=0.0,
        noise_std=0.0,
        rng_seed=3,
    )
    ds = data.generate_synthetic_drift(cfg)
    means = {}
    for label in range(3):
        rows = ds.features[ds.label == label]
        means[label] = rows.reshape(len(rows), -1).mean(axis=0)
    expect = 5.0 * np.sqrt(12)  # per-coordinate RMS units: distance scales with sqrt(dim)
    for a in range(3):
        for b in range(a + 1, 3):
            # float32 rounding of the stored features costs a few 1e-7
            assert np.linalg.norm(means[a] - means[b]) == pytest.approx(expect, abs=1e-4)


def _session_features(ds, subject, session):
    rows = ds.select(subject=subject, session=session)
    return rows.features.reshape(len(rows), -1)


def test_no_drift_sessions_are_stationary():
    cfg = data.DriftConfig(
        num_subjects=1,
        num_sessions=3,
        trials_per_session=6,
        samples_per_trial=30,
        num_classes=3,
        n_electrodes=4,
        d_bands=3,
        class_separation=2.0,
        intra_drift_rate=0.0,
        inter_subject_offset_scale=0.0,
        noise_std=1.0,
        rng_seed=5,
    )
    ds = data.generate_synthetic_drift(cfg)
    s1_all, s3_all = _session_features(ds, 1, 1), _session_features(ds, 1, 3)
    for label in range(3):
        s1 = s1_all[ds.select(subject=1, session=1).label == label]
        s3 = s3_all[ds.select(subject=1, session=3).label == label]
        count = len(s1)
        gap = np.mean(s1, axis=0) - np.mean(s3, axis=0)
        rms = np.linalg.norm(gap) / np.sqrt(gap.size)
        assert rms < 3.0 * cfg.noise_std / np.sqrt(count)


def test_drift_raises_between_session_mmd():
    base = dict(
        num_subjects=1,
        num_sessions=3,
        trials_per_session=6,
        samples_per_trial=20,
        num_classes=3,
        n_electrodes=4,
        d_bands=3,
        class_separation=2.0,
        inter_subject_offset_scale=0.0,
        noise_std=1.0,
        rng_seed=9,
    )
    still = data.generate_synthetic_drift(data.DriftConfig(intra_drift_rate=0.0, **base))
    moved = data.generate_synthetic_drift(data.DriftConfig(intra_drift_rate=1.5, **base))
    a0, b0 = _session_features(still, 1, 1), _session_features(still, 1, 3)
    a1, b1 = _session_features(moved, 1, 1), _session_features(moved, 1, 3)
    spec = mmd.default_spec(a0, b0)
    quiet = mmd.mmd2(Tensor(a0), Tensor(b0), spec).item()
    drifted = mmd.mmd2(Tensor(a1), Tensor(b1), spec).item()
    assert drifted > quiet


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("pair", [(1, 2), (1, 3), (2, 3)])
def test_no_drift_mmd_within_permutation_null(seed, pair):
    cfg = data.DriftConfig(
        num_subjects=1,
        num_sessions=3,
        trials_per_session=3,
        samples_per_trial=10,
        num_classes=3,
        n_electrodes=3,
        d_bands=2,
        class_separation=1.5,
        intra_drift_rate=0.0,
        inter_subject_offset_scale=0.0,
        noise_std=1.0,
        rng_seed=100 + seed,
    )
    ds = data.generate_synthetic_drift(cfg)
    x = _session_features(ds, 1, pair[0])
    y = _session_features(ds, 1, pair[1])
    spec = mmd.default_spec(x, y)
    observed = mmd.mmd2(Tensor(x), Tensor(y), spec).item()
    pooled = np.concatenate([x, y], axis=0)
    rng = np.random.default_rng(seed)
    null = []
    for _ in range(100):
        perm = rng.permutation(len(pooled))
        px, py = pooled[perm[: len(x)]], pooled[perm[len(x) :]]
        null.append(mmd.mmd2(Tensor(px), Tensor(py), spec).item())
    assert observed < np.quantile(null, 0.95)


# -- splits ------------------------------------------------------------------------

def test_intra_split_maps_sessions():
    ds = data.generate_synthetic_drift(SMALL)
    spec = data.make_intra_split(ds, subject_id=1)
    train = spec.select(ds, "train")
    val = spec.select(ds, "val")
    test = spec.select(ds, "test")
    assert train.sessions() == [1]
    assert val.sessions() == [2]
    assert test.sessions() == [3]
    assert train.subjects() == val.subjects() == test.subjects() == [1]
    assert len(train) == len(ds.select(subject=1, session=1))


def test_intra_split_disjoint():
    ds = data.generate_synthetic_drift(SMALL)
    spec = data.make_intra_split(ds, subject_id=2)
    ids = lambda part: set(zip(*(getattr(spec.select(ds, part), c).tolist() for c in data.COLUMNS)))
    assert not (ids("train") & ids("val"))
    assert not (ids("train") & ids("test"))
    assert not (ids("val") & ids("test"))


def test_intra_split_needs_three_sessions():
    cfg = data.DriftConfig(
        num_subjects=1, num_sessions=2, trials_per_session=3, samples_per_trial=2,
        num_classes=3, n_electrodes=3, d_bands=2, rng_seed=1,
    )
    ds = data.generate_synthetic_drift(cfg)
    with pytest.raises(ProtocolError):
        data.make_intra_split(ds, subject_id=1)


def test_intra_split_missing_subject():
    ds = data.generate_synthetic_drift(SMALL)
    with pytest.raises(ProtocolError):
        data.make_intra_split(ds, subject_id=99)


def _subjects_of(spec, ds, part):
    return spec.select(ds, part).subjects()


@pytest.mark.parametrize("subjects,expect_val", [(15, 2), (16, 3)])
def test_inter_split_subject_counts(subjects, expect_val):
    cfg = data.DriftConfig(
        num_subjects=subjects, num_sessions=1, trials_per_session=3, samples_per_trial=2,
        num_classes=3, n_electrodes=3, d_bands=2, rng_seed=2,
    )
    ds = data.generate_synthetic_drift(cfg)
    spec = data.make_inter_split(ds, session_id=1, test_subject=1, rng=np.random.default_rng(0))
    assert len(_subjects_of(spec, ds, "train")) == 12
    assert len(_subjects_of(spec, ds, "val")) == expect_val
    assert _subjects_of(spec, ds, "test") == [1]


def test_inter_split_seeded_reproducible():
    cfg = data.DriftConfig(
        num_subjects=15, num_sessions=1, trials_per_session=3, samples_per_trial=2,
        num_classes=3, n_electrodes=3, d_bands=2, rng_seed=2,
    )
    ds = data.generate_synthetic_drift(cfg)
    a = data.make_inter_split(ds, 1, 3, np.random.default_rng(42))
    b = data.make_inter_split(ds, 1, 3, np.random.default_rng(42))
    assert _subjects_of(a, ds, "train") == _subjects_of(b, ds, "train")


def test_inter_split_too_few_subjects():
    cfg = data.DriftConfig(
        num_subjects=13, num_sessions=1, trials_per_session=3, samples_per_trial=2,
        num_classes=3, n_electrodes=3, d_bands=2, rng_seed=2,
    )
    ds = data.generate_synthetic_drift(cfg)
    with pytest.raises(ProtocolError):
        data.make_inter_split(ds, 1, 1, np.random.default_rng(0))
