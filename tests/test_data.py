"""Dataset container, importer, synthetic drift, and split protocols."""
import json
import struct

import numpy as np
import pytest

from evofa import data, mmd
from evofa.autodiff import Tensor
from evofa.errors import (
    ConfigError,
    DataError,
    DatasetSchemaError,
    IngestError,
    ProtocolError,
)

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
    (tmp_path / "features").mkdir(exist_ok=True)
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
    assert [s.time_index for s in ds.samples] == [0, 1, 2, 3, 4, 5]


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


def test_import_non_finite_reports_coordinates(tmp_path):
    arr = np.zeros((3, 4, 2))
    arr[1, 2, 0] = np.nan
    (tmp_path / "features").mkdir(exist_ok=True)
    write_binary(tmp_path / "features" / "t1.evfa", arr)
    trials = [{"id": 1, "label": 0, "file": "features/t1.evfa", "count": 3}]
    with pytest.raises(DataError, match="trial 1 row 1"):
        data.import_features(write_manifest(tmp_path, trials))


def test_import_label_outside_class_map_rejected(tmp_path):
    arr = np.zeros((1, 4, 2))
    (tmp_path / "features").mkdir(exist_ok=True)
    write_binary(tmp_path / "features" / "t1.evfa", arr)
    trials = [{"id": 1, "label": 5, "file": "features/t1.evfa", "count": 1}]
    with pytest.raises(DatasetSchemaError):
        data.import_features(write_manifest(tmp_path, trials))


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


def test_import_missing_manifest(tmp_path):
    with pytest.raises(IngestError):
        data.import_features(tmp_path / "nope.json")


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
    for a, b in zip(ds.samples, back.samples):
        assert (a.subject_id, a.session_id, a.trial_id, a.time_index, a.label) == (
            b.subject_id,
            b.session_id,
            b.trial_id,
            b.time_index,
            b.label,
        )
        assert np.array_equal(a.features, b.features)


# -- dataset invariants ---------------------------------------------------------

def test_time_index_strictly_increasing_per_session():
    ds = data.generate_synthetic_drift(SMALL)
    for subject in ds.subjects():
        for session in ds.sessions(subject):
            times = [s.time_index for s in ds.select(subject=subject, session=session)]
            assert all(b > a for a, b in zip(times, times[1:]))


def test_dataset_rejects_unsorted_samples():
    ds = data.generate_synthetic_drift(SMALL)
    shuffled = ds.samples[::-1]
    with pytest.raises(DataError):
        data.DatasetIndex(samples=shuffled, num_classes=ds.num_classes, schema=ds.schema)


def test_dataset_rejects_schema_mismatch():
    ds = data.generate_synthetic_drift(SMALL)
    with pytest.raises(DatasetSchemaError):
        data.DatasetIndex(samples=ds.samples, num_classes=ds.num_classes, schema=(9, 9))


def test_labels_constant_within_trial():
    ds = data.generate_synthetic_drift(SMALL)
    for subject in ds.subjects():
        for session in ds.sessions(subject):
            for trial in range(1, SMALL.trials_per_session + 1):
                labels = {s.label for s in ds.select(subject=subject, session=session, trial=trial)}
                assert len(labels) == 1


# -- synthetic generator ----------------------------------------------------------

def test_generator_deterministic():
    a = data.generate_synthetic_drift(SMALL)
    b = data.generate_synthetic_drift(SMALL)
    assert len(a) == len(b)
    assert np.array_equal(data.feature_matrix(list(a.samples)), data.feature_matrix(list(b.samples)))


def test_generator_config_validation():
    with pytest.raises(ConfigError):
        data.DriftConfig(num_subjects=0)
    with pytest.raises(ConfigError):
        data.DriftConfig(noise_std=-1.0)
    with pytest.raises(ConfigError):
        data.DriftConfig(n_electrodes=1, d_bands=1, num_classes=3)


@pytest.mark.parametrize(
    "field", ["class_separation", "intra_drift_rate", "inter_subject_offset_scale", "noise_std"]
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_generator_rejects_non_finite_scales(field, value):
    with pytest.raises(ConfigError, match=field):
        data.DriftConfig(**{field: value})


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
        rows = [s.features.reshape(-1) for s in ds.samples if s.label == label]
        means[label] = np.mean(rows, axis=0)
    expect = 5.0 * np.sqrt(12)  # per-coordinate RMS units: distance scales with sqrt(dim)
    for a in range(3):
        for b in range(a + 1, 3):
            # float32 rounding of the stored features costs a few 1e-7
            assert np.linalg.norm(means[a] - means[b]) == pytest.approx(expect, abs=1e-4)


def _session_features(ds, subject, session):
    rows = ds.select(subject=subject, session=session)
    return data.feature_matrix(rows).reshape(len(rows), -1)


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
    for label in range(3):
        s1 = [s.features.reshape(-1) for s in ds.select(subject=1, session=1) if s.label == label]
        s3 = [s.features.reshape(-1) for s in ds.select(subject=1, session=3) if s.label == label]
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
    assert spec.kind == "intra"
    train = spec.select(ds, "train")
    val = spec.select(ds, "val")
    test = spec.select(ds, "test")
    assert {s.session_id for s in train} == {1}
    assert {s.session_id for s in val} == {2}
    assert {s.session_id for s in test} == {3}
    assert all(s.subject_id == 1 for s in train + val + test)


def test_intra_split_disjoint():
    ds = data.generate_synthetic_drift(SMALL)
    spec = data.make_intra_split(ds, subject_id=2)
    spec.check_disjoint(ds)
    ids = lambda part: {id(s) for s in spec.select(ds, part)}
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
    return sorted({s.subject_id for s in spec.select(ds, part)})


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
    spec.check_disjoint(ds)


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
