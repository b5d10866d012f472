"""Dataset ingestion, synthetic drift generation, and split protocols.

On-disk container: a JSON manifest plus one raw binary per (subject, session,
trial). Binary layout: magic ``EVFA``, version u32 little-endian, then
count x electrodes x bands float32 little-endian, row-major. Feature values
pass through float32 on generation so export/import round-trips exactly.
"""
from __future__ import annotations

import json
import os
import struct
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DatasetSchemaError,
    IngestError,
    ProtocolError,
)

FEATURE_MAGIC = b"EVFA"
FEATURE_VERSION = 1
FLOAT32_MAX = float(np.finfo(np.float32).max)  # a float64 beyond it casts to inf


COLUMNS = ("subject", "session", "trial", "time", "label")


@dataclass(frozen=True, eq=False)
class DatasetIndex:
    """Immutable, chronologically sorted samples, stored column-wise.

    Row i is the feature matrix ``features[i]`` with its position in the
    recording timeline (``subject[i]``, ``session[i]``, ``trial[i]``,
    ``time[i]``) and its ``label[i]``. Rows are sorted by (subject, session,
    trial, time), and time strictly increases within a (subject, session).
    """

    features: np.ndarray  # [N x n_electrodes x d_bands] float64
    subject: np.ndarray  # [N] int64, like every column below
    session: np.ndarray
    trial: np.ndarray
    time: np.ndarray
    label: np.ndarray
    num_classes: int
    schema: tuple[int, int]
    class_names: tuple[str, ...] = ()

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        object.__setattr__(self, "features", features)
        for name in COLUMNS:
            column = np.asarray(getattr(self, name), dtype=np.int64)
            if column.shape != features.shape[:1]:
                raise DatasetSchemaError(
                    f"column {name} has shape {column.shape}, features hold {len(features)} rows"
                )
            object.__setattr__(self, name, column)
        subject, session, trial, time, label = (getattr(self, name) for name in COLUMNS)
        if features.shape[1:] != tuple(self.schema):
            raise DatasetSchemaError(
                f"samples have shape {features.shape[1:]}, schema says {self.schema}"
            )
        bad = np.flatnonzero((label < 0) | (label >= self.num_classes))
        if bad.size:
            i = bad[0]
            raise DataError(
                f"label {label[i]} out of range at subject {subject[i]}, "
                f"session {session[i]}, trial {trial[i]}"
            )
        # each row against the row before it
        same_cell = (subject[1:] == subject[:-1]) & (session[1:] == session[:-1])
        time_back = same_cell & (time[1:] <= time[:-1])
        cell_back = (subject[1:] < subject[:-1]) | (
            (subject[1:] == subject[:-1]) & (session[1:] < session[:-1])
        )
        bad = np.flatnonzero(time_back | cell_back | (same_cell & (trial[1:] < trial[:-1])))
        if bad.size:
            i = bad[0]
            if time_back[i]:
                raise DataError(
                    f"time_index not strictly increasing within subject {subject[i + 1]} "
                    f"session {session[i + 1]}"
                )
            raise DataError("samples not sorted by (subject, session, trial, time)")

    def __len__(self) -> int:
        return len(self.label)

    def subjects(self) -> list[int]:
        return np.unique(self.subject).tolist()

    def sessions(self, subject_id: int | None = None) -> list[int]:
        """Session ids of one subject, or of the whole dataset."""
        rows = self.session if subject_id is None else self.session[self.subject == subject_id]
        return np.unique(rows).tolist()

    def _subset(self, keep: np.ndarray) -> "DatasetIndex":
        """The rows where the boolean mask ``keep`` holds, in dataset order."""
        return replace(
            self,
            features=self.features[keep],
            **{name: getattr(self, name)[keep] for name in COLUMNS},
        )

    def select(
        self, subject: int | None = None, session: int | None = None, trial: int | None = None
    ) -> "DatasetIndex":
        """The rows matching every given id, in dataset order."""
        keep = np.ones(len(self), dtype=bool)
        for name, value in (("subject", subject), ("session", session), ("trial", trial)):
            if value is not None:
                keep &= getattr(self, name) == value
        return self._subset(keep)


# -- split protocols -----------------------------------------------------------

Cells = frozenset[tuple[int, int]]


@dataclass(frozen=True)
class SplitSpec:
    """Three disjoint sets of (subject, session) cells."""

    train: Cells
    val: Cells
    test: Cells

    def __post_init__(self):
        overlap = (self.train & self.val) | (self.train & self.test) | (self.val & self.test)
        if overlap:
            subject, session = min(overlap)
            raise ProtocolError(f"split parts overlap on subject {subject}, session {session}")

    def part(self, name: str) -> Cells:
        if name not in ("train", "val", "test"):
            raise ConfigError(f"unknown split part {name!r}")
        return getattr(self, name)

    def select(self, ds: DatasetIndex, name: str) -> DatasetIndex:
        """The part's rows of ``ds``, in dataset order."""
        keep = np.zeros(len(ds), dtype=bool)
        for subject, session in self.part(name):
            keep |= (ds.subject == subject) & (ds.session == session)
        return ds._subset(keep)


def make_intra_split(ds: DatasetIndex, subject_id: int) -> SplitSpec:
    """Within one subject: session 1 trains, session 2 validates, session 3 tests."""
    sessions = ds.sessions(subject_id)
    if not sessions:
        raise ProtocolError(f"subject {subject_id} not in dataset")
    for needed in (1, 2, 3):
        if needed not in sessions:
            raise ProtocolError(
                f"intra protocol needs sessions 1..3 for subject {subject_id}, found {sessions}"
            )
    return SplitSpec(
        train=frozenset({(subject_id, 1)}),
        val=frozenset({(subject_id, 2)}),
        test=frozenset({(subject_id, 3)}),
    )


def make_inter_split(
    ds: DatasetIndex, session_id: int, test_subject: int, rng: np.random.Generator
) -> SplitSpec:
    """Across subjects within one session: 12 train, 1 test, the rest validate."""
    subjects = ds.subjects()
    if len(subjects) < 14:
        raise ProtocolError(f"inter protocol needs at least 14 subjects, found {len(subjects)}")
    if test_subject not in subjects:
        raise ProtocolError(f"test subject {test_subject} not in dataset")
    if session_id not in ds.sessions(test_subject):
        raise ProtocolError(f"subject {test_subject} has no session {session_id}")
    pool = [s for s in subjects if s != test_subject]
    train_subjects = set(rng.choice(pool, size=12, replace=False).tolist())
    cells = lambda subjects: frozenset((s, session_id) for s in subjects)
    return SplitSpec(
        train=cells(train_subjects),
        val=cells(set(pool) - train_subjects),
        test=cells([test_subject]),
    )


# -- config field rules -------------------------------------------------------------

def _is_int(value, low: int = -(2**63), high: int = 2**63 - 1) -> bool:
    """An integer in [low, high]; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and low <= value <= high


def _is_number(value) -> bool:
    """An int or float that a finite float holds; a bool is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


# A config's number field is annotated with the rule its value must meet.
# check_fields reads the annotation by name (each config module postpones
# annotations); the alias gives the Python type of a value that meets it.
Count = int
Natural = int  # a count that may be zero, or a seed: numpy seeds take no negative entropy
Positive = float
Scale = float
Rate = float  # a fraction in [0, 1], such as an accuracy

# each rule: (test its value must pass, what the value must be)
FIELD_RULES = {
    "Count": (lambda value: _is_int(value, 1), "a positive integer"),
    "Natural": (lambda value: _is_int(value, 0), "a nonnegative integer"),
    "Positive": (lambda value: _is_number(value) and value > 0, "a finite positive number"),
    "Scale": (lambda value: _is_number(value) and value >= 0, "a finite nonnegative number"),
    "Rate": (lambda value: _is_number(value) and 0 <= value <= 1, "a number in [0, 1]"),
}


def check_fields(config, rules: dict = FIELD_RULES) -> None:
    """Raise ConfigError naming the first field of the dataclass ``config`` that breaks its rule in ``rules``."""
    for f in fields(config):
        if f.type in rules:
            test, must = rules[f.type]
            value = getattr(config, f.name)
            if not test(value):
                raise ConfigError(f"{f.name} must be {must}, got {value!r}")


# -- synthetic drift generator ----------------------------------------------------

@dataclass(frozen=True)
class DriftConfig:
    """Knobs for the synthetic drifting-feature generator.

    All scale knobs are in per-coordinate RMS units so task difficulty is
    comparable across feature dimensions: pairwise class-mean distance is
    class_separation * sqrt(dim), the drift shifts a class mean by
    intra_drift_rate per unit session time (again RMS per coordinate), and
    noise_std is the per-coordinate sample noise.
    """

    num_subjects: Count = 15
    num_sessions: Count = 3
    trials_per_session: Count = 15
    samples_per_trial: Count = 20
    num_classes: Count = 3
    n_electrodes: Count = 8
    d_bands: Count = 5
    class_separation: Scale = 3.0
    intra_drift_rate: Scale = 1.0
    inter_subject_offset_scale: Scale = 1.0
    noise_std: Scale = 1.0
    rng_seed: Natural = 0

    def __post_init__(self):
        check_fields(self)
        if self.n_electrodes * self.d_bands < self.num_classes:
            raise ConfigError(
                "feature dimension must be at least num_classes for orthogonal class means"
            )

    @property
    def dim(self) -> int:
        return self.n_electrodes * self.d_bands

    @property
    def samples_per_session(self) -> int:
        return self.trials_per_session * self.samples_per_trial


def _class_means(cfg: DriftConfig) -> np.ndarray:
    """Orthogonal directions scaled so pairwise mean distance is class_separation * sqrt(dim)."""
    rng = np.random.default_rng([cfg.rng_seed, 0])
    raw = rng.normal(size=(cfg.dim, cfg.num_classes))
    q, r = np.linalg.qr(raw)
    q = q * np.sign(np.diag(r))  # fix sign convention for determinism across BLAS builds
    return (cfg.class_separation * np.sqrt(cfg.dim / 2.0)) * q.T  # [num_classes x dim]


@np.errstate(over="ignore", invalid="ignore")  # features out of float32 range are rejected below
def generate_synthetic_drift(cfg: DriftConfig) -> DatasetIndex:
    """Gaussian class clusters whose means drift linearly over the session clock."""
    means = _class_means(cfg)
    n = cfg.samples_per_session
    time = np.arange(n)
    trial = 1 + time // cfg.samples_per_trial
    label = (trial - 1) % cfg.num_classes
    features, subjects, sessions = [], [], []
    for subject in range(1, cfg.num_subjects + 1):
        rng_subject = np.random.default_rng([cfg.rng_seed, 1, subject])
        offset = cfg.inter_subject_offset_scale * rng_subject.normal(size=cfg.dim)
        drift_dirs = rng_subject.normal(size=(cfg.num_classes, cfg.dim))
        # scaled to norm sqrt(dim): a unit of drift moves each coordinate by 1 RMS
        drift_dirs *= np.sqrt(cfg.dim) / np.linalg.norm(drift_dirs, axis=1, keepdims=True)
        for session in range(1, cfg.num_sessions + 1):
            rng_noise = np.random.default_rng([cfg.rng_seed, 2, subject, session])
            tau = (session - 1) + time / n
            mean = means[label] + offset + (cfg.intra_drift_rate * tau)[:, None] * drift_dirs[label]
            features.append(mean + cfg.noise_std * rng_noise.normal(size=(n, cfg.dim)))
            subjects.append(np.full(n, subject))
            sessions.append(np.full(n, session))
    x = np.concatenate(features)
    if not np.all(np.abs(x) <= FLOAT32_MAX):  # NaN compares false
        raise ConfigError(
            "synthetic features beyond float32 range: lower class_separation,"
            " intra_drift_rate, inter_subject_offset_scale or noise_std"
        )
    repeat = lambda column: np.tile(column, cfg.num_subjects * cfg.num_sessions)
    return DatasetIndex(
        features=x.astype(np.float32).astype(np.float64).reshape(-1, cfg.n_electrodes, cfg.d_bands),
        subject=np.concatenate(subjects),
        session=np.concatenate(sessions),
        trial=repeat(trial),
        time=repeat(time),
        label=repeat(label),
        num_classes=cfg.num_classes,
        schema=(cfg.n_electrodes, cfg.d_bands),
        class_names=tuple(f"class{k}" for k in range(cfg.num_classes)),
    )


# -- binary feature container --------------------------------------------------------

def _read_feature_file(path: Path, count: int, schema: tuple[int, int]) -> np.ndarray:
    try:
        blob = path.read_bytes()
    except OSError as e:
        raise IngestError(f"cannot read feature file {path}: {e}") from e
    head = len(FEATURE_MAGIC) + 4
    if len(blob) < head:
        raise DatasetSchemaError(f"feature file truncated before header: {path}")
    if blob[:4] != FEATURE_MAGIC:
        raise DatasetSchemaError(f"bad magic in {path}: {blob[:4]!r}")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != FEATURE_VERSION:
        raise DatasetSchemaError(f"unsupported feature file version {version} in {path}")
    expect = count * schema[0] * schema[1] * 4
    payload = blob[head:]
    if len(payload) != expect:
        raise DatasetSchemaError(
            f"feature file {path} holds {len(payload)} payload bytes, manifest implies {expect}"
        )
    with np.errstate(invalid="ignore"):  # a NaN payload is rejected by the caller, not warned about
        arr = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    return arr.reshape(count, schema[0], schema[1])


def atomic_write(path: Path, blob: bytes) -> None:
    """Write ``blob`` to ``<name>.tmp`` beside ``path``, then rename it over ``path``.

    A reader sees the old file or the whole new one, never a partial write.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, path)


def _write_feature_file(path: Path, features: np.ndarray) -> None:
    payload = np.ascontiguousarray(features, dtype="<f4").tobytes()
    atomic_write(path, FEATURE_MAGIC + struct.pack("<I", FEATURE_VERSION) + payload)


_SCHEMA_MAX = 2**16  # electrodes or bands per sample
_is_list = lambda value: isinstance(value, list)
_in_schema = lambda value: _is_int(value, 1, _SCHEMA_MAX)

# every manifest field: (test its value must pass, what the value must be)
_FIELDS = {
    "schema": (lambda value: isinstance(value, dict), "an object"),
    "electrodes": (_in_schema, f"an integer from 1 to {_SCHEMA_MAX}"),
    "bands": (_in_schema, f"an integer from 1 to {_SCHEMA_MAX}"),
    "classes": (_is_list, "a list"),
    "subjects": (_is_list, "a list"),
    "sessions": (_is_list, "a list"),
    "trials": (_is_list, "a list"),
    "id": (_is_int, "an integer"),
    "label": (_is_int, "an integer"),
    "count": (lambda value: _is_int(value, 0), "a nonnegative integer"),
    "file": (lambda value: isinstance(value, str), "a string"),
}


def _check_fields(manifest_path: Path, where: str, entry, fields: tuple) -> None:
    """Raise, naming the manifest, the entry and the field, unless each field is valid."""
    if not isinstance(entry, dict):
        raise DatasetSchemaError(
            f"{manifest_path}: {where} must be an object, got {type(entry).__name__}"
        )
    for name in fields:
        if name not in entry:
            raise DatasetSchemaError(f"{manifest_path}: {where} is missing field {name!r}")
        test, kind = _FIELDS[name]
        if not test(entry[name]):
            raise DatasetSchemaError(
                f"{manifest_path}: {where} field {name!r} must be {kind}, got {entry[name]!r}"
            )


def _checked_entries(manifest_path: Path, where: str, entries: list, fields: tuple) -> list:
    """Manifest entries sorted by id, each checked for its fields; ids must be unique.

    ``where`` names the entry kind and its parents, e.g. "subject 2 session 1 trial".
    """
    for position, entry in enumerate(entries):
        named = isinstance(entry, dict) and _is_int(entry.get("id"))
        name = entry["id"] if named else f"at position {position}"
        _check_fields(manifest_path, f"{where} {name}", entry, fields)
    entries = sorted(entries, key=lambda e: e["id"])
    for a, b in zip(entries, entries[1:]):
        if a["id"] == b["id"]:
            raise DatasetSchemaError(
                f"{manifest_path}: {where} {a['id']} is listed more than once (field 'id')"
            )
    return entries


def import_features(manifest_path: str | Path) -> DatasetIndex:
    """Load a manifest plus its binaries into a sorted, validated DatasetIndex.

    Every feature file must lie inside the manifest's directory.
    """
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except OSError as e:
        raise IngestError(f"cannot read manifest {manifest_path}: {e}") from e
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DatasetSchemaError(f"manifest is not valid JSON: {manifest_path}: {e}") from e
    _check_fields(manifest_path, "manifest", manifest, ("schema", "classes", "subjects"))
    _check_fields(manifest_path, "manifest schema", manifest["schema"], ("electrodes", "bands"))
    schema = (manifest["schema"]["electrodes"], manifest["schema"]["bands"])
    classes, subjects = [str(c) for c in manifest["classes"]], manifest["subjects"]

    base = manifest_path.parent.resolve()
    owners = {}  # resolved feature file -> the trial that named it first
    parts = []  # per trial: features, then one array per column
    for subj_entry in _checked_entries(manifest_path, "subject", subjects, ("id", "sessions")):
        subject_id = subj_entry["id"]
        sessions = _checked_entries(
            manifest_path, f"subject {subject_id} session", subj_entry["sessions"], ("id", "trials")
        )
        for sess_entry in sessions:
            session_id = sess_entry["id"]
            where = f"subject {subject_id} session {session_id} trial"
            time_index = 0
            trials = _checked_entries(
                manifest_path, where, sess_entry["trials"], ("id", "label", "file", "count")
            )
            for entry in trials:
                trial_id, label, count = entry["id"], entry["label"], entry["count"]
                if not (0 <= label < len(classes)):
                    raise DatasetSchemaError(
                        f"{manifest_path}: {where} {trial_id} field 'label' is {label}, "
                        f"outside the class map (size {len(classes)})"
                    )
                path = (base / entry["file"]).resolve()
                if not path.is_relative_to(base):
                    raise DatasetSchemaError(
                        f"{manifest_path}: {where} {trial_id} field 'file' lies outside "
                        f"the manifest directory: {entry['file']!r}"
                    )
                if path in owners:
                    raise DatasetSchemaError(
                        f"{manifest_path}: {where} {trial_id} field 'file' names the file of "
                        f"{owners[path]}: {entry['file']!r}"
                    )
                owners[path] = f"{where} {trial_id}"
                feats = _read_feature_file(path, count, schema)
                bad = np.argwhere(~np.isfinite(feats))
                if bad.size:
                    row, i, j = bad[0]
                    raise DataError(
                        f"{path}: non-finite value at subject {subject_id} session {session_id} "
                        f"trial {trial_id} row {row} position ({i},{j})"
                    )
                full = lambda value: np.full(count, value)
                time = np.arange(time_index, time_index + count)
                parts.append(
                    (feats, full(subject_id), full(session_id), full(trial_id), time, full(label))
                )
                time_index += count
    empty = [np.empty((0, *schema))] + [np.empty(0, dtype=np.int64)] * len(COLUMNS)
    features, *columns = [np.concatenate(p) for p in zip(*parts)] or empty
    return DatasetIndex(
        features,
        *columns,
        num_classes=len(classes),
        schema=schema,
        class_names=tuple(classes),
    )


def export_features(ds: DatasetIndex, out_dir: str | Path) -> Path:
    """Write manifest.json plus per-trial binaries; returns the manifest path."""
    bad = np.flatnonzero(~np.all(np.abs(ds.features) <= FLOAT32_MAX, axis=(1, 2)))
    if bad.size:
        i = bad[0]
        raise DataError(
            f"feature beyond float32 range or not finite at subject {ds.subject[i]}, "
            f"session {ds.session[i]}, trial {ds.trial[i]}"
        )
    out_dir = Path(out_dir)
    feat_dir = out_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    names = ds.class_names or tuple(f"class{k}" for k in range(ds.num_classes))

    # rows are sorted, so each (subject, session, trial) is one contiguous run
    keys = np.stack([ds.subject, ds.session, ds.trial], axis=1)
    starts = np.flatnonzero(np.r_[True, np.any(keys[1:] != keys[:-1], axis=1)])
    subjects_json = []
    for start, stop in zip(starts, np.r_[starts[1:], len(ds)]):
        subject, session, trial = keys[start].tolist()
        fname = f"sub{subject:02d}_ses{session}_trial{trial:02d}.evfa"
        _write_feature_file(feat_dir / fname, ds.features[start:stop])
        if not subjects_json or subjects_json[-1]["id"] != subject:
            subjects_json.append({"id": subject, "sessions": []})
        sessions_json = subjects_json[-1]["sessions"]
        if not sessions_json or sessions_json[-1]["id"] != session:
            sessions_json.append({"id": session, "trials": []})
        sessions_json[-1]["trials"].append(
            {
                "id": trial,
                "label": int(ds.label[start]),
                "file": f"features/{fname}",
                "count": int(stop - start),
            }
        )

    manifest = {
        "schema": {"electrodes": ds.schema[0], "bands": ds.schema[1]},
        "classes": list(names),
        "subjects": subjects_json,
    }
    manifest_path = out_dir / "manifest.json"
    atomic_write(manifest_path, json.dumps(manifest, indent=2).encode())
    return manifest_path
