"""Dataset ingestion, synthetic drift generation, and split protocols.

On-disk container: a JSON manifest plus one raw binary per (subject, session,
trial). Binary layout: magic ``EVFA``, version u32 little-endian, then
count x electrodes x bands float32 little-endian, row-major. Feature values
pass through float32 on generation so export/import round-trips exactly.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

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


@dataclass(frozen=True)
class LabeledSample:
    """One feature matrix with its position in the recording timeline."""

    subject_id: int
    session_id: int
    trial_id: int
    time_index: int
    features: np.ndarray  # [n_electrodes x d_bands] float64
    label: int


@dataclass(frozen=True)
class DatasetIndex:
    """Immutable, chronologically sorted sample collection."""

    samples: tuple[LabeledSample, ...]
    num_classes: int
    schema: tuple[int, int]
    class_names: tuple[str, ...] = ()

    def __post_init__(self):
        key = None
        for s in self.samples:
            if s.features.shape != self.schema:
                raise DatasetSchemaError(
                    f"sample (subject {s.subject_id}, session {s.session_id}, trial {s.trial_id}) "
                    f"has shape {s.features.shape}, schema says {self.schema}"
                )
            if not (0 <= s.label < self.num_classes):
                raise DataError(
                    f"label {s.label} out of range at subject {s.subject_id}, "
                    f"session {s.session_id}, trial {s.trial_id}"
                )
            k = (s.subject_id, s.session_id, s.trial_id, s.time_index)
            if key is not None:
                if k[:2] == key[:2] and s.time_index <= key[3]:
                    raise DataError(
                        f"time_index not strictly increasing within subject {s.subject_id} "
                        f"session {s.session_id}"
                    )
                if k[:2] < key[:2] or (k[:2] == key[:2] and k[2] < key[2]):
                    raise DataError("samples not sorted by (subject, session, trial, time)")
            key = k

    def __len__(self) -> int:
        return len(self.samples)

    def subjects(self) -> list[int]:
        return sorted({s.subject_id for s in self.samples})

    def sessions(self, subject_id: int) -> list[int]:
        return sorted({s.session_id for s in self.samples if s.subject_id == subject_id})

    def select(
        self,
        subject: int | None = None,
        session: int | None = None,
        trial: int | None = None,
        predicate: Callable[[int, int], bool] | None = None,
    ) -> list[LabeledSample]:
        out = []
        for s in self.samples:
            if subject is not None and s.subject_id != subject:
                continue
            if session is not None and s.session_id != session:
                continue
            if trial is not None and s.trial_id != trial:
                continue
            if predicate is not None and not predicate(s.subject_id, s.session_id):
                continue
            out.append(s)
        return out


def feature_matrix(samples: list[LabeledSample]) -> np.ndarray:
    """Stack features into [m x n x d] float64."""
    if not samples:
        return np.zeros((0, 0, 0))
    return np.stack([s.features for s in samples])


def labels_of(samples: list[LabeledSample]) -> np.ndarray:
    return np.array([s.label for s in samples], dtype=np.int64)


# -- split protocols -----------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    """Three disjoint (subject, session) predicates."""

    kind: str  # "intra" or "inter"
    train: Callable[[int, int], bool]
    val: Callable[[int, int], bool]
    test: Callable[[int, int], bool]

    def part(self, name: str) -> Callable[[int, int], bool]:
        if name not in ("train", "val", "test"):
            raise ConfigError(f"unknown split part {name!r}")
        return getattr(self, name)

    def select(self, ds: DatasetIndex, name: str) -> list[LabeledSample]:
        return ds.select(predicate=self.part(name))

    def check_disjoint(self, ds: DatasetIndex) -> None:
        keys = {(s.subject_id, s.session_id) for s in ds.samples}
        for subject, session in keys:
            hits = sum(
                1 for p in (self.train, self.val, self.test) if p(subject, session)
            )
            if hits > 1:
                raise ProtocolError(
                    f"split parts overlap on subject {subject}, session {session}"
                )


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
    spec = SplitSpec(
        kind="intra",
        train=lambda subj, sess: subj == subject_id and sess == 1,
        val=lambda subj, sess: subj == subject_id and sess == 2,
        test=lambda subj, sess: subj == subject_id and sess == 3,
    )
    spec.check_disjoint(ds)
    return spec


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
    val_subjects = set(pool) - train_subjects
    spec = SplitSpec(
        kind="inter",
        train=lambda subj, sess: subj in train_subjects and sess == session_id,
        val=lambda subj, sess: subj in val_subjects and sess == session_id,
        test=lambda subj, sess: subj == test_subject and sess == session_id,
    )
    spec.check_disjoint(ds)
    return spec


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

    num_subjects: int = 15
    num_sessions: int = 3
    trials_per_session: int = 15
    samples_per_trial: int = 20
    num_classes: int = 3
    n_electrodes: int = 8
    d_bands: int = 5
    class_separation: float = 3.0
    intra_drift_rate: float = 1.0
    inter_subject_offset_scale: float = 1.0
    noise_std: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        counts = {
            "num_subjects": self.num_subjects,
            "num_sessions": self.num_sessions,
            "trials_per_session": self.trials_per_session,
            "samples_per_trial": self.samples_per_trial,
            "num_classes": self.num_classes,
            "n_electrodes": self.n_electrodes,
            "d_bands": self.d_bands,
        }
        for name, value in counts.items():
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        scales = {
            "class_separation": self.class_separation,
            "intra_drift_rate": self.intra_drift_rate,
            "inter_subject_offset_scale": self.inter_subject_offset_scale,
            "noise_std": self.noise_std,
        }
        for name, value in scales.items():
            if not math.isfinite(value) or value < 0:
                raise ConfigError(f"{name} must be finite and nonnegative, got {value}")
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


def generate_synthetic_drift(cfg: DriftConfig) -> DatasetIndex:
    """Gaussian class clusters whose means drift linearly over the session clock."""
    means = _class_means(cfg)
    samples = []
    for subject in range(1, cfg.num_subjects + 1):
        rng_subject = np.random.default_rng([cfg.rng_seed, 1, subject])
        offset = cfg.inter_subject_offset_scale * rng_subject.normal(size=cfg.dim)
        drift_dirs = rng_subject.normal(size=(cfg.num_classes, cfg.dim))
        # scaled to norm sqrt(dim): a unit of drift moves each coordinate by 1 RMS
        drift_dirs *= np.sqrt(cfg.dim) / np.linalg.norm(drift_dirs, axis=1, keepdims=True)
        for session in range(1, cfg.num_sessions + 1):
            rng_noise = np.random.default_rng([cfg.rng_seed, 2, subject, session])
            for trial in range(1, cfg.trials_per_session + 1):
                label = (trial - 1) % cfg.num_classes
                for i in range(cfg.samples_per_trial):
                    time_index = (trial - 1) * cfg.samples_per_trial + i
                    tau = (session - 1) + time_index / cfg.samples_per_session
                    mean = (
                        means[label]
                        + offset
                        + cfg.intra_drift_rate * tau * drift_dirs[label]
                    )
                    x = mean + cfg.noise_std * rng_noise.normal(size=cfg.dim)
                    x32 = x.astype(np.float32).astype(np.float64)
                    samples.append(
                        LabeledSample(
                            subject_id=subject,
                            session_id=session,
                            trial_id=trial,
                            time_index=time_index,
                            features=x32.reshape(cfg.n_electrodes, cfg.d_bands),
                            label=label,
                        )
                    )
    names = tuple(f"class{k}" for k in range(cfg.num_classes))
    return DatasetIndex(
        samples=tuple(samples),
        num_classes=cfg.num_classes,
        schema=(cfg.n_electrodes, cfg.d_bands),
        class_names=names,
    )


# -- binary feature container --------------------------------------------------------

def _read_feature_file(path: Path, count: int, schema: tuple[int, int]) -> np.ndarray:
    if not path.exists():
        raise IngestError(f"feature file missing: {path}")
    blob = path.read_bytes()
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
    arr = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    return arr.reshape(count, schema[0], schema[1])


def _write_feature_file(path: Path, features: np.ndarray) -> None:
    payload = np.ascontiguousarray(features, dtype="<f4").tobytes()
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(FEATURE_MAGIC + struct.pack("<I", FEATURE_VERSION) + payload)
    os.replace(tmp, path)


def _checked_entries(manifest_path: Path, where: str, entries: list, fields: tuple) -> list:
    """Manifest entries sorted by id, each checked for its fields.

    ``where`` names the entry kind and its parents, e.g. "subject 2 session 1 trial".
    """
    for position, entry in enumerate(entries):
        missing = [f for f in fields if not isinstance(entry, dict) or f not in entry]
        if missing:
            name = entry["id"] if "id" not in missing else f"at position {position}"
            raise DatasetSchemaError(
                f"{manifest_path}: {where} {name} is missing field {missing[0]!r}"
            )
    return sorted(entries, key=lambda e: int(e["id"]))


def import_features(manifest_path: str | Path) -> DatasetIndex:
    """Load a manifest plus its binaries into a sorted, validated DatasetIndex."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise IngestError(f"manifest missing: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as e:
        raise DatasetSchemaError(f"manifest is not valid JSON: {manifest_path}: {e}") from e
    try:
        schema = (int(manifest["schema"]["electrodes"]), int(manifest["schema"]["bands"]))
        classes = [str(c) for c in manifest["classes"]]
        subjects = manifest["subjects"]
    except (KeyError, TypeError) as e:
        raise DatasetSchemaError(f"manifest missing required field: {e}") from e

    base = manifest_path.parent
    samples = []
    for subj_entry in _checked_entries(manifest_path, "subject", subjects, ("id", "sessions")):
        subject_id = int(subj_entry["id"])
        sessions = _checked_entries(
            manifest_path, f"subject {subject_id} session", subj_entry["sessions"], ("id", "trials")
        )
        for sess_entry in sessions:
            session_id = int(sess_entry["id"])
            time_index = 0
            trials = _checked_entries(
                manifest_path,
                f"subject {subject_id} session {session_id} trial",
                sess_entry["trials"],
                ("id", "label", "file", "count"),
            )
            for entry in trials:
                trial_id, label, count = int(entry["id"]), int(entry["label"]), int(entry["count"])
                file = entry["file"]
                if not (0 <= label < len(classes)):
                    raise DatasetSchemaError(
                        f"label {label} outside class map (size {len(classes)}) for "
                        f"subject {subject_id} session {session_id} trial {trial_id}"
                    )
                feats = _read_feature_file(base / file, count, schema)
                bad = np.argwhere(~np.isfinite(feats))
                if bad.size:
                    row, i, j = bad[0]
                    raise DataError(
                        f"non-finite value at subject {subject_id} session {session_id} "
                        f"trial {trial_id} row {row} position ({i},{j})"
                    )
                for row in range(count):
                    samples.append(
                        LabeledSample(
                            subject_id=subject_id,
                            session_id=session_id,
                            trial_id=trial_id,
                            time_index=time_index,
                            features=feats[row],
                            label=label,
                        )
                    )
                    time_index += 1
    return DatasetIndex(
        samples=tuple(samples),
        num_classes=len(classes),
        schema=schema,
        class_names=tuple(classes),
    )


def export_features(ds: DatasetIndex, out_dir: str | Path) -> Path:
    """Write manifest.json plus per-trial binaries; returns the manifest path."""
    out_dir = Path(out_dir)
    feat_dir = out_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    names = ds.class_names or tuple(f"class{k}" for k in range(ds.num_classes))

    subjects_json = []
    for subject in ds.subjects():
        sessions_json = []
        for session in ds.sessions(subject):
            trials_json = []
            trial_ids = sorted({s.trial_id for s in ds.select(subject=subject, session=session)})
            for trial in trial_ids:
                rows = ds.select(subject=subject, session=session, trial=trial)
                fname = f"sub{subject:02d}_ses{session}_trial{trial:02d}.evfa"
                _write_feature_file(feat_dir / fname, feature_matrix(rows))
                trials_json.append(
                    {
                        "id": trial,
                        "label": rows[0].label,
                        "file": f"features/{fname}",
                        "count": len(rows),
                    }
                )
            sessions_json.append({"id": session, "trials": trials_json})
        subjects_json.append({"id": subject, "sessions": sessions_json})

    manifest = {
        "schema": {"electrodes": ds.schema[0], "bands": ds.schema[1]},
        "classes": list(names),
        "subjects": subjects_json,
    }
    manifest_path = out_dir / "manifest.json"
    tmp = manifest_path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(manifest, indent=2))
    os.replace(tmp, manifest_path)
    return manifest_path
