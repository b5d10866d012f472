"""Experiment orchestration: configs, protocol loops, result tables, and report files.

Runs are deterministic functions of (config, seed): per-cell training and
evaluation seeds are derived from the master seed and the cell coordinates,
and the results CSV contains no timing, so two identical runs produce byte
identical CSV files. Wall-clock timings go to the JSON report only.

An experiment config's JSON sections are read from the config dataclasses:
a section's keys are its class's fields, a field's annotation picks its JSON
test in ``_JSON_KINDS``, and a key left out takes the field's default. The
layout adds two rules: "backbone" is written once, at the top level, and
shared by train and supervised; "dataset" wraps a generator section or a
manifest path. Fields with another owner (``_SET_ELSEWHERE``) are rejected.
"""
from __future__ import annotations

import csv
import io
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .adapt import AdaptConfig, EvalConfig, evofa_test
from .backbone import BackboneConfig
from .data import (
    DatasetIndex,
    DriftConfig,
    _is_int,
    generate_synthetic_drift,
    import_features,
    make_inter_split,
    make_intra_split,
)
from .errors import ConfigError, ProtocolError
from .fsl import (
    SupervisedConfig,
    TrainConfig,
    classify_pool,
    meta_train,
    train_supervised_baseline,
)
from .mmd import KernelSpec

METHODS = ("supervised", "fsl", "fsl+evofa")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: dataset, protocol, training recipe, adaptation recipe."""

    dataset: DriftConfig | str  # synthetic generator config or a manifest path
    protocol: str = "intra"
    train: TrainConfig = field(default_factory=TrainConfig)
    adapt: AdaptConfig = field(default_factory=AdaptConfig)
    supervised: SupervisedConfig | None = None
    eval_episodes: int = 200
    seed: int = 0
    subjects: tuple[int, ...] = ()  # empty: every subject in the dataset
    sessions: tuple[int, ...] = ()  # inter protocol; empty: every session
    persist_adaptation: bool = False
    include_supervised: bool = True

    def __post_init__(self):
        if self.protocol not in ("intra", "inter"):
            raise ConfigError(f"protocol must be intra or inter, got {self.protocol!r}")
        if self.eval_episodes < 1:
            raise ConfigError(f"eval_episodes must be positive, got {self.eval_episodes}")
        for name in ("subjects", "sessions"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} names an entry more than once: {list(values)}")


def derive_seed(*parts: int) -> int:
    """Stable 32-bit seed from the master seed and cell coordinates."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def load_dataset(cfg: ExperimentConfig) -> DatasetIndex:
    if isinstance(cfg.dataset, DriftConfig):
        return generate_synthetic_drift(cfg.dataset)
    return import_features(cfg.dataset)


def _check_compatible(cfg: ExperimentConfig, ds: DatasetIndex) -> None:
    if cfg.train.way > ds.num_classes:
        raise ConfigError(
            f"{cfg.train.way}-way episodes need at least that many classes, "
            f"dataset has {ds.num_classes}"
        )
    if cfg.supervised is not None and cfg.supervised.num_classes != ds.num_classes:
        raise ConfigError(
            f"supervised num_classes {cfg.supervised.num_classes} must equal "
            f"the dataset's {ds.num_classes} classes"
        )
    schema = (cfg.train.backbone.n_electrodes, cfg.train.backbone.d_bands)
    if schema != ds.schema:
        raise ConfigError(f"backbone expects features {schema}, dataset provides {ds.schema}")


# -- result table -----------------------------------------------------------------


@dataclass(frozen=True)
class ResultRow:
    """One evaluated cell (or the aggregate across cells, subject == 'all')."""

    protocol: str
    subject: str
    session: str
    method: str
    shots: int
    way: int
    queries: int
    episodes: int
    mean_accuracy: float
    std_accuracy: float
    std_over: str  # episodes | subjects | pool
    wall_clock_seconds: float

    def __post_init__(self):
        if not (0.0 <= self.mean_accuracy <= 1.0):
            raise ConfigError(f"accuracy {self.mean_accuracy} outside [0, 1]")
        if self.std_accuracy < 0.0:
            raise ConfigError(f"negative std {self.std_accuracy}")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow) if f.name != "wall_clock_seconds")


def _fmt(value) -> str:
    return f"{value:.12g}" if isinstance(value, float) else str(value)


@dataclass
class ResultTable:
    """Per-cell rows followed by aggregate rows; CSV omits wall-clock for determinism."""

    rows: list[ResultRow]

    def cell_rows(self) -> list[ResultRow]:
        return [r for r in self.rows if r.subject != "all"]

    def aggregate_rows(self) -> list[ResultRow]:
        return [r for r in self.rows if r.subject == "all"]

    @staticmethod
    def aggregate(cell_rows: list[ResultRow]) -> list[ResultRow]:
        """Mean and across-subject std per (method, shots), in first-seen order."""
        groups: dict[tuple[str, int], list[ResultRow]] = {}
        for row in cell_rows:
            groups.setdefault((row.method, row.shots), []).append(row)
        out = []
        for key, members in groups.items():
            means = np.array([r.mean_accuracy for r in members])
            out.append(
                ResultRow(
                    protocol=members[0].protocol,
                    subject="all",
                    session="all",
                    method=key[0],
                    shots=key[1],
                    way=members[0].way,
                    queries=members[0].queries,
                    episodes=sum(r.episodes for r in members),
                    mean_accuracy=float(means.mean()),
                    std_accuracy=float(means.std()),
                    std_over="subjects",
                    wall_clock_seconds=sum(r.wall_clock_seconds for r in members),
                )
            )
        return out

    def with_aggregates(self) -> "ResultTable":
        return ResultTable(self.cell_rows() + ResultTable.aggregate(self.cell_rows()))

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in self.rows:
            writer.writerow([_fmt(getattr(row, c)) for c in CSV_COLUMNS])
        return buf.getvalue()

    def to_json_obj(self) -> dict:
        return {
            "version": f"evofa-{__version__}",
            "std_semantics": {
                "episodes": "population std of per-episode accuracy",
                "subjects": "population std of per-subject mean accuracy",
                "pool": "single whole-pool evaluation, std not defined (0)",
            },
            "rows": [asdict(r) for r in self.rows],
        }

    def write(self, out_dir: str | Path) -> tuple[Path, Path]:
        out = Path(out_dir)
        csv_path = out / "results.csv"
        json_path = out / "results.json"
        atomic_write_text(csv_path, self.to_csv_text())
        atomic_write_text(json_path, json.dumps(self.to_json_obj(), indent=2) + "\n")
        return csv_path, json_path


def atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_run_manifest(out_dir: str | Path, cfg: ExperimentConfig) -> Path:
    path = Path(out_dir) / "run-manifest.json"
    manifest = {
        "version": f"evofa-{__version__}",
        "seed": cfg.seed,
        "config": config_to_obj(cfg),
        "created_unix": time.time(),
    }
    atomic_write_text(path, json.dumps(manifest, indent=2) + "\n")
    return path


# -- protocol execution ----------------------------------------------------------------


def plan_cells(
    cfg: ExperimentConfig,
    ds: DatasetIndex,
    subject: int | None = None,
    session: int | None = None,
) -> list[tuple[int, int | None]]:
    """The protocol's (subject, session) cells, or just the one cell asked for.

    Checks the config against the dataset first. Intra cells have session None.
    """
    _check_compatible(cfg, ds)
    subjects = list(cfg.subjects) if cfg.subjects else ds.subjects()
    for s in subjects:
        if s not in ds.subjects():
            raise ProtocolError(f"subject {s} not in dataset")
    if cfg.protocol == "intra":
        if session is not None:
            raise ConfigError(f"intra protocol cells have no session, got session {session}")
        cells = [(s, None) for s in subjects]
    else:
        if session is not None and subject is None:
            raise ConfigError(f"session {session} given without a subject to pick the cell")
        sessions = list(cfg.sessions) if cfg.sessions else ds.sessions()
        cells = [(subj, sess) for sess in sessions for subj in subjects]
    if not cells:
        source = "synthetic" if isinstance(cfg.dataset, DriftConfig) else str(cfg.dataset)
        raise ProtocolError(f"dataset {source} has no subjects: the {cfg.protocol} protocol plan is empty")
    if subject is None:
        return cells
    wanted = (subject, session)
    if wanted not in cells:
        raise ConfigError(f"cell subject={subject} session={session} not in the protocol plan")
    return [wanted]


def cell_seed(
    cfg: ExperimentConfig, stream: int, subject: int, session: int | None, *key: int
) -> int:
    """Seed of one random stream of a cell: 1 meta-training, 2 evaluation, 4 supervised."""
    return derive_seed(cfg.seed, stream, subject, 0 if session is None else 1 + session, *key)


def cell_pools(cfg: ExperimentConfig, ds: DatasetIndex, subject: int, session: int | None):
    """The cell's (train, val, test) pools, each a DatasetIndex in dataset order."""
    if cfg.protocol == "intra":
        split = make_intra_split(ds, subject)
    else:
        rng = np.random.default_rng([cfg.seed, 3, session, subject])
        split = make_inter_split(ds, session, subject, rng)
    return tuple(split.select(ds, part) for part in ("train", "val", "test"))


def train_cell(cfg: ExperimentConfig, pools, subject: int, session: int | None, on_epoch=None):
    """Meta-train the cell's episodic model on its train pool, validating on its val pool."""
    train, val, _ = pools
    tcfg = replace(cfg.train, rng_seed=cell_seed(cfg, 1, subject, session))
    return meta_train(train, val, tcfg, on_epoch=on_epoch)


def evaluate_cell(
    cfg: ExperimentConfig,
    model,
    pools,
    subject: int,
    session: int | None,
    adapt_cfgs,
    shots: list[int] | None = None,
    supervised=None,
) -> list[ResultRow]:
    """Result rows of one cell, each timed by its own evaluation.

    The supervised model, if given, is scored on the whole test pool first. Then
    the episodic model runs once per (shot, adaptation config), ordered by shot
    and then by ``adapt_cfgs`` (None is the unadapted baseline); every config of
    one shot sees the same episodes.
    """
    train, _, test = pools
    # compare (shots=None) evaluates the config's shot from the cell's evaluation
    # seed; evaluate keys each requested shot's seed by k. The two stay apart:
    # merging them would change the bytes of every results.csv either command wrote.
    if shots is None:
        plans = [(cfg.train.shot, cell_seed(cfg, 2, subject, session))]
    else:
        plans = [(k, cell_seed(cfg, 2, subject, session, k)) for k in shots]
    rows = []

    def add(method, k, episodes, mean, std, std_over, t0):
        rows.append(
            ResultRow(
                protocol=cfg.protocol,
                subject=str(subject),
                session=str(session) if session is not None else "3",  # intra tests session 3
                method=method,
                shots=k,
                way=cfg.train.way,
                queries=cfg.train.queries,
                episodes=episodes,
                mean_accuracy=mean,
                std_accuracy=std,
                std_over=std_over,
                wall_clock_seconds=time.perf_counter() - t0,
            )
        )

    if supervised is not None:
        t0 = time.perf_counter()
        _, acc = classify_pool(supervised, test)
        add("supervised", 0, 0, acc, 0.0, "pool", t0)
    for k, seed in plans:
        eval_cfg = EvalConfig(
            episodes=cfg.eval_episodes,
            way=cfg.train.way,
            shot=k,
            queries=cfg.train.queries,
            rng_seed=seed,
            persist_adaptation=cfg.persist_adaptation,
        )
        for adapt_cfg in adapt_cfgs:
            t0 = time.perf_counter()
            r = evofa_test(model, test, train, cfg.protocol, eval_cfg, adapt_cfg)
            add(r.method, k, r.episodes, r.mean_accuracy, r.std_accuracy, "episodes", t0)
    return rows


def _run_cell(cfg: ExperimentConfig, ds: DatasetIndex, subject: int, session: int | None):
    """Train and evaluate one cell: supervised, fsl and fsl+evofa rows."""
    pools = cell_pools(cfg, ds, subject, session)
    t0 = time.perf_counter()
    model = train_cell(cfg, pools, subject, session)
    seconds = {"fsl": time.perf_counter() - t0}
    supervised = None
    if cfg.include_supervised:
        base = cfg.supervised if cfg.supervised is not None else SupervisedConfig(
            backbone=cfg.train.backbone, num_classes=ds.num_classes
        )
        scfg = replace(base, rng_seed=cell_seed(cfg, 4, subject, session))
        t0 = time.perf_counter()
        supervised = train_supervised_baseline(pools[0], pools[1], scfg)
        seconds["supervised"] = time.perf_counter() - t0
    rows = evaluate_cell(
        cfg, model, pools, subject, session, (None, cfg.adapt), supervised=supervised
    )
    # a model's training time is charged to its first row, so a cell's rows sum to its run time
    return [
        replace(r, wall_clock_seconds=r.wall_clock_seconds + seconds.pop(r.method, 0.0))
        for r in rows
    ]


def run_protocol(cfg: ExperimentConfig, ds: DatasetIndex | None = None) -> ResultTable:
    """Train and evaluate every protocol cell; baseline and adapted runs share episodes."""
    if ds is None:
        ds = load_dataset(cfg)
    rows = [row for cell in plan_cells(cfg, ds) for row in _run_cell(cfg, ds, *cell)]
    return ResultTable(rows).with_aggregates()


# -- config (de)serialization ------------------------------------------------------


def config_to_obj(cfg: ExperimentConfig) -> dict:
    """JSON-ready dict mirroring experiment_config_from_obj: asdict less the fields set elsewhere."""
    obj = json.loads(json.dumps(asdict(cfg)))  # tuples become lists
    backbone = obj["train"]["backbone"]
    sections = ((BackboneConfig, backbone), (TrainConfig, obj["train"]), (SupervisedConfig, obj["supervised"]))
    for cls, section in sections:
        for name in _SET_ELSEWHERE[cls] if section is not None else ():
            del section[name]
    kind = "synthetic" if isinstance(cfg.dataset, DriftConfig) else "import"
    return {"dataset": {kind: obj.pop("dataset")}, "backbone": backbone, **obj}


def _is_number(value) -> bool:
    """An int or float that a finite float holds; a bool is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _is_str(value) -> bool:
    return isinstance(value, str)


_OBJECT = (lambda value: isinstance(value, dict), "an object")
_INTS = (lambda value: isinstance(value, list) and all(map(_is_int, value)), "a list of integers")
_SEEDS = ("seed", "rng_seed")  # nonnegative: numpy seeds take no negative entropy
_SEED = (lambda value: _is_int(value, 0), "a nonnegative integer")

# a config field's JSON test and what its value must be, by the field's annotation
_JSON_KINDS = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a finite number"),
    "str": (_is_str, "a string"),
    "bool": (lambda value: isinstance(value, bool), "true or false"),
    "tuple[int, ...]": _INTS,
    "tuple[int, int, int, int]": _INTS,
    "tuple[float, ...]": (
        lambda value: isinstance(value, list) and all(map(_is_number, value)), "a list of finite numbers"
    ),
    "KernelSpec | str": (
        lambda value: value == "median-auto" or isinstance(value, dict), '"median-auto" or an object'
    ),
    "DriftConfig | str": _OBJECT,
    "TrainConfig": _OBJECT,
    "AdaptConfig": _OBJECT,
    "SupervisedConfig | None": (lambda value: value is None or isinstance(value, dict), "an object or null"),
}
# the fields of a section's class that the JSON layout does not take, and where each is set
_SECTION_SET_ELSEWHERE = {
    "backbone": "repeats the shared backbone: write it once, at the top level",
    "rng_seed": "is derived for each cell from the top-level seed",
}
_SET_ELSEWHERE = {
    BackboneConfig: {
        "head_kind": "is set by train.head_kind; the supervised head is linear",
        "num_classes": "is set by train.way and supervised.num_classes",
    },
    TrainConfig: _SECTION_SET_ELSEWHERE,
    SupervisedConfig: _SECTION_SET_ELSEWHERE,
}
_DATASET_KINDS = {"synthetic": _OBJECT, "import": (_is_str, "a manifest path string")}


def _check(where: str, name: str, value, kind) -> None:
    test, must = kind
    if not test(value):
        raise ConfigError(f"{where} field {name!r} must be {must}, got {value!r}")


def _checked(cls, obj, where: str, **layout) -> dict:
    """obj's entries, each checked against the JSON kind of cls's field of that name.

    Lists load as tuples. ``layout`` gives the kinds of keys the layout puts beside
    cls's fields. A field set elsewhere is rejected; an unknown key passes, for cls to reject.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    annotations = {f.name: f.type for f in fields(cls)}
    elsewhere = _SET_ELSEWHERE.get(cls, {})
    out = {}
    for name, value in obj.items():
        if name in layout:
            _check(where, name, value, layout[name])
        elif name in elsewhere:
            raise ConfigError(f"{where} field {name!r} {elsewhere[name]}")
        elif name in annotations:
            _check(where, name, value, _SEED if name in _SEEDS else _JSON_KINDS[annotations[name]])
        out[name] = tuple(value) if isinstance(value, list) else value
    return out


def _build(cls, what: str, kwargs: dict, **shared):
    try:
        return cls(**kwargs, **shared)
    except TypeError as e:  # a key that names no field
        raise ConfigError(f"bad {what} config: {e}") from e


def _read(cls, obj, where: str, what: str, **shared):
    """A cls from its JSON section; ``shared`` holds the fields the layout writes elsewhere."""
    return _build(cls, what, _checked(cls, obj, where), **shared)


def _reject_unknown(obj: dict, cls, what: str, *layout: str) -> None:
    unknown = obj.keys() - {f.name for f in fields(cls)} - set(layout)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


def experiment_config_from_obj(obj: dict) -> ExperimentConfig:
    """Parse a config dict (from JSON); unknown keys and mistyped values are rejected."""
    top = _checked(ExperimentConfig, obj, "experiment config", backbone=_OBJECT)
    _reject_unknown(top, ExperimentConfig, "config", "backbone")
    if "dataset" not in top:
        raise ConfigError("config needs a dataset entry")
    dataset = top["dataset"]
    if len(dataset) != 1 or not {"synthetic", "import"} & set(dataset):
        raise ConfigError('dataset must be {"synthetic": {...}} or {"import": "path"}')
    [(kind, source)] = dataset.items()
    _check("config dataset", kind, source, _DATASET_KINDS[kind])
    if kind == "synthetic":
        source = _read(DriftConfig, source, "config dataset synthetic", "synthetic dataset")
    top["dataset"] = source
    backbone = _read(BackboneConfig, top.pop("backbone", {}), "config backbone", "backbone")
    top["train"] = _read(TrainConfig, top.get("train", {}), "config train", "train", backbone=backbone)
    adapt = _checked(AdaptConfig, top.get("adapt", {}), "config adapt")
    if isinstance(adapt.get("kernel"), dict):
        kernel = _checked(KernelSpec, adapt["kernel"], "config adapt kernel")
        _reject_unknown(kernel, KernelSpec, "kernel")
        adapt["kernel"] = KernelSpec(**kernel)
    top["adapt"] = _build(AdaptConfig, "adapt", adapt)
    if top.get("supervised") is not None:
        top["supervised"] = _read(
            SupervisedConfig, top["supervised"], "config supervised", "supervised", backbone=backbone
        )
    return ExperimentConfig(**top)


def read_json(path: str | Path, what: str):
    """The JSON document in a file; an unreadable or malformed file raises ConfigError naming it."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path}: {e}") from e
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"{what} {path} is not valid JSON: {e}") from e


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    obj = read_json(path, "config")
    try:
        return experiment_config_from_obj(obj)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e


def load_drift_config(path: str | Path) -> DriftConfig:
    """A synthetic generator config file: the generator's fields, bare or under "synthetic"."""
    obj = read_json(path, "config")
    if isinstance(obj, dict) and "synthetic" in obj:
        obj = obj["synthetic"]
    try:
        return _read(DriftConfig, obj, "synthetic dataset config", "synthetic dataset")
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e
