"""Experiment orchestration: configs, protocol loops, result tables, and report files.

Runs are deterministic functions of (config, seed): per-cell training and
evaluation seeds are derived from the master seed and the cell coordinates,
and the results CSV contains no timing, so two identical runs produce byte
identical CSV files. Wall-clock timings go to the JSON report only.

An experiment config's JSON sections are read from the config dataclasses:
a section's keys are its class's fields, a field's annotation picks its JSON
test in ``_JSON_KINDS``, and a key left out takes the field's default. A
number field's annotation names its range rule in ``data.FIELD_RULES``, the
test the dataclass applies when built from Python, so a value out of range
is rejected as the file is read, naming its section and field. The layout
adds one rule: "dataset" wraps a generator section or a manifest path. Keys
whose value another section owns (``_SET_ELSEWHERE``) and keys that name no
field are rejected, naming the section and the key.
"""
from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .adapt import AdaptConfig, EvalConfig, evofa_test
from .backbone import BackboneConfig, encode_rows
from .data import (
    _OBJECT,
    JSON_KINDS,
    Count,
    DatasetIndex,
    DriftConfig,
    Natural,
    Rate,
    Scale,
    _is_str,
    all_or_nothing,
    atomic_write,
    check_fields,
    field_kinds,
    generate_synthetic_drift,
    import_features,
    make_inter_split,
    make_intra_split,
    read_fields,
    read_json,
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
Method = str  # one of METHODS


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: dataset, the one backbone, protocol, training recipe, adaptation recipe."""

    dataset: DriftConfig | str  # synthetic generator config or a manifest path
    backbone: BackboneConfig = field(default_factory=BackboneConfig)  # of every model the experiment trains
    protocol: str = "intra"
    train: TrainConfig = field(default_factory=TrainConfig)
    adapt: AdaptConfig = field(default_factory=AdaptConfig)
    supervised: SupervisedConfig | None = None
    eval_episodes: Count = 200
    seed: Natural = 0
    subjects: tuple[int, ...] = ()  # empty: every subject in the dataset
    sessions: tuple[int, ...] = ()  # inter protocol; empty: every session
    persist_adaptation: bool = False
    include_supervised: bool = True

    def __post_init__(self):
        check_fields(self)
        for name, owner in _SET_ELSEWHERE[BackboneConfig].items():
            if getattr(self.backbone, name) != getattr(BackboneConfig, name):
                raise ConfigError(f"config backbone field {name!r} {owner}")
        if self.protocol not in ("intra", "inter"):
            raise ConfigError(f"protocol must be intra or inter, got {self.protocol!r}")
        for name in ("subjects", "sessions"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} names an entry more than once: {list(values)}")
        if self.protocol == "intra" and self.sessions:
            raise ConfigError(
                f"sessions {list(self.sessions)} is for the inter protocol; an intra cell "
                "splits sessions 1, 2 and 3 into train, validation and test"
            )


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
    schema = (cfg.backbone.n_electrodes, cfg.backbone.d_bands)
    if schema != ds.schema:
        raise ConfigError(f"backbone expects features {schema}, dataset provides {ds.schema}")


# -- result table -----------------------------------------------------------------


@dataclass(frozen=True)
class ResultRow:
    """One evaluated cell (or the aggregate across cells, subject == 'all'); each field meets its annotated rule."""

    protocol: str
    subject: str
    session: str
    method: Method
    shots: Natural  # 0 for the supervised row
    way: Count
    queries: Count
    episodes: Natural
    mean_accuracy: Rate
    std_accuracy: Rate  # a std of rates in [0, 1] is at most 0.5
    std_over: str  # episodes | subjects | pool
    wall_clock_seconds: Scale

    def __post_init__(self):
        check_fields(self, _JSON_KINDS)


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
        """Write results.csv and results.json into ``out_dir``, both or neither."""
        out = Path(out_dir)
        with all_or_nothing():
            return (
                atomic_write(out / "results.csv", self.to_csv_text().encode()),
                atomic_write(out / "results.json", (json.dumps(self.to_json_obj(), indent=2) + "\n").encode()),
            )


def write_run_manifest(out_dir: str | Path, cfg: ExperimentConfig | DriftConfig) -> Path:
    """run-manifest.json: the package version, the command's config and the time.

    An experiment run records its seed and config; synth-gen records its
    generator config as the ``dataset`` section an experiment config takes.
    """
    if isinstance(cfg, DriftConfig):
        command = {"dataset": {"synthetic": asdict(cfg)}}
    else:
        command = {"seed": cfg.seed, "config": config_to_obj(cfg)}
    manifest = {"version": f"evofa-{__version__}", **command, "created_unix": time.time()}
    path = Path(out_dir) / "run-manifest.json"
    atomic_write(path, (json.dumps(manifest, indent=2) + "\n").encode())
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
        if subject is not None and session is None:
            raise ConfigError(
                f"subject {subject} given without a session: an inter cell needs one of {sessions}"
            )
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


def cell_seed(cfg: ExperimentConfig, stream: int, subject: int, session: int | None) -> int:
    """Seed of one random stream of a cell: 1 meta-training, 2 evaluation, 4 supervised.

    A cell's stream has one seed, whatever the command or shot count. "Seed derivation"
    in docs/data-format.md lists every stream of a run in one table.
    """
    return derive_seed(cfg.seed, stream, subject, 0 if session is None else 1 + session)


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
    return meta_train(train, val, cfg.train, cfg.backbone, cell_seed(cfg, 1, subject, session), on_epoch=on_epoch)


def train_supervised_cell(cfg: ExperimentConfig, pools, subject: int, session: int | None):
    """Train the cell's supervised baseline on its train pool, validating on its val pool.

    Without a supervised section the baseline takes ``SupervisedConfig``'s defaults
    for the pool's class count, which every pool keeps from its dataset.
    """
    train, val, _ = pools
    scfg = cfg.supervised if cfg.supervised is not None else SupervisedConfig(num_classes=train.num_classes)
    return train_supervised_baseline(train, val, scfg, cfg.backbone, cell_seed(cfg, 4, subject, session))


def evaluate_cell(
    cfg: ExperimentConfig,
    model,
    pools,
    subject: int,
    session: int | None,
    adapt_cfgs,
    shots: list[int],
    supervised=None,
) -> list[ResultRow]:
    """Result rows of one cell, each timed by its own evaluation.

    The supervised model, if given, is scored on the whole test pool first. Then
    the episodic model runs once per (shot, adaptation config), ordered by shot
    and then by ``adapt_cfgs`` (None is the unadapted baseline); every config of
    one shot sees the same episodes. Every shot draws from the cell's evaluation seed,
    so ``compare`` and ``train`` + ``evaluate`` give a cell and shot the same rows.
    The frozen encoder runs once per pool it needs; the first episodic row is charged for it.
    """
    train, _, test = pools
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
    t0 = time.perf_counter()
    test_rows = encode_rows(model, test.features)
    train_rows = encode_rows(model, train.features) if any(a is not None for a in adapt_cfgs) else None
    for k in shots:
        eval_cfg = EvalConfig(
            episodes=cfg.eval_episodes,
            way=cfg.train.way,
            shot=k,
            queries=cfg.train.queries,
            rng_seed=cell_seed(cfg, 2, subject, session),
            persist_adaptation=cfg.persist_adaptation,
        )
        for adapt_cfg in adapt_cfgs:
            r = evofa_test(
                model, test, train, cfg.protocol, eval_cfg, adapt_cfg, test_rows=test_rows, train_rows=train_rows
            )
            add(r.method, k, r.episodes, r.mean_accuracy, r.std_accuracy, "episodes", t0)
            t0 = time.perf_counter()
    return rows


def _run_cell(cfg: ExperimentConfig, ds: DatasetIndex, subject: int, session: int | None):
    """Train and evaluate one cell: supervised, fsl and fsl+evofa rows."""
    pools = cell_pools(cfg, ds, subject, session)
    t0 = time.perf_counter()
    model = train_cell(cfg, pools, subject, session)
    seconds = {"fsl": time.perf_counter() - t0}
    supervised = None
    if cfg.include_supervised:
        t0 = time.perf_counter()
        supervised = train_supervised_cell(cfg, pools, subject, session)
        seconds["supervised"] = time.perf_counter() - t0
    rows = evaluate_cell(
        cfg, model, pools, subject, session, (None, cfg.adapt), [cfg.train.shot], supervised
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
    cells = plan_cells(cfg, ds)
    if cfg.include_supervised and ds.num_classes < 2:
        raise ConfigError(
            f"include_supervised needs a dataset of at least 2 classes for the supervised "
            f"baseline, the dataset has {ds.num_classes}"
        )
    rows = [row for cell in cells for row in _run_cell(cfg, ds, *cell)]
    return ResultTable(rows).with_aggregates()


# -- config (de)serialization ------------------------------------------------------


def config_to_obj(cfg: ExperimentConfig) -> dict:
    """JSON-ready dict mirroring experiment_config_from_obj: asdict less the backbone fields set elsewhere."""
    obj = json.loads(json.dumps(asdict(cfg)))  # tuples become lists
    for name in _SET_ELSEWHERE[BackboneConfig]:
        del obj["backbone"][name]
    kind = "synthetic" if isinstance(cfg.dataset, DriftConfig) else "import"
    return {"dataset": {kind: obj.pop("dataset")}, **obj}


# a config or result row field's JSON test and what its value must be, by the field's annotation
_JSON_KINDS = {
    **JSON_KINDS,
    "Method": (lambda value: value in METHODS, f"one of {METHODS}"),
    "KernelSpec | str": (
        lambda value: value == "median-auto" or isinstance(value, dict), '"median-auto" or an object'
    ),
    "DriftConfig | str": _OBJECT,
    "BackboneConfig": _OBJECT,
    "TrainConfig": _OBJECT,
    "AdaptConfig": _OBJECT,
    "SupervisedConfig | None": (lambda value: value is None or isinstance(value, dict), "an object or null"),
}
# the keys a section does not take, because another section owns what they would set
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


def _checked(cls, obj, where: str) -> dict:
    """obj's entries, each checked against the JSON kind of cls's field of that name.

    Lists load as tuples. A key set elsewhere and a key that names no field are rejected.
    """
    elsewhere = _SET_ELSEWHERE.get(cls, {})
    for name in obj if isinstance(obj, dict) else ():
        if name in elsewhere:
            raise ConfigError(f"{where} field {name!r} {elsewhere[name]}")
    obj = read_fields(obj, field_kinds(cls, _JSON_KINDS), where, ConfigError, ())
    return {name: tuple(value) if isinstance(value, list) else value for name, value in obj.items()}


def _build(cls, where: str, kwargs: dict):
    """A cls from checked kwargs; a rule that cls itself enforces fails naming ``where``."""
    try:
        return cls(**kwargs)
    except ConfigError as e:  # a rule across fields, from __post_init__
        raise ConfigError(f"{where}: {e}") from e


def _read(cls, obj, where: str):
    """A cls from its JSON section."""
    return _build(cls, where, _checked(cls, obj, where))


def experiment_config_from_obj(obj: dict) -> ExperimentConfig:
    """Parse a config dict (from JSON); unknown keys and mistyped values are rejected."""
    top = _checked(ExperimentConfig, obj, "experiment config")
    if "dataset" not in top:
        raise ConfigError("config needs a dataset entry")
    dataset = read_fields(top["dataset"], _DATASET_KINDS, "config dataset", ConfigError, ())
    if len(dataset) != 1:
        raise ConfigError('dataset must be {"synthetic": {...}} or {"import": "path"}')
    [(kind, source)] = dataset.items()
    if kind == "synthetic":
        source = _read(DriftConfig, source, "config dataset synthetic")
    top["dataset"] = source
    top["backbone"] = _read(BackboneConfig, top.get("backbone", {}), "config backbone")
    top["train"] = _read(TrainConfig, top.get("train", {}), "config train")
    adapt = _checked(AdaptConfig, top.get("adapt", {}), "config adapt")
    if isinstance(adapt.get("kernel"), dict):
        adapt["kernel"] = _read(KernelSpec, adapt["kernel"], "config adapt kernel")
    top["adapt"] = _build(AdaptConfig, "config adapt", adapt)
    if top.get("supervised") is not None:
        top["supervised"] = _read(SupervisedConfig, top["supervised"], "config supervised")
    return ExperimentConfig(**top)


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    obj = read_json(path, "config", ConfigError)
    try:
        return experiment_config_from_obj(obj)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e


def load_drift_config(path: str | Path) -> DriftConfig:
    """A synthetic generator config file: the generator's fields, bare or as the only key "synthetic"."""
    obj = read_json(path, "config", ConfigError)
    try:
        if isinstance(obj, dict) and "synthetic" in obj:
            obj = read_fields(obj, {"synthetic": _OBJECT}, "synthetic dataset config", ConfigError, ())["synthetic"]
        return _read(DriftConfig, obj, "synthetic dataset config")
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e
