"""Experiment orchestration: protocol loops, result tables, and report files.

Runs are deterministic functions of (config, seed): per-cell training and
evaluation seeds are derived from the master seed and the cell coordinates,
and the results CSV contains no timing, so two identical runs produce byte
identical CSV files. Wall-clock timings go to the JSON report only.
"""
from __future__ import annotations

import csv
import io
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .adapt import AdaptConfig, EvalConfig, evofa_test
from .backbone import BackboneConfig
from .data import (
    DatasetIndex,
    DriftConfig,
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


CSV_COLUMNS = (
    "protocol",
    "subject",
    "session",
    "method",
    "shots",
    "way",
    "queries",
    "episodes",
    "mean_accuracy",
    "std_accuracy",
    "std_over",
)


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
        order: list[tuple[str, int]] = []
        groups: dict[tuple[str, int], list[ResultRow]] = {}
        for row in cell_rows:
            key = (row.method, row.shots)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        out = []
        for key in order:
            members = groups[key]
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
        sessions = list(cfg.sessions) if cfg.sessions else sorted(
            {s.session_id for s in ds.samples}
        )
        cells = [(subj, sess) for sess in sessions for subj in subjects]
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
    """The cell's (train, val, test) sample pools."""
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
    """JSON-ready dict mirroring experiment_config_from_obj."""
    if isinstance(cfg.dataset, DriftConfig):
        dataset = {"synthetic": asdict(cfg.dataset)}
    else:
        dataset = {"import": str(cfg.dataset)}
    train = asdict(cfg.train)
    backbone = train.pop("backbone")
    backbone["conv_channels"] = list(backbone["conv_channels"])
    adapt = asdict(cfg.adapt)
    if isinstance(cfg.adapt.kernel, KernelSpec):
        adapt["kernel"] = {
            "bandwidths": list(cfg.adapt.kernel.bandwidths),
            "weights": list(cfg.adapt.kernel.weights),
        }
    supervised = None
    if cfg.supervised is not None:
        supervised = asdict(cfg.supervised)
        supervised.pop("backbone")  # the experiment backbone is shared
    return {
        "dataset": dataset,
        "protocol": cfg.protocol,
        "backbone": backbone,
        "train": train,
        "adapt": adapt,
        "supervised": supervised,
        "eval_episodes": cfg.eval_episodes,
        "seed": cfg.seed,
        "subjects": list(cfg.subjects),
        "sessions": list(cfg.sessions),
        "persist_adaptation": cfg.persist_adaptation,
        "include_supervised": cfg.include_supervised,
    }


def _take(obj: dict, what: str, allowed: set[str]) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


def experiment_config_from_obj(obj: dict) -> ExperimentConfig:
    """Parse a config dict (from JSON); unknown keys are rejected."""
    if not isinstance(obj, dict):
        raise ConfigError(f"experiment config must be an object, got {type(obj).__name__}")
    allowed = {
        "dataset",
        "protocol",
        "backbone",
        "train",
        "adapt",
        "supervised",
        "eval_episodes",
        "seed",
        "subjects",
        "sessions",
        "persist_adaptation",
        "include_supervised",
    }
    _take(obj, "config", allowed)
    try:
        dataset_obj = obj["dataset"]
    except KeyError:
        raise ConfigError("config needs a dataset entry")
    if not isinstance(dataset_obj, dict) or len(dataset_obj) != 1:
        raise ConfigError('dataset must be {"synthetic": {...}} or {"import": "path"}')

    def build(factory, what, **kwargs):
        try:
            return factory(**kwargs)
        except TypeError as e:
            raise ConfigError(f"bad {what} config: {e}") from e

    if "synthetic" in dataset_obj:
        dataset = build(DriftConfig, "synthetic dataset", **dataset_obj["synthetic"])
    elif "import" in dataset_obj:
        dataset = dataset_obj["import"]
        if not isinstance(dataset, str):
            raise ConfigError(
                f'dataset "import" must be a manifest path string, got {type(dataset).__name__}'
            )
    else:
        raise ConfigError('dataset must be {"synthetic": {...}} or {"import": "path"}')
    backbone_obj = dict(obj.get("backbone", {}))
    if "conv_channels" in backbone_obj:
        backbone_obj["conv_channels"] = tuple(backbone_obj["conv_channels"])
    backbone = build(BackboneConfig, "backbone", **backbone_obj)
    train_obj = dict(obj.get("train", {}))
    train_obj.pop("backbone", None)
    train = build(TrainConfig, "train", backbone=backbone, **train_obj)
    adapt_obj = dict(obj.get("adapt", {}))
    kernel = adapt_obj.get("kernel")
    if isinstance(kernel, dict):
        adapt_obj["kernel"] = KernelSpec(
            bandwidths=tuple(kernel.get("bandwidths", ())),
            weights=tuple(kernel.get("weights", ())),
        )
    adapt = build(AdaptConfig, "adapt", **adapt_obj)
    supervised = None
    if obj.get("supervised") is not None:
        sup_obj = dict(obj["supervised"])
        sup_obj.pop("backbone", None)
        supervised = build(SupervisedConfig, "supervised", backbone=backbone, **sup_obj)
    try:
        return ExperimentConfig(
            dataset=dataset,
            protocol=obj.get("protocol", "intra"),
            train=train,
            adapt=adapt,
            supervised=supervised,
            eval_episodes=obj.get("eval_episodes", 200),
            seed=obj.get("seed", 0),
            subjects=tuple(obj.get("subjects", ())),
            sessions=tuple(obj.get("sessions", ())),
            persist_adaptation=bool(obj.get("persist_adaptation", False)),
            include_supervised=bool(obj.get("include_supervised", True)),
        )
    except TypeError as e:
        raise ConfigError(f"bad experiment config: {e}") from e


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    return experiment_config_from_obj(obj)
