"""Evolvable test-time adaptation of the adapter stage.

Target embeddings are aligned to an ordered series of source snapshots
(time buckets within a session, or one snapshot per training subject) by
kernel two-sample distance. Only the adapter parameters move: the encoder
and classifier head are frozen, so a sample's encoder row never changes
during adaptation. The adaptation core therefore takes encoder rows: the
train pool's (``backbone.encode_rows``), snapshots that index them, and the
target's. ``evofa_test`` encodes each of its pools once per call.

The core runs on one episode or on a stack of G of them. A stack has target
rows [G x t x q], one SnapshotSet per slice and a stacked adapter (weights
[G x ...], biases [G x 1 x h]); the adapter and the fused ``mmd.mmd2`` node
then run once per step for the whole stack, with a median-heuristic
bandwidth per slice, and each loss is the [G] vector of slice losses.
Episodes without persisted adaptation are independent, so ``evofa_test``
adapts them EPISODE_GROUP at a time; persisted adaptation runs the same code
on stacks of one.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import backbone
from .autodiff import ParamGroup, Tensor
from .backbone import Model, encode_rows
from .data import DatasetIndex
from .errors import ConfigError, ContractError, ProtocolError, SamplingError
from .fsl import Episode, classify_query, sample_episode
from .mmd import KernelSpec, default_spec, mmd2


@dataclass(frozen=True, eq=False)
class Snapshot:
    """One stage of the evolving source: disjoint support/query halves and a stage tag.

    The halves are row indices into the train pool the snapshot was drawn from.
    """

    tag: int
    spt: np.ndarray
    qry: np.ndarray

    def __post_init__(self):
        if not len(self.spt) or not len(self.qry):
            raise ProtocolError(f"snapshot {self.tag} has an empty half")
        overlap = np.intersect1d(self.spt, self.qry)
        if overlap.size:
            raise ProtocolError(
                f"snapshot {self.tag} halves overlap on rows {overlap[:3].tolist()}"
            )


@dataclass(frozen=True)
class SnapshotSet:
    """Ordered stages of the evolving source distribution."""

    snapshots: tuple[Snapshot, ...]  # time buckets in order (intra) or one per subject (inter)

    def __post_init__(self):
        if not self.snapshots:
            raise ProtocolError("snapshot set is empty")

    def __len__(self) -> int:
        return len(self.snapshots)


@dataclass(frozen=True)
class AdaptConfig:
    """Adaptation knobs. Zero rates or zero iterations make adaptation an exact no-op.

    target_calibration_size is the total intended size of the target support
    set: the episode's support features plus, when the value exceeds the
    support count, extra unlabeled samples drawn from the test pool. Zero
    keeps the support set alone.
    """

    n_snapshots: int = 5
    snapshot_size: int = 32  # per half
    eta_in: float = 1e-2
    eta_out: float = 1e-2
    max_iter: int = 1
    target_calibration_size: int = 0
    kernel: KernelSpec | str = "median-auto"

    def __post_init__(self):
        if self.n_snapshots < 1:
            raise ConfigError(f"n_snapshots must be positive, got {self.n_snapshots}")
        if self.snapshot_size < 1:
            raise ConfigError(f"snapshot_size must be positive, got {self.snapshot_size}")
        for name in ("eta_in", "eta_out"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ConfigError(f"{name} must be finite and nonnegative, got {value}")
        if self.max_iter < 0:
            raise ConfigError(f"max_iter must be nonnegative, got {self.max_iter}")
        if self.target_calibration_size < 0:
            raise ConfigError(
                f"target_calibration_size must be nonnegative, got {self.target_calibration_size}"
            )
        if not isinstance(self.kernel, KernelSpec) and self.kernel != "median-auto":
            raise ConfigError(
                f"kernel must be a KernelSpec or 'median-auto', got {self.kernel!r}"
            )


Snapshots = SnapshotSet | Sequence[SnapshotSet]  # one set, or one per slice of a stack


# -- snapshot sampling ------------------------------------------------------------


def _draw_halves(
    stages: dict[int, np.ndarray], what: str, cfg: AdaptConfig, rng: np.random.Generator
) -> SnapshotSet:
    """One snapshot per stage, in order: disjoint halves drawn from the stage's pool rows."""
    need = 2 * cfg.snapshot_size
    snapshots = []
    for tag, rows in stages.items():
        if len(rows) < need:
            raise SamplingError(f"{what} {tag} has {len(rows)} samples, needs {need}")
        picks = rows[rng.choice(len(rows), size=need, replace=False)]
        snapshots.append(Snapshot(tag, picks[: cfg.snapshot_size], picks[cfg.snapshot_size :]))
    return SnapshotSet(tuple(snapshots))


def sample_snapshots_intra(
    train_pool: DatasetIndex, cfg: AdaptConfig, rng: np.random.Generator
) -> SnapshotSet:
    """Cut the pool's timeline into n contiguous buckets and draw halves from each.

    A pool is in dataset order, which is chronological within its one session.
    """
    if not len(train_pool):
        raise SamplingError("cannot sample snapshots from an empty pool")
    buckets = np.array_split(np.arange(len(train_pool)), cfg.n_snapshots)
    return _draw_halves(dict(enumerate(buckets)), "time bucket", cfg, rng)


def sample_snapshots_inter(
    train_pool: DatasetIndex, cfg: AdaptConfig, rng: np.random.Generator
) -> SnapshotSet:
    """One snapshot per training subject, capped at n subjects drawn without replacement."""
    subjects = train_pool.subjects()
    if not subjects:
        raise SamplingError("cannot sample snapshots from an empty pool")
    if cfg.n_snapshots < len(subjects):
        subjects = sorted(
            int(x) for x in rng.choice(subjects, size=cfg.n_snapshots, replace=False)
        )
    stages = {subj: np.flatnonzero(train_pool.subject == subj) for subj in subjects}
    return _draw_halves(stages, "subject", cfg, rng)


# -- alignment losses -------------------------------------------------------------


def _stage_rows(train_rows: np.ndarray, snapshots: Snapshots, half: str) -> list[np.ndarray]:
    """Per stage, in order, the train rows of the snapshots' ``half`` ("spt" or "qry")."""
    if isinstance(snapshots, SnapshotSet):
        return [train_rows[getattr(snap, half)] for snap in snapshots.snapshots]
    if len({len(sset) for sset in snapshots}) != 1:
        raise ProtocolError("stacked snapshot sets differ in length")
    stages = zip(*(sset.snapshots for sset in snapshots))
    return [train_rows[np.stack([getattr(snap, half) for snap in stage])] for stage in stages]


def _aligned(src: Tensor, tgt: Tensor, cfg: AdaptConfig) -> Tensor:
    """Squared MMD between adapted source and target sets, per slice for stacks."""
    if isinstance(cfg.kernel, KernelSpec):
        spec = cfg.kernel
    elif src.ndim == 2:  # bandwidth from the current adapted embeddings, no gradient through it
        spec = default_spec(src.data, tgt.data)
    else:
        spec = [default_spec(s, t) for s, t in zip(src.data, tgt.data)]
    return mmd2(src, tgt, spec)


def _adapted_target(target_rows: np.ndarray, phi: ParamGroup) -> Tensor:
    if target_rows.ndim not in (2, 3) or not target_rows.shape[-2]:
        raise ProtocolError(
            f"target support must be a nonempty [m x q] row matrix, got shape {target_rows.shape}"
        )
    return backbone.adapt(Tensor(target_rows), phi)


def _pair_loss(
    src_enc: np.ndarray, tgt_enc: np.ndarray, phi: ParamGroup, cfg: AdaptConfig
) -> Tensor:
    """Squared MMD between two encoded sets after passing both through the adapter."""
    return _aligned(backbone.adapt(Tensor(src_enc), phi), _adapted_target(tgt_enc, phi), cfg)


def _require_finite_grads(group: ParamGroup, where: str) -> None:
    for name, t in group.entries:
        if t.grad is None:
            raise ContractError(f"{where}: parameter {group.name}/{name} has no gradient")
        if not np.all(np.isfinite(t.grad)):
            raise ContractError(f"{where}: non-finite gradient in {group.name}/{name}")


def inner_adapt(
    model: Model,
    train_rows: np.ndarray,
    snapshots: Snapshots,
    target_rows: np.ndarray,
    cfg: AdaptConfig,
) -> ParamGroup:
    """Sequential adapter steps, one per snapshot in order, toward the target rows.

    Starts from the model's current adapter and returns the stepped copy,
    leaving the model's own parameters untouched. Labels never enter: the
    target is encoder rows only.
    """
    phi = model.phi.copy()
    if cfg.eta_in == 0.0:
        return phi
    for stage, src_enc in enumerate(_stage_rows(train_rows, snapshots, "spt")):
        phi.zero_grad()
        loss = _pair_loss(src_enc, target_rows, phi, cfg)
        if not loss.is_finite():
            raise ContractError(f"non-finite alignment loss at snapshot stage {stage}")
        ad.backward(loss.sum())
        _require_finite_grads(phi, f"inner step at snapshot stage {stage}")
        ad.sgd_step(phi, cfg.eta_in)
    return phi


def alignment_loss(
    phi: ParamGroup,
    train_rows: np.ndarray,
    snapshots: Snapshots,
    target_rows: np.ndarray,
    cfg: AdaptConfig,
) -> Tensor:
    """Mean squared MMD between each snapshot's query half and the target rows.

    The target goes through the adapter once and is shared by every snapshot's term.
    """
    tgt = _adapted_target(target_rows, phi)
    stages = _stage_rows(train_rows, snapshots, "qry")
    total = None
    for src_enc in stages:
        term = _aligned(backbone.adapt(Tensor(src_enc), phi), tgt, cfg)
        total = term if total is None else ad.add(total, term)
    return ad.mul(total, Tensor(1.0 / len(stages)))


def mean_alignment(
    model: Model,
    train_rows: np.ndarray,
    snapshots: SnapshotSet,
    target_rows: np.ndarray,
    cfg: AdaptConfig,
) -> float:
    """alignment_loss evaluated at the model's current adapter, as a plain float."""
    with ad.no_grad():
        return alignment_loss(model.phi, train_rows, snapshots, target_rows, cfg).item()


def outer_update(
    model: Model,
    phi_n: ParamGroup,
    train_rows: np.ndarray,
    snapshots: Snapshots,
    target_rows: np.ndarray,
    cfg: AdaptConfig,
) -> None:
    """Aggregated adapter update: the gradient taken at phi_n steps the model's adapter.

    First-order rule: the inner trajectory is not differentiated through;
    the gradient of the query-half alignment at phi_n is applied directly
    to the stored adapter parameters.
    """
    if cfg.eta_out == 0.0:
        return
    if [n for n, _ in model.phi.entries] != [n for n, _ in phi_n.entries]:
        raise ContractError("adapter parameter tables disagree")
    phi_n.zero_grad()
    loss = alignment_loss(phi_n, train_rows, snapshots, target_rows, cfg)
    if not loss.is_finite():
        raise ContractError("non-finite aggregated alignment loss")
    ad.backward(loss.sum())
    _require_finite_grads(phi_n, "outer update")
    for (_, dst), (_, src) in zip(model.phi.entries, phi_n.entries):
        dst.data = dst.data - cfg.eta_out * src.grad
    phi_n.zero_grad()


SnapshotSource = Snapshots | Callable[[int], Snapshots]


def evofa_run(
    model: Model,
    train_rows: np.ndarray,
    snapshots: SnapshotSource,
    target_rows: np.ndarray,
    cfg: AdaptConfig,
) -> Model:
    """max_iter rounds of inner adaptation plus outer update on the model's adapter.

    snapshots index ``train_rows`` and are either a fixed SnapshotSet reused
    every round or a callable iteration -> SnapshotSet giving a freshly
    sampled evolving source per round. The encoder and head never change.
    """
    for it in range(cfg.max_iter):
        snaps = snapshots(it) if callable(snapshots) else snapshots
        phi_n = inner_adapt(model, train_rows, snaps, target_rows, cfg)
        outer_update(model, phi_n, train_rows, snaps, target_rows, cfg)
    return model


# -- episode-level evaluation -------------------------------------------------------

# Independent episodes adapted together as one stack. Measured on the README
# demo (400 adapted episodes): 8 takes adaptation from 2.2 s at one at a time
# to 1.1 s with peak RSS unchanged; 16 and 32 save under 10% more and add 4
# and 13 MiB of peak RSS.
EPISODE_GROUP = 8


@dataclass(frozen=True)
class EvalConfig:
    """Episode-level evaluation protocol."""

    episodes: int = 200
    way: int = 3
    shot: int = 1
    queries: int = 10
    rng_seed: int = 0
    persist_adaptation: bool = False  # carry the adapted state across episodes

    def __post_init__(self):
        counts = {
            "episodes": self.episodes,
            "way": self.way,
            "shot": self.shot,
            "queries": self.queries,
        }
        for name, value in counts.items():
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class EvalReport:
    """Accuracy summary over evaluation episodes (std is population std, ddof 0)."""

    method: str
    way: int
    shot: int
    queries: int
    episodes: int
    mean_accuracy: float
    std_accuracy: float
    per_episode: tuple[float, ...]


def _target_indices(episode: Episode, cfg: AdaptConfig, rng: np.random.Generator) -> np.ndarray:
    """Rows of the episode's pool in the target: the support plus optional extra unlabeled draws.

    Extras never include the episode's own samples (classifying the query
    after aligning on it would be transductive). Supply shortfalls are
    tolerated: at most the available sample count is drawn.
    """
    target = episode.support
    extra = cfg.target_calibration_size - len(target)
    if extra > 0:
        rest = np.setdiff1d(np.arange(len(episode.pool)), np.concatenate([episode.support, episode.query]))
        if len(rest):
            picks = rng.choice(len(rest), size=min(extra, len(rest)), replace=False)
            target = np.concatenate([target, rest[picks]])
    return target


def _stack_adapter(phi: ParamGroup, count: int) -> ParamGroup:
    """``count`` copies of the adapter along a new leading slice axis.

    A bias [h] becomes [G x 1 x h], so that it broadcasts over a [G x m x h]
    stack slice by slice.
    """
    return ParamGroup(
        phi.name,
        [
            (n, Tensor(np.repeat(t.data.reshape((1,) * (3 - t.ndim) + t.shape), count, axis=0), True))
            for n, t in phi.entries
        ],
    )


def _slice_adapter(stacked: ParamGroup, index: int) -> ParamGroup:
    """Slice ``index`` of a stacked adapter; a bias keeps its row axis, [1 x h]."""
    return ParamGroup(stacked.name, [(n, Tensor(t.data[index])) for n, t in stacked.entries])


def evofa_test(
    model: Model,
    test_pool: DatasetIndex,
    train_pool: DatasetIndex,
    split_kind: str,
    eval_cfg: EvalConfig,
    adapt_cfg: AdaptConfig | None = None,
) -> EvalReport:
    """Per-episode test-time adaptation and classification.

    Each episode: sample it, build the target support from the episode's
    support features (labels unused, plus optional extra unlabeled samples),
    adapt a copy of the model's adapter, and classify the query with it. The
    episode stream depends only on (rng_seed, episode index), so runs with
    adaptation on, off, or disabled consume identical episodes. The model
    itself is never modified, even when persist_adaptation carries the
    adapted state from one episode to the next.

    Encoding happens once, up front: the test pool (and, when adapting, the
    train pool) goes through ``encode_rows``. Snapshot halves, the target
    support and the episode's support and query then index those row
    matrices; only the adapter and the head run per episode.

    Episodes are independent unless adaptation persists, so they run in
    groups of EPISODE_GROUP: every episode of a group, its target and its
    per-round snapshots are drawn first, then one adaptation runs on the
    group's stack with one adapter slice per episode. Persisted adaptation
    runs the same code on groups of one, carrying its stack of one along.
    """
    if split_kind == "intra":
        sampler = sample_snapshots_intra
    elif split_kind == "inter":
        sampler = sample_snapshots_inter
    else:
        raise ConfigError(f"split kind must be intra or inter, got {split_kind!r}")
    test_rows = encode_rows(model, test_pool.features)
    if adapt_cfg is not None:
        train_rows = encode_rows(model, train_pool.features)
    persist = eval_cfg.persist_adaptation
    carried = _stack_adapter(model.phi, 1)  # persisted adaptation's state
    rng = lambda *stream: np.random.default_rng([eval_cfg.rng_seed, *stream])
    accuracies = []
    group = 1 if persist else EPISODE_GROUP
    for start in range(0, eval_cfg.episodes, group):
        indices = range(start, min(start + group, eval_cfg.episodes))
        episodes = [
            sample_episode(test_pool, eval_cfg.way, eval_cfg.shot, eval_cfg.queries, rng(10, i))
            for i in indices
        ]
        adapters = [model.phi] * len(episodes)
        if adapt_cfg is not None:
            targets = [
                _target_indices(episode, adapt_cfg, rng(11, i))
                for episode, i in zip(episodes, indices)
            ]
            # each adaptation round draws a fresh evolving source per episode
            rounds = [
                [sampler(train_pool, adapt_cfg, rng(12, i, it)) for i in indices]
                for it in range(adapt_cfg.max_iter)
            ]
            phi = carried if persist else _stack_adapter(model.phi, len(indices))
            stacked = replace(model, phi=phi)
            evofa_run(stacked, train_rows, lambda it: rounds[it], test_rows[np.stack(targets)], adapt_cfg)
            adapters = [_slice_adapter(phi, k) for k in range(len(indices))]
        for episode, adapter in zip(episodes, adapters):
            accuracies.append(classify_query(episode, model, test_rows, adapter)[1])
    arr = np.array(accuracies)
    return EvalReport(
        method="fsl" if adapt_cfg is None else "fsl+evofa",
        way=eval_cfg.way,
        shot=eval_cfg.shot,
        queries=eval_cfg.queries,
        episodes=eval_cfg.episodes,
        mean_accuracy=float(arr.mean()),
        std_accuracy=float(arr.std()),
        per_episode=tuple(float(a) for a in arr),
    )
