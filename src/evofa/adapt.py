"""Evolvable test-time adaptation of the adapter stage.

Target embeddings are aligned to an ordered series of source snapshots
(time buckets within a session, or one snapshot per training subject) by
kernel two-sample distance. Only the adapter parameters move: the encoder
and classifier head are frozen, so gradients flow purely through the
adapter and a sample's encoder row never changes during adaptation.
evofa_test therefore encodes its test and train pools once per call and
passes rows of them (as :class:`Encoded`) wherever samples would otherwise
be encoded again; every sample is encoded exactly once per evaluation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from . import backbone
from .autodiff import ParamGroup, Tensor
from .backbone import Model
from .data import LabeledSample
from .errors import ConfigError, ContractError, ProtocolError, SamplingError
from .fsl import Episode, classify_embedded, sample_episode
from .mmd import KernelSpec, default_spec, mmd2

_key = lambda s: (s.subject_id, s.session_id, s.trial_id, s.time_index)


@dataclass(frozen=True)
class Snapshot:
    """One stage of the evolving source: disjoint support/query halves and a stage tag."""

    tag: int
    spt: tuple[LabeledSample, ...]
    qry: tuple[LabeledSample, ...]

    def __post_init__(self):
        if not self.spt or not self.qry:
            raise ProtocolError(f"snapshot {self.tag} has an empty half")
        overlap = {_key(s) for s in self.spt} & {_key(s) for s in self.qry}
        if overlap:
            raise ProtocolError(
                f"snapshot {self.tag} halves overlap on {sorted(overlap)[:3]}"
            )


@dataclass(frozen=True)
class Encoded:
    """Frozen-encoder rows [m x q], accepted wherever samples or features would be encoded."""

    rows: np.ndarray


@dataclass(frozen=True)
class EncodedSnapshot:
    """A checked Snapshot's halves as encoder rows, in the snapshot's sample order."""

    tag: int
    spt: Encoded
    qry: Encoded


@dataclass(frozen=True)
class SnapshotSet:
    """Ordered stages of the evolving source distribution."""

    kind: str  # "intra": chronological time buckets; "inter": per-subject
    snapshots: tuple[Snapshot | EncodedSnapshot, ...]

    def __post_init__(self):
        if self.kind not in ("intra", "inter"):
            raise ConfigError(f"snapshot kind must be intra or inter, got {self.kind!r}")
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


# -- snapshot sampling ------------------------------------------------------------


def sample_snapshots_intra(
    train_pool: Sequence[LabeledSample], cfg: AdaptConfig, rng: np.random.Generator
) -> SnapshotSet:
    """Cut the pool's timeline into n contiguous buckets and draw halves from each."""
    if not train_pool:
        raise SamplingError("cannot sample snapshots from an empty pool")
    ordered = sorted(train_pool, key=_key)
    buckets = np.array_split(np.arange(len(ordered)), cfg.n_snapshots)
    need = 2 * cfg.snapshot_size
    snapshots = []
    for i, idx in enumerate(buckets):
        if len(idx) < need:
            raise SamplingError(f"time bucket {i} has {len(idx)} samples, needs {need}")
        picks = rng.choice(idx, size=need, replace=False)
        snapshots.append(
            Snapshot(
                tag=i,
                spt=tuple(ordered[j] for j in picks[: cfg.snapshot_size]),
                qry=tuple(ordered[j] for j in picks[cfg.snapshot_size :]),
            )
        )
    return SnapshotSet(kind="intra", snapshots=tuple(snapshots))


def sample_snapshots_inter(
    train_pool: Sequence[LabeledSample], cfg: AdaptConfig, rng: np.random.Generator
) -> SnapshotSet:
    """One snapshot per training subject, capped at n subjects drawn without replacement."""
    by_subject: dict[int, list[LabeledSample]] = {}
    for s in train_pool:
        by_subject.setdefault(s.subject_id, []).append(s)
    subjects = sorted(by_subject)
    if not subjects:
        raise SamplingError("cannot sample snapshots from an empty pool")
    if cfg.n_snapshots < len(subjects):
        subjects = sorted(
            int(x) for x in rng.choice(subjects, size=cfg.n_snapshots, replace=False)
        )
    need = 2 * cfg.snapshot_size
    snapshots = []
    for subj in subjects:
        rows = by_subject[subj]
        if len(rows) < need:
            raise SamplingError(f"subject {subj} has {len(rows)} samples, needs {need}")
        picks = rng.choice(len(rows), size=need, replace=False)
        snapshots.append(
            Snapshot(
                tag=subj,
                spt=tuple(rows[j] for j in picks[: cfg.snapshot_size]),
                qry=tuple(rows[j] for j in picks[cfg.snapshot_size :]),
            )
        )
    return SnapshotSet(kind="inter", snapshots=tuple(snapshots))


# -- alignment losses -------------------------------------------------------------


def _as_features(target) -> np.ndarray:
    if isinstance(target, np.ndarray):
        arr = np.asarray(target, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] == 0:
            raise ProtocolError(
                f"target support must be a nonempty [m x n x d] stack, got shape {arr.shape}"
            )
        return arr
    if not target:
        raise ProtocolError("target support must be nonempty")
    return np.stack([s.features for s in target])


def _encode_rows(model: Model, features: np.ndarray) -> np.ndarray:
    """Frozen-encoder embeddings [m x q]; nothing here ever reaches the tape."""
    with ad.no_grad():
        return model.encode(Tensor(features), mode="eval").data


def _encode_samples(model: Model, samples: Sequence[LabeledSample]) -> np.ndarray:
    return _encode_rows(model, np.stack([s.features for s in samples]))


def _rows(model: Model, x) -> np.ndarray:
    """Encoder rows of samples or an [m x n x d] stack; Encoded rows pass through."""
    return x.rows if isinstance(x, Encoded) else _encode_rows(model, _as_features(x))


def _pool_rows(
    model: Model, pool: list[LabeledSample], batch_size: int = 64
) -> Callable[[Sequence[LabeledSample]], np.ndarray]:
    """Encode a pool once, in forward batches; return a lookup of its samples' rows.

    An eval-mode row does not depend on its batch, so looked-up rows equal
    the rows that encoding the same samples directly would give.
    """
    chunks = [
        _encode_samples(model, pool[i : i + batch_size]) for i in range(0, len(pool), batch_size)
    ]
    rows = np.concatenate(chunks) if chunks else np.empty((0, model.config.embedding_dim))
    index = {id(s): i for i, s in enumerate(pool)}  # ids hold while the caller keeps the pool
    return lambda samples: rows[[index[id(s)] for s in samples]]


def _pair_loss(
    src_enc: np.ndarray, tgt_enc: np.ndarray, phi: ParamGroup, cfg: AdaptConfig
) -> Tensor:
    """Squared MMD between two encoded sets after passing both through the adapter."""
    src = backbone.adapt(Tensor(src_enc), phi)
    tgt = backbone.adapt(Tensor(tgt_enc), phi)
    if isinstance(cfg.kernel, KernelSpec):
        spec = cfg.kernel
    else:  # bandwidth from the current adapted embeddings, no gradient through it
        spec = default_spec(src.data, tgt.data)
    return mmd2(src, tgt, spec)


def _require_finite_grads(group: ParamGroup, where: str) -> None:
    for name, t in group.entries:
        if t.grad is None:
            raise ContractError(f"{where}: parameter {group.name}/{name} has no gradient")
        if not np.all(np.isfinite(t.grad)):
            raise ContractError(f"{where}: non-finite gradient in {group.name}/{name}")


def inner_adapt(
    model: Model, snapshots: SnapshotSet, target_spt, cfg: AdaptConfig
) -> ParamGroup:
    """Sequential adapter steps, one per snapshot in order, toward the target support.

    Starts from the model's current adapter and returns the stepped copy,
    leaving the model's own parameters untouched. Labels never enter: the
    target is a raw feature stack, samples used for features only, or
    their Encoded rows.
    """
    phi = model.phi.copy()
    if cfg.eta_in == 0.0:
        return phi
    tgt_enc = _rows(model, target_spt)
    for snap in snapshots.snapshots:
        src_enc = _rows(model, snap.spt)
        phi.zero_grad()
        loss = _pair_loss(src_enc, tgt_enc, phi, cfg)
        if not loss.is_finite():
            raise ContractError(f"non-finite alignment loss at snapshot {snap.tag}")
        ad.backward(loss)
        _require_finite_grads(phi, f"inner step at snapshot {snap.tag}")
        ad.sgd_step(phi, cfg.eta_in)
    return phi


def alignment_loss(
    model: Model, phi: ParamGroup, snapshots: SnapshotSet, target_spt, cfg: AdaptConfig
) -> Tensor:
    """Mean squared MMD between each snapshot's query half and the target support."""
    tgt_enc = _rows(model, target_spt)
    total = None
    for snap in snapshots.snapshots:
        term = _pair_loss(_rows(model, snap.qry), tgt_enc, phi, cfg)
        total = term if total is None else ad.add(total, term)
    return ad.mul(total, Tensor(1.0 / len(snapshots)))


def mean_alignment(model: Model, snapshots: SnapshotSet, target_spt, cfg: AdaptConfig) -> float:
    """alignment_loss evaluated at the model's current adapter, as a plain float."""
    with ad.no_grad():
        return alignment_loss(model, model.phi, snapshots, target_spt, cfg).item()


def outer_update(
    model: Model, phi_n: ParamGroup, snapshots: SnapshotSet, target_spt, cfg: AdaptConfig
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
    loss = alignment_loss(model, phi_n, snapshots, target_spt, cfg)
    if not loss.is_finite():
        raise ContractError("non-finite aggregated alignment loss")
    ad.backward(loss)
    _require_finite_grads(phi_n, "outer update")
    for (_, dst), (_, src) in zip(model.phi.entries, phi_n.entries):
        dst.data = dst.data - cfg.eta_out * src.grad
    phi_n.zero_grad()


SnapshotSource = SnapshotSet | Callable[[int], SnapshotSet]


def evofa_run(model: Model, snapshots: SnapshotSource, target_spt, cfg: AdaptConfig) -> Model:
    """max_iter rounds of inner adaptation plus outer update on the model's adapter.

    snapshots is either a fixed SnapshotSet reused every round or a callable
    iteration -> SnapshotSet giving a freshly sampled evolving source per
    round. The encoder and head never change.
    """
    for it in range(cfg.max_iter):
        snaps = snapshots(it) if callable(snapshots) else snapshots
        phi_n = inner_adapt(model, snaps, target_spt, cfg)
        outer_update(model, phi_n, snaps, target_spt, cfg)
    return model


# -- episode-level evaluation -------------------------------------------------------


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


def _target_samples(
    episode: Episode,
    test_pool: Sequence[LabeledSample],
    cfg: AdaptConfig,
    rng: np.random.Generator,
) -> list[LabeledSample]:
    """Support samples plus optional extra unlabeled draws from the test pool.

    Extras never include the episode's own samples (classifying the query
    after aligning on it would be transductive). Supply shortfalls are
    tolerated: at most the available sample count is drawn.
    """
    target = list(episode.support)
    extra = cfg.target_calibration_size - len(target)
    if extra > 0:
        used = {_key(s) for s in episode.support + episode.query}
        rest = [s for s in test_pool if _key(s) not in used]
        if rest:
            picks = rng.choice(len(rest), size=min(extra, len(rest)), replace=False)
            target.extend(rest[int(i)] for i in picks)
    return target


def evofa_test(
    model: Model,
    test_pool: Sequence[LabeledSample],
    train_pool: Sequence[LabeledSample],
    split_kind: str,
    eval_cfg: EvalConfig,
    adapt_cfg: AdaptConfig | None = None,
) -> EvalReport:
    """Per-episode test-time adaptation and classification.

    Each episode: sample it, build the target support from the episode's
    support features (labels unused, plus optional extra unlabeled samples),
    adapt the model's adapter, classify the query, then restore the adapter.
    The episode stream depends only on (rng_seed, episode index), so runs
    with adaptation on, off, or disabled consume identical episodes. The
    model is returned to its initial adapter state on exit even when
    persist_adaptation carries state across episodes.

    Encoding happens once, up front: the test pool (and, when adapting, the
    train pool) goes through the frozen encoder in eval mode, in forward
    batches of at most 64 samples. Snapshot halves, the target support and
    the episode's support and query then take their rows from those
    matrices; only the adapter and the head run per episode.
    """
    if split_kind == "intra":
        sampler = sample_snapshots_intra
    elif split_kind == "inter":
        sampler = sample_snapshots_inter
    else:
        raise ConfigError(f"split kind must be intra or inter, got {split_kind!r}")
    pool = list(test_pool)
    test_rows = _pool_rows(model, pool)
    if adapt_cfg is not None:
        train = list(train_pool)
        train_rows = _pool_rows(model, train)

        def encoded_snapshots(ep_idx: int, it: int) -> SnapshotSet:
            snaps = sampler(
                train, adapt_cfg, np.random.default_rng([eval_cfg.rng_seed, 12, ep_idx, it])
            )
            stages = tuple(
                EncodedSnapshot(s.tag, Encoded(train_rows(s.spt)), Encoded(train_rows(s.qry)))
                for s in snaps.snapshots
            )
            return SnapshotSet(kind=snaps.kind, snapshots=stages)

    saved_phi = model.phi.copy()
    accuracies = []
    try:
        for ep_idx in range(eval_cfg.episodes):
            episode = sample_episode(
                pool,
                eval_cfg.way,
                eval_cfg.shot,
                eval_cfg.queries,
                np.random.default_rng([eval_cfg.rng_seed, 10, ep_idx]),
            )
            if adapt_cfg is not None:
                target = _target_samples(
                    episode,
                    pool,
                    adapt_cfg,
                    np.random.default_rng([eval_cfg.rng_seed, 11, ep_idx]),
                )
                source = partial(encoded_snapshots, ep_idx)
                evofa_run(model, source, Encoded(test_rows(target)), adapt_cfg)
            with ad.no_grad():
                emb = model.adapt(Tensor(test_rows(episode.support + episode.query)))
                _, acc = classify_embedded(episode, model, emb)
            accuracies.append(acc)
            if adapt_cfg is not None and not eval_cfg.persist_adaptation:
                model.phi.load_from(saved_phi)
    finally:
        model.phi.load_from(saved_phi)
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
