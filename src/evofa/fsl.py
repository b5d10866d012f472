"""Episodic few-shot learning: sampling, losses, classification, meta-training.

An episode copies no data: it holds row indices into the pool it was drawn from.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import backbone
from .autodiff import ParamGroup, Tensor
from .backbone import ENCODE_BATCH, BackboneConfig, Model, create_model, encode_rows
from .data import DatasetIndex
from .errors import ConfigError, ContractError, ProtocolError, SamplingError

_PROB_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class Episode:
    """N-way K-shot task: disjoint support and query sets over the same classes.

    ``support`` and ``query`` are row indices into ``pool``, the DatasetIndex the
    episode was drawn from. Each half lists its rows class by class, in
    ``class_ids`` order, so a half's local targets are
    ``np.repeat(np.arange(way), len(half) // way)``.
    """

    pool: DatasetIndex
    class_ids: tuple[int, ...]
    support: np.ndarray  # [way * shot] int
    query: np.ndarray  # [way * queries] int

    def __post_init__(self):
        if not self.class_ids or len(set(self.class_ids)) != self.way:
            raise ProtocolError(f"episode needs distinct classes, got {self.class_ids}")
        for name, half in (("support", self.support), ("query", self.query)):
            if len(half) % self.way:
                raise ProtocolError(f"{name} of {len(half)} rows is not {self.way} whole classes")
            if not np.array_equal(self.pool.label[half], np.repeat(self.class_ids, len(half) // self.way)):
                raise ProtocolError(
                    f"{name} rows are not {len(half) // self.way} per class "
                    f"in class order {self.class_ids}"
                )
        overlap = np.intersect1d(self.support, self.query)
        if overlap.size:
            raise ProtocolError(f"support and query overlap on rows {overlap[:3].tolist()}")

    @property
    def way(self) -> int:
        return len(self.class_ids)


def _local_targets(half: np.ndarray, way: int) -> np.ndarray:
    return np.repeat(np.arange(way), len(half) // way)


def sample_episode(
    pool: DatasetIndex, way: int, shot: int, queries: int, rng: np.random.Generator
) -> Episode:
    """Uniformly sample an N-way K-shot episode without replacement per class."""
    classes, counts = np.unique(pool.label, return_counts=True)
    need = shot + queries
    eligible = [k for k, n in zip(classes.tolist(), counts.tolist()) if n >= need]
    if len(eligible) < way:
        short = {k: n for k, n in zip(classes.tolist(), counts.tolist()) if n < need}
        raise SamplingError(
            f"need {way} classes with at least {need} samples, "
            f"only {len(eligible)} qualify; deficient classes: {short}"
        )
    chosen = sorted(int(c) for c in rng.choice(eligible, size=way, replace=False))
    support, query = [], []
    for k in chosen:
        rows = np.flatnonzero(pool.label == k)
        picks = rng.choice(len(rows), size=need, replace=False)
        support.append(rows[picks[:shot]])
        query.append(rows[picks[shot:]])
    return Episode(pool, tuple(chosen), np.concatenate(support), np.concatenate(query))


# -- episode forward and losses -----------------------------------------------------

def episode_scores(episode: Episode, model: Model, mode: str = "eval") -> tuple[Tensor, np.ndarray]:
    """Class scores [Q' x N] for the episode's queries, plus local targets."""
    features = episode.pool.features[np.concatenate([episode.support, episode.query])]
    emb = backbone.adapt(backbone.encode(Tensor(features), model, mode=mode), model.phi)
    return _scores_from_embeddings(episode, model, emb)


def _scores_from_embeddings(
    episode: Episode, model: Model, emb: Tensor
) -> tuple[Tensor, np.ndarray]:
    """episode_scores given the adapted embeddings [S+Q x q] of support then query."""
    if model.config.head_kind == "linear":
        raise ProtocolError("linear head is not episodic; use classify_pool")
    if model.config.num_classes != episode.way:
        raise ProtocolError(
            f"model is {model.config.num_classes}-way, episode is {episode.way}-way"
        )
    split = len(episode.support)
    support_emb = ad.take(emb, slice(0, split))
    query_emb = ad.take(emb, slice(split, emb.shape[0]))
    scores = model.head(support_emb, _local_targets(episode.support, episode.way), query_emb)
    return scores, _local_targets(episode.query, episode.way)


def loss_from_scores(scores: Tensor, targets: np.ndarray, kind: str) -> Tensor:
    """Head-specific loss: matching/proto cross-entropies, relation MSE."""
    num_query = scores.shape[0]
    if kind == "proto":
        logp = ad.log_softmax(scores, axis=-1)
        picked = ad.take(logp, (np.arange(num_query), targets))
        return ad.neg(picked.mean())
    if kind == "matching":
        probs = ad.clamp_min(ad.take(scores, (np.arange(num_query), targets)), _PROB_FLOOR)
        return ad.neg(ad.log(probs).mean())
    if kind == "relation":
        onehot = np.zeros(scores.shape)
        onehot[np.arange(num_query), targets] = 1.0
        err = ad.sub(scores, Tensor(onehot))
        return ad.mul(err, err).sum(axis=1).mean()
    raise ConfigError(f"no episodic loss for head kind {kind!r}")


def episode_loss(episode: Episode, model: Model, mode: str = "train") -> Tensor:
    """Head-specific training loss over the episode's query set."""
    scores, targets = episode_scores(episode, model, mode=mode)
    loss = loss_from_scores(scores, targets, model.config.head_kind)
    if not loss.is_finite():
        raise ContractError(f"{model.config.head_kind} episode loss is non-finite")
    return loss


def classify_query(
    episode: Episode, model: Model, pool_rows: np.ndarray, phi: ParamGroup
) -> tuple[np.ndarray, float]:
    """Argmax predictions (original class ids, ties to the lowest id) and accuracy.

    The adapter ``phi`` and the head run, off the tape, on the episode's rows of
    ``pool_rows``, the frozen-encoder rows of the pool the episode was drawn from.
    """
    rows = pool_rows[np.concatenate([episode.support, episode.query])]
    with ad.no_grad():
        scores, targets = _scores_from_embeddings(episode, model, backbone.adapt(Tensor(rows), phi))
    local = np.argmax(scores.data, axis=1)
    predictions = np.array(episode.class_ids, dtype=np.int64)[local]
    accuracy = float(np.mean(local == targets))
    return predictions, accuracy


def classify_pool(model: Model, pool: DatasetIndex) -> tuple[np.ndarray, float]:
    """Whole-pool classification for non-episodic (linear-head) models."""
    rows = encode_rows(model, pool.features)
    predictions = []
    with ad.no_grad():  # the adapter and head run in the encoder's batches
        for start in range(0, len(rows), ENCODE_BATCH):
            emb = backbone.adapt(Tensor(rows[start : start + ENCODE_BATCH]), model.phi)
            scores = model.head(Tensor(np.zeros((0, emb.shape[1]))), np.array([], dtype=np.int64), emb)
            predictions.append(np.argmax(scores.data, axis=1))
    predictions = np.concatenate(predictions) if predictions else np.array([], dtype=np.int64)
    accuracy = float(np.mean(predictions == pool.label)) if len(pool) else 0.0
    return predictions, accuracy


# -- training loops --------------------------------------------------------------------

def _check_learning_rate(value: float) -> None:
    if not math.isfinite(value) or value <= 0:
        raise ConfigError(f"learning_rate must be finite and positive, got {value}")


@dataclass(frozen=True)
class TrainConfig:
    """Episodic meta-training knobs."""

    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    head_kind: str = "proto"
    episodes_per_epoch: int = 50
    max_epochs: int = 15
    learning_rate: float = 0.05
    way: int = 3
    shot: int = 1
    queries: int = 10
    validation_episodes: int = 40
    rng_seed: int = 0

    def __post_init__(self):
        counts = {
            "episodes_per_epoch": self.episodes_per_epoch,
            "way": self.way,
            "shot": self.shot,
            "queries": self.queries,
            "validation_episodes": self.validation_episodes,
        }
        for name, value in counts.items():
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.max_epochs < 0:
            raise ConfigError(f"max_epochs must be nonnegative, got {self.max_epochs}")
        _check_learning_rate(self.learning_rate)

    def model_config(self) -> BackboneConfig:
        return replace(self.backbone, head_kind=self.head_kind, num_classes=self.way)


def validation_accuracy(model: Model, pool: DatasetIndex, cfg: TrainConfig) -> float:
    """Mean accuracy over fixed-seed validation episodes (stable across epochs).

    The pool goes through the frozen encoder once per call; its episodes index the rows.
    """
    rows = encode_rows(model, pool.features)
    total = 0.0
    for j in range(cfg.validation_episodes):
        rng = np.random.default_rng([cfg.rng_seed, 4, j])
        episode = sample_episode(pool, cfg.way, cfg.shot, cfg.queries, rng)
        total += classify_query(episode, model, rows, model.phi)[1]
    return total / cfg.validation_episodes


def meta_train(
    train_pool: DatasetIndex,
    val_pool: DatasetIndex,
    cfg: TrainConfig,
    on_epoch=None,
) -> Model:
    """Episode-per-step training; returns the best-validation parameter snapshot.

    on_epoch, if given, is called as on_epoch(epoch, validation_accuracy)
    after each epoch's validation pass.
    """
    model = create_model(cfg.model_config(), seed=cfg.rng_seed)
    best_acc = -1.0
    best = model.copy()
    for epoch in range(cfg.max_epochs):
        for i in range(cfg.episodes_per_epoch):
            rng = np.random.default_rng([cfg.rng_seed, 3, epoch, i])
            episode = sample_episode(train_pool, cfg.way, cfg.shot, cfg.queries, rng)
            model.zero_grad()
            loss = episode_loss(episode, model, mode="train")
            ad.backward(loss)
            for group in model.groups():
                if group.entries:
                    ad.sgd_step(group, cfg.learning_rate)
        acc = validation_accuracy(model, val_pool, cfg)
        if on_epoch is not None:
            on_epoch(epoch, acc)
        if acc > best_acc:
            best_acc = acc
            best = model.copy()
    return best


@dataclass(frozen=True)
class SupervisedConfig:
    """Minibatch cross-entropy baseline knobs."""

    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    num_classes: int = 3
    batch_size: int = 32
    learning_rate: float = 0.003
    max_epochs: int = 30
    rng_seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        _check_learning_rate(self.learning_rate)
        if self.max_epochs < 0:
            raise ConfigError(f"max_epochs must be nonnegative, got {self.max_epochs}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be at least 2, got {self.num_classes}")

    def model_config(self) -> BackboneConfig:
        return replace(self.backbone, head_kind="linear", num_classes=self.num_classes)


def train_supervised_baseline(
    train_pool: DatasetIndex,
    val_pool: DatasetIndex,
    cfg: SupervisedConfig,
    on_epoch=None,
) -> Model:
    """Backbone + linear softmax classifier; best-validation snapshot returned.

    The adapter stays at its identity initialization: it exists for test-time
    adaptation and takes no part in the supervised objective. on_epoch, if
    given, is called as on_epoch(epoch, validation_accuracy) per epoch.
    """
    model = create_model(cfg.model_config(), seed=cfg.rng_seed)
    best_acc = -1.0
    best = model.copy()
    for epoch in range(cfg.max_epochs):
        rng = np.random.default_rng([cfg.rng_seed, 5, epoch])
        order = rng.permutation(len(train_pool))
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            model.zero_grad()
            enc = backbone.encode(Tensor(train_pool.features[idx]), model, mode="train")
            emb = backbone.adapt(enc, model.phi)
            scores = model.head(
                Tensor(np.zeros((0, emb.shape[1]))), np.array([], dtype=np.int64), emb
            )
            logp = ad.log_softmax(scores, axis=-1)
            picked = ad.take(logp, (np.arange(len(idx)), train_pool.label[idx]))
            loss = ad.neg(picked.mean())
            if not loss.is_finite():
                raise ContractError(f"non-finite supervised loss at epoch {epoch}")
            ad.backward(loss)
            ad.sgd_step(model.theta, cfg.learning_rate)
            ad.sgd_step(model.w, cfg.learning_rate)
        _, acc = classify_pool(model, val_pool)
        if on_epoch is not None:
            on_epoch(epoch, acc)
        if acc > best_acc:
            best_acc = acc
            best = model.copy()
    return best
