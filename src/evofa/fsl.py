"""Episodic few-shot learning: sampling, losses, classification, meta-training."""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import BackboneConfig, Model, create_model, head_forward
from .data import LabeledSample
from .errors import ConfigError, ContractError, ProtocolError, SamplingError

_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class Episode:
    """N-way K-shot task: disjoint support and query sets over the same classes."""

    way: int
    shot: int
    queries_per_class: int
    class_ids: tuple[int, ...]
    support: tuple[LabeledSample, ...]
    query: tuple[LabeledSample, ...]

    def __post_init__(self):
        if len(self.class_ids) != self.way or len(set(self.class_ids)) != self.way:
            raise ProtocolError(f"episode needs {self.way} distinct classes, got {self.class_ids}")
        if len(self.support) != self.way * self.shot:
            raise ProtocolError(
                f"support size {len(self.support)} != way*shot {self.way * self.shot}"
            )
        if len(self.query) != self.way * self.queries_per_class:
            raise ProtocolError(
                f"query size {len(self.query)} != way*queries {self.way * self.queries_per_class}"
            )
        for k in self.class_ids:
            ns = sum(1 for s in self.support if s.label == k)
            nq = sum(1 for s in self.query if s.label == k)
            if ns != self.shot or nq != self.queries_per_class:
                raise ProtocolError(
                    f"class {k} has {ns} support / {nq} query samples, "
                    f"expected {self.shot} / {self.queries_per_class}"
                )
        keys = lambda rows: {
            (s.subject_id, s.session_id, s.trial_id, s.time_index) for s in rows
        }
        overlap = keys(self.support) & keys(self.query)
        if overlap:
            raise ProtocolError(f"support and query overlap on {sorted(overlap)[:3]}")

    def support_targets(self) -> np.ndarray:
        index = {c: i for i, c in enumerate(self.class_ids)}
        return np.array([index[s.label] for s in self.support], dtype=np.int64)

    def query_targets(self) -> np.ndarray:
        index = {c: i for i, c in enumerate(self.class_ids)}
        return np.array([index[s.label] for s in self.query], dtype=np.int64)


def sample_episode(
    pool: list[LabeledSample], way: int, shot: int, queries: int, rng: np.random.Generator
) -> Episode:
    """Uniformly sample an N-way K-shot episode without replacement per class."""
    by_class: dict[int, list[LabeledSample]] = {}
    for s in pool:
        by_class.setdefault(s.label, []).append(s)
    need = shot + queries
    eligible = sorted(k for k, rows in by_class.items() if len(rows) >= need)
    if len(eligible) < way:
        short = {k: len(rows) for k, rows in sorted(by_class.items()) if len(rows) < need}
        raise SamplingError(
            f"need {way} classes with at least {need} samples, "
            f"only {len(eligible)} qualify; deficient classes: {short}"
        )
    chosen = sorted(int(c) for c in rng.choice(eligible, size=way, replace=False))
    support: list[LabeledSample] = []
    query: list[LabeledSample] = []
    for k in chosen:
        rows = by_class[k]
        picks = rng.choice(len(rows), size=need, replace=False)
        support.extend(rows[i] for i in picks[:shot])
        query.extend(rows[i] for i in picks[shot:])
    return Episode(
        way=way,
        shot=shot,
        queries_per_class=queries,
        class_ids=tuple(chosen),
        support=tuple(support),
        query=tuple(query),
    )


# -- episode forward and losses -----------------------------------------------------

def _embed_episode(episode: Episode, model: Model, mode: str) -> Tensor:
    feats = np.stack([s.features for s in episode.support + episode.query])
    return model.embed(Tensor(feats), mode=mode)


def episode_scores(episode: Episode, model: Model, mode: str = "eval") -> tuple[Tensor, np.ndarray]:
    """Class scores [Q' x N] for the episode's queries, plus local targets."""
    return _scores_from_embeddings(episode, model, _embed_episode(episode, model, mode))


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
    scores = head_forward(
        support_emb,
        episode.support_targets(),
        query_emb,
        model.w,
        model.config.head_kind,
        episode.way,
        temperature=model.config.matching_temperature,
    )
    return scores, episode.query_targets()


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


def classify_query(episode: Episode, model: Model) -> tuple[np.ndarray, float]:
    """Argmax predictions (original class ids, ties to the lowest id) and accuracy."""
    return classify_embedded(episode, model, _embed_episode(episode, model, "eval"))


def classify_embedded(episode: Episode, model: Model, emb: Tensor) -> tuple[np.ndarray, float]:
    """classify_query given the adapted embeddings [S+Q x q] of support then query."""
    scores, targets = _scores_from_embeddings(episode, model, emb)
    local = np.argmax(scores.data, axis=1)
    predictions = np.array([episode.class_ids[i] for i in local], dtype=np.int64)
    accuracy = float(np.mean(local == targets))
    return predictions, accuracy


def classify_pool(
    model: Model, samples: list[LabeledSample], batch_size: int = 64
) -> tuple[np.ndarray, float]:
    """Whole-pool classification for non-episodic (linear-head) models."""
    predictions = []
    for start in range(0, len(samples), batch_size):
        chunk = samples[start : start + batch_size]
        feats = np.stack([s.features for s in chunk])
        with ad.no_grad():
            emb = model.embed(Tensor(feats), mode="eval")
            scores = model.head(Tensor(np.zeros((0, emb.shape[1]))), np.array([], dtype=np.int64), emb)
        predictions.append(np.argmax(scores.data, axis=1))
    predictions = np.concatenate(predictions) if predictions else np.array([], dtype=np.int64)
    labels = np.array([s.label for s in samples], dtype=np.int64)
    accuracy = float(np.mean(predictions == labels)) if len(samples) else 0.0
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


def validation_accuracy(model: Model, pool: list[LabeledSample], cfg: TrainConfig) -> float:
    """Mean accuracy over fixed-seed validation episodes (stable across epochs)."""
    total = 0.0
    for j in range(cfg.validation_episodes):
        rng = np.random.default_rng([cfg.rng_seed, 4, j])
        episode = sample_episode(pool, cfg.way, cfg.shot, cfg.queries, rng)
        with ad.no_grad():
            _, acc = classify_query(episode, model)
        total += acc
    return total / cfg.validation_episodes


def meta_train(
    train_pool: list[LabeledSample],
    val_pool: list[LabeledSample],
    cfg: TrainConfig,
    on_epoch=None,
) -> Model:
    """Episode-per-step training; returns the best-validation parameter snapshot.

    on_epoch, if given, is called as on_epoch(epoch, validation_accuracy)
    after each epoch's validation pass.
    """
    model = create_model(cfg.model_config(), seed=cfg.rng_seed)
    if cfg.max_epochs == 0:
        return model
    best_acc = -1.0
    best = model.copy()
    for epoch in range(cfg.max_epochs):
        for i in range(cfg.episodes_per_epoch):
            rng = np.random.default_rng([cfg.rng_seed, 3, epoch, i])
            episode = sample_episode(train_pool, cfg.way, cfg.shot, cfg.queries, rng)
            model.zero_grad()
            loss = episode_loss(episode, model, mode="train")
            if not loss.is_finite():
                raise ContractError(f"non-finite loss at epoch {epoch}, episode {i}")
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
    train_pool: list[LabeledSample],
    val_pool: list[LabeledSample],
    cfg: SupervisedConfig,
    on_epoch=None,
) -> Model:
    """Backbone + linear softmax classifier; best-validation snapshot returned.

    The adapter stays at its identity initialization: it exists for test-time
    adaptation and takes no part in the supervised objective. on_epoch, if
    given, is called as on_epoch(epoch, validation_accuracy) per epoch.
    """
    model = create_model(cfg.model_config(), seed=cfg.rng_seed)
    if cfg.max_epochs == 0:
        return model
    labels = np.array([s.label for s in train_pool], dtype=np.int64)
    best_acc = -1.0
    best = model.copy()
    for epoch in range(cfg.max_epochs):
        rng = np.random.default_rng([cfg.rng_seed, 5, epoch])
        order = rng.permutation(len(train_pool))
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            feats = np.stack([train_pool[i].features for i in idx])
            model.zero_grad()
            emb = model.embed(Tensor(feats), mode="train")
            scores = model.head(
                Tensor(np.zeros((0, emb.shape[1]))), np.array([], dtype=np.int64), emb
            )
            logp = ad.log_softmax(scores, axis=-1)
            picked = ad.take(logp, (np.arange(len(idx)), labels[idx]))
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
