"""Episodic few-shot learning: sampling, losses, classification, meta-training.

An episode copies no data: it is the pair ``(support, query)`` of int64 row
indices [way x shot] and [way x queries] into the pool it was drawn from.
Row k of each half holds the episode's k-th class, classes in ascending
order, so the class id of local target k is ``pool.label[support[k, 0]]``.

The supervised baseline is an encoder and a linear head with no adapter, and
both trainers step every parameter group of their model.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import backbone
from .autodiff import ParamGroup, Tensor
from .backbone import BackboneConfig, Model, create_model, encode_rows
from .data import Count, DatasetIndex, Natural, Positive, check_fields
from .errors import ConfigError, ContractError, ProtocolError, SamplingError

_PROB_FLOOR = 1e-12
EPISODIC_HEADS = tuple(kind for kind in backbone.HEAD_KINDS if kind != "linear")

Episode = tuple[np.ndarray, np.ndarray]  # (support [way x shot], query [way x queries])


def _local_targets(half: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(half.shape[0]), half.shape[1])


def _episode_rows(episode: Episode) -> np.ndarray:
    """The episode's pool rows in encoder order: the support, then the query, each class by class."""
    support, query = episode
    return np.concatenate([support.ravel(), query.ravel()])


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
    drawn = np.empty((way, need), dtype=np.int64)
    for i, k in enumerate(chosen):
        rows = np.flatnonzero(pool.label == k)
        drawn[i] = rows[rng.choice(len(rows), size=need, replace=False)]
    return drawn[:, :shot], drawn[:, shot:]


# -- episode forward and losses -----------------------------------------------------

def _scores_from_embeddings(
    episode: Episode, model: Model, emb: Tensor
) -> tuple[Tensor, np.ndarray]:
    """Class scores [Q' x N] for the episode's queries, plus local targets.

    ``emb`` holds the adapted embeddings [S+Q x q] of its support then query.
    """
    support, query = episode
    if model.config.num_classes != len(support):
        raise ProtocolError(
            f"model is {model.config.num_classes}-way, episode is {len(support)}-way"
        )
    support_emb = ad.take(emb, slice(0, support.size))
    query_emb = ad.take(emb, slice(support.size, emb.shape[0]))
    scores = backbone.head_forward(model, support_emb, query_emb)
    return scores, _local_targets(query)


def loss_from_scores(scores: Tensor, targets: np.ndarray, kind: str) -> Tensor:
    """Head-specific loss: proto and linear softmax cross-entropy, matching NLL, relation MSE."""
    num_query = scores.shape[0]
    if kind in ("proto", "linear"):
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


def episode_loss(pool: DatasetIndex, episode: Episode, model: Model) -> Tensor:
    """Head-specific training loss over the query set of an episode drawn from ``pool``.

    The episode's rows go through the encoder in train mode, then the adapter and the head.
    """
    features = pool.features[_episode_rows(episode)]
    emb = backbone.adapt(backbone.encode(Tensor(features), model, mode="train"), model.phi)
    return loss_from_scores(*_scores_from_embeddings(episode, model, emb), model.config.head_kind)


def classify_query(
    episodes: list[Episode], model: Model, pool_rows: np.ndarray, phi: ParamGroup
) -> tuple[np.ndarray, list[float]]:
    """Episode-local argmax predictions [E x Q'] (ties to the lowest class) and E accuracies.

    A prediction k names its episode's k-th class, ``pool.label[support[k, 0]]``.
    Off the tape, ``phi`` runs once on the episodes' rows of ``pool_rows``, their
    pool's frozen-encoder rows, as one stack [E x (S+Q) x q]: a stacked adapter
    adapts episode k with slice k, the model's adapter broadcasts over them all.
    """
    rows = pool_rows[np.stack([_episode_rows(episode) for episode in episodes])]
    predictions, accuracies = [], []
    with ad.no_grad():
        for episode, emb in zip(episodes, backbone.adapt(Tensor(rows), phi).data):
            scores, targets = _scores_from_embeddings(episode, model, Tensor(emb))
            predictions.append(np.argmax(scores.data, axis=1))
            accuracies.append(float(np.mean(predictions[-1] == targets)))
    return np.stack(predictions), accuracies


def classify_pool(model: Model, pool: DatasetIndex) -> tuple[np.ndarray, float]:
    """Whole-pool classification for non-episodic (linear-head) models: encoder rows, then the head."""
    with ad.no_grad():
        scores = backbone.linear_head(Tensor(encode_rows(model, pool.features)), model.w)
    predictions = np.argmax(scores.data, axis=1)
    accuracy = float(np.mean(predictions == pool.label)) if len(pool) else 0.0
    return predictions, accuracy


# -- training loops --------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """Episodic meta-training knobs."""

    head_kind: str = "proto"
    episodes_per_epoch: Count = 50
    max_epochs: Natural = 15
    learning_rate: Positive = 0.05
    way: Count = 3
    shot: Count = 1
    queries: Count = 10
    validation_episodes: Count = 40

    def __post_init__(self):
        check_fields(self)
        if self.head_kind not in EPISODIC_HEADS:
            raise ConfigError(f"head_kind must be one of {EPISODIC_HEADS}, got {self.head_kind!r}")

    def model_config(self, arch: BackboneConfig) -> BackboneConfig:
        return replace(arch, head_kind=self.head_kind, num_classes=self.way)


def validation_accuracy(model: Model, pool: DatasetIndex, cfg: TrainConfig, seed: int) -> float:
    """Mean accuracy over fixed-seed validation episodes (stable across epochs).

    The episodes are drawn first. Only the union of their rows goes through the
    frozen encoder, once per call, into a pool-sized array at their own indices.
    """
    episodes = [
        sample_episode(pool, cfg.way, cfg.shot, cfg.queries, np.random.default_rng([seed, 4, j]))
        for j in range(cfg.validation_episodes)
    ]
    used = np.unique(np.concatenate([_episode_rows(episode) for episode in episodes]))
    rows = np.zeros((len(pool), model.config.embedding_dim))
    rows[used] = encode_rows(model, pool.features[used])
    total = 0.0  # left to right in episode order; sum() compensates from Python 3.12 on
    for accuracy in classify_query(episodes, model, rows, model.phi)[1]:
        total += accuracy
    return total / cfg.validation_episodes


def _train(model: Model, cfg, step_losses, validate, on_epoch=None) -> Model:
    """SGD on every group of ``model`` for ``cfg.max_epochs`` epochs; returns the best-validation snapshot.

    Epoch ``e`` takes one step at ``cfg.learning_rate`` per loss that ``step_losses(e)``
    yields, then passes ``validate()`` to ``on_epoch(e, accuracy)`` if given. A snapshot
    is taken when the accuracy beats the best so far, so ties keep the earlier epoch and
    zero epochs return the initial parameters.
    """
    best_acc, best = -1.0, model.copy()
    for epoch in range(cfg.max_epochs):
        for loss in step_losses(epoch):
            if not loss.is_finite():
                raise ContractError(f"non-finite {model.config.head_kind} loss at epoch {epoch}")
            ad.backward(loss)
            del loss  # no step's tape may live on while the next step records its own
            for group in model.groups():
                ad.sgd_step(group, cfg.learning_rate)
        acc = validate()
        if on_epoch is not None:
            on_epoch(epoch, acc)
        if acc > best_acc:
            best_acc, best = acc, model.copy()
    return best


def meta_train(
    train_pool: DatasetIndex, val_pool: DatasetIndex, cfg: TrainConfig, arch: BackboneConfig, seed: int, on_epoch=None
) -> Model:
    """Episode-per-step training of an ``arch`` model from ``seed``; returns the best-validation snapshot.

    on_epoch, if given, is called as on_epoch(epoch, validation_accuracy)
    after each epoch's validation pass.
    """
    model = create_model(cfg.model_config(arch), seed=seed)

    def episode_losses(epoch: int):
        for i in range(cfg.episodes_per_epoch):
            rng = np.random.default_rng([seed, 3, epoch, i])
            episode = sample_episode(train_pool, cfg.way, cfg.shot, cfg.queries, rng)
            yield episode_loss(train_pool, episode, model)

    validate = lambda: validation_accuracy(model, val_pool, cfg, seed)
    return _train(model, cfg, episode_losses, validate, on_epoch)


@dataclass(frozen=True)
class SupervisedConfig:
    """Minibatch cross-entropy baseline knobs."""

    num_classes: Count = 3
    batch_size: Count = 32
    learning_rate: Positive = 0.003
    max_epochs: Natural = 30

    def __post_init__(self):
        check_fields(self)
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be at least 2, got {self.num_classes}")

    def model_config(self, arch: BackboneConfig) -> BackboneConfig:
        return replace(arch, head_kind="linear", num_classes=self.num_classes)


def train_supervised_baseline(
    train_pool: DatasetIndex,
    val_pool: DatasetIndex,
    cfg: SupervisedConfig,
    arch: BackboneConfig,
    seed: int,
) -> Model:
    """An ``arch`` encoder + linear softmax classifier from ``seed``; best-validation snapshot returned.

    The model has no adapter: it is trained once and then frozen, and only the
    episodic models are adapted at test time.
    """
    model = create_model(cfg.model_config(arch), seed=seed)

    def batch_losses(epoch: int):
        order = np.random.default_rng([seed, 5, epoch]).permutation(len(train_pool))
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            rows = backbone.encode(Tensor(train_pool.features[idx]), model, mode="train")
            yield loss_from_scores(backbone.linear_head(rows, model.w), train_pool.label[idx], "linear")

    validate = lambda: classify_pool(model, val_pool)[1]
    return _train(model, cfg, batch_losses, validate)
