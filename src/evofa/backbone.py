"""Representation pipeline: grouped Gram transform, ConvNet encoder, adapter, heads.

Stage layout: g2g -> 4 x (conv 3x3 s1 p1 -> batchnorm -> relu) -> global average
pool -> flatten. A conv has no bias: batch norm's mean subtraction would cancel
it, and ``beta`` takes its role. In train mode a conv block records two tape
nodes, ``conv2d`` and ``bn_relu``, so the tape holds two activations per block. In
eval mode a block folds its batch norm into the conv (``_conv_block``).
The adapter is the only stage touched by test-time adaptation; it starts as an
exact identity so adaptation-off equals the raw pipeline. Only the episodic heads
have one: a linear-head model, the supervised baseline, is an encoder and its head,
and its ``phi`` group is empty.

Every stage takes a batch: ``encode`` maps features [B x n x d] to rows
[B x q], and ``adapt`` maps rows [m x q], or a stack [G x m x q], to the same
shape. A single sample is a batch of one.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, ParamGroup, Tensor
from .data import Count, Positive, _is_int, check_fields
from .errors import ConfigError, ProtocolError, ShapeError

HEAD_KINDS = ("matching", "relation", "proto", "linear")


@dataclass(frozen=True)
class BackboneConfig:
    """Architecture knobs for the full pipeline."""

    n_electrodes: Count = 8
    d_bands: Count = 4
    g2g_channels: Count = 1
    conv_channels: tuple[int, int, int, int] = (16, 32, 32, 64)
    embedding_dim: Count = 64
    adapter_hidden: Count = 128
    head_kind: str = "proto"
    num_classes: Count = 3
    matching_temperature: Positive = 10.0
    relation_hidden: Count = 32

    def __post_init__(self):
        check_fields(self)
        if len(self.conv_channels) != 4 or not all(_is_int(w, 1) for w in self.conv_channels):
            raise ConfigError(f"conv_channels must be 4 positive widths, got {self.conv_channels}")
        if self.d_bands % self.g2g_channels != 0:
            raise ConfigError(
                f"d_bands {self.d_bands} not divisible by g2g_channels {self.g2g_channels}"
            )
        if self.head_kind not in HEAD_KINDS:
            raise ConfigError(f"head_kind must be one of {HEAD_KINDS}, got {self.head_kind!r}")
        if self.embedding_dim != self.conv_channels[-1]:
            raise ConfigError(
                "embedding_dim must equal the last conv width: pooling and flatten add no projection"
            )
        if self.adapter_hidden % 2 != 0 or self.adapter_hidden < 2 * self.embedding_dim:
            raise ConfigError(
                "adapter_hidden must be even and at least 2 * embedding_dim for the identity init"
            )

    @property
    def group_width(self) -> int:
        return self.d_bands // self.g2g_channels


@dataclass
class Model:
    """Parameter groups plus batch-norm running state for one pipeline."""

    config: BackboneConfig
    theta: ParamGroup
    phi: ParamGroup
    w: ParamGroup
    bn_states: list[BatchNormState] = field(default_factory=list)

    def groups(self) -> list[ParamGroup]:
        return [self.theta, self.phi, self.w]

    def copy(self) -> "Model":
        return Model(
            config=self.config,
            theta=self.theta.copy(),
            phi=self.phi.copy(),
            w=self.w.copy(),
            bn_states=[s.copy() for s in self.bn_states],
        )


def model_floats(config: BackboneConfig) -> int:
    """Floats a model of this architecture holds, computed without building it.

    Every parameter of ``create_model(config)`` plus each batch-norm stage's
    running mean and variance.
    """
    q, h = config.embedding_dim, config.adapter_hidden
    total = config.g2g_channels * config.group_width**2
    c_in = config.g2g_channels
    for c_out in config.conv_channels:
        total += c_out * c_in * 9 + 4 * c_out  # kernel, gamma, beta, two running stats
        c_in = c_out
    if config.head_kind == "linear":
        return total + (q + 1) * config.num_classes  # no adapter
    total += 2 * q * h + h + q  # adapter
    if config.head_kind == "relation":
        total += 2 * q * config.relation_hidden + 2 * config.relation_hidden + 1
    return total


def create_model(config: BackboneConfig, seed: int = 0) -> Model:
    """Deterministic initialization from a seed."""
    g = config.group_width
    rng = np.random.default_rng([seed, 101])
    theta = ParamGroup("theta")
    for k in range(config.g2g_channels):
        theta.add(f"g2g_p{k}", Tensor(np.eye(g), requires_grad=True))
    c_in = config.g2g_channels
    for i, c_out in enumerate(config.conv_channels):
        fan_in = c_in * 9
        w = rng.normal(size=(c_out, c_in, 3, 3)) * np.sqrt(2.0 / fan_in)
        theta.add(f"conv{i}_w", Tensor(w, requires_grad=True))
        theta.add(f"bn{i}_gamma", Tensor(np.ones(c_out), requires_grad=True))
        theta.add(f"bn{i}_beta", Tensor(np.zeros(c_out), requires_grad=True))
        c_in = c_out
    bn_states = [BatchNormState.create(c) for c in config.conv_channels]

    linear = config.head_kind == "linear"
    phi = ParamGroup("phi") if linear else _identity_adapter(config, np.random.default_rng([seed, 202]))

    w_group = ParamGroup("w")
    q = config.embedding_dim
    rng_w = np.random.default_rng([seed, 303])
    if config.head_kind == "relation":
        r = config.relation_hidden
        w_group.add("rel_w1", Tensor(rng_w.normal(size=(2 * q, r)) * np.sqrt(2.0 / (2 * q)), requires_grad=True))
        w_group.add("rel_b1", Tensor(np.zeros(r), requires_grad=True))
        w_group.add("rel_w2", Tensor(rng_w.normal(size=(r, 1)) * np.sqrt(2.0 / r), requires_grad=True))
        w_group.add("rel_b2", Tensor(np.zeros(1), requires_grad=True))
    elif linear:
        w_group.add("lin_w", Tensor(rng_w.normal(size=(q, config.num_classes)) * np.sqrt(1.0 / q), requires_grad=True))
        w_group.add("lin_b", Tensor(np.zeros(config.num_classes), requires_grad=True))
    return Model(config=config, theta=theta, phi=phi, w=w_group, bn_states=bn_states)


def _identity_adapter(config: BackboneConfig, rng: np.random.Generator) -> ParamGroup:
    """Two FC layers that compose to the exact identity at initialization.

    With A having orthonormal rows, relu(xA) - relu(-xA) = xA, and the second
    layer multiplies by A^T, so adapt(x) = x A A^T = x.
    """
    q, h = config.embedding_dim, config.adapter_hidden
    m = rng.normal(size=(h // 2, q))
    orth, _ = np.linalg.qr(m)  # h/2 >= q, so columns are orthonormal
    a = orth.T  # [q x h/2], orthonormal rows
    phi = ParamGroup("phi")
    phi.add("fc1_w", Tensor(np.concatenate([a, -a], axis=1), requires_grad=True))
    phi.add("fc1_b", Tensor(np.zeros(h), requires_grad=True))
    phi.add("fc2_w", Tensor(np.concatenate([orth, -orth], axis=0), requires_grad=True))
    phi.add("fc2_b", Tensor(np.zeros(q), requires_grad=True))
    return phi


# -- pipeline stages ------------------------------------------------------------

def g2g_transform(x: Tensor, projections: list[Tensor]) -> Tensor:
    """Per-group projected Gram matrices: [B x n x d] -> [B x c x n x n]."""
    if x.ndim != 3:
        raise ShapeError(f"g2g expects [B x n x d], got {x.shape}")
    _, n, d = x.shape
    c = len(projections)
    if d % c != 0:
        raise ConfigError(f"feature dim {d} not divisible by {c} groups")
    g = d // c
    channels = []
    for k, proj in enumerate(projections):
        if proj.shape != (g, g):
            raise ShapeError(f"projection {k} must be [{g} x {g}], got {proj.shape}")
        group = ad.take(x, (slice(None), slice(None), slice(k * g, (k + 1) * g)))
        h = ad.matmul(group, proj)
        gram = ad.mul(ad.matmul(h, ad.transpose(h)), Tensor(1.0 / g))
        channels.append(ad.reshape(gram, (gram.shape[0], 1, n, n)))
    return channels[0] if c == 1 else ad.concat(channels, axis=1)


def _conv_block(x: Tensor, theta: ParamGroup, i: int, state: BatchNormState, mode: str) -> Tensor:
    """Conv block ``i``: conv 3x3 s1 p1 -> batch norm -> relu, [B x c x H x W] in and out.

    Train mode records ``conv2d`` then ``bn_relu``, which normalizes by batch
    statistics and updates ``state``'s running ones. Eval mode's batch norm is a fixed
    per-channel affine map, so the block folds the running statistics, ``gamma`` and
    ``beta`` into the kernel and one shift (Jacob et al., CVPR 2018, §3.2), built from
    tape ops so that it stays differentiable: relu(conv2d(x, k * scale) + shift).
    """
    k, gamma, beta = theta.get(f"conv{i}_w"), theta.get(f"bn{i}_gamma"), theta.get(f"bn{i}_beta")
    if mode == "train":
        return ad.bn_relu(ad.conv2d(x, k, stride=1, pad=1), gamma, beta, state)
    scale = ad.mul(gamma, Tensor((state.running_var + ad.BN_EPS) ** -0.5))
    shift = ad.sub(beta, ad.mul(Tensor(state.running_mean), scale))
    conv = ad.conv2d(x, ad.mul(k, ad.reshape(scale, (-1, 1, 1, 1))), stride=1, pad=1)
    return ad.relu(ad.add(conv, ad.reshape(shift, (1, -1, 1, 1))))


def encode(features: Tensor, model: Model, mode: str = "eval") -> Tensor:
    """g2g -> conv stack -> global average pool; [B x n x d] -> [B x q]."""
    if mode not in ("train", "eval"):
        raise ConfigError(f"encode mode must be 'train' or 'eval', got {mode!r}")
    cfg = model.config
    if features.shape[-2:] != (cfg.n_electrodes, cfg.d_bands):
        raise ShapeError(
            f"features {features.shape} do not match schema "
            f"({cfg.n_electrodes}, {cfg.d_bands})"
        )
    projections = [model.theta.get(f"g2g_p{k}") for k in range(cfg.g2g_channels)]
    x = g2g_transform(features, projections)
    for i, state in enumerate(model.bn_states):
        x = _conv_block(x, model.theta, i, state, mode)
    return x.mean(axis=(2, 3))


ENCODE_BATCH = 64  # rows per frozen-encoder forward pass


def encode_rows(model: Model, features: np.ndarray) -> np.ndarray:
    """Frozen-encoder embeddings [m x q] of a [m x n x d] stack: eval mode, off the tape.

    An eval-mode row does not depend on its batch, so it equals its sample encoded alone.
    """
    with ad.no_grad():
        chunks = [
            encode(Tensor(features[i : i + ENCODE_BATCH]), model, mode="eval").data
            for i in range(0, len(features), ENCODE_BATCH)
        ]
    return np.concatenate(chunks) if chunks else np.empty((0, model.config.embedding_dim))


def adapt(embedding: Tensor, phi: ParamGroup) -> Tensor:
    """FC -> relu -> FC over [m x q] embeddings, or a [G x m x q] stack; shape preserved."""
    hidden = ad.relu(ad.add(ad.matmul(embedding, phi.get("fc1_w")), phi.get("fc1_b")))
    return ad.add(ad.matmul(hidden, phi.get("fc2_w")), phi.get("fc2_b"))


# -- classification heads ---------------------------------------------------------

def head_forward(model: Model, support: Tensor, query: Tensor) -> Tensor:
    """Per-query class scores [Q x N] of the model's episodic head.

    ``support`` [S x q] holds the episode's support rows in N = ``num_classes``
    class blocks: its first S/N rows are class 0, the next S/N class 1, and so on.
    """
    cfg = model.config
    if cfg.head_kind == "linear":
        raise ProtocolError("linear head is not episodic; use classify_pool")
    num_classes = cfg.num_classes
    onehot = np.repeat(np.eye(num_classes), support.shape[0] // num_classes, axis=1)  # [N x S]

    if cfg.head_kind == "proto":
        weights = onehot / onehot.sum(axis=1, keepdims=True)
        prototypes = ad.matmul(Tensor(weights), support)  # [N x q]
        return ad.neg(ad.sq_euclidean_pairwise(query, prototypes))

    if cfg.head_kind == "matching":
        qn = _row_normalize(query)
        sn = _row_normalize(support)
        sims = ad.matmul(qn, ad.transpose(sn))  # [Q x S]
        attention = ad.softmax(ad.mul(sims, Tensor(cfg.matching_temperature)), axis=-1)
        return ad.matmul(attention, Tensor(onehot.T))  # [Q x N]

    # relation: learned scorer over [query (+) class-summed support]
    sums = ad.matmul(Tensor(onehot), support)  # [N x q]
    num_query = query.shape[0]
    q_rep = ad.take(query, np.repeat(np.arange(num_query), num_classes))
    s_rep = ad.take(sums, np.tile(np.arange(num_classes), num_query))
    pairs = ad.concat([q_rep, s_rep], axis=1)  # [Q*N x 2q]
    hidden = ad.relu(ad.add(ad.matmul(pairs, model.w.get("rel_w1")), model.w.get("rel_b1")))
    scores = ad.sigmoid(ad.add(ad.matmul(hidden, model.w.get("rel_w2")), model.w.get("rel_b2")))
    return ad.reshape(scores, (num_query, num_classes))


def linear_head(query: Tensor, w: ParamGroup) -> Tensor:
    """Non-episodic class scores [Q x C]: an affine map that needs no support set."""
    return ad.add(ad.matmul(query, w.get("lin_w")), w.get("lin_b"))


def _row_normalize(x: Tensor) -> Tensor:
    norm = ad.power(ad.mul(x, x).sum(axis=1, keepdims=True), 0.5)
    return ad.div(x, ad.clamp_min(norm, 1e-12))
