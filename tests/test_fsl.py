"""Tests for episodic sampling, the three few-shot losses, and the training loops."""
import math
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evofa import autodiff as ad
from evofa import backbone, fsl
from evofa.autodiff import ParamGroup, Tensor
from evofa.backbone import BackboneConfig, create_model, encode_rows
from evofa.data import DatasetIndex, DriftConfig, generate_synthetic_drift, make_intra_split
from evofa.errors import ConfigError, ContractError, ProtocolError, SamplingError
from evofa.fsl import (
    SupervisedConfig,
    TrainConfig,
    classify_pool,
    classify_query,
    episode_loss,
    loss_from_scores,
    meta_train,
    sample_episode,
    train_supervised_baseline,
    validation_accuracy,
)
from helpers import eval_scores, finite_diff_check, scalar, select_rows, state_bytes

# -- helpers ---------------------------------------------------------------------


def toy_pool(num_classes=3, per_class=12, shape=(2, 2), seed=0):
    """One subject and session, samples grouped by class, one trial per sample."""
    rng = np.random.default_rng(seed)
    n = num_classes * per_class
    t = np.arange(n)
    return DatasetIndex(
        features=rng.normal(size=(n, *shape)),
        subject=np.ones(n),
        session=np.ones(n),
        trial=t,
        time=t,
        label=np.repeat(np.arange(num_classes), per_class),
        num_classes=num_classes,
        schema=shape,
    )


def tiny_backbone(**overrides):
    base = dict(
        n_electrodes=2,
        d_bands=2,
        g2g_channels=1,
        conv_channels=(2, 2, 2, 2),
        embedding_dim=2,
        adapter_hidden=4,
        num_classes=3,
    )
    base.update(overrides)
    return BackboneConfig(**base)


def in_order_sum(values):
    """Left-to-right float sum (sum() compensates from Python 3.12 on)."""
    total = 0.0
    for value in values:
        total += value
    return total


def manual_episode(class_ids=(0, 1, 2), shot=1, queries=2, shape=(2, 2), seed=0):
    """A toy pool holding, per class in ``class_ids`` order, shot then query samples, and that episode."""
    per_class = shot + queries
    pool = toy_pool(len(class_ids), per_class, shape, seed)
    pool = replace(pool, label=np.repeat(class_ids, per_class), num_classes=max(class_ids) + 1)
    rows = np.arange(len(pool)).reshape(len(class_ids), per_class)
    return pool, (rows[:, :shot], rows[:, shot:])


def test_episode_local_targets_follow_class_id_order():
    pool, ep = manual_episode(class_ids=(4, 7, 9))
    model = create_model(tiny_backbone(), seed=0)
    _, targets = eval_scores(pool, ep, model)
    assert targets.tolist() == [0, 0, 1, 1, 2, 2]
    support, query = ep
    assert pool.label[support[targets, 0]].tolist() == pool.label[query.ravel()].tolist()


# -- sample_episode ------------------------------------------------------------------


def test_sample_sizes_3way_1shot_10query():
    pool = toy_pool(num_classes=4, per_class=12)
    support, query = sample_episode(pool, 3, 1, 10, np.random.default_rng(0))
    assert support.shape == (3, 1)
    assert query.shape == (3, 10)


def test_sample_sizes_5way_5shot_5query():
    pool = toy_pool(num_classes=6, per_class=11)
    support, query = sample_episode(pool, 5, 5, 5, np.random.default_rng(0))
    assert support.shape == (5, 5)
    assert query.shape == (5, 5)


def test_sample_deficient_class_raises_naming_it():
    pool = toy_pool(num_classes=3, per_class=11)
    # class 2 ends up one sample short of shot + queries
    short = pool._subset(np.arange(len(pool)) != len(pool) - 1)
    with pytest.raises(SamplingError, match="2"):
        sample_episode(short, 3, 1, 10, np.random.default_rng(0))


@settings(deadline=None, max_examples=150)
@given(
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(1, 4),
    st.lists(st.integers(-3, 4), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_sampled_episode_is_disjoint_class_ordered_index_arrays(way, shot, queries, surplus, seed):
    """Per class, ``shot + queries + surplus`` rows (none for a deficit), gapped class
    ids, classes interleaved in the pool."""
    need = shot + queries
    assume(sum(n >= 0 for n in surplus) >= way)
    counts = [max(need + n, 0) for n in surplus]
    labels = np.random.default_rng(seed).permutation(np.repeat(2 * np.arange(len(counts)) + 1, counts))
    pool = replace(toy_pool(1, len(labels)), label=labels, num_classes=2 * len(counts))
    support, query = sample_episode(pool, way, shot, queries, np.random.default_rng(seed))
    assert (support.shape, query.shape) == ((way, shot), (way, queries))
    assert support.dtype == query.dtype == np.int64
    labels = pool.label[np.concatenate([support, query], axis=1)]
    assert np.all(labels == labels[:, :1])
    assert np.all(np.diff(labels[:, 0]) > 0)
    rows = np.concatenate([support.ravel(), query.ravel()])
    assert len(np.unique(rows)) == rows.size
    again = sample_episode(pool, way, shot, queries, np.random.default_rng(seed))
    assert np.array_equal(again[0], support) and np.array_equal(again[1], query)


def test_sample_composition_over_many_episodes():
    pool = toy_pool(num_classes=5, per_class=13)
    seen_classes = set()
    for j in range(10_000):
        rng = np.random.default_rng([11, j])
        support, query = sample_episode(pool, 3, 1, 10, rng)
        class_ids = pool.label[support[:, 0]].tolist()
        assert class_ids == sorted(class_ids)
        assert np.all(pool.label[query] == pool.label[support[:, :1]])
        rows = np.concatenate([support.ravel(), query.ravel()])
        assert len(set(rows.tolist())) == len(rows)
        seen_classes.update(class_ids)
    assert seen_classes == {0, 1, 2, 3, 4}


def test_sample_deterministic_given_rng():
    pool = toy_pool(num_classes=5, per_class=12)
    key = lambda ep: (ep[0].tolist(), ep[1].tolist())
    a = sample_episode(pool, 3, 1, 5, np.random.default_rng(42))
    b = sample_episode(pool, 3, 1, 5, np.random.default_rng(42))
    c = sample_episode(pool, 3, 1, 5, np.random.default_rng(43))
    assert key(a) == key(b)
    assert key(a) != key(c)


def test_sample_draws_pinned_rows_class_by_class():
    """Experiment results depend on the sampler's rng stream: classes first, then
    ``shot + queries`` rows per chosen class in ascending class order. Class 2 has
    too few rows to qualify."""
    labels = np.random.default_rng(3).permutation(np.repeat([1, 2, 5, 8], [6, 4, 7, 7]))
    pool = replace(toy_pool(1, len(labels)), label=labels, num_classes=9)
    support, query = sample_episode(pool, 3, 2, 3, np.random.default_rng(17))
    assert support.tolist() == [[4, 14], [13, 0], [7, 5]]
    assert query.tolist() == [[19, 21, 6], [2, 17, 1], [22, 3, 16]]
    assert pool.label[support[:, 0]].tolist() == [1, 5, 8]


def test_episode_loss_encodes_support_then_query_class_by_class_in_train_mode(monkeypatch):
    pool, ep = manual_episode(class_ids=(0, 1, 2), shot=2, queries=2)
    support, query = ep
    encoded, scored = [], []

    def recording_encode(x, model, mode="eval"):
        encoded.append((x.data.copy(), mode))
        return real_encode(x, model, mode=mode)

    def recording_loss(scores, targets, kind):
        scored.append((scores.shape, targets.tolist()))
        return real_loss(scores, targets, kind)

    real_encode, real_loss = backbone.encode, fsl.loss_from_scores
    monkeypatch.setattr(backbone, "encode", recording_encode)
    monkeypatch.setattr(fsl, "loss_from_scores", recording_loss)
    model = create_model(tiny_backbone(), seed=0)
    episode_loss(pool, ep, model)
    order = [*support[0], *support[1], *support[2], *query[0], *query[1], *query[2]]
    assert np.array_equal(encoded[-1][0], pool.features[order])
    assert encoded[-1][1] == "train"
    assert scored == [((6, 3), [0, 0, 1, 1, 2, 2])]


# -- loss oracles -----------------------------------------------------------------


def test_proto_loss_closed_form():
    # query sitting on its own prototype, the others at squared distance D:
    # scores (0, -D, -D) with target 0 gives loss log(1 + (N-1) e^{-D})
    d = 1.5
    scores = Tensor([[0.0, -d, -d], [0.0, -d, -d]])
    loss = loss_from_scores(scores, np.array([0, 0]), "proto")
    assert loss.data == pytest.approx(np.log1p(2.0 * np.exp(-d)), abs=1e-12)


def test_proto_loss_vanishes_for_distant_prototypes():
    scores = Tensor([[0.0, -50.0, -50.0]])
    loss = loss_from_scores(scores, np.array([0]), "proto")
    assert 0.0 <= scalar(loss) < 1e-20


def test_matching_uniform_attention_is_ln_n():
    n = 4
    scores = Tensor(np.full((5, n), 1.0 / n))
    loss = loss_from_scores(scores, np.arange(5) % n, "matching")
    assert loss.data == pytest.approx(np.log(n), abs=1e-12)


def test_relation_exact_match_is_zero():
    onehot = np.eye(3)[[0, 1, 2, 1]]
    loss = loss_from_scores(Tensor(onehot), np.array([0, 1, 2, 1]), "relation")
    assert scalar(loss) == 0.0


def test_relation_hand_value():
    # one query, scores (0.5, 0.5) vs one-hot (1, 0): (0.5)^2 + (0.5)^2 = 0.5
    loss = loss_from_scores(Tensor([[0.5, 0.5]]), np.array([0]), "relation")
    assert loss.data == pytest.approx(0.5, abs=1e-12)


def test_matching_zero_probability_stays_finite():
    scores = Tensor([[0.0, 1.0]])
    loss = loss_from_scores(scores, np.array([0]), "matching")
    assert np.isfinite(scalar(loss))
    assert loss.data == pytest.approx(-np.log(1e-12), rel=1e-9)


def test_loss_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        loss_from_scores(Tensor([[0.0, 1.0]]), np.array([0]), "contrastive")


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_loss_nonnegativity(seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-30.0, 30.0, size=(4, 3))
    targets = rng.integers(0, 3, size=4)
    assert scalar(loss_from_scores(Tensor(raw), targets, "proto")) >= 0.0
    assert scalar(loss_from_scores(Tensor(raw), targets, "relation")) >= 0.0
    probs = rng.dirichlet(np.ones(3), size=4)
    assert scalar(loss_from_scores(Tensor(probs), targets, "matching")) >= 0.0


# -- episode_loss contracts --------------------------------------------------------


def test_linear_head_is_not_episodic():
    """A linear model has no adapter, so the episodic paths name the parameter they miss."""
    model = create_model(tiny_backbone(head_kind="linear"), seed=0)
    pool, episode = manual_episode()
    with pytest.raises(ContractError, match="no parameter phi/fc1_w"):
        episode_loss(pool, episode, model)
    with pytest.raises(ContractError, match="no parameter phi/fc1_w"):
        classify_query([episode], model, encode_rows(model, pool.features), model.phi)


def test_way_mismatch_rejected():
    model = create_model(tiny_backbone(num_classes=2), seed=0)
    with pytest.raises(ProtocolError):
        episode_loss(*manual_episode(), model)


def support_order_losses(kind, shot, seed):
    """A 3-way loss through ``backbone.head_forward``, support rows in class blocks, then
    reversed within each block."""
    model = create_model(tiny_backbone(head_kind=kind), seed=0)
    rng = np.random.default_rng(seed)
    support, query = rng.normal(size=(3 * shot, 2)), rng.normal(size=(6, 2))
    blocks = np.arange(3 * shot).reshape(3, shot)
    losses = []
    for order in (blocks.ravel(), blocks[:, ::-1].ravel()):
        scores = backbone.head_forward(model, Tensor(support[order]), Tensor(query))
        losses.append(scalar(loss_from_scores(scores, np.repeat(np.arange(3), 2), kind)))
    return losses


def test_proto_loss_permutation_invariant_in_support():
    base, moved = support_order_losses("proto", shot=3, seed=5)
    assert abs(base - moved) < 1e-9


@pytest.mark.parametrize("kind", ["matching", "relation"])
def test_other_heads_permutation_invariant_too(kind):
    base, moved = support_order_losses(kind, shot=2, seed=9)
    assert abs(base - moved) < 1e-9


def test_episode_gradients_match_finite_differences():
    # full pipeline at miniature size: grouped projections, four conv blocks,
    # identity adapter, prototypical loss, eval-mode batch norm
    model = create_model(
        tiny_backbone(n_electrodes=3, d_bands=2, adapter_hidden=4, num_classes=2),
        seed=3,
    )
    pool, ep = manual_episode(class_ids=(0, 1), shot=1, queries=1, shape=(3, 2), seed=7)
    tensors = [t for group in (model.theta, model.phi) for _, t in group.entries]

    def f(_):
        return loss_from_scores(*eval_scores(pool, ep, model), "proto")

    assert finite_diff_check(f, tensors) < 1e-4


# -- classify_query ------------------------------------------------------------------


def test_tiebreak_picks_lowest_class_id():
    # all-zero features embed identically, so every class scores the same
    model = create_model(tiny_backbone(), seed=0)
    pool, ep = manual_episode(class_ids=(3, 5, 9), shot=1, queries=1)
    pool = replace(pool, features=np.zeros((6, 2, 2)))
    (predictions,), (accuracy,) = classify_query([ep], model, encode_rows(model, pool.features), model.phi)
    assert predictions.tolist() == [0, 0, 0]
    assert pool.label[ep[0][predictions, 0]].tolist() == [3, 3, 3]
    assert accuracy == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("head", ["matching", "relation", "proto"])
def test_classify_query_on_pool_rows_equals_episode_encoded_alone(head, monkeypatch):
    """Pool rows from encode_rows, indexed per episode, against the episode's own features
    through the encoder, adapter and head in one batch."""
    pool = toy_pool(per_class=30, seed=3)  # 90 rows: encode_rows runs two batches
    model = create_model(tiny_backbone(head_kind=head, conv_channels=(3, 3, 3, 4), embedding_dim=4,
                                       adapter_hidden=8), seed=2)
    rng = np.random.default_rng(4)
    phi = model.phi.copy()
    for _, t in phi.entries:
        t.data = t.data + rng.normal(scale=0.1, size=t.shape)
    adapted = replace(model, phi=phi)
    scores = []
    real = fsl._scores_from_embeddings

    def recording(*args):
        scores.append(real(*args))
        return scores[-1]

    monkeypatch.setattr(fsl, "_scores_from_embeddings", recording)
    rows = encode_rows(model, pool.features)
    for j in range(6):
        ep = sample_episode(pool, 3, j % 2 + 1, 4, np.random.default_rng([5, j]))
        (predictions,), (accuracy,) = classify_query([ep], model, rows, phi)
        with ad.no_grad():
            expect, targets = eval_scores(pool, ep, adapted)
        # scores[-2] was recorded inside classify_query, scores[-1] inside the reference
        assert scores[-2][0].data.tobytes() == expect.data.tobytes()
        local = np.argmax(expect.data, axis=1)
        assert predictions.tolist() == local.tolist()
        assert accuracy == float(np.mean(local == targets))


def scored_alone(episode, model, pool_rows, phi):
    """One episode scored by hand: its rows, a 2-D adapter, the head, argmax, accuracy."""
    support, query = episode
    rows = pool_rows[np.concatenate([support.ravel(), query.ravel()])]
    with ad.no_grad():
        emb = backbone.adapt(Tensor(rows), phi).data
        scores = backbone.head_forward(model, Tensor(emb[: support.size]), Tensor(emb[support.size :]))
    predictions = np.argmax(scores.data, axis=1)
    targets = np.repeat(np.arange(len(query)), query.shape[1])
    return scores.data, predictions, float(np.mean(predictions == targets))


@settings(max_examples=30, deadline=None)
@given(
    head=st.sampled_from(fsl.EPISODIC_HEADS),
    count=st.integers(1, 4),
    shot=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_classify_query_equals_each_episode_scored_alone(head, count, shot, seed):
    """A stack of E episodes against each episode scored alone, with the model's
    adapter and with a stacked adapter whose slices differ; validation_accuracy
    against the in-order mean of the accuracies scored alone."""
    pool = toy_pool(per_class=8, seed=seed)
    config = tiny_backbone(head_kind=head, conv_channels=(2, 2, 2, 3), embedding_dim=3, adapter_hidden=6)
    model = create_model(config, seed=seed)
    rows = encode_rows(model, pool.features)
    rng = np.random.default_rng(seed)
    slices = [
        ParamGroup("phi", [(n, Tensor(t.data + rng.normal(size=t.shape))) for n, t in model.phi.entries])
        for _ in range(count)
    ]
    # biases [h] stack to [E x 1 x h], as adapt._stack_adapter lays them out
    stacked = ParamGroup(
        "phi",
        [(n, Tensor(np.stack([s.get(n).data.reshape(-1, t.shape[-1]) for s in slices])))
         for n, t in model.phi.entries],
    )
    cfg = TrainConfig(head_kind=head, shot=shot, queries=2, validation_episodes=count)
    episodes = [sample_episode(pool, 3, shot, 2, np.random.default_rng([seed, 4, j])) for j in range(count)]
    real = fsl._scores_from_embeddings
    for phi, alone in ((model.phi, [model.phi] * count), (stacked, slices)):
        recorded = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fsl, "_scores_from_embeddings", lambda *a: recorded.append(real(*a)) or recorded[-1])
            predictions, accuracies = classify_query(episodes, model, rows, phi)
        want = [scored_alone(e, model, rows, p) for e, p in zip(episodes, alone)]
        assert [s.data.tobytes() for s, _ in recorded] == [w[0].tobytes() for w in want]
        assert predictions.shape == (count, 6)
        assert predictions.tolist() == [w[1].tolist() for w in want]
        assert accuracies == [w[2] for w in want]
    want = in_order_sum(scored_alone(e, model, rows, model.phi)[2] for e in episodes) / count
    assert validation_accuracy(model, pool, cfg, seed) == want


def test_untrained_model_sits_at_chance():
    cfg = DriftConfig(
        num_subjects=1,
        num_sessions=1,
        trials_per_session=15,
        samples_per_trial=20,
        num_classes=3,
        n_electrodes=4,
        d_bands=3,
        class_separation=0.0,
        intra_drift_rate=0.0,
        inter_subject_offset_scale=0.0,
        noise_std=1.0,
        rng_seed=2,
    )
    pool = select_rows(generate_synthetic_drift(cfg), subject=1, session=1)
    model = create_model(
        tiny_backbone(n_electrodes=4, d_bands=3, conv_channels=(4, 4, 4, 8), embedding_dim=8, adapter_hidden=16),
        seed=0,
    )
    rows = encode_rows(model, pool.features)
    episodes = [sample_episode(pool, 3, 1, 10, np.random.default_rng([7, j])) for j in range(200)]
    assert abs(np.mean(classify_query(episodes, model, rows, model.phi)[1]) - 1.0 / 3.0) < 0.1


def test_classify_pool_empty_is_defined():
    model = create_model(tiny_backbone(head_kind="linear"), seed=0)
    predictions, accuracy = classify_pool(model, toy_pool(per_class=0))
    assert predictions.size == 0
    assert accuracy == 0.0


# -- config validation ----------------------------------------------------------------


def test_train_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        TrainConfig(way=0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(max_epochs=-1)


@pytest.mark.parametrize("kind", ["xyz", "linear", "Proto", ""])
def test_train_config_rejects_a_head_that_is_not_episodic(kind):
    # "linear" is a head kind, but only the supervised baseline's: it has no episode loss
    with pytest.raises(ConfigError, match=re.escape(f"head_kind must be one of {fsl.EPISODIC_HEADS}, got {kind!r}")):
        TrainConfig(head_kind=kind)
    assert fsl.EPISODIC_HEADS == ("matching", "relation", "proto")


@pytest.mark.parametrize("config", [TrainConfig, SupervisedConfig])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_learning_rate_must_be_finite(config, value):
    with pytest.raises(ConfigError, match="learning_rate"):
        config(learning_rate=value)


def test_model_configs_take_the_architecture_and_set_head_and_classes():
    arch = tiny_backbone(n_electrodes=6)
    mc = TrainConfig(head_kind="matching", way=5, shot=1, queries=5).model_config(arch)
    assert mc == replace(arch, head_kind="matching", num_classes=5)
    assert SupervisedConfig(num_classes=4).model_config(arch) == replace(arch, head_kind="linear", num_classes=4)


def test_supervised_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        SupervisedConfig(batch_size=0)
    with pytest.raises(ConfigError):
        SupervisedConfig(num_classes=1)


# -- training runs --------------------------------------------------------------------


SEPARABLE = DriftConfig(
    num_subjects=1,
    num_sessions=3,
    trials_per_session=15,
    samples_per_trial=20,
    num_classes=3,
    n_electrodes=6,
    d_bands=4,
    class_separation=5.0,
    intra_drift_rate=0.0,
    inter_subject_offset_scale=0.0,
    noise_std=1.0,
    rng_seed=0,
)

SEPARABLE_BACKBONE = BackboneConfig(
    n_electrodes=6,
    d_bands=4,
    g2g_channels=1,
    conv_channels=(8, 8, 8, 16),
    embedding_dim=16,
    adapter_hidden=32,
)


@pytest.fixture(scope="module")
def separable_pools():
    ds = generate_synthetic_drift(SEPARABLE)
    split = make_intra_split(ds, 1)
    return (
        split.select(ds, "train"),
        split.select(ds, "val"),
        split.select(ds, "test"),
    )


@pytest.fixture(scope="module")
def trained_proto(separable_pools):
    train, val, _ = separable_pools
    cfg = TrainConfig(
        head_kind="proto",
        episodes_per_epoch=30,
        max_epochs=10,
        learning_rate=0.3,
        way=3,
        shot=1,
        queries=10,
        validation_episodes=40,
    )
    return meta_train(train, val, cfg, SEPARABLE_BACKBONE, 0), cfg


def test_meta_train_reaches_high_validation_accuracy(trained_proto, separable_pools):
    model, cfg = trained_proto
    _, val, _ = separable_pools
    assert validation_accuracy(model, val, cfg, 0) >= 0.95


def test_trained_model_separates_clusters_perfectly(trained_proto, separable_pools):
    model, _ = trained_proto
    _, _, test = separable_pools
    rows = encode_rows(model, test.features)
    episodes = [sample_episode(test, 3, 1, 10, np.random.default_rng([13, j])) for j in range(20)]
    assert np.mean(classify_query(episodes, model, rows, model.phi)[1]) == 1.0


TRAINERS = ["meta_train", "train_supervised_baseline"]


SMALL_BACKBONE = tiny_backbone(n_electrodes=6, d_bands=4, adapter_hidden=4)


def small_trainer(name, **overrides):
    """A trainer and a small config for it, for SMALL_BACKBONE on the separable pools."""
    if name == "meta_train":
        return meta_train, TrainConfig(episodes_per_epoch=3, validation_episodes=2, **overrides)
    return train_supervised_baseline, SupervisedConfig(**overrides)


@pytest.mark.parametrize("name", TRAINERS)
def test_zero_epochs_returns_init(name, separable_pools):
    train, val, _ = separable_pools
    trainer, cfg = small_trainer(name, max_epochs=0)
    model = trainer(train, val, cfg, SMALL_BACKBONE, 9)
    fresh = create_model(cfg.model_config(SMALL_BACKBONE), seed=9)
    for got, want in zip(model.groups(), fresh.groups()):
        assert state_bytes(got) == state_bytes(want)


@pytest.mark.parametrize("name", TRAINERS)
def test_non_finite_loss_raises_naming_its_epoch(name, separable_pools, monkeypatch):
    train, val, _ = separable_pools
    trainer, cfg = small_trainer(name, max_epochs=2)
    steps = cfg.episodes_per_epoch if name == "meta_train" else math.ceil(len(train) / cfg.batch_size)
    calls = []
    original = fsl.loss_from_scores

    def nan_from_second_epoch(scores, targets, kind):
        calls.append(kind)
        loss = original(scores, targets, kind)
        return ad.mul(loss, Tensor(np.nan)) if len(calls) > steps else loss

    monkeypatch.setattr(fsl, "loss_from_scores", nan_from_second_epoch)
    with pytest.raises(ContractError, match=f"non-finite {cfg.model_config(SMALL_BACKBONE).head_kind} loss at epoch 1"):
        trainer(train, val, cfg, SMALL_BACKBONE, 0)
    assert len(calls) == steps + 1


@pytest.mark.parametrize("name", TRAINERS)
def test_non_finite_gradient_raises_at_its_step(name, separable_pools, monkeypatch):
    """A finite loss with a non-finite gradient stops training at that step, before it moves theta."""
    train, val, _ = separable_pools
    trainer, cfg = small_trainer(name, max_epochs=2)
    first = create_model(cfg.model_config(SMALL_BACKBONE)).theta.entries[0][0]
    models, losses, before = [], [], []
    original_create, original_backward = fsl.create_model, ad.backward

    def recording_create(config, seed=0):
        models.append(original_create(config, seed=seed))
        return models[-1]

    def poisoning_backward(loss):
        losses.append(scalar(loss))
        original_backward(loss)
        if len(losses) == 3:
            before.append(state_bytes(models[0].theta))
            models[0].theta.entries[0][1].grad.flat[0] = np.nan

    monkeypatch.setattr(fsl, "create_model", recording_create)
    monkeypatch.setattr(ad, "backward", poisoning_backward)
    with pytest.raises(ContractError, match=f"parameter theta/{first} has a non-finite gradient"):
        trainer(train, val, cfg, SMALL_BACKBONE, 0)
    assert len(losses) == 3 and np.isfinite(losses).all()
    assert state_bytes(models[0].theta) == before[0]


def _tape_array_ref(loss):
    """A weakref to the first array of at least one dimension that the loss's tape recorded.

    Tensors take no weakrefs and a scalar loss holds a numpy scalar, so the
    reference is to a recorded node's ``.data`` array.
    """
    nodes = [loss]
    for node in nodes:
        if node._grad_fn is not None and node.data.ndim >= 1:
            return weakref.ref(node.data)
        nodes.extend(node._parents)
    raise AssertionError("the loss recorded no array")


@pytest.mark.parametrize("name", TRAINERS)
def test_no_step_tape_alive_when_next_step_encodes(name, separable_pools, monkeypatch):
    train, val, _ = separable_pools
    trainer, cfg = small_trainer(name, max_epochs=2)
    last_tape, alive = [], []
    backward, encode = ad.backward, backbone.encode

    def recording_backward(loss):
        last_tape[:] = [_tape_array_ref(loss)]
        return backward(loss)

    def checking_encode(features, model, mode="eval"):
        if mode == "train" and last_tape:
            alive.append(last_tape[0]() is not None)
        return encode(features, model, mode=mode)

    monkeypatch.setattr(ad, "backward", recording_backward)
    monkeypatch.setattr(backbone, "encode", checking_encode)
    trainer(train, val, cfg, SMALL_BACKBONE, 0)
    assert len(alive) > 2
    assert not any(alive), f"{sum(alive)} of {len(alive)} steps began with the last tape alive"


def test_meta_train_deterministic_across_runs(separable_pools):
    train, val, _ = separable_pools
    cfg = TrainConfig(episodes_per_epoch=5, max_epochs=1, validation_episodes=5)
    a = meta_train(train, val, cfg, SMALL_BACKBONE, 3)
    b = meta_train(train, val, cfg, SMALL_BACKBONE, 3)
    for got, want in zip(a.groups(), b.groups()):
        assert state_bytes(got) == state_bytes(want)


def test_validation_accuracy_is_stable_across_calls(separable_pools):
    _, val, _ = separable_pools
    cfg = TrainConfig(validation_episodes=10)
    model = create_model(cfg.model_config(SEPARABLE_BACKBONE), seed=1)
    assert validation_accuracy(model, val, cfg, 0) == validation_accuracy(model, val, cfg, 0)


def test_validation_accuracy_encodes_each_episode_row_once_per_call(separable_pools, monkeypatch):
    _, val, _ = separable_pools
    cfg = TrainConfig(validation_episodes=6)
    model = create_model(cfg.model_config(SEPARABLE_BACKBONE), seed=1)
    episodes, encoded = [], []
    original_sample, original_encode = fsl.sample_episode, backbone.encode

    def recording(*args):
        episodes.append(original_sample(*args))
        return episodes[-1]

    def counting(features, model, mode="eval"):
        encoded.extend(row.tobytes() for row in features.data)
        return original_encode(features, model, mode=mode)

    monkeypatch.setattr(fsl, "sample_episode", recording)
    monkeypatch.setattr(backbone, "encode", counting)
    for calls in (1, 2):
        accuracy = validation_accuracy(model, val, cfg, 0)
        used = np.unique(np.concatenate([np.concatenate([s.ravel(), q.ravel()]) for s, q in episodes]))
        assert len(used) < len(val)  # the episodes leave some pool rows out
        assert sorted(encoded) == sorted([val.features[i].tobytes() for i in used] * calls)
    # the same accuracy as indexing rows of the whole encoded pool
    rows = encode_rows(model, val.features)
    assert accuracy == in_order_sum(classify_query(episodes[:6], model, rows, model.phi)[1]) / 6


@pytest.fixture(scope="module")
def trained_supervised(separable_pools):
    train, val, _ = separable_pools
    cfg = SupervisedConfig(num_classes=3, max_epochs=60)
    return train_supervised_baseline(train, val, cfg, SEPARABLE_BACKBONE, 0), cfg


def test_supervised_baseline_learns_stationary_data(trained_supervised, separable_pools):
    model, _ = trained_supervised
    _, _, test = separable_pools
    _, accuracy = classify_pool(model, test)
    assert accuracy >= 0.95


def test_supervised_baseline_has_no_adapter_and_moves_encoder_and_head(trained_supervised):
    model, cfg = trained_supervised
    assert model.phi.entries == []
    fresh = create_model(cfg.model_config(SEPARABLE_BACKBONE), seed=0)
    assert fresh.phi.entries == []
    for group, start in ((model.theta, fresh.theta), (model.w, fresh.w)):
        for (name, moved), (_, initial) in zip(group.entries, start.entries):
            assert not np.array_equal(moved.data, initial.data), f"{group.name}/{name} did not move"
