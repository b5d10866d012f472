"""Tests for episodic sampling, the three few-shot losses, and the training loops."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evofa import autodiff as ad
from evofa import backbone, fsl
from evofa.autodiff import Tensor, finite_diff_check
from evofa.backbone import BackboneConfig, create_model, encode_rows
from evofa.data import DatasetIndex, DriftConfig, generate_synthetic_drift, make_intra_split
from evofa.errors import ConfigError, ProtocolError, SamplingError
from evofa.fsl import (
    Episode,
    SupervisedConfig,
    TrainConfig,
    classify_pool,
    classify_query,
    episode_loss,
    episode_scores,
    loss_from_scores,
    meta_train,
    sample_episode,
    train_supervised_baseline,
    validation_accuracy,
)

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


def manual_episode(class_ids=(0, 1, 2), shot=1, queries=2, shape=(2, 2), seed=0):
    """An episode over an implicit pool holding, per class, shot then query samples."""
    rng = np.random.default_rng(seed)
    per_class = shot + queries
    rows = np.arange(len(class_ids) * per_class).reshape(len(class_ids), per_class)
    support, query = rows[:, :shot].ravel(), rows[:, shot:].ravel()
    features = rng.normal(size=(rows.size, *shape))
    labels = np.repeat(class_ids, per_class)
    order = np.concatenate([support, query])
    return Episode(
        way=len(class_ids),
        shot=shot,
        queries_per_class=queries,
        class_ids=tuple(class_ids),
        support=support,
        query=query,
        features=features[order],
        labels=labels[order],
    )


def with_support_order(ep, perm):
    """The episode with its support rows permuted."""
    order = np.concatenate([perm, np.arange(len(ep.support), len(ep.labels))])
    return replace(ep, support=ep.support[perm], features=ep.features[order], labels=ep.labels[order])


# -- Episode invariants ------------------------------------------------------------


def test_episode_valid_construction():
    ep = manual_episode()
    assert ep.way == 3
    assert len(ep.support) == 3
    assert len(ep.query) == 6


def test_episode_rejects_duplicate_class_ids():
    ep = manual_episode()
    with pytest.raises(ProtocolError):
        replace(ep, class_ids=(0, 0, 2))


def test_episode_rejects_wrong_support_size():
    ep = manual_episode()
    with pytest.raises(ProtocolError):
        replace(ep, shot=2)


def test_episode_rejects_wrong_query_size():
    ep = manual_episode()
    with pytest.raises(ProtocolError):
        replace(ep, queries_per_class=3)


def test_episode_rejects_per_class_miscount():
    ep = manual_episode()
    # right totals, wrong per-class composition: swap one support label
    labels = ep.labels.copy()
    labels[0] = 1
    with pytest.raises(ProtocolError):
        replace(ep, labels=labels)


def test_episode_rejects_support_query_overlap():
    ep = manual_episode()
    query = ep.query.copy()
    query[0] = ep.support[0]
    with pytest.raises(ProtocolError, match="overlap"):
        replace(ep, query=query)


def test_episode_local_targets_follow_class_id_order():
    ep = manual_episode(class_ids=(4, 7, 9))
    assert ep.support_targets().tolist() == [0, 1, 2]
    assert ep.query_targets().tolist() == [0, 0, 1, 1, 2, 2]


# -- sample_episode ------------------------------------------------------------------


def test_sample_sizes_3way_1shot_10query():
    pool = toy_pool(num_classes=4, per_class=12)
    ep = sample_episode(pool, 3, 1, 10, np.random.default_rng(0))
    assert len(ep.support) == 3
    assert len(ep.query) == 30


def test_sample_sizes_5way_5shot_5query():
    pool = toy_pool(num_classes=6, per_class=11)
    ep = sample_episode(pool, 5, 5, 5, np.random.default_rng(0))
    assert len(ep.support) == 25
    assert len(ep.query) == 25


def test_sample_deficient_class_raises_naming_it():
    pool = toy_pool(num_classes=3, per_class=11)
    # class 2 ends up one sample short of shot + queries
    short = pool._subset(np.arange(len(pool)) != len(pool) - 1)
    with pytest.raises(SamplingError, match="2"):
        sample_episode(short, 3, 1, 10, np.random.default_rng(0))


def test_sample_composition_over_many_episodes():
    pool = toy_pool(num_classes=5, per_class=13)
    seen_classes = set()
    for j in range(10_000):
        rng = np.random.default_rng([11, j])
        ep = sample_episode(pool, 3, 1, 10, rng)
        # Episode.__post_init__ already enforces counts, per-class balance,
        # and support/query disjointness; check the sampler-level contracts.
        assert list(ep.class_ids) == sorted(ep.class_ids)
        rows = np.concatenate([ep.support, ep.query])
        assert len(set(rows.tolist())) == len(rows)
        assert np.array_equal(ep.features, pool.features[rows])
        assert np.array_equal(ep.labels, pool.label[rows])
        seen_classes.update(ep.class_ids)
    assert seen_classes == {0, 1, 2, 3, 4}


def test_sample_deterministic_given_rng():
    pool = toy_pool(num_classes=5, per_class=12)
    key = lambda ep: (ep.support.tolist(), ep.query.tolist(), ep.labels.tolist())
    a = sample_episode(pool, 3, 1, 5, np.random.default_rng(42))
    b = sample_episode(pool, 3, 1, 5, np.random.default_rng(42))
    c = sample_episode(pool, 3, 1, 5, np.random.default_rng(43))
    assert key(a) == key(b)
    assert key(a) != key(c)


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
    assert 0.0 <= loss.item() < 1e-20


def test_matching_uniform_attention_is_ln_n():
    n = 4
    scores = Tensor(np.full((5, n), 1.0 / n))
    loss = loss_from_scores(scores, np.arange(5) % n, "matching")
    assert loss.data == pytest.approx(np.log(n), abs=1e-12)


def test_relation_exact_match_is_zero():
    onehot = np.eye(3)[[0, 1, 2, 1]]
    loss = loss_from_scores(Tensor(onehot), np.array([0, 1, 2, 1]), "relation")
    assert loss.item() == 0.0


def test_relation_hand_value():
    # one query, scores (0.5, 0.5) vs one-hot (1, 0): (0.5)^2 + (0.5)^2 = 0.5
    loss = loss_from_scores(Tensor([[0.5, 0.5]]), np.array([0]), "relation")
    assert loss.data == pytest.approx(0.5, abs=1e-12)


def test_matching_zero_probability_stays_finite():
    scores = Tensor([[0.0, 1.0]])
    loss = loss_from_scores(scores, np.array([0]), "matching")
    assert np.isfinite(loss.item())
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
    assert loss_from_scores(Tensor(raw), targets, "proto").item() >= 0.0
    assert loss_from_scores(Tensor(raw), targets, "relation").item() >= 0.0
    probs = rng.dirichlet(np.ones(3), size=4)
    assert loss_from_scores(Tensor(probs), targets, "matching").item() >= 0.0


# -- episode_scores contracts --------------------------------------------------------


def test_linear_head_is_not_episodic():
    model = create_model(tiny_backbone(head_kind="linear"), seed=0)
    with pytest.raises(ProtocolError):
        episode_scores(manual_episode(), model)


def test_way_mismatch_rejected():
    model = create_model(tiny_backbone(num_classes=2), seed=0)
    with pytest.raises(ProtocolError):
        episode_scores(manual_episode(), model)


def test_proto_loss_permutation_invariant_in_support():
    model = create_model(tiny_backbone(head_kind="proto"), seed=0)
    ep = manual_episode(shot=3, queries=2)
    shuffled = with_support_order(ep, np.random.default_rng(5).permutation(len(ep.support)))
    base = episode_loss(ep, model, mode="eval").item()
    moved = episode_loss(shuffled, model, mode="eval").item()
    assert abs(base - moved) < 1e-9


@pytest.mark.parametrize("kind", ["matching", "relation"])
def test_other_heads_permutation_invariant_too(kind):
    model = create_model(tiny_backbone(head_kind=kind), seed=0)
    ep = manual_episode(shot=2, queries=2)
    shuffled = with_support_order(ep, np.random.default_rng(9).permutation(len(ep.support)))
    base = episode_loss(ep, model, mode="eval").item()
    moved = episode_loss(shuffled, model, mode="eval").item()
    assert abs(base - moved) < 1e-9


def test_episode_gradients_match_finite_differences():
    # full pipeline at miniature size: grouped projections, four conv blocks,
    # identity adapter, prototypical loss, eval-mode batch norm
    model = create_model(
        tiny_backbone(n_electrodes=3, d_bands=2, adapter_hidden=4, num_classes=2),
        seed=3,
    )
    ep = manual_episode(class_ids=(0, 1), shot=1, queries=1, shape=(3, 2), seed=7)
    tensors = model.theta.tensors() + model.phi.tensors()

    def f(_):
        return episode_loss(ep, model, mode="eval")

    assert finite_diff_check(f, tensors) < 1e-4


# -- classify_query ------------------------------------------------------------------


def test_tiebreak_picks_lowest_class_id():
    # all-zero features embed identically, so every class scores the same
    model = create_model(tiny_backbone(), seed=0)
    ep = Episode(
        way=3,
        shot=1,
        queries_per_class=1,
        class_ids=(3, 5, 9),
        support=np.arange(3),
        query=np.arange(3, 6),
        features=np.zeros((6, 2, 2)),
        labels=np.array([3, 5, 9, 3, 5, 9]),
    )
    predictions, accuracy = classify_query(ep, model, encode_rows(model, ep.features), model.phi)
    assert predictions.tolist() == [3, 3, 3]
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
        predictions, accuracy = classify_query(ep, model, rows, phi)
        with ad.no_grad():
            expect, targets = episode_scores(ep, adapted, mode="eval")
        # scores[-2] was recorded inside classify_query, scores[-1] inside the reference
        assert scores[-2][0].data.tobytes() == expect.data.tobytes()
        local = np.argmax(expect.data, axis=1)
        assert predictions.tolist() == [ep.class_ids[i] for i in local]
        assert accuracy == float(np.mean(local == targets))


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
    pool = generate_synthetic_drift(cfg).select(subject=1, session=1)
    model = create_model(
        tiny_backbone(n_electrodes=4, d_bands=3, conv_channels=(4, 4, 4, 8), embedding_dim=8, adapter_hidden=16),
        seed=0,
    )
    rows = encode_rows(model, pool.features)
    total = 0.0
    episodes = 200
    for j in range(episodes):
        ep = sample_episode(pool, 3, 1, 10, np.random.default_rng([7, j]))
        total += classify_query(ep, model, rows, model.phi)[1]
    assert abs(total / episodes - 1.0 / 3.0) < 0.1


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


@pytest.mark.parametrize("config", [TrainConfig, SupervisedConfig])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_learning_rate_must_be_finite(config, value):
    with pytest.raises(ConfigError, match="learning_rate"):
        config(learning_rate=value)


def test_train_config_propagates_head_and_way():
    cfg = TrainConfig(head_kind="matching", way=5, shot=1, queries=5)
    mc = cfg.model_config()
    assert mc.head_kind == "matching"
    assert mc.num_classes == 5


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
        backbone=SEPARABLE_BACKBONE,
        head_kind="proto",
        episodes_per_epoch=30,
        max_epochs=10,
        learning_rate=0.3,
        way=3,
        shot=1,
        queries=10,
        validation_episodes=40,
        rng_seed=0,
    )
    return meta_train(train, val, cfg), cfg


def test_meta_train_reaches_high_validation_accuracy(trained_proto, separable_pools):
    model, cfg = trained_proto
    _, val, _ = separable_pools
    assert validation_accuracy(model, val, cfg) >= 0.95


def test_trained_model_separates_clusters_perfectly(trained_proto, separable_pools):
    model, _ = trained_proto
    _, _, test = separable_pools
    rows = encode_rows(model, test.features)
    accs = []
    for j in range(20):
        ep = sample_episode(test, 3, 1, 10, np.random.default_rng([13, j]))
        accs.append(classify_query(ep, model, rows, model.phi)[1])
    assert np.mean(accs) == 1.0


def test_meta_train_zero_epochs_returns_init(separable_pools):
    train, val, _ = separable_pools
    cfg = TrainConfig(backbone=SEPARABLE_BACKBONE, max_epochs=0, rng_seed=9)
    model = meta_train(train, val, cfg)
    fresh = create_model(cfg.model_config(), seed=9)
    for got, want in zip(model.groups(), fresh.groups()):
        assert got.state_bytes() == want.state_bytes()


def test_meta_train_deterministic_across_runs(separable_pools):
    train, val, _ = separable_pools
    cfg = TrainConfig(
        backbone=tiny_backbone(n_electrodes=6, d_bands=4, adapter_hidden=4),
        episodes_per_epoch=5,
        max_epochs=1,
        validation_episodes=5,
        rng_seed=3,
    )
    a = meta_train(train, val, cfg)
    b = meta_train(train, val, cfg)
    for got, want in zip(a.groups(), b.groups()):
        assert got.state_bytes() == want.state_bytes()


def test_validation_accuracy_is_stable_across_calls(separable_pools):
    _, val, _ = separable_pools
    cfg = TrainConfig(backbone=SEPARABLE_BACKBONE, validation_episodes=10)
    model = create_model(cfg.model_config(), seed=1)
    assert validation_accuracy(model, val, cfg) == validation_accuracy(model, val, cfg)


def test_validation_accuracy_encodes_each_pool_row_once_per_call(separable_pools, monkeypatch):
    _, val, _ = separable_pools
    cfg = TrainConfig(backbone=SEPARABLE_BACKBONE, validation_episodes=6)
    model = create_model(cfg.model_config(), seed=1)
    encoded = []
    original = backbone.encode

    def counting(features, model, mode="eval"):
        encoded.extend(row.tobytes() for row in features.data)
        return original(features, model, mode=mode)

    monkeypatch.setattr(backbone, "encode", counting)
    for calls in (1, 2):
        validation_accuracy(model, val, cfg)
        assert sorted(encoded) == sorted([row.tobytes() for row in val.features] * calls)


@pytest.fixture(scope="module")
def trained_supervised(separable_pools):
    train, val, _ = separable_pools
    cfg = SupervisedConfig(backbone=SEPARABLE_BACKBONE, num_classes=3, max_epochs=60, rng_seed=0)
    return train_supervised_baseline(train, val, cfg), cfg


def test_supervised_baseline_learns_stationary_data(trained_supervised, separable_pools):
    model, _ = trained_supervised
    _, _, test = separable_pools
    _, accuracy = classify_pool(model, test)
    assert accuracy >= 0.95


def test_supervised_baseline_leaves_adapter_at_identity(trained_supervised):
    model, cfg = trained_supervised
    fresh = create_model(cfg.model_config(), seed=cfg.rng_seed)
    assert model.phi.state_bytes() == fresh.phi.state_bytes()
