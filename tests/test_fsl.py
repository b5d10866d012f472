"""Tests for episodic sampling, the three few-shot losses, and the training loops."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evofa import autodiff as ad
from evofa.autodiff import Tensor, finite_diff_check
from evofa.backbone import BackboneConfig, create_model
from evofa.data import DriftConfig, LabeledSample, generate_synthetic_drift, make_intra_split
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


def make_sample(trial, label, features=None, subject=1, session=1, time_index=None):
    if features is None:
        features = np.zeros((2, 2))
    return LabeledSample(
        subject_id=subject,
        session_id=session,
        trial_id=trial,
        time_index=trial if time_index is None else time_index,
        features=np.asarray(features, dtype=np.float64),
        label=label,
    )


def toy_pool(num_classes=3, per_class=12, shape=(2, 2), seed=0):
    rng = np.random.default_rng(seed)
    pool = []
    t = 0
    for k in range(num_classes):
        for _ in range(per_class):
            pool.append(make_sample(t, k, rng.normal(size=shape)))
            t += 1
    return pool


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
    rng = np.random.default_rng(seed)
    support, query = [], []
    t = 0
    for k in class_ids:
        for _ in range(shot):
            support.append(make_sample(t, k, rng.normal(size=shape)))
            t += 1
        for _ in range(queries):
            query.append(make_sample(t, k, rng.normal(size=shape)))
            t += 1
    return Episode(
        way=len(class_ids),
        shot=shot,
        queries_per_class=queries,
        class_ids=tuple(class_ids),
        support=tuple(support),
        query=tuple(query),
    )


# -- Episode invariants ------------------------------------------------------------


def test_episode_valid_construction():
    ep = manual_episode()
    assert ep.way == 3
    assert len(ep.support) == 3
    assert len(ep.query) == 6


def test_episode_rejects_duplicate_class_ids():
    ep = manual_episode()
    with pytest.raises(ProtocolError):
        Episode(
            way=3,
            shot=1,
            queries_per_class=2,
            class_ids=(0, 0, 2),
            support=ep.support,
            query=ep.query,
        )


def test_episode_rejects_wrong_support_size():
    ep = manual_episode()
    with pytest.raises(ProtocolError):
        Episode(
            way=3,
            shot=2,
            queries_per_class=2,
            class_ids=ep.class_ids,
            support=ep.support,
            query=ep.query,
        )


def test_episode_rejects_wrong_query_size():
    ep = manual_episode()
    with pytest.raises(ProtocolError):
        Episode(
            way=3,
            shot=1,
            queries_per_class=3,
            class_ids=ep.class_ids,
            support=ep.support,
            query=ep.query,
        )


def test_episode_rejects_per_class_miscount():
    ep = manual_episode()
    # right totals, wrong per-class composition: swap one support label
    bad = list(ep.support)
    s = bad[0]
    bad[0] = make_sample(s.trial_id, 1, s.features)
    with pytest.raises(ProtocolError):
        Episode(
            way=3,
            shot=1,
            queries_per_class=2,
            class_ids=ep.class_ids,
            support=tuple(bad),
            query=ep.query,
        )


def test_episode_rejects_support_query_overlap():
    ep = manual_episode()
    shared = ep.support[0]
    bad_query = (shared,) + ep.query[1:]
    with pytest.raises(ProtocolError, match="overlap"):
        Episode(
            way=3,
            shot=1,
            queries_per_class=2,
            class_ids=ep.class_ids,
            support=ep.support,
            query=tuple(bad_query),
        )


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
    short = [s for s in pool if not (s.label == 2 and s.trial_id == pool[-1].trial_id)]
    with pytest.raises(SamplingError, match="2"):
        sample_episode(short, 3, 1, 10, np.random.default_rng(0))


def test_sample_composition_over_many_episodes():
    pool = toy_pool(num_classes=5, per_class=13)
    pool_keys = {(s.subject_id, s.session_id, s.trial_id, s.time_index) for s in pool}
    seen_classes = set()
    for j in range(10_000):
        rng = np.random.default_rng([11, j])
        ep = sample_episode(pool, 3, 1, 10, rng)
        # Episode.__post_init__ already enforces counts, per-class balance,
        # and support/query disjointness; check the sampler-level contracts.
        assert list(ep.class_ids) == sorted(ep.class_ids)
        keys = {(s.subject_id, s.session_id, s.trial_id, s.time_index) for s in ep.support + ep.query}
        assert len(keys) == len(ep.support) + len(ep.query)
        assert keys <= pool_keys
        seen_classes.update(ep.class_ids)
    assert seen_classes == {0, 1, 2, 3, 4}


def test_sample_deterministic_given_rng():
    pool = toy_pool(num_classes=5, per_class=12)
    key = lambda ep: [(s.trial_id, s.label) for s in ep.support + ep.query]
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
    perm = np.random.default_rng(5).permutation(len(ep.support))
    shuffled = Episode(
        way=ep.way,
        shot=ep.shot,
        queries_per_class=ep.queries_per_class,
        class_ids=ep.class_ids,
        support=tuple(ep.support[i] for i in perm),
        query=ep.query,
    )
    base = episode_loss(ep, model, mode="eval").item()
    moved = episode_loss(shuffled, model, mode="eval").item()
    assert abs(base - moved) < 1e-9


@pytest.mark.parametrize("kind", ["matching", "relation"])
def test_other_heads_permutation_invariant_too(kind):
    model = create_model(tiny_backbone(head_kind=kind), seed=0)
    ep = manual_episode(shot=2, queries=2)
    perm = np.random.default_rng(9).permutation(len(ep.support))
    shuffled = Episode(
        way=ep.way,
        shot=ep.shot,
        queries_per_class=ep.queries_per_class,
        class_ids=ep.class_ids,
        support=tuple(ep.support[i] for i in perm),
        query=ep.query,
    )
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
    support = tuple(make_sample(t, k) for t, k in enumerate((3, 5, 9)))
    query = tuple(make_sample(10 + t, k) for t, k in enumerate((3, 5, 9)))
    ep = Episode(
        way=3, shot=1, queries_per_class=1, class_ids=(3, 5, 9), support=support, query=query
    )
    predictions, accuracy = classify_query(ep, model)
    assert predictions.tolist() == [3, 3, 3]
    assert accuracy == pytest.approx(1.0 / 3.0)


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
    total = 0.0
    episodes = 200
    for j in range(episodes):
        ep = sample_episode(pool, 3, 1, 10, np.random.default_rng([7, j]))
        with ad.no_grad():
            _, acc = classify_query(ep, model)
        total += acc
    assert abs(total / episodes - 1.0 / 3.0) < 0.1


def test_classify_pool_empty_is_defined():
    model = create_model(tiny_backbone(head_kind="linear"), seed=0)
    predictions, accuracy = classify_pool(model, [])
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
    accs = []
    for j in range(20):
        ep = sample_episode(test, 3, 1, 10, np.random.default_rng([13, j]))
        with ad.no_grad():
            _, acc = classify_query(ep, model)
        accs.append(acc)
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
