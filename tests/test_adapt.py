"""Tests for snapshot sampling, adapter alignment updates, and adapted evaluation."""
import numpy as np
import pytest

from evofa import adapt as adapt_mod
from evofa import autodiff as ad
from evofa import backbone
from evofa.adapt import (
    AdaptConfig,
    EvalConfig,
    Snapshot,
    SnapshotSet,
    alignment_loss,
    evofa_run,
    evofa_test,
    inner_adapt,
    mean_alignment,
    outer_update,
    sample_snapshots_inter,
    sample_snapshots_intra,
)
from evofa.autodiff import ParamGroup, Tensor
from evofa.backbone import BackboneConfig, create_model
from evofa.data import DriftConfig, LabeledSample, generate_synthetic_drift, make_intra_split
from evofa.errors import ConfigError, ContractError, ProtocolError, SamplingError
from evofa.fsl import classify_query, sample_episode
from evofa.mmd import KernelSpec, default_spec, mmd2

BACKBONE = BackboneConfig(
    n_electrodes=6,
    d_bands=4,
    conv_channels=(8, 8, 8, 16),
    embedding_dim=16,
    adapter_hidden=32,
)


def drifted_dataset(seed=0, **overrides):
    base = dict(
        num_subjects=1,
        num_sessions=3,
        trials_per_session=15,
        samples_per_trial=20,
        num_classes=3,
        n_electrodes=6,
        d_bands=4,
        class_separation=1.5,
        intra_drift_rate=2.0,
        inter_subject_offset_scale=0.0,
        noise_std=1.0,
        rng_seed=seed,
    )
    base.update(overrides)
    return generate_synthetic_drift(DriftConfig(**base))


@pytest.fixture(scope="module")
def pools():
    ds = drifted_dataset()
    split = make_intra_split(ds, 1)
    return (
        split.select(ds, "train"),
        split.select(ds, "val"),
        split.select(ds, "test"),
    )


@pytest.fixture(scope="module")
def model():
    return create_model(BACKBONE, seed=0)


def model_bytes(m):
    return tuple(g.state_bytes() for g in m.groups())


def target_from(pool, count=30, seed=0):
    rng = np.random.default_rng([seed, 90])
    picks = rng.choice(len(pool), size=count, replace=False)
    return np.stack([pool[int(i)].features for i in picks])


def make_sample(trial, label=0, subject=1, session=1):
    return LabeledSample(
        subject_id=subject,
        session_id=session,
        trial_id=trial,
        time_index=trial,
        features=np.zeros((6, 4)),
        label=label,
    )


# -- snapshot types -----------------------------------------------------------------


def test_snapshot_rejects_empty_half():
    s = make_sample(0)
    with pytest.raises(ProtocolError, match="empty"):
        Snapshot(tag=0, spt=(s,), qry=())


def test_snapshot_rejects_overlapping_halves():
    s = make_sample(0)
    with pytest.raises(ProtocolError, match="overlap"):
        Snapshot(tag=0, spt=(s,), qry=(s,))


def test_snapshot_set_rejects_empty_and_bad_kind():
    s = Snapshot(tag=0, spt=(make_sample(0),), qry=(make_sample(1),))
    with pytest.raises(ProtocolError):
        SnapshotSet(kind="intra", snapshots=())
    with pytest.raises(ConfigError):
        SnapshotSet(kind="cross", snapshots=(s,))


def test_adapt_config_validation():
    with pytest.raises(ConfigError):
        AdaptConfig(n_snapshots=0)
    with pytest.raises(ConfigError):
        AdaptConfig(eta_in=-0.1)
    with pytest.raises(ConfigError):
        AdaptConfig(max_iter=-1)
    with pytest.raises(ConfigError):
        AdaptConfig(kernel="gaussian-auto")
    # zero rates and zero iterations are legal no-op settings
    AdaptConfig(eta_in=0.0, eta_out=0.0, max_iter=0)


@pytest.mark.parametrize("field", ["eta_in", "eta_out"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_adapt_config_rejects_non_finite_rates(field, value):
    with pytest.raises(ConfigError, match=field):
        AdaptConfig(**{field: value})


# -- intra snapshot sampling ----------------------------------------------------------


def test_intra_buckets_partition_the_timeline(pools):
    train, _, _ = pools  # 300 samples, time_index 0..299
    cfg = AdaptConfig(n_snapshots=3, snapshot_size=20)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(0))
    assert len(snaps) == 3
    for i, snap in enumerate(snaps.snapshots):
        times = [s.time_index for s in snap.spt + snap.qry]
        assert all(100 * i <= t < 100 * (i + 1) for t in times)


def test_intra_tags_strictly_increase(pools):
    train, _, _ = pools
    cfg = AdaptConfig(n_snapshots=5, snapshot_size=10)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(1))
    tags = [s.tag for s in snaps.snapshots]
    assert tags == sorted(tags) and len(set(tags)) == len(tags)


def test_intra_half_sizes(pools):
    train, _, _ = pools
    cfg = AdaptConfig(n_snapshots=4, snapshot_size=12)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(2))
    for snap in snaps.snapshots:
        assert len(snap.spt) == 12 and len(snap.qry) == 12


def test_intra_small_bucket_names_it(pools):
    train, _, _ = pools
    cfg = AdaptConfig(n_snapshots=3, snapshot_size=60)  # bucket of 100 < 120 needed
    with pytest.raises(SamplingError, match="bucket 0"):
        sample_snapshots_intra(train, cfg, np.random.default_rng(0))


def test_intra_deterministic_under_rng(pools):
    train, _, _ = pools
    cfg = AdaptConfig(n_snapshots=3, snapshot_size=15)
    key = lambda ss: [
        [(s.trial_id, s.time_index) for s in snap.spt + snap.qry] for snap in ss.snapshots
    ]
    a = sample_snapshots_intra(train, cfg, np.random.default_rng(7))
    b = sample_snapshots_intra(train, cfg, np.random.default_rng(7))
    assert key(a) == key(b)


def test_drift_accumulates_across_buckets(pools):
    # raw-feature distribution distance grows with time separation
    train, _, _ = pools
    cfg = AdaptConfig(n_snapshots=3, snapshot_size=30)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng([0, 50]))
    flat = lambda rows: np.stack([s.features.ravel() for s in rows])
    first = flat(snaps.snapshots[0].spt)
    mid = flat(snaps.snapshots[1].spt)
    last = flat(snaps.snapshots[2].spt)
    spec = default_spec(first, last)
    far = mmd2(Tensor(first), Tensor(last), spec).item()
    near = mmd2(Tensor(first), Tensor(mid), spec).item()
    assert far > near


# -- inter snapshot sampling ----------------------------------------------------------


@pytest.fixture(scope="module")
def multi_subject_pool():
    ds = drifted_dataset(
        seed=3,
        num_subjects=12,
        trials_per_session=3,
        samples_per_trial=10,
        inter_subject_offset_scale=1.0,
    )
    return ds.select(session=1)


def test_inter_one_snapshot_per_subject(multi_subject_pool):
    cfg = AdaptConfig(n_snapshots=12, snapshot_size=10)
    snaps = sample_snapshots_inter(multi_subject_pool, cfg, np.random.default_rng(0))
    assert len(snaps) == 12
    assert [s.tag for s in snaps.snapshots] == list(range(1, 13))


def test_inter_snapshots_are_single_subject(multi_subject_pool):
    cfg = AdaptConfig(n_snapshots=12, snapshot_size=10)
    snaps = sample_snapshots_inter(multi_subject_pool, cfg, np.random.default_rng(0))
    for snap in snaps.snapshots:
        subjects = {s.subject_id for s in snap.spt + snap.qry}
        assert subjects == {snap.tag}


def test_inter_cap_chooses_without_replacement(multi_subject_pool):
    cfg = AdaptConfig(n_snapshots=5, snapshot_size=10)
    a = sample_snapshots_inter(multi_subject_pool, cfg, np.random.default_rng(4))
    b = sample_snapshots_inter(multi_subject_pool, cfg, np.random.default_rng(4))
    tags = [s.tag for s in a.snapshots]
    assert len(tags) == 5 and len(set(tags)) == 5
    assert tags == [s.tag for s in b.snapshots]


def test_inter_insufficient_subject_named(multi_subject_pool):
    cfg = AdaptConfig(n_snapshots=12, snapshot_size=16)  # 30 samples < 32 needed
    with pytest.raises(SamplingError, match="subject 1 "):
        sample_snapshots_inter(multi_subject_pool, cfg, np.random.default_rng(0))


# -- inner loop -----------------------------------------------------------------------


def test_inner_zero_rate_is_exact_noop(pools, model):
    train, _, test = pools
    cfg = AdaptConfig(n_snapshots=2, snapshot_size=10, eta_in=0.0)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(0))
    phi_n = inner_adapt(model, snaps, target_from(test), cfg)
    assert phi_n is not model.phi
    assert phi_n.state_bytes() == model.phi.state_bytes()


def test_inner_leaves_model_parameters_untouched(pools, model):
    train, _, test = pools
    before = model_bytes(model)
    cfg = AdaptConfig(n_snapshots=3, snapshot_size=15, eta_in=1e-2)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(1))
    phi_n = inner_adapt(model, snaps, target_from(test), cfg)
    assert model_bytes(model) == before
    assert phi_n.state_bytes() != model.phi.state_bytes()


def test_inner_accepts_sample_lists_as_target(pools, model):
    train, _, test = pools
    cfg = AdaptConfig(n_snapshots=1, snapshot_size=10, eta_in=1e-3)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(2))
    by_array = inner_adapt(model, snaps, np.stack([s.features for s in test[:20]]), cfg)
    by_list = inner_adapt(model, snaps, list(test[:20]), cfg)
    assert by_array.state_bytes() == by_list.state_bytes()


def test_inner_rejects_empty_target(pools, model):
    train, _, _ = pools
    cfg = AdaptConfig(n_snapshots=1, snapshot_size=10)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(0))
    with pytest.raises(ProtocolError, match="nonempty"):
        inner_adapt(model, snaps, [], cfg)


def test_inner_step_does_not_increase_alignment():
    # one small step on the quantity it optimizes, measured under a fixed kernel
    wins = 0
    trials = 50
    for seed in range(trials):
        ds = drifted_dataset(seed=seed)
        split = make_intra_split(ds, 1)
        train = split.select(ds, "train")
        test = split.select(ds, "test")
        m = create_model(BACKBONE, seed=seed)
        cfg = AdaptConfig(
            n_snapshots=1,
            snapshot_size=30,
            eta_in=1e-2,
            eta_out=0.0,
            kernel=KernelSpec.single(2.0),
        )
        snaps = sample_snapshots_intra(train, cfg, np.random.default_rng([seed, 51]))
        target = target_from(test, seed=seed)
        tgt_enc = adapt_mod._encode_rows(m, target)
        src_enc = adapt_mod._encode_samples(m, snaps.snapshots[0].spt)
        with ad.no_grad():
            before = adapt_mod._pair_loss(src_enc, tgt_enc, m.phi, cfg).item()
        phi_n = inner_adapt(m, snaps, target, cfg)
        with ad.no_grad():
            after = adapt_mod._pair_loss(src_enc, tgt_enc, phi_n, cfg).item()
        wins += after <= before
    assert wins >= 0.9 * trials


# -- outer update ---------------------------------------------------------------------


def test_alignment_loss_nonnegative_and_finite(pools, model):
    train, _, test = pools
    for seed in range(5):
        cfg = AdaptConfig(n_snapshots=3, snapshot_size=12)
        snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(seed))
        value = mean_alignment(model, snaps, target_from(test, seed=seed), cfg)
        assert np.isfinite(value) and value >= 0.0


def test_outer_zero_rate_leaves_adapter(pools, model):
    train, _, test = pools
    cfg = AdaptConfig(n_snapshots=2, snapshot_size=10, eta_in=1e-2, eta_out=0.0)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(0))
    target = target_from(test)
    phi_n = inner_adapt(model, snaps, target, cfg)
    before = model.phi.state_bytes()
    outer_update(model, phi_n, snaps, target, cfg)
    assert model.phi.state_bytes() == before


def test_outer_moves_only_the_adapter(pools):
    train, _, test = pools
    m = create_model(BACKBONE, seed=5)
    cfg = AdaptConfig(n_snapshots=2, snapshot_size=15, eta_in=1e-2, eta_out=1e-2)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(3))
    target = target_from(test)
    theta_before = m.theta.state_bytes()
    w_before = m.w.state_bytes()
    phi_before = m.phi.state_bytes()
    phi_n = inner_adapt(m, snaps, target, cfg)
    outer_update(m, phi_n, snaps, target, cfg)
    assert m.theta.state_bytes() == theta_before
    assert m.w.state_bytes() == w_before
    assert m.phi.state_bytes() != phi_before


def test_outer_rejects_foreign_parameter_table(pools, model):
    train, _, test = pools
    cfg = AdaptConfig(n_snapshots=1, snapshot_size=10)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(0))
    alien = ParamGroup("phi")
    alien.add("other", Tensor(np.zeros((2, 2)), requires_grad=True))
    with pytest.raises(ContractError):
        outer_update(model, alien, snaps, target_from(test), cfg)


# -- full adaptation runs ---------------------------------------------------------------


def test_run_zero_iterations_changes_nothing(pools, model):
    train, _, test = pools
    cfg = AdaptConfig(n_snapshots=2, snapshot_size=10, max_iter=0)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(0))
    before = model_bytes(model)
    evofa_run(model, snaps, target_from(test), cfg)
    assert model_bytes(model) == before


def test_run_zero_rates_change_nothing(pools, model):
    train, _, test = pools
    cfg = AdaptConfig(n_snapshots=2, snapshot_size=10, eta_in=0.0, eta_out=0.0, max_iter=3)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(0))
    before = model_bytes(model)
    evofa_run(model, snaps, target_from(test), cfg)
    assert model_bytes(model) == before


def test_run_freezes_encoder_and_head(pools):
    train, _, test = pools
    m = create_model(BACKBONE, seed=6)
    cfg = AdaptConfig(n_snapshots=3, snapshot_size=15, eta_in=1e-2, eta_out=1e-2, max_iter=2)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(1))
    theta_before = m.theta.state_bytes()
    w_before = m.w.state_bytes()
    evofa_run(m, snaps, target_from(test), cfg)
    assert m.theta.state_bytes() == theta_before
    assert m.w.state_bytes() == w_before


def test_run_deterministic(pools):
    train, _, test = pools
    cfg = AdaptConfig(n_snapshots=2, snapshot_size=12, eta_in=1e-2, eta_out=1e-2)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(4))
    target = target_from(test)
    a = evofa_run(create_model(BACKBONE, seed=7), snaps, target, cfg)
    b = evofa_run(create_model(BACKBONE, seed=7), snaps, target, cfg)
    assert a.phi.state_bytes() == b.phi.state_bytes()


def test_run_calls_snapshot_source_per_iteration(pools, model):
    train, _, test = pools
    cfg = AdaptConfig(n_snapshots=2, snapshot_size=10, eta_in=0.0, eta_out=0.0, max_iter=3)
    calls = []

    def source(it):
        calls.append(it)
        return sample_snapshots_intra(train, cfg, np.random.default_rng([it]))

    evofa_run(model, source, target_from(test), cfg)
    assert calls == [0, 1, 2]


def test_run_reduces_query_alignment():
    for seed in range(5):
        ds = drifted_dataset(seed=seed)
        split = make_intra_split(ds, 1)
        train = split.select(ds, "train")
        test = split.select(ds, "test")
        m = create_model(BACKBONE, seed=seed)
        cfg = AdaptConfig(
            n_snapshots=5,
            snapshot_size=30,
            eta_in=1e-2,
            eta_out=1e-2,
            max_iter=1,
            kernel=KernelSpec.single(2.0),
        )
        snaps = sample_snapshots_intra(train, cfg, np.random.default_rng([seed, 53]))
        target = target_from(test, seed=seed)
        before = mean_alignment(m, snaps, target, cfg)
        evofa_run(m, snaps, target, cfg)
        after = mean_alignment(m, snaps, target, cfg)
        assert after < before


# -- adapted evaluation -----------------------------------------------------------------


@pytest.fixture(scope="module")
def eval_setup(pools):
    train, _, test = pools
    m = create_model(BACKBONE, seed=0)
    ecfg = EvalConfig(episodes=15, way=3, shot=1, queries=10, rng_seed=0)
    return m, train, test, ecfg


def test_eval_noop_config_matches_baseline_exactly(eval_setup):
    m, train, test, ecfg = eval_setup
    base = evofa_test(m, test, train, "intra", ecfg, None)
    noop = evofa_test(
        m, test, train, "intra", ecfg, AdaptConfig(eta_in=0.0, eta_out=0.0, snapshot_size=20)
    )
    frozen = evofa_test(
        m, test, train, "intra", ecfg, AdaptConfig(max_iter=0, snapshot_size=20)
    )
    assert noop.per_episode == base.per_episode
    assert frozen.per_episode == base.per_episode
    assert base.method == "fsl" and noop.method == "fsl+evofa"


def test_eval_restores_adapter(eval_setup):
    m, train, test, ecfg = eval_setup
    before = model_bytes(m)
    evofa_test(
        m,
        test,
        train,
        "intra",
        ecfg,
        AdaptConfig(n_snapshots=3, snapshot_size=20, eta_in=1e-2, eta_out=1e-2),
    )
    assert model_bytes(m) == before


def test_eval_persist_mode_still_restores_on_exit(eval_setup):
    m, train, test, _ = eval_setup
    ecfg = EvalConfig(episodes=5, way=3, shot=1, queries=10, rng_seed=1, persist_adaptation=True)
    before = model_bytes(m)
    report = evofa_test(
        m,
        test,
        train,
        "intra",
        ecfg,
        AdaptConfig(n_snapshots=2, snapshot_size=15, eta_in=1e-2, eta_out=1e-2),
    )
    assert model_bytes(m) == before
    assert report.episodes == 5


def test_eval_report_summary_matches_episodes(eval_setup):
    m, train, test, ecfg = eval_setup
    report = evofa_test(m, test, train, "intra", ecfg, None)
    arr = np.array(report.per_episode)
    assert report.mean_accuracy == pytest.approx(arr.mean(), abs=1e-15)
    assert report.std_accuracy == pytest.approx(arr.std(), abs=1e-15)
    assert len(report.per_episode) == ecfg.episodes
    assert all(0.0 <= a <= 1.0 for a in report.per_episode)


def test_eval_deterministic(eval_setup):
    m, train, test, ecfg = eval_setup
    cfg = AdaptConfig(n_snapshots=2, snapshot_size=15, eta_in=1e-2, eta_out=1e-2)
    a = evofa_test(m, test, train, "intra", ecfg, cfg)
    b = evofa_test(m, test, train, "intra", ecfg, cfg)
    assert a.per_episode == b.per_episode


def test_eval_encodes_each_pool_sample_at_most_once(eval_setup, monkeypatch):
    m, train, test, ecfg = eval_setup
    encoded = []
    original = backbone.encode

    def counting_encode(features, model, mode="eval"):
        encoded.extend(row.tobytes() for row in features.data)
        return original(features, model, mode=mode)

    monkeypatch.setattr(backbone, "encode", counting_encode)
    evofa_test(m, test, train, "intra", ecfg, AdaptConfig(n_snapshots=3, snapshot_size=20))
    assert 0 < len(encoded) <= len(test) + len(train)
    assert len(set(encoded)) == len(encoded)


def test_eval_without_adaptation_matches_classify_query(eval_setup):
    m, train, test, ecfg = eval_setup
    report = evofa_test(m, test, train, "intra", ecfg, None)
    expect = []
    for ep_idx in range(ecfg.episodes):
        rng = np.random.default_rng([ecfg.rng_seed, 10, ep_idx])
        episode = sample_episode(list(test), ecfg.way, ecfg.shot, ecfg.queries, rng)
        with ad.no_grad():
            expect.append(classify_query(episode, m)[1])
    assert report.per_episode == tuple(expect)


def test_eval_rejects_unknown_split(eval_setup):
    m, train, test, ecfg = eval_setup
    with pytest.raises(ConfigError):
        evofa_test(m, test, train, "cross", ecfg, None)


def test_target_features_support_plus_extras(pools):
    _, _, test = pools
    episode = sample_episode(list(test), 3, 1, 10, np.random.default_rng(0))
    used = {
        (s.subject_id, s.session_id, s.trial_id, s.time_index)
        for s in episode.support + episode.query
    }
    cfg = AdaptConfig(target_calibration_size=20)
    samples = adapt_mod._target_samples(episode, list(test), cfg, np.random.default_rng(1))
    target = np.stack([s.features for s in samples])
    assert target.shape == (20, 6, 4)
    support_feats = np.stack([s.features for s in episode.support])
    assert np.array_equal(target[:3], support_feats)
    # the 17 extras all come from outside the episode
    pool_by_feat = {
        s.features.tobytes(): (s.subject_id, s.session_id, s.trial_id, s.time_index)
        for s in test
    }
    for row in target[3:]:
        assert pool_by_feat[row.tobytes()] not in used


def test_target_features_default_is_support_only(pools):
    _, _, test = pools
    episode = sample_episode(list(test), 3, 1, 10, np.random.default_rng(2))
    cfg = AdaptConfig()  # target_calibration_size 0
    target = adapt_mod._target_samples(episode, list(test), cfg, np.random.default_rng(3))
    assert target == list(episode.support)
