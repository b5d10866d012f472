"""Tests for snapshot sampling, adapter alignment updates, and adapted evaluation."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evofa import adapt as adapt_mod
from evofa import autodiff as ad
from evofa import backbone
from evofa.adapt import (
    AdaptConfig,
    EvalConfig,
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
from evofa.backbone import BackboneConfig, create_model, encode_rows
from evofa.data import DriftConfig, generate_synthetic_drift, make_intra_split
from evofa.errors import ConfigError, ContractError, ProtocolError, SamplingError
from evofa.fsl import classify_query, episode_scores, sample_episode
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


def target_from(model, pool, count=30, seed=0):
    """Encoder rows of ``count`` samples drawn from the pool."""
    rng = np.random.default_rng([seed, 90])
    picks = rng.choice(len(pool), size=count, replace=False)
    return encode_rows(model, pool.features[picks])


def rows_of(model, pool):
    return encode_rows(model, pool.features)


# -- config -------------------------------------------------------------------------


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
    draw = sample_snapshots_intra(train, cfg, np.random.default_rng(0))
    assert len(draw) == 3
    for i, stage in enumerate(draw):
        times = train.time[stage.ravel()]
        assert np.all((100 * i <= times) & (times < 100 * (i + 1)))


def test_intra_stages_in_chronological_order(pools):
    train, _, _ = pools
    cfg = AdaptConfig(n_snapshots=5, snapshot_size=10)
    stages = sample_snapshots_intra(train, cfg, np.random.default_rng(1)).reshape(5, -1)
    assert np.all(stages.max(axis=1)[:-1] < stages.min(axis=1)[1:])


def test_intra_half_sizes(pools):
    train, _, _ = pools
    cfg = AdaptConfig(n_snapshots=4, snapshot_size=12)
    draw = sample_snapshots_intra(train, cfg, np.random.default_rng(2))
    assert draw.shape == (4, 2, 12) and draw.dtype == np.int64


def test_intra_small_bucket_names_it(pools):
    train, _, _ = pools
    cfg = AdaptConfig(n_snapshots=3, snapshot_size=60)  # bucket of 100 < 120 needed
    with pytest.raises(SamplingError, match="bucket 0"):
        sample_snapshots_intra(train, cfg, np.random.default_rng(0))


def test_intra_deterministic_under_rng(pools):
    train, _, _ = pools
    cfg = AdaptConfig(n_snapshots=3, snapshot_size=15)
    a = sample_snapshots_intra(train, cfg, np.random.default_rng(7))
    b = sample_snapshots_intra(train, cfg, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_drift_accumulates_across_buckets(pools):
    # raw-feature distribution distance grows with time separation
    train, _, _ = pools
    cfg = AdaptConfig(n_snapshots=3, snapshot_size=30)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng([0, 50]))
    flat = lambda rows: train.features[rows].reshape(len(rows), -1)
    first = flat(snaps[0, 0])
    mid = flat(snaps[1, 0])
    last = flat(snaps[2, 0])
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
    draw = sample_snapshots_inter(multi_subject_pool, cfg, np.random.default_rng(0))
    assert len(draw) == 12
    assert multi_subject_pool.subject[draw[:, 0, 0]].tolist() == list(range(1, 13))


def test_inter_snapshots_are_single_subject(multi_subject_pool):
    cfg = AdaptConfig(n_snapshots=12, snapshot_size=10)
    draw = sample_snapshots_inter(multi_subject_pool, cfg, np.random.default_rng(0))
    for k, stage in enumerate(draw):
        subjects = multi_subject_pool.subject[stage.ravel()]
        assert set(subjects.tolist()) == {k + 1}


def test_inter_cap_chooses_without_replacement(multi_subject_pool):
    cfg = AdaptConfig(n_snapshots=5, snapshot_size=10)
    a = sample_snapshots_inter(multi_subject_pool, cfg, np.random.default_rng(4))
    b = sample_snapshots_inter(multi_subject_pool, cfg, np.random.default_rng(4))
    subjects = multi_subject_pool.subject[a[:, 0, 0]].tolist()
    assert len(subjects) == 5 and len(set(subjects)) == 5
    assert np.array_equal(a, b)


def test_inter_insufficient_subject_named(multi_subject_pool):
    cfg = AdaptConfig(n_snapshots=12, snapshot_size=16)  # 30 samples < 32 needed
    with pytest.raises(SamplingError, match="subject 1 "):
        sample_snapshots_inter(multi_subject_pool, cfg, np.random.default_rng(0))


# -- draw invariants ------------------------------------------------------------------


@pytest.mark.parametrize("sampler", [sample_snapshots_intra, sample_snapshots_inter])
def test_samplers_reject_empty_pool(pools, sampler):
    empty = pools[0].select(subject=99)
    with pytest.raises(SamplingError, match="empty pool"):
        sampler(empty, AdaptConfig(), np.random.default_rng(0))


def assert_disjoint_halves(draw, n, size):
    assert draw.shape == (n, 2, size) and draw.dtype == np.int64
    for stage in draw:  # 2s distinct rows: each half has no repeats, and the halves are disjoint
        assert len(np.unique(stage)) == 2 * size


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_intra_draw_invariants(pools, data, n, seed):
    train, _, _ = pools  # 300 samples in chronological order
    buckets = np.array_split(np.arange(len(train)), n)
    size = data.draw(st.integers(1, min(len(b) for b in buckets) // 2), label="snapshot_size")
    cfg = AdaptConfig(n_snapshots=n, snapshot_size=size)
    draw = sample_snapshots_intra(train, cfg, np.random.default_rng(seed))
    assert_disjoint_halves(draw, n, size)
    for stage, bucket in zip(draw, buckets):
        assert np.all((bucket[0] <= stage) & (stage <= bucket[-1]))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 14), size=st.integers(1, 15), seed=st.integers(0, 2**32 - 1))
def test_inter_draw_invariants(multi_subject_pool, n, size, seed):
    pool = multi_subject_pool  # 12 subjects of 30 samples each
    cfg = AdaptConfig(n_snapshots=n, snapshot_size=size)
    draw = sample_snapshots_inter(pool, cfg, np.random.default_rng(seed))
    stages = min(n, 12)
    assert_disjoint_halves(draw, stages, size)
    subjects = pool.subject[draw]
    assert np.all(subjects == subjects[:, :1, :1])  # one subject per stage
    order = subjects[:, 0, 0].tolist()
    assert order == sorted(set(order))  # distinct, ascending
    if n >= 12:
        assert order == list(range(1, 13))


@pytest.mark.parametrize("half", [0, 1])
@pytest.mark.parametrize("kind", ["intra", "inter"])
def test_stage_rows_of_a_stack_equal_each_draw_alone(pools, multi_subject_pool, model, kind, half):
    train = pools[0] if kind == "intra" else multi_subject_pool
    sampler = sample_snapshots_intra if kind == "intra" else sample_snapshots_inter
    cfg = AdaptConfig(n_snapshots=3, snapshot_size=10)
    train_rows = rows_of(model, train)
    draws = [sampler(train, cfg, np.random.default_rng(g)) for g in range(5)]
    stacked = adapt_mod._stage_rows(train_rows, np.stack(draws), half)
    assert len(stacked) == 3
    for k, rows in enumerate(stacked):
        assert rows.shape == (5, 10, model.config.embedding_dim)
        for g, draw in enumerate(draws):
            alone = adapt_mod._stage_rows(train_rows, draw, half)[k]
            assert alone.tobytes() == train_rows[draw[k, half]].tobytes()
            assert rows[g].tobytes() == alone.tobytes()


# -- inner loop -----------------------------------------------------------------------


def test_inner_zero_rate_is_exact_noop(pools, model):
    train, _, test = pools
    cfg = AdaptConfig(n_snapshots=2, snapshot_size=10, eta_in=0.0)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(0))
    phi_n = inner_adapt(model.phi, rows_of(model, train), snaps, target_from(model, test), cfg)
    assert phi_n is not model.phi
    assert phi_n.state_bytes() == model.phi.state_bytes()


def test_inner_leaves_the_given_adapter_untouched(pools, model):
    train, _, test = pools
    before = model.phi.state_bytes()
    cfg = AdaptConfig(n_snapshots=3, snapshot_size=15, eta_in=1e-2)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(1))
    phi_n = inner_adapt(model.phi, rows_of(model, train), snaps, target_from(model, test), cfg)
    assert model.phi.state_bytes() == before
    assert phi_n.state_bytes() != before


def test_inner_pool_rows_equal_rows_encoded_alone(pools, model):
    # pool rows encoded in batches of 64 step the adapter exactly as rows encoded alone
    train, _, test = pools
    cfg = AdaptConfig(n_snapshots=1, snapshot_size=10, eta_in=1e-3)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(2))
    spt = snaps[0, 0]
    alone = np.zeros((len(train), model.config.embedding_dim))
    alone[spt] = np.concatenate([encode_rows(model, train.features[[i]]) for i in spt])
    target = rows_of(model, test)[:20]
    by_pool = inner_adapt(model.phi, rows_of(model, train), snaps, target, cfg)
    by_one = inner_adapt(model.phi, alone, snaps, target, cfg)
    assert by_pool.state_bytes() == by_one.state_bytes()


def test_inner_rejects_empty_target(pools, model):
    train, _, _ = pools
    cfg = AdaptConfig(n_snapshots=1, snapshot_size=10)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(0))
    empty = np.zeros((0, model.config.embedding_dim))
    with pytest.raises(ProtocolError, match="nonempty"):
        inner_adapt(model.phi, rows_of(model, train), snaps, empty, cfg)


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
        target = target_from(m, test, seed=seed)
        train_rows = rows_of(m, train)
        src_enc = train_rows[snaps[0, 0]]
        with ad.no_grad():
            before = adapt_mod.alignment_loss(m.phi, [src_enc], target, cfg.kernel).item()
        phi_n = inner_adapt(m.phi, train_rows, snaps, target, cfg)
        with ad.no_grad():
            after = adapt_mod.alignment_loss(phi_n, [src_enc], target, cfg.kernel).item()
        wins += after <= before
    assert wins >= 0.9 * trials


# -- outer update ---------------------------------------------------------------------


def test_alignment_loss_nonnegative_and_finite(pools, model):
    train, _, test = pools
    for seed in range(5):
        cfg = AdaptConfig(n_snapshots=3, snapshot_size=12)
        snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(seed))
        target = target_from(model, test, seed=seed)
        value = mean_alignment(model.phi, rows_of(model, train), snaps, target, cfg)
        assert np.isfinite(value) and value >= 0.0
        stages = adapt_mod._stage_rows(rows_of(model, train), snaps, 1)
        phi_value = alignment_loss(model.phi, stages, target, cfg.kernel).item()
        assert phi_value == value


def test_outer_zero_rate_leaves_adapter(pools, model):
    train, _, test = pools
    cfg = AdaptConfig(n_snapshots=2, snapshot_size=10, eta_in=1e-2, eta_out=0.0)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(0))
    target, train_rows = target_from(model, test), rows_of(model, train)
    phi_n = inner_adapt(model.phi, train_rows, snaps, target, cfg)
    before = model.phi.state_bytes()
    outer_update(model.phi, phi_n, train_rows, snaps, target, cfg)
    assert model.phi.state_bytes() == before


def test_outer_moves_the_adapter(pools):
    train, _, test = pools
    m = create_model(BACKBONE, seed=5)
    cfg = AdaptConfig(n_snapshots=2, snapshot_size=15, eta_in=1e-2, eta_out=1e-2)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(3))
    target, train_rows = target_from(m, test), rows_of(m, train)
    phi_before = m.phi.state_bytes()
    phi_n = inner_adapt(m.phi, train_rows, snaps, target, cfg)
    outer_update(m.phi, phi_n, train_rows, snaps, target, cfg)
    assert m.phi.state_bytes() != phi_before


def test_outer_rejects_foreign_parameter_table(pools, model):
    train, _, test = pools
    cfg = AdaptConfig(n_snapshots=1, snapshot_size=10)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(0))
    alien = ParamGroup("phi")
    alien.add("other", Tensor(np.zeros((2, 2)), requires_grad=True))
    with pytest.raises(ContractError):
        outer_update(model.phi, alien, rows_of(model, train), snaps, target_from(model, test), cfg)


def test_outer_rejects_stacked_inner_result_for_plain_adapter(pools, model):
    # the names agree, so only the gradient's shape can stop a broadcast into [G x ...] weights
    train, _, test = pools
    cfg = AdaptConfig(n_snapshots=2, snapshot_size=10)
    rng = np.random.default_rng(0)
    snaps = np.stack([sample_snapshots_intra(train, cfg, rng) for _ in range(4)])
    target = np.stack([target_from(model, test, seed=g) for g in range(4)])
    m = model.copy()
    before = m.phi.state_bytes()
    stacked = adapt_mod._stack_adapter(m.phi, 4)
    with pytest.raises(ContractError, match=r"parameter phi/fc1_w has gradient shape \(4, 16, 32\)"):
        outer_update(m.phi, stacked, rows_of(m, train), snaps, target, cfg)
    assert [t.shape for t in m.phi.tensors()] == [t.shape for t in model.phi.tensors()]
    assert m.phi.state_bytes() == before


def nan_gradient_mmd2(x, y, spec):
    """mmd2 with its true, finite value and an all-NaN gradient."""
    out = mmd2(x, y, spec)
    grad_fn = out._grad_fn
    out._grad_fn = lambda g: tuple(np.full_like(part, np.nan) for part in grad_fn(g))
    return out


def test_inner_step_rejects_non_finite_gradient(pools, model, monkeypatch):
    train, _, test = pools
    cfg = AdaptConfig(n_snapshots=2, snapshot_size=10)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(0))
    before = model_bytes(model)
    monkeypatch.setattr(adapt_mod, "mmd2", nan_gradient_mmd2)
    with pytest.raises(ContractError, match=r"parameter phi/\w+ has a non-finite gradient"):
        inner_adapt(model.phi, rows_of(model, train), snaps, target_from(model, test), cfg)
    assert model_bytes(model) == before


def test_outer_step_rejects_non_finite_gradient(pools, model, monkeypatch):
    train, _, test = pools
    cfg = AdaptConfig(n_snapshots=2, snapshot_size=10)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(0))
    m = model.copy()
    target, train_rows = target_from(m, test), rows_of(m, train)
    phi_n = inner_adapt(m.phi, train_rows, snaps, target, cfg)
    before = m.phi.state_bytes()
    monkeypatch.setattr(adapt_mod, "mmd2", nan_gradient_mmd2)
    with pytest.raises(ContractError, match=r"parameter phi/\w+ has a non-finite gradient"):
        outer_update(m.phi, phi_n, train_rows, snaps, target, cfg)
    assert m.phi.state_bytes() == before


# -- full adaptation runs ---------------------------------------------------------------


def spy_on_steps(monkeypatch):
    """The draws ``inner_adapt`` and ``outer_update`` receive, in call order."""
    seen = {"inner": [], "outer": []}
    real_inner, real_outer = adapt_mod.inner_adapt, adapt_mod.outer_update

    def inner(phi, train_rows, draw, *args):
        seen["inner"].append(draw)
        return real_inner(phi, train_rows, draw, *args)

    def outer(phi, phi_n, train_rows, draw, *args):
        seen["outer"].append(draw)
        return real_outer(phi, phi_n, train_rows, draw, *args)

    monkeypatch.setattr(adapt_mod, "inner_adapt", inner)
    monkeypatch.setattr(adapt_mod, "outer_update", outer)
    return seen


def test_run_over_no_rounds_leaves_phi_and_takes_no_step(pools, model, monkeypatch):
    train, _, test = pools
    cfg = AdaptConfig(n_snapshots=2, snapshot_size=10, eta_in=0.5, eta_out=0.5)
    phi = model.phi.copy()
    seen = spy_on_steps(monkeypatch)
    assert evofa_run(phi, rows_of(model, train), [], target_from(model, test), cfg) is phi
    assert phi.state_bytes() == model.phi.state_bytes()
    assert seen == {"inner": [], "outer": []}


def test_run_zero_rates_change_nothing(pools, model):
    train, _, test = pools
    cfg = AdaptConfig(n_snapshots=2, snapshot_size=10, eta_in=0.0, eta_out=0.0, max_iter=3)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(0))
    phi = model.phi.copy()
    evofa_run(phi, rows_of(model, train), [snaps] * cfg.max_iter, target_from(model, test), cfg)
    assert phi.state_bytes() == model.phi.state_bytes()


def test_run_deterministic(pools):
    train, _, test = pools
    cfg = AdaptConfig(n_snapshots=2, snapshot_size=12, eta_in=1e-2, eta_out=1e-2)
    snaps = sample_snapshots_intra(train, cfg, np.random.default_rng(4))
    m = create_model(BACKBONE, seed=7)
    target, train_rows = target_from(m, test), rows_of(m, train)
    a = evofa_run(m.phi, train_rows, [snaps], target, cfg)
    b = evofa_run(create_model(BACKBONE, seed=7).phi, train_rows, [snaps], target, cfg)
    assert a.state_bytes() == b.state_bytes()


def test_run_hands_each_draw_to_both_steps_in_order(pools, model, monkeypatch):
    train, _, test = pools
    cfg = AdaptConfig(n_snapshots=2, snapshot_size=10, eta_in=1e-2, eta_out=1e-2)
    draws = [sample_snapshots_intra(train, cfg, np.random.default_rng([it])) for it in range(3)]
    seen = spy_on_steps(monkeypatch)
    evofa_run(model.phi.copy(), rows_of(model, train), draws, target_from(model, test), cfg)
    assert [id(d) for d in seen["inner"]] == [id(d) for d in draws]
    assert [id(d) for d in seen["outer"]] == [id(d) for d in draws]


def test_run_over_two_draws_equals_two_one_draw_runs(pools, model):
    train, _, test = pools
    cfg = AdaptConfig(n_snapshots=2, snapshot_size=10, eta_in=0.05, eta_out=0.05)
    d0, d1 = (sample_snapshots_intra(train, cfg, np.random.default_rng([it, 5])) for it in range(2))
    target, train_rows = target_from(model, test), rows_of(model, train)
    both = evofa_run(model.phi.copy(), train_rows, [d0, d1], target, cfg)
    one_by_one = evofa_run(model.phi.copy(), train_rows, [d0], target, cfg)
    evofa_run(one_by_one, train_rows, [d1], target, cfg)
    assert both.state_bytes() == one_by_one.state_bytes() != model.phi.state_bytes()


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
        target, train_rows = target_from(m, test, seed=seed), rows_of(m, train)
        before = mean_alignment(m.phi, train_rows, snaps, target, cfg)
        evofa_run(m.phi, train_rows, [snaps] * cfg.max_iter, target, cfg)
        after = mean_alignment(m.phi, train_rows, snaps, target, cfg)
        assert after < before


# -- adapted evaluation -----------------------------------------------------------------


@pytest.fixture(scope="module")
def eval_setup(pools):
    """Model, pools, eval config and the pools' encoder rows, each pool encoded once."""
    train, _, test = pools
    m = create_model(BACKBONE, seed=0)
    ecfg = EvalConfig(episodes=15, way=3, shot=1, queries=10, rng_seed=0)
    rows = {"test_rows": rows_of(m, test), "train_rows": rows_of(m, train)}
    return m, train, test, ecfg, rows


def test_eval_noop_config_matches_baseline_exactly(eval_setup):
    m, train, test, ecfg, rows = eval_setup
    base = evofa_test(m, test, train, "intra", ecfg, None, **rows)
    noop = evofa_test(
        m, test, train, "intra", ecfg, AdaptConfig(eta_in=0.0, eta_out=0.0, snapshot_size=20), **rows
    )
    frozen = evofa_test(
        m, test, train, "intra", ecfg, AdaptConfig(max_iter=0, snapshot_size=20), **rows
    )
    assert noop.per_episode == base.per_episode
    assert frozen.per_episode == base.per_episode
    assert base.method == "fsl" and noop.method == "fsl+evofa"


def test_eval_restores_adapter(eval_setup):
    m, train, test, ecfg, rows = eval_setup
    before = model_bytes(m)
    evofa_test(
        m,
        test,
        train,
        "intra",
        ecfg,
        AdaptConfig(n_snapshots=3, snapshot_size=20, eta_in=1e-2, eta_out=1e-2),
        **rows,
    )
    assert model_bytes(m) == before


def test_eval_persist_mode_still_restores_on_exit(eval_setup):
    m, train, test, _, rows = eval_setup
    ecfg = EvalConfig(episodes=5, way=3, shot=1, queries=10, rng_seed=1, persist_adaptation=True)
    before = model_bytes(m)
    report = evofa_test(
        m,
        test,
        train,
        "intra",
        ecfg,
        AdaptConfig(n_snapshots=2, snapshot_size=15, eta_in=1e-2, eta_out=1e-2),
        **rows,
    )
    assert model_bytes(m) == before
    assert report.episodes == 5


def test_eval_report_summary_matches_episodes(eval_setup):
    m, train, test, ecfg, rows = eval_setup
    report = evofa_test(m, test, train, "intra", ecfg, None, **rows)
    arr = np.array(report.per_episode)
    assert report.mean_accuracy == pytest.approx(arr.mean(), abs=1e-15)
    assert report.std_accuracy == pytest.approx(arr.std(), abs=1e-15)
    assert len(report.per_episode) == ecfg.episodes
    assert all(0.0 <= a <= 1.0 for a in report.per_episode)


def test_eval_deterministic(eval_setup):
    m, train, test, ecfg, rows = eval_setup
    cfg = AdaptConfig(n_snapshots=2, snapshot_size=15, eta_in=1e-2, eta_out=1e-2)
    a = evofa_test(m, test, train, "intra", ecfg, cfg, **rows)
    b = evofa_test(m, test, train, "intra", ecfg, cfg, **rows)
    assert a.per_episode == b.per_episode


def test_eval_runs_no_encoder(eval_setup, monkeypatch):
    """evofa_test only indexes the encoder rows it is given."""
    m, train, test, ecfg, rows = eval_setup
    encoded = []
    original = backbone.encode

    def counting_encode(features, model, mode="eval"):
        encoded.append(features.shape[0])
        return original(features, model, mode=mode)

    monkeypatch.setattr(backbone, "encode", counting_encode)
    evofa_test(m, test, train, "intra", ecfg, AdaptConfig(n_snapshots=3, snapshot_size=20), **rows)
    evofa_test(m, test, train, "intra", ecfg, None, test_rows=rows["test_rows"])
    assert encoded == []


def test_eval_without_adaptation_matches_classify_query(eval_setup):
    m, train, test, ecfg, rows = eval_setup
    report = evofa_test(m, test, train, "intra", ecfg, None, **rows)
    expect = []
    for ep_idx in range(ecfg.episodes):
        rng = np.random.default_rng([ecfg.rng_seed, 10, ep_idx])
        episode = sample_episode(test, ecfg.way, ecfg.shot, ecfg.queries, rng)
        with ad.no_grad():  # the episode's own features, encoded in one batch
            scores, targets = episode_scores(test, episode, m, mode="eval")
        expect.append(float(np.mean(np.argmax(scores.data, axis=1) == targets)))
    assert report.per_episode == tuple(expect)


def test_eval_rejects_unknown_split(eval_setup):
    m, train, test, ecfg, rows = eval_setup
    with pytest.raises(ConfigError):
        evofa_test(m, test, train, "cross", ecfg, None, **rows)


def test_target_features_support_plus_extras(pools):
    _, _, test = pools
    episode = sample_episode(test, 3, 1, 10, np.random.default_rng(0))
    cfg = AdaptConfig(target_calibration_size=20)
    target = adapt_mod._target_indices(test, episode, cfg, np.random.default_rng(1))
    assert target.shape == (20,)
    assert np.array_equal(target[:3], episode[0].ravel())
    # the 17 extras are distinct pool rows from outside the episode
    extras = target[3:]
    assert len(set(extras.tolist())) == 17
    assert np.all((0 <= extras) & (extras < len(test)))
    assert not np.intersect1d(extras, np.concatenate([episode[0], episode[1]], axis=1)).size


def test_target_features_default_is_support_only(pools):
    _, _, test = pools
    episode = sample_episode(test, 3, 1, 10, np.random.default_rng(2))
    cfg = AdaptConfig()  # target_calibration_size 0
    target = adapt_mod._target_indices(test, episode, cfg, np.random.default_rng(3))
    assert np.array_equal(target, episode[0].ravel())


# -- episode groups against the per-episode reference ------------------------------------


def per_episode_reference(model, test, train, kind, ecfg, acfg):
    """Accuracies and adapted adapters of the episode-at-a-time loop on 2-D rows."""
    sampler = sample_snapshots_intra if kind == "intra" else sample_snapshots_inter
    test_rows, train_rows = rows_of(model, test), rows_of(model, train)
    phi = model.phi.copy()
    accuracies, phis = [], []
    for ep_idx in range(ecfg.episodes):
        if not ecfg.persist_adaptation:
            phi = model.phi.copy()
        rng = np.random.default_rng([ecfg.rng_seed, 10, ep_idx])
        episode = sample_episode(test, ecfg.way, ecfg.shot, ecfg.queries, rng)
        rng = np.random.default_rng([ecfg.rng_seed, 11, ep_idx])
        target = adapt_mod._target_indices(test, episode, acfg, rng)
        rounds = [
            sampler(train, acfg, np.random.default_rng([ecfg.rng_seed, 12, ep_idx, it]))
            for it in range(acfg.max_iter)
        ]
        evofa_run(phi, train_rows, rounds, test_rows[target], acfg)
        accuracies.append(classify_query(episode, model, test_rows, phi)[1])
        phis.append(phi.copy())
    return tuple(accuracies), phis


def grouped_run(monkeypatch, model, test, train, kind, ecfg, acfg):
    """evofa_test's report plus the adapted adapter of every episode, slice by slice."""
    phis = []
    real_run = adapt_mod.evofa_run

    def recording_run(stacked, *args):
        real_run(stacked, *args)
        slices = stacked.entries[0][1].shape[0]
        phis.extend(adapt_mod._slice_adapter(stacked, k) for k in range(slices))
        return stacked

    monkeypatch.setattr(adapt_mod, "evofa_run", recording_run)
    rows = {"test_rows": rows_of(model, test), "train_rows": rows_of(model, train)}
    return evofa_test(model, test, train, kind, ecfg, acfg, **rows), phis


# case: (split kind, EvalConfig fields, AdaptConfig fields)
GROUP_CASES = {
    "intra-shot1": ("intra", dict(shot=1), dict(n_snapshots=3, target_calibration_size=20)),
    "intra-shot5": ("intra", dict(shot=5), dict(n_snapshots=2)),
    "inter-shot1": ("inter", dict(shot=1), dict(n_snapshots=4, snapshot_size=8, target_calibration_size=12)),
    "inter-shot5": ("inter", dict(shot=5), dict(n_snapshots=3, snapshot_size=8)),
    "supply-shortfall": ("intra", dict(shot=1), dict(n_snapshots=2, target_calibration_size=10_000)),
    "persist": ("intra", dict(shot=1, persist_adaptation=True), dict(n_snapshots=2)),
    "eta-0.5": ("intra", dict(shot=1), dict(n_snapshots=2, eta_in=0.5, eta_out=0.5, max_iter=2)),
}


@pytest.mark.parametrize("case", list(GROUP_CASES))
def test_episode_groups_equal_per_episode_reference(case, pools, multi_subject_pool, monkeypatch):
    kind, eval_kw, adapt_kw = GROUP_CASES[case]
    _, _, test = pools
    train = pools[0] if kind == "intra" else multi_subject_pool
    model = create_model(BACKBONE, seed=3)
    # not a multiple of the group size, so the last group is partial
    ecfg = EvalConfig(episodes=adapt_mod.EPISODE_GROUP + 3, way=3, queries=4, rng_seed=2, **eval_kw)
    acfg = AdaptConfig(**{"eta_in": 0.05, "eta_out": 0.05, "snapshot_size": 10, **adapt_kw})
    report, phis = grouped_run(monkeypatch, model, test, train, kind, ecfg, acfg)
    want_acc, want_phis = per_episode_reference(model, test, train, kind, ecfg, acfg)
    assert report.per_episode == want_acc
    assert len(phis) == len(want_phis) == ecfg.episodes
    for got, want in zip(phis, want_phis):
        for (name, g), (_, w) in zip(got.entries, want.entries):
            assert np.max(np.abs(g.data.reshape(w.shape) - w.data)) <= 1e-15, name
    moved = max(np.abs(p.entries[0][1].data - model.phi.entries[0][1].data).max() for p in want_phis)
    assert moved > 1e-6  # the adapters really moved


def test_adapted_group_peak_memory_below_stacked_pair_buffers(pools, model):
    """One adapted group of the demo's shape (62 pooled points, 16 dims) under tracemalloc.

    D^2 is built slice by slice; the pair buffers of a whole stack at once
    (two gathers and their difference, [G x 1891 x 16] each) would alone
    exceed the bound.
    """
    train, _, test = pools
    group = adapt_mod.EPISODE_GROUP
    acfg = AdaptConfig(n_snapshots=3, snapshot_size=32)
    train_rows, test_rows = rows_of(model, train), rows_of(model, test)
    draws = np.stack([sample_snapshots_intra(train, acfg, np.random.default_rng(k)) for k in range(group)])
    picks = [np.random.default_rng(k).choice(len(test), 30, replace=False) for k in range(group)]
    targets = test_rows[np.stack(picks)]
    stacked = lambda: adapt_mod._stack_adapter(model.phi, group)
    evofa_run(stacked(), train_rows, [draws], targets, acfg)  # warm caches
    tracemalloc.start()
    try:
        evofa_run(stacked(), train_rows, [draws], targets, acfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs = 62 * 61 // 2
    bound = 3 * group * pairs * 16 * 8
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"
