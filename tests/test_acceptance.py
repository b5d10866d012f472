"""Acceptance gate: ten end-to-end checks, one `pytest -v` line per check.

Each test is a self-contained go/no-go check at its stated tolerance. The
suite is slow by design (a few minutes): it trains and evaluates real models
rather than unit-scale stubs. The thresholds are the product contract; a red
line means the property failed, not that a threshold needs loosening.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import evofa.adapt as adapt_mod
import evofa.autodiff as ad
from evofa.adapt import (
    AdaptConfig,
    EvalConfig,
    evofa_run,
    evofa_test,
    inner_adapt,
    mean_alignment,
    sample_snapshots_intra,
)
from evofa import backbone
from evofa.autodiff import BatchNormState, ParamGroup, Tensor, finite_diff_check
from evofa.backbone import BackboneConfig, create_model, encode_rows
from evofa.checkpoint import load_checkpoint, save_checkpoint
from evofa.data import DriftConfig, generate_synthetic_drift, make_intra_split
from evofa.fsl import (
    SupervisedConfig,
    TrainConfig,
    classify_pool,
    episode_loss,
    meta_train,
    sample_episode,
    train_supervised_baseline,
)
from evofa.harness import ExperimentConfig, derive_seed, run_protocol
from evofa.mmd import KernelSpec, mmd2

pytestmark = pytest.mark.slow

WIDE = BackboneConfig(
    n_electrodes=6,
    d_bands=4,
    conv_channels=(8, 8, 8, 16),
    embedding_dim=16,
    adapter_hidden=32,
)

TINY = BackboneConfig(
    n_electrodes=4,
    d_bands=3,
    conv_channels=(2, 2, 2, 4),
    embedding_dim=4,
    adapter_hidden=8,
)


def synthetic_pools(sep: float, drift: float, seed: int, schema: str = "wide"):
    wide = schema == "wide"
    ds = generate_synthetic_drift(
        DriftConfig(
            num_subjects=1,
            num_sessions=3,
            trials_per_session=15 if wide else 6,
            samples_per_trial=20 if wide else 10,
            num_classes=3,
            n_electrodes=6 if wide else 4,
            d_bands=4 if wide else 3,
            class_separation=sep,
            intra_drift_rate=drift,
            inter_subject_offset_scale=0.0,
            noise_std=1.0,
            rng_seed=seed,
        )
    )
    split = make_intra_split(ds, 1)
    return tuple(split.select(ds, part) for part in ("train", "val", "test"))


def target_rows(model, pool, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 90])
    picks = rng.choice(len(pool), size=count, replace=False)
    return encode_rows(model, pool.features[picks])


def pool_rows(model, test, train=None) -> dict:
    """evofa_test's row arguments: each pool encoded once, the train pool only if given."""
    rows = {"test_rows": encode_rows(model, test.features)}
    if train is not None:
        rows["train_rows"] = encode_rows(model, train.features)
    return rows


# -- 1. gradient correctness ----------------------------------------------------------


def _leaf(rng, shape, kind="plain") -> Tensor:
    data = rng.normal(size=shape)
    if kind == "positive":
        data = np.abs(data) + 0.5
    elif kind == "apart":
        # keep inputs away from relu / clamp kinks so central differences are valid
        data = data + 0.3 * np.where(data >= 0.0, 1.0, -1.0)
    return Tensor(data, requires_grad=True)


def _dot(t: Tensor, w: np.ndarray) -> Tensor:
    return ad.tensor_sum(ad.mul(t, Tensor(w)))


def _op_variants():
    variants = []

    def variant(name):
        def register(build):
            variants.append((name, build))
            return build

        return register

    def unary(name, op, kind="plain", shape=(3, 4)):
        @variant(name)
        def _(rng):
            x = _leaf(rng, shape, kind)
            w = rng.normal(size=shape)
            return (lambda _: _dot(op(x), w)), [x]

    @variant("add")
    def _(rng):
        a, b = _leaf(rng, (3, 4)), _leaf(rng, (4,))
        w = rng.normal(size=(3, 4))
        return (lambda _: _dot(ad.add(a, b), w)), [a, b]

    @variant("sub")
    def _(rng):
        a, b = _leaf(rng, (3, 4)), _leaf(rng, (3, 4))
        w = rng.normal(size=(3, 4))
        return (lambda _: _dot(ad.sub(a, b), w)), [a, b]

    @variant("mul")
    def _(rng):
        a, b = _leaf(rng, (3, 4)), _leaf(rng, (4,))
        w = rng.normal(size=(3, 4))
        return (lambda _: _dot(ad.mul(a, b), w)), [a, b]

    @variant("div")
    def _(rng):
        a, b = _leaf(rng, (3, 4)), _leaf(rng, (3, 4), "positive")
        w = rng.normal(size=(3, 4))
        return (lambda _: _dot(ad.div(a, b), w)), [a, b]

    unary("neg", ad.neg)
    unary("power_square", lambda t: ad.power(t, 2.0))
    unary("power_sqrt", lambda t: ad.power(t, 0.5), kind="positive")
    unary("exp", ad.exp)
    unary("log", ad.log, kind="positive")
    unary("relu", ad.relu, kind="apart")
    unary("sigmoid", ad.sigmoid)
    unary("clamp_min", lambda t: ad.clamp_min(t, 0.0), kind="apart")

    @variant("reshape")
    def _(rng):
        x = _leaf(rng, (2, 3, 4))
        w = rng.normal(size=(4, 6))
        return (lambda _: _dot(ad.reshape(x, (4, 6)), w)), [x]

    @variant("transpose")
    def _(rng):
        x = _leaf(rng, (2, 3, 4))
        w = rng.normal(size=(3, 2, 4))
        return (lambda _: _dot(ad.transpose(x, (1, 0, 2)), w)), [x]

    @variant("concat")
    def _(rng):
        parts = [_leaf(rng, (2, 3)), _leaf(rng, (1, 3)), _leaf(rng, (4, 3))]
        w = rng.normal(size=(7, 3))
        return (lambda _: _dot(ad.concat(parts, axis=0), w)), parts

    @variant("take_slice")
    def _(rng):
        x = _leaf(rng, (4, 5))
        w = rng.normal(size=(2, 5))
        return (lambda _: _dot(ad.take(x, (slice(1, 3),)), w)), [x]

    @variant("take_gather")
    def _(rng):
        # repeated index: the backward pass must scatter-add
        x = _leaf(rng, (4, 5))
        w = rng.normal(size=(4, 5))
        return (lambda _: _dot(ad.take(x, np.array([0, 2, 1, 0])), w)), [x]

    @variant("sum_axes")
    def _(rng):
        x = _leaf(rng, (2, 3, 4))
        w = rng.normal(size=(1, 3, 1))
        return (lambda _: _dot(ad.tensor_sum(x, axis=(0, 2), keepdims=True), w)), [x]

    @variant("mean_all")
    def _(rng):
        x = _leaf(rng, (3, 4))
        w = rng.normal(size=(3, 4))
        return (lambda _: ad.tensor_mean(ad.mul(x, Tensor(w)))), [x]

    @variant("mean_axes")
    def _(rng):
        x = _leaf(rng, (2, 3, 4))
        w = rng.normal(size=(2,))
        return (lambda _: _dot(ad.tensor_mean(x, axis=(1, 2)), w)), [x]

    @variant("matmul")
    def _(rng):
        a, b = _leaf(rng, (3, 4)), _leaf(rng, (4, 2))
        w = rng.normal(size=(3, 2))
        return (lambda _: _dot(ad.matmul(a, b), w)), [a, b]

    @variant("matmul_batched")
    def _(rng):
        a, b = _leaf(rng, (2, 3, 4)), _leaf(rng, (2, 4, 2))
        w = rng.normal(size=(2, 3, 2))
        return (lambda _: _dot(ad.matmul(a, b), w)), [a, b]

    @variant("sq_euclidean_pairwise")
    def _(rng):
        a, b = _leaf(rng, (4, 3)), _leaf(rng, (5, 3))
        w = rng.normal(size=(4, 5))
        return (lambda _: _dot(ad.sq_euclidean_pairwise(a, b), w)), [a, b]

    @variant("softmax")
    def _(rng):
        x = _leaf(rng, (3, 5))
        w = rng.normal(size=(3, 5))
        return (lambda _: _dot(ad.softmax(x, axis=-1), w)), [x]

    @variant("log_softmax")
    def _(rng):
        x = _leaf(rng, (3, 5))
        w = rng.normal(size=(3, 5))
        return (lambda _: _dot(ad.log_softmax(x, axis=-1), w)), [x]

    @variant("conv2d_padded")
    def _(rng):
        x, k = _leaf(rng, (2, 3, 4, 4)), _leaf(rng, (5, 3, 3, 3))
        w = rng.normal(size=(2, 5, 4, 4))
        return (lambda _: _dot(ad.conv2d(x, k, 1, 1), w)), [x, k]

    @variant("conv2d_strided")
    def _(rng):
        x, k = _leaf(rng, (1, 2, 6, 6)), _leaf(rng, (3, 2, 2, 2))
        w = rng.normal(size=(1, 3, 3, 3))
        return (lambda _: _dot(ad.conv2d(x, k, 2, 0), w)), [x, k]

    @variant("bias_bn_relu_train")
    def _(rng):
        x = _leaf(rng, (6, 3, 2, 2))
        b, gamma, beta = _leaf(rng, (3,)), _leaf(rng, (3,), "positive"), _leaf(rng, (3,))
        w = rng.normal(size=(6, 3, 2, 2))

        def f(_):
            # fresh state per call: train mode normalizes by batch statistics,
            # so mutating the running buffers never changes the value
            state = BatchNormState.create(3)
            return _dot(ad.bias_bn_relu(x, b, gamma, beta, state, "train"), w)

        return f, [x, b, gamma, beta]

    @variant("bias_bn_relu_eval")
    def _(rng):
        x = _leaf(rng, (6, 3, 2, 2))
        b, gamma, beta = _leaf(rng, (3,)), _leaf(rng, (3,), "positive"), _leaf(rng, (3,))
        state = BatchNormState(rng.normal(size=3), np.abs(rng.normal(size=3)) + 0.5, 0.1, 1e-5)
        w = rng.normal(size=(6, 3, 2, 2))
        return (lambda _: _dot(ad.bias_bn_relu(x, b, gamma, beta, state, "eval"), w)), [x, b, gamma, beta]

    @variant("conv_block_eval")
    def _(rng):
        # the folded block that eval-mode encode (and so encode_rows) runs; a signed
        # gamma flips the sign of its channel's kernel scale
        x, k = _leaf(rng, (2, 3, 4, 4)), _leaf(rng, (4, 3, 3, 3))
        b, gamma, beta = _leaf(rng, (4,)), _leaf(rng, (4,)), _leaf(rng, (4,))
        theta = ParamGroup("theta", [("conv0_w", k), ("conv0_b", b), ("bn0_gamma", gamma), ("bn0_beta", beta)])
        state = BatchNormState(rng.normal(size=4), np.abs(rng.normal(size=4)) + 0.5, 0.1, 1e-5)
        w = rng.normal(size=(2, 4, 4, 4))
        return (lambda _: _dot(backbone._conv_block(x, theta, 0, state, "eval"), w)), [x, k, b, gamma, beta]

    return variants


def _composite_error(pool, head: str, seed: int) -> float:
    rng = np.random.default_rng([107, seed])
    model = create_model(replace(TINY, head_kind=head), seed=seed)
    params = [t for g in model.groups() for t in g.tensors()]
    # evaluate at a generic point: freshly initialized nets can sit exactly on
    # relu kinks (or go fully dead), where subgradients and central differences
    # legitimately disagree
    for t in params:
        t.data += 0.05 * rng.normal(size=t.data.shape)
    episode = sample_episode(pool, way=3, shot=1, queries=2, rng=rng)
    return finite_diff_check(lambda _: episode_loss(pool, episode, model, mode="train"), params)


def test_criterion_01_gradient_correctness():
    t0 = time.time()
    worst, checks = 0.0, 0
    for vi, (name, build) in enumerate(_op_variants()):
        for s in range(4):
            f, params = build(np.random.default_rng([101, vi, s]))
            err = finite_diff_check(f, params)
            worst = max(worst, err)
            checks += 1
            assert err < 1e-4, f"{name} seed {s}: rel err {err:.3e}"
    pool, _, _ = synthetic_pools(3.0, 0.5, seed=11, schema="tiny")
    for head in ("proto", "matching", "relation"):
        for s in range(4):
            err = _composite_error(pool, head, s)
            worst = max(worst, err)
            checks += 1
            assert err < 1e-4, f"composite {head} seed {s}: rel err {err:.3e}"
    elapsed = time.time() - t0
    assert checks >= 100
    assert elapsed < 120.0
    print(f"\ncriterion 1: {checks} gradient checks, worst rel err {worst:.2e}, {elapsed:.0f}s")


# -- 2. alignment-statistic oracle ----------------------------------------------------


def _mmd_oracle(x: np.ndarray, y: np.ndarray, spec: KernelSpec) -> float:
    def k(a, b):
        d2 = float(np.sum((a - b) ** 2))
        return sum(
            w * math.exp(-d2 / (2.0 * s * s))
            for s, w in zip(spec.bandwidths, spec.weights)
        )

    xs, ys = list(x), list(y)
    kxx = sum(k(a, b) for a in xs for b in xs) / (len(xs) ** 2)
    kyy = sum(k(a, b) for a in ys for b in ys) / (len(ys) ** 2)
    kxy = sum(k(a, b) for a in xs for b in ys) / (len(xs) * len(ys))
    return kxx + kyy - 2.0 * kxy


def test_criterion_02_mmd_matches_brute_force_oracle():
    worst = 0.0
    with ad.no_grad():
        for i in range(100):
            rng = np.random.default_rng([202, i])
            m, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            d = int(rng.integers(1, 5))
            x = rng.normal(size=(m, d)) * float(rng.uniform(0.5, 2.0))
            y = rng.normal(size=(n, d)) + float(rng.uniform(-1.0, 1.0))
            ladder = int(rng.integers(1, 4))
            spec = KernelSpec(
                bandwidths=tuple(float(np.exp(rng.uniform(-1.0, 1.2))) for _ in range(ladder)),
                weights=tuple(float(rng.uniform(0.2, 1.0)) for _ in range(ladder)),
            )
            err = abs(mmd2(Tensor(x), Tensor(y), spec).item() - _mmd_oracle(x, y, spec))
            worst = max(worst, err)
            assert err < 1e-12, f"instance {i}: oracle gap {err:.3e}"
        for i in range(20):
            rng = np.random.default_rng([203, i])
            x = rng.normal(size=(int(rng.integers(2, 9)), int(rng.integers(1, 5))))
            self_value = abs(mmd2(Tensor(x), Tensor(x), KernelSpec.single(1.3)).item())
            assert self_value < 1e-12, f"self instance {i}: {self_value:.3e}"
        hand = mmd2(Tensor([[0.0]]), Tensor([[1.0]]), KernelSpec.single(1.0)).item()
    assert abs(hand - 0.78694) < 1e-5
    print(f"\ncriterion 2: worst oracle gap {worst:.2e}, hand value {hand:.6f}")


# -- 3. disabled adaptation is a no-op ------------------------------------------------


def test_criterion_03_zero_rates_and_zero_iterations_are_noops():
    train, _, test = synthetic_pools(1.5, 2.0, seed=0)
    model = create_model(WIDE, seed=0)
    ecfg = EvalConfig(episodes=50, way=3, shot=1, queries=10, rng_seed=0)
    rows = pool_rows(model, test, train)
    base = evofa_test(model, test, train, "intra", ecfg, None, **rows)
    zero_rate = evofa_test(
        model, test, train, "intra", ecfg,
        AdaptConfig(eta_in=0.0, eta_out=0.0, snapshot_size=20), **rows,
    )
    zero_iter = evofa_test(
        model, test, train, "intra", ecfg,
        AdaptConfig(max_iter=0, snapshot_size=20), **rows,
    )
    assert base.method == "fsl"
    assert zero_rate.method == "fsl+evofa" and zero_iter.method == "fsl+evofa"
    for candidate in (zero_rate, zero_iter):
        assert candidate.per_episode == base.per_episode
        assert candidate.mean_accuracy == base.mean_accuracy
        assert candidate.std_accuracy == base.std_accuracy
    print(f"\ncriterion 3: 50 episodes bit-identical at eta=0 and at max_iter=0")


# -- 4. encoder and head never move ---------------------------------------------------


def test_criterion_04_encoder_and_head_frozen_through_adaptation():
    train, _, test = synthetic_pools(3.0, 0.5, seed=11, schema="tiny")
    model = create_model(TINY, seed=2)
    theta0 = model.theta.state_bytes()
    w0 = model.w.state_bytes()
    phi0 = model.phi.state_bytes()
    acfg = AdaptConfig(n_snapshots=2, snapshot_size=8)
    ecfg = EvalConfig(episodes=10_000, way=3, shot=1, queries=3, rng_seed=5, persist_adaptation=True)
    rows = pool_rows(model, test, train)
    evofa_test(model, test, train, "intra", ecfg, acfg, **rows)
    assert model.theta.state_bytes() == theta0
    assert model.w.state_bytes() == w0
    # non-vacuity: the same settings really do move the adapter
    snaps = sample_snapshots_intra(train, acfg, np.random.default_rng(9))
    target = target_rows(model, test, 12, seed=10)
    evofa_run(model.phi, rows["train_rows"], [snaps] * acfg.max_iter, target, acfg)
    assert model.phi.state_bytes() != phi0
    assert model.theta.state_bytes() == theta0
    assert model.w.state_bytes() == w0
    print("\ncriterion 4: encoder and head checksums stable across 10000 adapted episodes")


# -- 5. few-shot competence -----------------------------------------------------------

SEPARABLE_TRAIN = TrainConfig(
    episodes_per_epoch=30,
    max_epochs=15,
    learning_rate=0.3,
    way=3,
    shot=1,
    queries=10,
    validation_episodes=20,
)


@pytest.fixture(scope="module")
def separable_run():
    train, val, test = synthetic_pools(5.0, 0.0, seed=0)
    t0 = time.time()
    model = meta_train(train, val, SEPARABLE_TRAIN, WIDE, 0)
    seconds = time.time() - t0
    report = evofa_test(
        model, test, train, "intra",
        EvalConfig(episodes=200, way=3, shot=1, queries=10, rng_seed=1), None, **pool_rows(model, test),
    )
    return {"model": model, "train": train, "test": test, "report": report, "seconds": seconds}


def test_criterion_05_fsl_competence_and_untrained_chance(separable_run):
    assert SEPARABLE_TRAIN.max_epochs <= 30
    assert separable_run["seconds"] < 600.0
    accuracy = separable_run["report"].mean_accuracy
    assert accuracy >= 0.95
    # untrained models on zero-signal data sit at chance for every head
    train0, _, test0 = synthetic_pools(0.0, 0.0, seed=3)
    chance = {}
    for kind in ("proto", "matching", "relation"):
        m = create_model(replace(WIDE, head_kind=kind), seed=4)
        r = evofa_test(
            m, test0, train0, "intra",
            EvalConfig(episodes=200, way=3, shot=1, queries=10, rng_seed=2), None, **pool_rows(m, test0),
        )
        chance[kind] = r.mean_accuracy
        assert abs(r.mean_accuracy - 1.0 / 3.0) <= 0.1, f"{kind}: {r.mean_accuracy:.4f}"
    print(
        f"\ncriterion 5: trained 1-shot accuracy {accuracy:.4f} "
        f"in {separable_run['seconds']:.0f}s; untrained "
        + ", ".join(f"{k} {v:.3f}" for k, v in chance.items())
    )


# -- 6, 7, 9: drift study (one shared 20-seed sweep) ----------------------------------

DRIFT_ADAPT = AdaptConfig(
    n_snapshots=3,
    snapshot_size=32,
    target_calibration_size=30,
    eta_in=1e-2,
    eta_out=1e-2,
    max_iter=1,
)


@pytest.fixture(scope="module")
def drift_study():
    """Per-seed: meta-trained model, supervised baseline, paired 1-shot evals, 5-shot eval."""
    rows = []
    for seed in range(20):
        train, val, test = synthetic_pools(1.0, 2.0, seed=seed)
        model = meta_train(
            train, val,
            TrainConfig(
                episodes_per_epoch=30,
                max_epochs=5,
                learning_rate=0.3,
                way=3,
                shot=1,
                queries=10,
                validation_episodes=20,
            ),
            WIDE,
            derive_seed(seed, 1),
        )
        supervised = train_supervised_baseline(
            train, val, SupervisedConfig(num_classes=3, max_epochs=20), WIDE, derive_seed(seed, 4)
        )
        _, supervised_accuracy = classify_pool(supervised, test)
        e1 = EvalConfig(episodes=50, way=3, shot=1, queries=10, rng_seed=derive_seed(seed, 2, 1))
        e5 = EvalConfig(episodes=50, way=3, shot=5, queries=10, rng_seed=derive_seed(seed, 2, 5))
        encoded = pool_rows(model, test, train)
        rows.append(
            {
                "base1": evofa_test(model, test, train, "intra", e1, None, **encoded),
                "adapt1": evofa_test(model, test, train, "intra", e1, DRIFT_ADAPT, **encoded),
                "base5": evofa_test(model, test, train, "intra", e5, None, **encoded),
                "supervised": supervised_accuracy,
            }
        )
    return rows


def test_criterion_06_episodic_beats_supervised_under_drift(drift_study):
    margins = [r["base5"].mean_accuracy - r["supervised"] for r in drift_study]
    wins = sum(m >= 0.05 for m in margins)
    assert wins >= 16, f"only {wins}/20 seeds show a 5pp margin: {margins}"
    print(
        f"\ncriterion 6: {wins}/20 seeds with >=5pp margin, "
        f"median margin {np.median(margins):.3f}"
    )


def test_criterion_07_adaptation_gain_is_directional(drift_study):
    wins = sum(r["adapt1"].mean_accuracy >= r["base1"].mean_accuracy for r in drift_study)
    deltas = np.concatenate(
        [
            np.array(r["adapt1"].per_episode) - np.array(r["base1"].per_episode)
            for r in drift_study
        ]
    )
    pooled = float(deltas.mean())
    assert wins >= 14, f"adapted >= baseline on only {wins}/20 seeds"
    assert pooled >= 0.0, f"pooled paired delta {pooled:+.5f} is negative"
    print(f"\ncriterion 7: adapted >= baseline on {wins}/20 seeds, pooled delta {pooled:+.5f}")


# -- 8. alignment descends ------------------------------------------------------------


def test_criterion_08_alignment_descends():
    # (a) one inner step on one snapshot does not increase the loss it steps on
    step_wins, trials = 0, 50
    for seed in range(trials):
        train, _, test = synthetic_pools(1.5, 2.0, seed=seed)
        m = create_model(WIDE, seed=seed)
        cfg = AdaptConfig(
            n_snapshots=1,
            snapshot_size=30,
            eta_in=1e-2,
            eta_out=0.0,
            kernel=KernelSpec.single(2.0),
        )
        snaps = sample_snapshots_intra(train, cfg, np.random.default_rng([seed, 51]))
        target = target_rows(m, test, 30, seed=seed)
        train_rows = encode_rows(m, train.features)
        src_enc = train_rows[snaps[0, 0]]
        with ad.no_grad():
            before = adapt_mod.alignment_loss(m.phi, [src_enc], target, cfg.kernel).item()
        phi_n = inner_adapt(m.phi, train_rows, snaps, target, cfg)
        with ad.no_grad():
            after = adapt_mod.alignment_loss(phi_n, [src_enc], target, cfg.kernel).item()
        step_wins += after <= before
    assert step_wins >= 45, f"inner step reduced alignment on only {step_wins}/{trials} trials"
    # (b) a full adaptation run lowers mean query-vs-target alignment
    run_wins = 0
    for seed in range(20):
        train, _, test = synthetic_pools(1.5, 2.0, seed=seed)
        m = create_model(WIDE, seed=seed)
        cfg = AdaptConfig(
            n_snapshots=5,
            snapshot_size=30,
            eta_in=1e-2,
            eta_out=1e-2,
            max_iter=1,
            kernel=KernelSpec.single(2.0),
        )
        snaps = sample_snapshots_intra(train, cfg, np.random.default_rng([seed, 53]))
        target = target_rows(m, test, 30, seed=seed)
        train_rows = encode_rows(m, train.features)
        before = mean_alignment(m.phi, train_rows, snaps, target, cfg)
        evofa_run(m.phi, train_rows, [snaps] * cfg.max_iter, target, cfg)
        run_wins += mean_alignment(m.phi, train_rows, snaps, target, cfg) < before
    assert run_wins >= 14, f"full run reduced alignment on only {run_wins}/20 seeds"
    print(f"\ncriterion 8: inner step {step_wins}/50 trials, full run {run_wins}/20 seeds")


def test_criterion_09_more_shots_do_not_hurt(drift_study):
    wins = sum(r["base5"].mean_accuracy >= r["base1"].mean_accuracy for r in drift_study)
    assert wins >= 16, f"5-shot >= 1-shot on only {wins}/20 seeds"
    print(f"\ncriterion 9: 5-shot >= 1-shot on {wins}/20 seeds")


# -- 10. determinism and persistence --------------------------------------------------

MICRO_EXPERIMENT = ExperimentConfig(
    dataset=DriftConfig(
        num_subjects=2,
        num_sessions=3,
        trials_per_session=6,
        samples_per_trial=10,
        num_classes=3,
        n_electrodes=4,
        d_bands=3,
        class_separation=3.0,
        intra_drift_rate=0.5,
        inter_subject_offset_scale=1.0,
        noise_std=1.0,
        rng_seed=11,
    ),
    backbone=TINY,
    protocol="intra",
    train=TrainConfig(
        episodes_per_epoch=5,
        max_epochs=2,
        learning_rate=0.1,
        way=3,
        shot=1,
        queries=5,
        validation_episodes=5,
    ),
    adapt=AdaptConfig(n_snapshots=2, snapshot_size=8),
    supervised=SupervisedConfig(num_classes=3, max_epochs=3),
    eval_episodes=6,
    seed=3,
)


def test_criterion_10_determinism_and_checkpoint_round_trip(tmp_path, separable_run):
    first = run_protocol(MICRO_EXPERIMENT, generate_synthetic_drift(MICRO_EXPERIMENT.dataset))
    second = run_protocol(MICRO_EXPERIMENT, generate_synthetic_drift(MICRO_EXPERIMENT.dataset))
    a_csv, _ = first.write(tmp_path / "a")
    b_csv, _ = second.write(tmp_path / "b")
    assert a_csv.read_bytes() == b_csv.read_bytes()
    # float32 checkpoint round trip barely moves synthetic accuracy
    before = separable_run["report"].mean_accuracy
    loaded = load_checkpoint(save_checkpoint(separable_run["model"], tmp_path / "model.ckpt"))
    after = evofa_test(
        loaded, separable_run["test"], separable_run["train"], "intra",
        EvalConfig(episodes=200, way=3, shot=1, queries=10, rng_seed=1), None,
        **pool_rows(loaded, separable_run["test"]),
    ).mean_accuracy
    assert abs(after - before) < 0.002
    print(
        f"\ncriterion 10: identical result CSV bytes across runs; "
        f"round-trip accuracy shift {abs(after - before):.2e}"
    )
