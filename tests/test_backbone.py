"""Pipeline stages: Gram transform, encoder, identity adapter, heads."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evofa import autodiff as ad, backbone
from evofa.autodiff import Tensor
from evofa.errors import ConfigError, ProtocolError, ShapeError

TINY = backbone.BackboneConfig(
    n_electrodes=4,
    d_bands=4,
    g2g_channels=2,
    conv_channels=(3, 4, 4, 5),
    embedding_dim=5,
    adapter_hidden=10,
    head_kind="proto",
    num_classes=3,
)


def t(data, grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


# -- config validation -----------------------------------------------------------

def test_config_rejects_indivisible_groups():
    with pytest.raises(ConfigError):
        backbone.BackboneConfig(d_bands=5, g2g_channels=2)


def test_config_rejects_embedding_width_mismatch():
    with pytest.raises(ConfigError):
        backbone.BackboneConfig(conv_channels=(4, 4, 4, 4), embedding_dim=8, adapter_hidden=16)


def test_config_rejects_thin_adapter():
    with pytest.raises(ConfigError):
        backbone.BackboneConfig(
            conv_channels=(4, 4, 4, 8), embedding_dim=8, adapter_hidden=8
        )


def test_config_rejects_unknown_head():
    with pytest.raises(ConfigError):
        backbone.BackboneConfig(head_kind="softmax")


@pytest.mark.parametrize(
    "temperature",
    [float("nan"), float("inf"), -float("inf"), 0.0, -1.0, 10**400],
    ids=["nan", "inf", "-inf", "zero", "negative", "past-float-range"],
)
def test_config_rejects_matching_temperature_that_is_not_finite_and_positive(temperature):
    with pytest.raises(ConfigError, match="matching_temperature must be a finite positive number"):
        backbone.BackboneConfig(matching_temperature=temperature)


# -- g2g ----------------------------------------------------------------------------

def test_g2g_identity_projection_hand_case():
    out = backbone.g2g_transform(t(np.eye(2)[None]), [t(np.eye(2))])
    assert out.shape == (1, 1, 2, 2)
    assert np.allclose(out.data[0, 0], [[0.5, 0.0], [0.0, 0.5]])


def test_g2g_channels_are_symmetric():
    rng = np.random.default_rng(0)
    f = t(rng.normal(size=(1, 5, 6)))
    projections = [t(rng.normal(size=(3, 3))) for _ in range(2)]
    out = backbone.g2g_transform(f, projections).data[0]
    for k in range(2):
        assert np.allclose(out[k], out[k].T, atol=1e-9)


def test_g2g_electrode_permutation_equivariance():
    rng = np.random.default_rng(1)
    f = rng.normal(size=(4, 4))
    perm = rng.permutation(4)
    projections = [t(rng.normal(size=(2, 2))) for _ in range(2)]
    base = backbone.g2g_transform(t(f[None]), projections).data[0]
    permuted = backbone.g2g_transform(t(f[perm][None]), projections).data[0]
    for k in range(2):
        assert np.allclose(permuted[k], base[k][np.ix_(perm, perm)], atol=1e-12)


def test_g2g_group_mismatch_rejected():
    with pytest.raises(ConfigError):
        backbone.g2g_transform(t(np.zeros((1, 4, 5))), [t(np.eye(2)), t(np.eye(2))])


def test_g2g_batched_matches_per_sample():
    rng = np.random.default_rng(2)
    batch = rng.normal(size=(3, 4, 4))
    projections = [t(rng.normal(size=(4, 4)))]
    stacked = backbone.g2g_transform(t(batch), projections).data
    for i in range(3):
        single = backbone.g2g_transform(t(batch[i : i + 1]), projections).data
        assert np.allclose(stacked[i], single[0])


def test_stages_reject_unbatched_input():
    model = backbone.create_model(TINY, seed=0)
    with pytest.raises(ShapeError, match=r"\[B x n x d\]"):
        backbone.g2g_transform(t(np.zeros((4, 4))), [t(np.eye(2)), t(np.eye(2))])
    with pytest.raises(ShapeError):
        backbone.encode(t(np.zeros((4, 4))), model)
    with pytest.raises(ShapeError):
        backbone.adapt(t(np.zeros(5)), model.phi)


# -- encode ----------------------------------------------------------------------------

def test_encode_output_shape():
    model = backbone.create_model(TINY, seed=0)
    rng = np.random.default_rng(3)
    one = backbone.encode(t(rng.normal(size=(1, 4, 4))), model)
    batch = backbone.encode(t(rng.normal(size=(7, 4, 4))), model)
    assert one.shape == (1, 5)
    assert batch.shape == (7, 5)


def test_encode_zero_input_stays_zero_at_init():
    model = backbone.create_model(TINY, seed=1)
    out = backbone.encode(t(np.zeros((1, 4, 4))), model, mode="eval")
    assert np.allclose(out.data, 0.0)


def test_encode_eval_mode_is_pure():
    model = backbone.create_model(TINY, seed=2)
    rng = np.random.default_rng(4)
    x = t(rng.normal(size=(3, 4, 4)))
    a = backbone.encode(x, model, mode="eval").data
    b = backbone.encode(x, model, mode="eval").data
    assert np.array_equal(a, b)
    assert np.array_equal(model.bn_states[0].running_mean, np.zeros(3))


def test_encode_schema_mismatch_rejected():
    model = backbone.create_model(TINY, seed=0)
    with pytest.raises(ShapeError):
        backbone.encode(t(np.zeros((1, 5, 4))), model)


def test_encode_train_mode_updates_bn_stats():
    model = backbone.create_model(TINY, seed=3)
    rng = np.random.default_rng(5)
    backbone.encode(t(rng.normal(size=(6, 4, 4))), model, mode="train")
    assert not np.array_equal(model.bn_states[0].running_mean, np.zeros(3))


def test_encode_train_step_peak_memory_bounded_by_activations_per_block():
    """A train-mode encode step peaks near 5 full [B x c x H x W] arrays per conv block.

    A block is two tape nodes, conv2d and bias_bn_relu, and the tape keeps 2 full
    arrays per block: the conv output and the block's output, which is the next
    conv's input. The rest is gradients in flight and the normalized input that
    the block tail recomputes in its backward pass. Four tape nodes per block
    (conv2d, bias add, batch norm, ReLU) put the step above 8.
    """
    cfg = backbone.BackboneConfig(
        n_electrodes=24, d_bands=4, conv_channels=(8, 8, 8, 8), embedding_dim=8, adapter_hidden=16
    )
    model = backbone.create_model(cfg, seed=0)
    batch = 16
    features = t(np.random.default_rng(12).normal(size=(batch, 24, 4)))
    activation_bytes = sum(batch * c * 24 * 24 * 8 for c in cfg.conv_channels)
    tracemalloc.start()
    try:
        ad.backward(ad.tensor_sum(backbone.encode(features, model, mode="train")))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.theta.get("conv0_w").grad is not None
    assert peak < 6.0 * activation_bytes


def test_encode_train_tape_holds_two_activations_per_block():
    """After a train-mode encode forward pass, a block's tape holds its conv output and its output.

    The block tail recomputes what its backward pass needs, and conv2d keeps its
    input array rather than a padded copy; the rest is small per-channel arrays.
    """
    cfg = backbone.BackboneConfig(
        n_electrodes=24, d_bands=4, conv_channels=(8, 8, 8, 8), embedding_dim=8, adapter_hidden=16
    )
    model = backbone.create_model(cfg, seed=0)
    batch = 16
    features = t(np.random.default_rng(12).normal(size=(batch, 24, 4)))
    activation_bytes = sum(batch * c * 24 * 24 * 8 for c in cfg.conv_channels)
    tracemalloc.start()
    try:
        out = backbone.encode(features, model, mode="train")
        alive, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert alive < 2.5 * activation_bytes


def _nontrivial_eval_model(cfg, seed):
    """A model whose running statistics, gamma, beta and conv biases are all away from their init."""
    model = backbone.create_model(cfg, seed=seed)
    rng = np.random.default_rng([seed, 17])
    for i, state in enumerate(model.bn_states):
        c = state.running_mean.size
        state.running_mean = rng.normal(size=c)
        state.running_var = rng.uniform(0.2, 3.0, size=c)
        model.theta.get(f"conv{i}_b").data = rng.normal(size=c)
        model.theta.get(f"bn{i}_gamma").data = rng.uniform(0.5, 2.0, size=c) * rng.choice([-1.0, 1.0], size=c)
        model.theta.get(f"bn{i}_beta").data = rng.normal(size=c)
    return model


SEED_SHAPED = backbone.BackboneConfig(
    n_electrodes=62, d_bands=5, conv_channels=(4, 4, 4, 8), embedding_dim=8, adapter_hidden=16
)


@pytest.mark.parametrize("cfg", [TINY, SEED_SHAPED], ids=["tiny", "62x5"])
def test_folded_eval_blocks_match_conv_then_bias_bn_relu(cfg):
    model = _nontrivial_eval_model(cfg, seed=4)
    features = t(np.random.default_rng(5).normal(size=(3, cfg.n_electrodes, cfg.d_bands)))
    projections = [model.theta.get(f"g2g_p{k}") for k in range(cfg.g2g_channels)]
    x = backbone.g2g_transform(features, projections)
    for i, state in enumerate(model.bn_states):
        reference = ad.bias_bn_relu(
            ad.conv2d(x, model.theta.get(f"conv{i}_w"), stride=1, pad=1),
            model.theta.get(f"conv{i}_b"),
            model.theta.get(f"bn{i}_gamma"),
            model.theta.get(f"bn{i}_beta"),
            state,
            "eval",
        )
        folded = backbone._conv_block(x, model.theta, i, state, "eval")
        assert np.abs(reference.data).max() > 0  # the block is not all ReLU zeros
        assert np.abs(folded.data - reference.data).max() <= 1e-12 * np.abs(reference.data).max()
        x = reference
    pooled = x.data.mean(axis=(2, 3))
    encoded = backbone.encode(features, model, mode="eval").data
    assert np.abs(encoded - pooled).max() <= 1e-12 * np.abs(pooled).max()


def test_folded_eval_encode_gradient_matches_finite_differences():
    model = _nontrivial_eval_model(TINY, seed=6)
    rng = np.random.default_rng(7)
    features = t(rng.normal(size=(3, 4, 4)))
    weights = t(rng.normal(size=(3, TINY.embedding_dim)))
    loss = lambda theta: ad.tensor_sum(ad.mul(backbone.encode(features, model, mode="eval"), weights))
    assert ad.finite_diff_check(loss, model.theta) < 1e-4


@pytest.mark.parametrize("head", backbone.HEAD_KINDS)
def test_model_floats_counts_what_create_model_builds(head):
    wide = dict(g2g_channels=4, adapter_hidden=14, relation_hidden=7, num_classes=5)
    for cfg in (replace(TINY, head_kind=head), replace(TINY, head_kind=head, **wide)):
        model = backbone.create_model(cfg, seed=0)
        params = sum(t.size for g in model.groups() for t in g.tensors())
        stats = sum(s.running_mean.size + s.running_var.size for s in model.bn_states)
        assert backbone.model_floats(cfg) == params + stats


def test_create_model_deterministic():
    a = backbone.create_model(TINY, seed=9)
    b = backbone.create_model(TINY, seed=9)
    for ga, gb in zip(a.groups(), b.groups()):
        assert ga.state_bytes() == gb.state_bytes()


def test_encode_rows_batches_of_64_equal_rows_encoded_alone(monkeypatch):
    model = backbone.create_model(TINY, seed=0)
    features = np.random.default_rng(4).normal(size=(130, 4, 4))
    batches = []
    original = backbone.encode

    def counting(features, model, mode="eval"):
        batches.append((features.shape[0], mode, ad._grad_enabled()))
        return original(features, model, mode=mode)

    monkeypatch.setattr(backbone, "encode", counting)
    rows = backbone.encode_rows(model, features)
    assert batches == [(64, "eval", False), (64, "eval", False), (2, "eval", False)]
    picks = [0, 63, 64, 129]
    alone = np.concatenate([backbone.encode_rows(model, features[[i]]) for i in picks])
    assert np.array_equal(rows[picks], alone)
    assert backbone.encode_rows(model, features[:0]).shape == (0, TINY.embedding_dim)


# -- adapter -------------------------------------------------------------------------

def test_adapter_is_identity_at_init():
    model = backbone.create_model(TINY, seed=4)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(10, 5))
    out = backbone.adapt(t(x), model.phi)
    assert np.allclose(out.data, x, atol=1e-9)
    stack = backbone.adapt(t(np.stack([x, -x])), model.phi)
    assert stack.shape == (2, 10, 5)
    assert np.allclose(stack.data, np.stack([x, -x]), atol=1e-9)


def test_adapter_gradients_flow_to_phi():
    model = backbone.create_model(TINY, seed=5)
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(6, 5)))
    weights = Tensor(rng.normal(size=(6, 5)))

    def f(_):
        return ad.mul(backbone.adapt(x, model.phi), weights).sum()

    assert ad.finite_diff_check(f, model.phi, eps=1e-5) < 1e-4
    loss = f(None)
    ad.backward(loss)
    assert any(np.abs(p.grad).max() > 1e-6 for p in model.phi.tensors())


def test_pipeline_accuracy_unchanged_by_identity_adapter():
    model = backbone.create_model(TINY, seed=6)
    rng = np.random.default_rng(8)
    support = backbone.encode(t(rng.normal(size=(6, 4, 4))), model)
    query = backbone.encode(t(rng.normal(size=(9, 4, 4))), model)
    labels = np.array([0, 1, 2, 0, 1, 2])
    raw = model.head(support, labels, query).data
    adapted = model.head(
        backbone.adapt(support, model.phi), labels, backbone.adapt(query, model.phi)
    ).data
    assert np.argmax(raw, axis=1).tolist() == np.argmax(adapted, axis=1).tolist()
    assert np.allclose(raw, adapted, atol=1e-7)


# -- heads ----------------------------------------------------------------------------

def test_proto_one_shot_prototype_is_the_support_point():
    model = backbone.create_model(TINY, seed=7)
    support = t([[1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0]])
    labels = np.array([0, 1, 2])
    query = t([[1.0, 0.0, 0.0, 0.0, 0.0]])
    scores = model.head(support, labels, query).data
    assert scores[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert scores[0, 1] == pytest.approx(-2.0, abs=1e-12)
    assert np.argmax(scores[0]) == 0


def test_proto_prototype_is_class_mean():
    cfg = backbone.BackboneConfig(
        n_electrodes=4, d_bands=4, g2g_channels=2, conv_channels=(3, 4, 4, 2),
        embedding_dim=2, adapter_hidden=4, head_kind="proto", num_classes=2,
    )
    model = backbone.create_model(cfg, seed=0)
    support = t([[1.0, 1.0], [3.0, 3.0], [5.0, 0.0]])
    labels = np.array([0, 0, 1])
    query = t([[2.0, 2.0]])
    scores = model.head(support, labels, query).data
    assert scores[0, 0] == pytest.approx(0.0, abs=1e-12)  # prototype lands on (2,2)
    assert scores[0, 1] == pytest.approx(-13.0, abs=1e-12)


def test_matching_attention_concentrates_on_identical_support():
    cfg = backbone.BackboneConfig(
        n_electrodes=4, d_bands=4, g2g_channels=1, conv_channels=(3, 4, 4, 3),
        embedding_dim=3, adapter_hidden=6, head_kind="matching", num_classes=3,
    )
    model = backbone.create_model(cfg, seed=0)
    support = t(np.eye(3))  # mutually orthogonal support points
    labels = np.array([0, 1, 2])
    query = t([[1.0, 0.0, 0.0]])
    scores = model.head(support, labels, query).data
    assert scores[0, 0] > 1.0 - 1e-3
    assert scores.sum() == pytest.approx(1.0, abs=1e-9)


def test_matching_scores_form_a_distribution():
    cfg = backbone.BackboneConfig(
        n_electrodes=4, d_bands=4, g2g_channels=1, conv_channels=(3, 4, 4, 3),
        embedding_dim=3, adapter_hidden=6, head_kind="matching", num_classes=2,
    )
    model = backbone.create_model(cfg, seed=1)
    rng = np.random.default_rng(9)
    scores = model.head(
        t(rng.normal(size=(6, 3))), np.array([0, 1, 0, 1, 0, 1]), t(rng.normal(size=(4, 3)))
    ).data
    assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-9)
    assert (scores >= 0).all()


def test_relation_scores_are_sigmoid_bounded():
    cfg = backbone.BackboneConfig(
        n_electrodes=4, d_bands=4, g2g_channels=1, conv_channels=(3, 4, 4, 3),
        embedding_dim=3, adapter_hidden=6, head_kind="relation", num_classes=3,
    )
    model = backbone.create_model(cfg, seed=2)
    rng = np.random.default_rng(10)
    scores = model.head(
        t(rng.normal(size=(6, 3))), np.array([0, 1, 2, 0, 1, 2]), t(rng.normal(size=(5, 3)))
    )
    assert scores.shape == (5, 3)
    assert (scores.data > 0).all() and (scores.data < 1).all()


def test_relation_gradients_reach_relation_weights():
    cfg = backbone.BackboneConfig(
        n_electrodes=4, d_bands=4, g2g_channels=1, conv_channels=(3, 4, 4, 3),
        embedding_dim=3, adapter_hidden=6, head_kind="relation", num_classes=2,
    )
    model = backbone.create_model(cfg, seed=3)
    rng = np.random.default_rng(11)
    scores = model.head(t(rng.normal(size=(4, 3))), np.array([0, 1, 0, 1]), t(rng.normal(size=(3, 3))))
    ad.backward(scores.sum())
    assert all(p.grad is not None for p in model.w.tensors())


def test_head_missing_class_rejected():
    model = backbone.create_model(TINY, seed=8)
    with pytest.raises(ProtocolError):
        model.head(t(np.zeros((2, 5))), np.array([0, 1]), t(np.zeros((1, 5))))


def test_linear_head_ignores_support():
    cfg = backbone.BackboneConfig(
        n_electrodes=4, d_bands=4, g2g_channels=1, conv_channels=(3, 4, 4, 3),
        embedding_dim=3, adapter_hidden=6, head_kind="linear", num_classes=3,
    )
    model = backbone.create_model(cfg, seed=4)
    rng = np.random.default_rng(12)
    query = t(rng.normal(size=(4, 3)))
    scores = backbone.linear_head(query, model.w)
    expect = query.data @ model.w.get("lin_w").data + model.w.get("lin_b").data
    assert np.allclose(scores.data, expect)
    with pytest.raises(ProtocolError, match="linear head is not episodic"):
        model.head(t(np.zeros((0, 3))), np.array([], dtype=np.int64), query)


def test_proto_argmax_translation_invariant():
    model = backbone.create_model(TINY, seed=9)
    rng = np.random.default_rng(13)
    support = rng.normal(size=(6, 5))
    labels = np.array([0, 1, 2, 0, 1, 2])
    query = rng.normal(size=(8, 5))
    shift = rng.normal(size=5)
    base = model.head(t(support), labels, t(query)).data
    moved = model.head(t(support + shift), labels, t(query + shift)).data
    assert np.array_equal(np.argmax(base, axis=1), np.argmax(moved, axis=1))


# -- shape totality sweep ------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pipeline_shape_total_over_random_configs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    c = int(rng.integers(1, 4))
    d = c * int(rng.integers(1, 4))
    widths = tuple(int(v) for v in rng.integers(2, 6, size=4))
    emb = widths[-1]
    head = str(rng.choice(["matching", "relation", "proto"]))
    num_classes = int(rng.integers(2, 4))
    cfg = backbone.BackboneConfig(
        n_electrodes=n,
        d_bands=d,
        g2g_channels=c,
        conv_channels=widths,
        embedding_dim=emb,
        adapter_hidden=2 * emb + 2 * int(rng.integers(0, 3)),
        head_kind=head,
        num_classes=num_classes,
    )
    model = backbone.create_model(cfg, seed=seed % 1000)
    shots = int(rng.integers(1, 3))
    support_x = Tensor(rng.normal(size=(num_classes * shots, n, d)))
    query_x = Tensor(rng.normal(size=(4, n, d)))
    labels = np.tile(np.arange(num_classes), shots)
    support = backbone.adapt(backbone.encode(support_x, model), model.phi)
    query = backbone.adapt(backbone.encode(query_x, model), model.phi)
    scores = model.head(support, labels, query)
    assert scores.shape == (4, num_classes)
    assert scores.is_finite()
