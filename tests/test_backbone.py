"""Pipeline stages: Gram transform, encoder, identity adapter, heads."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evofa import autodiff as ad, backbone
from evofa.autodiff import Tensor
from evofa.errors import ConfigError, ProtocolError, ShapeError
from helpers import composed_block_tail, finite_diff_check, state_bytes, traced_peak

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


def test_encode_bad_mode_rejected():
    model = backbone.create_model(TINY, seed=0)
    with pytest.raises(ConfigError, match="'train' or 'eval', got 'test'"):
        backbone.encode(t(np.zeros((1, 4, 4))), model, mode="test")


def test_encode_train_mode_updates_bn_stats():
    model = backbone.create_model(TINY, seed=3)
    rng = np.random.default_rng(5)
    backbone.encode(t(rng.normal(size=(6, 4, 4))), model, mode="train")
    assert not np.array_equal(model.bn_states[0].running_mean, np.zeros(3))


def test_encode_train_step_peak_memory_bounded_by_activations_per_block():
    """A train-mode encode step, forward and backward, peaks under 4 full [B x c x H x W] arrays per conv block.

    A block is two tape nodes, conv2d and bn_relu, and the tape keeps 2 full
    arrays per block: the conv output and the block's output, which is the next
    conv's input. The backward sweep frees a block's arrays once it has passed
    them, and bn_relu writes g_x into the gradient it receives, so the rest is
    a gradient or two in flight and conv2d's slice buffers, which weigh more
    than an activation on this 24x24 grid. It reads about 3.4 arrays per block;
    separate tape nodes for batch norm's steps and the ReLU would each keep a
    full array more.
    """
    cfg = backbone.BackboneConfig(
        n_electrodes=24, d_bands=4, conv_channels=(8, 8, 8, 8), embedding_dim=8, adapter_hidden=16
    )
    model = backbone.create_model(cfg, seed=0)
    batch = 16
    features = t(np.random.default_rng(12).normal(size=(batch, 24, 4)))
    activation_bytes = sum(batch * c * 24 * 24 * 8 for c in cfg.conv_channels)
    _, peak = traced_peak(lambda: ad.backward(ad.tensor_sum(backbone.encode(features, model, mode="train"))))
    assert model.theta.get("conv0_w").grad is not None
    assert peak < 4.0 * activation_bytes


def test_seed_shaped_train_step_peaks_below_tape_and_one_and_a_half_widest_activations():
    """A 62x62 four-block train step, traced from before its forward pass, peaks under tape + 1.5 widest activations.

    The sweep's first full-size array, the gradient of the pooled last block,
    comes while the whole tape is alive. From then on every processed block
    gives its arrays back, bn_relu writes into the gradient it owns and
    allocates only its ReLU mask, and conv2d builds its input gradient in
    slices, so the tape's release makes room for what follows. It reads about
    tape + 1.26 widest activations; the sweep that kept every node to its end
    and built g' and the re-centred input as new arrays read tape + 2.13.
    """
    cfg = backbone.BackboneConfig(
        n_electrodes=62, d_bands=5, conv_channels=(8, 8, 8, 16), embedding_dim=16, adapter_hidden=32
    )
    model = backbone.create_model(cfg, seed=0)
    batch = 16
    features = t(np.random.default_rng(25).normal(size=(batch, 62, 5)))
    widest = batch * max(cfg.conv_channels) * 62 * 62 * 8
    tracemalloc.start()
    try:
        loss = ad.tensor_sum(backbone.encode(features, model, mode="train"))
        tape, _ = tracemalloc.get_traced_memory()
        ad.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.theta.get("conv0_w").grad is not None
    assert tape > 2 * sum(batch * c * 62 * 62 * 8 for c in cfg.conv_channels)  # the tape held every block
    assert peak < tape + 1.5 * widest


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
    """A model whose running statistics, gamma and beta are all away from their init."""
    model = backbone.create_model(cfg, seed=seed)
    rng = np.random.default_rng([seed, 17])
    for i, state in enumerate(model.bn_states):
        c = state.running_mean.size
        state.running_mean = rng.normal(size=c)
        state.running_var = rng.uniform(0.2, 3.0, size=c)
        model.theta.get(f"bn{i}_gamma").data = rng.uniform(0.5, 2.0, size=c) * rng.choice([-1.0, 1.0], size=c)
        model.theta.get(f"bn{i}_beta").data = rng.normal(size=c)
    return model


SEED_SHAPED = backbone.BackboneConfig(
    n_electrodes=62, d_bands=5, conv_channels=(4, 4, 4, 8), embedding_dim=8, adapter_hidden=16
)


@pytest.mark.parametrize("cfg", [TINY, SEED_SHAPED], ids=["tiny", "62x5"])
def test_folded_eval_blocks_match_conv_then_bn_relu(cfg):
    model = _nontrivial_eval_model(cfg, seed=4)
    features = t(np.random.default_rng(5).normal(size=(3, cfg.n_electrodes, cfg.d_bands)))
    projections = [model.theta.get(f"g2g_p{k}") for k in range(cfg.g2g_channels)]
    x = backbone.g2g_transform(features, projections)
    for i, state in enumerate(model.bn_states):
        reference = composed_block_tail(
            ad.conv2d(x, model.theta.get(f"conv{i}_w"), stride=1, pad=1),
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


@pytest.mark.parametrize("seed", range(4))
def test_folded_eval_block_with_shared_parameters_matches_composed_tape(seed):
    """The folded eval block's output and gradients equal conv -> the composed eval tail's.

    The same theta feeds two blocks in one loss, so its gradients accumulate from
    two folded convs. Neither block moves the running statistics.
    """
    results = []
    for folded in (False, True):
        rng = np.random.default_rng([15, seed])
        batch, c_in, c_out = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
        height, width = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        x = t(rng.normal(loc=0.5, scale=2.0, size=(batch, c_in, height, width)), grad=True)
        k = t(rng.normal(size=(c_out, c_in, 3, 3)), grad=True)
        gamma = t(rng.uniform(0.5, 2.0, size=c_out), grad=True)
        beta = t(rng.normal(scale=0.3, size=c_out), grad=True)
        theta = ad.ParamGroup("theta", [("conv0_w", k), ("bn0_gamma", gamma), ("bn0_beta", beta)])
        state = ad.BatchNormState.create(c_out)
        state.running_mean = rng.normal(size=c_out)
        state.running_var = rng.uniform(0.5, 2.0, size=c_out)
        before = (state.running_mean.copy(), state.running_var.copy())
        if folded:
            block = lambda inp: backbone._conv_block(inp, theta, 0, state, "eval")
        else:
            block = lambda inp: composed_block_tail(ad.conv2d(inp, k, stride=1, pad=1), gamma, beta, state, "eval")
        first, second = block(x), block(ad.relu(x))
        weights = t(rng.normal(size=first.shape))
        ad.backward(ad.add(ad.tensor_sum(ad.mul(first, weights)), ad.tensor_sum(ad.mul(second, second))))
        assert np.array_equal(state.running_mean, before[0]) and np.array_equal(state.running_var, before[1])
        results.append([first.data, second.data, x.grad, k.grad, gamma.grad, beta.grad])
    assert 0 < np.count_nonzero(results[1][0]) < results[1][0].size  # the ReLU mask is not trivial
    for composed, folded in zip(*results):
        assert np.abs(folded - composed).max() <= 1e-12 * max(np.abs(composed).max(), 1.0)


def test_folded_eval_encode_gradient_matches_finite_differences():
    model = _nontrivial_eval_model(TINY, seed=6)
    rng = np.random.default_rng(7)
    features = t(rng.normal(size=(3, 4, 4)))
    weights = t(rng.normal(size=(3, TINY.embedding_dim)))
    loss = lambda theta: ad.tensor_sum(ad.mul(backbone.encode(features, model, mode="eval"), weights))
    assert finite_diff_check(loss, model.theta) < 1e-4


@pytest.mark.parametrize("head", backbone.HEAD_KINDS)
def test_model_floats_counts_what_create_model_builds(head):
    wide = dict(g2g_channels=4, adapter_hidden=14, relation_hidden=7, num_classes=5)
    for cfg in (replace(TINY, head_kind=head), replace(TINY, head_kind=head, **wide)):
        model = backbone.create_model(cfg, seed=0)
        params = sum(t.size for g in model.groups() for _, t in g.entries)
        stats = sum(s.running_mean.size + s.running_var.size for s in model.bn_states)
        assert backbone.model_floats(cfg) == params + stats


def test_create_model_deterministic():
    a = backbone.create_model(TINY, seed=9)
    b = backbone.create_model(TINY, seed=9)
    for ga, gb in zip(a.groups(), b.groups()):
        assert state_bytes(ga) == state_bytes(gb)


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

    assert finite_diff_check(f, model.phi, eps=1e-5) < 1e-4
    loss = f(None)
    ad.backward(loss)
    assert any(np.abs(p.grad).max() > 1e-6 for _, p in model.phi.entries)


def test_pipeline_accuracy_unchanged_by_identity_adapter():
    model = backbone.create_model(TINY, seed=6)
    rng = np.random.default_rng(8)
    support = backbone.encode(t(rng.normal(size=(6, 4, 4))), model)
    query = backbone.encode(t(rng.normal(size=(9, 4, 4))), model)
    raw = backbone.head_forward(model, support, query).data
    adapted = backbone.head_forward(
        model, backbone.adapt(support, model.phi), backbone.adapt(query, model.phi)
    ).data
    assert np.argmax(raw, axis=1).tolist() == np.argmax(adapted, axis=1).tolist()
    assert np.allclose(raw, adapted, atol=1e-7)


# -- heads ----------------------------------------------------------------------------

def test_proto_one_shot_prototype_is_the_support_point():
    model = backbone.create_model(TINY, seed=7)
    support = t([[1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0]])
    query = t([[1.0, 0.0, 0.0, 0.0, 0.0]])
    scores = backbone.head_forward(model, support, query).data
    assert scores[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert scores[0, 1] == pytest.approx(-2.0, abs=1e-12)
    assert np.argmax(scores[0]) == 0


def test_proto_prototype_is_class_mean():
    cfg = backbone.BackboneConfig(
        n_electrodes=4, d_bands=4, g2g_channels=2, conv_channels=(3, 4, 4, 2),
        embedding_dim=2, adapter_hidden=4, head_kind="proto", num_classes=2,
    )
    model = backbone.create_model(cfg, seed=0)
    support = t([[1.0, 1.0], [3.0, 3.0], [5.0, 0.0], [5.0, 2.0]])  # two class blocks of two
    query = t([[2.0, 2.0]])
    scores = backbone.head_forward(model, support, query).data
    assert scores[0, 0] == pytest.approx(0.0, abs=1e-12)  # prototype lands on (2,2)
    assert scores[0, 1] == pytest.approx(-10.0, abs=1e-12)  # and on (5,1)


def test_matching_attention_concentrates_on_identical_support():
    cfg = backbone.BackboneConfig(
        n_electrodes=4, d_bands=4, g2g_channels=1, conv_channels=(3, 4, 4, 3),
        embedding_dim=3, adapter_hidden=6, head_kind="matching", num_classes=3,
    )
    model = backbone.create_model(cfg, seed=0)
    support = t(np.eye(3))  # mutually orthogonal support points
    query = t([[1.0, 0.0, 0.0]])
    scores = backbone.head_forward(model, support, query).data
    assert scores[0, 0] > 1.0 - 1e-3
    assert scores.sum() == pytest.approx(1.0, abs=1e-9)


def test_matching_scores_form_a_distribution():
    cfg = backbone.BackboneConfig(
        n_electrodes=4, d_bands=4, g2g_channels=1, conv_channels=(3, 4, 4, 3),
        embedding_dim=3, adapter_hidden=6, head_kind="matching", num_classes=2,
    )
    model = backbone.create_model(cfg, seed=1)
    rng = np.random.default_rng(9)
    scores = backbone.head_forward(model, t(rng.normal(size=(6, 3))), t(rng.normal(size=(4, 3)))).data
    assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-9)
    assert (scores >= 0).all()


def test_relation_scores_are_sigmoid_bounded():
    cfg = backbone.BackboneConfig(
        n_electrodes=4, d_bands=4, g2g_channels=1, conv_channels=(3, 4, 4, 3),
        embedding_dim=3, adapter_hidden=6, head_kind="relation", num_classes=3,
    )
    model = backbone.create_model(cfg, seed=2)
    rng = np.random.default_rng(10)
    scores = backbone.head_forward(model, t(rng.normal(size=(6, 3))), t(rng.normal(size=(5, 3))))
    assert scores.shape == (5, 3)
    assert (scores.data > 0).all() and (scores.data < 1).all()


def test_relation_gradients_reach_relation_weights():
    cfg = backbone.BackboneConfig(
        n_electrodes=4, d_bands=4, g2g_channels=1, conv_channels=(3, 4, 4, 3),
        embedding_dim=3, adapter_hidden=6, head_kind="relation", num_classes=2,
    )
    model = backbone.create_model(cfg, seed=3)
    rng = np.random.default_rng(11)
    scores = backbone.head_forward(model, t(rng.normal(size=(4, 3))), t(rng.normal(size=(3, 3))))
    ad.backward(scores.sum())
    assert all(p.grad is not None for _, p in model.w.entries)


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
        backbone.head_forward(model, t(np.zeros((0, 3))), query)


def test_proto_argmax_translation_invariant():
    model = backbone.create_model(TINY, seed=9)
    rng = np.random.default_rng(13)
    support = rng.normal(size=(6, 5))
    query = rng.normal(size=(8, 5))
    shift = rng.normal(size=5)
    base = backbone.head_forward(model, t(support), t(query)).data
    moved = backbone.head_forward(model, t(support + shift), t(query + shift)).data
    assert np.array_equal(np.argmax(base, axis=1), np.argmax(moved, axis=1))


def reference_head(model, support, query):
    """Per-query class scores written out loop by loop, for support in class blocks."""
    cfg, w = model.config, {name: v.data for name, v in model.w.entries}
    blocks = np.split(support, cfg.num_classes)
    if cfg.head_kind == "proto":
        return np.array([[-np.sum((q - b.mean(axis=0)) ** 2) for b in blocks] for q in query])
    if cfg.head_kind == "matching":
        unit = lambda v: v / np.linalg.norm(v)
        scores = []
        for q in query:
            e = np.array([np.exp(cfg.matching_temperature * unit(q) @ unit(s)) for s in support])
            scores.append([block.sum() / e.sum() for block in np.split(e, cfg.num_classes)])
        return np.array(scores)
    relu = lambda v: np.maximum(v, 0.0)
    score = lambda q, b: relu(np.concatenate([q, b.sum(axis=0)]) @ w["rel_w1"] + w["rel_b1"]) @ w["rel_w2"] + w["rel_b2"]
    return np.array([[1.0 / (1.0 + np.exp(-score(q, b)[0])) for b in blocks] for q in query])


@settings(max_examples=30, deadline=None)
@given(
    head=st.sampled_from(["proto", "matching", "relation"]),
    way=st.integers(2, 4),
    shot=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_head_on_class_block_support_equals_a_reference(head, way, shot, seed):
    model = backbone.create_model(replace(TINY, head_kind=head, num_classes=way), seed=seed % 1000)
    rng = np.random.default_rng(seed)
    support, query = rng.normal(size=(way * shot, 5)), rng.normal(size=(4, 5))
    scores = backbone.head_forward(model, t(support), t(query)).data
    assert scores.shape == (4, way)
    assert np.allclose(scores, reference_head(model, support, query), rtol=1e-12, atol=1e-12)


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
    support = backbone.adapt(backbone.encode(support_x, model), model.phi)
    query = backbone.adapt(backbone.encode(query_x, model), model.phi)
    scores = backbone.head_forward(model, support, query)
    assert scores.shape == (4, num_classes)
    assert scores.is_finite()
