"""Numeric core: forward oracles, gradient checks, determinism."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evofa import autodiff as ad
from evofa.errors import ConfigError, ContractError, ShapeError


def t(data, grad=False):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


# -- matmul ------------------------------------------------------------------

def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    out = ad.matmul(t(np.eye(3)), t(a))
    assert np.array_equal(out.data, a)


def test_matmul_hand_case():
    out = ad.matmul(t([[1.0, 2.0], [3.0, 4.0]]), t([[0.0], [1.0]]))
    assert np.array_equal(out.data, [[2.0], [4.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))


def test_matmul_batched_matches_loop():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 2, 3))
    b = rng.normal(size=(4, 3, 5))
    out = ad.matmul(t(a), t(b))
    for i in range(4):
        assert np.allclose(out.data[i], a[i] @ b[i])


# -- conv2d ------------------------------------------------------------------

def test_conv2d_identity_kernel():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 4, 4))
    k = np.ones((1, 1, 1, 1))
    out = ad.conv2d(t(x), t(k), stride=1, pad=0)
    assert np.allclose(out.data, x)


def test_conv2d_sum_kernel():
    out = ad.conv2d(t(np.ones((1, 3, 3))), t(np.ones((1, 1, 3, 3))), stride=1, pad=0)
    assert out.shape == (1, 1, 1)
    assert out.data.reshape(()) == pytest.approx(9.0)


def test_conv2d_stride_shape():
    out = ad.conv2d(t(np.zeros((1, 5, 5))), t(np.zeros((2, 1, 3, 3))), stride=2, pad=0)
    assert out.shape == (2, 2, 2)


def test_conv2d_non_integral_output_rejected():
    with pytest.raises(ConfigError):
        ad.conv2d(t(np.zeros((1, 6, 6))), t(np.zeros((1, 1, 3, 3))), stride=2, pad=0)


def test_conv2d_kernel_larger_than_input_rejected():
    with pytest.raises(ConfigError):
        ad.conv2d(t(np.zeros((1, 2, 2))), t(np.zeros((1, 1, 3, 3))), stride=1, pad=0)


def test_conv2d_channel_mismatch_rejected():
    with pytest.raises(ShapeError):
        ad.conv2d(t(np.zeros((2, 4, 4))), t(np.zeros((1, 3, 3, 3))), stride=1, pad=1)


def test_conv2d_matches_direct_sliding_window():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 6, 6))
    k = rng.normal(size=(4, 3, 3, 3))
    out = ad.conv2d(t(x), t(k), stride=1, pad=1).data
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    expect = np.empty((2, 4, 6, 6))
    for b in range(2):
        for o in range(4):
            for i in range(6):
                for j in range(6):
                    expect[b, o, i, j] = np.sum(xp[b, :, i : i + 3, j : j + 3] * k[o])
    assert np.allclose(out, expect, atol=1e-12)


def test_conv2d_linearity():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 2, 4, 4))
    y = rng.normal(size=(1, 2, 4, 4))
    k = rng.normal(size=(3, 2, 3, 3))
    alpha, beta = 0.7, -1.3
    mixed = ad.conv2d(t(alpha * x + beta * y), t(k), stride=1, pad=1).data
    parts = alpha * ad.conv2d(t(x), t(k), 1, 1).data + beta * ad.conv2d(t(y), t(k), 1, 1).data
    assert np.allclose(mixed, parts, atol=1e-9)


def _scatter_add_input_grad(x, k, g, stride, pad):
    """Reference conv2d input gradient: scatter-add every column entry with np.add.at."""
    batch, c_in, height, width = x.shape
    c_out, _, kh, kw = k.shape
    out_h, out_w = g.shape[2:]
    gcols = np.matmul(k.reshape(c_out, -1).T, g.reshape(batch, c_out, -1))
    chan = np.repeat(np.arange(c_in), kh * kw)[:, None]
    rows = np.tile(np.repeat(np.arange(kh), kw), c_in)[:, None] + stride * np.repeat(
        np.arange(out_h), out_w
    )
    cols = np.tile(np.tile(np.arange(kw), kh), c_in)[:, None] + stride * np.tile(
        np.arange(out_w), out_h
    )
    gxp = np.zeros((batch, c_in, height + 2 * pad, width + 2 * pad))
    np.add.at(gxp, (np.arange(batch)[:, None, None], chan[None], rows[None], cols[None]), gcols)
    return gxp[:, :, pad : pad + height, pad : pad + width]


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("c_in", [1, 3])
def test_conv2d_input_grad_bitwise_equals_scatter_add(stride, pad, c_in):
    rng = np.random.default_rng([stride, pad, c_in])
    x = rng.normal(size=(3, c_in, 7, 9))  # non-square; (7 + 2p - 3) and (9 + 2p - 3) are even
    k = t(rng.normal(size=(4, c_in, 3, 3)), grad=True)
    xt = t(x, grad=True)
    out = ad.conv2d(xt, k, stride=stride, pad=pad)
    g = rng.normal(size=out.shape)
    ad.backward(ad.tensor_sum(ad.mul(out, t(g))))
    expect = _scatter_add_input_grad(x, k.data, g, stride, pad)
    assert xt.grad.tobytes() == expect.tobytes()


def test_take_grad_with_repeated_indices_bitwise_equals_scatter_add():
    rng = np.random.default_rng(5)
    a = t(rng.normal(size=(5, 4)), grad=True)
    cases = [
        np.array([0, 3, 3, 1, 0, 0, 4, 3]),
        (np.array([0, 1, 1, 2, 1]), np.array([3, 3, 3, 0, 3])),
        (slice(None), np.array([1, 1, 0, 1])),
    ]
    for idx in cases:
        picked = ad.take(a, idx)
        g = rng.normal(size=picked.shape)
        a.grad = None
        ad.backward(ad.tensor_sum(ad.mul(picked, t(g))))
        expect = np.zeros(a.shape)
        np.add.at(expect, idx, g)
        assert a.grad.tobytes() == expect.tobytes()


# -- batch norm ---------------------------------------------------------------

def test_batch_norm_near_identity_on_standardized_batch():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(64, 3))
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    state = ad.BatchNormState.create(3)
    out = ad.batch_norm(t(x), t(np.ones(3)), t(np.zeros(3)), state, "train")
    # the 1e-5 variance epsilon shifts unit-scale values by about 5e-6
    assert np.allclose(out.data, x, atol=2e-5)


def test_batch_norm_zero_gamma_gives_beta():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(8, 4))
    beta = np.array([1.0, -2.0, 0.5, 3.0])
    state = ad.BatchNormState.create(4)
    out = ad.batch_norm(t(x), t(np.zeros(4)), t(beta), state, "train")
    assert np.allclose(out.data, np.broadcast_to(beta, (8, 4)))


def test_batch_norm_eval_is_pure():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(8, 4))
    state = ad.BatchNormState.create(4)
    state.running_mean = rng.normal(size=4)
    state.running_var = rng.uniform(0.5, 2.0, size=4)
    before = (state.running_mean.copy(), state.running_var.copy())
    g, b = t(np.ones(4)), t(np.zeros(4))
    first = ad.batch_norm(t(x), g, b, state, "eval").data
    second = ad.batch_norm(t(x), g, b, state, "eval").data
    assert np.array_equal(first, second)
    assert np.array_equal(state.running_mean, before[0])
    assert np.array_equal(state.running_var, before[1])


def test_batch_norm_train_updates_running_stats():
    rng = np.random.default_rng(8)
    x = rng.normal(loc=3.0, size=(32, 2))
    state = ad.BatchNormState.create(2, momentum=0.1)
    ad.batch_norm(t(x), t(np.ones(2)), t(np.zeros(2)), state, "train")
    expect_mean = 0.9 * np.zeros(2) + 0.1 * x.mean(axis=0)
    assert np.allclose(state.running_mean, expect_mean)


def test_batch_norm_zero_variance_is_guarded():
    x = np.ones((4, 2)) * 7.0
    state = ad.BatchNormState.create(2)
    out = ad.batch_norm(t(x), t(np.ones(2)), t(np.zeros(2)), state, "train")
    assert out.is_finite()
    assert np.allclose(out.data, 0.0)


def test_batch_norm_4d_normalizes_per_channel():
    rng = np.random.default_rng(9)
    x = rng.normal(loc=2.0, scale=3.0, size=(8, 2, 4, 4))
    state = ad.BatchNormState.create(2)
    out = ad.batch_norm(t(x), t(np.ones(2)), t(np.zeros(2)), state, "train").data
    assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
    assert np.allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-4)


def test_batch_norm_bad_mode_rejected():
    state = ad.BatchNormState.create(2)
    with pytest.raises(ConfigError):
        ad.batch_norm(t(np.zeros((4, 2))), t(np.ones(2)), t(np.zeros(2)), state, "test")


# -- activations and reductions ------------------------------------------------

def test_softmax_uniform_logits():
    out = ad.softmax(t(np.zeros((3, 5))))
    assert np.allclose(out.data, 1.0 / 5.0)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(10)
    out = ad.softmax(t(rng.normal(scale=20.0, size=(6, 9))))
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(11)
    x = rng.normal(scale=5.0, size=(4, 7))
    direct = ad.log_softmax(t(x)).data
    composed = np.log(ad.softmax(t(x)).data)
    assert np.allclose(direct, composed, atol=1e-9)


def test_softmax_extreme_logits_stay_finite():
    out = ad.softmax(t([[1000.0, 0.0, -1000.0]]))
    assert out.is_finite()
    assert out.data[0, 0] == pytest.approx(1.0)


def test_sq_euclidean_hand_case():
    out = ad.sq_euclidean_pairwise(t([[0.0, 0.0]]), t([[3.0, 4.0]]))
    assert np.array_equal(out.data, [[25.0]])


def test_sq_euclidean_nonnegative_and_zero_diagonal():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(5, 3))
    out = ad.sq_euclidean_pairwise(t(x), t(x)).data
    assert (out >= 0.0).all()
    assert np.allclose(np.diag(out), 0.0)


def test_relu_cases():
    out = ad.relu(t([-2.0, -0.5, 0.0, 0.5, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 0.0, 0.5, 2.0])


def test_validity_check_flags_nan_and_inf():
    assert t([1.0, 2.0]).is_finite()
    assert not t([1.0, np.nan]).is_finite()
    assert not t([np.inf, 0.0]).is_finite()


# -- backward ------------------------------------------------------------------

def test_backward_sum_gives_ones():
    x = t(np.arange(6.0).reshape(2, 3), grad=True)
    ad.backward(x.sum())
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_quadratic_gives_two_x():
    data = np.array([1.0, -2.0, 3.0])
    x = t(data, grad=True)
    ad.backward(ad.mul(x, x).sum())
    assert np.allclose(x.grad, 2.0 * data)


def test_backward_requires_scalar():
    x = t(np.zeros((2, 2)), grad=True)
    with pytest.raises(ContractError):
        ad.backward(x + x)

def test_backward_accumulates_until_reset():
    x = t([1.0, 2.0], grad=True)
    ad.backward(x.sum())
    ad.backward(x.sum())
    assert np.array_equal(x.grad, [2.0, 2.0])
    x.zero_grad()
    ad.backward(x.sum())
    assert np.array_equal(x.grad, [1.0, 1.0])


def test_backward_reused_node_accumulates():
    x = t([3.0], grad=True)
    y = ad.mul(x, x)
    ad.backward(ad.add(y, y).sum())
    assert np.allclose(x.grad, [12.0])


def test_backward_two_layer_net_matches_finite_differences():
    rng = np.random.default_rng(13)
    w1 = t(rng.normal(size=(4, 6)), grad=True)
    b1 = t(rng.normal(size=(6,)), grad=True)
    w2 = t(rng.normal(size=(6, 3)), grad=True)
    b2 = t(rng.normal(size=(3,)), grad=True)
    x = ad.Tensor(rng.normal(size=(5, 4)))
    y = ad.Tensor(rng.normal(size=(5, 3)))

    def f(_):
        hidden = ad.sigmoid(ad.add(ad.matmul(x, w1), b1))
        pred = ad.add(ad.matmul(hidden, w2), b2)
        err = ad.sub(pred, y)
        return ad.mul(err, err).mean()

    assert ad.finite_diff_check(f, [w1, b1, w2, b2], eps=1e-5) < 1e-4


def test_no_grad_blocks_tape():
    x = t([1.0, 2.0], grad=True)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert not y.requires_grad
    z = ad.mul(x, x)
    assert z.requires_grad


def test_detach_cuts_graph():
    x = t([2.0], grad=True)
    y = ad.mul(x, x).detach()
    z = ad.mul(ad.mul(x, x), y)
    ad.backward(z.sum())
    assert np.allclose(x.grad, [2.0 * 2.0 * 4.0])


# -- parameter groups -----------------------------------------------------------

def test_param_group_rejects_bad_name():
    with pytest.raises(ConfigError):
        ad.ParamGroup("weights")


def test_param_group_rejects_duplicate_entries():
    g = ad.ParamGroup("theta")
    g.add("w", t([1.0]))
    with pytest.raises(ConfigError):
        g.add("w", t([2.0]))


def test_param_group_copy_is_independent():
    g = ad.ParamGroup("phi", [("a", t([1.0, 2.0], grad=True))])
    c = g.copy()
    c.get("a").data[0] = 99.0
    assert g.get("a").data[0] == 1.0
    assert c.get("a").requires_grad


def test_param_group_load_from_copies_values():
    g = ad.ParamGroup("phi", [("a", t([1.0], grad=True))])
    h = ad.ParamGroup("phi", [("a", t([5.0], grad=True))])
    g.load_from(h)
    assert g.get("a").data[0] == 5.0
    h.get("a").data[0] = 7.0
    assert g.get("a").data[0] == 5.0


def test_param_group_load_from_rejects_mismatch():
    g = ad.ParamGroup("phi", [("a", t([1.0]))])
    h = ad.ParamGroup("phi", [("b", t([1.0]))])
    with pytest.raises(ContractError):
        g.load_from(h)


def test_sgd_step_zero_lr_is_noop():
    p = t([1.0, 2.0], grad=True)
    p.grad = np.array([3.0, 4.0])
    g = ad.ParamGroup("w", [("p", p)])
    ad.sgd_step(g, 0.0)
    assert np.allclose(p.data, [1.0, 2.0])
    assert p.grad is None


def test_sgd_step_arithmetic():
    p = t([1.0], grad=True)
    p.grad = np.array([2.0])
    ad.sgd_step(ad.ParamGroup("w", [("p", p)]), 0.5)
    assert p.data[0] == 0.0


def test_sgd_step_missing_grad_rejected():
    g = ad.ParamGroup("w", [("p", t([1.0], grad=True))])
    with pytest.raises(ContractError):
        ad.sgd_step(g, 0.1)


def test_sgd_step_deterministic():
    def run():
        p = t([1.0, -1.0], grad=True)
        p.grad = np.array([0.25, 0.5])
        ad.sgd_step(ad.ParamGroup("w", [("p", p)]), 0.1)
        return p.data.copy()

    assert np.array_equal(run(), run())


# -- finite difference harness -----------------------------------------------------

def test_finite_diff_check_quadratic():
    x = t([1.0, -2.0, 0.5], grad=True)

    def f(_):
        return ad.mul(x, x).sum()

    assert ad.finite_diff_check(f, [x], eps=1e-5) < 1e-7


def test_finite_diff_check_rejects_zero_eps():
    x = t([1.0], grad=True)
    with pytest.raises(ValueError):
        ad.finite_diff_check(lambda _: x.sum(), [x], eps=0.0)


def test_finite_diff_check_restores_values_and_grads():
    x = t([1.0, 2.0], grad=True)
    ad.finite_diff_check(lambda _: ad.mul(x, x).sum(), [x], eps=1e-5)
    assert np.array_equal(x.data, [1.0, 2.0])
    assert x.grad is None


# -- determinism -------------------------------------------------------------------

def test_forward_ops_bitwise_deterministic():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(3, 2, 4, 4))
    k = rng.normal(size=(2, 2, 3, 3))
    a = ad.conv2d(t(x), t(k), 1, 1).data
    b = ad.conv2d(t(x), t(k), 1, 1).data
    assert np.array_equal(a, b)
    s1 = ad.softmax(t(x.reshape(6, 16))).data
    s2 = ad.softmax(t(x.reshape(6, 16))).data
    assert np.array_equal(s1, s2)


# -- gradient property tests ---------------------------------------------------------

def _probe(builder, leaves, rng):
    """Reduce an op output to a scalar with fixed random weights, then FD-check."""
    sample = builder()
    weights = ad.Tensor(rng.normal(size=sample.shape))

    def f(_):
        return ad.mul(builder(), weights).sum()

    return ad.finite_diff_check(f, leaves, eps=1e-5)


def _away_from_zero(rng, shape, margin=0.05):
    x = rng.normal(size=shape)
    return x + np.sign(x) * margin


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_gradients_match_finite_differences_elementwise(seed):
    rng = np.random.default_rng(seed)
    a = t(_away_from_zero(rng, (3, 4)), grad=True)
    b = t(_away_from_zero(rng, (3, 4)), grad=True)
    pos = t(rng.uniform(0.2, 3.0, size=(3, 4)), grad=True)

    assert _probe(lambda: ad.add(a, b), [a, b], rng) < 1e-4
    assert _probe(lambda: ad.sub(a, b), [a, b], rng) < 1e-4
    assert _probe(lambda: ad.mul(a, b), [a, b], rng) < 1e-4
    assert _probe(lambda: ad.div(a, pos), [a, pos], rng) < 1e-4
    assert _probe(lambda: ad.exp(ad.mul(a, ad.Tensor(0.3))), [a], rng) < 1e-4
    assert _probe(lambda: ad.log(pos), [pos], rng) < 1e-4
    assert _probe(lambda: ad.relu(a), [a], rng) < 1e-4
    assert _probe(lambda: ad.sigmoid(a), [a], rng) < 1e-4
    assert _probe(lambda: ad.power(pos, 1.7), [pos], rng) < 1e-4
    assert _probe(lambda: ad.clamp_min(a, 0.01), [a], rng) < 1e-4


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_gradients_match_finite_differences_structural(seed):
    rng = np.random.default_rng(seed)
    a = t(rng.normal(size=(2, 3)), grad=True)
    b = t(rng.normal(size=(3, 4)), grad=True)
    c = t(rng.normal(size=(2, 3)), grad=True)

    assert _probe(lambda: ad.matmul(a, b), [a, b], rng) < 1e-4
    assert _probe(lambda: ad.concat([a, c], axis=0), [a, c], rng) < 1e-4
    assert _probe(lambda: ad.transpose(a), [a], rng) < 1e-4
    assert _probe(lambda: ad.reshape(a, (3, 2)), [a], rng) < 1e-4
    assert _probe(lambda: ad.take(a, (slice(None), slice(0, 2))), [a], rng) < 1e-4
    assert _probe(lambda: a.sum(axis=0), [a], rng) < 1e-4
    assert _probe(lambda: a.mean(axis=1, keepdims=True), [a], rng) < 1e-4
    assert _probe(lambda: ad.softmax(a), [a], rng) < 1e-4
    assert _probe(lambda: ad.log_softmax(a), [a], rng) < 1e-4
    assert _probe(lambda: ad.sq_euclidean_pairwise(a, c), [a, c], rng) < 1e-4


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_gradients_match_finite_differences_conv_and_bn(seed):
    rng = np.random.default_rng(seed)
    x = t(rng.normal(size=(2, 2, 4, 4)), grad=True)
    k = t(rng.normal(size=(2, 2, 3, 3)) * 0.5, grad=True)
    gamma = t(rng.uniform(0.5, 1.5, size=2), grad=True)
    beta = t(rng.normal(size=2), grad=True)
    state = ad.BatchNormState.create(2)
    # train-mode output depends only on the batch, so reusing state keeps f pure
    assert _probe(lambda: ad.conv2d(x, k, stride=1, pad=1), [x, k], rng) < 1e-4
    assert _probe(lambda: ad.batch_norm(x, gamma, beta, state, "train"), [x, gamma, beta], rng) < 1e-4
    eval_state = ad.BatchNormState.create(2)
    eval_state.running_mean = rng.normal(size=2)
    eval_state.running_var = rng.uniform(0.5, 2.0, size=2)
    assert _probe(lambda: ad.batch_norm(x, gamma, beta, eval_state, "eval"), [x, gamma, beta], rng) < 1e-4
