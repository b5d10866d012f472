"""Numeric core: forward oracles, gradient checks, determinism."""
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from evofa import autodiff as ad
from evofa import backbone
from evofa.errors import ConfigError, ContractError, ShapeError
from helpers import composed_batch_norm, composed_block_tail, finite_diff_check, traced_peak


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


def test_matmul_backward_skips_operand_without_gradient():
    rng = np.random.default_rng(2)
    const, w = t(rng.normal(size=(4, 3))), t(rng.normal(size=(3, 2)), grad=True)
    g = rng.normal(size=(4, 2))
    ga, gb = ad.matmul(const, w)._grad_fn(g)
    assert ga is None and gb.tobytes() == np.matmul(const.data.T, g).tobytes()
    ga, gb = ad.matmul(w, t(rng.normal(size=(2, 5))))._grad_fn(rng.normal(size=(3, 5)))
    assert gb is None and ga.shape == w.shape


# -- conv2d ------------------------------------------------------------------

def test_conv2d_identity_kernel():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 1, 4, 4))
    k = np.ones((1, 1, 1, 1))
    out = ad.conv2d(t(x), t(k), stride=1, pad=0)
    assert np.allclose(out.data, x)


def test_conv2d_sum_kernel():
    out = ad.conv2d(t(np.ones((1, 1, 3, 3))), t(np.ones((1, 1, 3, 3))), stride=1, pad=0)
    assert out.shape == (1, 1, 1, 1)
    assert out.data.reshape(()) == pytest.approx(9.0)


def test_conv2d_stride_shape():
    out = ad.conv2d(t(np.zeros((1, 1, 5, 5))), t(np.zeros((2, 1, 3, 3))), stride=2, pad=0)
    assert out.shape == (1, 2, 2, 2)


def test_conv2d_non_integral_output_rejected():
    with pytest.raises(ConfigError):
        ad.conv2d(t(np.zeros((1, 1, 6, 6))), t(np.zeros((1, 1, 3, 3))), stride=2, pad=0)


def test_conv2d_kernel_larger_than_input_rejected():
    with pytest.raises(ConfigError):
        ad.conv2d(t(np.zeros((1, 1, 2, 2))), t(np.zeros((1, 1, 3, 3))), stride=1, pad=0)


def test_conv2d_channel_mismatch_rejected():
    with pytest.raises(ShapeError):
        ad.conv2d(t(np.zeros((1, 2, 4, 4))), t(np.zeros((1, 3, 3, 3))), stride=1, pad=1)


def test_conv2d_rejects_unbatched_input():
    with pytest.raises(ShapeError, match=r"\[B x c x H x W\]"):
        ad.conv2d(t(np.zeros((1, 4, 4))), t(np.zeros((1, 1, 3, 3))), stride=1, pad=1)


def _direct_conv(x, k, stride, pad):
    """Reference cross-correlation: one window sum per output element."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    batch, c_out, (kh, kw) = x.shape[0], k.shape[0], k.shape[2:]
    out_h = (xp.shape[2] - kh) // stride + 1
    out_w = (xp.shape[3] - kw) // stride + 1
    out = np.empty((batch, c_out, out_h, out_w))
    for b in range(batch):
        for o in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    window = xp[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[b, o, i, j] = np.sum(window * k[o])
    return out


def _direct_weight_grad(x, g, kshape, stride, pad):
    """Reference conv2d weight gradient: gk[o, c, u, v] summed output element by element."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gk = np.zeros(kshape)
    c_out, c_in, kh, kw = kshape
    for o in range(c_out):
        for c in range(c_in):
            for u in range(kh):
                for v in range(kw):
                    for b in range(g.shape[0]):
                        for i in range(g.shape[2]):
                            for j in range(g.shape[3]):
                                gk[o, c, u, v] += g[b, o, i, j] * xp[b, c, i * stride + u, j * stride + v]
    return gk


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("c_in", [1, 3])
def test_conv2d_matches_direct_sliding_window(stride, pad, c_in):
    rng = np.random.default_rng([3, stride, pad, c_in])
    x = rng.normal(size=(2, c_in, 7, 9))
    k = rng.normal(size=(4, c_in, 3, 3))
    out = ad.conv2d(t(x), t(k), stride=stride, pad=pad).data
    assert np.allclose(out, _direct_conv(x, k, stride, pad), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("c_in", [1, 3])
def test_conv2d_weight_grad_matches_direct_sum(stride, pad, c_in):
    rng = np.random.default_rng([6, stride, pad, c_in])
    x = rng.normal(size=(2, c_in, 7, 9))
    k = t(rng.normal(size=(4, c_in, 3, 3)), grad=True)
    out = ad.conv2d(t(x), k, stride=stride, pad=pad)
    g = rng.normal(size=out.shape)
    ad.backward(ad.tensor_sum(ad.mul(out, t(g))))
    assert np.allclose(k.grad, _direct_weight_grad(x, g, k.shape, stride, pad), rtol=1e-12, atol=1e-12)


def test_conv2d_forward_peak_memory_is_output_and_one_slice():
    """The forward pass holds its output and one slice's padded rows and columns at a time.

    At [8 x 8 x 62 x 62] into 8 channels a slice is one batch row: 2.11 MiB of
    columns and 0.25 MiB of padded rows, beside the 1.88 MiB output, 4.24 MiB
    in all. With two slices' buffers alive at once it would be 6.35 MiB. The
    64 KiB margin is for the tape node and the views.
    """
    rng = np.random.default_rng(7)
    batch, c_in, side = 8, 8, 62
    x = t(rng.normal(size=(batch, c_in, side, side)), grad=True)
    k = t(rng.normal(size=(8, c_in, 3, 3)), grad=True)
    row_cols = c_in * 9 * side * side * 8
    rows = max(1, ad.SLICE_BYTES // row_cols)
    assert rows < batch  # so the batch is built in several slices
    out, peak = traced_peak(lambda: ad.conv2d(x, k, stride=1, pad=1))
    assert out.shape == (batch, 8, side, side)
    assert peak < out.data.nbytes + rows * (row_cols + c_in * (side + 2) ** 2 * 8) + (64 << 10)


def test_conv2d_backward_peak_memory_below_one_gcols_buffer():
    """The backward pass holds the incoming gradient, the input gradient and one slice's buffers at a time.

    Two input-sized arrays (the incoming gradient, and the input gradient with
    the leaf's copy of it) plus two column slices bound it at 7.75 MiB, under
    one whole-batch gcols buffer of 16.9 MiB. A whole-batch padded input or tap
    copy would not fit.
    """
    rng = np.random.default_rng(8)
    batch, c_in, side = 8, 8, 62
    x = t(rng.normal(size=(batch, c_in, side, side)), grad=True)
    k = t(rng.normal(size=(8, c_in, 3, 3)), grad=True)
    assert batch * c_in * 9 * side * side * 8 > ad.SLICE_BYTES  # so the batch is built in several slices
    loss = ad.tensor_sum(ad.conv2d(x, k, stride=1, pad=1))
    _, peak = traced_peak(lambda: ad.backward(loss))
    assert x.grad.shape == x.shape and k.grad.shape == k.shape
    assert peak < 2 * x.data.nbytes + 2 * ad.SLICE_BYTES


def test_backward_peak_memory_below_two_and_a_quarter_widest_activations():
    """conv2d -> bn_relu -> mean at [8 x 8 x 62 x 62] into 16 channels, under 2.25 conv outputs.

    backward hands each node its gradient and keeps no other reference to it.
    bn_relu writes g' and then g_x into the gradient it receives, allocating
    only its ReLU mask, and conv2d builds both of its gradients one slice of
    batch rows at a time. So the peak is in conv2d's backward pass: its
    incoming gradient (one conv output), the input gradient (half of one) and
    one slice's columns, about 2.18 conv outputs. The margin, 0.07 of one
    (0.27 MiB), is for numpy's iteration buffers and the views.
    """
    rng = np.random.default_rng(22)
    x = t(rng.normal(size=(8, 8, 62, 62)), grad=True)
    k = t(rng.normal(size=(16, 8, 3, 3)), grad=True)
    gamma, beta = t(rng.uniform(0.5, 2.0, size=16), grad=True), t(rng.normal(size=16), grad=True)
    out = ad.bn_relu(ad.conv2d(x, k, stride=1, pad=1), gamma, beta, ad.BatchNormState.create(16))
    loss = ad.tensor_mean(out)
    _, peak = traced_peak(lambda: ad.backward(loss))
    assert x.grad.shape == x.shape
    assert peak < 2.25 * out.data.nbytes


@pytest.mark.parametrize("pad", [0, 1, 2])
def test_pad_bitwise_equals_np_pad(pad):
    a = np.random.default_rng([15, pad]).normal(size=(2, 3, 4, 5))
    expect = np.pad(a, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    assert ad._pad(a, pad).tobytes() == expect.tobytes()


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


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_conv2d_input_grad_built_in_row_slices_bitwise_equals_scatter_add(monkeypatch, rows):
    rng = np.random.default_rng([9, rows])
    x = rng.normal(size=(5, 3, 7, 9))
    k = t(rng.normal(size=(4, 3, 3, 3)), grad=True)
    # one batch row of columns is 3·9·7·9 floats; 2 rows per slice leaves a short last slice
    monkeypatch.setattr(ad, "SLICE_BYTES", rows * 3 * 9 * 7 * 9 * 8)
    xt = t(x, grad=True)
    out = ad.conv2d(xt, k, stride=1, pad=1)
    g = rng.normal(size=out.shape)
    ad.backward(ad.tensor_sum(ad.mul(out, t(g))))
    expect = _scatter_add_input_grad(x, k.data, g, 1, 1)
    assert xt.grad.tobytes() == expect.tobytes()


def _per_tap_weight_grad(x, g, kshape, stride, pad):
    """Reference conv2d kernel gradient: per tap, one batched GEMM over the whole batch, summed over its rows."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    batch, c_out, out_h, out_w = g.shape
    g2 = g.reshape(batch, c_out, -1)
    gk = np.empty(kshape)
    for i in range(kshape[2]):
        for j in range(kshape[3]):
            tap = xp[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride]
            tap = tap.reshape(batch, x.shape[1], -1)
            gk[:, :, i, j] = np.matmul(g2, tap.transpose(0, 2, 1)).sum(axis=0)
    return gk


@pytest.mark.parametrize("rows", [1, 2, 5])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("c_in", [1, 3])
def test_conv2d_kernel_grad_built_in_row_slices_bitwise_equals_whole_batch(monkeypatch, rows, stride, pad, c_in):
    rng = np.random.default_rng([12, rows, stride, pad, c_in])
    x = rng.normal(size=(7, c_in, 7, 9))
    k = t(rng.normal(size=(4, c_in, 3, 3)), grad=True)
    out_h, out_w = (7 + 2 * pad - 3) // stride + 1, (9 + 2 * pad - 3) // stride + 1
    # 2 and 5 rows per slice leave a short last slice
    monkeypatch.setattr(ad, "SLICE_BYTES", rows * c_in * 9 * out_h * out_w * 8)
    out = ad.conv2d(t(x), k, stride=stride, pad=pad)
    g = rng.normal(size=out.shape)
    ad.backward(ad.tensor_sum(ad.mul(out, t(g))))
    assert k.grad.tobytes() == _per_tap_weight_grad(x, g, k.shape, stride, pad).tobytes()


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_conv2d_forward_built_in_row_slices_bitwise_equals_whole_batch(monkeypatch, rows):
    rng = np.random.default_rng([10, rows])
    x = t(rng.normal(size=(7, 3, 7, 9)))
    k = t(rng.normal(size=(4, 3, 3, 3)))
    row_bytes = 3 * 9 * 7 * 9 * 8  # one batch row of columns
    monkeypatch.setattr(ad, "SLICE_BYTES", 7 * row_bytes)
    whole = ad.conv2d(x, k, stride=1, pad=1).data
    monkeypatch.setattr(ad, "SLICE_BYTES", rows * row_bytes)  # 2 and 5 leave a short last slice
    assert ad.conv2d(x, k, stride=1, pad=1).data.tobytes() == whole.tobytes()


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

def _bn_relu(x, gamma, beta, state):
    return ad.bn_relu(t(x), t(gamma), t(beta), state)


def test_bn_relu_near_identity_on_standardized_batch():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(64, 3, 1, 1))
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    state = ad.BatchNormState.create(3)
    # beta lifts every output above the ReLU kink, so only the normalization shows
    out = _bn_relu(x, np.ones(3), np.full(3, 10.0), state)
    # the 1e-5 variance epsilon shifts unit-scale values by about 5e-6
    assert np.allclose(out.data - 10.0, x, atol=2e-5)


def test_bn_relu_zero_gamma_gives_relu_of_beta():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(8, 4, 2, 3))
    beta = np.array([1.0, -2.0, 0.5, 3.0])
    state = ad.BatchNormState.create(4)
    out = _bn_relu(x, np.zeros(4), beta, state)
    assert np.allclose(out.data, np.broadcast_to(np.maximum(beta, 0.0)[:, None, None], x.shape))


def test_bn_relu_train_updates_running_stats():
    rng = np.random.default_rng(8)
    x = rng.normal(loc=3.0, size=(32, 2, 2, 2))
    state = ad.BatchNormState.create(2)
    _bn_relu(x, np.ones(2), np.zeros(2), state)
    assert np.allclose(state.running_mean, 0.9 * np.zeros(2) + 0.1 * x.mean(axis=(0, 2, 3)))
    assert np.allclose(state.running_var, 0.9 * np.ones(2) + 0.1 * x.var(axis=(0, 2, 3)))


def test_bn_relu_zero_variance_is_guarded():
    x = np.ones((4, 2, 3, 3)) * 7.0
    state = ad.BatchNormState.create(2)
    out = _bn_relu(x, np.ones(2), np.zeros(2), state)
    assert out.is_finite()
    assert np.allclose(out.data, 0.0)


def test_bn_relu_normalizes_per_channel():
    rng = np.random.default_rng(9)
    x = rng.normal(loc=2.0, scale=3.0, size=(8, 2, 4, 4))
    state = ad.BatchNormState.create(2)
    out = _bn_relu(x, np.ones(2), np.full(2, 10.0), state).data - 10.0
    assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
    assert np.allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-4)


def test_bn_relu_rejects_input_that_is_not_4d():
    state = ad.BatchNormState.create(2)
    with pytest.raises(ShapeError, match=r"\[B x c x H x W\]"):
        _bn_relu(np.zeros((4, 2)), np.ones(2), np.zeros(2), state)


def _close(got, want):
    """Equal up to round-off: max |got - want| <= 1e-12 * max |want|."""
    return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("seed", range(4))
def test_bn_relu_cancels_a_per_channel_constant_added_to_its_input(seed):
    """Why an encoder conv has no bias: the batch mean absorbs a per-channel constant c.

    bn_relu(x + c) equals bn_relu(x) in its output and in the gradients of x,
    gamma and beta, up to round-off. Of the running statistics only the mean sees
    c, moved by momentum * c (Ioffe & Szegedy, ICML 2015, §3.2).
    """
    rng = np.random.default_rng([16, seed])
    shape = (int(rng.integers(2, 9)), int(rng.integers(1, 5)), int(rng.integers(1, 7)), int(rng.integers(1, 7)))
    x0 = rng.normal(loc=0.5, scale=2.0, size=shape)
    c = rng.normal(scale=3.0, size=shape[1])
    gamma0, beta0 = rng.uniform(0.5, 2.0, size=shape[1]), rng.normal(scale=0.3, size=shape[1])
    mean0, var0 = rng.normal(size=shape[1]), rng.uniform(0.5, 2.0, size=shape[1])
    weights = rng.normal(size=shape)
    runs = []
    for shift in (np.zeros(shape[1]), c):
        x, gamma, beta = t(x0 + shift[:, None, None], grad=True), t(gamma0, grad=True), t(beta0, grad=True)
        state = ad.BatchNormState(mean0.copy(), var0.copy())
        out = ad.bn_relu(x, gamma, beta, state)
        ad.backward(ad.tensor_sum(ad.mul(out, t(weights))))
        runs.append([out.data, x.grad, gamma.grad, beta.grad, state.running_mean, state.running_var])
    (*plain, mean, var), (*shifted, mean_c, var_c) = runs
    assert 0 < np.count_nonzero(plain[0]) < plain[0].size  # the ReLU mask is not trivial
    for got, want in zip(shifted, plain):
        assert _close(got, want)
    assert _close(var_c, var)
    assert _close(mean_c - mean, ad.BN_MOMENTUM * c)


@pytest.mark.parametrize("seed", range(4))
def test_bn_relu_shared_parameters_equal_composed_tape(seed):
    """Output, gradients and running statistics equal the composed tape's up to round-off.

    The same gamma and beta feed two block tails in one loss, so their
    gradients accumulate from two nodes.
    """
    results = []
    for tail in (composed_block_tail, ad.bn_relu):
        rng = np.random.default_rng([10, seed])
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 5)), int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        x = t(rng.normal(loc=2.0, scale=3.0, size=shape), grad=True)
        gamma, beta = (t(rng.normal(size=shape[1]), grad=True) for _ in range(2))
        state = ad.BatchNormState.create(shape[1])
        state.running_mean = rng.normal(size=shape[1])
        state.running_var = rng.uniform(0.5, 2.0, size=shape[1])
        first = tail(x, gamma, beta, state)
        second = tail(ad.relu(x), gamma, beta, state)
        loss = ad.add(ad.tensor_sum(ad.mul(first, t(rng.normal(size=shape)))), ad.tensor_sum(ad.mul(second, second)))
        ad.backward(loss)
        results.append([first.data, second.data, x.grad, gamma.grad, beta.grad, state.running_mean, state.running_var])
    for composed, fused in zip(*results):
        assert _close(fused, composed)


def _block_leaves(seed):
    """Conv input, kernel, gamma, beta and running state of one random block."""
    rng = np.random.default_rng([13, seed])
    batch, c_in, c_out = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
    height, width = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    state = ad.BatchNormState.create(c_out)
    state.running_mean = rng.normal(size=c_out)
    state.running_var = rng.uniform(0.5, 2.0, size=c_out)
    leaves = (
        t(rng.normal(loc=0.5, scale=2.0, size=(batch, c_in, height, width)), grad=True),
        t(rng.normal(size=(c_out, c_in, 3, 3)), grad=True),
        t(rng.uniform(0.5, 2.0, size=c_out), grad=True),
        t(rng.normal(scale=0.3, size=c_out), grad=True),
    )
    return leaves, state, rng.normal(size=(batch, c_out, height, width))


@pytest.mark.parametrize("seed", range(4))
def test_bn_relu_equals_composed_tape(seed):
    """Output, gradients and running statistics equal conv -> batch norm -> relu's as separate nodes, up to round-off."""
    results = []
    for tail in (composed_block_tail, ad.bn_relu):
        (x, k, gamma, beta), state, weights = _block_leaves(seed)
        out = tail(ad.conv2d(x, k, stride=1, pad=1), gamma, beta, state)
        ad.backward(ad.tensor_sum(ad.mul(out, t(weights))))
        grads = [p.grad for p in (x, k, gamma, beta)]
        results.append([out.data, *grads, state.running_mean, state.running_var])
    assert 0 < np.count_nonzero(results[1][0]) < results[1][0].size  # the ReLU mask is not trivial
    for composed, fused in zip(*results):
        assert _close(fused, composed)


def _tail_results(tail, x0, gamma0, beta0, weights):
    """Output, the x, gamma and beta gradients and the running statistics of one block tail."""
    x, gamma, beta = t(x0, grad=True), t(gamma0, grad=True), t(beta0, grad=True)
    state = ad.BatchNormState.create(x0.shape[1])
    out = tail(x, gamma, beta, state)
    ad.backward(ad.tensor_sum(ad.mul(out, t(weights))))
    return [out.data, x.grad, gamma.grad, beta.grad, state.running_mean, state.running_var]


@pytest.mark.parametrize("seed", range(8))
def test_bn_relu_keeps_its_digits_at_large_channel_offsets(seed):
    """Channel means of +-2e4 with std 2 still match the composed tape to 1e-12.

    The node's reductions read the centred input. A mean by einsum, or the
    backward reduction taken on x as sum(g' * x) - mean * sum(g'), drifts by
    several 1e-12 here.
    """
    rng = np.random.default_rng([18, seed])
    shape = (int(rng.integers(2, 17)), int(rng.integers(1, 5)), int(rng.integers(2, 13)), int(rng.integers(2, 13)))
    x0 = rng.choice([-2e4, 2e4], size=shape[1])[:, None, None] + rng.normal(scale=2.0, size=shape)
    gamma0, beta0 = rng.uniform(0.5, 2.0, size=shape[1]), rng.normal(scale=0.3, size=shape[1])
    weights = rng.normal(size=shape)
    reference = _tail_results(composed_block_tail, x0, gamma0, beta0, weights)
    for got, want in zip(_tail_results(ad.bn_relu, x0, gamma0, beta0, weights), reference):
        assert _close(got, want)


def test_bn_relu_single_value_per_channel_takes_the_eps_path():
    """B * H * W = 1: the batch variance is 0, so eps alone sets the scale, and the output is relu(beta)."""
    rng = np.random.default_rng(19)
    x0, gamma0, beta0 = rng.normal(size=(1, 3, 1, 1)), rng.uniform(0.5, 2.0, size=3), np.array([0.4, -0.2, 1.5])
    weights = rng.normal(size=x0.shape)
    got = _tail_results(ad.bn_relu, x0, gamma0, beta0, weights)
    assert all(np.isfinite(a).all() for a in got)
    assert np.array_equal(got[0].reshape(-1), np.maximum(beta0, 0.0))
    for a, want in zip(got, _tail_results(composed_block_tail, x0, gamma0, beta0, weights)):
        assert _close(a, want)


def test_bn_relu_dead_channel_gets_no_gamma_or_beta_gradient():
    """A channel whose pre-activations are all <= 0 passes no gradient through the ReLU."""
    rng = np.random.default_rng(20)
    x0 = rng.normal(size=(6, 3, 4, 5))
    gamma0 = rng.uniform(0.5, 2.0, size=3)
    beta0 = np.array([0.2, -(np.sqrt(6 * 4 * 5) + 1.0) * gamma0[1], -0.1])  # |x_hat| < sqrt(B * H * W)
    weights = rng.normal(size=x0.shape)
    got = _tail_results(ad.bn_relu, x0, gamma0, beta0, weights)
    out, g_x, g_gamma, g_beta = got[:4]
    assert all(np.isfinite(a).all() for a in got)
    assert not out[:, 1].any() and out[:, [0, 2]].any()
    assert g_gamma[1] == 0.0 and g_beta[1] == 0.0 and not g_x[:, 1].any()
    for a, want in zip(got, _tail_results(composed_block_tail, x0, gamma0, beta0, weights)):
        assert _close(a, want)


def test_bn_relu_allocates_one_full_array_forward_and_only_the_mask_backward(monkeypatch):
    """At [16 x 8 x 24 x 24] the forward pass peaks under 1.5 full arrays; the backward pass holds the mask and a slice.

    The forward pass centres the input into the array that becomes its output.
    The backward pass writes g' and then g_x into the incoming gradient, which
    the node owns, so it allocates only the ReLU mask (one byte per element)
    and one slice of re-centred channels at a time, here two of the eight.
    The margin is two of numpy's iteration buffers, which a strided slice or
    the mask's cast to float takes, and 16 KiB for the per-channel vectors and
    the views. With a full-size g' and a full-size re-centred input it would
    peak near 2 full arrays.
    """
    rng = np.random.default_rng(21)
    shape = (16, 8, 24, 24)
    full_bytes = np.prod(shape) * 8
    channel_bytes = full_bytes // shape[1]
    monkeypatch.setattr(ad, "SLICE_BYTES", 2 * channel_bytes)
    x = t(rng.normal(size=shape), grad=True)
    gamma, beta = t(rng.uniform(0.5, 2.0, size=8), grad=True), t(rng.normal(size=8), grad=True)
    g = rng.normal(size=shape)
    out, forward_peak = traced_peak(lambda: ad.bn_relu(x, gamma, beta, ad.BatchNormState.create(8)))
    (g_x, _, _), backward_peak = traced_peak(lambda: out._grad_fn(g))
    assert g_x is g
    assert forward_peak < 1.5 * full_bytes
    assert backward_peak < full_bytes // 8 + 2 * channel_bytes + 2 * np.getbufsize() * 8 + (16 << 10)


def _whole_array_bn_relu(x0, gamma0, beta0, g):
    """The reference block tail over whole arrays: output, g_x, g_gamma and g_beta for incoming gradient ``g``.

    It is Ioffe & Szegedy's closed form (ICML 2015, Algorithm 1 and its
    backward pass), each step one whole-array operation in ``ad.bn_relu``'s order.
    """
    axes, view = (0, 2, 3), (1, -1, 1, 1)
    count = x0.size // x0.shape[1]
    mu = np.mean(x0, axis=axes, keepdims=True)
    centred = x0 - mu
    var = np.einsum("bchw,bchw->c", centred, centred) / count
    inv_std = (var + ad.BN_EPS) ** -0.5
    scale = gamma0 * inv_std
    out = np.maximum(centred * scale.reshape(view) + beta0.reshape(view), 0.0)
    g = g * (out > 0)
    g_beta = g.sum(axis=axes)
    g_gamma = np.einsum("bchw,bchw->c", g, centred) * inv_std
    k2 = scale * inv_std * g_gamma / count
    k3 = scale * g_beta / count
    g_x = g * scale.reshape(view) - centred * k2.reshape(view) - k3.reshape(view)
    return out, g_x, g_gamma, g_beta


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("per_slice", [1, 2, None], ids=["1", "2", "all"])
def test_bn_relu_gradients_built_in_channel_slices_bitwise_equal_whole_arrays(monkeypatch, seed, per_slice):
    """The backward pass gives the whole-array result's bytes with 1, 2 or all channels per slice.

    g_beta is reduced over the whole masked gradient before the slices; each
    slice re-centres its channels, reduces their g_gamma and forms their g_x.
    """
    rng = np.random.default_rng([23, seed])
    shape = (int(rng.integers(1, 9)), int(rng.integers(3, 7)), int(rng.integers(1, 31)), int(rng.integers(2, 31)))
    count = shape[0] * shape[2] * shape[3]
    monkeypatch.setattr(ad, "SLICE_BYTES", (per_slice or shape[1]) * 8 * count)
    x0 = rng.normal(loc=3.0, scale=2.0, size=shape) + rng.normal(scale=50.0, size=shape[1])[:, None, None]
    gamma0, beta0 = rng.uniform(0.5, 2.0, size=shape[1]), rng.normal(scale=0.3, size=shape[1])
    weights = rng.normal(size=shape)
    out, g_x, g_gamma, g_beta = _tail_results(ad.bn_relu, x0, gamma0, beta0, weights)[:4]
    want = _whole_array_bn_relu(x0, gamma0, beta0, weights)
    assert 0 < np.count_nonzero(out) < out.size  # the ReLU mask is not trivial
    for got, expect in zip((out, g_x, g_gamma, g_beta), want):
        assert got.tobytes() == expect.tobytes()


def test_two_parents_given_one_gradient_object_each_get_their_own():
    """add hands its incoming gradient to both operands of equal shape; a block tail behind each writes into it.

    backward gives the second parent a copy, so each tail's gradients carry the
    bytes of a graph in which that tail alone feeds the same weights.
    """
    rng = np.random.default_rng(24)
    shape = (3, 2, 4, 5)
    tails = [
        (rng.normal(size=shape), rng.uniform(0.5, 2.0, size=2), rng.normal(scale=0.3, size=2)) for _ in range(2)
    ]
    weights = t(rng.normal(size=shape))

    def gradients(feed_both):
        leaves = [tuple(t(a, grad=True) for a in tail) for tail in tails]
        outs = [ad.bn_relu(*leaf, ad.BatchNormState.create(2)) for leaf in leaves]
        if feed_both:
            ad.backward(ad.tensor_sum(ad.mul(ad.add(*outs), weights)))
        else:
            for out in outs:
                ad.backward(ad.tensor_sum(ad.mul(out, weights)))
        return [p.grad.tobytes() for leaf in leaves for p in leaf]

    assert gradients(feed_both=True) == gradients(feed_both=False)


def test_bn_relu_is_one_tape_node():
    rng = np.random.default_rng(14)
    x = t(rng.normal(size=(4, 3, 2, 2)), grad=True)
    gamma, beta = (t(rng.normal(size=3), grad=True) for _ in range(2))
    out = ad.bn_relu(x, gamma, beta, ad.BatchNormState.create(3))
    assert len(out._parents) == 3
    assert all(p is q for p, q in zip(out._parents, (x, gamma, beta)))


def test_conv_block_gradients_ignore_parent_data_replaced_after_forward():
    """conv2d and the block tail read what their forward pass read, not what the tensors hold later."""
    grads = []
    for replace in (False, True):
        (x, k, gamma, beta), state, weights = _block_leaves(5)
        conv = ad.conv2d(x, k, stride=1, pad=1)
        loss = ad.tensor_sum(ad.mul(ad.bn_relu(conv, gamma, beta, state), t(weights)))
        if replace:
            for tensor in (x, k, conv, gamma, beta):
                tensor.data = np.full_like(tensor.data, 7.0)
        ad.backward(loss)
        grads.append([p.grad for p in (x, k, gamma, beta)])
    for kept, replaced in zip(*grads):
        assert replaced.tobytes() == kept.tobytes()


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


def test_relu_propagates_nan():
    """A NaN input stays NaN in the output, so it cannot pass as a zero activation; its gradient is 0."""
    x = t([np.nan, -1.0, 3.0], grad=True)
    out = ad.relu(x)
    assert np.isnan(out.data[0])
    assert np.array_equal(out.data[1:], [0.0, 3.0])
    ad.backward(out.sum())
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0])


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
        ad.backward(ad.add(x, x))

def test_backward_accumulates_until_reset():
    x = t([1.0, 2.0], grad=True)
    ad.backward(x.sum())
    ad.backward(x.sum())
    assert np.array_equal(x.grad, [2.0, 2.0])
    ad.sgd_step(ad.ParamGroup("phi", [("x", x)]), 0.0)
    ad.backward(x.sum())
    assert np.array_equal(x.grad, [1.0, 1.0])


def test_backward_consumes_the_graph_and_a_second_sweep_over_it_raises():
    """A processed node drops its grad_fn and parents: a second backward that reaches it raises, moving no gradient."""
    data = np.array([1.0, -2.0, 3.0])
    x = t(data, grad=True)
    y = ad.mul(x, x)
    loss = y.sum()
    ad.backward(loss)
    assert np.array_equal(x.grad, 2.0 * data)
    for again in (loss, ad.mul(y, x).sum()):  # the same loss, and a new one built on a consumed node
        with pytest.raises(ContractError, match="consumed"):
            ad.backward(again)
        assert np.array_equal(x.grad, 2.0 * data)


def test_backward_frees_the_arrays_of_processed_nodes():
    """Once backward returns, no array that only the tape kept is alive, though the caller still holds the loss."""
    x = t(np.arange(6.0).reshape(2, 3), grad=True)
    hidden = ad.relu(ad.mul(x, x))
    inner = weakref.ref(hidden.data)
    loss = ad.tensor_sum(ad.exp(hidden))
    del hidden
    ad.backward(loss)
    assert inner() is None and x.grad is not None


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

    assert finite_diff_check(f, [w1, b1, w2, b2], eps=1e-5) < 1e-4


def test_no_grad_blocks_tape():
    x = t([1.0, 2.0], grad=True)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert not y.requires_grad
    z = ad.mul(x, x)
    assert z.requires_grad


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sgd_step_rejects_non_finite_grad_naming_it(bad):
    a, b = t([1.0, 2.0], grad=True), t([3.0], grad=True)
    a.grad, b.grad = np.array([0.5, 0.5]), np.array([bad])
    with pytest.raises(ContractError, match="parameter w/b has a non-finite gradient"):
        ad.sgd_step(ad.ParamGroup("w", [("a", a), ("b", b)]), 0.1)
    assert np.array_equal(a.data, [1.0, 2.0]) and np.array_equal(b.data, [3.0])


def test_sgd_step_rejects_misshaped_grad_naming_it():
    # a broadcastable gradient would silently reshape the parameter
    p = t([[1.0, 2.0]], grad=True)
    p.grad = np.ones((3, 1, 2))
    with pytest.raises(ContractError, match=r"parameter phi/p has gradient shape \(3, 1, 2\), expected \(1, 2\)"):
        ad.sgd_step(ad.ParamGroup("phi", [("p", p)]), 0.1)
    assert p.shape == (1, 2)


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

    assert finite_diff_check(f, [x], eps=1e-5) < 1e-7


def test_finite_diff_check_rejects_zero_eps():
    x = t([1.0], grad=True)
    with pytest.raises(ValueError):
        finite_diff_check(lambda _: x.sum(), [x], eps=0.0)


def test_finite_diff_check_restores_values_and_grads():
    x = t([1.0, 2.0], grad=True)
    finite_diff_check(lambda _: ad.mul(x, x).sum(), [x], eps=1e-5)
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

    return finite_diff_check(f, leaves, eps=1e-5)


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
    # train-mode output depends only on the batch, so reusing state keeps f pure
    state = ad.BatchNormState.create(2)
    eval_state = ad.BatchNormState.create(2)
    eval_state.running_mean = rng.normal(size=2)
    eval_state.running_var = rng.uniform(0.5, 2.0, size=2)
    theta = ad.ParamGroup("theta", [("conv0_w", k), ("bn0_gamma", gamma), ("bn0_beta", beta)])
    # central differences hold only away from the ReLU kink: the train tail's, on x,
    # and the eval-mode folded block's, on conv2d(x, k)
    for bn_input, bn_state, mode in ((x, state, "train"), (ad.conv2d(x, k, 1, 1), eval_state, "eval")):
        pre = composed_batch_norm(bn_input, gamma, beta, bn_state.copy(), mode)
        assume(np.abs(pre.data).min() > 1e-3)
    assert _probe(lambda: ad.conv2d(x, k, stride=1, pad=1), [x, k], rng) < 1e-4
    assert _probe(lambda: ad.bn_relu(x, gamma, beta, state), [x, gamma, beta], rng) < 1e-4
    folded = lambda: backbone._conv_block(x, theta, 0, eval_state, "eval")
    assert _probe(folded, [x, k, gamma, beta], rng) < 1e-4
