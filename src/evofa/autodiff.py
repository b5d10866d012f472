"""Dense float64 tensors with tape-based reverse-mode differentiation.

The tape is rebuilt on every forward pass; calling :func:`backward` on a
scalar walks it once and accumulates gradients into the leaves. Repeated
backward calls accumulate until :func:`sgd_step` applies and clears them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, ShapeError

_recording = True  # tape recording; no_grad switches it off inside its block


def _grad_enabled() -> bool:
    return _recording


class no_grad:
    """Context manager that disables tape recording inside its block."""

    def __enter__(self):
        global _recording
        self._prev, _recording = _recording, False
        return self

    def __exit__(self, *exc):
        global _recording
        _recording = self._prev
        return False


class Tensor:
    """A dense float64 array plus optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    def is_finite(self) -> bool:
        """Validity check: True iff the data holds no NaN or Inf."""
        return bool(np.isfinite(self.data).all())

    def sum(self, axis=None, keepdims=False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False) -> "Tensor":
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _make(data: np.ndarray, parents: tuple[Tensor, ...], grad_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._grad_fn = grad_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._grad_fn = None
    return out


def _sum_to_shape(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise arithmetic ----------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    return _make(
        a.data + b.data,
        (a, b),
        lambda g: (_sum_to_shape(g, a.shape), _sum_to_shape(g, b.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _make(
        a.data - b.data,
        (a, b),
        lambda g: (_sum_to_shape(g, a.shape), _sum_to_shape(-g, b.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _make(
        a.data * b.data,
        (a, b),
        lambda g: (_sum_to_shape(g * b.data, a.shape), _sum_to_shape(g * a.data, b.shape)),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    return _make(
        a.data / b.data,
        (a, b),
        lambda g: (
            _sum_to_shape(g / b.data, a.shape),
            _sum_to_shape(-g * a.data / (b.data * b.data), b.shape),
        ),
    )


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def power(a: Tensor, exponent: float) -> Tensor:
    exponent = float(exponent)
    return _make(
        a.data ** exponent,
        (a,),
        lambda g: (g * exponent * a.data ** (exponent - 1.0),),
    )


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    return _make(out_data, (a,), lambda g: (g * out_data,))


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _make(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-a.data))
    return _make(s, (a,), lambda g: (g * s * (1.0 - s),))


def clamp_min(a: Tensor, floor: float) -> Tensor:
    mask = a.data > floor
    return _make(np.where(mask, a.data, floor), (a,), lambda g: (g * mask,))


# -- shape manipulation ----------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    in_shape = a.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(in_shape),))


def transpose(a: Tensor, axes=None) -> Tensor:
    if axes is None:
        if a.ndim < 2:
            raise ShapeError("transpose needs at least 2 dimensions")
        axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _make(a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _make(data, tuple(tensors), grad_fn)


def take(a: Tensor, idx) -> Tensor:
    data = a.data[idx]
    if not isinstance(data, np.ndarray):
        data = np.asarray(data, dtype=np.float64)
    advanced = _has_advanced_index(idx)

    def grad_fn(g):
        if advanced:  # repeated indices accumulate, in index order
            flat = np.arange(a.size).reshape(a.shape)[idx]
            summed = np.bincount(flat.ravel(), weights=g.ravel(), minlength=a.size)
            return (summed.reshape(a.shape),)
        out = np.zeros_like(a.data)
        out[idx] += g
        return (out,)

    return _make(data, (a,), grad_fn)


def _has_advanced_index(idx) -> bool:
    items = idx if isinstance(idx, tuple) else (idx,)
    return any(isinstance(i, (list, np.ndarray)) for i in items)


# -- reductions -------------------------------------------------------------

def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    in_shape = a.shape

    def grad_fn(g):
        if axis is None:
            return (np.broadcast_to(g, in_shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, in_shape).copy(),)

    return _make(np.sum(a.data, axis=axis, keepdims=keepdims), (a,), grad_fn)


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    in_shape = a.shape
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([in_shape[ax] for ax in axes]))

    def grad_fn(g):
        if axis is None:
            return (np.broadcast_to(g / count, in_shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, in_shape).copy(),)

    return _make(np.mean(a.data, axis=axis, keepdims=keepdims), (a,), grad_fn)


# -- linear algebra ----------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs 2D+ operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as e:
        raise ShapeError(f"matmul batch dimensions disagree: {a.shape} x {b.shape}") from e

    def grad_fn(g):  # no product for an operand that takes no gradient
        ga = gb = None
        if a.requires_grad:
            ga = _sum_to_shape(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if b.requires_grad:
            gb = _sum_to_shape(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return (ga, gb)

    return _make(data, (a, b), grad_fn)


def sq_euclidean_pairwise(x: Tensor, y: Tensor) -> Tensor:
    """All-pairs squared Euclidean distances: [m x d], [k x d] -> [m x k]."""
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ShapeError(f"pairwise distance needs [m x d], [k x d]; got {x.shape}, {y.shape}")
    diff = x.data[:, None, :] - y.data[None, :, :]
    data = np.einsum("ijd,ijd->ij", diff, diff)

    def grad_fn(g):
        gx = 2.0 * np.einsum("ij,ijd->id", g, diff)
        gy = -2.0 * np.einsum("ij,ijd->jd", g, diff)
        return (gx, gy)

    return _make(data, (x, y), grad_fn)


# -- softmax family -----------------------------------------------------------

def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    e = exp(sub(x, shift))
    return div(e, tensor_sum(e, axis=axis, keepdims=True))


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    z = exp(sub(x, shift))
    lse = add(log(tensor_sum(z, axis=axis, keepdims=True)), shift)
    return sub(x, lse)


# -- convolution ---------------------------------------------------------------

COLS_SLICE_BYTES = 2 << 20  # conv2d builds its columns (forward) and gcols (backward) this much at a time


def _pad(a: np.ndarray, pad: int) -> np.ndarray:
    """[B x c x H x W] zero-padded by ``pad`` on both spatial sides (np.pad's values, faster)."""
    if not pad:
        return a
    batch, channels, height, width = a.shape
    out = np.zeros((batch, channels, height + 2 * pad, width + 2 * pad))
    out[:, :, pad : pad + height, pad : pad + width] = a
    return out


def conv2d(x: Tensor, k: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation of [B x c_in x H x W] with [c_out x c_in x h x w].

    The forward pass is im2col (Chellapilla et al., 2006): one
    [c_out x c_in·h·w] product per slice of batch rows, whose columns hold at
    most ``COLS_SLICE_BYTES`` or one row. Each row's product is the same call
    whatever the slice, so the output does not depend on the slicing. The node
    keeps its operands' arrays, not a padded copy of the input: the backward
    pass pads again for the kernel gradient and frees that copy before the
    input gradient builds its columns and scatters them, one slice at a time.
    """
    if x.ndim != 4 or k.ndim != 4:
        raise ShapeError(f"conv2d needs [B x c x H x W] and [o x c x h x w]; got {x.shape}, {k.shape}")
    batch, c_in, height, width = x.shape
    c_out, kc, kh, kw = k.shape
    if kc != c_in:
        raise ShapeError(f"conv2d channel mismatch: input {c_in}, kernel {kc}")
    num_h = height + 2 * pad - kh
    num_w = width + 2 * pad - kw
    if num_h < 0 or num_w < 0:
        raise ConfigError(f"kernel {kh}x{kw} exceeds padded input {height + 2 * pad}x{width + 2 * pad}")
    if num_h % stride or num_w % stride:
        raise ConfigError(
            f"conv2d output size not integral: input {height}x{width}, "
            f"kernel {kh}x{kw}, stride {stride}, pad {pad}"
        )
    out_h = num_h // stride + 1
    out_w = num_w // stride + 1
    x_data, k_data = x.data, k.data  # what the forward pass read, whatever the tensors hold later

    def window(a, i, j):
        """The [rows x c_in x out_h x out_w] positions of padded array ``a`` that kernel tap (i, j) reads."""
        return a[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride]

    taps = [(i, j) for i in range(kh) for j in range(kw)]
    kmat = k_data.reshape(c_out, -1)  # columns in (c_in, i, j) order, as im2col's rows
    slice_rows = max(1, COLS_SLICE_BYTES // (8 * c_in * kh * kw * out_h * out_w))
    xp = _pad(x_data, pad)
    data = np.empty((batch, c_out, out_h * out_w))
    for b0 in range(0, batch, slice_rows):  # matmul treats each batch row on its own
        rows = xp[b0 : b0 + slice_rows]
        cols = np.empty((len(rows), c_in, kh, kw, out_h, out_w))
        for i, j in taps:
            cols[:, :, i, j] = window(rows, i, j)
        np.matmul(kmat, cols.reshape(len(rows), c_in * kh * kw, -1), out=data[b0 : b0 + slice_rows])
    data = data.reshape(batch, c_out, out_h, out_w)

    def grad_fn(g):
        g2 = g.reshape(batch, c_out, -1)
        gk = np.empty_like(k_data)
        xp = _pad(x_data, pad)
        for i, j in taps:
            tap = window(xp, i, j).reshape(batch, c_in, -1)
            gk[:, :, i, j] = np.matmul(g2, tap.transpose(0, 2, 1)).sum(axis=0)
            del tap
        del xp  # before the gcols slices, so the two never coexist
        gxp = np.zeros((batch, c_in, height + 2 * pad, width + 2 * pad))
        for b0 in range(0, batch, slice_rows):
            part = slice(b0, b0 + slice_rows)
            gcols = np.matmul(kmat.T, g2[part]).reshape(-1, c_in, kh, kw, out_h, out_w)
            # col2im one kernel tap at a time: a tap writes each padded position at
            # most once, and taps run in column order, so every element sums its
            # contributions in the same order as a scatter-add over the columns.
            for i, j in taps:
                spots = window(gxp[part], i, j)
                spots += gcols[:, :, i, j]
        gx = gxp[:, :, pad : pad + height, pad : pad + width] if pad else gxp
        return (gx, gk)

    return _make(data, (x, k), grad_fn)


# -- batch normalization --------------------------------------------------------

@dataclass
class BatchNormState:
    """Running statistics for one batch-norm stage."""

    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5

    @classmethod
    def create(cls, channels: int, momentum: float = 0.1, eps: float = 1e-5) -> "BatchNormState":
        return cls(np.zeros(channels), np.ones(channels), momentum, eps)

    def copy(self) -> "BatchNormState":
        return BatchNormState(self.running_mean.copy(), self.running_var.copy(), self.momentum, self.eps)


_BN_AXES, _BN_VIEW = (0, 2, 3), (1, -1, 1, 1)


def _bn_stats(x: np.ndarray, state: BatchNormState, mode: str):
    """Per-channel (mu, v_eps, inv_std) and x - mu; train mode also updates ``state``."""
    if mode == "train":
        mu = np.mean(x, axis=_BN_AXES, keepdims=True)
        centered = x - mu
        var = np.mean(centered * centered, axis=_BN_AXES, keepdims=True)
        m = state.momentum
        state.running_mean = (1.0 - m) * state.running_mean + m * mu.reshape(-1)
        state.running_var = (1.0 - m) * state.running_var + m * var.reshape(-1)
    else:
        mu = state.running_mean.reshape(_BN_VIEW)
        var = state.running_var.reshape(_BN_VIEW)
        centered = x - mu
    v_eps = var + np.array(state.eps)
    return mu, v_eps, v_eps**-0.5, centered


def _bn_backward(g, c, gamma_view, inv_std, v_eps, mode):
    """Closed-form batch-norm gradients (g_x, g_gamma, g_beta), the last two [1 x c x 1 x 1].

    ``c`` is x - mu; the normalized input c * inv_std is recomputed as the forward
    pass computed it (Ioffe & Szegedy, ICML 2015). Each step repeats the arithmetic
    of the equivalent tape of elementwise ops, in its order. Each full array is
    dropped once it is read for the last time, so one the caller does not keep is
    freed early.
    """
    channel = (1, g.shape[1], 1, 1)
    count = g.shape[0] * g.shape[2] * g.shape[3]
    normalized = c * inv_std
    g_gamma = _sum_to_shape(g * normalized, channel)
    del normalized
    g_beta = _sum_to_shape(g, channel)
    g_norm = g * gamma_view
    del g
    if mode == "eval":
        return g_norm * inv_std, g_gamma, g_beta
    g_sq_c = _sum_to_shape(g_norm * c, channel) * -0.5 * v_eps**-1.5 / count * c
    del c
    g_x = g_norm
    g_x *= inv_std  # in place: g_norm is not needed again
    g_x += g_sq_c  # once for each factor of var = mean(c * c), in tape order
    g_x += g_sq_c
    del g_sq_c
    g_x -= _sum_to_shape(g_x, channel) / count  # through mu = mean(x)
    return g_x, g_gamma, g_beta


def bias_bn_relu(
    x: Tensor, b: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState, mode: str
) -> Tensor:
    """relu(gamma * (x + b - mean) / sqrt(var + eps) + beta) per channel, as one tape node.

    ``b`` is a per-channel bias. Train mode normalizes by batch statistics and
    updates ``state``'s running ones; eval mode reads the running ones. The node
    keeps its input array, its output and the per-channel statistics; the backward
    pass takes the ReLU mask from the output and recomputes x + b, x + b - mean and
    the normalized input (in-place activated batch norm, Rota Bulò et al., CVPR
    2018). Outputs, gradients and running statistics are bitwise those of the same
    arithmetic recorded as a tape of elementwise ops.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"batch norm mode must be 'train' or 'eval', got {mode!r}")
    if x.ndim != 4:
        raise ShapeError(f"batch norm expects [B x c x H x W] input, got {x.shape}")
    x_data, b_view, gamma_view = x.data, b.data.reshape(_BN_VIEW), gamma.data.reshape(_BN_VIEW)
    mu, v_eps, inv_std, bn = _bn_stats(x_data + b_view, state, mode)
    bn *= inv_std  # normalized, in place: the backward pass recomputes it
    bn *= gamma_view
    bn += beta.data.reshape(_BN_VIEW)
    out = np.where(bn > 0, bn, 0.0)
    del bn

    def grad_fn(g):
        # out > 0 exactly where bn > 0. Nothing else holds the full arrays passed
        # here, so _bn_backward frees each after its last read.
        g_x, g_gamma, g_beta = _bn_backward(
            g * (out > 0), x_data + b_view - mu, gamma_view, inv_std, v_eps, mode
        )
        g_b = _sum_to_shape(g_x, g_beta.shape)  # what add -> reshape(b) gave
        return g_x, g_b.reshape(b.shape), g_gamma.reshape(gamma.shape), g_beta.reshape(beta.shape)

    return _make(out, (x, b, gamma, beta), grad_fn)


# -- backward pass -----------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar; accumulates into leaf .grad until sgd_step clears it."""
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen and parent.requires_grad:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._grad_fn is not None:
            for parent, pg in zip(node._parents, node._grad_fn(g)):
                if pg is None or not parent.requires_grad:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
        elif node.requires_grad:
            node.grad = g.copy() if node.grad is None else node.grad + g


# -- parameter groups -----------------------------------------------------------------

_GROUP_NAMES = ("theta", "phi", "w")


@dataclass
class ParamGroup:
    """Named, ordered collection of trainable tensors."""

    name: str
    entries: list[tuple[str, Tensor]] = field(default_factory=list)

    def __post_init__(self):
        if self.name not in _GROUP_NAMES:
            raise ConfigError(f"group name must be one of {_GROUP_NAMES}, got {self.name!r}")
        names = [n for n, _ in self.entries]
        if len(names) != len(set(names)):
            raise ConfigError(f"duplicate parameter names in group {self.name!r}")

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if any(n == name for n, _ in self.entries):
            raise ConfigError(f"duplicate parameter name {name!r} in group {self.name!r}")
        self.entries.append((name, tensor))
        return tensor

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.entries]

    def get(self, name: str) -> Tensor:
        for n, t in self.entries:
            if n == name:
                return t
        raise KeyError(name)

    def copy(self) -> "ParamGroup":
        return ParamGroup(
            self.name,
            [(n, Tensor(t.data.copy(), requires_grad=t.requires_grad)) for n, t in self.entries],
        )

    def state_bytes(self) -> bytes:
        return b"".join(np.ascontiguousarray(t.data).tobytes() for _, t in self.entries)


def sgd_step(group: ParamGroup, lr: float) -> ParamGroup:
    """In-place p <- p - lr * grad for every entry, then clear grads.

    The one place a gradient is applied. Every entry's gradient is checked
    before any entry moves: a missing, misshaped or non-finite one raises
    ContractError naming ``group/param`` and leaves the parameters as they were.
    """
    for name, t in group.entries:
        where = f"parameter {group.name}/{name}"
        if t.grad is None:
            raise ContractError(f"{where} has no gradient")
        if t.grad.shape != t.data.shape:
            raise ContractError(f"{where} has gradient shape {t.grad.shape}, expected {t.data.shape}")
        if not np.isfinite(t.grad).all():
            raise ContractError(f"{where} has a non-finite gradient")
    for _, t in group.entries:
        t.data = t.data - lr * t.grad
        t.grad = None
    return group


# -- gradient verification --------------------------------------------------------------

def finite_diff_check(f, params, eps: float = 1e-5) -> float:
    """Compare reverse-mode gradients of ``f(params)`` against central differences.

    ``f`` must be pure. Returns the maximum relative error over all parameter
    entries. The denominator is floored at 1e-3: central differences at step
    eps cannot certify tighter than ~1e-7 absolute, so sub-1e-3 gradients are
    compared absolutely. Parameter values are restored; grads are cleared.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    tensors = params.tensors() if isinstance(params, ParamGroup) else list(params)
    for t in tensors:
        t.grad = None
    loss = f(params)
    backward(loss)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]
    for t in tensors:
        t.grad = None

    worst = 0.0
    for t, ga in zip(tensors, analytic):
        ga_flat = ga.flatten()
        for i in range(t.data.size):
            saved = t.data.flat[i]  # .flat writes through any memory layout
            t.data.flat[i] = saved + eps
            up = f(params).item()
            t.data.flat[i] = saved - eps
            down = f(params).item()
            t.data.flat[i] = saved
            numeric = (up - down) / (2.0 * eps)
            denom = max(abs(ga_flat[i]), abs(numeric), 1e-3)
            worst = max(worst, abs(ga_flat[i] - numeric) / denom)
    return worst
