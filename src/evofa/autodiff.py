"""Dense float64 tensors with tape-based reverse-mode differentiation.

The tape is rebuilt on every forward pass; calling :func:`backward` on a
scalar walks it once, consuming it, and accumulates gradients into the
leaves. Backward calls over new tapes accumulate until :func:`sgd_step`
applies and clears them.
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

    def is_finite(self) -> bool:
        """Validity check: True iff the data holds no NaN or Inf."""
        return bool(np.isfinite(self.data).all())

    def sum(self, axis=None, keepdims=False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False) -> "Tensor":
        return tensor_mean(self, axis=axis, keepdims=keepdims)


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
    out = np.maximum(a.data, 0.0)  # NaN stays NaN
    return _make(out, (a,), lambda g: (g * (out > 0),))


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
        if axis is not None and not keepdims:
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
        if axis is not None and not keepdims:
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

SLICE_BYTES = 2 << 20  # most bytes one slice holds: conv2d's columns of batch rows, bn_relu's backward channels


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

    Both passes are im2col (Chellapilla et al., 2006) over slices of batch
    rows whose columns hold at most ``SLICE_BYTES`` or one row, and each
    pads only its current slice. Forward, a slice is one [c_out x c_in·h·w]
    product. Backward, a slice adds its per-tap [c_out x P] @ [P x c_in]
    products onto the running kernel gradient row by row, so the sum keeps the
    whole batch's order and bits, then scatters its gcols into a slice-sized
    padded buffer (col2im) whose interior is the slice's input gradient. No
    result depends on the slicing. The node keeps its operands' arrays, not a
    padded copy of the input.
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
    slice_rows = max(1, SLICE_BYTES // (8 * c_in * kh * kw * out_h * out_w))
    parts = [slice(b0, b0 + slice_rows) for b0 in range(0, batch, slice_rows)]
    data = np.empty((batch, c_out, out_h * out_w))
    for part in parts:  # matmul treats each batch row on its own
        rows = _pad(x_data[part], pad)
        cols = np.empty((len(rows), c_in, kh, kw, out_h, out_w))
        for i, j in taps:
            cols[:, :, i, j] = window(rows, i, j)
        np.matmul(kmat, cols.reshape(len(rows), c_in * kh * kw, -1), out=data[part])
        del rows, cols  # before the next slice's, so two slices never coexist
    data = data.reshape(batch, c_out, out_h, out_w)

    def grad_fn(g):
        g2 = g.reshape(batch, c_out, -1)
        gk = np.empty_like(k_data)
        gx = np.empty_like(x_data)
        for part in parts:
            rows = _pad(x_data[part], pad)
            for i, j in taps:
                tap = window(rows, i, j).reshape(len(rows), c_in, -1)
                prod = np.matmul(g2[part], tap.transpose(0, 2, 1))
                if part.start:  # continue the batch sum where the last slice left it
                    prod[0] += gk[:, :, i, j]
                gk[:, :, i, j] = prod.sum(axis=0)
            del rows, tap, prod  # before gcols, so the two never coexist
            gcols = np.matmul(kmat.T, g2[part]).reshape(-1, c_in, kh, kw, out_h, out_w)
            gxp = np.zeros((len(gcols), c_in, height + 2 * pad, width + 2 * pad))
            # col2im one kernel tap at a time: a tap writes each padded position at
            # most once, and taps run in column order, so every element sums its
            # contributions in the same order as a scatter-add over the columns.
            for i, j in taps:
                spots = window(gxp, i, j)
                spots += gcols[:, :, i, j]
            gx[part] = gxp[:, :, pad : pad + height, pad : pad + width]
            del gcols, gxp, spots  # before the next slice's
        return (gx, gk)

    return _make(data, (x, k), grad_fn)


# -- batch normalization --------------------------------------------------------

BN_MOMENTUM, BN_EPS = 0.1, 1e-5  # running-statistics update rate; variance floor


@dataclass
class BatchNormState:
    """Running statistics for one batch-norm stage."""

    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def create(cls, channels: int) -> "BatchNormState":
        return cls(np.zeros(channels), np.ones(channels))

    def copy(self) -> "BatchNormState":
        return BatchNormState(self.running_mean.copy(), self.running_var.copy())


_BN_AXES, _BN_VIEW = (0, 2, 3), (1, -1, 1, 1)


def bn_relu(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState) -> Tensor:
    """relu(gamma * (x - mean) / sqrt(var + eps) + beta) per channel, as one tape node.

    This is the train-mode block tail: it normalizes by batch statistics and
    updates ``state``'s running ones (eval mode folds batch norm into the conv
    instead, ``backbone._conv_block``). Both passes are batch norm's closed form
    with per-channel coefficients (Ioffe & Szegedy, ICML 2015, Algorithm 1 and
    its backward pass). Forward, the centred input becomes the output in place.
    Backward writes into the incoming gradient, which the node owns: the ReLU
    mask makes it g', and g_x = scale * g' - k2 * (x - mean) - k3 replaces it
    one slice of channels at a time, each slice centring its own part of x
    (at most ``SLICE_BYTES`` or one channel). So the pass allocates no
    full-size array but the mask, and never writes into x. Every reduction
    past the pairwise mean reads the centred input, not x, so a large channel
    offset costs no digits. The node keeps its input array, its output and
    per-channel vectors, and takes the ReLU mask from the output (in-place
    activated batch norm, Rota Bulò et al., CVPR 2018).
    """
    if x.ndim != 4:
        raise ShapeError(f"batch norm expects [B x c x H x W] input, got {x.shape}")
    x_data = x.data
    batch, channels, height, width = x.shape
    count = batch * height * width
    mu = np.mean(x_data, axis=_BN_AXES, keepdims=True)
    out = x_data - mu
    var = np.einsum("bchw,bchw->c", out, out) / count
    m = BN_MOMENTUM
    state.running_mean = (1.0 - m) * state.running_mean + m * mu.reshape(-1)
    state.running_var = (1.0 - m) * state.running_var + m * var
    inv_std = (var + BN_EPS) ** -0.5
    scale = gamma.data * inv_std
    out *= scale.reshape(_BN_VIEW)
    out += beta.data.reshape(_BN_VIEW)
    np.maximum(out, 0.0, out=out)
    per_slice = max(1, SLICE_BYTES // (8 * count))

    def grad_fn(g):
        g *= out > 0  # g', the gradient at the pre-activation
        g_beta = g.sum(axis=_BN_AXES)  # over the whole array: a sliced sum can differ in its last bit
        g_gamma = np.empty(channels)
        k3 = scale * g_beta / count
        # scale * (g' - mean(g') - x_hat * mean(g' * x_hat)), x_hat = (x - mu) * inv_std
        for c0 in range(0, channels, per_slice):
            part = slice(c0, c0 + per_slice)
            g_part = g[:, part]
            centred = x_data[:, part] - mu[:, part]
            g_gamma[part] = np.einsum("bchw,bchw->c", g_part, centred) * inv_std[part]
            k2 = scale[part] * inv_std[part] * g_gamma[part] / count
            centred *= k2.reshape(_BN_VIEW)
            g_part *= scale[part].reshape(_BN_VIEW)
            g_part -= centred
            g_part -= k3[part].reshape(_BN_VIEW)
            del centred  # before the next slice's, so two slices never coexist
        return g, g_gamma.reshape(gamma.shape), g_beta.reshape(beta.shape)

    return _make(out, (x, gamma, beta), grad_fn)


# -- backward pass -----------------------------------------------------------------

_CONSUMED = object()  # the grad_fn of a node that a backward sweep has processed


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar; accumulates into leaf .grad until sgd_step clears it.

    The sweep consumes the graph. It pops each node from its order and drops
    the node's grad_fn and parents, keeping them only while that grad_fn runs,
    so the arrays that only a processed node kept are freed as the sweep goes.
    A later ``backward`` that reaches a consumed node raises ContractError
    before any gradient moves; a new forward pass builds a new graph.

    Each node's gradient leaves ``grads`` as it goes into the node's grad_fn,
    and the sweep keeps no reference to it. The grad_fn owns that array: it
    may write into it, and ``_accumulate`` never hands one array to two parents.
    """
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
        if node._grad_fn is _CONSUMED:
            raise ContractError(
                "backward reached a graph that an earlier backward consumed; run the forward pass again"
            )
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen and parent.requires_grad:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    while topo:
        node = topo.pop()  # the last reference to a processed node goes with the next pop
        grad_fn, parents = node._grad_fn, node._parents
        if grad_fn is not None:
            node._grad_fn, node._parents = _CONSUMED, ()
        if id(node) not in grads or not node.requires_grad:
            continue
        if grad_fn is not None:
            _accumulate(grads, parents, grad_fn(grads.pop(id(node))))
        elif node.grad is None:
            node.grad = grads.pop(id(node)).copy()
        else:
            node.grad = node.grad + grads.pop(id(node))


def _accumulate(grads: dict[int, np.ndarray], parents: tuple[Tensor, ...], parent_grads) -> None:
    """Add each parent's gradient into ``grads``; returning drops this frame's references to them.

    A parent owns the array it receives, so one array given to two parents
    (``add`` returns its incoming gradient to both operands of equal shape)
    goes to the second as a copy.
    """
    given: set[int] = set()
    for parent, pg in zip(parents, parent_grads):
        if pg is None or not parent.requires_grad:
            continue
        if id(pg) in given:
            pg = pg.copy()
        given.add(id(pg))
        acc = grads.get(id(parent))
        grads[id(parent)] = pg if acc is None else acc + pg


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

    def get(self, name: str) -> Tensor:
        for n, t in self.entries:
            if n == name:
                return t
        raise ContractError(f"no parameter {self.name}/{name}")

    def copy(self) -> "ParamGroup":
        return ParamGroup(
            self.name,
            [(n, Tensor(t.data.copy(), requires_grad=t.requires_grad)) for n, t in self.entries],
        )


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

