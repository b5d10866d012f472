"""Test-side references and probes: gradient checks, memory peaks, parameter bytes, composed tapes, episode scores,
row selection, a failing rename, a file tree's bytes."""
import errno
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np

from evofa import autodiff as ad, backbone, data, fsl
from evofa.autodiff import ParamGroup


def scalar(tensor: ad.Tensor) -> float:
    """The value of a one-element tensor (a scalar, or a stack of one) as a float."""
    if tensor.size != 1:
        raise ValueError(f"scalar() of a tensor of size {tensor.size}")
    return float(tensor.data.reshape(()))


def finite_diff_check(f, params, eps: float = 1e-5) -> float:
    """Compare reverse-mode gradients of ``f(params)`` against central differences.

    ``f`` must be pure and return a one-element tensor. Returns the maximum
    relative error over all parameter entries. The denominator is floored at
    1e-3: central differences at step eps cannot certify tighter than ~1e-7
    absolute, so sub-1e-3 gradients are compared absolutely. Parameter values
    are restored; grads are cleared.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    tensors = [t for _, t in params.entries] if isinstance(params, ParamGroup) else list(params)
    for t in tensors:
        t.grad = None
    ad.backward(f(params))
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]
    for t in tensors:
        t.grad = None

    worst = 0.0
    for t, ga in zip(tensors, analytic):
        ga_flat = ga.flatten()
        for i in range(t.data.size):
            saved = t.data.flat[i]  # .flat writes through any memory layout
            t.data.flat[i] = saved + eps
            up = scalar(f(params))
            t.data.flat[i] = saved - eps
            down = scalar(f(params))
            t.data.flat[i] = saved
            numeric = (up - down) / (2.0 * eps)
            denom = max(abs(ga_flat[i]), abs(numeric), 1e-3)
            worst = max(worst, abs(ga_flat[i] - numeric) / denom)
    return worst


def traced_peak(fn):
    """``fn()``'s result and the most memory it held at once, by tracemalloc.

    Tracing starts just before the call, so memory held before it is not
    counted, and neither is any of it that the call frees.
    """
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def state_bytes(group: ParamGroup) -> bytes:
    """The group's parameter values, entry by entry, as one byte string."""
    return b"".join(np.ascontiguousarray(t.data).tobytes() for _, t in group.entries)


def composed_batch_norm(x, gamma, beta, state, mode):
    """Batch norm as a tape of elementwise nodes: train mode by batch statistics, eval by running ones."""
    axes, view = (0, 2, 3), (1, -1, 1, 1)
    if mode == "train":
        mu = ad.tensor_mean(x, axis=axes, keepdims=True)
        centered = ad.sub(x, mu)
        var = ad.tensor_mean(ad.mul(centered, centered), axis=axes, keepdims=True)
        m = ad.BN_MOMENTUM
        state.running_mean = (1.0 - m) * state.running_mean + m * mu.data.reshape(-1)
        state.running_var = (1.0 - m) * state.running_var + m * var.data.reshape(-1)
    else:
        mu = ad.Tensor(state.running_mean.reshape(view))
        var = ad.Tensor(state.running_var.reshape(view))
        centered = ad.sub(x, mu)
    inv_std = ad.power(ad.add(var, ad.Tensor(ad.BN_EPS)), -0.5)
    normalized = ad.mul(centered, inv_std)
    return ad.add(ad.mul(normalized, ad.reshape(gamma, view)), ad.reshape(beta, view))


def composed_block_tail(x, gamma, beta, state, mode="train"):
    """An encoder block's tail, batch norm -> relu, as a tape of separate nodes.

    In train mode it is the reference for the fused ``ad.bn_relu``; in eval
    mode, for the block that ``backbone._conv_block`` folds into its conv.
    """
    return ad.relu(composed_batch_norm(x, gamma, beta, state, mode))


def eval_scores(pool, episode, model):
    """Class scores [Q' x N] and local targets of an episode whose rows go through the encoder in eval mode."""
    features = ad.Tensor(pool.features[fsl._episode_rows(episode)])
    emb = backbone.adapt(backbone.encode(features, model, mode="eval"), model.phi)
    return fsl._scores_from_embeddings(episode, model, emb)


def select_rows(ds, **ids):
    """The rows of ``ds`` whose subject, session and trial equal every given id, in dataset order."""
    keep = np.ones(len(ds), dtype=bool)
    for name, value in ids.items():
        keep &= getattr(ds, name) == value
    return ds._subset(keep)


def fail_replace_at(monkeypatch, k: int) -> list:
    """Make the ``k``-th ``os.replace`` that ``evofa.data`` calls from now on (1-based) raise as a full disk
    would, and the others rename as usual; k=0 fails none. Returns the destinations of the calls so far."""
    calls = []

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == k:
            raise OSError(errno.ENOSPC, "No space left on device (injected)")
        os.replace(src, dst)

    monkeypatch.setattr(data, "os", SimpleNamespace(**{**vars(os), "replace": replace}))
    return calls


def tree(root) -> dict:
    """Each path under ``root``, relative, mapped to its bytes, or to None for a directory."""
    return {p.relative_to(root).as_posix(): None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}
