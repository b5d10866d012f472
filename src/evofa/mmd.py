"""Kernel two-sample distance used as the alignment loss between feature sets.

Multi-RBF maximum mean discrepancy, biased V-statistic form. The biased
estimator is nonnegative by construction, which keeps the adaptation loss
well behaved near zero.
"""
from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _make
from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class KernelSpec:
    """Mixture of RBF kernels: sum_j w_j * exp(-dist2 / (2 * sigma_j^2))."""

    # empty defaults: a config kernel object that leaves one out meets __post_init__'s error
    bandwidths: tuple[float, ...] = ()
    weights: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.bandwidths) == 0:
            raise ConfigError("kernel spec needs at least one bandwidth")
        if len(self.weights) != len(self.bandwidths):
            raise ConfigError("one weight per bandwidth required")
        if not all(math.isfinite(v) for v in self.bandwidths + self.weights):
            raise ConfigError(
                f"bandwidths and weights must be finite, got {self.bandwidths} and {self.weights}"
            )
        if any(s <= 0 for s in self.bandwidths):
            raise ConfigError(f"bandwidths must be positive, got {self.bandwidths}")
        # the kernel scales by 1/sigma^2: an overflow there makes every MMD^2 NaN or 0
        if not all(0.0 < s * s < math.inf and 1.0 / (s * s) < math.inf for s in self.bandwidths):
            raise ConfigError(f"bandwidths must have finite positive sigma^2 and 1/sigma^2, got {self.bandwidths}")
        if any(w < 0 for w in self.weights):
            raise ConfigError(f"weights must be nonnegative, got {self.weights}")
        total = float(sum(self.weights))
        if not 0 < total < math.inf:
            raise ConfigError(f"weights must not all be zero and must have a finite sum, got {self.weights}")
        if abs(total - 1.0) > 1e-9:
            object.__setattr__(self, "weights", tuple(w / total for w in self.weights))

    @classmethod
    def around(cls, sigma: float) -> "KernelSpec":
        """Default three-kernel ladder {sigma/2, sigma, 2*sigma}, equal weights."""
        return cls((sigma / 2.0, sigma, 2.0 * sigma), (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0))


@functools.lru_cache(maxsize=16)
def _upper_pairs(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs a < b among ``count`` points, row-major, read-only."""
    pairs = np.triu_indices(count, k=1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _pair_sq_dists(z: np.ndarray) -> np.ndarray:
    """Squared distances of the row pairs a < b of z [N x e], in row-major pair order.

    Each pair's difference is reduced on its own, so a distance is the same
    bits whichever way round the pair is taken: (a - b)^2 == (b - a)^2.
    """
    rows, cols = _upper_pairs(len(z))
    diff = np.take(z, rows, axis=0) - np.take(z, cols, axis=0)
    return np.einsum("pd,pd->p", diff, diff)


def mmd2(x: Tensor, y: Tensor, spec: KernelSpec | Sequence[KernelSpec]) -> Tensor:
    """Biased squared MMD: mean K(X,X) + mean K(Y,Y) - 2 mean K(X,Y), as one tape node.

    Stacks of sample sets [G x m x e], [G x n x e] give the [G] values of their
    slices; one pair of sets is a stack of one. ``spec`` is one KernelSpec for
    every slice or one per slice. On each slice's pooled Z = [X; Y]
    the loss is sum_j w_j sum_ab S_ab K_j(a, b), with block weights S of
    1/m^2, 1/n^2 and -1/(mn), so its gradient has the closed form
    dL/dZ = -sum_j (w_j / sigma_j^2) (diag(M_j 1) - M_j) Z with M_j = 2 S * K_j.
    """
    if x.ndim != 3 or y.ndim != 3 or x.shape[-1] != y.shape[-1]:
        raise ShapeError(f"mmd2 needs stacks [G x m x e], [G x n x e] of sample sets, got {x.shape}, {y.shape}")
    if x.shape[0] != y.shape[0]:
        raise ShapeError(f"mmd2 stacks hold {x.shape[0]} and {y.shape[0]} slices")
    m, n = x.shape[-2], y.shape[-2]
    if m < 1 or n < 1:
        raise ShapeError(f"mmd2 needs nonempty sample sets, got {m} and {n} rows")
    z = np.concatenate([x.data, y.data], axis=-2)
    specs = [spec] * len(z) if isinstance(spec, KernelSpec) else list(spec)
    if len(specs) != len(z) or len({len(s.bandwidths) for s in specs}) != 1:
        raise ShapeError(f"mmd2 needs one kernel spec per slice, all of one length, for {len(z)} slices")
    sigma = np.array([s.bandwidths for s in specs])  # [G x J]
    weights = np.array([s.weights for s in specs])

    rows, cols = _upper_pairs(m + n)
    dist2 = np.zeros((len(z), m + n, m + n))
    for square, points in zip(dist2, z):  # per slice: pair buffers for a whole stack are G times larger
        square[rows, cols] = square[cols, rows] = _pair_sq_dists(points)
    kernels = []
    with np.errstate(over="ignore"):  # a product beyond float64 range is -inf, and exp(-inf) = 0 is exact
        for s in sigma.T:
            scaled = dist2 * (-0.5 / (s * s))[:, None, None]
            kernels.append(np.exp(scaled))  # numpy runs exp(<temporary>) in place, 5x slower
    # The mixture sums in ladder order and each block mean reduces a contiguous
    # copy, so the value is bitwise that of three separate kernel matrices.
    mix = None
    for k, w in zip(kernels, weights.T):
        term = k * w[:, None, None]
        mix = term if mix is None else mix + term
    block_mean = lambda block: np.ascontiguousarray(block).mean(axis=(1, 2))
    kxx, kyy, kxy = block_mean(mix[:, :m, :m]), block_mean(mix[:, m:, m:]), block_mean(mix[:, :m, m:])
    value = (kxx + kyy) - kxy * 2.0

    # sum_j (w_j / sigma_j^2) M_j. (diag(A 1) - A) Z ignores A's diagonal and a
    # shift of Z's rows, which would only add round-off: keep both out.
    s2 = np.full((m + n, m + n), -2.0 / (m * n))  # 2 S
    s2[:m, :m], s2[m:, m:] = 2.0 / (m * m), 2.0 / (n * n)
    np.fill_diagonal(s2, 0.0)
    rates = (weights / (sigma * sigma)).T  # [J x G]
    a = sum(k * r[:, None, None] for k, r in zip(kernels, rates)) * s2
    z -= z.mean(axis=1, keepdims=True)

    def grad_fn(g):
        ag = a * np.reshape(g, (-1, 1, 1))
        gz = np.matmul(ag, z) - ag.sum(axis=2, keepdims=True) * z
        return gz[:, :m, :], gz[:, m:, :]

    return _make(value, (x, y), grad_fn)


def median_heuristic(x: np.ndarray, y: np.ndarray) -> float:
    """Median pairwise Euclidean distance over the pooled sample, zeros excluded."""
    pooled = np.concatenate([np.asarray(a, dtype=np.float64) for a in (x, y)], axis=0)
    if pooled.shape[0] < 2:
        raise ShapeError(f"median heuristic needs at least 2 points, got {pooled.shape[0]}")
    upper = np.sqrt(_pair_sq_dists(pooled))
    upper = upper[upper > 0.0]
    if upper.size == 0:
        warnings.warn("all points identical; falling back to bandwidth 1.0")
        return 1.0
    return float(np.median(upper))


def default_spec(x: np.ndarray, y: np.ndarray) -> KernelSpec:
    """Kernel ladder centered on the median-heuristic bandwidth of the pooled data."""
    return KernelSpec.around(median_heuristic(x, y))
