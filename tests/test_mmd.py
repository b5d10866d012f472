"""Kernel distance: hand oracles, brute-force equivalence, drift response."""
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from evofa import autodiff as ad, mmd
from evofa.errors import ConfigError, ShapeError
from helpers import finite_diff_check, scalar


def t(data, grad=False):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


def one(data, grad=False):
    """A sample set [m x e] as mmd2 takes it: a stack of one, [1 x m x e]."""
    return t(np.asarray(data, dtype=np.float64)[None], grad)


def single(sigma: float) -> mmd.KernelSpec:
    return mmd.KernelSpec((sigma,), (1.0,))


SINGLE = single(1.0)


# -- KernelSpec ----------------------------------------------------------------

def test_kernel_spec_normalizes_weights():
    spec = mmd.KernelSpec((1.0, 2.0), (1.0, 3.0))
    assert sum(spec.weights) == pytest.approx(1.0)
    assert spec.weights[1] == pytest.approx(0.75)


def test_kernel_spec_rejects_empty_and_nonpositive():
    with pytest.raises(ConfigError):
        mmd.KernelSpec((), ())
    with pytest.raises(ConfigError):
        mmd.KernelSpec((0.0,), (1.0,))
    with pytest.raises(ConfigError):
        mmd.KernelSpec((1.0,), (-1.0,))
    with pytest.raises(ConfigError):
        mmd.KernelSpec((1.0, 2.0), (1.0,))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_kernel_spec_rejects_non_finite(bad):
    with pytest.raises(ConfigError, match="finite"):
        mmd.KernelSpec((bad,), (1.0,))
    with pytest.raises(ConfigError, match="finite"):
        mmd.KernelSpec((1.0, 2.0), (1.0, bad))


@pytest.mark.parametrize("sigma", [1e-160, 1e-170, 1e155, 1e200])
def test_kernel_spec_rejects_bandwidth_whose_square_or_inverse_square_overflows(sigma):
    # 1e-160: -0.5 / sigma^2 is -inf and MMD^2 NaN; 1e200: sigma^2 is inf and MMD^2 exactly 0
    with pytest.raises(ConfigError, match=r"^bandwidths must have finite positive sigma\^2 and 1/sigma\^2"):
        single(sigma)


def test_kernel_spec_rejects_weights_whose_sum_overflows():
    # the sum is inf, so normalizing would zero every weight and switch the loss off
    with pytest.raises(ConfigError, match="^weights must not all be zero and must have a finite sum"):
        mmd.KernelSpec((1.0, 2.0), (1e308, 1e308))
    assert mmd.KernelSpec((1.0, 2.0), (1e307, 1e307)).weights == (0.5, 0.5)


@pytest.mark.parametrize("sigma", [1e-150, 1e150])
def test_kernel_spec_at_the_edges_of_its_range_gives_a_finite_mmd2(sigma):
    x = one(np.random.default_rng(0).normal(size=(6, 3)), grad=True)
    loss = mmd.mmd2(x, t(x.data + 1.0), single(sigma))
    ad.backward(loss)
    assert np.isfinite(scalar(loss)) and scalar(loss) >= 0.0
    assert np.all(np.isfinite(x.grad))


def test_mmd2_of_the_smallest_bandwidths_is_exact_without_a_warning():
    # with sigma = 1e-154 a squared distance beyond ~3.6 overflows -dist2 / (2 sigma^2) to -inf,
    # whose kernel value exp(-inf) = 0 is exact: only the diagonal is left, so MMD^2 = 1/6 + 1/6
    x = one(np.random.default_rng(0).normal(size=(6, 3)), grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss = mmd.mmd2(x, t(x.data + 1.0), single(1e-154))
        ad.backward(loss)
    assert scalar(loss) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert np.all(np.isfinite(x.grad))


def test_kernel_ladder_around_sigma():
    spec = mmd.KernelSpec.around(2.0)
    assert spec.bandwidths == (1.0, 2.0, 4.0)
    assert all(w == pytest.approx(1.0 / 3.0) for w in spec.weights)


# -- mmd2 ------------------------------------------------------------------------

def test_mmd2_identical_sets_is_zero():
    rng = np.random.default_rng(2)
    x = one(rng.normal(size=(7, 5)))
    assert abs(scalar(mmd.mmd2(x, x, mmd.KernelSpec.around(1.0)))) < 1e-12


def test_mmd2_hand_value():
    value = scalar(mmd.mmd2(one([[0.0]]), one([[1.0]]), SINGLE))
    assert value == pytest.approx(2.0 - 2.0 * np.exp(-0.5), abs=1e-9)
    assert value == pytest.approx(0.78694, abs=1e-5)


def test_mmd2_matches_brute_force():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 3))
    y = rng.normal(size=(4, 3))
    spec = mmd.KernelSpec((0.7, 1.3), (0.4, 0.6))

    def k(a, b):
        d2 = np.sum((a - b) ** 2)
        return sum(w * np.exp(-d2 / (2 * s * s)) for s, w in zip(spec.bandwidths, spec.weights))

    kxx = np.mean([[k(a, b) for b in x] for a in x])
    kyy = np.mean([[k(a, b) for b in y] for a in y])
    kxy = np.mean([[k(a, b) for b in y] for a in x])
    expect = kxx + kyy - 2 * kxy
    assert scalar(mmd.mmd2(one(x), one(y), spec)) == pytest.approx(expect, abs=1e-12)


def test_mmd2_empty_set_rejected():
    with pytest.raises(ShapeError):
        mmd.mmd2(one(np.zeros((0, 3))), one(np.zeros((4, 3))), SINGLE)


def test_mmd2_rejects_sets_that_are_not_stacks():
    # one pair of sets is a stack of one: [m x e] alone is not accepted
    with pytest.raises(ShapeError, match=r"stacks \[G x m x e\]"):
        mmd.mmd2(t(np.zeros((2, 3))), t(np.zeros((4, 3))), SINGLE)
    with pytest.raises(ShapeError, match=r"stacks \[G x m x e\]"):
        mmd.mmd2(one(np.zeros((2, 3))), t(np.zeros((4, 3))), SINGLE)


def test_mmd2_dim_mismatch_rejected():
    with pytest.raises(ShapeError):
        mmd.mmd2(one(np.zeros((2, 3))), one(np.zeros((2, 4))), SINGLE)
    with pytest.raises(ShapeError):
        mmd.mmd2(t(np.zeros((2, 2, 3))), t(np.zeros((3, 2, 3))), SINGLE)
    with pytest.raises(ShapeError):
        mmd.mmd2(t(np.zeros((2, 2, 3))), t(np.zeros((2, 2, 3))), [SINGLE])


def test_mmd2_symmetric_in_its_arguments():
    rng = np.random.default_rng(1)
    x = one(rng.normal(size=(5, 4)))
    y = one(rng.normal(size=(3, 4)))
    spec = mmd.KernelSpec.around(1.5)
    assert scalar(mmd.mmd2(x, y, spec)) == pytest.approx(scalar(mmd.mmd2(y, x, spec)), abs=1e-15)


# -- the fused node against the composed tape ------------------------------------


def composed_mmd2(x: ad.Tensor, y: ad.Tensor, spec: mmd.KernelSpec) -> ad.Tensor:
    """Reference: mmd2 built from elementwise tape ops, one kernel matrix per block."""

    def kernel(a, b):
        dist2 = ad.sq_euclidean_pairwise(a, b)
        out = None
        for sigma, w in zip(spec.bandwidths, spec.weights):
            term = ad.mul(ad.exp(ad.mul(dist2, ad.Tensor(-0.5 / (sigma * sigma)))), ad.Tensor(w))
            out = term if out is None else ad.add(out, term)
        return out

    kxx, kyy, kxy = kernel(x, x).mean(), kernel(y, y).mean(), kernel(x, y).mean()
    return ad.sub(ad.add(kxx, kyy), ad.mul(kxy, ad.Tensor(2.0)))


def random_sets(rng, slices=None):
    m, n, e = (int(v) for v in rng.integers(1, 24, size=3))
    lead = () if slices is None else (slices,)
    x = rng.normal(size=lead + (m, e)) * rng.uniform(0.2, 4.0)
    y = rng.normal(loc=rng.normal(), size=lead + (n, e))
    if rng.random() < 0.3:  # duplicate points across the sets
        y[..., :1, :] = x[..., :1, :]
    return x, y


def checked_default_spec(x, y):
    """default_spec, which must warn of its fallback exactly when every pooled point is the same."""
    pooled = np.concatenate([x, y])
    if np.all(pooled == pooled[0]):  # m = n = 1 with the duplicate branch
        with pytest.warns(UserWarning, match="all points identical; falling back to bandwidth 1.0"):
            return mmd.default_spec(x, y)
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "all points identical")
        return mmd.default_spec(x, y)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=4060)  # a degenerate draw: one point per set, the same point
def test_fused_mmd2_value_bitwise_and_grad_match_composed_tape(seed):
    rng = np.random.default_rng(seed)
    xs, ys = random_sets(rng)
    spec = checked_default_spec(xs, ys) if rng.random() < 0.5 else mmd.KernelSpec((0.7, 1.9), (0.3, 0.7))
    x, y, xr, yr = one(xs, True), one(ys, True), t(xs, True), t(ys, True)
    fused, ref = mmd.mmd2(x, y, spec), composed_mmd2(xr, yr, spec)
    assert scalar(fused) == scalar(ref)  # bitwise
    ad.backward(fused)
    ad.backward(ref)
    for got, want in ((x.grad[0], xr.grad), (y.grad[0], yr.grad)):  # atol: entries that cancel to ~0
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15 + 1e-12 * np.abs(want).max())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=1662)  # every slice degenerate: one point per set, the same point
def test_stacked_mmd2_slices_equal_stacks_of_one(seed):
    rng = np.random.default_rng(seed)
    xs, ys = random_sets(rng, slices=int(rng.integers(1, 6)))
    specs = [checked_default_spec(a, b) for a, b in zip(xs, ys)]
    x, y = t(xs, True), t(ys, True)
    stacked = mmd.mmd2(x, y, specs)
    assert stacked.shape == (len(xs),)
    ad.backward(stacked.sum())
    for g, spec in enumerate(specs):
        xg, yg = one(xs[g], True), one(ys[g], True)
        alone = mmd.mmd2(xg, yg, spec)
        ad.backward(alone)
        assert stacked.data[g] == scalar(alone)
        np.testing.assert_array_equal(x.grad[g], xg.grad[0])
        np.testing.assert_array_equal(y.grad[g], yg.grad[0])


def test_stacked_mmd2_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    x = t(rng.normal(size=(3, 4, 2)), grad=True)
    y = t(rng.normal(loc=0.5, size=(3, 5, 2)), grad=True)
    specs = [mmd.KernelSpec.around(s) for s in (0.8, 1.2, 2.0)]
    weights = t([1.0, -0.5, 2.0])  # distinct upstream gradients per slice

    def f(_):
        return ad.mul(mmd.mmd2(x, y, specs), weights).sum()

    assert finite_diff_check(f, [x, y], eps=1e-6) < 1e-6


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mmd2_nonnegative(seed):
    rng = np.random.default_rng(seed)
    x = one(rng.normal(size=(rng.integers(1, 8), 3)))
    y = one(rng.normal(loc=rng.normal(), size=(rng.integers(1, 8), 3)))
    assert scalar(mmd.mmd2(x, y, mmd.KernelSpec.around(1.0))) >= 0.0


def test_mmd2_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    x = one(rng.normal(size=(5, 3)), grad=True)
    y = one(rng.normal(loc=0.5, size=(4, 3)), grad=True)
    spec = mmd.KernelSpec.around(1.2)

    def f(_):
        return mmd.mmd2(x, y, spec)

    assert finite_diff_check(f, [x, y], eps=1e-5) < 1e-4


def test_mmd2_monotone_in_mean_gap():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(30, 4))
    target = rng.normal(size=(30, 4))
    spec = mmd.KernelSpec.around(np.sqrt(2.0 * 4))
    values = [scalar(mmd.mmd2(one(base + delta), one(target), spec)) for delta in (0.0, 1.0, 2.0)]
    assert values[0] < values[1] < values[2]


# -- median heuristic ---------------------------------------------------------------

def test_median_heuristic_two_points():
    sigma = mmd.median_heuristic(np.array([[0.0, 0.0]]), np.array([[0.0, 3.0]]))
    assert sigma == pytest.approx(3.0)


def test_median_heuristic_scale_equivariant():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(6, 3))
    y = rng.normal(size=(5, 3))
    base = mmd.median_heuristic(x, y)
    scaled = mmd.median_heuristic(2.5 * x, 2.5 * y)
    assert scaled == pytest.approx(2.5 * base, rel=1e-12)


def test_median_heuristic_degenerate_falls_back():
    pts = np.ones((4, 2))
    with pytest.warns(UserWarning):
        sigma = mmd.median_heuristic(pts, pts)
    assert sigma == 1.0


def test_median_heuristic_needs_two_points():
    with pytest.raises(ShapeError):
        mmd.median_heuristic(np.zeros((1, 2)), np.zeros((0, 2)))


def full_difference_median(x, y):
    """Reference: the median over the upper triangle of the full pairwise distance matrix."""
    pooled = np.concatenate([x, y], axis=0)
    diff = pooled[:, None, :] - pooled[None, :, :]
    dist = np.sqrt(np.einsum("ijd,ijd->ij", diff, diff))
    upper = dist[np.triu_indices(pooled.shape[0], k=1)]
    upper = upper[upper > 0.0]
    return float(np.median(upper)) if upper.size else 1.0


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_median_heuristic_bitwise_equals_full_difference_form(seed):
    rng = np.random.default_rng(seed)
    xs, ys = random_sets(rng)
    if rng.random() < 0.2:  # every point identical: the fallback
        ys = np.broadcast_to(xs[:1], ys.shape).copy()
        xs = np.broadcast_to(xs[:1], xs.shape).copy()
    if xs.shape[0] + ys.shape[0] < 2:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert mmd.median_heuristic(xs, ys) == full_difference_median(xs, ys)


def test_default_spec_builds_ladder():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(8, 3))
    y = rng.normal(size=(8, 3))
    spec = mmd.default_spec(x, y)
    sigma = mmd.median_heuristic(x, y)
    assert spec.bandwidths == (sigma / 2.0, sigma, 2.0 * sigma)
