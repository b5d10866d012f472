"""What the adaptation method cannot see: invariances of its distance, its head and its loss.

A similarity map x -> aRx + t (a > 0, R orthogonal) scales every pairwise
distance by a. The median-heuristic kernel ladder scales with it, so MMD²
under ``default_spec`` does not move (Gretton et al., JMLR 2012), and the
proto head's Euclidean class means move with their rows, so its predictions
do not either (Snell et al., NeurIPS 2017). The alignment gradient of the
adapter's output bias is zero for any kernel: every slice's rows of dL/dZ sum
to zero, because 1ᵀ(diag(A1) − A) = 0 for a symmetric A. So only the
anisotropic or nonlinear part of an adaptation step can change a prediction.
"""
import numpy as np
from hypothesis import assume, given, settings, strategies as st

from evofa import autodiff as ad, backbone
from evofa.adapt import alignment_loss
from evofa.autodiff import Tensor
from evofa.mmd import KernelSpec, default_spec, mmd2


def _similarity(rng: np.random.Generator, dim: int):
    """A random x -> aRx + t on rows of width ``dim``: scale a in [0.2, 5], rotation R, shift t."""
    scale = rng.uniform(0.2, 5.0)
    rotation, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    shift = rng.normal(scale=3.0, size=dim)
    return lambda rows: scale * rows @ rotation.T + shift


def _model(dim: int) -> backbone.Model:
    """A proto-head model whose embeddings and adapter rows are ``dim`` wide."""
    cfg = backbone.BackboneConfig(
        n_electrodes=4, d_bands=4, conv_channels=(4, 4, 4, dim), embedding_dim=dim, adapter_hidden=2 * dim
    )
    return backbone.create_model(cfg, seed=0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mmd2_under_default_spec_is_unchanged_by_a_similarity_map(seed):
    rng = np.random.default_rng(seed)
    m, n, dim = (int(v) for v in rng.integers(2, 12, size=3))
    x, y = rng.normal(size=(m, dim)), rng.normal(loc=rng.normal(), size=(n, dim))
    f = _similarity(rng, dim)

    def value(a, b):
        return float(mmd2(Tensor(a[None]), Tensor(b[None]), default_spec(a, b)).data[0])

    assert abs(value(f(x), f(y)) - value(x, y)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_proto_head_predictions_are_unchanged_by_a_similarity_map(seed):
    rng = np.random.default_rng(seed)
    dim, shots = int(rng.integers(1, 9)), int(rng.integers(1, 5))
    model = _model(dim)
    support = rng.normal(size=(model.config.num_classes * shots, dim))
    query = rng.normal(size=(12, dim))
    f = _similarity(rng, dim)

    def scores(s, q):
        with ad.no_grad():
            return backbone.head_forward(model, Tensor(s), Tensor(q)).data

    before, after = scores(support, query), scores(f(support), f(query))
    top2 = np.sort(before, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > 1e-9 * np.abs(before).max()  # near-ties are not tested
    assume(clear.any())
    np.testing.assert_array_equal(np.argmax(after, axis=1)[clear], np.argmax(before, axis=1)[clear])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), fixed_kernel=st.booleans())
def test_alignment_gradient_of_the_adapter_output_bias_is_zero(seed, fixed_kernel):
    rng = np.random.default_rng(seed)
    dim, group = int(rng.integers(1, 9)), int(rng.integers(1, 4))
    phi = _model(dim).phi
    for _, p in phi.entries:  # away from the identity init, where every gradient is special
        p.data = p.data + rng.normal(scale=0.3, size=p.shape)
    stages = [rng.normal(size=(group, int(rng.integers(2, 9)), dim)) for _ in range(int(rng.integers(1, 4)))]
    target = rng.normal(loc=rng.normal(), size=(group, int(rng.integers(2, 9)), dim))
    kernel = KernelSpec.around(float(rng.uniform(0.5, 4.0))) if fixed_kernel else "median-auto"
    ad.backward(alignment_loss(phi, stages, target, kernel).sum())
    live = max(np.abs(phi.get(name).grad).max() for name in ("fc1_w", "fc1_b", "fc2_w"))
    assume(live > 1e-9)
    assert np.abs(phi.get("fc2_b").grad).max() <= 1e-12 * live
