"""Every parameter is moved by some loss that steps it: one that none moves is dead weight.

The analogue of ``test_reachability.py`` for parameters. For each head kind a
small model is moved off its initialization, then each loss that training or
adaptation steps is differentiated once:

- the head's episode loss, which ``meta_train`` steps every group on;
- for the linear head, the supervised loss instead, which
  ``train_supervised_baseline`` steps every group on: ``theta`` and ``w``, as
  a linear model has no adapter;
- for an episodic head, the alignment loss, which ``inner_adapt`` and
  ``outer_update`` step ``phi`` on.

A parameter is dead when, in every loss that steps it, its largest gradient
entry is at most ``DEAD`` times that loss's largest entry over all it steps. A
model parameter that no loss steps is dead too.
"""
from dataclasses import replace

import numpy as np
import pytest

from evofa import autodiff as ad
from evofa import backbone, fsl
from evofa.adapt import AdaptConfig, alignment_loss
from evofa.autodiff import Tensor
from evofa.data import DriftConfig, generate_synthetic_drift

DEAD = 1e-12

# (head kind, group/param) -> why no loss that steps it moves it
ALLOWED = {
    ("proto", "phi/fc2_b"): (
        "proto scores (squared distances to class means) and MMD are both translation invariant, "
        "so shifting every adapted row moves neither loss"
    ),
}

ARCH = backbone.BackboneConfig(n_electrodes=4, d_bands=3, conv_channels=(2, 2, 2, 4), embedding_dim=4, adapter_hidden=8)
POOL = generate_synthetic_drift(
    DriftConfig(num_subjects=1, num_sessions=1, trials_per_session=6, samples_per_trial=4, n_electrodes=4, d_bands=3)
)


def _moved_model(kind: str, rng: np.random.Generator) -> backbone.Model:
    """A ``kind`` model with every parameter moved off its initialization, where gradients are special."""
    model = backbone.create_model(replace(ARCH, head_kind=kind), seed=0)
    for group in model.groups():
        for _, p in group.entries:
            p.data = p.data + rng.normal(scale=0.3, size=p.shape)
    return model


def _head_loss(model: backbone.Model, rng: np.random.Generator) -> tuple[ad.Tensor, list[ad.ParamGroup]]:
    """The loss that trains ``model``'s head, and the groups that training steps on it."""
    if model.config.head_kind in fsl.EPISODIC_HEADS:
        episode = fsl.sample_episode(POOL, way=3, shot=2, queries=2, rng=rng)
        return fsl.episode_loss(POOL, episode, model), model.groups()
    rows = rng.choice(len(POOL), size=12, replace=False)
    encoded = backbone.encode(Tensor(POOL.features[rows]), model, mode="train")
    scores = backbone.linear_head(encoded, model.w)
    return fsl.loss_from_scores(scores, POOL.label[rows], "linear"), model.groups()


def _alignment(model: backbone.Model, rng: np.random.Generator) -> tuple[ad.Tensor, list[ad.ParamGroup]]:
    """The adapter's alignment loss between two source stages and a target, as adaptation steps it."""
    rows = backbone.encode_rows(model, POOL.features)
    stages = [rows[rng.choice(len(rows), size=(1, 6), replace=False)] for _ in range(2)]
    target = rows[rng.choice(len(rows), size=(1, 5), replace=False)]
    return alignment_loss(model.phi, stages, target, AdaptConfig().kernel).sum(), [model.phi]


def _relative_gradients(loss: ad.Tensor, groups: list[ad.ParamGroup]) -> dict[str, float]:
    """Each stepped parameter's largest |gradient| entry, over the largest entry of them all."""
    ad.backward(loss)
    largest = {
        f"{group.name}/{name}": 0.0 if p.grad is None else float(np.abs(p.grad).max())
        for group in groups
        for name, p in group.entries
    }
    top = max(largest.values())
    return {name: value / top for name, value in largest.items()}


@pytest.mark.parametrize("kind", backbone.HEAD_KINDS)
def test_every_parameter_is_moved_by_a_loss_that_steps_it(kind):
    rng = np.random.default_rng([7, backbone.HEAD_KINDS.index(kind)])
    model = _moved_model(kind, rng)
    live = {f"{group.name}/{name}": False for group in model.groups() for name, _ in group.entries}
    losses = [_head_loss] + ([_alignment] if kind in fsl.EPISODIC_HEADS else [])  # only episodic models adapt
    for loss_of in losses:
        for name, ratio in _relative_gradients(*loss_of(model.copy(), rng)).items():
            live[name] = live[name] or ratio > DEAD
    dead = sorted(name for name, moved in live.items() if not moved)
    allowed = sorted(name for k, name in ALLOWED if k == kind)
    assert dead == allowed, (
        f"under the {kind} head no loss that steps them moves {sorted(set(dead) - set(allowed))}, "
        f"and the allowlisted {sorted(set(allowed) - set(dead))} moved: "
        "delete a dead parameter, or add it to ALLOWED with its reason"
    )
