"""Evolvable test-time adaptation of the adapter stage.

Target embeddings are aligned to an ordered series of source snapshots
(time buckets within a session, or one snapshot per training subject) by
kernel two-sample distance. A snapshot draw is an int64 array
[n_stages x 2 x snapshot_size] of train-pool rows: ``draw[k, 0]`` is stage
k's support half and ``draw[k, 1]`` its query half, stages in order.

Only the adapter parameters move: the encoder and classifier head are
frozen, so a sample's encoder row never changes during adaptation. The
adaptation core takes only the adapter ``phi`` and encoder rows: the train
pool's (``backbone.encode_rows``), snapshot draws that index them, and the
target's. ``evofa_test`` takes rows too; its caller encodes each pool once.

A round is MAML with a first-order outer step, on one loss and one step
rule. Each inner step takes ``alignment_loss`` on one stage's support half;
the outer step takes it on all query halves at the inner result and steps
``phi`` with that gradient, one round per draw. Every step is ``autodiff.sgd_step``.

The core runs on a stack of G episodes; one episode is a stack of one. A
stack has target rows [G x t x q], draws [G x n x 2 x s] (``np.stack`` of
one draw per slice) and an adapter: a stacked one (weights [G x ...], biases
[G x 1 x h]) adapts slice k with its slice k, the model's own broadcasts over
every slice. The adapter and the fused ``mmd.mmd2`` node run once per step
for the whole stack, with a median-heuristic bandwidth per slice, and each
loss is the [G] vector of slice losses. Episodes without persisted
adaptation are independent, so ``evofa_test`` adapts them EPISODE_GROUP at a
time; persisted adaptation runs the same code on stacks of one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import backbone
from .autodiff import ParamGroup, Tensor
from .backbone import Model
from .data import Count, DatasetIndex, Natural, Scale, check_fields
from .errors import ConfigError, ContractError, ProtocolError, SamplingError
from .fsl import Episode, classify_query, sample_episode
from .mmd import KernelSpec, default_spec, mmd2


@dataclass(frozen=True)
class AdaptConfig:
    """Adaptation knobs. Zero rates or zero iterations make adaptation an exact no-op.

    target_calibration_size is the total intended size of the target support
    set: the episode's support features plus, when the value exceeds the
    support count, extra unlabeled samples drawn from the test pool. Zero
    keeps the support set alone.
    """

    n_snapshots: Count = 5
    snapshot_size: Count = 32  # per half
    eta_in: Scale = 1e-2
    eta_out: Scale = 1e-2
    max_iter: Natural = 1
    target_calibration_size: Natural = 0
    kernel: KernelSpec | str = "median-auto"

    def __post_init__(self):
        check_fields(self)
        if not isinstance(self.kernel, KernelSpec) and self.kernel != "median-auto":
            raise ConfigError(
                f"kernel must be a KernelSpec or 'median-auto', got {self.kernel!r}"
            )


# -- snapshot sampling ------------------------------------------------------------


def _draw_halves(
    stages: dict[int, np.ndarray], what: str, cfg: AdaptConfig, rng: np.random.Generator
) -> np.ndarray:
    """One snapshot per stage, in order: disjoint halves of the stage's pool rows, [n x 2 x s]."""
    need = 2 * cfg.snapshot_size
    picks = []
    for tag, rows in stages.items():
        if len(rows) < need:
            raise SamplingError(f"{what} {tag} has {len(rows)} samples, needs {need}")
        picks.append(rows[rng.choice(len(rows), size=need, replace=False)])
    return np.stack(picks).reshape(len(picks), 2, cfg.snapshot_size)


def sample_snapshots_intra(
    train_pool: DatasetIndex, cfg: AdaptConfig, rng: np.random.Generator
) -> np.ndarray:
    """Cut the pool's timeline into n contiguous buckets and draw halves from each.

    A pool is in dataset order, which is chronological within its one session.
    """
    if not len(train_pool):
        raise SamplingError("cannot sample snapshots from an empty pool")
    buckets = np.array_split(np.arange(len(train_pool)), cfg.n_snapshots)
    return _draw_halves(dict(enumerate(buckets)), "time bucket", cfg, rng)


def sample_snapshots_inter(
    train_pool: DatasetIndex, cfg: AdaptConfig, rng: np.random.Generator
) -> np.ndarray:
    """One snapshot per training subject, capped at n subjects drawn without replacement."""
    subjects = train_pool.subjects()
    if not subjects:
        raise SamplingError("cannot sample snapshots from an empty pool")
    if cfg.n_snapshots < len(subjects):
        subjects = sorted(
            int(x) for x in rng.choice(subjects, size=cfg.n_snapshots, replace=False)
        )
    stages = {subj: np.flatnonzero(train_pool.subject == subj) for subj in subjects}
    return _draw_halves(stages, "subject", cfg, rng)


# -- alignment loss and updates ------------------------------------------------------


def _stage_rows(train_rows: np.ndarray, snapshots: np.ndarray, half: int) -> list[np.ndarray]:
    """Per stage, in order, the [G x s x q] train rows of one half (0 support, 1 query) of a stack of draws."""
    if snapshots.ndim != 4:
        raise ProtocolError(f"snapshot draws must be a [G x n x 2 x s] stack, got shape {snapshots.shape}")
    rows = train_rows[snapshots[:, :, half]]
    return [rows[:, k] for k in range(rows.shape[1])]


def alignment_loss(
    phi: ParamGroup, stages: list[np.ndarray], target_rows: np.ndarray, kernel: KernelSpec | str
) -> Tensor:
    """The [G] mean squared MMDs between each stage's source rows and the target rows, both adapted by phi.

    Stage rows and target rows are stacks [G x s x q] and [G x m x q]. The
    target goes through the adapter once and is shared by every stage's term.
    A fixed KernelSpec is used as given. Otherwise each slice of each pair gets
    a median-heuristic bandwidth from its current adapted embeddings, with no
    gradient through the pick.
    """
    if target_rows.ndim != 3 or not target_rows.shape[-2]:
        raise ProtocolError(
            f"target support must be a [G x m x q] stack of nonempty row matrices, got shape {target_rows.shape}"
        )
    tgt = backbone.adapt(Tensor(target_rows), phi)
    total = None
    for src_enc in stages:
        src = backbone.adapt(Tensor(src_enc), phi)
        if isinstance(kernel, KernelSpec):
            spec = kernel
        else:
            spec = [default_spec(s, t) for s, t in zip(src.data, tgt.data)]
        term = mmd2(src, tgt, spec)
        total = term if total is None else ad.add(total, term)
    return ad.mul(total, Tensor(1.0 / len(stages)))


def inner_adapt(
    phi: ParamGroup, train_rows: np.ndarray, draw: np.ndarray, target_rows: np.ndarray, cfg: AdaptConfig
) -> ParamGroup:
    """Sequential adapter steps, one per snapshot stage in order, toward the target rows.

    Returns a stepped copy of ``phi`` and leaves ``phi`` itself untouched.
    Labels never enter: the target is encoder rows only.
    """
    phi = phi.copy()
    if cfg.eta_in == 0.0:
        return phi
    for stage, src_enc in enumerate(_stage_rows(train_rows, draw, 0)):
        loss = alignment_loss(phi, [src_enc], target_rows, cfg.kernel)
        if not loss.is_finite():
            raise ContractError(f"non-finite alignment loss at snapshot stage {stage}")
        ad.backward(loss.sum())
        ad.sgd_step(phi, cfg.eta_in)
    return phi


def mean_alignment(
    phi: ParamGroup, train_rows: np.ndarray, draws: np.ndarray, target_rows: np.ndarray, cfg: AdaptConfig
) -> np.ndarray:
    """The [G] alignment_loss values of a stack of draws' query halves at adapter ``phi``, off the tape."""
    with ad.no_grad():
        return alignment_loss(phi, _stage_rows(train_rows, draws, 1), target_rows, cfg.kernel).data


def outer_update(
    phi: ParamGroup, phi_n: ParamGroup, train_rows: np.ndarray, draw: np.ndarray,
    target_rows: np.ndarray, cfg: AdaptConfig,
) -> None:
    """Aggregated adapter update: the gradient taken at phi_n steps ``phi`` in place.

    First-order rule: the inner trajectory is not differentiated through;
    the gradient of the query-half alignment at phi_n is handed to ``phi``,
    which takes one step on it.
    """
    if cfg.eta_out == 0.0:
        return
    if [n for n, _ in phi.entries] != [n for n, _ in phi_n.entries]:
        raise ContractError("adapter parameter tables disagree")
    loss = alignment_loss(phi_n, _stage_rows(train_rows, draw, 1), target_rows, cfg.kernel)
    if not loss.is_finite():
        raise ContractError("non-finite aggregated alignment loss")
    ad.backward(loss.sum())
    for (_, dst), (_, src) in zip(phi.entries, phi_n.entries):
        dst.grad, src.grad = src.grad, None
    ad.sgd_step(phi, cfg.eta_out)


def evofa_run(
    phi: ParamGroup, train_rows: np.ndarray, rounds: list[np.ndarray], target_rows: np.ndarray, cfg: AdaptConfig
) -> ParamGroup:
    """One round of inner adaptation plus outer update per draw in ``rounds``, in order.

    Each draw (or stack of draws) indexes ``train_rows``; a fresh draw per
    round is the evolving source. ``phi`` is stepped in place and returned.
    """
    for draw in rounds:
        phi_n = inner_adapt(phi, train_rows, draw, target_rows, cfg)
        outer_update(phi, phi_n, train_rows, draw, target_rows, cfg)
    return phi


# -- episode-level evaluation -------------------------------------------------------

# Independent episodes adapted together as one stack. Measured on the README
# demo (400 adapted episodes): 8 takes adaptation from 2.2 s at one at a time
# to 1.1 s with peak RSS unchanged; 16 and 32 save under 10% more and add 4
# and 13 MiB of peak RSS.
EPISODE_GROUP = 8


@dataclass(frozen=True)
class EvalConfig:
    """Episode-level evaluation protocol."""

    episodes: Count = 200
    way: Count = 3
    shot: Count = 1
    queries: Count = 10
    rng_seed: Natural = 0
    persist_adaptation: bool = False  # carry the adapted state across episodes

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class EvalReport:
    """Accuracy summary over evaluation episodes (std is population std, ddof 0)."""

    method: str
    episodes: int
    mean_accuracy: float
    std_accuracy: float
    per_episode: tuple[float, ...]


def _target_indices(
    pool: DatasetIndex, episode: Episode, cfg: AdaptConfig, rng: np.random.Generator
) -> np.ndarray:
    """Target rows of ``pool``, the episode's pool: its support class by class, then extra draws.

    Extras top the target up to ``target_calibration_size`` rows and never
    include the episode's own samples (classifying the query after aligning
    on it would be transductive). Supply shortfalls are tolerated: at most
    the available sample count is drawn.
    """
    support, query = episode
    target = support.ravel()
    extra = cfg.target_calibration_size - len(target)
    if extra > 0:
        rest = np.setdiff1d(np.arange(len(pool)), np.concatenate([support, query], axis=1))
        if len(rest):
            picks = rng.choice(len(rest), size=min(extra, len(rest)), replace=False)
            target = np.concatenate([target, rest[picks]])
    return target


def _stack_adapter(phi: ParamGroup, count: int) -> ParamGroup:
    """``count`` copies of the adapter along a new leading slice axis.

    A bias [h] becomes [G x 1 x h], so that it broadcasts over a [G x m x h]
    stack slice by slice.
    """
    return ParamGroup(
        phi.name,
        [
            (n, Tensor(np.repeat(t.data.reshape((1,) * (3 - t.ndim) + t.shape), count, axis=0), True))
            for n, t in phi.entries
        ],
    )


def evofa_test(
    model: Model,
    test_pool: DatasetIndex,
    train_pool: DatasetIndex,
    split_kind: str,
    eval_cfg: EvalConfig,
    adapt_cfg: AdaptConfig | None = None,
    *,
    test_rows: np.ndarray,
    train_rows: np.ndarray | None = None,
) -> EvalReport:
    """Per-episode test-time adaptation and classification.

    Each episode: sample it, build the target support from the episode's
    support features (labels unused, plus optional extra unlabeled samples),
    adapt a copy of the model's adapter, and classify the query with it. The
    episode stream depends only on (rng_seed, episode index), so runs with
    adaptation on, off, or disabled consume identical episodes. The model
    itself is never modified, even when persist_adaptation carries the
    adapted state from one episode to the next. Episodes, targets and
    snapshots index the pools' ``encode_rows`` rows, ``test_rows`` and (when
    adapting) ``train_rows``, so only the adapter and the head run here.

    Episodes are independent unless adaptation persists, so they run in
    groups of EPISODE_GROUP: every episode of a group, its target and its
    per-round snapshots are drawn first, then ``evofa_run`` adapts the group's
    stacked adapter, one slice per episode, and ``classify_query`` scores the
    group as one stack with it (with the model's adapter when not adapting).
    Persisted adaptation runs the same code on groups of one, carrying its
    stack of one along.
    """
    if split_kind == "intra":
        sampler = sample_snapshots_intra
    elif split_kind == "inter":
        sampler = sample_snapshots_inter
    else:
        raise ConfigError(f"split kind must be intra or inter, got {split_kind!r}")
    persist = eval_cfg.persist_adaptation
    carried = _stack_adapter(model.phi, 1)  # persisted adaptation's state
    rng = lambda *stream: np.random.default_rng([eval_cfg.rng_seed, *stream])
    accuracies = []
    group = 1 if persist else EPISODE_GROUP
    for start in range(0, eval_cfg.episodes, group):
        indices = range(start, min(start + group, eval_cfg.episodes))
        episodes = [
            sample_episode(test_pool, eval_cfg.way, eval_cfg.shot, eval_cfg.queries, rng(10, i))
            for i in indices
        ]
        phi = model.phi
        if adapt_cfg is not None:
            targets = [
                _target_indices(test_pool, episode, adapt_cfg, rng(11, i))
                for episode, i in zip(episodes, indices)
            ]
            # each adaptation round draws a fresh evolving source per episode
            rounds = [
                np.stack([sampler(train_pool, adapt_cfg, rng(12, i, it)) for i in indices])
                for it in range(adapt_cfg.max_iter)
            ]
            phi = carried if persist else _stack_adapter(model.phi, len(indices))
            evofa_run(phi, train_rows, rounds, test_rows[np.stack(targets)], adapt_cfg)
        accuracies.extend(classify_query(episodes, model, test_rows, phi)[1])
    arr = np.array(accuracies)
    return EvalReport(
        method="fsl" if adapt_cfg is None else "fsl+evofa",
        episodes=eval_cfg.episodes,
        mean_accuracy=float(arr.mean()),
        std_accuracy=float(arr.std()),
        per_episode=tuple(float(a) for a in arr),
    )
