"""Full-batch gradient training of the two-channel network.

Each epoch: draw fresh input masks (unless ``fixed_mask``), run the whole
network on the masked training data, combine the four objectives, replay
the tape for gradients and take one Adam step.  The contrastive
denominators range over every sample in the batch, so the default is one
full batch per epoch; mini-batching is available but restricts negatives
to the batch.

All randomness flows from the config seed through one generator consumed
in a fixed order (parameter init, then per-epoch draws), so a (dataset,
config) pair fully determines the trajectory.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable

import numpy as np

from . import losses as ls
from .data import MaskBank, MultiViewDataset
from .errors import ConfigError, ContractError
from .losses import COMPONENTS, LossBreakdown, label_availability_gate, total_loss
from .metrics import METRICS, MetricsReport, evaluate_all
from .model import ModelParams, forward_all
from .numerics import Matrix, Tape, backward

Array = np.ndarray


def _finite(value: numbers.Real) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


@dataclass
class TrainConfig:
    epochs: int = 60
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    alpha: float = 0.01       # instance-contrast weight
    beta: float = 0.01        # label-contrast weight
    gamma: float = 0.1        # reconstruction weight
    tau_s: float = 0.5
    tau_l: float = 0.5
    mask_ratio: float = 0.3
    embed_dim: int = 64
    hidden_dim: int = 128
    batch_size: int = 0       # 0 = full batch
    seed: int = 0
    fixed_mask: bool = False  # one mask for all epochs instead of fresh draws
    label_gate_mode: str = "view"  # denominator gate of the label contrast

    def __post_init__(self) -> None:
        accepted = {int: numbers.Integral, float: numbers.Real, bool: bool, str: str}
        for f in fields(self):  # bool is an int, so only a bool field takes one
            value, kind = getattr(self, f.name), type(f.default)
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted[kind]):
                raise ConfigError(f"{f.name} must be {kind.__name__}, got {value!r}")
            if kind is float and not _finite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.adam_eps <= 0:
            raise ConfigError(f"adam_eps must be positive, got {self.adam_eps}")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ConfigError("loss weights must be >= 0")
        if self.tau_s <= 0 or self.tau_l <= 0:
            raise ConfigError("temperatures must be positive")
        if not 0.0 <= self.mask_ratio < 1.0:
            raise ConfigError(f"mask_ratio must be in [0, 1), got {self.mask_ratio}")
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ConfigError("embed_dim and hidden_dim must be >= 1")
        if self.batch_size < 0:
            raise ConfigError(f"batch_size must be >= 0, got {self.batch_size}")
        if self.label_gate_mode not in ("view", "label"):
            raise ConfigError(f"label_gate_mode must be 'view' or 'label', got {self.label_gate_mode!r}")

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class EpochRecord:
    epoch: int
    losses: LossBreakdown
    wall_ms: float
    report: MetricsReport | None = None


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)

    def csv_lines(self, include_timing: bool = False) -> list[str]:
        header = ["epoch"] + [column for column, _ in COMPONENTS]
        has_reports = any(r.report is not None for r in self.records)
        if has_reports:
            header += list(METRICS)
        if include_timing:
            header.append("wall_ms")
        lines = [",".join(header)]
        for r in self.records:
            cells = [str(r.epoch)] + [repr(v) for v in r.losses.components().values()]
            if has_reports:
                cells += [repr(getattr(r.report, k)) if r.report is not None else ""
                          for k in METRICS]
            if include_timing:
                cells.append(repr(r.wall_ms))
            lines.append(",".join(cells))
        return lines

    def write_csv(self, path: Path | str, include_timing: bool = False) -> None:
        with open(path, "w") as fh:
            fh.write("\n".join(self.csv_lines(include_timing)) + "\n")


@dataclass
class TrainResult:
    params: ModelParams
    log: TrainLog
    snapshots: dict[int, Array] = field(default_factory=dict)


@dataclass
class AdamState:
    first: list[Array]
    second: list[Array]
    step: int = 0

    @classmethod
    def initialize(cls, params: list[Matrix]) -> "AdamState":
        return cls(first=[np.zeros(p.shape) for p in params],
                   second=[np.zeros(p.shape) for p in params])


def init_params(config: TrainConfig, view_dims: tuple[int, ...], n_labels: int) -> ModelParams:
    """Seeded parameter initialization (uniform +-1/sqrt(fan_in) per layer)."""
    if not view_dims or any(d < 1 for d in view_dims) or n_labels < 1:
        raise ConfigError(f"invalid dimensions: views {view_dims}, labels {n_labels}")
    rng = np.random.default_rng(config.seed)
    return ModelParams.initialize(rng, tuple(view_dims), n_labels,
                                  config.embed_dim, config.hidden_dim)


def adam_step(
    params: list[Matrix],
    grads: list[Array],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[list[Matrix], AdamState]:
    """One bias-corrected Adam update, applied in place."""
    if len(grads) != len(params) or len(state.first) != len(params):
        raise ContractError("adam_step: params, grads and state lengths differ")
    for p, g, m, v in zip(params, grads, state.first, state.second):
        if g.shape != p.shape:
            raise ContractError(f"adam_step: gradient shape {g.shape} != parameter {p.shape}")
        if m.shape != p.shape:
            raise ContractError(f"adam_step: state shape {m.shape} != parameter {p.shape}")
    state.step += 1
    t = state.step
    correct1 = 1.0 - beta1 ** t
    correct2 = 1.0 - beta2 ** t
    for p, g, m, v in zip(params, grads, state.first, state.second):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p.value -= lr * (m / correct1) / (np.sqrt(v / correct2) + eps)
    return params, state


def _epoch_losses(
    params: ModelParams,
    batch: MultiViewDataset,
    bank: MaskBank | None,
    label_gate: Array,
    config: TrainConfig,
) -> tuple[Matrix, LossBreakdown]:
    """Forward pass plus the weighted objective on one batch.

    Terms whose weight is exactly zero are skipped (their gradient
    contribution would be identically zero) and logged as 0.
    """
    cache = forward_all(params, batch, bank, training=True)
    zero = Matrix(0.0)
    clf = ls.classification_loss(cache.scores, batch.labels, batch.label_indicator)
    inst_skipped = lab_skipped = 0
    if config.alpha > 0:
        inst, inst_skipped = ls.instance_contrastive(
            cache.instance_feats, batch.view_indicator, config.tau_s)
    else:
        inst = zero
    if config.beta > 0:
        lab, lab_skipped = ls.label_contrastive(
            cache.label_probs, label_gate, batch.view_indicator,
            config.tau_l, config.label_gate_mode)
    else:
        lab = zero
    if config.gamma > 0:
        rec = ls.reconstruction_loss(cache.recon, cache.masked_views, batch.view_indicator)
    else:
        rec = zero
    return total_loss(clf, inst, lab, rec, config.alpha, config.beta, config.gamma,
                      instance_skipped=inst_skipped, label_skipped=lab_skipped)


def _check_finite(epoch: int, what: str, named: Iterable[tuple[str, float | Array]]) -> None:
    """Abort on the first non-finite loss component or gradient, by name."""
    for name, value in named:
        if not np.isfinite(value).all():
            raise ContractError(f"epoch {epoch}: {what} '{name}' is not finite")


def train(
    dataset: MultiViewDataset,
    config: TrainConfig,
    eval_data: MultiViewDataset | None = None,
    eval_every: int = 0,
    snapshot_epochs: tuple[int, ...] = (),
) -> TrainResult:
    """Run the training loop; see the module docstring for the schedule.

    ``eval_every`` > 0 attaches a metrics report on ``eval_data`` every
    that many epochs.  ``snapshot_epochs`` collects the channel-similarity
    matrix after the given number of completed epochs (0 = initialization).
    """
    if eval_every < 0:
        raise ConfigError(f"eval_every must be >= 0, got {eval_every}")
    for k in snapshot_epochs:
        if not 0 <= k <= config.epochs:
            raise ConfigError(f"snapshot epoch {k} outside the schedule (0..{config.epochs})")
    rng = np.random.default_rng(config.seed)
    params = ModelParams.initialize(rng, dataset.view_dims, dataset.n_labels,
                                    config.embed_dim, config.hidden_dim)
    names, leaves = zip(*params.named_parameters())
    state = AdamState.initialize(leaves)
    full_gate = label_availability_gate(dataset.label_indicator, dataset.view_indicator)

    result = TrainResult(params=params, log=TrainLog())
    if 0 in snapshot_epochs:
        result.snapshots[0] = channel_similarity(params, dataset)

    fixed_bank = None
    if config.fixed_mask:
        fixed_bank = MaskBank.generate(dataset.n_samples, dataset.view_dims,
                                       config.mask_ratio, seed=int(rng.integers(2 ** 63)))

    n = dataset.n_samples
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        bank = fixed_bank or MaskBank.generate(dataset.n_samples, dataset.view_dims,
                                               config.mask_ratio, seed=int(rng.integers(2 ** 63)))
        if config.batch_size and config.batch_size < n:
            order = rng.permutation(n)
            batches = [np.sort(order[i:i + config.batch_size])
                       for i in range(0, n, config.batch_size)]
        else:
            batches = [np.arange(n)]

        collected: list[tuple[float, LossBreakdown]] = []
        for rows in batches:
            batch = dataset if len(rows) == n else dataset.subset(rows)
            batch_bank = bank if len(rows) == n else bank.subset(rows)
            batch_gate = full_gate if len(rows) == n else full_gate[rows]
            with Tape() as tape:
                combined, breakdown = _epoch_losses(params, batch, batch_bank, batch_gate, config)
                _check_finite(epoch, "loss component", breakdown.components().items())
                grads = backward(tape, combined, leaves)
            _check_finite(epoch, "gradient of", zip(names, grads))
            adam_step(leaves, grads, state, config.learning_rate,
                      config.adam_beta1, config.adam_beta2, config.adam_eps)
            collected.append((len(rows) / n, breakdown))
        epoch_losses = LossBreakdown.weighted_mean(collected)
        wall_ms = (time.perf_counter() - started) * 1000.0
        report = None
        if eval_every and eval_data is not None and epoch % eval_every == 0:
            scores = forward_all(params, eval_data, None, training=False).scores.value
            report = evaluate_all(scores, eval_data.labels, seed=config.seed, epoch=epoch)
        result.log.records.append(EpochRecord(epoch=epoch, losses=epoch_losses,
                                              wall_ms=wall_ms, report=report))
        if epoch in snapshot_epochs:
            result.snapshots[epoch] = channel_similarity(params, dataset)
    return result


def channel_similarity(params: ModelParams, dataset: MultiViewDataset) -> Array:
    """Pairwise similarity of per-channel mean features.

    Channels are the v shared embeddings followed by the v private ones;
    each channel's mean is taken over the samples whose view is available,
    on unmasked inputs, and normalized as the contrastive loss normalizes
    its rows (a channel with no available row has similarity 0.5 to every
    other).  Returns a symmetric 2v x 2v matrix of [0,1]-mapped cosines
    with unit diagonal.
    """
    cache = forward_all(params, dataset, None, training=False)
    available = dataset.view_indicator == 1
    means = [f.value[available[:, m]].mean(axis=0) if available[:, m].any() else np.zeros(f.cols)
             for feats in (cache.shared, cache.private) for m, f in enumerate(feats)]
    unit, _ = ls._unit_rows(np.array(means))
    sim = np.clip((unit @ unit.T + 1.0) * 0.5, 0.0, 1.0)
    np.fill_diagonal(sim, 1.0)
    return sim
