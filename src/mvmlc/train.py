"""Full-batch gradient training of the two-channel network.

Each epoch: draw fresh input masks (unless ``fixed_mask``), run the whole
network on the masked training data, combine the four objectives, replay
the tape for gradients and take one Adam step.  The contrastive
denominators range over every sample in the batch, so the default is one
full batch per epoch; mini-batching is available but restricts negatives
to the batch.  Every batch, the full one included, is a row subset of the
epoch's data and masks, with its label gate computed on those rows: a
``batch_size`` of 0 or at least the row count gives one batch of all rows
in order, a smaller one sorted slices of a fresh permutation.

Parameters, gradients and both Adam moments are flat vectors of one
layout (see :class:`~mvmlc.model.ModelParams`): the backward writes each
parameter's gradient into its slice of one buffer that every step reuses,
the finite check is one pass over that buffer, and :func:`adam_step`
updates the parameter vector in place with preallocated scratch vectors.

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

import numpy as np

from . import losses as ls
from .data import MaskBank, MultiViewDataset, csv_text
from .errors import ConfigError, ContractError
from .losses import (COMPONENTS, TAU_MIN, LossBreakdown, finite_number, label_availability_gate,
                     total_loss)
from .metrics import METRICS, MetricsReport, check_scorable, evaluate_all
from .model import ModelParams, encode, forward_all, observed_rows
from .numerics import Matrix, Tape, backward, refuse_overflow

Array = np.ndarray


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _knob(default, help: str, *, at_least=None, above=None, below=None, choices=None, flag=None):
    """A config field whose metadata holds its help, its domain and, if not
    ``--<name-with-dashes>``, its flag.  The domain is ``at_least`` (>=),
    ``above`` (>), ``below`` (<, with ``at_least``) or the ``choices``."""
    return field(default=default, metadata={"help": help, "at_least": at_least, "above": above,
                                            "below": below, "choices": choices, "flag": flag})


def knob_domain(f) -> str | None:
    """The domain of :class:`TrainConfig` field ``f`` as its refusal and its
    ``--help`` line write it (``>= 1``, ``> 0``, ``in [0, 1)``, ``'view' or
    'label'``), or None for a field without one."""
    m = f.metadata
    if m["choices"] is not None:
        return " or ".join(map(repr, m["choices"]))
    if m["below"] is not None:
        return f"in [{m['at_least']}, {m['below']})"
    if m["at_least"] is not None:
        return f">= {m['at_least']}"
    return None if m["above"] is None else f"> {m['above']}"


def _in_domain(value, m) -> bool:
    return ((m["at_least"] is None or value >= m["at_least"])
            and (m["above"] is None or value > m["above"])
            and (m["below"] is None or value < m["below"])
            and (m["choices"] is None or value in m["choices"]))


@dataclass
class TrainConfig:
    """Every training knob, declared once: a field's default gives its type,
    and its :func:`_knob` metadata its help, domain and flag, from which
    ``__post_init__`` checks it and the command line builds its flag."""

    epochs: int = _knob(60, "training epochs", at_least=1)
    learning_rate: float = _knob(1e-3, "Adam learning rate", above=0, flag="--lr")
    adam_beta1: float = _knob(0.9, "Adam first-moment decay", at_least=0, below=1)
    adam_beta2: float = _knob(0.999, "Adam second-moment decay", at_least=0, below=1)
    adam_eps: float = _knob(1e-8, "Adam epsilon", above=0)
    alpha: float = _knob(0.01, "instance-contrast weight", at_least=0)
    beta: float = _knob(0.01, "label-contrast weight", at_least=0)
    gamma: float = _knob(0.1, "reconstruction weight", at_least=0)
    tau_s: float = _knob(0.5, "instance-contrast temperature", at_least=TAU_MIN)
    tau_l: float = _knob(0.5, "label-contrast temperature", at_least=TAU_MIN)
    mask_ratio: float = _knob(0.3, "masked fraction of each input row", at_least=0, below=1)
    embed_dim: int = _knob(64, "embedding width", at_least=1)
    hidden_dim: int = _knob(128, "MLP hidden width", at_least=1)
    batch_size: int = _knob(0, "mini-batch size; 0 = full batch", at_least=0)
    seed: int = _knob(0, "master RNG seed", at_least=0)
    fixed_mask: bool = _knob(False, "reuse one input mask for all epochs instead of fresh draws")
    label_gate_mode: str = _knob("view", "denominator gate of the label contrast",
                                 choices=("view", "label"), flag="--label-gate")

    def __post_init__(self) -> None:
        accepted = {int: numbers.Integral, float: numbers.Real, bool: bool, str: str}
        for f in fields(self):  # bool is an int, so only a bool field takes one
            value, kind = getattr(self, f.name), type(f.default)
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted[kind]):
                raise ConfigError(f"{f.name} must be {kind.__name__}, got {value!r}")
            if kind is float and not finite_number(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
            value = kind(value)  # a plain value, as JSON writes it
            if not _in_domain(value, f.metadata):
                raise ConfigError(f"{f.name} must be {knob_domain(f)}, got {value!r}")
            setattr(self, f.name, value)

    @classmethod
    def from_dict(cls, doc) -> "TrainConfig":
        """The config of a JSON object's fields, the rest at their defaults,
        for a config file and a checkpoint alike; a non-object, or unknown
        fields (named, sorted), is a :class:`ConfigError`."""
        if not isinstance(doc, dict):
            raise ConfigError(f"not a JSON object: {doc!r}")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown fields {unknown}")
        return cls(**doc)

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

    def csv_rows(self, include_timing: bool = False) -> list[list]:
        header = ["epoch"] + [column for column, _ in COMPONENTS]
        has_reports = any(r.report is not None for r in self.records)
        if has_reports:
            header += list(METRICS)
        if include_timing:
            header.append("wall_ms")
        rows = [header]
        for r in self.records:
            cells = [r.epoch, *r.losses.components().values()]
            if has_reports:
                cells += [None if r.report is None else getattr(r.report, k) for k in METRICS]
            if include_timing:
                cells.append(r.wall_ms)
            rows.append(cells)
        return rows

    def write_csv(self, path: Path | str, include_timing: bool = False) -> None:
        Path(path).write_text(csv_text(self.csv_rows(include_timing)))


@dataclass
class TrainResult:
    params: ModelParams
    log: TrainLog
    snapshots: dict[int, Array] = field(default_factory=dict)


# adam_step makes its passes over chunks of this many values, which stay in
# cache from one pass to the next: 1.03 ms per step against 1.21-1.30 ms
# over whole vectors for the 138,284 values of the default widths on three
# 32-wide views (2 vCPUs).
ADAM_CHUNK = 32768


@dataclass
class AdamState:
    """First and second moments, flat vectors of the parameter layout, and
    two scratch vectors of one chunk that each step reuses."""

    first: Array
    second: Array
    step: int = 0
    scratch: tuple[Array, Array] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        size = min(self.first.size, ADAM_CHUNK)
        self.scratch = (np.empty(size), np.empty(size))

    @classmethod
    def initialize(cls, size: int) -> "AdamState":
        return cls(first=np.zeros(size), second=np.zeros(size))


def adam_step(
    params: Array,
    grads: Array,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update of the flat vector ``params``, in place.

    The passes are those of ``m = beta1 * m + (1 - beta1) * g``,
    ``v = beta2 * v + (1 - beta2) * g * g`` and
    ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)`` evaluated left to right,
    each run in place over one :data:`ADAM_CHUNK` of the vectors after
    another, so every value is bitwise the one the out-of-place
    expressions give.  An overflow of a squared gradient (its second
    moment would be inf and its update silently 0) or of the update raises
    ``FloatingPointError(what, cause, index)``, the index being that in
    ``params`` of the first value it hit.  m/sqrt(v) does not grow with the
    gradient, so only the rate can make the update overflow.
    """
    if not params.shape == grads.shape == state.first.shape == (params.size,):
        raise ContractError(f"adam_step: parameters {params.shape}, gradients {grads.shape} "
                            f"and state {state.first.shape} must be vectors of one length")
    state.step += 1
    t = state.step
    correct1 = 1.0 - beta1 ** t
    correct2 = 1.0 - beta2 ** t
    with np.errstate(over="raise"):
        for start in range(0, params.size, ADAM_CHUNK):
            part = slice(start, start + ADAM_CHUNK)
            p, g, m, v = params[part], grads[part], state.first[part], state.second[part]
            a, b = (x[:p.size] for x in state.scratch)
            failure = ("a squared gradient overflows the Adam second moment",
                       "the input values, the loss weights or the learning rate are too large")
            try:
                m *= beta1
                np.multiply(1.0 - beta1, g, out=a)
                m += a
                v *= beta2
                np.multiply(g, g, out=a)
                failure = ("the Adam update overflows", "lower the learning rate")
                a *= 1.0 - beta2
                v += a
                np.divide(m, correct1, out=a)
                a *= lr
                np.divide(v, correct2, out=b)
                np.sqrt(b, out=b)
                b += eps
                a /= b
                p -= a
            except FloatingPointError:  # the ufunc that overflowed has stored its inf
                finite = np.isfinite(a) & np.isfinite(m) & np.isfinite(v) & np.isfinite(p)
                raise FloatingPointError(*failure, start + int(finite.argmin())) from None


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
    clf = ls.classification_loss(cache.scores, batch.labels, batch.label_indicator)
    inst = lab = rec = Matrix(0.0)
    inst_skipped = lab_skipped = 0
    if config.alpha > 0:
        inst, inst_skipped = ls.instance_contrastive(
            cache.instance_feats, batch.view_indicator, config.tau_s)
    if config.beta > 0:
        denom_gate = batch.view_indicator if config.label_gate_mode == "view" else label_gate
        lab, lab_skipped = ls.label_contrastive(cache.label_probs, label_gate, denom_gate, config.tau_l)
    if config.gamma > 0:
        rec = ls.reconstruction_loss(cache.recon, cache.masked_views, batch.view_indicator)
    combined, breakdown = total_loss(clf, inst, lab, rec, config.alpha, config.beta, config.gamma)
    breakdown.instance_skipped, breakdown.label_skipped = inst_skipped, lab_skipped
    return combined, breakdown


def train(
    dataset: MultiViewDataset,
    config: TrainConfig,
    eval_data: MultiViewDataset | None = None,
    eval_every: int = 0,
    snapshot_epochs: tuple[int, ...] = (),
) -> TrainResult:
    """Run the training loop; see the module docstring for the schedule.

    ``eval_every`` > 0 attaches a metrics report on ``eval_data``, which it
    then requires, every that many epochs, and refuses before epoch 1 if its
    widths or label count differ from ``dataset``'s or :func:`check_scorable`
    refuses it.  ``snapshot_epochs`` collects the channel-similarity matrix
    after the given number of completed epochs (0 = initialization).
    """
    if not _integer(eval_every) or eval_every < 0:
        raise ConfigError(f"eval_every must be an integer >= 0, got {eval_every!r}")
    if eval_every and eval_data is None:
        raise ConfigError(f"eval_every={eval_every} needs eval_data to evaluate on")
    for k in snapshot_epochs:
        if not _integer(k):
            raise ConfigError(f"snapshot_epochs must hold integers, got {k!r}")
        if not 0 <= k <= config.epochs:
            raise ConfigError(f"snapshot epoch {k} outside the schedule (0..{config.epochs})")
    if eval_every:
        if (eval_data.view_dims, eval_data.n_labels) != (dataset.view_dims, dataset.n_labels):
            raise ContractError(f"eval_data has views {eval_data.view_dims} with "
                                f"{eval_data.n_labels} labels; dataset has "
                                f"{dataset.view_dims} and {dataset.n_labels}")
        try:
            check_scorable(eval_data.labels, eval_data.label_indicator)
        except ContractError as exc:
            raise ContractError(f"eval_data cannot be scored: {exc}") from None
    rng = np.random.default_rng(config.seed)
    params = ModelParams.initialize(rng, dataset.view_dims, dataset.n_labels,
                                    config.embed_dim, config.hidden_dim)
    leaves = params.parameters()
    grad = np.empty_like(params.vector)
    state = AdamState.initialize(params.vector.size)

    result = TrainResult(params=params, log=TrainLog())
    if 0 in snapshot_epochs:
        result.snapshots[0] = channel_similarity(params, dataset)

    n = dataset.n_samples
    size = config.batch_size if 0 < config.batch_size < n else n
    bank = None
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        if bank is None or not config.fixed_mask:
            bank = MaskBank.generate(n, dataset.view_dims, config.mask_ratio,
                                     seed=int(rng.integers(2 ** 63)))
        order = rng.permutation(n) if size < n else np.arange(n)

        collected: list[tuple[float, LossBreakdown]] = []
        for rows in (np.sort(order[i:i + size]) for i in range(0, n, size)):
            batch, batch_bank = dataset.subset(rows), bank.subset(rows)
            batch_gate = label_availability_gate(batch.label_indicator, batch.view_indicator)
            # An overflow here reaches the checks below, which name the culprit.
            with Tape() as tape, np.errstate(over="ignore", invalid="ignore"):
                combined, breakdown = _epoch_losses(params, batch, batch_bank, batch_gate, config)
                for name, value in breakdown.components().items():
                    if not math.isfinite(value):
                        raise ContractError(f"epoch {epoch}: loss component '{name}' is not finite")
                backward(tape, combined, leaves, out=grad)
            finite = np.isfinite(grad)
            if not finite.all():
                raise ContractError(f"epoch {epoch}: gradient of "
                                    f"'{params.name_at(int(finite.argmin()))}' is not finite")
            try:
                adam_step(params.vector, grad, state, config.learning_rate,
                          config.adam_beta1, config.adam_beta2, config.adam_eps)
            except FloatingPointError as exc:
                what, cause, index = exc.args
                raise ContractError(f"epoch {epoch}: {what} at '{params.name_at(index)}'; "
                                    f"{cause}") from None
            collected.append((len(rows) / n, breakdown))
        epoch_losses = LossBreakdown.weighted_mean(collected)
        wall_ms = (time.perf_counter() - started) * 1000.0
        report = None
        if eval_every and epoch % eval_every == 0:
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
    with unit diagonal.  Only the encoders run, in one pass over each
    view's observed rows.
    """
    observed = [Matrix(v[r]) for v, r in zip(dataset.views, observed_rows(dataset.view_indicator))]
    with refuse_overflow("forward"):
        shared, private = encode(params, observed)
    with refuse_overflow("channel similarity"):
        means = np.array([f.value.mean(axis=0) if f.rows else np.zeros(f.cols)
                          for f in shared + private])
        # Each row over the power of two that brings its largest magnitude into
        # [0.5, 1): exact, so cosines keep every bit, and squared norms stay finite.
        _, exponent = np.frexp(np.abs(means).max(axis=1, keepdims=True))
        unit, _ = ls.unit_rows(np.ldexp(means, -exponent))
    sim = np.clip((unit @ unit.T + 1.0) * 0.5, 0.0, 1.0)
    np.fill_diagonal(sim, 1.0)
    return sim
