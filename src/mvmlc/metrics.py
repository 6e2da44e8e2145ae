"""Multi-label evaluation: AP, 1-HL, 1-RL, AUC, OE and coverage.

Conventions: Hamming predicts a label where its score is at least 0.5;
label rankings are by descending score with stable tie-breaking on the
label index; pairwise statistics give half credit to ties; AUC is macro
(per-label Wilcoxon statistic, averaged over labels that have both
positive and negative samples); coverage is normalized by the number of
labels so every metric lies in [0, 1].  Samples or labels without the
required positives/negatives are excluded from the metrics that need them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ValidationError

Array = np.ndarray

# The six metrics, in report, metrics.csv and train_log.csv order.
METRICS = ("ap", "one_minus_hl", "one_minus_rl", "auc", "oe", "cov")
CSV_COLUMNS = METRICS + ("n_samples", "n_labels", "seed", "epoch")


def _validate(scores, labels) -> tuple[Array, Array]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.ndim != 2 or scores.shape != labels.shape:
        raise ValidationError(
            f"scores {scores.shape} and labels {labels.shape} must be equal 2-D shapes")
    if scores.size == 0:
        raise ContractError("empty evaluation set")
    if not np.isfinite(scores).all():
        raise ContractError("scores must be finite")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise ValidationError("labels must be binary")
    return scores, labels


def _relevance_by_rank(scores: Array, labels: Array) -> Array:
    """Boolean N x C: entry (i, r) says whether row i's label at rank r + 1
    is relevant, ranking by descending score with ties to the lower index."""
    order = np.argsort(-scores, axis=1, kind="stable")
    return np.take_along_axis(labels == 1, order, axis=1)


def _wilcoxon(scores: Array, positive: Array) -> tuple[Array, Array]:
    """Per row: the (positive, negative) pairs the scores order correctly,
    ties counted half, and the number of such pairs.

    The correct count is the positives' midrank sum less its least value
    n_pos (n_pos + 1) / 2.  Midranks come from one row-wise sort: a tie
    group shares the mean of its first and last 1-based positions.  Every
    member of a group gets that one rank, so the order the sort leaves
    inside a group cannot change the sum, and the sort need not be stable.
    """
    k = scores.shape[1]
    order = np.argsort(scores, axis=1)
    ranked = np.take_along_axis(scores, order, axis=1)
    pos = np.take_along_axis(positive, order, axis=1)
    opens = np.ones(ranked.shape, dtype=bool)  # first entry of a tie group
    opens[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    starts = np.flatnonzero(opens)  # every row opens a group, so none spans two rows
    sizes = np.diff(starts, append=opens.size)
    # twice a midrank, (first + last) 1-based position, stays an exact integer
    twice_rank = np.repeat(2 * (starts % k) + sizes + 1, sizes).reshape(ranked.shape)
    n_pos = pos.sum(axis=1)
    correct = ((twice_rank * pos).sum(axis=1) - n_pos * (n_pos + 1)) / 2.0
    return correct, n_pos * (k - n_pos)


def average_precision(scores, labels) -> float:
    """Mean over samples of precision averaged at each relevant label's rank.

    Samples without any relevant label are excluded; an evaluation set with
    no usable sample raises ContractError.
    """
    scores, labels = _validate(scores, labels)
    relevant = _relevance_by_rank(scores, labels)
    n_rel = relevant.sum(axis=1)
    usable = n_rel > 0
    if not usable.any():
        raise ContractError("average_precision: no sample has a relevant label")
    precision = np.cumsum(relevant, axis=1) / np.arange(1, scores.shape[1] + 1)
    totals = np.where(relevant, precision, 0.0).sum(axis=1)
    return float(np.mean(totals[usable] / n_rel[usable]))


def hamming(scores, labels) -> float:
    """One minus the fraction of predictions (score >= 0.5) disagreeing with labels."""
    scores, labels = _validate(scores, labels)
    predictions = (scores >= 0.5).astype(np.float64)
    return 1.0 - float(np.mean(predictions != labels))


def ranking_loss(scores, labels) -> float:
    """One minus the mean mis-ranked (relevant, irrelevant) pair fraction,
    ties counted half; samples lacking either kind of label are excluded."""
    scores, labels = _validate(scores, labels)
    correct, pairs = _wilcoxon(scores, labels == 1)
    usable = pairs > 0
    if not usable.any():
        raise ContractError("ranking_loss: every sample is degenerate")
    return 1.0 - float(np.mean((pairs[usable] - correct[usable]) / pairs[usable]))


def macro_auc(scores, labels) -> float:
    """Mean per-label Wilcoxon statistic: the fraction of (positive,
    negative) sample pairs the label's scores rank correctly, ties half.
    Labels that are all-positive or all-negative are excluded."""
    scores, labels = _validate(scores, labels)
    correct, pairs = _wilcoxon(scores.T, labels.T == 1)
    usable = pairs > 0
    if not usable.any():
        raise ContractError("macro_auc: every label is degenerate")
    return float(np.mean(correct[usable] / pairs[usable]))


def one_error(scores, labels) -> float:
    """Fraction of samples whose top-ranked label is not relevant.

    Samples without any relevant label count as errors.
    """
    scores, labels = _validate(scores, labels)
    top = np.argmax(scores, axis=1)  # first maximum: stable index tie-break
    hits = labels[np.arange(scores.shape[0]), top]
    return 1.0 - float(np.mean(hits))


def coverage(scores, labels) -> float:
    """Mean normalized rank depth needed to retrieve every relevant label.

    A sample whose worst relevant label sits at rank r contributes
    (r - 1) / C; samples without relevant labels are excluded (0.0 if all
    samples are excluded).
    """
    scores, labels = _validate(scores, labels)
    relevant = _relevance_by_rank(scores, labels)
    usable = relevant.any(axis=1)
    if not usable.any():
        return 0.0
    c = scores.shape[1]
    deepest = c - 1 - np.argmax(relevant[:, ::-1], axis=1)  # r - 1 of the worst relevant
    return float(np.mean(deepest[usable] / c))


@dataclass
class MetricsReport:
    """The six metrics plus run metadata; serializable as text or CSV."""

    ap: float
    one_minus_hl: float
    one_minus_rl: float
    auc: float
    oe: float
    cov: float
    n_samples: int
    n_labels: int
    seed: int | None = None
    epoch: int | None = None

    def __post_init__(self) -> None:
        for name in METRICS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ContractError(f"metric {name}={value} outside [0, 1]")

    def to_text(self) -> str:
        lines = [f"{k} {getattr(self, k)}" for k in METRICS]
        lines.append(f"n_samples {self.n_samples}")
        lines.append(f"n_labels {self.n_labels}")
        lines.append("auc_mode macro")
        if self.seed is not None:
            lines.append(f"seed {self.seed}")
        if self.epoch is not None:
            lines.append(f"epoch {self.epoch}")
        return "\n".join(lines) + "\n"

    def csv_row(self) -> list:
        """The values of the ``CSV_COLUMNS``, in order."""
        return [getattr(self, k) for k in CSV_COLUMNS]


def evaluate_all(scores, labels, seed: int | None = None, epoch: int | None = None) -> MetricsReport:
    """Assemble all six metrics into one report; deterministic."""
    scores, labels = _validate(scores, labels)
    return MetricsReport(
        ap=average_precision(scores, labels),
        one_minus_hl=hamming(scores, labels),
        one_minus_rl=ranking_loss(scores, labels),
        auc=macro_auc(scores, labels),
        oe=one_error(scores, labels),
        cov=coverage(scores, labels),
        n_samples=scores.shape[0],
        n_labels=scores.shape[1],
        seed=seed,
        epoch=epoch,
    )


def check_scorable(labels, label_indicator) -> None:
    """The one rule for a set a report scores: refuse any label unknown to
    ``label_indicator`` (known where it holds 1), which :func:`evaluate_all`
    would read as a negative, then raise what :func:`evaluate_all` raises on
    ``labels`` whatever the finite scores.  AP, ranking loss and AUC refuse
    labels, never scores: each asks whether some sample or some label
    qualifies.  So constant scores on the distinct label rows decide it:
    ~1 ms where all 10000 rows of 6 labels take ~11 ms (2 vCPUs).
    """
    labels, known = np.asarray(labels), np.asarray(label_indicator)
    if known.shape != labels.shape:
        raise ContractError(f"label indicator {known.shape} and labels {labels.shape} differ")
    if unknown := int(np.count_nonzero(known != 1)):
        raise ContractError(f"{unknown} of its {labels.size} "
                            "labels are unknown, and the metrics would count them as negatives")
    _, labels = _validate(np.zeros_like(labels), labels)
    packed = np.packbits(labels > 0, axis=1)
    order = np.lexsort(packed.T)
    ranked = packed[order]
    distinct = labels[order[np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)]]]
    evaluate_all(np.zeros_like(distinct), distinct)
