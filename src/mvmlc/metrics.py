"""Multi-label evaluation: AP, 1-HL, 1-RL, AUC, OE and coverage.

Conventions: label rankings are by descending score with stable
tie-breaking on the label index; pairwise statistics give half credit to
ties; AUC is macro (per-label Wilcoxon statistic, averaged over labels
that have both positive and negative samples); coverage is normalized by
the number of labels so every metric lies in [0, 1].  Samples or labels
without the required positives/negatives are excluded from the metrics
that need them.
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


def _descending_ranks(row: Array) -> Array:
    """Rank of each label (1 = best), descending score, ties to lower index."""
    order = np.argsort(-row, kind="stable")
    ranks = np.empty(row.size, dtype=np.int64)
    ranks[order] = np.arange(1, row.size + 1)
    return ranks


def average_precision(scores, labels) -> float:
    """Mean over samples of precision averaged at each relevant label's rank.

    Samples without any relevant label are excluded; an evaluation set with
    no usable sample raises ContractError.
    """
    scores, labels = _validate(scores, labels)
    per_sample = []
    for i in range(scores.shape[0]):
        relevant = labels[i] == 1
        if not relevant.any():
            continue
        order = np.argsort(-scores[i], kind="stable")
        rel_sorted = relevant[order]
        hits = np.cumsum(rel_sorted)
        positions = np.flatnonzero(rel_sorted) + 1
        per_sample.append(float(np.mean(hits[positions - 1] / positions)))
    if not per_sample:
        raise ContractError("average_precision: no sample has a relevant label")
    return float(np.mean(per_sample))


def hamming(scores, labels, threshold: float = 0.5) -> float:
    """One minus the fraction of thresholded predictions disagreeing with labels."""
    scores, labels = _validate(scores, labels)
    if not 0.0 < threshold < 1.0:
        raise ContractError(f"threshold must be in (0, 1), got {threshold}")
    predictions = (scores >= threshold).astype(np.float64)
    return 1.0 - float(np.mean(predictions != labels))


def ranking_loss(scores, labels) -> float:
    """One minus the mean mis-ranked (relevant, irrelevant) pair fraction,
    ties counted half; samples lacking either kind of label are excluded."""
    scores, labels = _validate(scores, labels)
    per_sample = []
    for i in range(scores.shape[0]):
        rel = scores[i, labels[i] == 1]
        irr = scores[i, labels[i] == 0]
        if rel.size == 0 or irr.size == 0:
            continue
        diff = rel[:, None] - irr[None, :]
        bad = np.count_nonzero(diff < 0) + 0.5 * np.count_nonzero(diff == 0)
        per_sample.append(bad / (rel.size * irr.size))
    if not per_sample:
        raise ContractError("ranking_loss: every sample is degenerate")
    return 1.0 - float(np.mean(per_sample))


def _midranks(x: Array) -> Array:
    """Average ranks (1-based) with ties sharing their mean rank."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def macro_auc(scores, labels) -> float:
    """Mean per-label Wilcoxon statistic: the fraction of (positive,
    negative) sample pairs the label's scores rank correctly, ties half.
    Labels that are all-positive or all-negative are excluded."""
    scores, labels = _validate(scores, labels)
    per_label = []
    for j in range(scores.shape[1]):
        pos = labels[:, j] == 1
        n_pos = int(pos.sum())
        n_neg = labels.shape[0] - n_pos
        if n_pos == 0 or n_neg == 0:
            continue
        ranks = _midranks(scores[:, j])
        rank_sum = float(ranks[pos].sum())
        per_label.append((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    if not per_label:
        raise ContractError("macro_auc: every label is degenerate")
    return float(np.mean(per_label))


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
    c = scores.shape[1]
    per_sample = []
    for i in range(scores.shape[0]):
        relevant = labels[i] == 1
        if not relevant.any():
            continue
        ranks = _descending_ranks(scores[i])
        per_sample.append((int(ranks[relevant].max()) - 1) / c)
    if not per_sample:
        return 0.0
    return float(np.mean(per_sample))


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
    auc_mode: str = "macro"

    def __post_init__(self) -> None:
        for name in METRICS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ContractError(f"metric {name}={value} outside [0, 1]")

    def to_text(self) -> str:
        lines = [f"{k} {getattr(self, k)!r}" for k in METRICS]
        lines.append(f"n_samples {self.n_samples}")
        lines.append(f"n_labels {self.n_labels}")
        lines.append(f"auc_mode {self.auc_mode}")
        if self.seed is not None:
            lines.append(f"seed {self.seed}")
        if self.epoch is not None:
            lines.append(f"epoch {self.epoch}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def csv_header() -> str:
        return ",".join(CSV_COLUMNS)

    def to_csv_row(self) -> str:
        cells = [repr(getattr(self, k)) for k in METRICS]
        cells += [str(self.n_samples), str(self.n_labels),
                  "" if self.seed is None else str(self.seed),
                  "" if self.epoch is None else str(self.epoch)]
        return ",".join(cells)


def evaluate_all(scores, labels, threshold: float = 0.5,
                 seed: int | None = None, epoch: int | None = None) -> MetricsReport:
    """Assemble all six metrics into one report; deterministic."""
    scores, labels = _validate(scores, labels)
    return MetricsReport(
        ap=average_precision(scores, labels),
        one_minus_hl=hamming(scores, labels, threshold),
        one_minus_rl=ranking_loss(scores, labels),
        auc=macro_auc(scores, labels),
        oe=one_error(scores, labels),
        cov=coverage(scores, labels),
        n_samples=scores.shape[0],
        n_labels=scores.shape[1],
        seed=seed,
        epoch=epoch,
    )
