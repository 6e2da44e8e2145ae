"""The four training objectives and their weighted combination.

* masked reconstruction: per-view squared error against the masked input,
  counted only for available views, normalized by each view's width;
* instance-level contrast: gated InfoNCE over the instance-head features,
  where for the ordered view pair (m, n) an anchor contributes only when
  both views of its sample are available, negatives range over both views
  of all samples gated by availability, and the anchor's self-pair is
  removed from the denominator;
* label-level contrast: the same objective over the label-head features,
  with an outer gate derived from label availability;
* masked binary cross-entropy on the classifier scores, counting only
  known labels.

Numerical care: contrastive exponentials are shifted by the largest
attainable exponent (similarity 1 over temperature) before exponentiation
so small temperatures cannot overflow, and classifier probabilities are
clamped away from 0/1 before the logs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import numerics as nm
from .errors import ConfigError, ShapeError
from .numerics import Matrix

logger = logging.getLogger(__name__)

Array = np.ndarray

PROB_CLIP = 1e-12


def cosine_sim01(a, b) -> float:
    """Cosine similarity mapped affinely onto [0, 1].

    Identical directions give 1, orthogonal vectors 0.5, opposite
    directions 0.  A zero vector has no direction; such pairs are defined
    as neutral (0.5) and logged rather than raising, because all-zero rows
    legitimately arise from zero-filled missing views.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ShapeError(f"cosine_sim01: lengths {a.size} and {b.size} differ")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        logger.debug("cosine_sim01: zero-norm vector, returning neutral similarity 0.5")
        return 0.5
    if np.array_equal(a, b):
        return 1.0
    return float(min(1.0, max(0.0, (float(a @ b) / (na * nb) + 1.0) / 2.0)))


def reconstruction_loss(recon: list[Matrix], masked_views: list[Matrix], view_indicator: Array) -> Matrix:
    """Mean over views of per-sample squared reconstruction error, gated by
    view availability and normalized by each view's width."""
    if len(recon) != len(masked_views):
        raise ShapeError(f"got {len(recon)} reconstructions for {len(masked_views)} views")
    total = None
    for m, (xbar, xprime) in enumerate(zip(recon, masked_views)):
        if xbar.shape != xprime.shape:
            raise ShapeError(f"view {m}: reconstruction {xbar.shape} vs input {xprime.shape}")
        row_err = nm.square(xbar - xprime).sum(axis=1)
        gated = row_err * Matrix(view_indicator[:, m:m + 1])
        term = gated.sum() * (1.0 / xbar.cols)
        total = term if total is None else total + term
    return total * (1.0 / len(recon))


class ContrastiveResult(NamedTuple):
    loss: Matrix
    skipped: int  # gated-in anchors dropped because their denominator was <= 0


def _masked_infonce(feats: list[Matrix], outer_gate: Array, denom_gate: Array, tau: float) -> ContrastiveResult:
    """Shared core of both contrastive objectives.

    For ordered pair (m, n), anchor i of view m contributes
    ``-log(exp(pos/tau) / (sum_j sum_{k in {m,n}} exp(sim/tau) * gate_jk - exp(1/tau)))``
    weighted by ``outer_gate[i,m] * outer_gate[i,n]``; similarities are the
    [0,1]-mapped cosines.  Exponents are shifted by -1/tau, the largest
    attainable value, so the self-pair subtraction becomes an exact -1.
    """
    n_views = len(feats)
    n = feats[0].rows
    if tau <= 0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    if outer_gate.shape != (n, n_views) or denom_gate.shape != (n, n_views):
        raise ShapeError(
            f"gates must be {(n, n_views)}, got {outer_gate.shape} and {denom_gate.shape}")
    if n_views < 2:
        return ContrastiveResult(Matrix(0.0), 0)

    inv_tau = 1.0 / tau
    units = [nm.unit_rows(f) for f in feats]

    # Row sums of exp((sim - 1)/tau) over gated keys, one per (anchor view,
    # key view) combination; reused across ordered pairs.
    exp_sums: dict[tuple[int, int], Matrix] = {}
    for a in range(n_views):
        for k in range(n_views):
            sim01 = (units[a] @ units[k].T + 1.0) * 0.5
            shifted = nm.exp((sim01 - 1.0) * inv_tau)
            gated = shifted * Matrix(denom_gate[:, k][None, :])
            exp_sums[(a, k)] = gated.sum(axis=1)

    total = None
    skipped = 0
    ones = Matrix(np.ones((n, 1)))
    for a in range(n_views):
        for b in range(n_views):
            if b == a:
                continue
            pos01 = ((units[a] * units[b]).sum(axis=1) + 1.0) * 0.5
            denom = exp_sums[(a, a)] + exp_sums[(a, b)] - 1.0
            gate = (outer_gate[:, a] * outer_gate[:, b])[:, None]
            valid = denom.value > 0
            skipped += int(np.count_nonzero((gate > 0) & ~valid))
            effective = gate * valid
            safe = nm.select(valid, denom, ones)
            terms = (pos01 - 1.0) * inv_tau - nm.log(safe)
            pair_loss = (terms * Matrix(effective)).sum() * (-1.0 / n)
            total = pair_loss if total is None else total + pair_loss
    if skipped:
        logger.warning("contrastive loss: %d anchors had no available comparison", skipped)
    return ContrastiveResult(total * 0.5, skipped)


def instance_contrastive(instance_feats: list[Matrix], view_indicator: Array, tau: float) -> ContrastiveResult:
    """Cross-view contrast of instance-head features, gated by view
    availability on both the anchor pair and the denominator."""
    return _masked_infonce(instance_feats, view_indicator, view_indicator, tau)


def label_availability_gate(label_indicator: Array, view_indicator: Array) -> Array:
    """Per sample-view gate for the label-space contrast: a view's label
    features take part only when that view is observed and the sample has
    at least one known label."""
    has_known = (label_indicator.sum(axis=1) > 0).astype(np.float64)
    return view_indicator * has_known[:, None]


def label_contrastive(
    label_probs: list[Matrix],
    label_gate: Array,
    view_indicator: Array,
    tau: float,
    denominator_gate: str = "view",
) -> ContrastiveResult:
    """Cross-view contrast of label-head features.

    The anchor pair is gated by ``label_gate`` (see
    :func:`label_availability_gate`); the denominator is gated by view
    availability, or by ``label_gate`` itself when ``denominator_gate`` is
    ``"label"``.
    """
    if denominator_gate == "view":
        denom = view_indicator
    elif denominator_gate == "label":
        denom = label_gate
    else:
        raise ConfigError(f"denominator_gate must be 'view' or 'label', got {denominator_gate!r}")
    return _masked_infonce(label_probs, label_gate, denom, tau)


def classification_loss(scores: Matrix, labels: Array, label_indicator: Array) -> Matrix:
    """Binary cross-entropy over all sample/label cells, counting only known
    labels, averaged over the full N x C grid."""
    if scores.shape != labels.shape or scores.shape != label_indicator.shape:
        raise ShapeError(
            f"scores {scores.shape}, labels {labels.shape} and gate {label_indicator.shape} must match")
    n, c = scores.shape
    probs = nm.clip(scores, PROB_CLIP, 1.0 - PROB_CLIP)
    y = Matrix(labels)
    ll = y * nm.log(probs) + (1.0 - y) * nm.log(1.0 - probs)
    return (ll * Matrix(label_indicator)).sum() * (-1.0 / (n * c))


# Logged loss columns and the LossBreakdown field each one reads, in
# train_log.csv order.
COMPONENTS = (
    ("loss_recon", "reconstruction"),
    ("loss_instance", "instance_contrast"),
    ("loss_label", "label_contrast"),
    ("loss_classify", "classification"),
    ("loss_total", "total"),
)


@dataclass
class LossBreakdown:
    """Scalar values of each term plus the weights that combined them."""

    classification: float
    instance_contrast: float
    label_contrast: float
    reconstruction: float
    alpha: float
    beta: float
    gamma: float
    total: float
    instance_skipped: int = 0
    label_skipped: int = 0

    def components(self) -> dict[str, float]:
        return {column: getattr(self, name) for column, name in COMPONENTS}

    @classmethod
    def weighted_mean(cls, parts: list[tuple[float, "LossBreakdown"]]) -> "LossBreakdown":
        """Weighted mean of the components of (weight, breakdown) pairs; skipped
        anchors add up, alpha/beta/gamma come from the first.  Sums start at
        -0.0, the additive identity, so one part of weight 1 passes unchanged."""
        means = {name: sum((w * getattr(b, name) for w, b in parts), -0.0)
                 for _, name in COMPONENTS}
        return replace(parts[0][1], **means,
                       instance_skipped=sum(b.instance_skipped for _, b in parts),
                       label_skipped=sum(b.label_skipped for _, b in parts))


def total_loss(
    classification: Matrix,
    instance_contrast: Matrix,
    label_contrast: Matrix,
    reconstruction: Matrix,
    alpha: float,
    beta: float,
    gamma: float,
    instance_skipped: int = 0,
    label_skipped: int = 0,
) -> tuple[Matrix, LossBreakdown]:
    """Weighted sum of the four terms; each component is kept for logging."""
    if alpha < 0 or beta < 0 or gamma < 0:
        raise ConfigError(f"loss weights must be >= 0, got {(alpha, beta, gamma)}")
    combined = classification + alpha * instance_contrast + beta * label_contrast + gamma * reconstruction
    breakdown = LossBreakdown(
        classification=classification.item(),
        instance_contrast=instance_contrast.item(),
        label_contrast=label_contrast.item(),
        reconstruction=reconstruction.item(),
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        total=combined.item(),
        instance_skipped=instance_skipped,
        label_skipped=label_skipped,
    )
    return combined, breakdown
