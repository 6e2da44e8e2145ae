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
clamped away from 0/1 before the logs.  The self-pair enters each
contrastive denominator at its exact value (1, or exp(-1/(2 tau)) for an
all-zero row) rather than as the rounded exponential of u.u, so its
removal cancels exactly: an anchor whose only gated key is itself has a
denominator of exactly 0 and is skipped.  Both contrastive terms run as
one taped primitive that forms its similarity blocks in row tiles of
``TILE_ROWS`` anchors, in forward and again in backward, so memory grows
with N * TILE_ROWS rather than N^2.  Blocks span only each view's live
rows, those a gate admits as anchor or key.  No other row's similarity
can reach the loss, so dropping them is exact, and with half of all
sample-view cells missing the block work falls about fourfold.
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


# Anchors per row tile of the contrastive loss: at most TILE_ROWS x N
# similarities are held at once, in forward and in backward.
TILE_ROWS = 256


def _unit_rows(x: Array) -> tuple[Array, Array]:
    """Rows scaled to unit L2 norm, and the per-row scale (N x 1) used.

    An all-zero row has no direction: it stays zero with scale 0, so its
    similarity to anything is the neutral 0.5 and its gradient is zero.
    """
    norms = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    inv = np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0), 0.0)
    return x * inv, inv


def _exp_block(anchors: Array, keys: Array, inv_tau: float) -> Array:
    """exp((sim01 - 1) / tau) for every anchor/key pair, sim01 the
    [0, 1]-mapped cosine of unit rows; computed in place in one buffer."""
    block = anchors @ keys.T
    block += 1.0
    block *= 0.5
    block -= 1.0
    block *= inv_tau
    return np.exp(block, out=block)


def _row_tiles(n: int):
    for lo in range(0, n, TILE_ROWS):
        yield lo, min(lo + TILE_ROWS, n)


def _masked_infonce(feats: list[Matrix], outer_gate: Array, denom_gate: Array, tau: float) -> ContrastiveResult:
    """Shared core of both contrastive objectives, one taped primitive.

    For ordered pair (m, n), anchor i of view m contributes
    ``-log(exp(pos/tau) / (sum_j sum_{k in {m,n}} exp(sim/tau) * gate_jk - exp(1/tau)))``
    weighted by ``outer_gate[i,m] * outer_gate[i,n]``; similarities are the
    [0,1]-mapped cosines.  Exponents are shifted by -1/tau, the largest
    attainable value, so the self-pair subtraction becomes an exact -1.

    Only the v(v+1)/2 blocks of view pairs a <= k are formed, since block
    (k, a) is the transpose of block (a, k): one pass over a block yields
    the gated row sums of both.  Blocks are formed TILE_ROWS anchors at a
    time and formed again in the backward pass instead of being kept.

    Blocks span only each view's live rows, those with a nonzero outer or
    denominator gate.  Any other row is neither a weighted anchor nor a
    gated key, so none of its similarities reaches the loss or a gradient:
    block (a, k) is formed over live_a x live_k, and its row sums and
    gradients are scattered back to all N rows.  Rows and columns of an
    (a, a) block share one index set, so the self-pair stays on its
    diagonal.  The positive cosines cost O(N d) and stay over all N rows.
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
    units, inv_norms = zip(*(_unit_rows(f.value) for f in feats))
    live = [np.flatnonzero((outer_gate[:, k] != 0) | (denom_gate[:, k] != 0))
            for k in range(n_views)]
    # Per view, restricted to its live rows: unit rows, denominator gates and
    # the self-pair's exact exponential (similarity 1, or the neutral 0.5 for
    # a zero row; with it an anchor whose only gated key is itself gets a
    # denominator of exactly 0 and is skipped).
    live_units = [u[rows] for u, rows in zip(units, live)]
    gates = [denom_gate[rows, k] for k, rows in enumerate(live)]
    self_exp = [np.where(inv[rows, 0] > 0, 1.0, np.exp((0.5 - 1.0) * inv_tau))
                for inv, rows in zip(inv_norms, live)]
    blocks = [(a, k) for a in range(n_views) for k in range(a, n_views)]

    # live_sums[a, k][i]: row sum of exp((sim - 1)/tau) over the gated keys
    # of view k, for live anchor i of view a; exp_sums holds them over all N
    # rows, zero off the live ones.
    live_sums = {(a, k): np.zeros(len(live[a])) for a in range(n_views) for k in range(n_views)}
    for a, k in blocks:
        for lo, hi in _row_tiles(len(live[a])):
            block = _exp_block(live_units[a][lo:hi], live_units[k], inv_tau)
            if k == a:
                block[np.arange(hi - lo), np.arange(lo, hi)] = self_exp[a][lo:hi]
            live_sums[a, k][lo:hi] = block @ gates[k]
            if k != a:
                live_sums[k, a] += gates[a][lo:hi] @ block
    exp_sums = {key: np.zeros(n) for key in live_sums}
    for (a, k), sums in live_sums.items():
        exp_sums[a, k][live[a]] = sums

    total = -0.0
    skipped = 0
    # Per ordered pair: effective anchor weights and the denominators used.
    pairs: dict[tuple[int, int], tuple[Array, Array]] = {}
    for a in range(n_views):
        for b in range(n_views):
            if b == a:
                continue
            pos01 = (np.sum(units[a] * units[b], axis=1) + 1.0) * 0.5
            denom = exp_sums[a, a] + exp_sums[a, b] - 1.0
            gate = outer_gate[:, a] * outer_gate[:, b]
            valid = denom > 0
            skipped += int(np.count_nonzero((gate > 0) & ~valid))
            effective = gate * valid
            safe = np.where(valid, denom, 1.0)
            terms = (pos01 - 1.0) * inv_tau - np.log(safe)
            total += float(np.sum(terms * effective)) * (-1.0 / n)
            pairs[a, b] = effective, safe
    if skipped:
        logger.warning("contrastive loss: %d anchors had no available comparison", skipped)

    def vjp(g: Array) -> tuple[Array, ...]:
        # The loss is -0.5/n times the weighted sum over pairs of
        # pos01/tau - log(exp_sums[a,a] + exp_sums[a,b] - 1); first the
        # adjoints of the positive cosines and of the row sums.
        grad_units = [np.zeros_like(u) for u in units]
        d_sums = {key: np.zeros(n) for key in exp_sums}
        for (a, b), (effective, safe) in pairs.items():
            weight = effective * (-0.5 / n * g[0, 0])
            d_pos = (weight * (0.5 * inv_tau))[:, None]
            grad_units[a] += d_pos * units[b]
            grad_units[b] += d_pos * units[a]
            d_denom = -weight / safe
            d_sums[a, a] += d_denom
            d_sums[a, b] += d_denom
        # With E the block's exponentials, d_sums[a,k] (x) gates[k] + gates[a]
        # (x) d_sums[k,a] is d loss / d E and E * 0.5/tau is dE / d cosine;
        # both outer products fold into one product with stacked keys.  An
        # (a, a) block is symmetric and yields its own transpose.  Its
        # diagonal, the self-pair, is left in: the gradient it sends to a row
        # is along the row, which the normalization below removes.  Blocks
        # span live rows only: d_sums is zero off them, so the gradient is too.
        scale = 0.5 * inv_tau
        d = units[0].shape[1]
        live_grads = [du[rows] for du, rows in zip(grad_units, live)]
        live_d = {(a, k): d_sums[a, k][live[a]] for a, k in d_sums}
        for a, k in blocks:
            keys = np.hstack([gates[k][:, None] * live_units[k],
                              live_d[k, a][:, None] * live_units[k]])
            for lo, hi in _row_tiles(len(live[a])):
                block = _exp_block(live_units[a][lo:hi], live_units[k], inv_tau)
                to_anchor = block @ keys
                live_grads[a][lo:hi] += scale * (live_d[a, k][lo:hi, None] * to_anchor[:, :d]
                                                 + gates[a][lo:hi, None] * to_anchor[:, d:])
                if k != a:
                    anchors = live_units[a][lo:hi]
                    to_key = block.T @ np.hstack([live_d[a, k][lo:hi, None] * anchors,
                                                  gates[a][lo:hi, None] * anchors])
                    live_grads[k] += scale * (gates[k][:, None] * to_key[:, :d]
                                              + live_d[k, a][:, None] * to_key[:, d:])
        for du, rows, live_du in zip(grad_units, live, live_grads):
            du[rows] = live_du
        # Through the normalization: remove the radial part, divide by the norm.
        return tuple((du - u * np.sum(u * du, axis=1, keepdims=True)) * inv
                     for du, u, inv in zip(grad_units, units, inv_norms))

    return ContrastiveResult(nm.emit(np.array([[total * 0.5]]), tuple(feats), vjp), skipped)


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
