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

Each term, and their weighted sum, is recorded on the tape as one
primitive with a hand-written VJP (see :func:`mvmlc.numerics.emit`).  The
reconstruction and classification terms compute their values as the plain
numpy expressions of their formulas, in the order written, so bitwise
equal to them.

Numerical care: contrastive exponents are shifted by the largest one
exact arithmetic attains (similarity 1 over temperature), so at tau >=
``TAU_MIN`` each is at least -500: no exponential underflows, and the
backward keeps headroom.  Rounding can leave the product of two unit rows
a few ulps above 1, so an exponent can still be positive, by about
2.2e-16/tau.  The shift happens inside the similarity product: anchor
rows carry an extra column -1/(2 tau) against a key column of ones, so
one product yields the shifted exponents and one in-place ``exp`` the
block.  Classifier probabilities are clamped away from 0/1 before the
logs.  Each contrastive denominator subtracts the self-pair term from its
sum over gated keys; the two cancel before the sum, not after it.  The
self-pair enters at its exact value less 1 (0, or exp(-1/(2 tau)) - 1 for
an all-zero row), not as the rounded exponential of u.u, so the other
keys are never rounded against 1: at ``TAU_MIN`` their sum can be
~1e-60, and the loss still agrees with a log-sum-exp evaluation to a few
ulps.  An anchor whose denominator is 0 or below is skipped: its only
gated key is itself, its own denominator gate is off, or its row is zero.

Both contrastive terms run as one taped primitive over the live rows of
all views, those a gate admits as anchor or key, stacked into one matrix.
No other row's similarity can reach the loss, so dropping them is exact,
and with half of all sample-view cells missing the similarity work falls
about fourfold.  The stacked rows' similarities are symmetric, so only
the square ``TILE_ROWS`` x ``TILE_ROWS`` tiles on or above the diagonal
are formed, one at a time, in forward and again in backward: memory
grows with TILE_ROWS^2 per tile, not with N^2.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numerics as nm
from .errors import ConfigError, ShapeError
from .numerics import Matrix

logger = logging.getLogger(__name__)

Array = np.ndarray

PROB_CLIP = 1e-12

# The smallest temperature: every contrastive exponent is at least -1/tau =
# -500, so each exponential stays a normal double (e^-500 ~ 7e-218) and the
# backward keeps about e^200 of headroom before it overflows.
TAU_MIN = 2e-3


def reconstruction_loss(recon: list[Matrix], masked_views: list[Matrix], view_indicator: Array) -> Matrix:
    """Mean over views of per-sample squared reconstruction error, gated by
    view availability and normalized by each view's width.

    One taped primitive over every view's reconstruction and input.
    """
    if len(recon) != len(masked_views):
        raise ShapeError(f"got {len(recon)} reconstructions for {len(masked_views)} views")
    diffs, gates = [], []
    total = None
    for m, (xbar, xprime) in enumerate(zip(recon, masked_views)):
        if xbar.shape != xprime.shape:
            raise ShapeError(f"view {m}: reconstruction {xbar.shape} vs input {xprime.shape}")
        diff = xbar.value - xprime.value
        gate = view_indicator[:, m:m + 1]
        term = ((diff * diff).sum(axis=1, keepdims=True) * gate).sum(dtype=np.float64) * (1.0 / xbar.cols)
        total = term if total is None else total + term
        diffs.append(diff)
        gates.append(gate)
    view_scale = 1.0 / len(recon)

    def vjp(g: Array) -> tuple[Array, ...]:
        d_term = g * view_scale
        d_diffs = [(d_term * (1.0 / diff.shape[1]) * gate) * (2.0 * diff)
                   for diff, gate in zip(diffs, gates)]
        return tuple(d_diffs) + tuple(-d for d in d_diffs)

    return nm.emit(np.array([[total * view_scale]]), tuple(recon) + tuple(masked_views), vjp)


class ContrastiveResult(NamedTuple):
    loss: Matrix
    skipped: int  # gated-in anchors dropped because their denominator was <= 0


# Side of the square tiles the contrastive loss forms its similarities in:
# at most TILE_ROWS x TILE_ROWS of them are held at once, in forward and in
# backward.
TILE_ROWS = 256


def unit_rows(x: Array) -> tuple[Array, Array]:
    """Rows scaled to unit L2 norm, and the per-row scale (N x 1) used: the
    normalization of the contrastive loss and of
    :func:`mvmlc.train.channel_similarity`.

    An all-zero row has no direction: it stays zero with scale 0, so its
    similarity to anything is the neutral 0.5 and its gradient is zero.
    """
    norms = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    inv = np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0), 0.0)
    return x * inv, inv


def _exp_block(anchors: Array, keys: Array) -> Array:
    """exp((sim01 - 1) / tau) for every pair of anchor and key rows of
    :func:`_tiles`: one product, exponentiated in place."""
    block = anchors @ keys.T
    return np.exp(block, out=block)


def _tiles(units: Array, s: float):
    """Square tiles ``(rows, cols, block)`` that cover the upper triangle of
    the symmetric matrix over all pairs of ``units`` rows once: diagonal
    tiles whole and the tiles above them, in row bands, each band starting
    with its diagonal tile.  ``block`` is the :func:`_exp_block` of the
    band's anchor rows ``[s u, -s]``, formed once per band, and the key rows
    ``[u, 1]``: their product is s (u_i . u_j - 1) = (sim01 - 1)/tau for
    s = 0.5/tau, sim01 = (u_i . u_j + 1)/2 the [0, 1]-mapped cosine."""
    n = units.shape[0]
    keys = np.hstack([units, np.ones((n, 1))])
    for lo in range(0, n, TILE_ROWS):
        rows = slice(lo, min(lo + TILE_ROWS, n))
        anchors = keys[rows] * s
        anchors[:, -1] = -s
        for col in range(lo, n, TILE_ROWS):
            cols = slice(col, min(col + TILE_ROWS, n))
            yield rows, cols, _exp_block(anchors, keys[cols])


def _masked_infonce(feats: list[Matrix], outer_gate: Array, denom_gate: Array, tau: float) -> ContrastiveResult:
    """Shared core of both contrastive objectives, one taped primitive.

    For ordered pair (m, n), anchor i of view m contributes
    ``-log(exp(pos/tau) / (sum_j sum_{k in {m,n}} exp(sim/tau) * gate_jk - exp(1/tau)))``
    weighted by ``outer_gate[i,m] * outer_gate[i,n]``; similarities are the
    [0,1]-mapped cosines.  Exponents are shifted by -1/tau, the largest
    attainable value, so the subtracted self-pair term becomes 1.  The
    self-pair cancels inside the sum, not after it: the diagonal of the
    diagonal tiles holds its exact term minus 1, 0 for a nonzero row, so
    no other key is rounded against 1.  Only an anchor whose own
    denominator gate is off, and whose sum so holds no self-pair, has the
    1 subtracted from its denominator.

    ``tau`` below ``TAU_MIN``, or NaN, is a ``ConfigError``.  The gates are
    0/1 availability indicators: each other gated key then adds at least
    e^-500 to a denominator, so only the gates and rows can make it 0.

    Only live rows take part, those with a nonzero outer or denominator
    gate in their view.  Any other row is neither a weighted anchor nor a
    gated key, so none of its similarities reaches the loss or a gradient.
    The live rows of all views are stacked, in view order, into L rows,
    and every denominator is a gated row sum of their L x L exponentials:
    an L x v matrix of gates, each row's in its view's column, turns one
    product per tile into the row sums over every view's keys at once.
    That matrix is symmetric, so only the square TILE_ROWS x TILE_ROWS
    tiles on or above its diagonal are formed; a tile above it yields the
    row sums of its transpose as well.  Tiles are formed again in the
    backward pass instead of being kept.  Row sums and positive cosines
    meet in N x v x v arrays, one entry per sample and ordered view pair,
    zero off the live rows.
    """
    n_views = len(feats)
    n = feats[0].rows
    if not tau >= TAU_MIN:  # NaN included
        raise ConfigError(f"temperature must be >= {TAU_MIN}, got {tau}")
    if outer_gate.shape != (n, n_views) or denom_gate.shape != (n, n_views):
        raise ShapeError(
            f"gates must be {(n, n_views)}, got {outer_gate.shape} and {denom_gate.shape}")
    if n_views < 2:
        return ContrastiveResult(Matrix(0.0), 0)

    inv_tau = 1.0 / tau
    live = (outer_gate != 0) | (denom_gate != 0)
    view_of, row_of = np.nonzero(live.T)  # the stacked live rows, in view order
    units, inv_norms = unit_rows(np.concatenate([f.value[live[:, k]] for k, f in enumerate(feats)]))
    n_live, d = units.shape
    s = 0.5 * inv_tau
    gates = np.zeros((n_live, n_views))
    gates[np.arange(n_live), view_of] = denom_gate[row_of, view_of]
    # The self-pair's exact exponential, of similarity 1 (or the neutral 0.5
    # for a zero row), less the 1 the denominator subtracts.  With it an
    # anchor whose only gated key is itself gets a denominator of exactly 0
    # and is skipped.
    self_pair = np.where(inv_norms[:, 0] > 0, 0.0, np.exp((0.5 - 1.0) * inv_tau) - 1.0)

    live_sums = np.zeros((n_live, n_views))
    for rows, cols, block in _tiles(units, s):
        if rows == cols:
            np.fill_diagonal(block, self_pair[rows])
        else:
            live_sums[cols] += block.T @ gates[rows]
        live_sums[rows] += block @ gates[cols]
    # exp_sums[i, a, k]: row sum of exp((sim - 1)/tau) over the gated keys of
    # view k, for anchor i of view a; sample_units[i, a]: unit row i of view
    # a.  Both are zero off the live rows.
    exp_sums = np.zeros((n, n_views, n_views))
    exp_sums[row_of, view_of] = live_sums
    sample_units = np.zeros((n, n_views, d))
    sample_units[row_of, view_of] = units

    # Per ordered pair (a, b), a != b: the anchor weight, denominator and term.
    pos01 = (np.einsum("iad,ibd->iab", sample_units, sample_units) + 1.0) * 0.5
    denom = (np.diagonal(exp_sums, axis1=1, axis2=2)[:, :, None] + exp_sums
             - (1.0 - denom_gate[:, :, None]))
    gate = outer_gate[:, :, None] * outer_gate[:, None, :] * (1.0 - np.eye(n_views))
    valid = ~(denom <= 0)  # a NaN denominator is no skip: its term is NaN
    skipped = int(np.count_nonzero((gate > 0) & ~valid))
    effective = gate * valid
    safe = np.where(valid, denom, 1.0)
    terms = (pos01 - 1.0) * inv_tau - np.log(safe)
    total = float(np.sum(terms * effective)) * (-0.5 / n)
    if skipped:
        logger.warning("contrastive loss: %d anchors had no available comparison", skipped)

    def vjp(g: Array) -> tuple[Array, ...]:
        # The loss is -0.5/n times the weighted sum over pairs of
        # pos01/tau - log(denom[a,b]), linear in exp_sums; first the
        # adjoints of the positive cosines and of the row sums.
        weight = effective * (-0.5 / n * g[0, 0])
        d_pos = weight * s
        d_units = (d_pos + d_pos.transpose(0, 2, 1)) @ sample_units
        d_sums = -weight / safe
        diag = np.arange(n_views)
        d_sums[:, diag, diag] = d_sums.sum(axis=2)
        # With E the exponentials and D the row sums' adjoints on the stacked
        # rows, d loss / d E is D gates^T, and E symmetric folds in its
        # transpose: W = D gates^T + gates D^T = [D, gates] [gates, D]^T.
        # E * s is dE / d cosine; s goes into D.  The diagonal, the
        # self-pair, is a constant in the forward, so it is zeroed here.
        d_live = d_sums[row_of, view_of] * s
        left, right = np.hstack([d_live, gates]), np.hstack([gates, d_live])
        du = d_units[row_of, view_of]
        for rows, cols, w in _tiles(units, s):
            w *= left[rows] @ right[cols].T
            if rows == cols:
                np.fill_diagonal(w, 0.0)
            else:
                du[cols] += w.T @ units[rows]
            du[rows] += w @ units[cols]
        # Through the normalization: remove the radial part, divide by the
        # norm; then back from the stacked rows to each view's N rows.
        du = (du - units * np.sum(units * du, axis=1, keepdims=True)) * inv_norms
        grads = np.zeros((n_views, n, d))
        grads[view_of, row_of] = du
        return tuple(grads)

    return ContrastiveResult(nm.emit(np.array([[total]]), tuple(feats), vjp), skipped)


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


def label_contrastive(label_probs: list[Matrix], label_gate: Array, denom_gate: Array,
                      tau: float) -> ContrastiveResult:
    """Cross-view contrast of label-head features.

    The anchor pair is gated by ``label_gate`` (see
    :func:`label_availability_gate`) and the denominator by ``denom_gate``:
    training passes the view indicator, or ``label_gate`` itself under
    ``label_gate_mode="label"``.
    """
    return _masked_infonce(label_probs, label_gate, denom_gate, tau)


def classification_loss(scores: Matrix, labels: Array, label_indicator: Array) -> Matrix:
    """Binary cross-entropy over all sample/label cells, counting only known
    labels, averaged over the full N x C grid.

    One taped primitive; the clamp of the probabilities passes no gradient
    at or beyond its bounds.
    """
    if scores.shape != labels.shape or scores.shape != label_indicator.shape:
        raise ShapeError(
            f"scores {scores.shape}, labels {labels.shape} and gate {label_indicator.shape} must match")
    n, c = scores.shape
    inside = (scores.value > PROB_CLIP) & (scores.value < 1.0 - PROB_CLIP)
    probs = np.clip(scores.value, PROB_CLIP, 1.0 - PROB_CLIP)
    y = np.ascontiguousarray(labels, dtype=np.float64)
    gate = np.ascontiguousarray(label_indicator, dtype=np.float64)
    not_y = 1.0 - y
    rest = 1.0 - probs
    ll = y * np.log(probs) + not_y * np.log(rest)
    scale = -1.0 / (n * c)

    def vjp(g: Array) -> tuple[Array]:
        d_ll = (g * scale) * gate
        return ((-((d_ll * not_y) / rest) + (d_ll * y) / probs) * inside,)

    return nm.emit(np.array([[(ll * gate).sum(dtype=np.float64) * scale]]), (scores,), vjp)


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
    """Scalar value of each term and of their weighted sum, and the anchors
    each contrastive term skipped."""

    classification: float
    instance_contrast: float
    label_contrast: float
    reconstruction: float
    total: float
    instance_skipped: int = 0
    label_skipped: int = 0

    def components(self) -> dict[str, float]:
        return {column: getattr(self, name) for column, name in COMPONENTS}

    @classmethod
    def weighted_mean(cls, parts: list[tuple[float, "LossBreakdown"]]) -> "LossBreakdown":
        """Weighted mean of the components of (weight, breakdown) pairs; skipped
        anchors add up.  Sums start at -0.0, the additive identity, so one
        part of weight 1 passes unchanged."""
        means = {name: sum((w * getattr(b, name) for w, b in parts), -0.0)
                 for _, name in COMPONENTS}
        return cls(**means, instance_skipped=sum(b.instance_skipped for _, b in parts),
                   label_skipped=sum(b.label_skipped for _, b in parts))


def finite_number(value: numbers.Real) -> bool:
    """Whether ``value`` is finite, for the loss weights and the float
    ``TrainConfig`` fields alike."""
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def total_loss(
    classification: Matrix,
    instance_contrast: Matrix,
    label_contrast: Matrix,
    reconstruction: Matrix,
    alpha: float,
    beta: float,
    gamma: float,
) -> tuple[Matrix, LossBreakdown]:
    """Weighted sum of the four terms, recorded as one primitive; each
    component is kept for logging."""
    if not all(finite_number(w) and w >= 0 for w in (alpha, beta, gamma)):
        raise ConfigError(f"loss weights must be finite and >= 0, got {(alpha, beta, gamma)}")
    combined = nm.emit(classification.value + alpha * instance_contrast.value
                       + beta * label_contrast.value + gamma * reconstruction.value,
                       (classification, instance_contrast, label_contrast, reconstruction),
                       lambda g: (g, g * alpha, g * beta, g * gamma))
    breakdown = LossBreakdown(
        classification=classification.item(),
        instance_contrast=instance_contrast.item(),
        label_contrast=label_contrast.item(),
        reconstruction=reconstruction.item(),
        total=combined.item(),
    )
    return combined, breakdown
