"""Naive-loop reference implementations used to audit the library.

Everything here is written with plain python loops and math functions, on
purpose: these oracles must stay independent of the vectorized/taped code
paths they are used to check.  The two exceptions are references for
bitwise equality, which must therefore run the same numpy operations as
the library: ``sigmoid_oracle`` and ``adam_oracle``.  ``gradient_check``
audits taped gradients against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from mvmlc.errors import ContractError
from mvmlc.numerics import Matrix, Tape, backward


def sigmoid_oracle(x):
    """The two-branch logistic: 1/(1 + exp(-x)) for x >= 0 and
    exp(x)/(1 + exp(x)) below, so no positive argument is exponentiated."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def adam_oracle(params, grads, first, second, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update of each array of ``params``, in place,
    one array at a time and with out-of-place temporaries; ``first`` and
    ``second`` are the per-array moments and ``step`` the 1-based count."""
    correct1 = 1.0 - beta1 ** step
    correct2 = 1.0 - beta2 ** step
    for p, g, m, v in zip(params, grads, first, second):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / correct1) / (np.sqrt(v / correct2) + eps)


def cos01_oracle(a, b):
    na = math.sqrt(sum(float(x) * float(x) for x in a))
    nb = math.sqrt(sum(float(x) * float(x) for x in b))
    if na == 0.0 or nb == 0.0:
        return 0.5
    dot = sum(float(x) * float(y) for x, y in zip(a, b))
    return (dot / (na * nb) + 1.0) / 2.0


def reconstruction_oracle(recon, masked, view_indicator):
    v = len(recon)
    total = 0.0
    for m in range(v):
        n, d = recon[m].shape
        acc = 0.0
        for i in range(n):
            if view_indicator[i, m] == 0:
                continue
            sq = 0.0
            for t in range(d):
                diff = recon[m][i, t] - masked[m][i, t]
                sq += diff * diff
            acc += sq / d
        total += acc
    return total / v


def masked_infonce_oracle(feats, outer_gate, denom_gate, tau):
    """Literal per-pair, per-anchor evaluation of the gated contrastive loss.

    Returns (loss, skipped) where skipped counts gated-in anchors whose
    denominator is non-positive after removing the self-pair term.
    """
    v = len(feats)
    n = feats[0].shape[0]
    total = 0.0
    skipped = 0
    for m in range(v):
        for w in range(v):
            if w == m:
                continue
            pair = 0.0
            for i in range(n):
                gate = outer_gate[i, m] * outer_gate[i, w]
                if gate == 0:
                    continue
                num = math.exp(cos01_oracle(feats[m][i], feats[w][i]) / tau)
                den = 0.0
                for j in range(n):
                    for k in (m, w):
                        den += math.exp(cos01_oracle(feats[m][i], feats[k][j]) / tau) * denom_gate[j, k]
                den -= math.exp(1.0 / tau)
                if den <= 0.0:
                    skipped += 1
                    continue
                pair += gate * math.log(num / den)
            total += -pair / n
    return 0.5 * total, skipped


def bce_oracle(scores, labels, label_indicator):
    n, c = scores.shape
    acc = 0.0
    for i in range(n):
        for j in range(c):
            t = min(max(scores[i, j], 1e-12), 1.0 - 1e-12)
            acc += (labels[i, j] * math.log(t) + (1.0 - labels[i, j]) * math.log(1.0 - t)) * label_indicator[i, j]
    return -acc / (n * c)


def _descending_order(row):
    # Stable sort by descending score, ties broken by smaller label index.
    return sorted(range(len(row)), key=lambda j: (-row[j], j))


def ap_oracle(scores, labels):
    per_sample = []
    for i in range(scores.shape[0]):
        relevant = [j for j in range(scores.shape[1]) if labels[i, j] == 1]
        if not relevant:
            continue
        order = _descending_order(scores[i])
        rank_of = {j: r + 1 for r, j in enumerate(order)}
        acc = 0.0
        for j in relevant:
            better_or_equal = sum(1 for k in relevant if rank_of[k] <= rank_of[j])
            acc += better_or_equal / rank_of[j]
        per_sample.append(acc / len(relevant))
    if not per_sample:
        raise ValueError("no sample with a relevant label")
    return sum(per_sample) / len(per_sample)


def hamming_oracle(scores, labels, threshold=0.5):
    n, c = scores.shape
    wrong = 0
    for i in range(n):
        for j in range(c):
            pred = 1.0 if scores[i, j] >= threshold else 0.0
            if pred != labels[i, j]:
                wrong += 1
    return 1.0 - wrong / (n * c)


def ranking_oracle(scores, labels):
    per_sample = []
    for i in range(scores.shape[0]):
        rel = [scores[i, j] for j in range(scores.shape[1]) if labels[i, j] == 1]
        irr = [scores[i, j] for j in range(scores.shape[1]) if labels[i, j] == 0]
        if not rel or not irr:
            continue
        bad = 0.0
        for r in rel:
            for q in irr:
                if r < q:
                    bad += 1.0
                elif r == q:
                    bad += 0.5
        per_sample.append(bad / (len(rel) * len(irr)))
    if not per_sample:
        raise ValueError("every sample is degenerate")
    return 1.0 - sum(per_sample) / len(per_sample)


def auc_oracle(scores, labels):
    per_label = []
    for j in range(scores.shape[1]):
        pos = [scores[i, j] for i in range(scores.shape[0]) if labels[i, j] == 1]
        negs = [scores[i, j] for i in range(scores.shape[0]) if labels[i, j] == 0]
        if not pos or not negs:
            continue
        good = 0.0
        for p in pos:
            for q in negs:
                if p > q:
                    good += 1.0
                elif p == q:
                    good += 0.5
        per_label.append(good / (len(pos) * len(negs)))
    if not per_label:
        raise ValueError("every label is degenerate")
    return sum(per_label) / len(per_label)


def one_error_oracle(scores, labels):
    n = scores.shape[0]
    errors = 0
    for i in range(n):
        top = _descending_order(scores[i])[0]
        if labels[i, top] != 1:
            errors += 1
    return errors / n


def coverage_oracle(scores, labels):
    per_sample = []
    c = scores.shape[1]
    for i in range(scores.shape[0]):
        relevant = [j for j in range(c) if labels[i, j] == 1]
        if not relevant:
            continue
        order = _descending_order(scores[i])
        rank_of = {j: r + 1 for r, j in enumerate(order)}
        worst = max(rank_of[j] for j in relevant)
        per_sample.append((worst - 1) / c)
    if not per_sample:
        return 0.0
    return sum(per_sample) / len(per_sample)


@dataclass
class GradientCheckReport:
    """Outcome of a finite-difference audit of analytic gradients."""

    max_rel_err: float
    n_coords: int
    passed: bool


def gradient_check(
    f: Callable[[Sequence[Matrix]], Matrix],
    params: Sequence[Matrix],
    step: float = 1e-5,
    tol: float = 1e-4,
) -> GradientCheckReport:
    """Compare taped gradients of ``f`` against central finite differences.

    ``f`` maps the parameter list to a scalar Matrix and must be
    deterministic; this is verified by evaluating it twice and comparing
    bitwise (mismatch raises :class:`ContractError`).  Per-coordinate
    relative error uses ``|a - n| / max(|a|, |n|, 1e-6)`` so that
    coordinates whose gradient is essentially zero are compared on an
    absolute scale instead of blowing up.  A coordinate whose analytic or
    numeric derivative is not finite has error ``inf``, so it fails.
    """
    if step <= 0:
        raise ContractError(f"gradient_check: step must be positive, got {step}")
    base = f(params).item()
    if f(params).item() != base:
        raise ContractError("gradient_check: f is not deterministic")

    with Tape() as tape:
        loss = f(params)
    analytic = backward(tape, loss, params)

    max_err = 0.0
    n_coords = 0
    for p, grad in zip(params, analytic):
        for coord in np.ndindex(p.shape):
            orig = p.value[coord]
            p.value[coord] = orig + step
            up = f(params).item()
            p.value[coord] = orig - step
            down = f(params).item()
            p.value[coord] = orig
            numeric = (up - down) / (2.0 * step)
            a = grad[coord]
            if not np.isfinite(a) or not np.isfinite(numeric):
                max_err = np.inf
            else:
                max_err = max(max_err, abs(a - numeric) / max(abs(a), abs(numeric), 1e-6))
            n_coords += 1
    return GradientCheckReport(max_rel_err=max_err, n_coords=n_coords, passed=max_err < tol)

