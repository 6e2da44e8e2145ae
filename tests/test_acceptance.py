"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The trend criteria (5 and 6) share one set of training runs via a
module-scoped fixture; together they stay well under their runtime budget.
"""

import time

import numpy as np
import pytest

from mvmlc.cli import EXIT_OK, main
from mvmlc.data import (
    MaskBank,
    apply_indicators,
    generate_indicators,
    split,
    synth_dataset,
)
from mvmlc.losses import (
    classification_loss,
    instance_contrastive,
    label_availability_gate,
    label_contrastive,
    reconstruction_loss,
)
from mvmlc.metrics import (
    average_precision,
    coverage,
    hamming,
    macro_auc,
    one_error,
    ranking_loss,
)
from mvmlc.model import ModelParams, forward_all
from mvmlc.numerics import Matrix, Tape, backward
from mvmlc.train import TrainConfig, train
from mvmlc.train import _epoch_losses
from mvmlc.metrics import evaluate_all

from oracles import (
    ap_oracle,
    auc_oracle,
    bce_oracle,
    coverage_oracle,
    gradient_check,
    hamming_oracle,
    masked_infonce_oracle,
    one_error_oracle,
    ranking_oracle,
    reconstruction_oracle,
)


def announce(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


# --------------------------------------------------------------------------
# criterion 1: end-to-end gradient audit


def test_criterion_1_gradient_audit():
    started = time.perf_counter()
    ds = synth_dataset(8, 2, 3, dims=(6, 5), noise=0.5, seed=3)
    vi, wi = generate_indicators(8, 2, 3, 0.25, 0.3, seed=4)
    ds = apply_indicators(ds, vi, wi)
    cfg = TrainConfig(epochs=1, alpha=0.1, beta=0.1, gamma=0.1,
                      tau_s=0.5, tau_l=0.5, embed_dim=4, hidden_dim=8, seed=0)
    params = ModelParams.initialize(np.random.default_rng(0), ds.view_dims,
                                    ds.n_labels, 4, 8)
    gate = label_availability_gate(ds.label_indicator, ds.view_indicator)
    bank = MaskBank.generate(ds.n_samples, ds.view_dims, 0.3, seed=11)

    def objective(_):
        return _epoch_losses(params, ds, bank, gate, cfg)[0]

    report = gradient_check(objective, params.parameters(), step=1e-5, tol=1e-4)
    elapsed = time.perf_counter() - started
    assert report.passed, f"max relative error {report.max_rel_err}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    announce(1, f"analytic vs finite-difference gradients over {report.n_coords} "
                f"coordinates, max rel err {report.max_rel_err:.2e} < 1e-4 "
                f"({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# criterion 2: loss-oracle equivalence on 50 random instances per loss


def test_criterion_2_loss_oracle_equivalence():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        v = int(rng.integers(2, 5))
        c = int(rng.integers(2, 6))
        d = int(rng.integers(2, 6))
        tau = float(rng.uniform(0.2, 1.0))
        view_ind = (rng.random((n, v)) > 0.35).astype(float)
        label_ind = (rng.random((n, c)) > 0.4).astype(float)

        dims = [int(rng.integers(1, 6)) for _ in range(v)]
        recon = [rng.normal(size=(n, dd)) for dd in dims]
        masked = [rng.normal(size=(n, dd)) for dd in dims]
        got = reconstruction_loss([Matrix(r) for r in recon],
                                  [Matrix(m) for m in masked], view_ind).item()
        want = reconstruction_oracle(recon, masked, view_ind)
        worst = max(worst, abs(got - want))

        feats = [rng.normal(size=(n, d)) for _ in range(v)]
        got = instance_contrastive([Matrix(f) for f in feats], view_ind, tau).loss.item()
        want, _ = masked_infonce_oracle(feats, view_ind, view_ind, tau)
        worst = max(worst, abs(got - want))

        probs = [rng.random((n, c)) for _ in range(v)]
        gate = label_availability_gate(label_ind, view_ind)
        got = label_contrastive([Matrix(p) for p in probs], gate, view_ind, tau).loss.item()
        want, _ = masked_infonce_oracle(probs, gate, view_ind, tau)
        worst = max(worst, abs(got - want))

        scores = rng.random((n, c))
        labels = (rng.random((n, c)) > 0.5).astype(float)
        got = classification_loss(Matrix(scores), labels, label_ind).item()
        want = bce_oracle(scores, labels, label_ind)
        worst = max(worst, abs(got - want))
    assert worst < 1e-10, f"worst oracle deviation {worst}"
    announce(2, f"all four losses match naive-loop oracles on 50 random "
                f"instances, worst deviation {worst:.2e} < 1e-10")


# --------------------------------------------------------------------------
# criterion 3: masking invariants (exact zero difference)


def test_criterion_3_masking_invariants():
    ds = synth_dataset(10, 3, 4, dims=(6, 5, 7), noise=0.4, seed=9)
    vi, wi = generate_indicators(10, 3, 4, 0.4, 0.4, seed=10)
    ds = apply_indicators(ds, vi, wi)
    cfg = TrainConfig(epochs=1, alpha=0.2, beta=0.2, gamma=0.3,
                      embed_dim=4, hidden_dim=6, seed=1)
    params = ModelParams.initialize(np.random.default_rng(1), ds.view_dims,
                                    ds.n_labels, 4, 6)
    gate = label_availability_gate(ds.label_indicator, ds.view_indicator)

    def losses_and_grads(data):
        with Tape() as tape:
            combined, breakdown = _epoch_losses(params, data, None, gate, cfg)
            grads = backward(tape, combined, params.parameters())
        return breakdown, grads

    base_losses, base_grads = losses_and_grads(ds)

    tampered = [v.copy() for v in ds.views]
    rng = np.random.default_rng(123)
    for m in range(ds.n_views):
        rows = ds.view_indicator[:, m] == 0
        tampered[m][rows] = rng.normal(size=(int(rows.sum()), tampered[m].shape[1])) * 50
    labels = ds.labels.copy()
    hidden = ds.label_indicator == 0
    labels[hidden] = 1.0  # flip hidden label entries

    from mvmlc.data import MultiViewDataset
    evil = MultiViewDataset.__new__(MultiViewDataset)
    evil.views = tampered
    evil.labels = labels
    evil.view_indicator = ds.view_indicator
    evil.label_indicator = ds.label_indicator
    evil.name = ds.name

    evil_losses, evil_grads = losses_and_grads(evil)
    for field in ("classification", "instance_contrast", "label_contrast",
                  "reconstruction", "total"):
        a, b = getattr(base_losses, field), getattr(evil_losses, field)
        assert a - b == 0.0, f"{field}: {a} vs {b}"
    for g1, g2 in zip(base_grads, evil_grads):
        assert np.array_equal(g1, g2)
    announce(3, "perturbing masked view rows and hidden labels changed no "
                "loss value and no gradient (exact zero difference)")


# --------------------------------------------------------------------------
# criterion 4: metric-oracle equivalence + monotone invariance


def test_criterion_4_metric_oracles():
    pairs = {
        average_precision: ap_oracle,
        hamming: hamming_oracle,
        ranking_loss: ranking_oracle,
        macro_auc: auc_oracle,
        one_error: one_error_oracle,
        coverage: coverage_oracle,
    }
    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 21))
        c = int(rng.integers(2, 9))
        scores = np.round(rng.random((n, c)), 2)
        labels = (rng.random((n, c)) > 0.6).astype(float)
        labels[0, int(rng.integers(c))] = 1.0
        for metric, oracle in pairs.items():
            try:
                want = oracle(scores, labels)
            except ValueError:
                continue
            got = metric(scores, labels)
            worst = max(worst, abs(got - want))
    assert worst < 1e-12, f"worst metric deviation {worst}"

    rank_metrics = (average_precision, ranking_loss, macro_auc, one_error, coverage)
    rng = np.random.default_rng(777)
    scores = np.round(rng.random((15, 6)), 2)
    labels = (rng.random((15, 6)) > 0.5).astype(float)
    labels[labels.sum(axis=1) == 0, 0] = 1.0
    base = [m(scores, labels) for m in rank_metrics]
    for k in range(50):
        trng = np.random.default_rng(5000 + k)
        a = float(trng.uniform(0.5, 5.0))
        b = float(trng.uniform(-2.0, 2.0))
        kind = k % 3
        if kind == 0:
            transformed = a * scores + b
        elif kind == 1:
            transformed = np.exp(a * scores) + b
        else:
            transformed = (a * scores + b) ** 3 + (a * scores + b)
        assert [m(transformed, labels) for m in rank_metrics] == base
    announce(4, f"six metrics equal brute force on 200 instances (worst "
                f"deviation {worst:.2e} < 1e-12); ranking metrics invariant "
                f"under 50 monotone transforms")


# --------------------------------------------------------------------------
# criteria 5 and 6 share the trend runs


TREND_NOISE = 12.0
TREND_EPOCHS = 60


def _trend_protocol(seed):
    ds = synth_dataset(600, 3, 6, dims=32, noise=TREND_NOISE, seed=seed)
    vi, _ = generate_indicators(600, 3, 6, 0.5, 0.0, seed=seed + 1)
    ds = apply_indicators(ds, vi, None)
    train_ds, test_ds = split(ds, 0.7, seed=seed + 2)
    _, wi = generate_indicators(train_ds.n_samples, 3, 6, 0.0, 0.5, seed=seed + 3)
    train_ds = apply_indicators(train_ds, None, wi)
    return train_ds, test_ds


def _trend_config(seed, full):
    # gamma is scaled by the training-set size because the reconstruction
    # term sums over samples rather than averaging
    scale = 1.0 if full else 0.0
    return TrainConfig(epochs=TREND_EPOCHS, learning_rate=1e-3, mask_ratio=0.1,
                       alpha=0.4 * scale, beta=0.4 * scale, gamma=(0.1 / 420) * scale,
                       tau_s=0.5, tau_l=0.5, embed_dim=64, hidden_dim=128, seed=seed)


@pytest.fixture(scope="module")
def trend_runs():
    started = time.perf_counter()
    runs = []
    for seed in range(5):
        train_ds, test_ds = _trend_protocol(seed)
        full = train(train_ds, _trend_config(seed, full=True),
                     snapshot_epochs=(0, TREND_EPOCHS))
        back = train(train_ds, _trend_config(seed, full=False))
        full_ap = evaluate_all(
            forward_all(full.params, test_ds, None, training=False).scores.value,
            test_ds.labels).ap
        back_ap = evaluate_all(
            forward_all(back.params, test_ds, None, training=False).scores.value,
            test_ds.labels).ap
        runs.append({"full_ap": full_ap, "back_ap": back_ap,
                     "snap0": full.snapshots[0], "snap_end": full.snapshots[TREND_EPOCHS]})
    return runs, time.perf_counter() - started


def test_criterion_5_ablation_trend(trend_runs):
    runs, elapsed = trend_runs
    full_mean = float(np.mean([r["full_ap"] for r in runs]))
    back_mean = float(np.mean([r["back_ap"] for r in runs]))
    gap = full_mean - back_mean
    assert gap >= 0.01, (
        f"full {full_mean:.4f} vs backbone {back_mean:.4f}: gap {gap:+.4f} < 0.01")
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    announce(5, f"test AP (5-seed mean): full objective {full_mean:.4f} vs "
                f"backbone {back_mean:.4f}, gap {gap:+.4f} >= 0.01 "
                f"({elapsed:.0f}s)")


def test_criterion_6_channel_similarity_trend(trend_runs):
    runs, _ = trend_runs
    v = 3
    shared_start, shared_end, cross_end = [], [], []
    for r in runs:
        s0, s1 = r["snap0"], r["snap_end"]
        off = [(i, j) for i in range(v) for j in range(v) if i != j]
        shared_start.append(np.mean([s0[i, j] for i, j in off]))
        shared_end.append(np.mean([s1[i, j] for i, j in off]))
        cross_end.append(np.mean([s1[i, j] for i in range(v) for j in range(v, 2 * v)]))
    start = float(np.mean(shared_start))
    end = float(np.mean(shared_end))
    cross = float(np.mean(cross_end))
    assert end - start >= 0.1, f"shared-block gain {end - start:+.4f} < 0.1"
    assert end > cross, f"shared {end:.4f} not above shared-vs-private {cross:.4f}"
    announce(6, f"shared-block mean similarity {start:.3f} -> {end:.3f} "
                f"(gain {end - start:+.3f} >= 0.1), above cross-block {cross:.3f}")


# --------------------------------------------------------------------------
# criterion 7: CLI determinism


def test_criterion_7_cli_determinism(tmp_path):
    data_dir = tmp_path / "data"
    assert main(["synth", "--n", "40", "--views", "2", "--labels", "3",
                 "--dims", "6,7", "--noise", "0.5", "--seed", "5",
                 "--out", str(data_dir)]) == EXIT_OK
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main(["train", "--manifest", str(data_dir / "manifest.json"),
                     "--out", str(out), "--epochs", "3", "--embed-dim", "4",
                     "--hidden-dim", "6", "--seed", "7",
                     "--view-missing", "0.5", "--label-missing", "0.5",
                     "--train-frac", "0.7"])
        assert code == EXIT_OK
        outputs.append(out)
    for name in ("checkpoint.json", "train_log.csv", "metrics.txt",
                 "metrics.csv", "run_config.json"):
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    announce(7, "two identical train runs produced bit-identical checkpoint, "
                "log and metric reports")


# --------------------------------------------------------------------------
# criterion 8: end-to-end smoke under the standard protocol flags


def test_criterion_8_end_to_end_smoke(tmp_path, capsys):
    data_dir = tmp_path / "user_data"
    assert main(["synth", "--n", "60", "--views", "3", "--labels", "4",
                 "--dims", "8", "--noise", "1.0", "--seed", "2",
                 "--out", str(data_dir)]) == EXIT_OK
    run_dir = tmp_path / "run"
    code = main(["train", "--manifest", str(data_dir / "manifest.json"),
                 "--out", str(run_dir), "--epochs", "5",
                 "--view-missing", "0.5", "--label-missing", "0.5",
                 "--train-frac", "0.7", "--seed", "3"])
    assert code == EXIT_OK
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                 "--manifest", str(data_dir / "manifest.json"),
                 "--out", str(tmp_path / "eval")])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "ap " in printed
    announce(8, "train + eval completed under the 50%/50%/70% protocol flags "
                "on a manifest-format dataset")
