import math
import tracemalloc

import numpy as np
import pytest

import mvmlc.losses as losses
from mvmlc.errors import ConfigError
from mvmlc.losses import (
    LossBreakdown,
    classification_loss,
    instance_contrastive,
    label_availability_gate,
    label_contrastive,
    reconstruction_loss,
    total_loss,
)
from mvmlc.numerics import Matrix, Tape, backward, gradient_check

from oracles import bce_oracle, masked_infonce_oracle, reconstruction_oracle


def rand_feats(rng, n, v, d):
    return [Matrix(rng.normal(size=(n, d))) for _ in range(v)]


class TestCosineSim01:
    """The [0,1]-mapped cosine of the contrastive blocks: unit rows from
    ``_unit_rows``, then exp((sim01 - 1) / tau) from ``_exp_block``."""

    @staticmethod
    def sim01(a, b):
        unit, _ = losses._unit_rows(np.array([a, b], dtype=np.float64))
        return 1.0 + math.log(losses._exp_block(unit[:1], unit[1:], 1.0)[0, 0])

    def test_identical_vectors(self):
        assert self.sim01([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        assert self.sim01([1.0, 0.0], [0.0, 3.0]) == pytest.approx(0.5, abs=1e-15)

    def test_antipodal(self):
        assert self.sim01([1.0, -2.0], [-1.0, 2.0]) == pytest.approx(0.0, abs=1e-15)

    def test_zero_norm_is_neutral(self):
        assert self.sim01([0.0, 0.0], [1.0, 2.0]) == pytest.approx(0.5, abs=1e-15)


class TestReconstruction:
    def test_perfect_reconstruction_is_zero(self):
        rng = np.random.default_rng(0)
        x = [Matrix(rng.normal(size=(4, 3)))]
        assert reconstruction_loss(x, x, np.ones((4, 1))).item() == 0.0

    def test_fully_masked_is_zero(self):
        rng = np.random.default_rng(1)
        a = rand_feats(rng, 4, 2, 3)
        b = rand_feats(rng, 4, 2, 3)
        assert reconstruction_loss(a, b, np.zeros((4, 2))).item() == 0.0

    def test_hand_case(self):
        xbar = [Matrix([[1.0, 1.0]])]
        xprime = [Matrix([[0.0, 0.0]])]
        assert reconstruction_loss(xbar, xprime, np.ones((1, 1))).item() == 1.0

    def test_matches_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            v = int(rng.integers(1, 4))
            n = int(rng.integers(1, 7))
            dims = [int(rng.integers(1, 6)) for _ in range(v)]
            recon = [Matrix(rng.normal(size=(n, d))) for d in dims]
            masked = [Matrix(rng.normal(size=(n, d))) for d in dims]
            gate = (rng.random((n, v)) > 0.4).astype(float)
            got = reconstruction_loss(recon, masked, gate).item()
            want = reconstruction_oracle([r.value for r in recon], [m.value for m in masked], gate)
            assert got == pytest.approx(want, abs=1e-10)


class TestInstanceContrastive:
    def test_single_view_is_zero(self):
        rng = np.random.default_rng(0)
        res = instance_contrastive(rand_feats(rng, 4, 1, 3), np.ones((4, 1)), tau=0.5)
        assert res.loss.item() == 0.0

    def test_fully_gated_pair_is_zero(self):
        rng = np.random.default_rng(1)
        feats = rand_feats(rng, 5, 2, 3)
        gate = np.zeros((5, 2))
        gate[:, 0] = 1.0  # no sample has both views
        res = instance_contrastive(feats, gate, tau=0.5)
        assert res.loss.item() == 0.0

    def test_two_sample_case_matches_oracle(self):
        rng = np.random.default_rng(7)
        feats = rand_feats(rng, 2, 2, 4)
        v = np.ones((2, 2))
        got = instance_contrastive(feats, v, tau=0.5).loss.item()
        want, _ = masked_infonce_oracle([f.value for f in feats], v, v, 0.5)
        assert got == pytest.approx(want, abs=1e-10)

    def test_random_instances_match_oracle(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 9))
            v = int(rng.integers(2, 5))
            d = int(rng.integers(2, 6))
            tau = float(rng.uniform(0.2, 1.0))
            feats = rand_feats(rng, n, v, d)
            gate = (rng.random((n, v)) > 0.35).astype(float)
            got = instance_contrastive(feats, gate, tau)
            want, skipped = masked_infonce_oracle([f.value for f in feats], gate, gate, tau)
            assert got.loss.item() == pytest.approx(want, abs=1e-10)
            assert got.skipped == skipped

    def test_gated_anchor_has_zero_gradient(self):
        rng = np.random.default_rng(3)
        feats = rand_feats(rng, 5, 2, 4)
        gate = np.ones((5, 2))
        gate[2, 0] = 0.0
        with Tape() as tape:
            loss = instance_contrastive(feats, gate, tau=0.5).loss
        grads = backward(tape, loss, feats)
        assert np.all(grads[0][2] == 0.0)

    def test_invalid_temperature(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            instance_contrastive(rand_feats(rng, 3, 2, 2), np.ones((3, 2)), tau=0.0)

    def test_tiny_temperature_stays_finite(self):
        rng = np.random.default_rng(5)
        feats = rand_feats(rng, 4, 2, 3)
        res = instance_contrastive(feats, np.ones((4, 2)), tau=0.005)
        assert math.isfinite(res.loss.item())


def infonce_with_grads(feats, outer_gate, denom_gate, tau):
    with Tape() as tape:
        res = losses._masked_infonce(feats, outer_gate, denom_gate, tau)
    assert len(tape) == 1
    return res, backward(tape, res.loss, feats)


def _outer_outside_denominator(rng, n, v):
    # Rows live through the outer gate alone, through the denominator gate
    # alone, through both, and dead rows.
    outer = (rng.random((n, v)) > 0.4).astype(float)
    denom = np.maximum(outer * (rng.random((n, v)) > 0.4), rng.random((n, v)) > 0.8)
    assert np.any((outer > 0) & (denom == 0)) and np.any((outer == 0) & (denom > 0))
    assert np.any((outer == 0) & (denom == 0))
    return outer, denom


def _view_without_live_rows(rng, n, v):
    outer = (rng.random((n, v)) > 0.3).astype(float)
    outer[:, 1] = 0.0
    return outer, outer.copy()


def _mostly_missing(rng, n, v):
    # 80% of the (sample, view) cells absent, with a few two-view samples.
    gate = np.zeros((n, v))
    gate[[0, 0, 1, 1, 2, 2, 3, 4, 5], [0, 1, 1, 2, 0, 2, 1, 0, 2]] = 1.0
    assert gate.mean() <= 0.2
    return gate, gate.copy()


# Gate pairs under which blocks are compacted to live rows.
COMPACTION_GATES = {
    "outer rows outside the denominator": _outer_outside_denominator,
    "a view without live rows": _view_without_live_rows,
    "80% missing": _mostly_missing,
}


class TestFusedContrastive:
    """The contrastive core is one primitive with a hand-written VJP that
    forms similarity blocks losses.TILE_ROWS anchors at a time."""

    def test_gradients_match_finite_differences_across_tiles(self, monkeypatch):
        monkeypatch.setattr(losses, "TILE_ROWS", 3)
        rng = np.random.default_rng(31)
        n, v = 7, 3  # two full tiles and a partial one
        feats = rand_feats(rng, n, v, 4)
        outer = (rng.random((n, v)) > 0.25).astype(float)
        denom = np.maximum(outer, rng.random((n, v)) > 0.5)
        assert not np.array_equal(outer, denom)
        report = gradient_check(lambda p: losses._masked_infonce(list(p), outer, denom, 0.5).loss,
                                feats, step=1e-6, tol=1e-5)
        assert report.passed, report

    @pytest.mark.parametrize("n", [3, 4, 5], ids=["below tile", "one tile", "tile plus one"])
    def test_matches_oracle_around_the_tile_size(self, monkeypatch, n):
        rng = np.random.default_rng(40 + n)
        feats = rand_feats(rng, n, 3, 5)
        outer = (rng.random((n, 3)) > 0.3).astype(float)
        denom = np.maximum(outer, rng.random((n, 3)) > 0.4)
        _, untiled = infonce_with_grads(feats, outer, denom, 0.4)
        monkeypatch.setattr(losses, "TILE_ROWS", 4)
        got, tiled = infonce_with_grads(feats, outer, denom, 0.4)
        want, skipped = masked_infonce_oracle([f.value for f in feats], outer, denom, 0.4)
        assert abs(got.loss.item() - want) <= 1e-10
        assert got.skipped == skipped
        for a, b in zip(tiled, untiled):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)

    def test_anchor_whose_only_gated_key_is_itself_is_skipped(self):
        # The normalized row below has u.u = 1 + 4.4e-16 in floating point, so
        # a self-pair taken from the similarity block would leave a positive
        # denominator of that size and add -log(4.4e-16)/(2n) to the loss.
        row = np.array([[0.0, 0.3, -0.27]])
        unit = row * (1.0 / np.sqrt(np.sum(row * row)))
        assert (unit @ unit.T).item() > 1.0
        rng = np.random.default_rng(12)
        n = 3
        feats = [Matrix(np.vstack([row, rng.normal(size=(n - 1, 3))])),
                 Matrix(rng.normal(size=(n, 3)))]
        outer = np.ones((n, 2))
        denom = np.zeros((n, 2))
        denom[0, 0] = 1.0  # the only gated key of every anchor is row 0 of view 0
        res, grads = infonce_with_grads(feats, outer, denom, 0.5)
        assert res.skipped == 2 * n
        assert res.loss.item() == 0.0
        assert all(np.all(g == 0.0) for g in grads)
        assert label_contrastive(feats, outer, denom, 0.5).loss.item() == 0.0

    def test_zero_row_is_neutral_with_zero_gradient(self):
        # One sample, view 0 all zero: every similarity with it is 0.5.  Pair
        # (0, 1): positive 0.5, denominator 2 exp(-0.5/tau) - 1; pair (1, 0):
        # positive 0.5, denominator 1 + exp(-0.5/tau) - 1, a zero term.
        tau = 2.0
        feats = [Matrix([[0.0, 0.0, 0.0]]), Matrix([[0.3, -1.2, 0.4]])]
        res, grads = infonce_with_grads(feats, np.ones((1, 2)), np.ones((1, 2)), tau)
        want = 0.5 * (0.5 / tau + math.log(2.0 * math.exp(-0.5 / tau) - 1.0))
        assert res.loss.item() == pytest.approx(want, abs=1e-15)
        np.testing.assert_array_equal(grads[0], 0.0)

        rng = np.random.default_rng(13)
        feats = rand_feats(rng, 6, 3, 4)
        feats[1].value[2] = 0.0
        gate = np.ones((6, 3))
        res, grads = infonce_with_grads(feats, gate, gate, 0.5)
        want, _ = masked_infonce_oracle([f.value for f in feats], gate, gate, 0.5)
        assert abs(res.loss.item() - want) <= 1e-10
        np.testing.assert_array_equal(grads[1][2], 0.0)
        assert np.all(grads[1][[0, 1, 3, 4, 5]] != 0.0)

    def test_features_are_row_normalized(self):
        # Only directions matter: rescaling rows leaves the loss unchanged, so
        # each row's gradient is orthogonal to the row.
        rng = np.random.default_rng(14)
        feats = rand_feats(rng, 6, 3, 4)
        gate = (rng.random((6, 3)) > 0.2).astype(float)
        res, grads = infonce_with_grads(feats, gate, gate, 0.5)
        scaled = [Matrix(f.value * rng.uniform(0.1, 10.0, size=(6, 1))) for f in feats]
        rescaled = losses._masked_infonce(scaled, gate, gate, 0.5).loss.item()
        assert rescaled == pytest.approx(res.loss.item(), abs=1e-12)
        for f, g in zip(feats, grads):
            np.testing.assert_allclose(np.sum(f.value * g, axis=1), 0.0, atol=1e-15)

    @pytest.mark.parametrize("case", list(COMPACTION_GATES))
    def test_compacted_blocks_match_oracle_and_finite_differences(self, monkeypatch, case):
        monkeypatch.setattr(losses, "TILE_ROWS", 2)
        rng = np.random.default_rng(50)
        n, v = 15, 3
        outer, denom = COMPACTION_GATES[case](rng, n, v)
        feats = rand_feats(rng, n, v, 4)
        res, grads = infonce_with_grads(feats, outer, denom, 0.5)
        want, skipped = masked_infonce_oracle([f.value for f in feats], outer, denom, 0.5)
        assert abs(res.loss.item() - want) <= 1e-10
        assert res.skipped == skipped
        assert res.loss.item() != 0.0
        for k, g in enumerate(grads):
            dead = (outer[:, k] == 0) & (denom[:, k] == 0)
            np.testing.assert_array_equal(g[dead], 0.0)
        report = gradient_check(lambda p: losses._masked_infonce(list(p), outer, denom, 0.5).loss,
                                feats, step=1e-6, tol=1e-5)
        assert report.passed, report

    def test_label_gate_denominator_matches_oracle_and_finite_differences(self, monkeypatch):
        monkeypatch.setattr(losses, "TILE_ROWS", 3)
        rng = np.random.default_rng(51)
        n, v, c = 12, 3, 4
        probs = [Matrix(rng.random((n, c))) for _ in range(v)]
        view_ind = (rng.random((n, v)) > 0.3).astype(float)
        label_ind = (rng.random((n, c)) > 0.6).astype(float)
        label_ind[:4] = 0.0  # four samples without a known label: dead in every view
        gate = label_availability_gate(label_ind, view_ind)

        def loss(p):
            return label_contrastive(list(p), gate, view_ind, 0.5, denominator_gate="label").loss

        want, _ = masked_infonce_oracle([p.value for p in probs], gate, gate, 0.5)
        assert abs(loss(probs).item() - want) <= 1e-10
        report = gradient_check(loss, probs, step=1e-6, tol=1e-5)
        assert report.passed, report

    def test_blocks_span_only_live_rows(self, monkeypatch):
        # Forward and backward each form block (a, k), a <= k, over live_a x
        # live_k; N x N blocks would form 2 * 6 * n^2 similarities here.
        sizes = []
        exp_block = losses._exp_block

        def tally(anchors, keys, inv_tau):
            block = exp_block(anchors, keys, inv_tau)
            sizes.append(block.size)
            return block

        monkeypatch.setattr(losses, "_exp_block", tally)
        monkeypatch.setattr(losses, "TILE_ROWS", 16)
        rng = np.random.default_rng(52)
        n, v = 60, 3
        outer, denom = COMPACTION_GATES["outer rows outside the denominator"](rng, n, v)
        infonce_with_grads(rand_feats(rng, n, v, 5), outer, denom, 0.5)
        live = [np.count_nonzero((outer[:, k] > 0) | (denom[:, k] > 0)) for k in range(v)]
        assert max(live) < n
        assert sum(sizes) == 2 * sum(live[a] * live[k] for a in range(v) for k in range(a, v))

    def test_memory_grows_with_tile_not_with_n_squared(self):
        # One 3000 x 3000 float64 block is 69 MiB and the v^2 = 9 blocks of a
        # dense formulation 618 MiB; row tiles keep the peak far below either.
        rng = np.random.default_rng(15)
        n = 3000
        feats = rand_feats(rng, n, 3, 64)
        gate = (rng.random((n, 3)) > 0.3).astype(float)
        tracemalloc.start()
        try:
            infonce_with_grads(feats, gate, gate, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**20, f"peak {peak / 2**20:.0f} MiB"


class TestFullAvailabilityReduction:
    @staticmethod
    def _plain_two_view_infonce(za, zb, tau):
        # Independent unmasked implementation: standard two-view InfoNCE
        # with self-pair removal, averaged over both anchor directions.
        def direction(x, y):
            xn = x / np.linalg.norm(x, axis=1, keepdims=True)
            yn = y / np.linalg.norm(y, axis=1, keepdims=True)
            s_xx = (xn @ xn.T + 1.0) / 2.0
            s_xy = (xn @ yn.T + 1.0) / 2.0
            total = 0.0
            for i in range(x.shape[0]):
                num = np.exp(s_xy[i, i] / tau)
                den = np.exp(s_xx[i] / tau).sum() + np.exp(s_xy[i] / tau).sum() - np.exp(1.0 / tau)
                total -= np.log(num / den)
            return total / x.shape[0]

        return 0.5 * (direction(za, zb) + direction(zb, za))

    def test_reduces_to_standard_infonce(self):
        rng = np.random.default_rng(11)
        n, d, tau = 7, 5, 0.5
        za, zb = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        got = instance_contrastive([Matrix(za), Matrix(zb)], np.ones((n, 2)), tau).loss.item()
        want = self._plain_two_view_infonce(za, zb, tau)
        assert got == pytest.approx(want, abs=1e-10)


class TestLabelContrastive:
    def test_all_labels_hidden_is_zero(self):
        rng = np.random.default_rng(2)
        probs = [Matrix(rng.random((4, 3))) for _ in range(2)]
        v = np.ones((4, 2))
        gate = label_availability_gate(np.zeros((4, 3)), v)
        res = label_contrastive(probs, gate, v, tau=0.5)
        assert res.loss.item() == 0.0

    def test_identical_views_single_sample_contribute_zero(self):
        probs = [Matrix([[0.2, 0.9, 0.4]]), Matrix([[0.2, 0.9, 0.4]])]
        v = np.ones((1, 2))
        gate = label_availability_gate(np.ones((1, 3)), v)
        res = label_contrastive(probs, gate, v, tau=0.5)
        assert res.loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_temperature_invariance_under_uniform_similarities(self):
        # identical rows everywhere: all pairwise similarities equal 1
        row = np.array([[0.3, 0.7]])
        probs = [Matrix(np.repeat(row, 3, axis=0)) for _ in range(2)]
        v = np.ones((3, 2))
        gate = label_availability_gate(np.ones((3, 2)), v)
        a = label_contrastive(probs, gate, v, tau=0.5).loss.item()
        b = label_contrastive(probs, gate, v, tau=1.0).loss.item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_random_instances_match_oracle(self):
        for seed in range(50):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(2, 9))
            v = int(rng.integers(2, 5))
            c = int(rng.integers(2, 6))
            tau = float(rng.uniform(0.2, 1.0))
            probs = [Matrix(rng.random((n, c))) for _ in range(v)]
            view_ind = (rng.random((n, v)) > 0.3).astype(float)
            label_ind = (rng.random((n, c)) > 0.4).astype(float)
            gate = label_availability_gate(label_ind, view_ind)
            got = label_contrastive(probs, gate, view_ind, tau)
            want, skipped = masked_infonce_oracle([p.value for p in probs], gate, view_ind, tau)
            assert got.loss.item() == pytest.approx(want, abs=1e-10)
            assert got.skipped == skipped

    def test_label_denominator_gate_switch(self):
        rng = np.random.default_rng(9)
        probs = [Matrix(rng.random((5, 3))) for _ in range(2)]
        view_ind = np.ones((5, 2))
        label_ind = (rng.random((5, 3)) > 0.5).astype(float)
        gate = label_availability_gate(label_ind, view_ind)
        got = label_contrastive(probs, gate, view_ind, 0.5, denominator_gate="label").loss.item()
        want, _ = masked_infonce_oracle([p.value for p in probs], gate, gate, 0.5)
        assert got == pytest.approx(want, abs=1e-10)
        with pytest.raises(ConfigError):
            label_contrastive(probs, gate, view_ind, 0.5, denominator_gate="bogus")


class TestLabelAvailabilityGate:
    def test_requires_view_and_some_known_label(self):
        view_ind = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        label_ind = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        gate = label_availability_gate(label_ind, view_ind)
        np.testing.assert_array_equal(gate, [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])


class TestClassificationLoss:
    def test_uniform_prediction_gives_ln2(self):
        t = Matrix(np.full((3, 4), 0.5))
        y = (np.random.default_rng(0).random((3, 4)) > 0.5).astype(float)
        got = classification_loss(t, y, np.ones((3, 4))).item()
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_all_masked_is_zero(self):
        t = Matrix(np.full((2, 2), 0.7))
        assert classification_loss(t, np.zeros((2, 2)), np.zeros((2, 2))).item() == 0.0

    def test_hand_case(self):
        t = Matrix([[0.9, 0.2]])
        y = np.array([[1.0, 0.0]])
        got = classification_loss(t, y, np.ones((1, 2))).item()
        assert got == pytest.approx(-(math.log(0.9) + math.log(0.8)) / 2.0, abs=1e-12)
        assert got == pytest.approx(0.16425, abs=1e-5)

    def test_matches_oracle(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n, c = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            t = rng.random((n, c))
            y = (rng.random((n, c)) > 0.5).astype(float)
            w = (rng.random((n, c)) > 0.4).astype(float)
            got = classification_loss(Matrix(t), y, w).item()
            assert got == pytest.approx(bce_oracle(t, y, w), abs=1e-10)

    def test_extreme_scores_are_clipped(self):
        t = Matrix([[0.0, 1.0]])
        y = np.array([[1.0, 0.0]])
        got = classification_loss(t, y, np.ones((1, 2))).item()
        assert math.isfinite(got)

    def test_masked_entry_has_zero_gradient(self):
        rng = np.random.default_rng(4)
        t = Matrix(rng.random((3, 3)))
        y = (rng.random((3, 3)) > 0.5).astype(float)
        w = np.ones((3, 3))
        w[1, 2] = 0.0
        with Tape() as tape:
            loss = classification_loss(t, y, w)
        (grad,) = backward(tape, loss, [t])
        assert grad[1, 2] == 0.0
        assert np.all(grad[w == 1] != 0.0)


class TestTotalLoss:
    def test_zero_weights_reduce_to_classification(self):
        combined, breakdown = total_loss(Matrix(2.5), Matrix(9.0), Matrix(9.0), Matrix(9.0), 0.0, 0.0, 0.0)
        assert combined.item() == 2.5
        assert breakdown.total == 2.5

    def test_all_zero_components(self):
        combined, _ = total_loss(Matrix(0.0), Matrix(0.0), Matrix(0.0), Matrix(0.0), 0.1, 0.2, 0.3)
        assert combined.item() == 0.0

    def test_weighted_arithmetic(self):
        combined, breakdown = total_loss(Matrix(1.0), Matrix(2.0), Matrix(3.0), Matrix(4.0), 0.1, 0.01, 1.0)
        assert combined.item() == pytest.approx(5.23, abs=1e-12)
        assert breakdown.total == combined.item()
        assert (breakdown.alpha, breakdown.beta, breakdown.gamma) == (0.1, 0.01, 1.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            total_loss(Matrix(1.0), Matrix(1.0), Matrix(1.0), Matrix(1.0), -0.1, 0.0, 0.0)


def _breakdown(value, skipped=0, alpha=0.1):
    return LossBreakdown(classification=value, instance_contrast=2 * value,
                         label_contrast=3 * value, reconstruction=4 * value,
                         alpha=alpha, beta=0.2, gamma=0.3, total=5 * value,
                         instance_skipped=skipped, label_skipped=2 * skipped)


class TestLossBreakdown:
    def test_components_are_the_log_columns_in_order(self):
        assert list(_breakdown(1.0).components().items()) == [
            ("loss_recon", 4.0), ("loss_instance", 2.0), ("loss_label", 3.0),
            ("loss_classify", 1.0), ("loss_total", 5.0)]

    def test_single_full_weight_part_is_unchanged_bitwise(self):
        for value in (0.1 + 0.2, -0.0, 1e-300):
            part = _breakdown(value, skipped=3)
            assert repr(LossBreakdown.weighted_mean([(1.0, part)])) == repr(part)

    def test_weighted_mean_of_parts(self):
        mean = LossBreakdown.weighted_mean([(0.25, _breakdown(4.0, 1, alpha=0.5)),
                                            (0.75, _breakdown(8.0, 2, alpha=0.9))])
        assert mean.components() == {"loss_recon": 28.0, "loss_instance": 14.0,
                                     "loss_label": 21.0, "loss_classify": 7.0,
                                     "loss_total": 35.0}
        assert (mean.instance_skipped, mean.label_skipped, mean.alpha) == (3, 6, 0.5)


class TestPermutationEquivariance:
    def test_losses_invariant_under_row_permutation(self):
        rng = np.random.default_rng(21)
        n, v, c, d = 6, 3, 4, 5
        feats = [rng.normal(size=(n, d)) for _ in range(v)]
        probs = [rng.random((n, c)) for _ in range(v)]
        recon = [rng.normal(size=(n, d)) for _ in range(v)]
        masked = [rng.normal(size=(n, d)) for _ in range(v)]
        scores = rng.random((n, c))
        y = (rng.random((n, c)) > 0.5).astype(float)
        view_ind = (rng.random((n, v)) > 0.3).astype(float)
        label_ind = (rng.random((n, c)) > 0.3).astype(float)
        perm = rng.permutation(n)

        def base():
            gate = label_availability_gate(label_ind, view_ind)
            return (
                instance_contrastive([Matrix(f) for f in feats], view_ind, 0.5).loss.item(),
                label_contrastive([Matrix(p) for p in probs], gate, view_ind, 0.5).loss.item(),
                reconstruction_loss([Matrix(r) for r in recon], [Matrix(m) for m in masked], view_ind).item(),
                classification_loss(Matrix(scores), y, label_ind).item(),
            )

        original = base()
        feats = [f[perm] for f in feats]
        probs = [p[perm] for p in probs]
        recon = [r[perm] for r in recon]
        masked = [m[perm] for m in masked]
        scores = scores[perm]
        y = y[perm]
        view_ind = view_ind[perm]
        label_ind = label_ind[perm]
        permuted = base()
        for a, b in zip(original, permuted):
            assert a == pytest.approx(b, abs=1e-10)


class TestGatingCompleteness:
    def test_reconstruction_gradient_gated(self):
        rng = np.random.default_rng(6)
        recon = [Matrix(rng.normal(size=(4, 3)))]
        masked = [Matrix(rng.normal(size=(4, 3)))]
        gate = np.ones((4, 1))
        gate[2, 0] = 0.0
        with Tape() as tape:
            loss = reconstruction_loss(recon, masked, gate)
        (grad,) = backward(tape, loss, [recon[0]])
        assert np.all(grad[2] == 0.0)
        assert np.all(grad[0] != 0.0)

    def test_label_contrastive_gradient_gated(self):
        rng = np.random.default_rng(8)
        probs = [Matrix(rng.random((4, 3))) for _ in range(2)]
        view_ind = np.ones((4, 2))
        label_ind = np.ones((4, 3))
        label_ind[1] = 0.0  # sample 1 has no known labels
        gate = label_availability_gate(label_ind, view_ind)
        with Tape() as tape:
            loss = label_contrastive(probs, gate, gate, 0.5, denominator_gate="label").loss
        grads = backward(tape, loss, probs)
        assert np.all(grads[0][1] == 0.0)
        assert np.all(grads[1][1] == 0.0)
