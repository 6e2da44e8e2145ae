import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvmlc.losses as losses
from mvmlc.errors import ConfigError, ShapeError
from mvmlc.losses import (
    LossBreakdown,
    classification_loss,
    instance_contrastive,
    label_availability_gate,
    label_contrastive,
    reconstruction_loss,
    total_loss,
)
from mvmlc.numerics import Matrix, Tape, backward
from mvmlc.train import TAU_MIN

from oracles import bce_oracle, gradient_check, masked_infonce_oracle, reconstruction_oracle


def rand_feats(rng, n, v, d):
    return [Matrix(rng.normal(size=(n, d))) for _ in range(v)]


class TestCosineSim01:
    """The [0,1]-mapped cosine of the contrastive blocks: unit rows from
    ``unit_rows``, then exp((sim01 - 1) / tau) from the one tile ``_tiles``
    forms over fewer than ``TILE_ROWS`` rows."""

    @staticmethod
    def only_tile(unit, tau):
        (rows, cols, block), = losses._tiles(unit, 0.5 / tau)
        assert rows == cols == slice(0, len(unit))
        return block

    @classmethod
    def sim01(cls, a, b):
        unit, _ = losses.unit_rows(np.array([a, b], dtype=np.float64))
        return 1.0 + math.log(cls.only_tile(unit, 1.0)[0, 1])

    @pytest.mark.parametrize("tau", [1.0, 0.5, 0.05])
    def test_block_matches_the_four_pass_form(self, tau):
        # The shift by -1/tau happens inside the product; the former form
        # mapped the cosine to [0, 1], shifted and scaled it in four passes.
        rng = np.random.default_rng(17)
        unit, _ = losses.unit_rows(rng.normal(size=(40, 6)))
        unit[3] = 0.0  # a zero row: every exponent is exactly -0.5/tau
        want = unit @ unit.T
        want += 1.0
        want *= 0.5
        want -= 1.0
        want *= 1.0 / tau
        np.exp(want, out=want)
        np.testing.assert_allclose(self.only_tile(unit, tau), want, rtol=1e-14, atol=0)

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
    """The contrastive core is one primitive with a hand-written VJP.  It
    stacks every view's live rows into one matrix and forms their symmetric
    exponentials in square losses.TILE_ROWS tiles on or above the diagonal,
    so tiles may straddle view boundaries."""

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
            return label_contrastive(list(p), gate, gate, 0.5).loss

        want, _ = masked_infonce_oracle([p.value for p in probs], gate, gate, 0.5)
        assert abs(loss(probs).item() - want) <= 1e-10
        report = gradient_check(loss, probs, step=1e-6, tol=1e-5)
        assert report.passed, report

    def test_blocks_span_only_live_rows(self, monkeypatch):
        # Forward and backward each form the tiles on or above the diagonal of
        # the L x L matrix of stacked live rows: 2 * sum over tile pairs
        # (cols >= rows) of |rows| * |cols|.  N x N blocks per view pair would
        # form 2 * 6 * n^2 similarities here, and every tile pair 2 * L^2.
        sizes = []
        exp_block = losses._exp_block

        def tally(anchors, keys):
            block = exp_block(anchors, keys)
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
        tiles = [min(16, sum(live) - lo) for lo in range(0, sum(live), 16)]
        assert len(tiles) > 2 and tiles[-1] < 16
        assert sum(sizes) == 2 * sum(tiles[i] * tiles[j]
                                     for i in range(len(tiles)) for j in range(i, len(tiles)))

    @pytest.mark.parametrize("n", [0, 1, 4, 5, 11], ids=["0", "1", "T", "T+1", "2T+3"])
    def test_tile_pairs_cover_the_upper_triangle_once(self, monkeypatch, n):
        monkeypatch.setattr(losses, "TILE_ROWS", 4)
        covered = np.zeros((n, n), dtype=int)
        band = None
        for rows, cols, block in losses._tiles(np.zeros((n, 1)), 1.0):
            if rows != band:  # each row band starts with its diagonal tile
                assert cols == rows and (band is None or band.stop == rows.start)
                band = rows
            assert rows == cols or rows.stop <= cols.start  # on or above the diagonal
            assert rows.stop - rows.start <= 4 and cols.stop - cols.start <= 4
            assert block.shape == (rows.stop - rows.start, cols.stop - cols.start)
            covered[rows, cols] += 1
        np.testing.assert_array_equal(covered[np.triu_indices(n)], 1)

    def test_tiles_straddling_views_around_a_view_without_live_rows(self, monkeypatch):
        # Live counts 4, 0 and 7 stack into 11 rows; tiles of 3 rows put rows
        # of views 0 and 2 in one tile, on and off the diagonal.
        monkeypatch.setattr(losses, "TILE_ROWS", 3)
        rng = np.random.default_rng(53)
        n, v = 9, 3
        outer, denom = np.zeros((n, v)), np.zeros((n, v))
        outer[[0, 2, 5], 0] = 1.0
        denom[[0, 2, 5, 7], 0] = 1.0
        outer[[0, 1, 2, 3, 5, 6, 8], 2] = 1.0
        denom[[0, 1, 3, 5, 6, 8], 2] = 1.0
        feats = rand_feats(rng, n, v, 4)
        res, grads = infonce_with_grads(feats, outer, denom, 0.5)
        want, skipped = masked_infonce_oracle([f.value for f in feats], outer, denom, 0.5)
        assert abs(res.loss.item() - want) <= 1e-10
        assert res.skipped == skipped
        assert res.loss.item() != 0.0
        np.testing.assert_array_equal(grads[1], 0.0)
        report = gradient_check(lambda p: losses._masked_infonce(list(p), outer, denom, 0.5).loss,
                                feats, step=1e-6, tol=1e-5)
        assert report.passed, report

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


def logsumexp_instance_contrast(feats, gate, tau):
    """The instance contrast by log-sum-exp over each anchor's keys, the
    anchor itself left out of its sum rather than added and subtracted;
    exact to a few ulps while some key of every anchor stays representable.
    Also returns the log of the smallest such sum (inf with no anchor)."""
    units = [f / np.linalg.norm(f, axis=1, keepdims=True) for f in feats]
    n, v = gate.shape
    total, smallest = 0.0, np.inf
    for a in range(v):
        for b in range(v):
            if a == b:
                continue
            # exponents (sim01 - 1) / tau of every anchor of view a
            own = ((units[a] @ units[a].T + 1.0) * 0.5 - 1.0) / tau
            other = ((units[a] @ units[b].T + 1.0) * 0.5 - 1.0) / tau
            own[:, gate[:, a] == 0] = -np.inf
            other[:, gate[:, b] == 0] = -np.inf
            np.fill_diagonal(own, -np.inf)
            anchors = gate[:, a] * gate[:, b] > 0
            if not anchors.any():
                continue
            keys = np.hstack([own, other])[anchors]
            top = keys.max(axis=1, keepdims=True)
            log_denom = top[:, 0] + np.log(np.exp(keys - top).sum(axis=1))
            total += np.sum(np.diag(other)[anchors] - log_denom)
            smallest = min(smallest, log_denom.min())
    return -0.5 * total / n, smallest


class TestSmallTemperature:
    """Below tau ~ 0.01 an anchor's other keys can sum to far less than one
    ulp of 1, so the self-pair must cancel before the sum, not after it."""

    @pytest.mark.parametrize("tau", [0.01, 0.005, 0.002])
    def test_matches_log_sum_exp_with_no_anchor_skipped(self, tau):
        rng = np.random.default_rng(61)
        n, v, d = 150, 3, 16
        gate = (rng.random((n, v)) > 0.4).astype(float)
        none = gate.sum(axis=1) == 0
        gate[none, rng.integers(v, size=int(none.sum()))] = 1.0
        assert 0.3 < 1.0 - gate.mean() < 0.45
        feats = rand_feats(rng, n, v, d)
        res = instance_contrastive(feats, gate, tau)
        want, smallest = logsumexp_instance_contrast([f.value for f in feats], gate, tau)
        assert res.skipped == 0
        assert abs(res.loss.item() - want) <= 1e-12 * abs(want)
        if tau == TAU_MIN:  # some anchor's other keys sum to ~5.9e-60
            assert math.exp(smallest) < np.spacing(1.0)

    @pytest.mark.parametrize("tau", [0.01, 0.002])
    def test_gradients_match_finite_differences(self, tau):
        rng = np.random.default_rng(62)
        gate = np.ones((6, 3))
        gate[0, 1] = gate[3, 2] = 0.0
        report = gradient_check(lambda p: instance_contrastive(list(p), gate, tau).loss,
                                rand_feats(rng, 6, 3, 4), step=1e-6, tol=1e-5)
        assert report.passed, report


@st.composite
def floor_cases(draw):
    """Instance features and a 0/1 view gate at which every sample is
    observed in some view; some rows copy or negate a row of view 0, and
    rows may be 1 wide, so identical and antipodal pairs meet across views."""
    n, v, d = draw(st.integers(1, 12)), draw(st.integers(2, 4)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    feats = [rng.normal(size=(n, d)) for _ in range(v)]
    for k in range(1, v):
        for i in range(n):
            kind = rng.integers(3)  # 0: independent, 1: a copy, 2: an antipode
            if kind:
                feats[k][i] = (1.0 if kind == 1 else -1.0) * feats[0][rng.integers(n)]
    gate = (rng.random((n, v)) > 0.4).astype(float)
    none = gate.sum(axis=1) == 0
    gate[none, rng.integers(v, size=int(none.sum()))] = 1.0
    return feats, gate


class TestTemperatureFloor:
    """At ``TAU_MIN`` every exponent is at least -500: no exponential
    underflows and the backward has headroom.  Below it, and at NaN, the
    losses refuse the temperature."""

    @pytest.mark.parametrize("seed", range(4))
    def test_antipodal_key_at_the_floor_is_finite(self, seed):
        # One sample, two views, each row the other's antipode: each anchor's
        # only key besides itself has the smallest exponent, -1/tau.
        u = np.random.default_rng(seed).normal(size=(1, 2 + seed))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res, grads = infonce_with_grads([Matrix(u), Matrix(-u)], np.ones((1, 2)),
                                            np.ones((1, 2)), TAU_MIN)
        assert res.skipped == 0 and math.isfinite(res.loss.item())
        assert all(np.isfinite(g).all() for g in grads)

    @pytest.mark.parametrize("tau", [np.nextafter(TAU_MIN, 0.0), 1.45e-3, 1.42e-3, 1e-3, 1e-16,
                                     3e-19, 0.0, -0.5, math.nan])
    def test_temperature_below_the_floor_is_refused(self, tau):
        u = np.random.default_rng(0).normal(size=(1, 3))
        feats, gate = [Matrix(u), Matrix(-u)], np.ones((1, 2))
        calls = {
            "core": lambda t: losses._masked_infonce(feats, gate, gate, t),
            "instance": lambda t: instance_contrastive(feats, gate, t),
            "label": lambda t: label_contrastive(feats, gate, gate, t),
        }
        for name, call in calls.items():
            with pytest.raises(ConfigError, match=f"^temperature must be >= {TAU_MIN}, got "):
                call(tau)
            assert call(TAU_MIN).skipped == 0, name

    @given(floor_cases())
    @settings(max_examples=200)
    def test_no_anchor_is_skipped_at_the_floor(self, case):
        # With 0/1 gates every other key adds at least e^-500 to a denominator.
        feats, gate = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = instance_contrastive([Matrix(f) for f in feats], gate, TAU_MIN)
        want, _ = logsumexp_instance_contrast(feats, gate, TAU_MIN)
        assert res.skipped == 0
        assert abs(res.loss.item() - want) <= 1e-12 * max(abs(want), 1.0)

    @staticmethod
    def _zero_rows():
        # All rows zero: every similarity is 0.5, and the self-pair's exact
        # term exp(-1/(2 tau)) is no 1 to cancel.
        return [Matrix(np.zeros((3, 4))) for _ in range(2)], np.ones((3, 2)), np.ones((3, 2))

    @staticmethod
    def _own_gate_off():
        # Label-gate style: both anchors of sample 0 are weighted, but only
        # sample 1's view-0 row is a key, so their sums hold no self-pair.
        rng = np.random.default_rng(3)
        denom = np.zeros((2, 2))
        denom[1, 0] = 1.0
        return rand_feats(rng, 2, 2, 4), np.ones((2, 2)), denom

    @staticmethod
    def _lone_key():
        # The anchor's own row is the only gated key over both views.
        rng = np.random.default_rng(4)
        denom = np.array([[1.0, 0.0]])
        return rand_feats(rng, 1, 2, 4), np.ones((1, 2)), denom

    @staticmethod
    def _random(n=200, v=3, d=16, missing=0.4, seed=7):
        rng = np.random.default_rng(seed)
        gate = (rng.random((n, v)) > missing).astype(float)
        none = gate.sum(axis=1) == 0
        gate[none, rng.integers(v, size=int(none.sum()))] = 1.0
        return rand_feats(rng, n, v, d), gate, gate

    @pytest.mark.parametrize("case,skipped", [("zero rows", 6), ("own gate off", 4),
                                              ("lone key", 2)])
    def test_structural_zeros_are_skipped(self, case, skipped):
        feats, outer, denom = {"zero rows": self._zero_rows, "own gate off": self._own_gate_off,
                               "lone key": self._lone_key}[case]()
        assert losses._masked_infonce(feats, outer, denom, TAU_MIN).skipped == skipped

    def test_non_finite_denominator_is_no_skip(self):
        # A diverging run's NaN features are left to the loss-component check.
        feats, outer, denom = self._random(n=20)
        feats[0].value[3, 0] = np.nan
        with np.errstate(invalid="ignore"):
            res = losses._masked_infonce(feats, outer, denom, TAU_MIN)
        assert math.isnan(res.loss.item()) and res.skipped == 0


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

    def test_gates_of_other_rows_refused(self):
        probs = [Matrix(np.full((3, 2), 0.5)) for _ in range(2)]
        with pytest.raises(ShapeError, match=r"^gates must be \(3, 2\), got \(4, 2\) and \(4, 2\)$"):
            label_contrastive(probs, np.ones((4, 2)), np.ones((4, 2)), tau=0.5)

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
        got = label_contrastive(probs, gate, gate, 0.5).loss.item()
        want, _ = masked_infonce_oracle([p.value for p in probs], gate, gate, 0.5)
        assert got == pytest.approx(want, abs=1e-10)


class TestLabelAvailabilityGate:
    def test_requires_view_and_some_known_label(self):
        view_ind = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        label_ind = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        gate = label_availability_gate(label_ind, view_ind)
        np.testing.assert_array_equal(gate, [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])


def _close(a, b):
    # The absolute floor is for a loss that cancels to about zero: its
    # rounding residue can change sign with the order of the sums.
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b)) + 1e-15


def _contrast_terms(feats, probs, view_ind, label_ind, tau):
    """(loss, skipped) of the instance term and of the label term with the
    view and with the label-gate denominator."""
    feats, probs = [Matrix(f) for f in feats], [Matrix(p) for p in probs]
    gate = label_availability_gate(label_ind, view_ind)
    results = (instance_contrastive(feats, view_ind, tau),
               label_contrastive(probs, gate, view_ind, tau),
               label_contrastive(probs, gate, gate, tau))
    return [(r.loss.item(), r.skipped) for r in results]


def _assert_same_terms(got, want):
    for (a, skipped_a), (b, skipped_b) in zip(got, want, strict=True):
        assert _close(a, b), (a, b)
        assert skipped_a == skipped_b


# n samples, v views, a temperature and the seed of the arrays.
contrast_cases = st.tuples(st.integers(1, 40), st.integers(2, 4), st.floats(0.2, 1.0),
                           st.integers(0, 2 ** 32 - 1))


def _draw_terms_input(n, v, seed):
    """Instance features, label probabilities, both indicators, and the
    generator that drew them."""
    rng = np.random.default_rng(seed)
    d, c = int(rng.integers(1, 6)), int(rng.integers(1, 5))
    feats = [rng.normal(size=(n, d)) for _ in range(v)]
    probs = [rng.random((n, c)) for _ in range(v)]
    view_ind = (rng.random((n, v)) > 0.3).astype(float)
    label_ind = (rng.random((n, c)) > 0.4).astype(float)
    return feats, probs, view_ind, label_ind, rng


class TestContrastiveInvariance:
    """Both contrastive terms treat samples and views as unordered sets and
    see a feature row only through its direction."""

    @given(contrast_cases)
    def test_permuting_samples_with_their_gates(self, case):
        n, v, tau, seed = case
        feats, probs, view_ind, label_ind, rng = _draw_terms_input(n, v, seed)
        perm = rng.permutation(n)
        _assert_same_terms(
            _contrast_terms([f[perm] for f in feats], [p[perm] for p in probs],
                            view_ind[perm], label_ind[perm], tau),
            _contrast_terms(feats, probs, view_ind, label_ind, tau))

    @given(contrast_cases)
    def test_permuting_views(self, case):
        n, v, tau, seed = case
        feats, probs, view_ind, label_ind, rng = _draw_terms_input(n, v, seed)
        perm = rng.permutation(v)
        _assert_same_terms(
            _contrast_terms([feats[k] for k in perm], [probs[k] for k in perm],
                            view_ind[:, perm], label_ind, tau),
            _contrast_terms(feats, probs, view_ind, label_ind, tau))

    @given(contrast_cases)
    def test_scaling_rows_by_positive_factors(self, case):
        n, v, tau, seed = case
        feats, probs, view_ind, label_ind, rng = _draw_terms_input(n, v, seed)
        scale = rng.uniform(0.25, 4.0, size=(n, v))
        _assert_same_terms(
            _contrast_terms([f * scale[:, k:k + 1] for k, f in enumerate(feats)],
                            [p * scale[:, k:k + 1] for k, p in enumerate(probs)],
                            view_ind, label_ind, tau),
            _contrast_terms(feats, probs, view_ind, label_ind, tau))

    @given(contrast_cases)
    def test_appending_a_view_missing_everywhere(self, case):
        n, v, tau, seed = case
        feats, probs, view_ind, label_ind, rng = _draw_terms_input(n, v, seed)
        extra_feats = rng.normal(size=feats[0].shape)
        extra_probs = rng.random(probs[0].shape)
        wider = np.hstack([view_ind, np.zeros((n, 1))])
        _assert_same_terms(
            _contrast_terms(feats + [extra_feats], probs + [extra_probs], wider, label_ind, tau),
            _contrast_terms(feats, probs, view_ind, label_ind, tau))
        # Reconstruction is a mean over the view count: the missing view adds
        # nothing to the sum, so the mean scales by v / (v + 1).
        recon = [Matrix(f) for f in feats]
        inputs = [Matrix(f * 0.5) for f in feats]
        narrow = reconstruction_loss(recon, inputs, view_ind).item()
        appended = reconstruction_loss(recon + [Matrix(extra_feats)],
                                       inputs + [Matrix(np.zeros_like(extra_feats))], wider).item()
        assert _close(appended * (v + 1), narrow * v)


class TestClassificationLoss:
    def test_uniform_prediction_gives_ln2(self):
        t = Matrix(np.full((3, 4), 0.5))
        y = (np.random.default_rng(0).random((3, 4)) > 0.5).astype(float)
        got = classification_loss(t, y, np.ones((3, 4))).item()
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_mismatched_shapes_refused(self):
        with pytest.raises(ShapeError, match=r"^scores \(2, 3\), labels \(2, 3\) and gate "
                                             r"\(3, 2\) must match$"):
            classification_loss(Matrix(np.full((2, 3), 0.5)), np.zeros((2, 3)), np.ones((3, 2)))

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
        assert (breakdown.classification, breakdown.instance_contrast,
                breakdown.label_contrast, breakdown.reconstruction) == (1.0, 2.0, 3.0, 4.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            total_loss(Matrix(1.0), Matrix(1.0), Matrix(1.0), Matrix(1.0), -0.1, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 10 ** 400],
                             ids=["nan", "inf", "int-past-float-range"])
    @pytest.mark.parametrize("slot", range(3))
    def test_non_finite_weight_rejected(self, bad, slot):
        # NaN >= 0 is False too, so only a finiteness check refuses it; an
        # integer past the float range made math.isfinite raise OverflowError.
        weights = [0.0, 0.0, 0.0]
        weights[slot] = bad
        with pytest.raises(ConfigError, match="must be finite and >= 0"):
            total_loss(Matrix(1.0), Matrix(1.0), Matrix(1.0), Matrix(1.0), *weights)


def _breakdown(value, skipped=0):
    return LossBreakdown(classification=value, instance_contrast=2 * value,
                         label_contrast=3 * value, reconstruction=4 * value,
                         total=5 * value, instance_skipped=skipped, label_skipped=2 * skipped)


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
        mean = LossBreakdown.weighted_mean([(0.25, _breakdown(4.0, 1)),
                                            (0.75, _breakdown(8.0, 2))])
        assert mean.components() == {"loss_recon": 28.0, "loss_instance": 14.0,
                                     "loss_label": 21.0, "loss_classify": 7.0,
                                     "loss_total": 35.0}
        assert (mean.instance_skipped, mean.label_skipped) == (3, 6)


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
            loss = label_contrastive(probs, gate, gate, 0.5).loss
        grads = backward(tape, loss, probs)
        assert np.all(grads[0][1] == 0.0)
        assert np.all(grads[1][1] == 0.0)
