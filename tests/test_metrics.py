import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmlc.data import csv_text
from mvmlc.errors import ContractError, ValidationError
from mvmlc.metrics import (
    CSV_COLUMNS,
    MetricsReport,
    average_precision,
    check_scorable,
    coverage,
    evaluate_all,
    hamming,
    macro_auc,
    one_error,
    ranking_loss,
)

from oracles import (
    ap_oracle,
    auc_oracle,
    coverage_oracle,
    hamming_oracle,
    one_error_oracle,
    ranking_oracle,
)


def random_instance(rng):
    n = int(rng.integers(2, 21))
    c = int(rng.integers(2, 9))
    # quantized scores generate plenty of ties
    scores = np.round(rng.random((n, c)), 2)
    labels = (rng.random((n, c)) > 0.6).astype(float)
    labels[0, int(rng.integers(c))] = 1.0  # at least one usable sample
    return scores, labels


class TestAveragePrecision:
    def test_perfect_ranking(self):
        scores = np.array([[0.9, 0.8, 0.1], [0.7, 0.2, 0.1]])
        labels = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        assert average_precision(scores, labels) == 1.0

    def test_single_sample_rank_two(self):
        assert average_precision(np.array([[0.2, 0.9]]), np.array([[1.0, 0.0]])) == 0.5

    def test_no_relevant_sample_raises(self):
        with pytest.raises(ContractError):
            average_precision(np.array([[0.2, 0.9]]), np.array([[0.0, 0.0]]))


class TestHamming:
    def test_exact_predictions(self):
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert hamming(labels * 0.8 + 0.1, labels) == 1.0

    def test_all_flipped(self):
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert hamming(0.9 - labels * 0.8, labels) == 0.0


class TestRankingLoss:
    def test_perfect_separation(self):
        scores = np.array([[0.9, 0.8, 0.1]])
        labels = np.array([[1.0, 1.0, 0.0]])
        assert ranking_loss(scores, labels) == 1.0

    def test_fully_inverted(self):
        scores = np.array([[0.1, 0.2, 0.9]])
        labels = np.array([[1.0, 1.0, 0.0]])
        assert ranking_loss(scores, labels) == 0.0

    def test_ties_get_half_credit(self):
        scores = np.full((3, 4), 0.5)
        labels = np.array([[1.0, 0.0, 1.0, 0.0]] * 3)
        assert ranking_loss(scores, labels) == 0.5

    def test_all_degenerate_raises(self):
        with pytest.raises(ContractError):
            ranking_loss(np.array([[0.1, 0.2]]), np.array([[1.0, 1.0]]))


class TestMacroAuc:
    def test_perfect_separation(self):
        scores = np.array([[0.9], [0.8], [0.2], [0.1]])
        labels = np.array([[1.0], [1.0], [0.0], [0.0]])
        assert macro_auc(scores, labels) == 1.0

    def test_constant_scores_give_half(self):
        scores = np.full((6, 2), 0.3)
        labels = (np.arange(12).reshape(6, 2) % 3 == 0).astype(float)
        assert macro_auc(scores, labels) == 0.5

    def test_degenerate_labels_excluded(self):
        scores = np.array([[0.9, 0.4], [0.1, 0.6]])
        labels = np.array([[1.0, 1.0], [0.0, 1.0]])  # label 1 all-positive
        assert macro_auc(scores, labels) == 1.0

    def test_all_degenerate_raises(self):
        with pytest.raises(ContractError):
            macro_auc(np.array([[0.9], [0.1]]), np.array([[1.0], [1.0]]))


class TestOneError:
    def test_top_always_relevant(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert one_error(scores, labels) == 0.0

    def test_top_never_relevant(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        labels = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert one_error(scores, labels) == 1.0


class TestCoverage:
    def test_single_relevant_ranked_first(self):
        scores = np.array([[0.9, 0.5, 0.1]])
        labels = np.array([[1.0, 0.0, 0.0]])
        assert coverage(scores, labels) == 0.0

    def test_relevant_ranked_last(self):
        c = 5
        scores = np.array([[0.9, 0.8, 0.7, 0.6, 0.1]])
        labels = np.array([[0.0, 0.0, 0.0, 0.0, 1.0]])
        assert coverage(scores, labels) == (c - 1) / c

    def test_no_relevant_labels_gives_zero(self):
        assert coverage(np.array([[0.5, 0.4]]), np.array([[0.0, 0.0]])) == 0.0


ORACLES = {
    average_precision: ap_oracle,
    hamming: hamming_oracle,
    ranking_loss: ranking_oracle,
    macro_auc: auc_oracle,
    one_error: one_error_oracle,
    coverage: coverage_oracle,
}


def assert_metrics_match_oracles(scores, labels):
    for metric, oracle in ORACLES.items():
        try:
            want = oracle(scores, labels)
        except ValueError:
            with pytest.raises(ContractError):
                metric(scores, labels)
            continue
        got = metric(scores, labels)
        assert got == pytest.approx(want, abs=1e-12), metric.__name__


def test_all_metrics_match_bruteforce_on_200_instances():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        assert_metrics_match_oracles(*random_instance(rng))


# Shapes the random sweep never draws: (n, c, which scores are all equal).
EDGE_SHAPES = {
    "one label": (12, 1, None),
    "nine labels": (15, 9, None),
    "33 labels": (20, 33, None),
    "one sample": (1, 6, None),
    "one sample, one label": (1, 1, None),
    "equal scores within each row": (10, 7, "row"),
    "equal scores within each label": (10, 7, "label"),
}


@pytest.mark.parametrize("n,c,equal", EDGE_SHAPES.values(), ids=EDGE_SHAPES.keys())
def test_all_metrics_match_bruteforce_on_edge_shapes(n, c, equal):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.random((n, c)), 1)
        labels = (rng.random((n, c)) > 0.5).astype(float)
        if equal == "row":
            scores[:] = scores[:, :1]
        elif equal == "label":
            scores[:] = scores[:1]
        assert_metrics_match_oracles(scores, labels)


def test_tie_heavy_rank_metrics_at_scale_equal_the_oracles_exactly():
    # 2000 samples, scores on a grid of 0.01: every row the rank sort sees
    # is long enough for numpy's vectorized sort, and holds tie groups of
    # ~20 entries.  Label 0's scores are all equal, one tie group of 2000;
    # label 1 is all positive, so macro_auc leaves it out.  The sort's order
    # inside a tie group is not that of a stable sort, and the counts must
    # still be exact.  The sample-label transpose makes the same rows the
    # rows of ranking_loss.  Each mean is over fewer than 8 values, which
    # numpy sums in order, as the oracles do.
    rng = np.random.default_rng(5)
    scores = np.round(rng.random((2000, 6)), 2)
    scores[:, 0] = 0.37
    labels = (rng.random((2000, 6)) > 0.9).astype(float)
    labels[:, 1] = 1.0
    assert macro_auc(scores, labels) == auc_oracle(scores, labels)
    assert ranking_loss(scores.T, labels.T) == ranking_oracle(scores.T, labels.T)


@pytest.mark.parametrize("metric", [ranking_loss, macro_auc], ids=lambda m: m.__name__)
def test_pair_counts_take_memory_linear_in_the_scores(metric):
    # 1000 x 200 scores are 1.5 MiB; one N x C x C pair tensor would be ~300 MiB.
    rng = np.random.default_rng(0)
    scores = np.round(rng.random((1000, 200)), 2)
    labels = (rng.random((1000, 200)) > 0.9).astype(float)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        metric(scores, labels)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, f"{metric.__name__} peaked at {peak / 2 ** 20:.1f} MiB"


def test_ranking_metrics_invariant_under_monotone_transforms():
    rank_metrics = (average_precision, ranking_loss, macro_auc, one_error, coverage)
    rng = np.random.default_rng(99)
    scores, labels = random_instance(rng)
    base = [m(scores, labels) for m in rank_metrics]
    for k in range(50):
        trng = np.random.default_rng(1000 + k)
        a = float(trng.uniform(0.5, 5.0))
        b = float(trng.uniform(-2.0, 2.0))
        kind = k % 3
        if kind == 0:
            transformed = a * scores + b
        elif kind == 1:
            transformed = np.exp(a * scores) + b
        else:
            transformed = (a * scores + b) ** 3 + (a * scores + b)
        got = [m(transformed, labels) for m in rank_metrics]
        assert got == base, f"transform {k} changed a ranking metric"


def test_metrics_invariant_under_row_permutation():
    rng = np.random.default_rng(12)
    scores, labels = random_instance(rng)
    perm = rng.permutation(scores.shape[0])
    for metric in ORACLES:
        assert metric(scores, labels) == pytest.approx(metric(scores[perm], labels[perm]), abs=1e-14)


def test_metrics_invariant_under_label_permutation():
    rng = np.random.default_rng(13)
    scores, labels = random_instance(rng)
    perm = rng.permutation(scores.shape[1])
    for metric in ORACLES:
        assert metric(scores, labels) == pytest.approx(
            metric(scores[:, perm], labels[:, perm]), abs=1e-14)


class TestEvaluateAll:
    def test_perfect_predictor(self):
        rng = np.random.default_rng(5)
        labels = (rng.random((10, 4)) > 0.5).astype(float)
        labels[labels.sum(axis=1) == 0, 0] = 1.0
        scores = labels * 0.8 + 0.1
        report = evaluate_all(scores, labels)
        assert report.ap == 1.0
        assert report.one_minus_hl == 1.0
        assert report.one_minus_rl == 1.0
        assert report.auc == 1.0
        assert report.oe == 0.0
        expected_cov = float(np.mean((labels.sum(axis=1) - 1) / 4))
        assert report.cov == pytest.approx(expected_cov, abs=1e-14)

    def test_fields_within_ranges(self):
        rng = np.random.default_rng(3)
        scores, labels = random_instance(rng)
        report = evaluate_all(scores, labels, seed=1, epoch=2)
        for name in ("ap", "one_minus_hl", "one_minus_rl", "auc", "oe", "cov"):
            assert 0.0 <= getattr(report, name) <= 1.0
        assert report.n_samples == scores.shape[0]

    def test_out_of_range_metric_rejected(self):
        with pytest.raises(ContractError):
            MetricsReport(ap=1.2, one_minus_hl=1.0, one_minus_rl=1.0, auc=1.0,
                          oe=0.0, cov=0.0, n_samples=1, n_labels=1)

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(4)
        scores, labels = random_instance(rng)
        report = evaluate_all(scores, labels, seed=7, epoch=3)
        text = report.to_text()
        assert f"ap {report.ap!r}" in text
        row = report.csv_row()
        assert row[0] == report.ap
        assert CSV_COLUMNS[0] == "ap"

    def test_numpy_floats_print_plain(self):
        # Under numpy 2, repr(np.float64(0.5)) is "np.float64(0.5)".
        report = MetricsReport(ap=np.float64(0.5), one_minus_hl=np.float64(0.25), one_minus_rl=1.0,
                               auc=np.float64(0.1), oe=0.0, cov=np.float64(1 / 3),
                               n_samples=np.int64(4), n_labels=2, seed=None, epoch=np.int64(1))
        assert report.to_text().startswith("ap 0.5\none_minus_hl 0.25\n")
        assert "epoch 1\n" in report.to_text()
        assert csv_text([report.csv_row()]) == "0.5,0.25,1.0,0.1,0.0,0.3333333333333333,4,2,,1\n"

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValidationError, match=r"^scores \(2, 3\) and labels \(3, 2\) must be "
                                                  r"equal 2-D shapes$"):
            evaluate_all(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ValidationError):
            evaluate_all(np.array([[0.5]]), np.array([[0.4]]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_scores_rejected(self, bad):
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        scores[1, 0] = bad
        with pytest.raises(ContractError, match="finite"):
            evaluate_all(scores, labels)


def _refusal(fn, *args):
    try:
        fn(*args)
    except (ContractError, ValidationError) as exc:
        return type(exc), str(exc)
    return None


class TestCheckScorable:
    @settings(max_examples=300, deadline=None)
    @given(shape=st.tuples(st.integers(1, 7), st.integers(1, 11)), data=st.data())
    def test_refuses_what_scoring_every_row_refuses(self, shape, data):
        # Past 8 labels a row packs into more than one byte.
        cells = data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=shape[0] * shape[1],
                                   max_size=shape[0] * shape[1]))
        labels = np.array(cells).reshape(shape)
        expected = _refusal(evaluate_all, np.zeros_like(labels), labels)
        known = np.ones_like(labels)
        assert _refusal(check_scorable, labels, known) == expected
        assert _refusal(check_scorable, labels[::-1], known) == expected

    @pytest.mark.parametrize("labels,message", [
        ([[0.0, 0.0], [0.0, 0.0]], "average_precision: no sample has a relevant label"),
        ([[1.0], [0.0]], "ranking_loss: every sample is degenerate"),
        ([[1.0, 0.0], [1.0, 0.0]], "macro_auc: every label is degenerate"),
    ])
    def test_names_the_metric_that_refuses(self, labels, message):
        with pytest.raises(ContractError, match=f"^{message}$"):
            check_scorable(np.array(labels), np.ones_like(labels))

    def test_a_row_that_differs_past_its_first_label_byte_is_kept(self):
        # Only the ninth label tells these rows apart, and only the second
        # row has a relevant label.
        labels = np.zeros((3, 9))
        labels[1, 8] = 1.0
        check_scorable(labels, np.ones_like(labels))
        check_scorable(labels[::-1], np.ones_like(labels))

    def test_checks_the_labels_as_evaluate_all_does(self):
        with pytest.raises(ValidationError, match="labels must be binary"):
            check_scorable(np.array([[0.5, 1.0]]), np.ones((1, 2)))
        check_scorable(np.array([[1.0, 0.0], [0.0, 1.0]]), np.ones((2, 2)))

    def test_unknown_labels_refused_before_the_metrics(self):
        # evaluate_all would read a hidden label's stored 0 as a negative,
        # so the set is refused however the metrics would take its labels.
        labels = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        known = np.ones_like(labels)
        known[0, 1] = known[2, 0] = 0.0
        with pytest.raises(ContractError, match="^2 of its 6 labels are unknown, and the "
                                                "metrics would count them as negatives$"):
            check_scorable(labels, known)
        with pytest.raises(ContractError, match="^1 of its 2 labels are unknown"):
            # counted before ranking_loss refuses the one label
            check_scorable(np.array([[1.0]] * 2), np.array([[1.0], [0.0]]))

    def test_indicator_of_another_shape_refused(self):
        with pytest.raises(ContractError, match=r"^label indicator \(2, 3\) and labels \(2, 2\)"):
            check_scorable(np.eye(2), np.ones((2, 3)))
