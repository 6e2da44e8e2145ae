import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvmlc import data
from mvmlc.data import (
    VIEW_MAX,
    MaskBank,
    MultiViewDataset,
    apply_indicators,
    apply_input_mask,
    csv_text,
    generate_indicators,
    load_dataset,
    save_dataset,
    split,
    synth_dataset,
    write_matrix_csv,
)
from mvmlc.errors import ConfigError, ShapeError, ValidationError
from mvmlc.train import TrainConfig, train

from manifests import malformed_npy, npy_bytes, write_csv_manifest


def tiny_dataset(n=6, v=2, c=3, seed=0):
    return synth_dataset(n, v, c, dims=(4, 5), noise=0.1, seed=seed)


class TestMaskBank:
    def test_zero_ratio_is_all_ones(self):
        bank = MaskBank.generate(5, (4, 7), 0.0, seed=1)
        for m in bank.masks:
            np.testing.assert_array_equal(m, np.ones_like(m))

    def test_single_wrapping_zero_run(self):
        bank = MaskBank.generate(200, (10,), 0.3, seed=3)
        mask = bank.masks[0]
        span = round(0.3 * 10)
        for row in mask:
            zero_pos = np.flatnonzero(row == 0)
            assert len(zero_pos) == span
            # circularly contiguous: consecutive positions differ by 1
            # except at most one wrap point
            gaps = np.diff(np.concatenate([zero_pos, [zero_pos[0] + 10]]))
            assert (gaps != 1).sum() <= 1

    def test_deterministic(self):
        a = MaskBank.generate(8, (5, 6), 0.4, seed=9)
        b = MaskBank.generate(8, (5, 6), 0.4, seed=9)
        for x, y in zip(a.masks, b.masks):
            np.testing.assert_array_equal(x, y)

    def test_ratio_range(self):
        with pytest.raises(ConfigError):
            MaskBank.generate(4, (3,), 1.0, seed=0)


class TestApplyInputMask:
    def test_all_ones_identity(self):
        ds = tiny_dataset()
        bank = MaskBank.generate(ds.n_samples, ds.view_dims, 0.0, seed=0)
        masked = apply_input_mask(ds, bank)
        for x, v in zip(masked, ds.views):
            np.testing.assert_array_equal(x, v)

    def test_all_zeros(self):
        ds = tiny_dataset()
        bank = MaskBank.generate(ds.n_samples, ds.view_dims, 0.0, seed=0)
        bank.masks = [np.zeros_like(m) for m in bank.masks]
        for x in apply_input_mask(ds, bank):
            np.testing.assert_array_equal(x, np.zeros_like(x))

    def test_elementwise_definition(self):
        ds = MultiViewDataset(
            views=[np.array([[1.0, 2.0, 3.0, 4.0]])],
            labels=np.array([[1.0]]),
            view_indicator=np.ones((1, 1)),
            label_indicator=np.ones((1, 1)),
        )
        bank = MaskBank(masks=[np.array([[1.0, 0.0, 0.0, 1.0]])])
        np.testing.assert_array_equal(apply_input_mask(ds, bank)[0], [[1.0, 0.0, 0.0, 4.0]])

    def test_idempotent_under_reapplication(self):
        ds = tiny_dataset()
        bank = MaskBank.generate(ds.n_samples, ds.view_dims, 0.4, seed=5)
        once = apply_input_mask(ds, bank)
        ds2 = MultiViewDataset(views=once, labels=ds.labels,
                               view_indicator=ds.view_indicator,
                               label_indicator=ds.label_indicator)
        twice = apply_input_mask(ds2, bank)
        for a, b in zip(once, twice):
            np.testing.assert_array_equal(a, b)

    def test_shape_mismatch(self):
        ds = tiny_dataset()
        bank = MaskBank.generate(ds.n_samples + 1, ds.view_dims, 0.2, seed=0)
        with pytest.raises(ShapeError):
            apply_input_mask(ds, bank)


class TestGenerateIndicators:
    def test_zero_ratio_all_ones(self):
        v, w = generate_indicators(10, 3, 4, 0.0, 0.0, seed=0)
        np.testing.assert_array_equal(v, np.ones((10, 3)))
        np.testing.assert_array_equal(w, np.ones((10, 4)))

    def test_exact_counts_and_coverage(self):
        v, w = generate_indicators(4, 2, 3, 0.5, 0.5, seed=11)
        assert (v == 0).sum() == 4
        assert np.all(v.sum(axis=1) >= 1)
        assert (w == 0).sum() == round(0.5 * 4 * 3)

    def test_large_case_no_uncovered_rows(self):
        v, _ = generate_indicators(600, 3, 6, 0.5, 0.5, seed=2)
        assert (v == 0).sum() == round(0.5 * 600 * 3)
        assert np.all(v.sum(axis=1) >= 1)

    def test_deterministic(self):
        a = generate_indicators(20, 3, 5, 0.4, 0.3, seed=7)
        b = generate_indicators(20, 3, 5, 0.4, 0.3, seed=7)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_unsatisfiable_ratio(self):
        with pytest.raises(ConfigError):
            generate_indicators(10, 1, 3, 0.5, 0.0, seed=0)
        with pytest.raises(ConfigError):
            generate_indicators(10, 2, 3, 0.9, 0.0, seed=0)


class TestSynthDataset:
    def test_linear_probe_recovers_labels_when_noise_free(self):
        ds = synth_dataset(50, 3, 4, dims=(6, 5, 7), noise=0.0, seed=1)
        x = np.hstack(ds.views + [np.ones((50, 1))])
        coef, *_ = np.linalg.lstsq(x, ds.labels, rcond=None)
        pred = (x @ coef >= 0.5).astype(float)
        assert np.array_equal(pred, ds.labels)

    def test_deterministic(self):
        a = synth_dataset(20, 2, 3, dims=4, noise=0.2, seed=5)
        b = synth_dataset(20, 2, 3, dims=4, noise=0.2, seed=5)
        for x, y in zip(a.views, b.views):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_single_label_is_all_ones(self):
        ds = synth_dataset(15, 2, 1, dims=3, seed=0)
        np.testing.assert_array_equal(ds.labels, np.ones((15, 1)))

    def test_label_cardinality(self):
        ds = synth_dataset(200, 2, 6, dims=4, seed=3)
        counts = ds.labels.sum(axis=1)
        assert counts.min() >= 1 and counts.max() <= 3

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -0.1, 1e70,
                                       sys.float_info.max])
    def test_invalid_noise_rejected(self, noise):
        with pytest.raises(ConfigError, match="noise"):
            synth_dataset(5, 2, 2, dims=3, noise=noise, seed=0)


class TestSplit:
    def test_counts(self):
        ds = tiny_dataset(n=10)
        train, test = split(ds, 0.7, seed=0)
        assert train.n_samples == 7 and test.n_samples == 3

    def test_partition_is_disjoint_and_complete(self):
        ds = synth_dataset(30, 2, 3, dims=(4, 4), noise=0.3, seed=2)
        train, test = split(ds, 0.6, seed=4)
        combined = np.vstack([train.views[0], test.views[0]])
        assert combined.shape[0] == 30
        orig = {tuple(r) for r in ds.views[0]}
        assert {tuple(r) for r in combined} == orig

    def test_deterministic(self):
        ds = tiny_dataset(n=12)
        a = split(ds, 0.5, seed=3)
        b = split(ds, 0.5, seed=3)
        np.testing.assert_array_equal(a[0].labels, b[0].labels)

    def test_empty_split_rejected(self):
        ds = tiny_dataset(n=6)
        with pytest.raises(ConfigError):
            split(ds, 0.01, seed=0)
        with pytest.raises(ConfigError):
            split(ds, 1.5, seed=0)


class TestApplyIndicators:
    def test_zero_fill_enforced(self):
        # The views hold negative values, so hidden cells are -0.0; the input
        # is left bitwise unchanged, its own missingness included.
        vi, wi = np.ones((8, 2)), np.ones((8, 3))
        vi[[0, 1], 0] = vi[6, 1] = wi[[0, 3], [2, 1]] = 0.0
        ds = apply_indicators(tiny_dataset(n=8), vi, wi)
        before = [x.tobytes() for x in ds.views + [ds.labels, ds.view_indicator,
                                                   ds.label_indicator]]
        v, w = np.ones((8, 2)), generate_indicators(8, 2, 3, 0.0, 0.3, seed=1)[1]
        v[[2, 3], 0] = v[[4, 5], 1] = 0.0
        out = apply_indicators(ds, v, w)
        composed_v, composed_w = ds.view_indicator * v, ds.label_indicator * w
        for m in range(out.n_views):
            rows = out.view_indicator[:, m] == 0
            assert np.all(out.views[m][rows] == 0)
            assert out.views[m].tobytes() == (ds.views[m] * composed_v[:, m:m + 1]).tobytes()
        assert np.all(out.labels[out.label_indicator == 0] == 0)
        assert out.labels.tobytes() == (ds.labels * composed_w).tobytes()
        assert any(np.signbit(x[x == 0]).any() for x in out.views)
        assert out.view_indicator.tobytes() == composed_v.tobytes()
        assert out.label_indicator.tobytes() == composed_w.tobytes()
        assert [x.tobytes() for x in ds.views + [ds.labels, ds.view_indicator,
                                                 ds.label_indicator]] == before

    def test_composition_is_logical_and(self):
        ds = tiny_dataset(n=8)
        _, w1 = generate_indicators(8, 2, 3, 0.0, 0.25, seed=1)
        _, w2 = generate_indicators(8, 2, 3, 0.0, 0.25, seed=2)
        second = apply_indicators(apply_indicators(ds, None, w1), None, w2)
        np.testing.assert_array_equal(second.label_indicator, w1 * w2)

    def test_composition_emptying_a_row_is_rejected(self):
        ds = tiny_dataset(n=4)
        v1 = np.array([[1.0, 0.0]] * 4)
        v2 = np.array([[0.0, 1.0]] + [[1.0, 1.0]] * 3)
        with pytest.raises(ValidationError, match="no available view"):
            apply_indicators(apply_indicators(ds, v1, None), v2, None)

    def test_the_composed_indicator_is_checked(self):
        # 0.5 on a cell its dataset already hides composes to 0; on a
        # visible cell it is refused.
        vi = np.ones((4, 2))
        vi[1, 0] = 0.0
        ds = apply_indicators(tiny_dataset(n=4), vi, None)
        extra = np.ones((4, 2))
        extra[1, 0] = 0.5
        np.testing.assert_array_equal(apply_indicators(ds, extra, None).view_indicator, vi)
        extra[2, 1] = 0.5
        with pytest.raises(ValidationError, match=r"^view indicator: entry at row 2, col 1 "
                                                  r"is 0.5, expected 0 or 1$"):
            apply_indicators(ds, extra, None)

    @pytest.mark.parametrize("shaped", ["view", "label"])
    def test_a_wrong_shape_is_named_before_a_non_binary_entry(self, shaped):
        extra = {"view": np.ones((4, 2)), "label": np.ones((4, 3))}
        extra["label" if shaped == "view" else "view"][0, 0] = 2.0
        extra[shaped] = np.ones((4, 4))
        with pytest.raises(ValidationError, match=rf"^{shaped} indicator shape \(4, 4\) != "):
            apply_indicators(tiny_dataset(n=4), extra["view"], extra["label"])


class TestConstructionValidation:
    def test_all_zero_view_row_rejected(self):
        with pytest.raises(ValidationError, match="no available view"):
            MultiViewDataset(
                views=[np.zeros((2, 3))],
                labels=np.zeros((2, 2)),
                view_indicator=np.array([[1.0], [0.0]]),
                label_indicator=np.ones((2, 2)),
            )

    def test_nonzero_masked_row_rejected(self):
        with pytest.raises(ValidationError, match="nonzero data"):
            MultiViewDataset(
                views=[np.ones((2, 3)), np.ones((2, 3))],
                labels=np.zeros((2, 2)),
                view_indicator=np.array([[1.0, 0.0], [1.0, 1.0]]),
                label_indicator=np.ones((2, 2)),
            )


def _valid_parts():
    return dict(views=[np.array([[1.0, 2.0], [0.0, 0.0]]), np.array([[3.0], [4.0]])],
                labels=np.array([[1.0, 0.0], [0.0, 0.0]]),
                view_indicator=np.array([[1.0, 1.0], [0.0, 1.0]]),
                label_indicator=np.array([[1.0, 1.0], [1.0, 0.0]]))


MALFORMED = {
    "no view": (dict(views=[]), "at least one view"),
    "1-D view": (dict(views=[np.zeros(2), np.array([[3.0], [4.0]])]), "2-D"),
    "view row count": (dict(views=[np.zeros((3, 2)), np.array([[3.0], [4.0]])]), "view 0 has 3 rows"),
    "NaN view value": (dict(views=[np.array([[1.0, np.nan], [0.0, 0.0]]), np.array([[3.0], [4.0]])]),
                       "view 0: entry at row 0, col 1 is nan"),
    "infinite view value": (dict(views=[np.array([[1.0, 2.0], [0.0, 0.0]]), np.array([[3.0], [-np.inf]])]),
                            "view 1: entry at row 1, col 0 is -inf, expected a finite value"),
    "view value above VIEW_MAX": (dict(views=[np.array([[1.0, 2.0], [0.0, 0.0]]),
                                              np.array([[3.0], [-1e61]])]),
                                  r"view 1: entry at row 1, col 0 is -1e\+61, "
                                  r"expected a magnitude of at most 1e\+60"),
    "view indicator shape": (dict(view_indicator=np.ones((2, 3))), "view indicator shape"),
    "label indicator shape": (dict(label_indicator=np.ones((2, 3))), "label indicator shape"),
    "non-binary label": (dict(labels=np.array([[1.0, 0.5], [0.0, 0.0]])), "labels: entry at row 0, col 1 is 0.5, expected 0 or 1"),
    "non-binary view indicator": (dict(view_indicator=np.array([[1.0, 2.0], [0.0, 1.0]])),
                                  "view indicator: entry at row 0, col 1 is 2.0, expected 0 or 1"),
    "non-binary label indicator": (dict(label_indicator=np.array([[1.0, 1.0], [1.0, -1.0]])),
                                   "label indicator: entry at row 1, col 1 is -1.0, expected 0 or 1"),
    "sample without a view": (dict(view_indicator=np.array([[1.0, 1.0], [0.0, 0.0]]),
                                   views=[np.array([[1.0, 2.0], [0.0, 0.0]]), np.array([[3.0], [0.0]])]),
                              "sample 1 has no available view"),
    "data in a missing row": (dict(views=[np.array([[1.0, 2.0], [0.0, 5.0]]), np.array([[3.0], [4.0]])]),
                              "view 0 has nonzero data"),
    "unknown label set": (dict(labels=np.array([[1.0, 0.0], [0.0, 1.0]])), "label is unknown"),
    "no sample": (dict(views=[np.zeros((0, 2)), np.zeros((0, 1))], labels=np.zeros((0, 2)),
                       view_indicator=np.zeros((0, 2)), label_indicator=np.zeros((0, 2))),
                  "at least one sample"),
}


class TestViewBound:
    def test_the_bound_is_inclusive(self):
        parts = _valid_parts()
        parts["views"][1] = np.array([[VIEW_MAX], [-VIEW_MAX]])
        MultiViewDataset(**parts)
        parts["views"][1] = np.array([[VIEW_MAX], [-np.nextafter(VIEW_MAX, np.inf)]])
        with pytest.raises(ValidationError, match=r"row 1, col 0 is -1.0+1e\+60, expected a "):
            MultiViewDataset(**parts)

    @pytest.mark.parametrize("batch_size", [0, 16], ids=["full batch", "mini-batch"])
    def test_a_dataset_at_the_bound_trains_without_warning(self, caplog, batch_size):
        # Every entry +-VIEW_MAX, half the views missing; the default config.
        # pytest turns a warning into an error, and the log must stay empty.
        ds = synth_dataset(60, 2, 4, dims=(32, 32), noise=0.1, seed=1)
        vi, _ = generate_indicators(60, 2, 4, 0.5, 0.0, seed=2)
        ds = apply_indicators(MultiViewDataset(
            views=[np.where(v < 0, -VIEW_MAX, VIEW_MAX) for v in ds.views], labels=ds.labels,
            view_indicator=ds.view_indicator, label_indicator=ds.label_indicator), vi, None)
        result = train(ds, TrainConfig(epochs=3, batch_size=batch_size, seed=0), eval_data=ds,
                       eval_every=3, snapshot_epochs=(0, 3))
        assert [r.epoch for r in result.log.records] == [1, 2, 3]
        assert all(np.isfinite(m).all() for m in result.snapshots.values())
        assert caplog.records == []


class TestSubset:
    def test_runs_no_check(self, monkeypatch):
        ds = tiny_dataset(n=8)
        calls = []
        monkeypatch.setattr(data, "_check_binary", lambda *args: calls.append(args))
        ds.subset(np.array([5, 1, 2]))
        assert calls == []

    def test_apply_indicators_builds_no_dataset(self, monkeypatch):
        # Like subset, apply_indicators checks only what its product can change.
        ds = tiny_dataset(n=8)
        v, w = generate_indicators(8, 2, 3, 0.4, 0.3, seed=1)
        calls = []
        monkeypatch.setattr(MultiViewDataset, "__post_init__",
                            lambda dataset: calls.append(dataset))
        for extra in ((v, None), (None, w), (v, w), (None, None)):
            apply_indicators(ds, *extra)
        assert calls == []

    @settings(max_examples=40)
    @given(n=st.integers(1, 12), seeds=st.tuples(st.integers(0, 2 ** 32 - 1),
                                                 st.integers(0, 2 ** 32 - 1)),
           view_missing=st.sampled_from([0.0, 0.2, 0.4]), label_missing=st.floats(0.0, 0.9),
           picks=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=15))
    @example(n=10, seeds=(0, 2), view_missing=0.4, label_missing=0.3,
             picks=[0.75, 0.05, 0.35, 0.35, 0.95])  # rows 7, 0, 3, 3, 9
    def test_equals_construction_from_the_indexed_arrays(self, n, seeds, view_missing,
                                                          label_missing, picks):
        v, w = generate_indicators(n, 2, 3, view_missing, label_missing, seed=seeds[1])
        ds = apply_indicators(tiny_dataset(n=n, seed=seeds[0]), v, w)
        rows = (np.array(picks) * n).astype(int)
        part = ds.subset(rows)
        built = MultiViewDataset(views=[x[rows] for x in ds.views], labels=ds.labels[rows],
                                 view_indicator=ds.view_indicator[rows],
                                 label_indicator=ds.label_indicator[rows], name=ds.name)
        assert part.name == built.name
        for got, want in zip(part.views + [part.labels, part.view_indicator, part.label_indicator],
                             built.views + [built.labels, built.view_indicator, built.label_indicator]):
            assert got.flags.c_contiguous and got.dtype == want.dtype
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert ds.subset(rows).labels is not ds.labels

    @pytest.mark.parametrize("rows", [np.array(2), np.array([[0, 1]]),
                                      np.array([True, False, True, False, True, False]),
                                      np.array([0.7, 1.2]), np.array([], dtype=int)],
                             ids=["0-D", "2-D", "boolean", "float", "empty"])
    @pytest.mark.parametrize("of", ["dataset", "mask bank"])
    def test_rows_must_be_a_non_empty_one_dimensional_integer_array(self, rows, of):
        # A boolean mask or float rows would index other rows than meant.
        ds = tiny_dataset(n=6)
        whole = ds if of == "dataset" else MaskBank.generate(6, ds.view_dims, 0.5, seed=0)
        with pytest.raises(ValidationError, match="1-D"):
            whole.subset(rows)

    @pytest.mark.parametrize("rows,row", [([-1], -1), ([-1, -6], -6), ([6], 6), ([0, 7, 5], 7)],
                             ids=["-1", "-1 and -6", "n", "n + 1"])
    @pytest.mark.parametrize("of", ["dataset", "mask bank"])
    def test_rows_must_lie_in_range(self, rows, row, of):
        # numpy would read a negative row from the end, and end in an
        # IndexError at a row of n or more.
        ds = tiny_dataset(n=6)
        whole = ds if of == "dataset" else MaskBank.generate(6, ds.view_dims, 0.5, seed=0)
        with pytest.raises(ValidationError, match=rf"^subset row {row} is outside \[0, 6\)$"):
            whole.subset(np.array(rows))

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_construction_still_rejects(self, case):
        assert MultiViewDataset(**_valid_parts()).n_samples == 2
        change, message = MALFORMED[case]
        with pytest.raises(ValidationError, match=message):
            MultiViewDataset(**{**_valid_parts(), **change})


class TestManifestRoundTrip:
    @settings(max_examples=40)
    @given(n=st.integers(1, 12), v=st.integers(1, 3), c=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1e-300, 1e-3, 1.0, VIEW_MAX / 8]),
           view_missing=st.sampled_from([0.0, 0.3, 0.6]), label_missing=st.sampled_from([0.0, 0.5]))
    def test_every_matrix_round_trips_bitwise(self, tmp_path_factory, n, v, c, seed, scale,
                                              view_missing, label_missing):
        # tobytes() tells -0.0 from 0.0, which the zero-fill of a missing
        # view's negative entries produces.
        rng = np.random.default_rng(seed)
        ds = MultiViewDataset(views=[rng.normal(size=(n, d)) * scale for d in rng.integers(1, 5, v)],
                              labels=(rng.random((n, c)) > 0.5).astype(float),
                              view_indicator=np.ones((n, v)), label_indicator=np.ones((n, c)))
        ind_v, ind_w = generate_indicators(n, v, c, view_missing * (v - 1) / v, label_missing,
                                           seed=seed)
        ds = apply_indicators(ds, ind_v, ind_w)
        # The .npy files save_dataset writes and a CSV manifest load alike.
        for manifest in (save_dataset(ds, tmp_path_factory.mktemp("ds", numbered=True)),
                         write_csv_manifest(ds, tmp_path_factory.mktemp("csv", numbered=True))):
            loaded = load_dataset(manifest)
            for got, want in zip(loaded.views + [loaded.labels, loaded.view_indicator,
                                                 loaded.label_indicator],
                                 ds.views + [ds.labels, ds.view_indicator, ds.label_indicator],
                                 strict=True):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_defaults_when_indicators_absent(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = MultiViewDataset(
            views=[rng.normal(size=(10, 3)), rng.normal(size=(10, 4))],
            labels=(rng.random((10, 3)) > 0.5).astype(float),
            view_indicator=np.ones((10, 2)),
            label_indicator=np.ones((10, 3)),
            name="roundtrip",
        )
        manifest = save_dataset(ds, tmp_path)
        loaded = load_dataset(manifest)
        np.testing.assert_array_equal(loaded.view_indicator, np.ones((10, 2)))
        np.testing.assert_array_equal(loaded.label_indicator, np.ones((10, 3)))
        for a, b in zip(loaded.views, ds.views):
            np.testing.assert_array_equal(a, b)

    def test_round_trip_with_missingness(self, tmp_path):
        ds = tiny_dataset(n=9)
        v, w = generate_indicators(9, 2, 3, 0.3, 0.3, seed=5)
        ds = apply_indicators(ds, v, w)
        loaded = load_dataset(save_dataset(ds, tmp_path))
        np.testing.assert_array_equal(loaded.view_indicator, ds.view_indicator)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        for a, b in zip(loaded.views, ds.views):
            np.testing.assert_array_equal(a, b)

    def test_row_mismatch_names_file(self, tmp_path):
        manifest = write_csv_manifest(tiny_dataset(n=10), tmp_path)
        bad = "\n".join(",".join("0.0" for _ in range(4)) for _ in range(9))
        (tmp_path / "view_0.csv").write_text(bad + "\n")
        with pytest.raises(ValidationError, match="view_0.csv"):
            load_dataset(manifest)

    def test_non_binary_label_reports_coordinates(self, tmp_path):
        write_csv_manifest(tiny_dataset(n=4), tmp_path)
        rows = (tmp_path / "labels.csv").read_text().splitlines()
        cells = rows[2].split(",")
        cells[1] = "0.5"
        rows[2] = ",".join(cells)
        (tmp_path / "labels.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match=r"row 2, col 1"):
            load_dataset(tmp_path / "manifest.json")

    @pytest.mark.parametrize("field,value", [
        ("views", "view_0.csv"),
        ("views", []),
        ("views", ["view_0.csv", 1]),
        ("labels", ["labels.csv"]),
        ("view_indicator", 3),
    ])
    def test_malformed_manifest_structure_names_manifest(self, tmp_path, field, value):
        save_dataset(tiny_dataset(n=4), tmp_path)
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc[field] = value
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="manifest.json"):
            load_dataset(manifest)

    @pytest.mark.parametrize("name,text,message", [
        ("view_indicator.csv", "1,1\n1,2\n1,1\n1,1\n", "view indicator: entry at row 1, col 1"),
        ("view_indicator.csv", "1,1,1\n" * 4, r"view indicator shape \(4, 3\)"),
        ("label_indicator.csv", "1,1\n" * 4, r"label indicator shape \(4, 2\)"),
        ("view_indicator.csv", "1,0\n0,0\n1,1\n1,1\n", "sample 1 has no available view"),
        # a NaN indicator entry is blamed on its indicator, not on the view
        # or label it was multiplied into
        ("view_indicator.csv", "1,1\n1,1\n1,nan\n1,1\n",
         "view indicator: entry at row 2, col 1 is nan, expected 0 or 1"),
        ("label_indicator.csv", "1,1,1\n1,nan,1\n1,1,1\n1,1,1\n",
         "label indicator: entry at row 1, col 1 is nan, expected 0 or 1"),
        ("label_indicator.csv", "1,1,1\n1,x,1\n1,1,1\n1,1,1\n",
         "label indicator file label_indicator.csv: could not convert string 'x'"),
    ])
    def test_bad_indicator_file_is_rejected_naming_manifest(self, tmp_path, name, text, message):
        manifest = write_csv_manifest(tiny_dataset(n=4), tmp_path)
        doc = json.loads(manifest.read_text())
        doc[name.removesuffix(".csv")] = name
        manifest.write_text(json.dumps(doc))
        (tmp_path / name).write_text(text)
        with pytest.raises(ValidationError, match=message) as info:
            load_dataset(manifest)
        assert str(info.value).startswith(f"manifest {manifest}: ")

    @pytest.mark.parametrize("name", ["labels.csv", "view_1.csv"])
    @pytest.mark.parametrize("text", ["", "\n  \n", "# header only\n"],
                             ids=["empty", "blank lines", "comment only"])
    def test_empty_matrix_file_is_rejected_naming_it(self, tmp_path, recwarn, name, text):
        manifest = write_csv_manifest(tiny_dataset(n=4), tmp_path)
        (tmp_path / name).write_text(text)
        what = {"labels.csv": "labels", "view_1.csv": "view 1"}[name]
        with pytest.raises(ValidationError) as info:
            load_dataset(manifest)
        assert str(info.value) == f"manifest {manifest}: {what} file {name}: file holds no data"
        assert not recwarn.list

    def test_missing_manifest_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(tmp_path / "nope.json")

    def test_save_is_byte_identical(self, tmp_path):
        v, w = generate_indicators(7, 2, 3, 0.3, 0.3, seed=1)
        ds = apply_indicators(tiny_dataset(n=7), v, w)
        save_dataset(ds, tmp_path / "a")
        save_dataset(ds, tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == ["label_indicator.npy", "labels.npy", "manifest.json", "view_0.npy",
                         "view_1.npy", "view_indicator.npy"]
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


MALFORMED_NPY = malformed_npy(tiny_dataset(n=4).views[1])


class TestNpyFiles:
    @pytest.mark.parametrize("case", sorted(MALFORMED_NPY))
    def test_malformed_file_is_refused_naming_manifest_and_file(self, tmp_path, case):
        manifest = save_dataset(tiny_dataset(n=4), tmp_path)
        raw, message = MALFORMED_NPY[case]
        (tmp_path / "view_1.npy").write_bytes(raw)
        with pytest.raises(ValidationError) as info:
            load_dataset(manifest)
        assert str(info.value).startswith(f"manifest {manifest}: view 1 file view_1.npy: {message}")
        assert "0x" not in str(info.value)

    @pytest.mark.parametrize("case", ["shape larger than the file",
                                      "header length larger than the file"])
    def test_refusal_allocates_no_more_than_the_file(self, tmp_path, case):
        manifest = save_dataset(tiny_dataset(n=4), tmp_path)
        (tmp_path / "view_1.npy").write_bytes(MALFORMED_NPY[case][0])
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError):
                load_dataset(manifest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_missing_file_is_os_error(self, tmp_path):
        manifest = save_dataset(tiny_dataset(n=4), tmp_path)
        (tmp_path / "labels.npy").unlink()
        with pytest.raises(OSError):
            load_dataset(manifest)

    @pytest.mark.parametrize("convert", [
        lambda m: m.astype("<f4"), lambda m: m.astype(">f8"), lambda m: (m * 4).astype("<i2"),
        lambda m: (m * 4).astype(">u8"), lambda m: m > 0, np.asfortranarray,
    ], ids=["float32", "big-endian float64", "int16", "big-endian uint64", "bool", "Fortran order"])
    def test_real_dtypes_and_orders_load_as_float64(self, tmp_path, convert):
        ds = tiny_dataset(n=5)
        manifest = save_dataset(ds, tmp_path)
        stored = convert(np.abs(ds.views[0]))
        (tmp_path / "view_0.npy").write_bytes(npy_bytes(stored))
        got = load_dataset(manifest).views[0]
        assert got.dtype == np.float64 and got.flags.c_contiguous
        np.testing.assert_array_equal(got, stored.astype(np.float64))

    @pytest.mark.parametrize("stem,edit,message", [
        ("view_1", lambda ds: _with(ds.views[1], 2, 0, np.nan),
         "manifest <manifest>: view 1: entry at row 2, col 0 is nan, expected a finite value"),
        ("labels", lambda ds: _with(ds.labels, 2, 1, 0.5),
         "manifest <manifest>: labels: entry at row 2, col 1 is 0.5, expected 0 or 1"),
        ("view_0", lambda ds: ds.views[0][:3],
         "manifest <manifest>: view 0 file view_0.<ext>: has 3 rows, labels have 4"),
    ], ids=["NaN view value", "non-binary label", "row count"])
    def test_dataset_checks_give_the_csv_messages(self, tmp_path, stem, edit, message):
        ds = tiny_dataset(n=4)
        for ext, manifest in (("npy", save_dataset(ds, tmp_path / "npy")),
                              ("csv", write_csv_manifest(ds, tmp_path / "csv"))):
            path = manifest.parent / f"{stem}.{ext}"
            if ext == "npy":
                np.save(path, edit(ds))
            else:
                write_matrix_csv(path, edit(ds))
            with pytest.raises(ValidationError) as info:
                load_dataset(manifest)
            assert str(info.value).replace(str(manifest), "<manifest>") == \
                message.replace("<ext>", ext)


def _hiding_manifests(tmp_path):
    """A 4-row dataset whose indicators hide view 1 at row 2 and label
    (2, 1), and its ``.npy`` and CSV manifests, each with indicator files."""
    vi, wi = np.ones((4, 2)), np.ones((4, 3))
    vi[2, 1] = wi[2, 1] = 0.0
    ds = apply_indicators(tiny_dataset(n=4), vi, wi)
    return ds, (("npy", save_dataset(ds, tmp_path / "npy")),
                ("csv", write_csv_manifest(ds, tmp_path / "csv")))


def _write(manifest, ext, stem, matrix):
    path = manifest.parent / f"{stem}.{ext}"
    if ext == "npy":
        np.save(path, matrix)
    else:
        write_matrix_csv(path, matrix)


class TestHiddenValues:
    """A value an indicator file hides is zero-filled on load, but it is
    refused first, with the text it gets where nothing hides it."""

    @pytest.mark.parametrize("stem,cell,value,message", [
        ("view_1", (2, 0), np.nan, "view 1: entry at row 2, col 0 is nan, expected a finite value"),
        ("view_1", (2, 3), 1e61,
         "view 1: entry at row 2, col 3 is 1e+61, expected a magnitude of at most 1e+60"),
        ("labels", (2, 1), 0.5, "labels: entry at row 2, col 1 is 0.5, expected 0 or 1"),
    ], ids=["NaN view value", "view value above VIEW_MAX", "non-binary label"])
    def test_a_hidden_bad_value_is_refused(self, tmp_path, stem, cell, value, message):
        ds, manifests = _hiding_manifests(tmp_path)
        matrix = ds.labels if stem == "labels" else ds.views[1]
        for ext, manifest in manifests:
            _write(manifest, ext, stem, _with(matrix, *cell, value))
            with pytest.raises(ValidationError) as info:
                load_dataset(manifest)
            assert str(info.value) == f"manifest {manifest}: {message}"

    def test_a_bad_view_value_is_named_before_a_bad_indicator(self, tmp_path):
        ds, manifests = _hiding_manifests(tmp_path)
        for ext, manifest in manifests:
            _write(manifest, ext, "view_1", _with(ds.views[1], 2, 0, 1e61))
            _write(manifest, ext, "view_indicator", _with(ds.view_indicator, 0, 0, 2.0))
            with pytest.raises(ValidationError) as info:
                load_dataset(manifest)
            assert str(info.value) == (f"manifest {manifest}: view 1: entry at row 2, col 0 "
                                       "is 1e+61, expected a magnitude of at most 1e+60")

    @pytest.mark.parametrize("indicators,write", [
        (False, save_dataset), (True, save_dataset), (True, write_csv_manifest),
    ], ids=["npy without indicator files", "npy with indicator files", "csv"])
    def test_load_builds_one_dataset(self, tmp_path, monkeypatch, indicators, write):
        ds = tiny_dataset(n=6)
        if indicators:
            vi, wi = generate_indicators(6, 2, 3, 0.3, 0.3, seed=1)
            ds = apply_indicators(ds, vi, wi)
        manifest = write(ds, tmp_path)
        assert ("view_indicator" in json.loads(manifest.read_text())) == indicators
        calls = []
        check = MultiViewDataset.__post_init__

        def counting(dataset):
            calls.append(dataset)
            check(dataset)

        monkeypatch.setattr(MultiViewDataset, "__post_init__", counting)
        loaded = load_dataset(manifest)
        assert len(calls) == 1 and calls[0] is loaded


def _with(matrix, row, col, value):
    """A copy of ``matrix`` with ``value`` at (row, col)."""
    out = matrix.copy()
    out[row, col] = value
    return out


def test_csv_text_writes_one_cell_rule():
    rows = [["epoch", "ap", "seed"], [1, 0.1, None], [np.int64(-2), np.float64(0.5), 1e-300],
            [None, None]]
    assert csv_text(rows) == "epoch,ap,seed\n1,0.1,\n-2,0.5,1e-300\n,\n"
    assert csv_text([]) == ""
