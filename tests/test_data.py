import json

import numpy as np
import pytest

from mvmlc.data import (
    MaskBank,
    MultiViewDataset,
    apply_indicators,
    apply_input_mask,
    generate_indicators,
    load_dataset,
    save_dataset,
    split,
    synth_dataset,
)
from mvmlc.errors import ConfigError, ShapeError, ValidationError


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
        bank = MaskBank(masks=[np.array([[1.0, 0.0, 0.0, 1.0]])], mask_ratio=0.5, seed=0)
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
        ds = tiny_dataset(n=8)
        v, w = generate_indicators(8, 2, 3, 0.4, 0.3, seed=1)
        out = apply_indicators(ds, v, w)
        for m in range(out.n_views):
            rows = out.view_indicator[:, m] == 0
            assert np.all(out.views[m][rows] == 0)
        assert np.all(out.labels[out.label_indicator == 0] == 0)

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


class TestManifestRoundTrip:
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
        ds = tiny_dataset(n=10)
        save_dataset(ds, tmp_path)
        bad = "\n".join(",".join("0.0" for _ in range(4)) for _ in range(9))
        (tmp_path / "view_0.csv").write_text(bad + "\n")
        with pytest.raises(ValidationError, match="view_0.csv"):
            load_dataset(tmp_path / "manifest.json")

    def test_non_binary_label_reports_coordinates(self, tmp_path):
        ds = tiny_dataset(n=4)
        save_dataset(ds, tmp_path)
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
    ])
    def test_bad_indicator_file_is_rejected_naming_manifest(self, tmp_path, name, text, message):
        save_dataset(tiny_dataset(n=4), tmp_path)
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc[name.removesuffix(".csv")] = name
        manifest.write_text(json.dumps(doc))
        (tmp_path / name).write_text(text)
        with pytest.raises(ValidationError, match=message) as info:
            load_dataset(manifest)
        assert str(info.value).startswith(f"manifest {manifest}: ")

    def test_missing_manifest_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(tmp_path / "nope.json")

    def test_save_is_byte_identical(self, tmp_path):
        ds = tiny_dataset(n=7)
        save_dataset(ds, tmp_path / "a")
        save_dataset(ds, tmp_path / "b")
        for name in ("manifest.json", "labels.csv", "view_0.csv", "view_1.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
