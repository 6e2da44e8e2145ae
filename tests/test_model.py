import base64
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmlc import model as md
from mvmlc.data import MaskBank, MultiViewDataset, synth_dataset, generate_indicators, apply_indicators
from mvmlc.errors import ConfigError, ContractError, ShapeError, ValidationError
from mvmlc.model import ModelParams, forward_all, fuse, interact, classify
from mvmlc.numerics import Matrix
from mvmlc.train import channel_similarity


def make_params(view_dims=(4, 5), n_labels=3, embed=4, hidden=6, seed=0):
    return ModelParams.initialize(np.random.default_rng(seed), view_dims, n_labels, embed, hidden)


def make_dataset(n=6, seed=0, missing=0.0):
    ds = synth_dataset(n, 2, 3, dims=(4, 5), noise=0.2, seed=seed)
    if missing:
        v, _ = generate_indicators(n, 2, 3, missing, 0.0, seed=seed + 1)
        ds = apply_indicators(ds, v, None)
    return ds


class TestParameterVector:
    def test_each_value_is_a_view_of_its_slice(self):
        params = make_params(view_dims=(4, 5, 2))
        named, slices = params.named_parameters(), params.named_slices()
        assert [(name, p.shape) for name, p in named] == \
            md.parameter_layout((4, 5, 2), 3, 4, 6)
        assert [name for name, _ in slices] == [name for name, _ in named]
        assert slices[0][1].start == 0 and slices[-1][1].stop == params.vector.size
        for (name, p), (_, part) in zip(named, slices):
            assert p.value.base is not None and np.shares_memory(p.value, params.vector)
            assert p.value.ravel().tobytes() == params.vector[part].tobytes()
            params.vector[part] = np.arange(part.stop - part.start)
            np.testing.assert_array_equal(p.value.ravel(), np.arange(p.value.size), err_msg=name)

    @settings(max_examples=40)
    @given(view_dims=st.lists(st.integers(1, 6), min_size=1, max_size=4),
           n_labels=st.integers(1, 5), embed=st.integers(1, 5), hidden=st.integers(1, 5))
    def test_name_at_names_the_slice_holding_the_index(self, view_dims, n_labels, embed, hidden):
        params = ModelParams.allocate(tuple(view_dims), n_labels, embed, hidden)
        for name, part in params.named_slices():
            assert params.name_at(part.start) == name
            assert params.name_at(part.stop - 1) == name

    @pytest.mark.parametrize("seed,dims", [(0, (4, 5)), (7, (1, 9, 3))])
    def test_initialize_is_bitwise_one_uniform_draw_per_matrix(self, seed, dims):
        rng = np.random.default_rng(seed)
        want = []
        for k, (_, shape) in enumerate(md.parameter_layout(dims, 3, 4, 6)):
            if k % 2 == 0:  # a weight, then its bias with the same fan-in
                bound = 1.0 / np.sqrt(shape[0])
            want.append(rng.uniform(-bound, bound, size=shape))
        got = np.random.default_rng(seed)
        params = ModelParams.initialize(got, dims, 3, 4, 6)
        assert params.vector.tobytes() == np.concatenate(want, axis=None).tobytes()
        assert got.random() == rng.random()

    def test_allocation_failure_names_the_widths(self, refuse_large_allocations):
        size = sum(r * c for _, (r, c) in md.parameter_layout((5,), 3, 10 ** 8, 128))
        with pytest.raises(ConfigError, match=rf"view_dims \[5\], embed_dim 100000000 and "
                                              rf"hidden_dim 128 need {size} parameters"):
            make_params(view_dims=(5,), embed=10 ** 8, hidden=128)


class TestEncodeDecode:
    def test_output_shapes(self):
        params = make_params()
        ds = make_dataset()
        xs = [Matrix(v) for v in ds.views]
        shared, private = md.encode(params, xs)
        for s, p in zip(shared, private):
            assert s.shape == (6, 4)
            assert p.shape == (6, 4)
        recon = md.decode(params, private)
        assert [r.shape for r in recon] == [(6, 4), (6, 5)]

    def test_zero_final_layer_gives_bias(self):
        params = make_params()
        params["shared_encoder.0.out.weight"].value[...] = 0.0
        params["shared_encoder.0.out.bias"].value[...] = 0.0
        out = params.mlp("shared_encoder.0", Matrix(np.random.default_rng(0).normal(size=(3, 4))))
        np.testing.assert_array_equal(out.value, np.zeros((3, 4)))

    def test_hand_computed_affine(self):
        # one hidden unit, identity-like weights: out = relu(x W1 + b1) W2 + b2
        params = make_params(view_dims=(2,), embed=2, hidden=2)
        params["shared_encoder.0.hidden.weight"].value[...] = np.eye(2)
        params["shared_encoder.0.hidden.bias"].value[...] = [[1.0, -1.0]]
        params["shared_encoder.0.out.weight"].value[...] = [[2.0, 0.0], [0.0, 3.0]]
        params["shared_encoder.0.out.bias"].value[...] = [[0.5, 0.5]]
        out = params.mlp("shared_encoder.0", Matrix([[1.0, 2.0], [-3.0, 4.0]]))
        # row 1: relu([2, 1]) = [2, 1] -> [4.5, 3.5]
        # row 2: relu([-2, 3]) = [0, 3] -> [0.5, 9.5]
        np.testing.assert_allclose(out.value, [[4.5, 3.5], [0.5, 9.5]], atol=1e-12)

    def test_width_mismatch(self):
        params = make_params(view_dims=(4, 5))
        with pytest.raises(ShapeError):
            md.encode(params, [Matrix(np.zeros((2, 5))), Matrix(np.zeros((2, 5)))])


class TestSharedHeads:
    def test_shared_instance_head_gives_identical_outputs(self):
        params = make_params()
        x = Matrix(np.random.default_rng(3).normal(size=(4, 4)))
        out = md.project_instances(params, [x, x])
        np.testing.assert_array_equal(out[0].value, out[1].value)

    def test_label_probs_in_unit_interval(self):
        params = make_params()
        x = Matrix(np.random.default_rng(4).normal(size=(5, 4)) * 10)
        (probs,) = md.project_labels(params, [x])
        assert probs.shape == (5, 3)
        assert np.all(probs.value > 0) and np.all(probs.value < 1)

    def test_zero_label_head_gives_half(self):
        params = make_params()
        params["label_head.out.weight"].value[...] = 0.0
        params["label_head.out.bias"].value[...] = 0.0
        (probs,) = md.project_labels(params, [Matrix(np.ones((2, 4)))])
        np.testing.assert_array_equal(probs.value, np.full((2, 3), 0.5))


class TestFuse:
    def test_single_available_view(self):
        s = [Matrix([[1.0, 2.0]]), Matrix(np.zeros((0, 2)))]
        rows = [np.array([0]), np.array([], dtype=np.intp)]
        fused, _ = fuse(s, s, rows, 1)
        np.testing.assert_array_equal(fused.value, [[1.0, 2.0]])

    def test_mean_of_two_views(self):
        s = [Matrix([[1.0, 3.0]]), Matrix([[3.0, 5.0]])]
        fused, _ = fuse(s, s, [np.array([0]), np.array([0])], 1)
        np.testing.assert_array_equal(fused.value, [[2.0, 4.0]])

    def test_masked_values_do_not_matter(self):
        # Features arrive compact, one row per observed sample of the view;
        # N-row features of a view with missing rows are refused, so a
        # missing view's row cannot reach the mean.
        rng = np.random.default_rng(5)
        full = [rng.normal(size=(6, 2)) for _ in range(3)]
        v = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 1], [0, 0, 1], [1, 1, 0], [0, 1, 1.0]])
        compact = [Matrix(f[v[:, m] == 1]) for m, f in enumerate(full)]
        rows = md.observed_rows(v)
        fused, _ = fuse(compact, compact, rows, 6)
        for i in range(6):
            total = 0.0
            for m in range(3):
                if v[i, m]:
                    total = total + full[m][i]
            np.testing.assert_array_equal(fused.value[i], total * (1.0 / v[i].sum()))
        with pytest.raises(ShapeError, match="part 0"):
            fuse([Matrix(f) for f in full], compact, rows, 6)

    def test_all_zero_row_rejected(self):
        s = [Matrix(np.zeros((0, 2)))]
        with pytest.raises(ContractError):
            fuse(s, s, [np.array([], dtype=np.intp)], 1)

    def test_a_sample_in_two_of_three_row_sets_gets_their_mean(self):
        # Sample 1 is in views 0 and 2, sample 0 in view 1 alone.
        s = [Matrix([[1.0, 3.0]]), Matrix([[7.0, 8.0]]), Matrix([[3.0, 5.0]])]
        fused, _ = fuse(s, s, [np.array([1]), np.array([0]), np.array([1])], 2)
        np.testing.assert_array_equal(fused.value, [[7.0, 8.0], [2.0, 4.0]])

    def test_a_sample_in_no_row_set_is_refused(self):
        s = [Matrix(np.ones((1, 2))), Matrix(np.ones((2, 2)))]
        with pytest.raises(ContractError, match="^fuse: a sample has no available view$"):
            fuse(s, s, [np.array([0]), np.array([0, 2])], 3)


class TestInteract:
    def test_zero_private_halves_shared(self):
        s = Matrix([[2.0, -4.0]])
        z = interact(s, Matrix([[0.0, 0.0]]))
        np.testing.assert_array_equal(z.value, [[1.0, -2.0]])

    def test_zero_shared_gives_zero(self):
        z = interact(Matrix([[0.0, 0.0]]), Matrix([[5.0, -5.0]]))
        np.testing.assert_array_equal(z.value, [[0.0, 0.0]])

    def test_saturated_private_passes_shared(self):
        z = interact(Matrix([[3.0]]), Matrix([[1e4]]))
        assert z.value[0, 0] == 3.0

    def test_shapes_that_differ_refused(self):
        with pytest.raises(ShapeError, match=r"^sigmoid_mul: shapes \(1, 3\) and \(1, 2\) differ$"):
            interact(Matrix(np.zeros((1, 2))), Matrix(np.zeros((1, 3))))


class TestClassify:
    def test_zero_params_give_half(self):
        params = make_params()
        params["classifier.weight"].value[...] = 0.0
        params["classifier.bias"].value[...] = 0.0
        t = classify(params, Matrix(np.ones((2, 4))))
        np.testing.assert_array_equal(t.value, np.full((2, 3), 0.5))

    def test_zero_row_gives_sigmoid_bias(self):
        params = make_params()
        t = classify(params, Matrix(np.zeros((1, 4))))
        expected = 1.0 / (1.0 + np.exp(-params["classifier.bias"].value))
        np.testing.assert_allclose(t.value, expected, atol=1e-15)

    def test_hand_case(self):
        params = make_params(view_dims=(2,), embed=1, n_labels=2)
        params["classifier.weight"].value[...] = [[2.0, -1.0]]
        params["classifier.bias"].value[...] = [[0.5, 0.0]]
        t = classify(params, Matrix([[1.0]]))
        expected = 1.0 / (1.0 + np.exp(-np.array([[2.5, -1.0]])))
        np.testing.assert_allclose(t.value, expected, atol=1e-15)

    def test_logit_inversion_recovers_preactivation(self):
        params = make_params()
        rng = np.random.default_rng(8)
        z = Matrix(rng.normal(size=(5, 4)))
        t = classify(params, z)
        pre = z.value @ params["classifier.weight"].value + params["classifier.bias"].value
        recovered = np.log(t.value / (1.0 - t.value))
        np.testing.assert_allclose(recovered, pre, atol=1e-10)


class TestForwardAll:
    def test_cache_shapes(self):
        params = make_params()
        for ds in (make_dataset(), make_dataset(n=10, missing=0.4)):
            n = ds.n_samples
            bank = MaskBank.generate(n, ds.view_dims, 0.3, seed=2)
            cache = forward_all(params, ds, bank, training=True)
            assert [r.shape for r in cache.recon] == [(n, 4), (n, 5)]
            assert [p.shape for p in cache.instance_feats] == [(n, 4), (n, 4)]
            assert [l.shape for l in cache.label_probs] == [(n, 3), (n, 3)]
            for m, feats in enumerate(cache.label_probs):
                missing = ds.view_indicator[:, m] == 0
                np.testing.assert_array_equal(feats.value[missing], 0.0)
            assert cache.scores.shape == (n, 3)
            assert np.all(cache.scores.value > 0) and np.all(cache.scores.value < 1)
            infer = forward_all(params, ds, None, training=False)
            assert infer.masked_views == []
            assert infer.recon == infer.instance_feats == infer.label_probs == []
            assert infer.scores.shape == (n, 3)

    def test_eval_forward_is_deterministic(self):
        params = make_params()
        ds = make_dataset()
        a = forward_all(params, ds, None, training=False)
        b = forward_all(params, ds, None, training=False)
        np.testing.assert_array_equal(a.scores.value, b.scores.value)

    def test_single_view_dataset_runs(self):
        ds = synth_dataset(5, 1, 2, dims=(4,), noise=0.1, seed=1)
        params = make_params(view_dims=(4,), n_labels=2)
        cache = forward_all(params, ds, None, training=False)
        assert cache.scores.shape == (5, 2)

    def test_masked_rows_do_not_affect_outputs(self):
        params = make_params()
        ds = make_dataset(n=8, missing=0.4)
        base = forward_all(params, ds, None, training=False).scores.value
        # perturb raw features of every masked view row
        tampered = [v.copy() for v in ds.views]
        for m in range(ds.n_views):
            rows = ds.view_indicator[:, m] == 0
            tampered[m][rows] = 123.456
        ds2 = MultiViewDataset.__new__(MultiViewDataset)
        ds2.views = tampered
        ds2.labels = ds.labels
        ds2.view_indicator = ds.view_indicator
        ds2.label_indicator = ds.label_indicator
        ds2.name = ds.name
        perturbed = forward_all(params, ds2, None, training=False).scores.value
        assert np.array_equal(base, perturbed)


class TestCheckFits:
    # A missing view is a 0 in the view indicator, never an absent view
    # column.  Before, a 3-view model scored a 2-view dataset of the same
    # widths (its view 2 went through encoder 1), and a 2-view model on a
    # 3-view dataset ended in a KeyError.
    @pytest.mark.parametrize("run", [
        lambda params, data: forward_all(params, data, training=True),
        lambda params, data: forward_all(params, data, training=False),
        channel_similarity,
    ], ids=["training-forward", "inference-forward", "channel-similarity"])
    @pytest.mark.parametrize("dims,c", [((4, 4), 3), ((4, 4, 4, 4), 3), ((4, 5, 4), 3),
                                        ((4, 4, 4), 2)],
                             ids=["fewer-views", "more-views", "other-widths", "other-labels"])
    def test_a_dataset_the_parameters_were_not_built_for_is_refused(self, run, dims, c):
        params = make_params(view_dims=(4, 4, 4), n_labels=3)
        data = synth_dataset(6, len(dims), c, dims=dims, noise=0.2, seed=0)
        expected = f"the parameters take views (4, 4, 4) with 3 labels; dataset has {dims} and {c}"
        with pytest.raises(ContractError, match=f"^{re.escape(expected)}$"):
            run(params, data)


def blocked_dataset(n=23):
    """A 3-view dataset for blocks of 5 or 10 rows: view 0 is missing from
    rows 5-9, so the block of rows 5-9 holds none of it, view 1 is observed on
    even rows and view 2 on rows 5-9 and 15 on.  Every view holds 0 or at
    least 2 observed rows in each such block, the ragged tail included."""
    vi = np.zeros((n, 3))
    vi[:, 0] = 1.0
    vi[5:10, 0] = 0.0
    vi[::2, 1] = 1.0
    vi[5:10, 2] = vi[15:, 2] = 1.0
    return apply_indicators(synth_dataset(n, 3, 3, dims=(4, 5, 3), noise=0.2, seed=0), vi, None)


class TestBlockedInference:
    @staticmethod
    def outputs(monkeypatch, params, ds, block):
        monkeypatch.setattr(md, "INFER_ROWS", block)
        cache = forward_all(params, ds, None, training=False)
        return cache, channel_similarity(params, ds)

    @pytest.mark.parametrize("block", [5, 10])
    def test_blocks_are_bitwise_one_pass(self, monkeypatch, block):
        params = make_params(view_dims=(4, 5, 3))
        ds = blocked_dataset()
        one, one_sim = self.outputs(monkeypatch, params, ds, ds.n_samples)
        got, got_sim = self.outputs(monkeypatch, params, ds, block)
        assert got.scores.value.tobytes() == one.scores.value.tobytes()
        assert got_sim.tobytes() == one_sim.tobytes()
        assert got.recon == got.instance_feats == got.label_probs == []

    def test_overflow_in_a_later_block_is_the_forward_error(self, monkeypatch):
        # At 1e85 times the initial parameters, the scores of rows of values
        # near 1 stay finite; the one row holding 1e60 overflows.
        params = make_params(view_dims=(4, 5, 3))
        params.vector *= 1e85
        ds = blocked_dataset()
        ds.views[0][21, 0] = 1e60  # within VIEW_MAX, so a valid dataset
        monkeypatch.setattr(md, "INFER_ROWS", 5)
        assert np.isfinite(forward_all(params, ds.subset(np.arange(20))).scores.value).all()
        messages = []
        for block in (5, ds.n_samples):
            monkeypatch.setattr(md, "INFER_ROWS", block)
            with pytest.raises(ContractError, match=r"^forward: overflow encountered in \w+; the "
                                                    "parameters or the input values are out of "
                                                    "range$") as err:
                forward_all(params, ds)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("block", [4, 22])
    def test_channel_similarity_is_one_pass_at_any_block(self, monkeypatch, block):
        # Blocks of 22 leave row 22 alone, whose features a blocked forward
        # would compute as matrix-vector products; the heatmap reads none.
        params = make_params(view_dims=(4, 5, 3))
        ds = blocked_dataset()
        _, one = self.outputs(monkeypatch, params, ds, ds.n_samples)
        _, got = self.outputs(monkeypatch, params, ds, block)
        assert got.tobytes() == one.tobytes()

    def test_memory_does_not_grow_with_the_rows(self):
        # Only the N x C scores span all rows: 8 blocks peak below twice
        # what one block does.
        params = ModelParams.initialize(np.random.default_rng(0), (32, 32, 32), 6, 32, 64)
        peaks = []
        for n in (md.INFER_ROWS, 8 * md.INFER_ROWS):
            ds = synth_dataset(n, 3, 6, 32, noise=1.0, seed=1)
            vi, _ = generate_indicators(n, 3, 6, 0.3, 0.0, seed=2)
            ds = apply_indicators(ds, vi, None)
            tracemalloc.start()
            try:
                forward_all(params, ds, None, training=False)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0]

    @pytest.mark.parametrize("block,singles", [(4, 2), (22, 1)])
    def test_a_block_with_one_observed_row_of_a_view(self, monkeypatch, block, singles):
        # numpy computes a one-row product as a matrix-vector product, which
        # can round differently from the matrix product of one pass.  Blocks of
        # 4 leave view 0 one row in rows 4-7 and view 2 one in rows 12-15;
        # blocks of 22 leave row 22 alone.  Such a block's scores are bitwise
        # those of a forward on its rows alone, and within 1e-14 of one pass;
        # every other block's are bitwise those of one pass.
        params = make_params(view_dims=(4, 5, 3))
        ds = blocked_dataset()
        n = ds.n_samples
        one, _ = self.outputs(monkeypatch, params, ds, n)
        got, _ = self.outputs(monkeypatch, params, ds, block)
        again, _ = self.outputs(monkeypatch, params, ds, block)
        assert got.scores.value.tobytes() == again.scores.value.tobytes()
        singles_seen = 0
        for start in range(0, n, block):
            rows = np.arange(start, min(start + block, n))
            counts = ds.view_indicator[rows].sum(axis=0)
            monkeypatch.setattr(md, "INFER_ROWS", n)
            alone = forward_all(params, ds.subset(rows)).scores.value
            assert got.scores.value[rows].tobytes() == alone.tobytes()
            if 1 in counts:
                singles_seen += 1
                np.testing.assert_allclose(got.scores.value[rows], one.scores.value[rows],
                                           rtol=1e-14, atol=0)
            else:
                assert got.scores.value[rows].tobytes() == one.scores.value[rows].tobytes()
        assert singles_seen == singles


class TestObservedRows:
    """A forward reads each view's column of the indicator once, in
    ``observed_rows``, and passes the row sets down."""

    @staticmethod
    def count_flatnonzero(monkeypatch):
        calls = []
        real = np.flatnonzero

        def counting(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(np, "flatnonzero", counting)
        return calls

    def test_a_training_forward_derives_each_view_once(self, monkeypatch):
        params = make_params()
        ds = make_dataset(n=12, missing=0.4)
        bank = MaskBank.generate(ds.n_samples, ds.view_dims, 0.3, seed=2)
        calls = self.count_flatnonzero(monkeypatch)
        forward_all(params, ds, bank, training=True)
        assert len(calls) == ds.n_views

    def test_a_blocked_inference_forward_derives_each_view_once(self, monkeypatch):
        params = make_params(view_dims=(4, 5, 3))
        ds = blocked_dataset()
        monkeypatch.setattr(md, "INFER_ROWS", 5)
        calls = self.count_flatnonzero(monkeypatch)
        forward_all(params, ds, None, training=False)
        assert len(calls) == ds.n_views

    def test_channel_similarity_derives_each_view_once(self, monkeypatch):
        params = make_params(view_dims=(4, 5, 3))
        ds = blocked_dataset()
        calls = self.count_flatnonzero(monkeypatch)
        channel_similarity(params, ds)
        assert len(calls) == ds.n_views


class TestRowCompaction:
    ROLES = ("shared_encoder", "private_encoder", "decoder", "instance_head", "label_head")

    @staticmethod
    def tally_rows(monkeypatch, params):
        """Count, per MLP role, the rows every call of that role receives;
        a call's role is the layout prefix of its hidden weight."""
        roles = {id(p): name.split(".")[0] for name, p in params.named_parameters()
                 if name.endswith(".hidden.weight")}
        seen = dict.fromkeys(TestRowCompaction.ROLES, 0)
        call = md.nm.mlp

        def counting(x, w1, *rest):
            seen[roles[id(w1)]] += x.rows
            return call(x, w1, *rest)

        monkeypatch.setattr(md.nm, "mlp", counting)
        return seen

    def test_training_forward_runs_each_mlp_on_observed_rows(self, monkeypatch):
        params = make_params()
        ds = make_dataset(n=12, missing=0.4)
        observed = int(ds.view_indicator.sum())
        assert observed < ds.n_samples * ds.n_views
        seen = self.tally_rows(monkeypatch, params)
        bank = MaskBank.generate(ds.n_samples, ds.view_dims, 0.3, seed=2)
        forward_all(params, ds, bank, training=True)
        assert seen == dict.fromkeys(self.ROLES, observed)

    def test_inference_runs_no_decoder_and_no_head(self, monkeypatch):
        params = make_params()
        ds = make_dataset(n=12, missing=0.4)
        observed = int(ds.view_indicator.sum())
        seen = self.tally_rows(monkeypatch, params)
        forward_all(params, ds, None, training=False)
        assert seen == dict(shared_encoder=observed, private_encoder=observed,
                            decoder=0, instance_head=0, label_head=0)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        params = make_params(seed=42)
        path = tmp_path / "ckpt.json"
        md.save_checkpoint(path, params, seed=42, epoch=7, config={"lr": 0.001})
        loaded, meta = md.load_checkpoint(path)
        for (na, a), (nb, b) in zip(params.named_parameters(), loaded.named_parameters()):
            assert na == nb
            assert np.array_equal(a.value, b.value)
        assert meta["seed"] == 42 and meta["epoch"] == 7

    def test_save_is_byte_identical(self, tmp_path):
        params = make_params(seed=1)
        md.save_checkpoint(tmp_path / "a.json", params, seed=1, epoch=0)
        md.save_checkpoint(tmp_path / "b.json", params, seed=1, epoch=0)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @settings(max_examples=25)
    @given(dims=st.lists(st.integers(1, 4), min_size=1, max_size=3), n_labels=st.integers(1, 4),
           embed=st.integers(1, 4), hidden=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e300]))
    def test_round_trip_of_the_vector_bitwise(self, tmp_path_factory, dims, n_labels, embed,
                                              hidden, seed, scale):
        params = ModelParams.allocate(tuple(dims), n_labels, embed, hidden)
        rng = np.random.default_rng(seed)
        params.vector[:] = rng.normal(size=params.vector.size) * scale
        params.vector[rng.random(params.vector.size) < 0.1] = -0.0
        folder = tmp_path_factory.mktemp("ckpt", numbered=True)
        md.save_checkpoint(folder / "a.json", params, seed=seed, epoch=1)
        loaded, _ = md.load_checkpoint(folder / "a.json")
        assert loaded.vector.tobytes() == params.vector.tobytes()
        md.save_checkpoint(folder / "b.json", loaded, seed=seed, epoch=1)
        assert (folder / "a.json").read_bytes() == (folder / "b.json").read_bytes()

    def test_subnormals_and_signed_zeros_round_trip_bitwise(self, tmp_path):
        params = make_params()
        tiny = np.array([5e-324, -5e-324, 2.2e-308, -1e-310, 0.0, -0.0])
        params.vector[:] = np.resize(tiny, params.vector.size)
        md.save_checkpoint(tmp_path / "a.json", params, seed=0, epoch=0)
        loaded, _ = md.load_checkpoint(tmp_path / "a.json")
        assert loaded.vector.tobytes() == params.vector.tobytes()
        md.save_checkpoint(tmp_path / "b.json", loaded, seed=0, epoch=0)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("meta,field", [
        ({"seed": 1.5}, "seed"), ({"seed": True}, "seed"),
        ({"epoch": np.float64(2.0)}, "epoch"), ({"epoch": False}, "epoch"),
        ({"config": "not a config"}, "config"), ({"config": {"lr": np.float32(1.0)}}, None),
    ], ids=["float-seed", "bool-seed", "np-float-epoch", "bool-epoch",
            "str-config", "unserializable-config"])
    def test_refused_save_leaves_the_old_file_whole(self, tmp_path, meta, field):
        # Saving opened the file before serializing, so a value json cannot
        # write left it empty, and a float seed wrote a file loading refuses.
        path = tmp_path / "ckpt.json"
        md.save_checkpoint(path, make_params(), seed=0, epoch=3)
        old = path.read_bytes()
        with pytest.raises(ContractError if field else TypeError,
                           match=f"^save_checkpoint: {field} must be" if field else None):
            md.save_checkpoint(path, make_params(seed=1), **{"seed": 0, "epoch": 3, **meta})
        assert path.read_bytes() == old

    def test_integral_seed_and_epoch_are_saved_as_int(self, tmp_path):
        path = tmp_path / "ckpt.json"
        md.save_checkpoint(path, make_params(), seed=np.int64(5), epoch=np.uint8(2))
        _, meta = md.load_checkpoint(path)
        assert (meta["seed"], meta["epoch"]) == (5, 2)
        assert type(meta["seed"]) is int and type(meta["epoch"]) is int

    @staticmethod
    def _saved(path, params=None):
        """Save a checkpoint and return its JSON document."""
        md.save_checkpoint(path, params or make_params(), seed=0, epoch=0)
        return json.loads(path.read_text())

    @staticmethod
    def _store(doc, at, value):
        """Write ``value`` as entry ``at`` of the document's parameter vector."""
        raw = bytearray(base64.b64decode(doc["vector"]))
        raw[8 * at:8 * at + 8] = struct.pack("<d", value)
        doc["vector"] = base64.b64encode(raw).decode()

    def test_width_tamper_rejected(self, tmp_path):
        # The layout comes from the widths alone: other widths need another
        # number of values than the vector holds.
        params, path = make_params(), tmp_path / "ckpt.json"
        doc = self._saved(path, params)
        doc["n_labels"] += 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"^checkpoint {re.escape(str(path))}: vector "
                                                  f"holds {8 * params.vector.size} bytes, the "):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_rejected(self, tmp_path, value):
        params = make_params()
        path = tmp_path / "ckpt.json"
        doc = self._saved(path, params)
        self._store(doc, dict(params.named_slices())["classifier.bias"].start + 1, value)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="classifier.bias has non-finite"):
            md.load_checkpoint(path)

    @settings(max_examples=60)
    @given(data=st.data(), edit=st.sampled_from(["truncate", "insert", "non-finite"]))
    def test_corrupt_vector_is_a_validation_error(self, tmp_path_factory, data, edit):
        params = make_params()
        path = tmp_path_factory.mktemp("ckpt", numbered=True) / "ckpt.json"
        doc = self._saved(path, params)
        text = doc["vector"]
        if edit == "truncate":
            k = data.draw(st.integers(1, len(text)), label="k")
            doc["vector"] = text[:-k]
        elif edit == "insert":
            at = data.draw(st.integers(0, len(text)), label="at")
            char = data.draw(st.sampled_from("!-_.~ \n=é\x00"), label="char")
            doc["vector"] = text[:at] + char + text[at:]
        else:
            at = data.draw(st.integers(0, params.vector.size - 1), label="index")
            self._store(doc, at, data.draw(st.sampled_from([np.nan, np.inf, -np.inf])))
            name = next(name for name, part in params.named_slices() if part.start <= at < part.stop)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"^checkpoint {re.escape(str(path))}: ") as err:
            md.load_checkpoint(path)
        if edit == "non-finite":
            assert str(err.value).endswith(f": {name} has non-finite values")
