import dataclasses
import importlib
import sys
import threading

import numpy as np
import pytest

from mvmlc.data import MultiViewDataset, apply_indicators, generate_indicators, synth_dataset
from mvmlc.errors import ConfigError, ContractError
from mvmlc.losses import label_availability_gate
from mvmlc.model import forward_all
from mvmlc.numerics import Matrix, Tape, backward, gradient_check
from mvmlc.train import (
    AdamState,
    TrainConfig,
    adam_step,
    channel_similarity,
    init_params,
    train,
)
from mvmlc.train import _epoch_losses

from oracles import cos01_oracle


def small_dataset(n=12, v=2, c=3, seed=0, view_missing=0.0, label_missing=0.0):
    ds = synth_dataset(n, v, c, dims=tuple([5] * v), noise=0.3, seed=seed)
    if view_missing or label_missing:
        vi, wi = generate_indicators(n, v, c, view_missing, label_missing, seed=seed + 1)
        ds = apply_indicators(ds, vi, wi)
    return ds


def small_config(**overrides):
    base = dict(epochs=3, embed_dim=4, hidden_dim=6, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(alpha=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(tau_s=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(label_gate_mode="wrong")

    @pytest.mark.parametrize("field,value", [
        ("epochs", "5"), ("epochs", 2.0), ("seed", True), ("learning_rate", "0.1"),
        ("fixed_mask", 1), ("label_gate_mode", 0),
    ])
    def test_field_of_wrong_type_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_field_rejected(self, value):
        names = [f.name for f in dataclasses.fields(TrainConfig) if type(f.default) is float]
        assert "learning_rate" in names and "adam_eps" in names
        for name in names:
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                TrainConfig(**{name: value})

    @pytest.mark.parametrize("field,value", [
        ("adam_beta1", 1.0), ("adam_beta1", -0.1), ("adam_beta2", 1.0), ("adam_beta2", -1e-9),
        ("adam_eps", 0.0), ("adam_eps", -1e-8),
    ])
    def test_adam_hyperparameter_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    def test_numeric_fields_accept_any_real_number(self):
        cfg = TrainConfig(epochs=np.int64(2), learning_rate=1, seed=np.int32(3))
        assert (cfg.epochs, cfg.learning_rate, cfg.seed) == (2, 1, 3)


class TestInitParams:
    def test_deterministic(self):
        cfg = small_config()
        a = init_params(cfg, (5, 5), 3)
        b = init_params(cfg, (5, 5), 3)
        for (_, x), (_, y) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(x.value, y.value)

    def test_shapes(self):
        params = init_params(small_config(), (5, 7), 3)
        assert params.view_dims == (5, 7)
        assert params.embed_dim == 4
        assert params.classifier_weight.shape == (4, 3)

    def test_different_seeds_differ(self):
        a = init_params(small_config(seed=0), (5,), 2)
        b = init_params(small_config(seed=1), (5,), 2)
        assert not np.array_equal(a.classifier_weight.value, b.classifier_weight.value)

    def test_invalid_dims(self):
        with pytest.raises(ConfigError):
            init_params(small_config(), (), 3)


class TestAdamStep:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = Matrix(np.ones((2, 2)))
        state = AdamState.initialize([p])
        adam_step([p], [np.zeros((2, 2))], state, lr=0.1)
        np.testing.assert_array_equal(p.value, np.ones((2, 2)))
        assert state.step == 1

    def test_first_step_magnitude_is_lr(self):
        p = Matrix(0.0)
        state = AdamState.initialize([p])
        adam_step([p], [np.ones((1, 1))], state, lr=1e-3, eps=1e-8)
        assert p.value[0, 0] == pytest.approx(-1e-3, rel=1e-6)

    def test_two_runs_identical(self):
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=(3, 3)) for _ in range(5)]

        def run():
            p = Matrix(np.ones((3, 3)))
            state = AdamState.initialize([p])
            for g in grads:
                adam_step([p], [g], state, lr=0.01)
            return p.value.copy()

        assert np.array_equal(run(), run())

    def test_shape_mismatch_rejected(self):
        p = Matrix(np.ones((2, 2)))
        state = AdamState.initialize([p])
        with pytest.raises(ContractError):
            adam_step([p], [np.zeros((3, 3))], state, lr=0.1)


class TestTrainLoop:
    def test_single_epoch_logs_one_record(self):
        ds = small_dataset()
        result = train(ds, small_config(epochs=1))
        assert len(result.log.records) == 1
        assert result.log.records[0].epoch == 1
        assert np.isfinite(result.log.records[0].losses.total)

    def test_seed_determinism_bitwise(self):
        ds = small_dataset(view_missing=0.3, label_missing=0.3)
        cfg = small_config(epochs=4)
        a = train(ds, cfg)
        b = train(ds, cfg)
        for (_, x), (_, y) in zip(a.params.named_parameters(), b.params.named_parameters()):
            assert np.array_equal(x.value, y.value)
        for ra, rb in zip(a.log.records, b.log.records):
            assert ra.losses.total == rb.losses.total

    def test_backbone_mode_skips_auxiliary_terms(self):
        ds = small_dataset()
        result = train(ds, small_config(alpha=0.0, beta=0.0, gamma=0.0))
        last = result.log.records[-1].losses
        assert last.instance_contrast == 0.0
        assert last.label_contrast == 0.0
        assert last.reconstruction == 0.0
        assert last.total == last.classification

    def test_backbone_matches_zero_weight_gradients(self):
        # skipping a zero-weighted term must not change the trajectory
        ds = small_dataset()
        cfg = small_config(alpha=0.0, beta=0.0, gamma=0.0, epochs=2)
        result = train(ds, cfg)

        # replicate the loop, computing every term and scaling by zero
        from mvmlc import losses as ls
        from mvmlc.data import MaskBank
        from mvmlc.model import ModelParams

        rng = np.random.default_rng(cfg.seed)
        params = ModelParams.initialize(rng, ds.view_dims, ds.n_labels,
                                        cfg.embed_dim, cfg.hidden_dim)
        leaves = params.parameters()
        state = AdamState.initialize(leaves)
        gate = label_availability_gate(ds.label_indicator, ds.view_indicator)

        for _ in range(cfg.epochs):
            bank = MaskBank.generate(ds.n_samples, ds.view_dims, cfg.mask_ratio,
                                     seed=int(rng.integers(2 ** 63)))
            with Tape() as tape:
                cache = forward_all(params, ds, bank, training=True)
                clf = ls.classification_loss(cache.scores, ds.labels, ds.label_indicator)
                inst = ls.instance_contrastive(cache.instance_feats, ds.view_indicator, cfg.tau_s).loss
                lab = ls.label_contrastive(cache.label_probs, gate, ds.view_indicator, cfg.tau_l).loss
                rec = ls.reconstruction_loss(cache.recon, cache.masked_views, ds.view_indicator)
                combined = clf + 0.0 * inst + 0.0 * lab + 0.0 * rec
                grads = backward(tape, combined, leaves)
            adam_step(leaves, grads, state, cfg.learning_rate,
                      cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
        for (_, x), (_, y) in zip(result.params.named_parameters(), params.named_parameters()):
            assert np.array_equal(x.value, y.value)

    def test_fixed_mask_differs_from_fresh_masks(self):
        ds = small_dataset()
        fresh = train(ds, small_config(epochs=3, mask_ratio=0.4))
        fixed = train(ds, small_config(epochs=3, mask_ratio=0.4, fixed_mask=True))
        assert not np.array_equal(fresh.params.classifier_weight.value,
                                  fixed.params.classifier_weight.value)

    def test_minibatch_mode_runs(self):
        ds = small_dataset(n=10)
        result = train(ds, small_config(epochs=2, batch_size=4))
        assert len(result.log.records) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_component_name(self):
        ds = small_dataset()
        with pytest.raises(ContractError, match="loss component"):
            train(ds, small_config(epochs=30, learning_rate=1e150))

    def test_nonfinite_gradient_aborts_before_adam_naming_parameter(self, monkeypatch):
        train_mod = importlib.import_module("mvmlc.train")  # the package re-exports train()

        def nan_backward(tape, loss, params):
            grads = backward(tape, loss, params)
            grads[3] = np.full_like(grads[3], np.nan)
            return grads

        stepped = []
        monkeypatch.setattr(train_mod, "backward", nan_backward)
        monkeypatch.setattr(train_mod, "adam_step", lambda *args: stepped.append(args))
        with pytest.raises(ContractError, match="gradient of 'shared_encoder.0.out.bias'"):
            train(small_dataset(), small_config(epochs=1))
        assert stepped == []

    def test_threaded_runs_match_sequential_runs_bitwise(self):
        ds = small_dataset(n=200, v=3, c=4)
        configs = [small_config(epochs=8, seed=seed) for seed in (1, 2, 3)]

        def fingerprint(result):
            losses = [repr(v) for r in result.log.records for v in r.losses.components().values()]
            return losses, [p.value.tobytes() for p in result.params.parameters()]

        sequential = [fingerprint(train(ds, cfg)) for cfg in configs]
        threaded = [None] * len(configs)
        start = threading.Barrier(len(configs))

        def run(i):
            start.wait(timeout=60)
            threaded[i] = fingerprint(train(ds, configs[i]))

        workers = [threading.Thread(target=run, args=(i,)) for i in range(len(configs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert threaded == sequential

    def test_eval_every_attaches_reports(self):
        ds = small_dataset(n=14)
        result = train(ds, small_config(epochs=4), eval_data=ds, eval_every=2)
        reports = [r.report for r in result.log.records]
        assert reports[0] is None and reports[1] is not None
        assert reports[3] is not None

    def test_negative_eval_every_rejected(self):
        ds = small_dataset()
        with pytest.raises(ConfigError, match="eval_every"):
            train(ds, small_config(epochs=1), eval_data=ds, eval_every=-1)

    def test_snapshot_epochs_collected(self):
        ds = small_dataset()
        result = train(ds, small_config(epochs=2), snapshot_epochs=(0, 2))
        assert set(result.snapshots) == {0, 2}

    def test_snapshot_beyond_schedule_rejected(self):
        ds = small_dataset()
        with pytest.raises(ConfigError, match="snapshot epoch 5"):
            train(ds, small_config(epochs=2), snapshot_epochs=(5,))


class TestTrainLogCsv:
    def test_timing_column_is_opt_in(self, tmp_path):
        ds = small_dataset()
        result = train(ds, small_config(epochs=2))
        plain = tmp_path / "log.csv"
        timed = tmp_path / "log_timed.csv"
        result.log.write_csv(plain)
        result.log.write_csv(timed, include_timing=True)
        assert "wall_ms" not in plain.read_text()
        assert "wall_ms" in timed.read_text()

    def test_loss_columns_follow_components(self):
        result = train(small_dataset(), small_config(epochs=2, batch_size=5))
        lines = result.log.csv_lines()
        components = result.log.records[0].losses.components()
        assert lines[0] == ",".join(["epoch", *components])
        assert lines[1] == ",".join(["1", *map(repr, components.values())])

    def test_deterministic_without_timing(self, tmp_path):
        ds = small_dataset()
        cfg = small_config(epochs=2)
        a, b = train(ds, cfg), train(ds, cfg)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.log.write_csv(pa)
        b.log.write_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()


class TestEndToEndGradients:
    def test_full_objective_matches_finite_differences(self):
        ds = small_dataset(n=8, v=2, c=3, view_missing=0.25, label_missing=0.3)
        cfg = small_config(alpha=0.1, beta=0.1, gamma=0.1, tau_s=0.5, tau_l=0.5)
        params = init_params(cfg, ds.view_dims, ds.n_labels)
        gate = label_availability_gate(ds.label_indicator, ds.view_indicator)
        from mvmlc.data import MaskBank
        bank = MaskBank.generate(ds.n_samples, ds.view_dims, 0.3, seed=7)

        def objective(_):
            return _epoch_losses(params, ds, bank, gate, cfg)[0]

        report = gradient_check(objective, params.parameters(), step=1e-5, tol=1e-4)
        assert report.passed, f"max rel err {report.max_rel_err}"

    def test_fully_missing_view_row_never_affects_gradients(self):
        ds = small_dataset(n=8, view_missing=0.4, label_missing=0.3)
        cfg = small_config()
        params = init_params(cfg, ds.view_dims, ds.n_labels)
        gate = label_availability_gate(ds.label_indicator, ds.view_indicator)

        def grads_for(data):
            with Tape() as tape:
                combined, _ = _epoch_losses(params, data, None, gate, cfg)
                return backward(tape, combined, params.parameters())

        base = grads_for(ds)
        tampered_views = [v.copy() for v in ds.views]
        for m in range(ds.n_views):
            rows = ds.view_indicator[:, m] == 0
            tampered_views[m][rows] = 77.7
        tampered = MultiViewDataset.__new__(MultiViewDataset)
        tampered.views = tampered_views
        tampered.labels = ds.labels
        tampered.view_indicator = ds.view_indicator
        tampered.label_indicator = ds.label_indicator
        tampered.name = ds.name
        perturbed = grads_for(tampered)
        for g1, g2 in zip(base, perturbed):
            assert np.array_equal(g1, g2)


class TestNoiseFreeRecovery:
    def test_training_on_clean_data_reaches_high_ap(self):
        from mvmlc.metrics import evaluate_all

        ds = synth_dataset(60, 2, 3, dims=(8, 8), noise=0.0, seed=4)
        cfg = TrainConfig(epochs=120, embed_dim=16, hidden_dim=32, seed=0,
                          mask_ratio=0.2, alpha=0.01, beta=0.01, gamma=0.001)
        result = train(ds, cfg)
        scores = forward_all(result.params, ds, None, training=False).scores.value
        report = evaluate_all(scores, ds.labels)
        assert report.ap > 0.95


class TestChannelSimilarity:
    def test_shape_symmetry_unit_diagonal(self):
        ds = small_dataset(n=10, v=3)
        ds_params = init_params(small_config(), ds.view_dims, ds.n_labels)
        sim = channel_similarity(ds_params, ds)
        assert sim.shape == (6, 6)
        np.testing.assert_array_equal(sim, sim.T)
        np.testing.assert_array_equal(np.diag(sim), np.ones(6))

    def test_values_in_unit_interval(self):
        ds = small_dataset(n=10, v=2, view_missing=0.3)
        params = init_params(small_config(), ds.view_dims, ds.n_labels)
        sim = channel_similarity(params, ds)
        assert np.all(sim >= 0.0) and np.all(sim <= 1.0)

    def test_matches_cosine_oracle_on_channel_means(self):
        # Views 0 and 1 hold the same data through the same shared encoder,
        # so shared channels 0 and 1 coincide; view 2 has no available row,
        # so shared channel 2 and private channel 5 are zero.
        base = small_dataset(n=10, v=3)
        vi = np.ones((10, 3))
        vi[:, 2] = 0.0
        ds = MultiViewDataset(views=[base.views[0], base.views[0], np.zeros((10, 5))],
                              labels=base.labels, view_indicator=vi,
                              label_indicator=base.label_indicator)
        params = init_params(small_config(), ds.view_dims, ds.n_labels)
        params.shared_encoders[1] = params.shared_encoders[0]
        sim = channel_similarity(params, ds)

        cache = forward_all(params, ds, None, training=False)
        means = [f.value[vi[:, m] == 1].mean(axis=0) if vi[:, m].any() else np.zeros(f.cols)
                 for feats in (cache.shared, cache.private) for m, f in enumerate(feats)]
        want = np.array([[1.0 if i == j else cos01_oracle(a, b) for j, b in enumerate(means)]
                         for i, a in enumerate(means)])
        np.testing.assert_allclose(sim, want, rtol=0, atol=1e-15)
        assert sim[0, 1] == pytest.approx(1.0, abs=1e-15)
        for zero in (2, 5):
            others = [j for j in range(6) if j != zero]
            np.testing.assert_array_equal(sim[zero, others], 0.5)
            np.testing.assert_array_equal(sim[others, zero], 0.5)
