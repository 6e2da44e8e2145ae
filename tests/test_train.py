import dataclasses
import importlib
import re
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmlc.data import MaskBank, MultiViewDataset, apply_indicators, generate_indicators, synth_dataset
from mvmlc.errors import ConfigError, ContractError
from mvmlc.losses import label_availability_gate
from mvmlc.model import ModelParams, encode, forward_all, load_checkpoint, save_checkpoint
from mvmlc.numerics import Matrix, Tape, backward
from mvmlc.train import (
    ADAM_CHUNK,
    TAU_MIN,
    AdamState,
    TrainConfig,
    adam_step,
    channel_similarity,
    knob_domain,
    train,
)
from mvmlc.train import _epoch_losses

from oracles import adam_oracle, cos01_oracle, gradient_check


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


def small_params(view_dims, n_labels, seed=0):
    """The parameters train() starts from under small_config(seed=seed)."""
    cfg = small_config(seed=seed)
    return ModelParams.initialize(np.random.default_rng(seed), view_dims, n_labels,
                                  cfg.embed_dim, cfg.hidden_dim)


# Each TrainConfig field with a domain, as its refusal writes the domain.
DOMAINS = {
    "epochs": ">= 1", "learning_rate": "> 0", "adam_beta1": "in [0, 1)",
    "adam_beta2": "in [0, 1)", "adam_eps": "> 0", "alpha": ">= 0", "beta": ">= 0", "gamma": ">= 0",
    "tau_s": f">= {TAU_MIN}", "tau_l": f">= {TAU_MIN}", "mask_ratio": "in [0, 1)",
    "embed_dim": ">= 1", "hidden_dim": ">= 1", "batch_size": ">= 0", "seed": ">= 0",
    "label_gate_mode": "'view' or 'label'",
}


def _nearest_outside(f) -> list:
    """The value nearest each bound of field ``f``'s domain that lies outside
    it: the bound itself for ``above`` and ``below``, one below an integer
    ``at_least`` and the next float below a float one; a named value that is
    not one of the ``choices``."""
    m = f.metadata
    if m["choices"] is not None:
        return [m["choices"][0].upper()]
    values = [m[key] for key in ("above", "below") if m[key] is not None]
    if m["at_least"] is not None:
        values.append(m["at_least"] - 1 if type(f.default) is int
                      else np.nextafter(m["at_least"], -np.inf))
    return values


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
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig(seed=-1)

    def test_from_dict_fills_defaults_and_names_unknown_fields_sorted(self):
        assert TrainConfig.from_dict({"epochs": 3, "tau_s": 0.3}) == TrainConfig(epochs=3, tau_s=0.3)
        with pytest.raises(ConfigError, match=r"^unknown fields \['bogus', 'zeta'\]$"):
            TrainConfig.from_dict({"zeta": 1, "epochs": 3, "bogus": 2})
        with pytest.raises(ConfigError, match=r"^not a JSON object: \['epochs'\]$"):
            TrainConfig.from_dict(["epochs"])

    @pytest.mark.parametrize("field,value", [
        ("epochs", "5"), ("epochs", 2.0), ("seed", True), ("learning_rate", "0.1"),
        ("fixed_mask", 1), ("label_gate_mode", 0),
    ])
    def test_field_of_wrong_type_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), np.float64("nan")],
                             ids=["nan", "inf", "-inf", "numpy nan"])
    def test_non_finite_float_field_rejected(self, value):
        # The value prints plain: numpy 2's repr of np.float64("nan") is
        # "np.float64(nan)".
        names = [f.name for f in dataclasses.fields(TrainConfig) if type(f.default) is float]
        assert "learning_rate" in names and "adam_eps" in names
        for name in names:
            with pytest.raises(ConfigError, match=f"^{name} must be finite, got {value}$"):
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

    def test_numpy_values_are_stored_plain_and_saved(self, tmp_path):
        cfg = TrainConfig(epochs=np.int64(2), learning_rate=np.float64(0.01), seed=np.int32(3),
                          alpha=np.float32(0.5), embed_dim=4, hidden_dim=6)
        assert (type(cfg.epochs), type(cfg.learning_rate), type(cfg.alpha)) == (int, float, float)
        params = ModelParams.initialize(np.random.default_rng(0), (5, 5), 3, 4, 6)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, params, seed=cfg.seed, epoch=cfg.epochs, config=cfg.to_dict())
        _, meta = load_checkpoint(path)
        assert TrainConfig(**meta["config"]) == cfg
        assert (meta["seed"], meta["epoch"]) == (3, 2)

    @pytest.mark.parametrize("field", ["tau_s", "tau_l"])
    def test_temperature_floor(self, field):
        assert getattr(TrainConfig(**{field: TAU_MIN}), field) == TAU_MIN
        for value in (np.nextafter(TAU_MIN, 0.0), 1e-3, 1e-16, 0.0, -0.5):
            with pytest.raises(ConfigError, match=f"^{field} must be >= {TAU_MIN}, got "):
                TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma"])
    def test_negative_loss_weight_named(self, field):
        with pytest.raises(ConfigError, match=f"^{field} must be >= 0, got -0.25$"):
            TrainConfig(**{field: -0.25})

    def test_every_field_but_the_bool_has_a_domain(self):
        assert {f.name for f in dataclasses.fields(TrainConfig) if knob_domain(f)} == set(DOMAINS)

    @pytest.mark.parametrize("name,value", [
        (f.name, value) for f in dataclasses.fields(TrainConfig) for value in _nearest_outside(f)])
    def test_default_is_accepted_and_the_nearest_value_outside_refused(self, name, value):
        TrainConfig(**{name: getattr(TrainConfig, name)})
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be "
                                              f"{re.escape(DOMAINS[name])}, got "):
            TrainConfig(**{name: value})


class TestInitParams:
    def test_deterministic(self):
        a = small_params((5, 5), 3)
        b = small_params((5, 5), 3)
        for (_, x), (_, y) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(x.value, y.value)

    def test_shapes(self):
        params = small_params((5, 7), 3)
        assert params.view_dims == (5, 7)
        assert params.embed_dim == 4
        assert params["classifier.weight"].shape == (4, 3)

    def test_different_seeds_differ(self):
        a = small_params((5,), 2, seed=0)
        b = small_params((5,), 2, seed=1)
        assert not np.array_equal(a["classifier.weight"].value, b["classifier.weight"].value)


class TestAdamStep:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = np.ones(4)
        state = AdamState.initialize(4)
        adam_step(p, np.zeros(4), state, lr=0.1)
        np.testing.assert_array_equal(p, np.ones(4))
        assert state.step == 1

    def test_first_step_magnitude_is_lr(self):
        p = np.zeros(1)
        state = AdamState.initialize(1)
        adam_step(p, np.ones(1), state, lr=1e-3, eps=1e-8)
        assert p[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_two_runs_identical(self):
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=9) for _ in range(5)]

        def run():
            p = np.ones(9)
            state = AdamState.initialize(9)
            for g in grads:
                adam_step(p, g, state, lr=0.01)
            return p

        assert np.array_equal(run(), run())

    def test_shape_mismatch_rejected(self):
        p = np.ones(4)
        with pytest.raises(ContractError):
            adam_step(p, np.zeros(9), AdamState.initialize(4), lr=0.1)
        with pytest.raises(ContractError):
            adam_step(p, np.zeros(4), AdamState.initialize(9), lr=0.1)

    def test_matches_per_array_oracle_bitwise_on_model_layout(self):
        params = small_params((5, 7, 3), 4)
        arrays = [p.value.copy() for p in params.parameters()]
        first = [np.zeros_like(a) for a in arrays]
        second = [np.zeros_like(a) for a in arrays]
        state = AdamState.initialize(params.vector.size)
        rng = np.random.default_rng(8)
        for step in range(1, 7):
            grads = [rng.normal(scale=10.0 ** rng.integers(-6, 3), size=a.shape) for a in arrays]
            adam_step(params.vector, np.concatenate(grads, axis=None), state, lr=0.01)
            adam_oracle(arrays, grads, first, second, step, lr=0.01)
            assert params.vector.tobytes() == np.concatenate(arrays, axis=None).tobytes()
        assert state.first.tobytes() == np.concatenate(first, axis=None).tobytes()
        assert state.second.tobytes() == np.concatenate(second, axis=None).tobytes()

    def test_chunked_passes_match_per_array_oracle_bitwise(self):
        # Arrays straddle the chunk boundaries and the last chunk is short.
        rng = np.random.default_rng(3)
        shapes = [(ADAM_CHUNK // 3 + 1, 5), (7, 11), (1, ADAM_CHUNK - 2)]
        arrays = [rng.normal(size=shape) for shape in shapes]
        first = [np.zeros(shape) for shape in shapes]
        second = [np.zeros(shape) for shape in shapes]
        flat = np.concatenate(arrays, axis=None)
        assert 2 * ADAM_CHUNK < flat.size < 3 * ADAM_CHUNK
        state = AdamState.initialize(flat.size)
        for step in range(1, 4):
            grads = [rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape) for shape in shapes]
            adam_step(flat, np.concatenate(grads, axis=None), state, 0.01)
            adam_oracle(arrays, grads, first, second, step, 0.01)
        assert flat.tobytes() == np.concatenate(arrays, axis=None).tobytes()
        assert state.first.tobytes() == np.concatenate(first, axis=None).tobytes()
        assert state.second.tobytes() == np.concatenate(second, axis=None).tobytes()

    @pytest.mark.parametrize("index,grad,lr,what", [
        (5, 1e200, 1e-3, "a squared gradient overflows the Adam second moment"),
        (ADAM_CHUNK + 1, 10.0, 1e308, "the Adam update overflows"),
    ])
    def test_overflow_gives_its_index(self, index, grad, lr, what):
        # Each kind has one cause; only the rate scales the update.
        cause = {"the Adam update overflows": "lower the learning rate"}.get(
            what, "the input values, the loss weights or the learning rate are too large")
        g = np.full(ADAM_CHUNK + 3, 1e-3)
        g[index] = grad
        with pytest.raises(FloatingPointError) as err:
            adam_step(np.zeros(g.size), g, AdamState.initialize(g.size), lr)
        assert err.value.args == (what, cause, index)

    @settings(max_examples=40)
    @given(shapes=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1), steps=st.integers(1, 5),
           lr=st.floats(1e-4, 1.0), beta1=st.floats(0.0, 0.99), beta2=st.floats(0.0, 0.9999),
           eps=st.floats(1e-12, 1e-2))
    def test_matches_per_array_oracle_bitwise(self, shapes, seed, steps, lr, beta1, beta2, eps):
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(size=shape) for shape in shapes]
        first = [np.zeros(shape) for shape in shapes]
        second = [np.zeros(shape) for shape in shapes]
        flat = np.concatenate(arrays, axis=None)
        state = AdamState.initialize(flat.size)
        for step in range(1, steps + 1):
            grads = [rng.normal(size=shape) for shape in shapes]
            adam_step(flat, np.concatenate(grads, axis=None), state, lr, beta1, beta2, eps)
            adam_oracle(arrays, grads, first, second, step, lr, beta1, beta2, eps)
        assert flat.tobytes() == np.concatenate(arrays, axis=None).tobytes()


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
        state = AdamState.initialize(params.vector.size)
        gate = label_availability_gate(ds.label_indicator, ds.view_indicator)

        grad = np.empty_like(params.vector)
        for _ in range(cfg.epochs):
            bank = MaskBank.generate(ds.n_samples, ds.view_dims, cfg.mask_ratio,
                                     seed=int(rng.integers(2 ** 63)))
            with Tape() as tape:
                cache = forward_all(params, ds, bank, training=True)
                clf = ls.classification_loss(cache.scores, ds.labels, ds.label_indicator)
                inst = ls.instance_contrastive(cache.instance_feats, ds.view_indicator, cfg.tau_s).loss
                lab = ls.label_contrastive(cache.label_probs, gate, ds.view_indicator, cfg.tau_l).loss
                rec = ls.reconstruction_loss(cache.recon, cache.masked_views, ds.view_indicator)
                combined, _ = ls.total_loss(clf, inst, lab, rec, 0.0, 0.0, 0.0)
                backward(tape, combined, leaves, out=grad)
            adam_step(params.vector, grad, state, cfg.learning_rate,
                      cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
        for (_, x), (_, y) in zip(result.params.named_parameters(), params.named_parameters()):
            assert np.array_equal(x.value, y.value)

    def test_fixed_mask_differs_from_fresh_masks(self):
        ds = small_dataset()
        fresh = train(ds, small_config(epochs=3, mask_ratio=0.4))
        fixed = train(ds, small_config(epochs=3, mask_ratio=0.4, fixed_mask=True))
        assert not np.array_equal(fresh.params["classifier.weight"].value,
                                  fixed.params["classifier.weight"].value)

    def test_minibatch_mode_runs(self):
        ds = small_dataset(n=10)
        result = train(ds, small_config(epochs=2, batch_size=4))
        assert len(result.log.records) == 2

    @pytest.mark.parametrize("rows_per_batch", [1, 2])
    def test_batch_size_at_or_above_the_row_count_is_the_full_batch(self, tmp_path,
                                                                     rows_per_batch):
        # batch_size 0 and any size >= n give one batch of all rows in order.
        ds = small_dataset(view_missing=0.3, label_missing=0.3)
        full = train(ds, small_config())
        same = train(ds, small_config(batch_size=rows_per_batch * ds.n_samples))
        assert np.array_equal(full.params.vector, same.params.vector)
        full.log.write_csv(tmp_path / "full.csv")
        same.log.write_csv(tmp_path / "same.csv")
        assert (tmp_path / "full.csv").read_bytes() == (tmp_path / "same.csv").read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_component_name(self):
        ds = small_dataset()
        with pytest.raises(ContractError, match="loss component"):
            train(ds, small_config(epochs=30, learning_rate=1e150))

    def test_divergence_is_not_logged_as_skipped_anchors(self, caplog):
        # Overflowed features give NaN contrastive denominators: every anchor
        # still had keys, so none may be reported as having no comparison.
        ds = synth_dataset(40, 2, 3, dims=(6, 6), noise=0.1, seed=0)
        with pytest.raises(ContractError, match="^epoch 2: loss component 'loss_recon' is not finite$"):
            train(ds, small_config(learning_rate=1e100))
        assert not [r for r in caplog.records if "no available comparison" in r.getMessage()]

    def test_update_overflow_aborts_naming_parameter(self):
        with pytest.raises(ContractError, match=r"^epoch 1: the Adam update overflows at "
                                                r"'private_encoder\.0\.hidden\.weight'; "
                                                r"lower the learning rate$"):
            train(small_dataset(), small_config(epochs=1, gamma=100.0, learning_rate=1.7e308))

    def test_out_of_range_parameters_are_refused_after_training(self):
        # Untaped evaluation cannot tell the parameters from the input values.
        ds = small_dataset()
        params = small_params(ds.view_dims, ds.n_labels)
        params.vector *= 1e100
        sim = channel_similarity(params, ds)  # large finite channel means are scaled first
        assert np.isfinite(sim).all() and np.all((sim >= 0.0) & (sim <= 1.0))
        np.testing.assert_array_equal(sim, sim.T)
        np.testing.assert_array_equal(np.diag(sim), np.ones(len(sim)))
        params.vector *= 1e200
        with pytest.raises(ContractError, match="^forward: overflow encountered in matmul; "
                                                "the parameters or the input values are out of range$"):
            forward_all(params, ds, None, training=False)

    @pytest.mark.parametrize("weight,encoder", [("alpha", "shared"), ("beta", "shared"),
                                                ("gamma", "private")])
    def test_loss_weight_overflow_names_the_weights(self, weight, encoder):
        with pytest.raises(ContractError, match=r"^epoch 1: a squared gradient overflows the Adam "
                                                rf"second moment at '{encoder}_encoder\.0\.hidden\.weight'; the "
                                                r"input values, the loss weights or the learning "
                                                r"rate are too large$"):
            train(small_dataset(), small_config(epochs=1, **{weight: 1e200}))

    def test_nonfinite_gradient_aborts_before_adam_naming_parameter(self, monkeypatch):
        train_mod = importlib.import_module("mvmlc.train")  # the package re-exports train()

        def nan_backward(tape, loss, params, out):
            grads = backward(tape, loss, params, out=out)
            grads[3][...] = np.nan
            return grads

        stepped = []
        monkeypatch.setattr(train_mod, "backward", nan_backward)
        monkeypatch.setattr(train_mod, "adam_step", lambda *args: stepped.append(args))
        with pytest.raises(ContractError, match="gradient of 'shared_encoder.0.out.bias'"):
            train(small_dataset(), small_config(epochs=1))
        assert stepped == []

    @pytest.mark.parametrize("which", [0, 17, -1], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("at", [0, -1], ids=["first offset", "last offset"])
    def test_nonfinite_gradient_named_from_slice_offsets(self, monkeypatch, which, at):
        train_mod = importlib.import_module("mvmlc.train")
        ds, cfg = small_dataset(), small_config(epochs=1)
        name, part = small_params(ds.view_dims, ds.n_labels).named_slices()[which]
        offset = range(part.start, part.stop)[at]

        def inf_backward(tape, loss, params, out):
            grads = backward(tape, loss, params, out=out)
            out[offset] = np.inf
            return grads

        monkeypatch.setattr(train_mod, "backward", inf_backward)
        with pytest.raises(ContractError, match=f"gradient of '{name}' is not finite"):
            train(ds, cfg)

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

    @pytest.mark.parametrize("hooks", [{"eval_every": 1.5}, {"eval_every": float("nan")},
                                       {"eval_every": True}, {"snapshot_epochs": (1.5,)},
                                       {"snapshot_epochs": (True,)}],
                             ids=["eval_every-1.5", "eval_every-nan", "eval_every-bool",
                                  "snapshot-1.5", "snapshot-bool"])
    def test_non_integer_hook_rejected(self, hooks):
        # Each was silently wrong: 1.5 snapshots nothing, eval_every=1.5
        # reports only at epoch 3 and NaN never reports.
        ds = small_dataset()
        with pytest.raises(ConfigError, match=f"{next(iter(hooks))} must"):
            train(ds, small_config(epochs=3), eval_data=ds, **hooks)

    def test_eval_every_without_eval_data_rejected(self):
        with pytest.raises(ConfigError, match="eval_every"):
            train(small_dataset(), small_config(epochs=1), eval_every=2)

    @staticmethod
    def _refused_before_epoch_1(monkeypatch, dataset, eval_data, message):
        def forward_all(*args, **kwargs):
            raise AssertionError("train() ran a forward pass")
        monkeypatch.setattr(importlib.import_module("mvmlc.train"), "forward_all", forward_all)
        with pytest.raises(ContractError, match=f"^{re.escape(message)}"):
            train(dataset, small_config(epochs=3), eval_data=eval_data, eval_every=3)

    def test_eval_data_hiding_labels_refused_before_epoch_1(self, monkeypatch):
        # Its hidden labels would be scored as negatives: AP read low, silently.
        hidden = small_dataset(n=14, label_missing=0.5)
        unknown = hidden.labels.size - int(hidden.label_indicator.sum())
        assert unknown > 0
        self._refused_before_epoch_1(
            monkeypatch, small_dataset(n=14), hidden,
            f"eval_data cannot be scored: {unknown} of its {hidden.labels.size} labels are "
            "unknown, and the metrics would count them as negatives")

    def test_one_label_eval_data_refused_before_epoch_1(self, monkeypatch):
        # ranking_loss refused it only at the first report, after training.
        ds = small_dataset(c=1)
        self._refused_before_epoch_1(monkeypatch, ds, ds, "eval_data cannot be scored: "
                                     "ranking_loss: every sample is degenerate")

    @pytest.mark.parametrize("dims,c,named", [
        ((5, 6), 3, "views (5, 6) with 3 labels"), ((5, 5, 5), 3, "views (5, 5, 5) with 3 labels"),
        ((5, 5), 4, "views (5, 5) with 4 labels"),
    ], ids=["widths", "view-count", "label-count"])
    def test_mismatched_eval_data_refused_before_epoch_1(self, monkeypatch, dims, c, named):
        # Each failed only at the first report, after training: a ShapeError
        # from mlp or a ValidationError from the metrics.
        other = synth_dataset(12, len(dims), c, dims=dims, noise=0.3, seed=0)
        self._refused_before_epoch_1(monkeypatch, small_dataset(), other,
                                     f"eval_data has {named}; dataset has (5, 5) and 3")

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
        rows = result.log.csv_rows()
        components = result.log.records[0].losses.components()
        assert rows[0] == ["epoch", *components]
        assert rows[1] == [1, *components.values()]

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
        params = small_params(ds.view_dims, ds.n_labels)
        gate = label_availability_gate(ds.label_indicator, ds.view_indicator)
        bank = MaskBank.generate(ds.n_samples, ds.view_dims, 0.3, seed=7)

        def objective(_):
            return _epoch_losses(params, ds, bank, gate, cfg)[0]

        report = gradient_check(objective, params.parameters(), step=1e-5, tol=1e-4)
        assert report.passed, f"max rel err {report.max_rel_err}"

    def test_fully_missing_view_row_never_affects_gradients(self):
        ds = small_dataset(n=8, view_missing=0.4, label_missing=0.3)
        cfg = small_config()
        params = small_params(ds.view_dims, ds.n_labels)
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


class TestTapeLength:
    def test_full_batch_step_records_each_mlp_and_loss_once(self):
        # 15 MLPs for 3 views, each one record; per-layer recording would
        # add 4 records per MLP and a taped loss several more per term.
        ds = small_dataset(n=12, v=3, view_missing=0.3, label_missing=0.3)
        cfg = small_config()
        params = small_params(ds.view_dims, ds.n_labels)
        gate = label_availability_gate(ds.label_indicator, ds.view_indicator)
        bank = MaskBank.generate(ds.n_samples, ds.view_dims, cfg.mask_ratio, seed=5)
        with Tape() as tape:
            _epoch_losses(params, ds, bank, gate, cfg)
        prefixes = {name.rsplit(".", 2)[0] for name, _ in params.named_parameters()
                    if name.endswith(".hidden.weight")}
        weights = {tuple(id(params[f"{prefix}.{layer}"]) for layer in
                         ("hidden.weight", "hidden.bias", "out.weight", "out.bias"))
                   for prefix in prefixes}
        mlp_records = [inputs for _, inputs, _ in tape
                       if tuple(map(id, inputs[1:])) in weights]
        assert len(mlp_records) == 15
        kinds = Counter(vjp.__qualname__.split(".")[0] for _, _, vjp in tape)
        assert kinds == {"mlp": 15, "scatter_rows": 11, "sigmoid": 3, "sigmoid_mul": 1,
                         "affine_sigmoid": 1, "_masked_infonce": 2, "reconstruction_loss": 1,
                         "classification_loss": 1, "total_loss": 1}


class TestUnobservedView:
    def test_view_with_no_observed_row_gets_zero_gradients(self):
        base = small_dataset(n=10, v=3, label_missing=0.3)
        vi = np.ones((10, 3))
        vi[:, 1] = 0.0
        views = [base.views[0], np.zeros((10, 5)), base.views[2]]
        ds = MultiViewDataset(views=views, labels=base.labels, view_indicator=vi,
                              label_indicator=base.label_indicator)
        cfg = small_config()
        params = small_params(ds.view_dims, ds.n_labels)
        gate = label_availability_gate(ds.label_indicator, ds.view_indicator)
        bank = MaskBank.generate(ds.n_samples, ds.view_dims, 0.3, seed=3)
        with Tape() as tape:
            combined, breakdown = _epoch_losses(params, ds, bank, gate, cfg)
            grads = backward(tape, combined, params.parameters())
        assert all(np.isfinite(v) for v in breakdown.components().values())
        named = dict(zip((name for name, _ in params.named_parameters()), grads))
        for prefix in ("shared_encoder.1.", "private_encoder.1.", "decoder.1."):
            for name, grad in named.items():
                if name.startswith(prefix):
                    np.testing.assert_array_equal(grad, 0.0, err_msg=name)
        assert np.any(named["shared_encoder.0.hidden.weight"] != 0.0)
        sim = channel_similarity(params, ds)
        for empty in (1, 4):  # shared and private channel of view 1
            others = [j for j in range(6) if j != empty]
            np.testing.assert_array_equal(sim[empty, others], 0.5)

    def test_single_row_batches_at_high_view_missingness(self):
        ds = small_dataset(n=10, v=3, view_missing=0.6, label_missing=0.3)
        result = train(ds, small_config(epochs=2, batch_size=1))
        for record in result.log.records:
            assert all(np.isfinite(v) for v in record.losses.components().values())


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
        ds_params = small_params(ds.view_dims, ds.n_labels)
        sim = channel_similarity(ds_params, ds)
        assert sim.shape == (6, 6)
        np.testing.assert_array_equal(sim, sim.T)
        np.testing.assert_array_equal(np.diag(sim), np.ones(6))

    def test_values_in_unit_interval(self):
        ds = small_dataset(n=10, v=2, view_missing=0.3)
        params = small_params(ds.view_dims, ds.n_labels)
        sim = channel_similarity(params, ds)
        assert np.all(sim >= 0.0) and np.all(sim <= 1.0)

    def test_reads_only_the_encoders(self):
        # A classifier that overflows the scores does not reach the heatmap;
        # encoder outputs whose fused sum overflows fail at the channel means.
        ds = small_dataset()
        params = small_params(ds.view_dims, ds.n_labels)
        biases = [params[f"{kind}_encoder.{m}.out.bias"].value
                  for kind in ("shared", "private") for m in range(ds.n_views)]
        params["classifier.weight"].value[...] = 1e308
        for bias in biases:
            bias[...] = 10.0
        with pytest.raises(ContractError, match="^forward: overflow encountered in matmul"):
            forward_all(params, ds, None, training=False)
        assert np.isfinite(channel_similarity(params, ds)).all()
        for bias in biases:
            bias[...] = 1.5e308
        with pytest.raises(ContractError, match="^channel similarity: overflow encountered in "):
            channel_similarity(params, ds)

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
        params = small_params(ds.view_dims, ds.n_labels)
        for layer in ("hidden.weight", "hidden.bias", "out.weight", "out.bias"):
            params[f"shared_encoder.1.{layer}"].value[...] = params[f"shared_encoder.0.{layer}"].value
        sim = channel_similarity(params, ds)

        shared, private = encode(params, [Matrix(v) for v in ds.views])
        means = [f.value[vi[:, m] == 1].mean(axis=0) if vi[:, m].any() else np.zeros(f.cols)
                 for feats in (shared, private) for m, f in enumerate(feats)]
        want = np.array([[1.0 if i == j else cos01_oracle(a, b) for j, b in enumerate(means)]
                         for i, a in enumerate(means)])
        np.testing.assert_allclose(sim, want, rtol=0, atol=1e-15)
        assert sim[0, 1] == pytest.approx(1.0, abs=1e-15)
        for zero in (2, 5):
            others = [j for j in range(6) if j != zero]
            np.testing.assert_array_equal(sim[zero, others], 0.5)
            np.testing.assert_array_equal(sim[others, zero], 0.5)
