"""A refusal never fails while writing its own message: an integer of more
digits than Python writes in decimal is described, not written."""

import numpy as np
import pytest

from mvmlc.data import MaskBank, generate_indicators, split, synth_dataset
from mvmlc.errors import ConfigError, ContractError, shown, writable
from mvmlc.losses import instance_contrastive, total_loss
from mvmlc.model import ModelParams, save_checkpoint
from mvmlc.numerics import Matrix
from mvmlc.train import TrainConfig, train

HUGE = 10 ** 5000


def _small():
    return synth_dataset(8, 2, 3, dims=4, noise=0.2, seed=0)


def _save(tmp_path, **meta):
    params = ModelParams.initialize(np.random.default_rng(0), (4, 4), 3, 2, 3)
    save_checkpoint(tmp_path / "c.json", params, **{"seed": 0, "epoch": 1, **meta})


ONE = Matrix(1.0)
BOTH, NEGATIVE, POSITIVE = (1, -1), (-1,), (1,)

# entry point, called with a value past Python's digit limit: (the call, the
# class it raises, the argument its text names, the signs it refuses)
CASES = {
    "config-float-field": (lambda v, _: TrainConfig(alpha=v), ConfigError, "alpha", BOTH),
    "config-int-field": (lambda v, _: TrainConfig(epochs=v), ConfigError, "epochs", BOTH),
    "config-seed": (lambda v, _: TrainConfig(seed=v), ConfigError, "seed", BOTH),
    "config-bool-field": (lambda v, _: TrainConfig(fixed_mask=v), ConfigError, "fixed_mask",
                          BOTH),
    "config-str-field": (lambda v, _: TrainConfig(label_gate_mode=v), ConfigError,
                         "label_gate_mode", BOTH),
    "config-from-dict": (lambda v, _: TrainConfig.from_dict(v), ConfigError, "JSON object",
                         BOTH),
    "total-loss": (lambda v, _: total_loss(ONE, ONE, ONE, ONE, 0.0, v, 0.0), ConfigError,
                   "loss weights", BOTH),
    "temperature": (lambda v, _: instance_contrastive([ONE, ONE], np.ones((1, 2)), v),
                    ConfigError, "temperature", NEGATIVE),
    "snapshot-epochs": (lambda v, _: train(_small(), TrainConfig(epochs=1), snapshot_epochs=(v,)),
                        ConfigError, "snapshot epoch", BOTH),
    "eval-every": (lambda v, _: train(_small(), TrainConfig(epochs=1), eval_every=v),
                   ConfigError, "eval_every", BOTH),
    "mask-ratio": (lambda v, _: MaskBank.generate(3, (4,), v, seed=0), ConfigError, "mask_ratio",
                   BOTH),
    "indicator-ratio": (lambda v, _: generate_indicators(3, 2, 2, v, 0.0, seed=0), ConfigError,
                        "view_missing_ratio", BOTH),
    "train-fraction": (lambda v, _: split(_small(), v, seed=0), ConfigError, "train_fraction",
                       BOTH),
    "synth-samples": (lambda v, _: synth_dataset(v, 2, 2, 4), ConfigError, "n_samples",
                      POSITIVE),
    "synth-dims": (lambda v, _: synth_dataset(3, 2, 2, v), ConfigError, "dims", POSITIVE),
    "synth-seed": (lambda v, _: synth_dataset(3, 2, 2, 4, seed=v), ConfigError, "seed", BOTH),
    "synth-noise": (lambda v, _: synth_dataset(3, 2, 2, 4, noise=v), ConfigError, "noise", BOTH),
    "checkpoint-seed": (lambda v, tmp: _save(tmp, seed=v), ContractError, "seed", BOTH),
    "checkpoint-epoch": (lambda v, tmp: _save(tmp, epoch=v), ContractError, "epoch", BOTH),
}


@pytest.mark.parametrize("call,error,named,value", [
    pytest.param(call, error, named, sign * HUGE, id=f"{name}-{'+' if sign > 0 else '-'}")
    for name, (call, error, named, signs) in CASES.items() for sign in signs])
def test_refusal_of_an_integer_past_the_digit_limit_names_its_argument(tmp_path, call, error,
                                                                         named, value):
    # Each ended in Python's "Exceeds the limit (4300 digits)" ValueError
    # while writing its message; a negative synth seed was refused as "more
    # values than memory holds", and json.dumps raised in save_checkpoint.
    # (A non-positive size is refused before any value is written.)
    with pytest.raises(error, match=named) as caught:
        call(value, tmp_path)
    assert "an integer of more than 4300 digits" in str(caught.value)


def test_noise_past_the_float_range_is_a_config_error():
    # numpy's isfinite raised a TypeError for an integer it cannot convert.
    with pytest.raises(ConfigError, match="^noise must be finite and >= 0, got 1000*$"):
        synth_dataset(3, 2, 2, 4, noise=10 ** 400)


def test_shown_writes_what_python_writes():
    assert (shown(1.5), shown("view"), shown(np.float64(2.0), str)) == ("1.5", "'view'", "2.0")
    assert shown((HUGE, 0.5)) == shown(-HUGE) == "an integer of more than 4300 digits"
    assert writable(-(10 ** 4299)) and not writable(10 ** 4300)
