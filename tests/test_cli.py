import argparse
import base64
import contextlib
import importlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvmlc
from mvmlc.cli import (EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, build_parser,
                       build_train_config, main)
from mvmlc.data import load_dataset, save_dataset, synth_dataset
from mvmlc.metrics import evaluate_all
from mvmlc.model import ModelParams, save_checkpoint
from mvmlc.train import TrainConfig, knob_domain

from manifests import malformed_npy, write_csv_manifest


def synth_args(out, n=24, views=2, labels=3, seed=1):
    return ["synth", "--n", str(n), "--views", str(views), "--labels", str(labels),
            "--dims", "5,6", "--noise", "0.3", "--seed", str(seed), "--out", str(out)]


def train_args(manifest, out, **kw):
    args = ["train", "--manifest", str(manifest), "--out", str(out),
            "--epochs", kw.pop("epochs", "3"), "--embed-dim", "4", "--hidden-dim", "6",
            "--seed", kw.pop("seed", "0")]
    for flag, value in kw.items():
        args += [f"--{flag.replace('_', '-')}", str(value)]
    return args


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    assert main(synth_args(out)) == EXIT_OK
    return out


def test_runs_as_a_module():
    src = str(Path(mvmlc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "mvmlc", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    assert "usage: mvmlc" in done.stdout


class TestSynth:
    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["synth", "--n", "20", "--views", "3", "--labels", "4",
                     "--seed", "1", "--out", str(out)]) == EXIT_OK
        names = {p.name for p in out.iterdir()}
        assert names == {"manifest.json", "labels.npy", "view_0.npy", "view_1.npy",
                         "view_2.npy", "run_config.json"}

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(synth_args(a))
        main(synth_args(b))
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_zero_samples_is_usage_error(self, tmp_path, capsys):
        assert main(synth_args(tmp_path / "x", n=0)) == EXIT_USAGE
        assert "n_samples" in capsys.readouterr().err

    def test_bad_flag_is_usage_error(self, tmp_path, capsys):
        assert main(["synth", "--n", "notanint", "--views", "1", "--labels", "1",
                     "--out", str(tmp_path)]) == EXIT_USAGE
        capsys.readouterr()


class TestTrain:
    def test_writes_outputs_and_report(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(train_args(dataset_dir / "manifest.json", out,
                               view_missing="0.5", label_missing="0.5", train_frac="0.7"))
        assert code == EXIT_OK
        names = {p.name for p in out.iterdir()}
        assert {"run_config.json", "checkpoint.json", "train_log.csv",
                "metrics.txt", "metrics.csv"} <= names
        printed = capsys.readouterr().out
        assert printed.startswith("ap ")

    def test_missing_manifest_is_io_error(self, tmp_path, capsys):
        code = main(train_args(tmp_path / "nope.json", tmp_path / "run"))
        assert code == EXIT_IO
        capsys.readouterr()

    def test_invalid_manifest_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(train_args(bad, tmp_path / "run"))
        assert code == EXIT_VALIDATION
        capsys.readouterr()

    def test_determinism_bitwise(self, dataset_dir, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        flags = dict(view_missing="0.5", label_missing="0.5", train_frac="0.7")
        assert main(train_args(dataset_dir / "manifest.json", out_a, **flags)) == EXIT_OK
        assert main(train_args(dataset_dir / "manifest.json", out_b, **flags)) == EXIT_OK
        capsys.readouterr()
        for name in ("checkpoint.json", "train_log.csv", "metrics.txt", "metrics.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_config_file_with_flag_override(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 2, "alpha": 0.5, "embed_dim": 4, "hidden_dim": 6}))
        out = tmp_path / "run"
        code = main(["train", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(out), "--config", str(cfg), "--alpha", "0.0"])
        assert code == EXIT_OK
        run_cfg = json.loads((out / "run_config.json").read_text())
        assert run_cfg["config"]["alpha"] == 0.0
        assert run_cfg["config"]["epochs"] == 2
        capsys.readouterr()

    def test_unknown_config_key_is_usage_error(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = main(["train", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(tmp_path / "run"), "--config", str(cfg)])
        assert code == EXIT_USAGE
        capsys.readouterr()


class TestEval:
    def test_eval_reproduces_train_report_bitwise(self, dataset_dir, tmp_path, capsys):
        run = tmp_path / "run"
        main(train_args(dataset_dir / "manifest.json", run))
        capsys.readouterr()
        out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                     "--manifest", str(dataset_dir / "manifest.json"), "--out", str(out)])
        assert code == EXIT_OK
        capsys.readouterr()
        # no split was used, so train-time final report was computed on the
        # same full dataset the eval command sees
        assert (run / "metrics.csv").read_text().splitlines()[1].split(",")[:6] == \
            (out / "metrics.csv").read_text().splitlines()[1].split(",")[:6]

    def test_dimension_mismatch_is_validation_error(self, dataset_dir, tmp_path, capsys):
        run = tmp_path / "run"
        main(train_args(dataset_dir / "manifest.json", run))
        other = tmp_path / "other"
        main(["synth", "--n", "10", "--views", "2", "--labels", "3",
              "--dims", "9,9", "--seed", "2", "--out", str(other)])
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                     "--manifest", str(other / "manifest.json")])
        assert code == EXIT_VALIDATION
        capsys.readouterr()


class TestAblate:
    def test_eight_rows_with_backbone_first(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "ablate"
        code = main(["ablate", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(out), "--epochs", "2", "--embed-dim", "4",
                     "--hidden-dim", "6", "--train-frac", "0.7"])
        assert code == EXIT_OK
        capsys.readouterr()
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "instance_loss,label_loss,recon_loss,ap,auc"
        assert len(lines) == 9
        assert lines[1].startswith("0,0,0,")
        assert lines[8].startswith("1,1,1,")


class TestHeatmap:
    def test_snapshot_matrices(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "heat"
        code = main(["heatmap", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(out), "--snapshots", "0,2", "--epochs", "2",
                     "--embed-dim", "4", "--hidden-dim", "6"])
        assert code == EXIT_OK
        capsys.readouterr()
        for k in (0, 2):
            sim = np.loadtxt(out / f"channel_similarity_epoch{k}.csv", delimiter=",")
            assert sim.shape == (4, 4)
            np.testing.assert_array_equal(sim, sim.T)
            np.testing.assert_array_equal(np.diag(sim), np.ones(4))

    def test_from_checkpoint(self, dataset_dir, tmp_path, capsys):
        run = tmp_path / "run"
        main(train_args(dataset_dir / "manifest.json", run))
        out = tmp_path / "heat"
        code = main(["heatmap", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(out), "--checkpoint", str(run / "checkpoint.json")])
        assert code == EXIT_OK
        capsys.readouterr()
        assert (out / "channel_similarity_epoch3.csv").exists()

    def test_snapshot_beyond_epochs_names_epoch(self, dataset_dir, tmp_path, capsys):
        code = main(["heatmap", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(tmp_path / "h"), "--snapshots", "0,99",
                     "--epochs", "2", "--embed-dim", "4", "--hidden-dim", "6"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "99" in err

    def test_requires_epochs_or_checkpoint(self, dataset_dir, tmp_path, capsys):
        code = main(["heatmap", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(tmp_path / "h")])
        assert code == EXIT_USAGE
        capsys.readouterr()


def replay_argv(record, out):
    """The command line that reruns the run ``record`` describes into
    ``out``: each recorded flag under its option string, unset ones left out."""
    flags = dict(record["flags"])
    subcommand = flags.pop("subcommand")
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    argv = [subcommand, "--out", str(out)]
    for action in subparsers.choices[subcommand]._actions:
        value = flags.pop(action.dest, None)
        if value is None or value is False:
            continue
        argv.append(action.option_strings[0] if action.nargs == 0
                    else f"{action.option_strings[0]}={value}")
    assert not flags, f"recorded flags without an option: {sorted(flags)}"
    return argv


def _parsed(argv):
    """The parsed flags of ``argv`` that replaying it must reproduce."""
    args = vars(build_parser().parse_args(argv))
    del args["out"]
    args.pop("training_flags", None)
    return args


def _after_training(command):
    """Train a checkpoint, then run ``command`` on it."""
    def setup(data, tmp):
        main(train_args(data / "manifest.json", tmp / "run"))
        return [command, "--checkpoint", str(tmp / "run" / "checkpoint.json"),
                "--manifest", str(data / "manifest.json"), "--out", str(tmp / "out")]
    return setup


# (argv built from the dataset and a scratch directory, whether the run
#  trains and so records its config)
RECORDED_RUNS = {
    "synth": (lambda data, tmp: synth_args(tmp / "out"), False),
    "train with every protocol flag": (
        lambda data, tmp: [*train_args(data / "manifest.json", tmp / "out", view_missing="0.5",
                                       label_missing="0.3", train_frac="0.7", eval_every="1",
                                       batch_size="8", label_gate="label"), "--fixed-mask"],
        True),
    "eval": (_after_training("eval"), False),
    "ablate": (lambda data, tmp: ["ablate", "--manifest", str(data / "manifest.json"),
                                  "--out", str(tmp / "out"), "--epochs", "2", "--embed-dim", "4",
                                  "--hidden-dim", "6", "--train-frac", "0.6"], True),
    "heatmap snapshots": (lambda data, tmp: ["heatmap", "--manifest", str(data / "manifest.json"),
                                             "--out", str(tmp / "out"), "--snapshots", "0,1,3",
                                             "--epochs", "3", "--embed-dim", "4", "--hidden-dim", "6",
                                             "--view-missing", "0.3"], True),
    "heatmap checkpoint": (_after_training("heatmap"), False),
}


@pytest.mark.parametrize("run", list(RECORDED_RUNS))
def test_run_replays_from_its_record(dataset_dir, tmp_path, capsys, run):
    setup, trains = RECORDED_RUNS[run]
    argv = setup(dataset_dir, tmp_path)
    assert main(argv) == EXIT_OK
    out, again = tmp_path / "out", tmp_path / "again"
    record = json.loads((out / "run_config.json").read_text())
    assert set(record) == {"flags", "config"}
    assert (record["config"] is not None) == trains
    replay = replay_argv(record, again)
    assert _parsed(replay) == _parsed(argv)
    assert main(replay) == EXIT_OK
    capsys.readouterr()
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (again / name).read_bytes(), name


@pytest.mark.parametrize("epochs,every", [(4, 2), (4, 1), (3, 2)])
def test_train_evaluates_the_final_model_once(dataset_dir, tmp_path, capsys, monkeypatch,
                                              epochs, every):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["epoch"])
        return evaluate_all(*args, **kwargs)

    for module in ("mvmlc.train", "mvmlc.cli"):  # the package re-exports train()
        monkeypatch.setattr(importlib.import_module(module), "evaluate_all", counted)
    manifest = dataset_dir / "manifest.json"
    assert main(train_args(manifest, tmp_path / "k", epochs=str(epochs), train_frac="0.7",
                           eval_every=str(every))) == EXIT_OK
    assert calls == sorted(set(range(every, epochs + 1, every)) | {epochs})
    assert main(train_args(manifest, tmp_path / "once", epochs=str(epochs),
                           train_frac="0.7")) == EXIT_OK
    capsys.readouterr()
    for name in ("metrics.txt", "metrics.csv", "checkpoint.json"):
        assert (tmp_path / "k" / name).read_bytes() == (tmp_path / "once" / name).read_bytes()


def test_log_timing_adds_the_wall_ms_column_and_is_recorded(dataset_dir, tmp_path, capsys):
    manifest = dataset_dir / "manifest.json"
    assert main([*train_args(manifest, tmp_path / "timed"), "--log-timing"]) == EXIT_OK
    assert main(train_args(manifest, tmp_path / "plain")) == EXIT_OK
    capsys.readouterr()
    header = {name: (tmp_path / name / "train_log.csv").read_text().splitlines()[0].split(",")
              for name in ("timed", "plain")}
    assert header["timed"] == [*header["plain"], "wall_ms"]
    assert "wall_ms" not in header["plain"]
    flags = {name: json.loads((tmp_path / name / "run_config.json").read_text())["flags"]
             for name in ("timed", "plain")}
    assert flags["timed"]["log_timing"] is True and flags["plain"]["log_timing"] is False


def test_heatmap_record_config_is_a_valid_config_file(dataset_dir, tmp_path, capsys):
    heatmap = ["heatmap", "--manifest", str(dataset_dir / "manifest.json"), "--snapshots", "0,1,3"]
    assert main([*heatmap, "--out", str(tmp_path / "a"), "--epochs", "3",
                 "--embed-dim", "4", "--hidden-dim", "6"]) == EXIT_OK
    config = json.loads((tmp_path / "a" / "run_config.json").read_text())["config"]
    assert config["epochs"] == 3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([*heatmap, "--out", str(tmp_path / "b"), "--config", str(cfg)]) == EXIT_OK
    capsys.readouterr()
    for k in (0, 1, 3):
        name = f"channel_similarity_epoch{k}.csv"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _malformed_checkpoint(edit):
    """Train a checkpoint, then apply ``edit`` to its JSON document."""
    def setup(data, tmp):
        main(train_args(data / "manifest.json", tmp / "run"))
        ckpt = tmp / "run" / "checkpoint.json"
        _edit_json(ckpt, edit)
        return ["eval", "--checkpoint", str(ckpt), "--manifest", str(data / "manifest.json")]
    return setup


def _vector_bytes(edit):
    """A checkpoint edit that rewrites the parameter vector's float64 bytes.
    The first 8 are the first value of shared_encoder.0.hidden.weight."""
    def apply(doc):
        doc["vector"] = base64.b64encode(edit(base64.b64decode(doc["vector"]))).decode()
    return apply


def _checkpoint_meta(field, value, command):
    """Train a checkpoint, set one metadata field, then run ``command`` on it."""
    def setup(data, tmp):
        main(train_args(data / "manifest.json", tmp / "run"))
        ckpt = tmp / "run" / "checkpoint.json"
        _edit_json(ckpt, lambda d: d.update({field: value}))
        return [command, "--checkpoint", str(ckpt), "--manifest", str(data / "manifest.json"),
                "--out", str(tmp / "out")]
    return setup


def _checkpoint_text(text):
    def setup(data, tmp):
        (tmp / "checkpoint.json").write_text(text)
        return ["eval", "--checkpoint", str(tmp / "checkpoint.json"),
                "--manifest", str(data / "manifest.json")]
    return setup


def _config_file(tmp, doc):
    (tmp / "cfg.json").write_text(json.dumps(doc))
    return str(tmp / "cfg.json")


def _train_flag(**flag):
    return lambda data, tmp: train_args(data / "manifest.json", tmp / "run", **flag)


def _config_doc(doc):
    return lambda data, tmp: ["train", "--manifest", str(data / "manifest.json"),
                              "--out", str(tmp / "run"), "--config", _config_file(tmp, doc)]


def _heatmap_other_widths(data, tmp):
    """Train a checkpoint on 5- and 6-wide views, then export its heatmap
    on a dataset whose views are 4 wide."""
    main(train_args(data / "manifest.json", tmp / "run"))
    other = tmp / "other"
    main(["synth", "--n", "12", "--views", "2", "--labels", "3", "--dims", "4,4",
          "--seed", "2", "--out", str(other)])
    return ["heatmap", "--checkpoint", str(tmp / "run" / "checkpoint.json"),
            "--manifest", str(other / "manifest.json"), "--out", str(tmp / "h")]


def _heatmap_checkpoint_with_training_flags(data, tmp):
    """Train a checkpoint, then export its heatmap with flags that only
    configure a training run, which --checkpoint does not start."""
    main(train_args(data / "manifest.json", tmp / "run"))
    return ["heatmap", "--checkpoint", str(tmp / "run" / "checkpoint.json"),
            "--manifest", str(data / "manifest.json"), "--out", str(tmp / "h"),
            "--view-missing", "0.6", "--snapshots", "0,5", "--config", _config_file(tmp, {}),
            "--epochs", "9"]


def _not_utf8(path):
    """Write a JSON input whose first bytes (a UTF-16 byte-order mark) are not UTF-8."""
    path.write_bytes(b"\xff\xfe{}")
    return str(path)


def _json_list(path):
    """Replace a JSON input with a list: valid JSON, but not an object."""
    path.write_text("[1, 2]")
    return str(path)


def _view_value_nan(data, tmp):
    """Write the dataset as a CSV manifest, then make the value at row 2,
    col 0 of view 1's CSV a NaN."""
    manifest = write_csv_manifest(load_dataset(data / "manifest.json"), tmp / "csv")
    lines = (tmp / "csv" / "view_1.csv").read_text().splitlines()
    lines[2] = ",".join(["nan"] + lines[2].split(",")[1:])
    (tmp / "csv" / "view_1.csv").write_text("\n".join(lines) + "\n")
    return train_args(manifest, tmp / "run")


def _npy_file(raw):
    """Replace view 1's .npy file with the bytes ``raw``."""
    def setup(data, tmp):
        (data / "view_1.npy").write_bytes(raw)
        return train_args(data / "manifest.json", tmp / "run")
    return setup


def _set_view_value(data, value):
    """Make the value at row 0, col 0 of view 0 ``value``."""
    view = np.load(data / "view_0.npy")
    view[0, 0] = value
    np.save(data / "view_0.npy", view)


def _huge_view_value(data, tmp):
    """Make the value at row 0, col 0 of view 0 1e80, above ``VIEW_MAX``
    (at the default widths it overflowed the first step), and train."""
    _set_view_value(data, 1e80)
    return ["train", "--manifest", str(data / "manifest.json"), "--out", str(tmp / "run"),
            "--epochs", "2"]


def _synth60(tmp, *flags):
    """Write a 60-row, 2-view, 4-label synth of seed 1 (32-wide views unless
    ``flags`` set ``--dims``); returns its manifest."""
    main(["synth", "--n", "60", "--views", "2", "--labels", "4", "--seed", "1", *flags,
          "--out", str(tmp / "d60")])
    return tmp / "d60" / "manifest.json"


def _train60(*flags, synth=(), value=None):
    """Train 2 epochs at the default widths, with ``flags``, on the synth of
    :func:`_synth60`, its view 0 value at row 0, col 0 set to ``value`` if
    given."""
    def setup(data, tmp):
        manifest = _synth60(tmp, *synth)
        if value is not None:
            _set_view_value(manifest.parent, value)
        return ["train", "--manifest", str(manifest), "--out", str(tmp / "run"),
                "--epochs", "2", *flags]
    return setup


def _heatmap60_huge_view_value(data, tmp):
    """Train a checkpoint on the clean synth of :func:`_synth60`, then make
    its view 0 value at row 0, col 0 1e160 and export the checkpoint's
    heatmap."""
    manifest = _synth60(tmp)
    main(["train", "--manifest", str(manifest), "--out", str(tmp / "run"), "--epochs", "2"])
    _set_view_value(manifest.parent, 1e160)
    return ["heatmap", "--checkpoint", str(tmp / "run" / "checkpoint.json"),
            "--manifest", str(manifest), "--out", str(tmp / "h")]


def _view_missing_on_hidden_views(data, tmp):
    """A 300-row, 3-view synth that hides 30% of its views, trained with
    --view-missing 0.2: the flag's draw hides the last view the manifest
    leaves sample 6."""
    dataset = synth_dataset(300, 3, 6, 8, noise=0.3, seed=0)
    vi, _ = mvmlc.generate_indicators(300, 3, 6, 0.3, 0.0, seed=2)
    manifest = save_dataset(mvmlc.apply_indicators(dataset, vi, None), tmp / "hidden")
    return ["train", "--manifest", str(manifest), "--out", str(tmp / "run"), "--epochs", "1",
            "--view-missing", "0.2"]


def _one_label(tmp):
    """A 40-row, 2-view synth of one label, on which every sample is
    degenerate for the ranking loss; returns its manifest."""
    main(["synth", "--n", "40", "--views", "2", "--labels", "1", "--out", str(tmp / "one")])
    return tmp / "one" / "manifest.json"


def _eval_one_label(data, tmp):
    """Evaluate a fresh checkpoint of the one-label synth's architecture on it."""
    manifest = _one_label(tmp)
    params = ModelParams.initialize(np.random.default_rng(0), (32, 32), 1, 4, 6)
    save_checkpoint(tmp / "checkpoint.json", params, seed=0, epoch=0)
    return ["eval", "--checkpoint", str(tmp / "checkpoint.json"), "--manifest", str(manifest)]


def _manifest_views_string(data, tmp):
    _edit_json(data / "manifest.json", lambda d: d.update(views="view_0.csv"))
    return train_args(data / "manifest.json", tmp / "run")


# (malformed input, argv built from the dataset and a scratch directory,
#  exit code, text the error message must contain)
MALFORMED_INPUTS = [
    ("synth dims not integers",
     lambda data, tmp: ["synth", "--n", "5", "--views", "2", "--labels", "2",
                        "--dims", "x", "--out", str(tmp / "s")],
     EXIT_USAGE, "--dims"),
    ("heatmap snapshots not integers",
     lambda data, tmp: ["heatmap", "--manifest", str(data / "manifest.json"),
                        "--out", str(tmp / "h"), "--snapshots", "0,x"],
     EXIT_USAGE, "--snapshots"),
    ("synth dims empty",
     lambda data, tmp: ["synth", "--n", "5", "--views", "2", "--labels", "2",
                        "--dims", "", "--out", str(tmp / "s")],
     EXIT_USAGE, "--dims"),
    ("heatmap snapshot epoch repeated",
     lambda data, tmp: ["heatmap", "--manifest", str(data / "manifest.json"),
                        "--out", str(tmp / "h"), "--snapshots", "2,0,2", "--epochs", "2"],
     EXIT_USAGE, "--snapshots"),
    ("config value of the wrong type",
     lambda data, tmp: ["train", "--manifest", str(data / "manifest.json"),
                        "--out", str(tmp / "run"), "--config", _config_file(tmp, {"epochs": "5"})],
     EXIT_USAGE, "epochs"),
    ("config bool for an int field",
     lambda data, tmp: ["train", "--manifest", str(data / "manifest.json"),
                        "--out", str(tmp / "run"), "--config", _config_file(tmp, {"seed": True})],
     EXIT_USAGE, "seed"),
    ("checkpoint vector one value short",
     _malformed_checkpoint(_vector_bytes(lambda raw: raw[:-8])),
     EXIT_VALIDATION, "checkpoint.json: vector holds "),
    ("checkpoint without vector",
     _malformed_checkpoint(lambda d: d.pop("vector")),
     EXIT_VALIDATION, "checkpoint.json: vector is not a base64 string"),
    ("checkpoint not a JSON object", _checkpoint_text("[1, 2]"), EXIT_VALIDATION, "checkpoint"),
    ("checkpoint vector not a string",
     _checkpoint_text('{"version": 2, "view_dims": [5, 6], "n_labels": 3, "embed_dim": 4, '
                      '"hidden_dim": 6, "seed": 0, "epoch": 1, "config": {}, "vector": 7}'),
     EXIT_VALIDATION, "checkpoint.json: vector is not a base64 string"),
    ("checkpoint vector not base64",
     _malformed_checkpoint(lambda d: d.update(vector="!" + d["vector"][1:])),
     EXIT_VALIDATION, "checkpoint.json: vector is not a base64 string"),
    ("checkpoint view widths not integers",
     _checkpoint_text('{"version": 2, "view_dims": ["x"], "n_labels": 3, "embed_dim": 4, '
                      '"hidden_dim": 6, "vector": ""}'),
     EXIT_VALIDATION, "malformed field"),
    ("checkpoint of version 1", _checkpoint_meta("version", 1, "eval"),
     EXIT_VALIDATION, "checkpoint.json: unsupported version 1"),
    ("checkpoint seed not an integer", _checkpoint_meta("seed", "x", "eval"),
     EXIT_VALIDATION, "seed"),
    ("checkpoint epoch not an integer", _checkpoint_meta("epoch", "x", "heatmap"),
     EXIT_VALIDATION, "epoch"),
    ("manifest views not a list",
     _manifest_views_string,
     EXIT_VALIDATION, "manifest.json"),
    ("learning rate not a number", _train_flag(lr="nan"), EXIT_USAGE, "learning_rate"),
    ("learning rate infinite", _train_flag(lr="inf"), EXIT_USAGE, "learning_rate"),
    ("adam epsilon not a number", _train_flag(adam_eps="nan"), EXIT_USAGE, "adam_eps"),
    ("adam epsilon zero", _train_flag(adam_eps="0"), EXIT_USAGE, "adam_eps"),
    ("adam beta1 not a number", _train_flag(adam_beta1="nan"), EXIT_USAGE, "adam_beta1"),
    ("adam beta1 negative", _train_flag(adam_beta1="-0.1"), EXIT_USAGE, "adam_beta1"),
    ("adam beta2 of one", _train_flag(adam_beta2="1"), EXIT_USAGE, "adam_beta2"),
    ("loss weight not a number", _train_flag(alpha="nan"), EXIT_USAGE, "alpha"),
    ("config value not finite",
     lambda data, tmp: ["train", "--manifest", str(data / "manifest.json"),
                        "--out", str(tmp / "run"), "--config",
                        _config_file(tmp, {"tau_s": float("nan")})],
     EXIT_USAGE, "tau_s"),
    ("config value beyond the float range",
     lambda data, tmp: ["train", "--manifest", str(data / "manifest.json"),
                        "--out", str(tmp / "run"), "--config",
                        _config_file(tmp, {"learning_rate": 10 ** 400})],
     EXIT_USAGE, "learning_rate"),
    ("eval every negative", _train_flag(eval_every="-1"), EXIT_USAGE, "eval_every"),
    ("synth noise not a number",
     lambda data, tmp: ["synth", "--n", "5", "--views", "2", "--labels", "2",
                        "--noise", "nan", "--out", str(tmp / "s")],
     EXIT_USAGE, "noise"),
    ("synth noise overflows the views",
     lambda data, tmp: ["synth", "--n", "10", "--views", "2", "--labels", "3",
                        "--noise", "1e308", "--out", str(tmp / "s")],
     EXIT_USAGE, "noise must keep the view values finite"),
    ("checkpoint value not finite",
     _malformed_checkpoint(_vector_bytes(lambda raw: struct.pack("<d", float("nan")) + raw[8:])),
     EXIT_VALIDATION, "shared_encoder.0.hidden.weight has non-finite values"),
    ("config file a list of names", _config_doc(["epochs"]), EXIT_VALIDATION, "cfg.json"),
    ("config file a list of pairs", _config_doc([["epochs", 3]]), EXIT_VALIDATION, "cfg.json"),
    ("config file null", _config_doc(None), EXIT_VALIDATION, "cfg.json"),
    ("config file a number", _config_doc(5), EXIT_VALIDATION, "cfg.json"),
    ("config file a string", _config_doc("x"), EXIT_VALIDATION, "cfg.json"),
    ("checkpoint hidden width zero", _checkpoint_meta("hidden_dim", 0, "eval"),
     EXIT_VALIDATION, "hidden_dim"),
    ("checkpoint hidden width fractional", _checkpoint_meta("hidden_dim", 32.7, "eval"),
     EXIT_VALIDATION, "hidden_dim"),
    ("checkpoint view width zero", _checkpoint_meta("view_dims", [5, 0], "eval"),
     EXIT_VALIDATION, "view_dims"),
    ("checkpoint view widths empty", _checkpoint_meta("view_dims", [], "heatmap"),
     EXIT_VALIDATION, "view_dims"),
    ("checkpoint label count a bool", _checkpoint_meta("n_labels", True, "eval"),
     EXIT_VALIDATION, "n_labels"),
    ("checkpoint embedding width negative", _checkpoint_meta("embed_dim", -4, "heatmap"),
     EXIT_VALIDATION, "embed_dim"),
    ("heatmap checkpoint on other view widths", _heatmap_other_widths,
     EXIT_VALIDATION, "checkpoint was trained on views"),
    ("manifest not UTF-8",
     lambda data, tmp: train_args(_not_utf8(data / "manifest.json"), tmp / "run"),
     EXIT_VALIDATION, "manifest.json"),
    ("config file not UTF-8",
     lambda data, tmp: ["train", "--manifest", str(data / "manifest.json"),
                        "--out", str(tmp / "run"), "--config", _not_utf8(tmp / "cfg.json")],
     EXIT_VALIDATION, "cfg.json"),
    ("checkpoint not UTF-8",
     lambda data, tmp: ["eval", "--checkpoint", _not_utf8(tmp / "checkpoint.json"),
                        "--manifest", str(data / "manifest.json")],
     EXIT_VALIDATION, "checkpoint.json"),
    ("eval every without a test split", _train_flag(eval_every="2"), EXIT_USAGE, "eval_every"),
    ("heatmap checkpoint with training flags", _heatmap_checkpoint_with_training_flags,
     EXIT_USAGE, "--snapshots, --view-missing, --config, --epochs"),
    ("seed negative", _train_flag(seed="-1"), EXIT_USAGE, "seed must be >= 0"),
    ("config seed negative", _config_doc({"seed": -3}), EXIT_USAGE, "seed must be >= 0"),
    ("synth seed negative",
     lambda data, tmp: ["synth", "--n", "5", "--views", "2", "--labels", "2",
                        "--seed", "-1", "--out", str(tmp / "s")],
     EXIT_USAGE, "seed must be >= 0"),
    ("view value not finite", _view_value_nan,
     EXIT_VALIDATION, "view 1: entry at row 2, col 0 is nan, expected a finite value"),
    ("learning rate overflows the Adam second moment", _train_flag(lr="1e30"),
     EXIT_VALIDATION, "epoch 2: a squared gradient overflows the Adam second moment"),
    ("view value above VIEW_MAX in train", _huge_view_value, EXIT_VALIDATION,
     "manifest.json: view 0: entry at row 0, col 0 is 1e+80, "
     "expected a magnitude of at most 1e+60"),
    ("view value above VIEW_MAX in a mini-batch",
     _train60("--batch-size", "16", "--seed", "2", value=1e80), EXIT_VALIDATION,
     "manifest.json: view 0: entry at row 0, col 0 is 1e+80, "
     "expected a magnitude of at most 1e+60"),
    ("view value above VIEW_MAX in a heatmap", _heatmap60_huge_view_value,
     EXIT_VALIDATION, "manifest.json: view 0: entry at row 0, col 0 is 1e+160, "
                      "expected a magnitude of at most 1e+60"),
    ("synth noise above VIEW_MAX",
     lambda data, tmp: ["synth", "--n", "10", "--views", "2", "--labels", "3",
                        "--noise", "1e70", "--out", str(tmp / "s")],
     EXIT_USAGE, "noise must keep the view values finite and at most 1e+60 in magnitude, "
                 "got 1e+70"),
    ("contrastive gradient overflows at the temperature floor",
     _train60("--alpha", "1e306", "--tau-s", "0.002", "--embed-dim", "4", synth=("--dims", "8")),
     EXIT_VALIDATION, "epoch 1: gradient of 'shared_encoder.0.hidden.weight' is not finite"),
    ("learning rate overflows the network", _train_flag(lr="1e300"),
     EXIT_VALIDATION, "epoch 2: loss component 'loss_recon' is not finite"),
    ("learning rate overflows the evaluation",
     _train_flag(lr="1e300", epochs="1", train_frac="0.7"),
     EXIT_VALIDATION, "forward: overflow encountered in matmul; the parameters or the input values "
                      "are out of range"),
    ("manifest a JSON list",
     lambda data, tmp: train_args(_json_list(data / "manifest.json"), tmp / "run"),
     EXIT_VALIDATION, "manifest.json: not a JSON object"),
    ("temperature below the floor", _train_flag(tau_s="1e-16"), EXIT_USAGE,
     "tau_s must be >= 0.002, got 1e-16"),
    ("config temperature below the floor", _config_doc({"tau_l": 1e-3}), EXIT_USAGE,
     "tau_l must be >= 0.002, got 0.001"),
    ("checkpoint config not an object", _checkpoint_meta("config", "not a config", "eval"),
     EXIT_VALIDATION, "checkpoint.json: config: not a JSON object: 'not a config'"),
    ("checkpoint config with an unknown field", _checkpoint_meta("config", {"bogus": 1}, "heatmap"),
     EXIT_VALIDATION, "checkpoint.json: config: unknown fields ['bogus']"),
    ("config file with unknown fields", _config_doc({"zeta": 1, "epochs": 2, "bogus": 2}),
     EXIT_USAGE, "cfg.json: unknown fields ['bogus', 'zeta']"),
    ("config file value out of range under a flag",
     lambda data, tmp: [*_config_doc({"epochs": 0})(data, tmp), "--epochs", "2"],
     EXIT_USAGE, "cfg.json: epochs must be >= 1, got 0"),
    ("checkpoint config value out of range", _checkpoint_meta("config", {"epochs": 0}, "eval"),
     EXIT_VALIDATION, "checkpoint.json: config: epochs must be >= 1, got 0"),
]
MALFORMED_INPUTS += [
    ("view missing on a manifest that hides views", _view_missing_on_hidden_views,
     EXIT_VALIDATION, "hidden/manifest.json: --view-missing 0.2: sample 6 has no available view"),
    ("train on labels the metrics cannot score",
     lambda data, tmp: ["train", "--manifest", str(_one_label(tmp)), "--out", str(tmp / "run"),
                        "--epochs", "1"],
     EXIT_VALIDATION, "one/manifest.json cannot be scored: ranking_loss: every sample is "
                      "degenerate"),
    ("eval on labels the metrics cannot score", _eval_one_label,
     EXIT_VALIDATION, "one/manifest.json cannot be scored: ranking_loss: every sample is "
                      "degenerate"),
]


def _hidden_labels(data, tmp):
    """Save the dataset synth_args writes with half its 72 labels hidden by
    its own label indicator; returns the manifest."""
    dataset = load_dataset(data / "manifest.json")
    _, wi = mvmlc.generate_indicators(24, 2, 3, 0.0, 0.5, seed=9)
    return save_dataset(mvmlc.apply_indicators(dataset, None, wi), tmp / "hidden_labels")


def _eval_hidden_labels(data, tmp):
    """Evaluate a fresh checkpoint of the dataset's architecture on :func:`_hidden_labels`."""
    params = ModelParams.initialize(np.random.default_rng(0), (5, 6), 3, 4, 6)
    save_checkpoint(tmp / "checkpoint.json", params, seed=0, epoch=0)
    return ["eval", "--checkpoint", str(tmp / "checkpoint.json"),
            "--manifest", str(_hidden_labels(data, tmp))]


# A scored set with labels hidden: the metrics would read them as negatives.
UNKNOWN_LABELS = ", and the metrics would count them as negatives"
MALFORMED_INPUTS += [
    ("train scores the training set --label-missing hides", _train_flag(label_missing="0.5"),
     EXIT_VALIDATION, "data/manifest.json cannot be scored: 36 of its 72 labels are unknown"
                      + UNKNOWN_LABELS),
    ("eval on a manifest that hides labels", _eval_hidden_labels, EXIT_VALIDATION,
     "hidden_labels/manifest.json cannot be scored: 36 of its 72 labels are unknown"
     + UNKNOWN_LABELS),
    ("ablate scores a test split the manifest hides labels of",
     lambda data, tmp: ["ablate", "--manifest", str(_hidden_labels(data, tmp)),
                        "--out", str(tmp / "a"), "--epochs", "1", "--train-frac", "0.7"],
     EXIT_VALIDATION, "hidden_labels/manifest.json cannot be scored: 8 of its 21 labels are unknown"
                      + UNKNOWN_LABELS),
]
# Damaged .npy files in place of view 1 of the dataset synth_args writes.
MALFORMED_INPUTS += [
    (f"view file {case}", _npy_file(raw), EXIT_VALIDATION,
     f"manifest.json: view 1 file view_1.npy: {message}")
    for case, (raw, message) in malformed_npy(
        synth_dataset(24, 2, 3, (5, 6), noise=0.3, seed=1).views[1]).items()]


# JSON the parser gives up on with an exception other than JSONDecodeError,
# and the start of that exception's message.
UNPARSEABLE_JSON = {
    "nested past the recursion limit": ("[" * 200000, "maximum recursion depth exceeded"),
    "holding an integer past the digit limit":
        ('{"epochs": ' + "1" * 5000 + "}", "Exceeds the limit ("),
}


def _unparseable(which, text):
    """Write ``text`` as the manifest, the config file or the checkpoint, and
    return the argv that reads it."""
    def setup(data, tmp):
        manifest = data / "manifest.json"
        path = {"manifest": manifest, "config file": tmp / "cfg.json",
                "checkpoint": tmp / "checkpoint.json"}[which]
        path.write_text(text)
        if which == "checkpoint":
            return ["eval", "--checkpoint", str(path), "--manifest", str(manifest)]
        config = ["--config", str(path)] if which == "config file" else []
        return train_args(manifest, tmp / "run") + config
    return setup


MALFORMED_INPUTS += [
    (f"{which} {case}", _unparseable(which, text), EXIT_VALIDATION,
     f"{file}: invalid JSON ({reason}")
    for which, file in [("manifest", "manifest.json"), ("config file", "cfg.json"),
                        ("checkpoint", "checkpoint.json")]
    for case, (text, reason) in UNPARSEABLE_JSON.items()]


# Sizes of 2**63 or more, which numpy refuses before it asks the OS for memory.
HUGE = str(10 ** 22)


def _synth_too_large(flag):
    """The row for ``synth`` of 40 rows, 2 views, 3 labels and 8-wide views
    whose ``--flag`` is ``HUGE``."""
    sizes = {"n": "40", "views": "2", "labels": "3", "dims": "8", flag: HUGE}
    return (f"synth --{flag} beyond memory",
            lambda data, tmp: ["synth", *[x for f, v in sizes.items() for x in (f"--{f}", v)],
                               "--out", str(tmp / "s")],
            EXIT_USAGE, "n_samples {n}, n_views {views}, n_labels {labels} and dims {dims} need "
                        "more values than memory holds".format(**sizes))


MALFORMED_INPUTS += [
    ("embedding width beyond memory", _train_flag(embed_dim=HUGE), EXIT_USAGE,
     f"embed_dim {HUGE} and hidden_dim 6 need "),
    ("hidden width beyond memory", _train_flag(hidden_dim=HUGE), EXIT_USAGE,
     f"embed_dim 4 and hidden_dim {HUGE} need "),
] + [_synth_too_large(flag) for flag in ("n", "views", "labels", "dims")]


# A loss weight so large that the first squared gradient overflows.
MALFORMED_INPUTS += [
    (f"loss weight {weight} overflows the Adam second moment", _train60(f"--{weight}", "1e200"),
     EXIT_VALIDATION, "epoch 1: a squared gradient overflows the Adam second moment at "
                      f"'{encoder}_encoder.0.hidden.weight'; the input values, the loss weights or "
                      "the learning rate are too large")
    for weight, encoder in [("alpha", "shared"), ("beta", "shared"), ("gamma", "private")]]


@pytest.mark.parametrize("what,argv,code,names", MALFORMED_INPUTS,
                         ids=[case[0] for case in MALFORMED_INPUTS])
def test_malformed_input_maps_to_exit_code(dataset_dir, tmp_path, capsys, what, argv, code, names):
    args = argv(dataset_dir, tmp_path)
    capsys.readouterr()
    assert main(args) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err


@pytest.mark.parametrize("command,flags", [
    ("train", []), ("train", ["--train-frac", "0.5", "--eval-every", "1"]), ("ablate", []),
    ("train", ["--label-missing", "0.5"])])
def test_labels_the_metrics_cannot_score_are_refused_before_training(tmp_path, capsys, command,
                                                                     flags):
    # A one-label set would be trained on, then fail its first report; with
    # labels hidden and no split, the report would read them as negatives.
    manifest = _one_label(tmp_path)
    out = tmp_path / "run"
    out.mkdir()
    assert main([command, "--manifest", str(manifest), "--out", str(out), "--epochs", "1",
                 *flags]) == EXIT_VALIDATION
    assert list(out.iterdir()) == []
    assert "cannot be scored" in capsys.readouterr().err


def test_heatmap_snapshots_take_labels_the_metrics_cannot_score(tmp_path, capsys):
    manifest = _one_label(tmp_path)
    assert main(["heatmap", "--manifest", str(manifest), "--out", str(tmp_path / "h"),
                 "--epochs", "1", "--snapshots", "0,1"]) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("command", ["eval", "heatmap"])
@pytest.mark.parametrize("config", [{}, {"epochs": 5, "tau_s": 0.3}], ids=["empty", "partial"])
def test_checkpoint_config_of_known_valid_fields_loads(dataset_dir, tmp_path, capsys, command,
                                                       config):
    # save_checkpoint's default config is {}; train writes every field.
    argv = _checkpoint_meta("config", config, command)(dataset_dir, tmp_path)
    assert main(argv) == EXIT_OK
    capsys.readouterr()


def test_csv_and_npy_manifests_load_and_evaluate_alike(tmp_path, capsys):
    dataset = synth_dataset(30, 2, 3, (5, 6), noise=0.3, seed=3)
    v, w = mvmlc.generate_indicators(30, 2, 3, 0.3, 0.3, seed=4)
    hidden = mvmlc.apply_indicators(dataset, v, w)
    manifests = [save_dataset(hidden, tmp_path / "npy"), write_csv_manifest(hidden, tmp_path / "csv")]
    assert {p.suffix for p in manifests[0].parent.iterdir()} == {".json", ".npy"}
    npy, csv = [load_dataset(m) for m in manifests]
    for a, b in zip(npy.views + [npy.labels, npy.view_indicator, npy.label_indicator],
                    csv.views + [csv.labels, csv.view_indicator, csv.label_indicator], strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    # Both formats of the labels the indicator hides are refused alike.
    for manifest in manifests:
        capsys.readouterr()
        assert main(train_args(manifest, tmp_path / "refused")) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: the training set of manifest {manifest} cannot be scored: 27 of its 90 "
            "labels are unknown, and the metrics would count them as negatives\n")
    # The same data with its views hidden only trains and evaluates alike.
    observed = mvmlc.apply_indicators(dataset, v, None)
    manifests = [save_dataset(observed, tmp_path / "npy_v"),
                 write_csv_manifest(observed, tmp_path / "csv_v")]
    reports, checkpoints = [], []
    for i, manifest in enumerate(manifests):
        assert main(train_args(manifest, tmp_path / f"run{i}")) == EXIT_OK
        checkpoints.append((tmp_path / f"run{i}" / "checkpoint.json").read_bytes())
    assert checkpoints[0] == checkpoints[1]
    for manifest in manifests:
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(tmp_path / "run0" / "checkpoint.json"),
                     "--manifest", str(manifest)]) == EXIT_OK
        reports.append(capsys.readouterr().out)
    assert reports[0].startswith("ap ") and reports[0] == reports[1]


def test_damaged_npy_file_ends_in_exit_0_or_3(tmp_path, capsys):
    # Seeded truncations and byte flips of one small .npy file, each run
    # through eval: it evaluates or is refused as a validation error.
    data = tmp_path / "data"
    assert main(["synth", "--n", "30", "--views", "2", "--labels", "3", "--dims", "3,4",
                 "--seed", "6", "--out", str(data)]) == EXIT_OK
    assert main(train_args(data / "manifest.json", tmp_path / "run", epochs="1")) == EXIT_OK
    argv = ["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
            "--manifest", str(data / "manifest.json")]
    good = (data / "view_0.npy").read_bytes()
    header = good.index(b"\n") + 1
    rng = np.random.default_rng(21)
    damaged = [good[:cut] for cut in rng.integers(0, len(good), 100)]
    for at in [*rng.integers(0, header, 150), *rng.integers(header, len(good), 100)]:
        raw = bytearray(good)
        raw[at] ^= int(rng.integers(1, 256))
        damaged.append(bytes(raw))
    codes = []
    for raw in damaged:
        (data / "view_0.npy").write_bytes(raw)
        capsys.readouterr()
        codes.append(main(argv))
        err = capsys.readouterr().err
        assert codes[-1] == EXIT_OK or (codes[-1] == EXIT_VALIDATION and err.startswith("error: ")), err
    assert set(codes) == {EXIT_OK, EXIT_VALIDATION}


def test_parameters_beyond_memory_are_a_usage_error(dataset_dir, tmp_path, capsys,
                                                    refuse_large_allocations):
    args = train_args(dataset_dir / "manifest.json", tmp_path / "run")
    args[args.index("--embed-dim") + 1] = "100000000"
    capsys.readouterr()
    assert main(args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: view_dims [5, 6], embed_dim 100000000 and hidden_dim 6 need ")
    assert "parameters, more than memory holds" in err


# Each float flag of train and synth, and the name its range error gives.
FLOAT_FLAGS = [
    ("--lr", "learning_rate"), ("--adam-beta1", "adam_beta1"), ("--adam-beta2", "adam_beta2"),
    ("--adam-eps", "adam_eps"), ("--alpha", "alpha"), ("--beta", "beta"), ("--gamma", "gamma"),
    ("--tau-s", "tau_s"), ("--tau-l", "tau_l"), ("--mask-ratio", "mask_ratio"),
    ("--view-missing", "view_missing_ratio"), ("--label-missing", "label_missing_ratio"),
    ("--train-frac", "train_fraction"), ("--noise", "noise"),
]


@pytest.mark.parametrize("flag,name,value", [
    pytest.param(flag, name, value, id=flag if value == "-1e-05" else f"{flag} {value}")
    for value in ("-1e-05", "-inf") for flag, name in FLOAT_FLAGS])
def test_negative_value_with_an_exponent_reaches_its_check(dataset_dir, tmp_path, capsys,
                                                           flag, name, value):
    # argparse's own matcher reads "-1e-05" and "-inf" after a space as flags.
    if flag == "--noise":
        args = synth_args(tmp_path / "s")
    else:
        args = train_args(dataset_dir / "manifest.json", tmp_path / "run")
    capsys.readouterr()
    assert main([*args, flag, value]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must ") and value in err


# Per TrainConfig field: the words that set it on the command line, and the
# value they set, which is valid and not the default.
CONFIG_FLAGS = {
    "epochs": (["--epochs", "7"], 7),
    "learning_rate": (["--lr", "0.02"], 0.02),
    "adam_beta1": (["--adam-beta1", "0.5"], 0.5),
    "adam_beta2": (["--adam-beta2", "0.9"], 0.9),
    "adam_eps": (["--adam-eps", "1e-06"], 1e-06),
    "alpha": (["--alpha", "0.3"], 0.3),
    "beta": (["--beta", "0.4"], 0.4),
    "gamma": (["--gamma", "0.6"], 0.6),
    "tau_s": (["--tau-s", "0.25"], 0.25),
    "tau_l": (["--tau-l", "0.75"], 0.75),
    "mask_ratio": (["--mask-ratio", "0.2"], 0.2),
    "embed_dim": (["--embed-dim", "5"], 5),
    "hidden_dim": (["--hidden-dim", "7"], 7),
    "batch_size": (["--batch-size", "16"], 16),
    "seed": (["--seed", "9"], 9),
    "fixed_mask": (["--fixed-mask"], True),
    "label_gate_mode": (["--label-gate", "label"], "label"),
}


@pytest.mark.parametrize("subcommand", ["train", "ablate", "heatmap"])
@pytest.mark.parametrize("name", [f.name for f in fields(TrainConfig)])
def test_every_config_field_is_set_by_its_flag(tmp_path, subcommand, name):
    # build_train_config copies each field's flag by name, so a field added
    # without a flag would be silently unreachable from the command line.
    assert name in CONFIG_FLAGS, f"TrainConfig.{name} has no entry, or no flag"
    words, value = CONFIG_FLAGS[name]
    assert value != getattr(TrainConfig(), name)
    args = build_parser().parse_args([subcommand, "--manifest", str(tmp_path / "manifest.json"),
                                      "--out", str(tmp_path / "out"), *words])
    assert build_train_config(args) == TrainConfig(**{name: value})


@pytest.mark.parametrize("subcommand", ["train", "ablate", "heatmap"])
def test_help_shows_every_config_flag_with_its_help_and_default(monkeypatch, capsys, subcommand):
    monkeypatch.setenv("COLUMNS", "400")  # one line per flag: no help text is wrapped
    assert main([subcommand, "--help"]) == EXIT_OK
    text = " ".join(capsys.readouterr().out.split())
    for f in fields(TrainConfig):
        flag = CONFIG_FLAGS[f.name][0][0]
        # argparse prints label_gate_mode's choices; fixed_mask has no domain.
        bounds = "" if f.name in ("fixed_mask", "label_gate_mode") else f"; {knob_domain(f)}"
        shown = re.escape(f"{f.metadata['help']} (default {f.default}{bounds})")
        assert re.search(rf" {re.escape(flag)}( \S+)? {shown}", text), flag


def test_label_gate_outside_its_choices_is_a_usage_error(tmp_path, capsys):
    assert main(train_args(tmp_path / "manifest.json", tmp_path / "run", label_gate="bogus")) \
        == EXIT_USAGE
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    assert main(["synth", "--n", "30", "--views", "3", "--labels", "3", "--dims", "3,4,2",
                 "--seed", "4", "--out", str(out)]) == EXIT_OK
    return out / "manifest.json"


# A ratio in [0, 0.99] seven draws in eight, otherwise one out of range, so
# that most runs get past validation.
RATIOS = st.integers(0, 7).flatmap(
    lambda k: st.sampled_from([-0.1, 1.0, 1.5]) if k == 0 else st.floats(0.0, 0.99))


@settings(max_examples=40)
@given(command=st.sampled_from([["train"], ["ablate"], ["heatmap", "--snapshots", "0,1"]]),
       epochs=st.integers(1, 2),
       seed=st.one_of(st.integers(-3, 3), st.integers(0, 2 ** 70)),
       batch_size=st.integers(0, 40),
       view_missing=RATIOS, label_missing=RATIOS, mask_ratio=RATIOS,
       train_frac=st.one_of(st.none(), st.floats(-0.2, 1.2)),
       tau_s=st.floats(1e-20, 10.0), lr=st.floats(1e-6, 1e300))
def test_integer_and_ratio_flags_end_in_an_exit_code(tiny_manifest, tmp_path_factory, command,
                                                     epochs, seed, batch_size, view_missing,
                                                     label_missing, mask_ratio, train_frac, tau_s,
                                                     lr):
    # Any value of these flags either runs or is refused with a usage or
    # validation error: no traceback and no warning.
    args = [*command, "--manifest", str(tiny_manifest), "--out", str(tmp_path_factory.mktemp("run")),
            "--embed-dim", "3", "--hidden-dim", "4", "--epochs", str(epochs), "--seed", str(seed),
            "--batch-size", str(batch_size), "--view-missing", str(view_missing),
            "--label-missing", str(label_missing), "--mask-ratio", str(mask_ratio),
            "--tau-s", str(tau_s), "--lr", str(lr)]
    if train_frac is not None:
        args += ["--train-frac", str(train_frac)]
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        assert main(args) in (EXIT_OK, EXIT_USAGE, EXIT_VALIDATION)
