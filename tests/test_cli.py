import json

import numpy as np
import pytest

from mvmlc.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main


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


class TestSynth:
    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["synth", "--n", "20", "--views", "3", "--labels", "4",
                     "--seed", "1", "--out", str(out)]) == EXIT_OK
        names = {p.name for p in out.iterdir()}
        assert names == {"manifest.json", "labels.csv", "view_0.csv", "view_1.csv",
                         "view_2.csv", "run_config.json"}

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(synth_args(a))
        main(synth_args(b))
        for name in ("manifest.json", "labels.csv", "view_0.csv", "view_1.csv", "run_config.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_samples_is_usage_error(self, tmp_path):
        assert main(synth_args(tmp_path / "x", n=0)) == EXIT_USAGE

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


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _malformed_checkpoint(drop_from):
    """Train a checkpoint, then corrupt the first hidden weight's entry."""
    def setup(data, tmp):
        main(train_args(data / "manifest.json", tmp / "run"))
        ckpt = tmp / "run" / "checkpoint.json"
        _edit_json(ckpt, lambda d: drop_from(d["parameters"]["shared_encoder.0.hidden.weight"]))
        return ["eval", "--checkpoint", str(ckpt), "--manifest", str(data / "manifest.json")]
    return setup


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
    ("config value of the wrong type",
     lambda data, tmp: ["train", "--manifest", str(data / "manifest.json"),
                        "--out", str(tmp / "run"), "--config", _config_file(tmp, {"epochs": "5"})],
     EXIT_USAGE, "epochs"),
    ("config bool for an int field",
     lambda data, tmp: ["train", "--manifest", str(data / "manifest.json"),
                        "--out", str(tmp / "run"), "--config", _config_file(tmp, {"seed": True})],
     EXIT_USAGE, "seed"),
    ("checkpoint values shorter than shape",
     _malformed_checkpoint(lambda p: p["values"].pop()),
     EXIT_VALIDATION, "shared_encoder.0.hidden.weight"),
    ("checkpoint parameter without shape",
     _malformed_checkpoint(lambda p: p.pop("shape")),
     EXIT_VALIDATION, "shared_encoder.0.hidden.weight"),
    ("checkpoint not a JSON object", _checkpoint_text("[1, 2]"), EXIT_VALIDATION, "checkpoint"),
    ("checkpoint parameters not an object",
     _checkpoint_text('{"version": 1, "view_dims": [5, 6], "n_labels": 3, "embed_dim": 4, '
                      '"hidden_dim": 6, "seed": 0, "epoch": 1, "config": {}, "parameters": 7}'),
     EXIT_VALIDATION, "parameter set"),
    ("checkpoint view widths not integers",
     _checkpoint_text('{"version": 1, "view_dims": ["x"], "n_labels": 3, "embed_dim": 4, '
                      '"hidden_dim": 6, "parameters": {}}'),
     EXIT_VALIDATION, "malformed field"),
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
    ("checkpoint value not finite",
     _malformed_checkpoint(lambda p: p["values"].__setitem__(0, float("nan"))),
     EXIT_VALIDATION, "shared_encoder.0.hidden.weight"),
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
]


@pytest.mark.parametrize("what,argv,code,names", MALFORMED_INPUTS,
                         ids=[case[0] for case in MALFORMED_INPUTS])
def test_malformed_input_maps_to_exit_code(dataset_dir, tmp_path, capsys, what, argv, code, names):
    args = argv(dataset_dir, tmp_path)
    capsys.readouterr()
    assert main(args) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err
