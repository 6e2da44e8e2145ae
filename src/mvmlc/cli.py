"""Batch front door: synthesize data, inject missingness, train, evaluate,
ablate and export channel-similarity diagnostics.

Every subcommand writes ``run_config.json`` (flags + seed) into its output
directory so results are replayable, and all outputs are byte-identical
across reruns with the same flags.  Exit codes: 0 success, 2 usage or
configuration error, 3 validation error, 4 I/O error.

Seed derivation for the train/ablate/heatmap protocol flags: view
missingness uses seed+1 over the full dataset (so evaluation also sees
incomplete views), the train/test split uses seed+2, and label missingness
uses seed+3 applied to the training split only (test labels stay fully
observed for metric ground truth).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .data import (
    MultiViewDataset,
    apply_indicators,
    generate_indicators,
    load_dataset,
    save_dataset,
    split,
    synth_dataset,
    write_matrix_csv,
)
from .errors import ConfigError, ContractError, ShapeError, ValidationError
from .metrics import MetricsReport, evaluate_all
from .model import ModelParams, forward_all, load_checkpoint, save_checkpoint
from .train import TrainConfig, TrainResult, channel_similarity, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

ABLATION_GRID = (
    (0, 0, 0),  # backbone only
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 1),
    (1, 1, 1),
)


@dataclass
class RunManifest:
    """What gets persisted so a run can be replayed."""

    subcommand: str
    out_dir: str
    seed: int
    config: dict
    manifest_path: str | None = None

    def write(self) -> None:
        out = Path(self.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        doc = {
            "subcommand": self.subcommand,
            "seed": self.seed,
            "config": self.config,
            "manifest": self.manifest_path,
        }
        with open(out / "run_config.json", "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _add_train_config_flags(parser: argparse.ArgumentParser) -> None:
    defaults = TrainConfig()
    grp = parser.add_argument_group("training configuration")
    grp.add_argument("--config", type=Path, default=None,
                     help="JSON file with training-config fields; explicit flags override it")
    grp.add_argument("--epochs", type=int, help=f"training epochs (default {defaults.epochs})")
    grp.add_argument("--lr", dest="learning_rate", type=float,
                     help=f"Adam learning rate (default {defaults.learning_rate})")
    grp.add_argument("--adam-beta1", dest="adam_beta1", type=float,
                     help=f"Adam first-moment decay (default {defaults.adam_beta1})")
    grp.add_argument("--adam-beta2", dest="adam_beta2", type=float,
                     help=f"Adam second-moment decay (default {defaults.adam_beta2})")
    grp.add_argument("--adam-eps", dest="adam_eps", type=float,
                     help=f"Adam epsilon (default {defaults.adam_eps})")
    grp.add_argument("--alpha", type=float,
                     help=f"instance-contrast weight (default {defaults.alpha})")
    grp.add_argument("--beta", type=float,
                     help=f"label-contrast weight (default {defaults.beta})")
    grp.add_argument("--gamma", type=float,
                     help=f"reconstruction weight (default {defaults.gamma})")
    grp.add_argument("--tau-s", dest="tau_s", type=float,
                     help=f"instance-contrast temperature (default {defaults.tau_s})")
    grp.add_argument("--tau-l", dest="tau_l", type=float,
                     help=f"label-contrast temperature (default {defaults.tau_l})")
    grp.add_argument("--mask-ratio", dest="mask_ratio", type=float,
                     help=f"masked fraction of each input row (default {defaults.mask_ratio})")
    grp.add_argument("--embed-dim", dest="embed_dim", type=int,
                     help=f"embedding width (default {defaults.embed_dim})")
    grp.add_argument("--hidden-dim", dest="hidden_dim", type=int,
                     help=f"MLP hidden width (default {defaults.hidden_dim})")
    grp.add_argument("--batch-size", dest="batch_size", type=int,
                     help="mini-batch size; 0 = full batch (default 0)")
    grp.add_argument("--seed", type=int, help=f"master RNG seed (default {defaults.seed})")
    grp.add_argument("--fixed-mask", dest="fixed_mask", action="store_true", default=None,
                     help="reuse one input mask for all epochs instead of fresh draws")
    grp.add_argument("--label-gate", dest="label_gate_mode", choices=("view", "label"),
                     help=f"denominator gate of the label contrast (default {defaults.label_gate_mode})")


def _add_protocol_flags(parser: argparse.ArgumentParser) -> None:
    grp = parser.add_argument_group("missingness protocol")
    grp.add_argument("--view-missing", type=float, default=0.0,
                     help="fraction of view entries to hide across the whole dataset (default 0)")
    grp.add_argument("--label-missing", type=float, default=0.0,
                     help="fraction of training labels to hide (default 0)")
    grp.add_argument("--train-frac", type=float, default=None,
                     help="train fraction for a train/test split (default: no split)")


def build_train_config(args: argparse.Namespace) -> TrainConfig:
    """Defaults < config file < explicit flags (each flag's dest is its field)."""
    values = TrainConfig().to_dict()
    if args.config is not None:
        with open(args.config) as fh:
            try:
                from_file = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"config file {args.config}: invalid JSON ({exc})") from None
        if not isinstance(from_file, dict):
            raise ValidationError(f"config file {args.config}: not a JSON object")
        unknown = set(from_file) - set(values)
        if unknown:
            raise ConfigError(f"config file {args.config}: unknown fields {sorted(unknown)}")
        values.update(from_file)
    for f in fields(TrainConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    return TrainConfig(**values)


def _prepare_protocol(dataset: MultiViewDataset, args: argparse.Namespace,
                      seed: int) -> tuple[MultiViewDataset, MultiViewDataset | None]:
    """Apply --view-missing / --train-frac / --label-missing; returns
    (train_data, test_data or None)."""
    if args.view_missing:
        vi, _ = generate_indicators(dataset.n_samples, dataset.n_views, dataset.n_labels,
                                    args.view_missing, 0.0, seed=seed + 1)
        dataset = apply_indicators(dataset, vi, None)
    test_data = None
    if args.train_frac is not None:
        dataset, test_data = split(dataset, args.train_frac, seed=seed + 2)
    if args.label_missing:
        _, wi = generate_indicators(dataset.n_samples, dataset.n_views, dataset.n_labels,
                                    0.0, args.label_missing, seed=seed + 3)
        dataset = apply_indicators(dataset, None, wi)
    return dataset, test_data


def _final_report(result: TrainResult, train_data: MultiViewDataset,
                  test_data: MultiViewDataset | None, seed: int) -> MetricsReport:
    target = test_data if test_data is not None else train_data
    scores = forward_all(result.params, target, None, training=False).scores.value
    return evaluate_all(scores, target.labels, seed=seed,
                        epoch=result.log.records[-1].epoch)


def _write_report(report: MetricsReport, out: Path) -> None:
    (out / "metrics.txt").write_text(report.to_text())
    (out / "metrics.csv").write_text(
        MetricsReport.csv_header() + "\n" + report.to_csv_row() + "\n")


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma list of integers, got {text!r}") from None


def cmd_synth(args: argparse.Namespace) -> int:
    if args.n < 1 or args.views < 1 or args.labels < 1:
        raise ConfigError("--n, --views and --labels must all be >= 1")
    if args.dims:
        parts = _int_list(args.dims, "--dims")
        dims = tuple(parts) if len(parts) > 1 else parts[0]
    else:
        dims = 32
    dataset = synth_dataset(args.n, args.views, args.labels, dims,
                            noise=args.noise, seed=args.seed)
    out = Path(args.out)
    manifest = save_dataset(dataset, out)
    RunManifest("synth", str(out), args.seed,
                {"n": args.n, "views": args.views, "labels": args.labels,
                 "dims": args.dims or "32", "noise": args.noise}).write()
    print(f"wrote {manifest}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.manifest)
    config = build_train_config(args)
    train_data, test_data = _prepare_protocol(dataset, args, config.seed)
    result = train(train_data, config, eval_data=test_data,
                   eval_every=args.eval_every)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    RunManifest("train", str(out), config.seed, config.to_dict(),
                manifest_path=str(args.manifest)).write()
    save_checkpoint(out / "checkpoint.json", result.params, seed=config.seed,
                    epoch=config.epochs, config=config.to_dict())
    result.log.write_csv(out / "train_log.csv", include_timing=args.log_timing)
    report = _final_report(result, train_data, test_data, config.seed)
    _write_report(report, out)
    print(report.to_text(), end="")
    return EXIT_OK


def _checkpoint_and_dataset(args: argparse.Namespace) -> tuple[ModelParams, dict, MultiViewDataset]:
    """Load --checkpoint and --manifest; their view widths and label counts must agree."""
    params, meta = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.manifest)
    if tuple(meta["view_dims"]) != dataset.view_dims or meta["n_labels"] != dataset.n_labels:
        raise ValidationError(
            f"checkpoint was trained on views {tuple(meta['view_dims'])} with "
            f"{meta['n_labels']} labels; dataset has {dataset.view_dims} and {dataset.n_labels}")
    return params, meta, dataset


def cmd_eval(args: argparse.Namespace) -> int:
    params, meta, dataset = _checkpoint_and_dataset(args)
    scores = forward_all(params, dataset, None, training=False).scores.value
    report = evaluate_all(scores, dataset.labels, seed=meta["seed"],
                          epoch=meta["epoch"])
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        RunManifest("eval", str(out), meta["seed"],
                    {"checkpoint": str(args.checkpoint)},
                    manifest_path=str(args.manifest)).write()
        _write_report(report, out)
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_ablate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.manifest)
    config = build_train_config(args)
    train_data, test_data = _prepare_protocol(dataset, args, config.seed)
    if test_data is None:
        test_data = train_data
    rows = []
    for use_instance, use_label, use_recon in ABLATION_GRID:
        run_cfg = replace(config,
                          alpha=config.alpha * use_instance,
                          beta=config.beta * use_label,
                          gamma=config.gamma * use_recon)
        result = train(train_data, run_cfg)
        scores = forward_all(result.params, test_data, None, training=False).scores.value
        report = evaluate_all(scores, test_data.labels, seed=run_cfg.seed,
                              epoch=run_cfg.epochs)
        rows.append((use_instance, use_label, use_recon, report))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    RunManifest("ablate", str(out), config.seed, config.to_dict(),
                manifest_path=str(args.manifest)).write()
    lines = ["instance_loss,label_loss,recon_loss,ap,auc"]
    for li, ll, lr, report in rows:
        lines.append(f"{li},{ll},{lr},{report.ap!r},{report.auc!r}")
    (out / "ablation.csv").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def cmd_heatmap(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.checkpoint is not None:
        params, meta, dataset = _checkpoint_and_dataset(args)
        sim = channel_similarity(params, dataset)
        epoch = meta["epoch"]
        write_matrix_csv(out / f"channel_similarity_epoch{epoch}.csv", sim)
        RunManifest("heatmap", str(out), meta["seed"],
                    {"checkpoint": str(args.checkpoint)},
                    manifest_path=str(args.manifest)).write()
        print(f"wrote channel_similarity_epoch{epoch}.csv")
        return EXIT_OK
    if not args.snapshots:
        raise ConfigError("heatmap needs --snapshots (training snapshots) or --checkpoint")
    epochs = tuple(_int_list(args.snapshots, "--snapshots"))
    dataset = load_dataset(args.manifest)
    config = build_train_config(args)
    train_data, _ = _prepare_protocol(dataset, args, config.seed)
    result = train(train_data, config, snapshot_epochs=epochs)
    RunManifest("heatmap", str(out), config.seed,
                dict(config.to_dict(), epochs=list(epochs)),
                manifest_path=str(args.manifest)).write()
    for k in epochs:
        write_matrix_csv(out / f"channel_similarity_epoch{k}.csv", result.snapshots[k])
    print(f"wrote {len(epochs)} channel-similarity matrices")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvmlc",
        description="Multi-view multi-label classification with missing views and labels.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--n", type=int, required=True, help="number of samples")
    p_synth.add_argument("--views", type=int, required=True, help="number of views")
    p_synth.add_argument("--labels", type=int, required=True, help="number of labels")
    p_synth.add_argument("--dims", type=str, default=None,
                         help="view widths: one int or comma list (default 32)")
    p_synth.add_argument("--noise", type=float, default=0.1, help="feature noise scale (default 0.1)")
    p_synth.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_synth.add_argument("--out", type=Path, required=True, help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="train on a dataset manifest")
    p_train.add_argument("--manifest", type=Path, required=True, help="dataset manifest path")
    p_train.add_argument("--out", type=Path, required=True, help="output directory")
    p_train.add_argument("--eval-every", type=int, default=0,
                         help="attach test metrics every K epochs (default off)")
    p_train.add_argument("--log-timing", action="store_true",
                         help="include wall_ms in train_log.csv (breaks byte-identical reruns)")
    _add_protocol_flags(p_train)
    _add_train_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", type=Path, required=True)
    p_eval.add_argument("--manifest", type=Path, required=True)
    p_eval.add_argument("--out", type=Path, default=None, help="optional output directory")
    p_eval.set_defaults(func=cmd_eval)

    p_ablate = sub.add_parser("ablate", help="run the 8 on/off loss combinations")
    p_ablate.add_argument("--manifest", type=Path, required=True)
    p_ablate.add_argument("--out", type=Path, required=True)
    _add_protocol_flags(p_ablate)
    _add_train_config_flags(p_ablate)
    p_ablate.set_defaults(func=cmd_ablate)

    p_heat = sub.add_parser("heatmap", help="export channel-similarity matrices")
    p_heat.add_argument("--manifest", type=Path, required=True)
    p_heat.add_argument("--out", type=Path, required=True)
    p_heat.add_argument("--checkpoint", type=Path, default=None,
                        help="export one matrix from this checkpoint instead of training")
    p_heat.add_argument("--snapshots", type=str, default=None,
                        help="comma list of snapshot epochs, e.g. 0,20,40,60")
    _add_protocol_flags(p_heat)
    _add_train_config_flags(p_heat)
    p_heat.set_defaults(func=cmd_heatmap)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, ShapeError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
