"""Batch front door: synthesize data, inject missingness, train, evaluate,
ablate and export channel-similarity diagnostics.

Every output directory gets a ``run_config.json`` recording the parsed
flags, from which the run replays, and the resolved training config (see
:func:`_write_run_config`); reruns with the same flags are byte-identical.
Exit codes: 0 success, 2 usage or configuration error, 3 validation error,
4 I/O error.

Seed derivation for the train/ablate/heatmap protocol flags: view
missingness uses seed+1 over the full dataset (so evaluation also sees
incomplete views), the train/test split uses seed+2, and label missingness
uses seed+3 applied to the training split only (test labels stay fully
observed for metric ground truth).  A set a report scores (the test split,
else the training set; eval's manifest) must know every label, since the
metrics would read a hidden one as a negative: ``train`` and ``ablate``
refuse one before training.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

from .data import (
    MultiViewDataset,
    apply_indicators,
    csv_text,
    generate_indicators,
    load_dataset,
    read_json_object,
    save_dataset,
    split,
    synth_dataset,
    write_json,
    write_matrix_csv,
)
from .errors import ConfigError, ContractError, ShapeError, ValidationError
from .metrics import CSV_COLUMNS, MetricsReport, check_scorable, evaluate_all
from .model import ModelParams, check_fits, forward_all, load_checkpoint, save_checkpoint
from .train import TrainConfig, channel_similarity, knob_domain, train

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


class _Parser(argparse.ArgumentParser):
    """Reads a negative number with an exponent (-1e-3), or float()'s -inf,
    -infinity or -nan in any case, as a value, not as a flag.  ``__init__``
    sets the matcher, so it is replaced after."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)


def _write_run_config(out: Path, args: argparse.Namespace, config: TrainConfig | None = None) -> None:
    """Write ``out/run_config.json``, creating ``out``.  ``flags`` holds every
    parsed flag but ``--out`` by its dest, paths as strings: passed back with
    any ``--out`` they rewrite the same files.  ``config`` is the resolved
    training config, or null for a run that does not train."""
    out.mkdir(parents=True, exist_ok=True)
    flags = {key: str(value) if isinstance(value, Path) else value
             for key, value in vars(args).items() if key not in ("out", "func", "training_flags")}
    write_json(out / "run_config.json",
               {"flags": flags, "config": None if config is None else config.to_dict()})


def _add_training_flags(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    """Add --manifest, --out, the missingness protocol, --config and one flag
    per TrainConfig field (dest, type, default, flag and domain from the
    field); returns the actions that configure training, in that order."""
    parser.add_argument("--manifest", type=Path, required=True, help="dataset manifest path")
    parser.add_argument("--out", type=Path, required=True, help="output directory")
    protocol = parser.add_argument_group("missingness protocol")
    config = parser.add_argument_group("training configuration")
    actions = [
        protocol.add_argument("--view-missing", type=float, default=0.0,
                              help="fraction of view entries to hide across the whole dataset (default 0)"),
        protocol.add_argument("--label-missing", type=float, default=0.0,
                              help="fraction of training labels to hide (default 0)"),
        protocol.add_argument("--train-frac", type=float, default=None,
                              help="train fraction for a train/test split (default: no split)"),
        config.add_argument("--config", type=Path, default=None,
                            help="JSON file with training-config fields; explicit flags override it"),
    ]
    for f in fields(TrainConfig):
        flag = f.metadata["flag"] or "--" + f.name.replace("_", "-")
        kind = type(f.default)
        options = ({"action": "store_true", "default": None} if kind is bool
                   else {"type": kind, "choices": f.metadata["choices"]})
        domain = None if f.metadata["choices"] else knob_domain(f)  # argparse shows choices
        actions.append(config.add_argument(flag, dest=f.name, help=f"{f.metadata['help']} (default "
                                           f"{f.default}{'; ' + domain if domain else ''})", **options))
    return actions


def build_train_config(args: argparse.Namespace) -> TrainConfig:
    """Defaults < a valid config file < explicit flags (each flag's dest is its field)."""
    config = TrainConfig()
    if args.config is not None:
        try:
            config = TrainConfig.from_dict(read_json_object(args.config, "config file"))
        except ConfigError as exc:
            raise ConfigError(f"config file {args.config}: {exc}") from None
    flags = {f.name: getattr(args, f.name, None) for f in fields(TrainConfig)}
    return replace(config, **{name: flag for name, flag in flags.items() if flag is not None})


def _training_inputs(args: argparse.Namespace) -> tuple[
        TrainConfig, MultiViewDataset, MultiViewDataset | None]:
    """Load --manifest, build the training config, then apply --view-missing
    / --train-frac / --label-missing; returns (config, train_data, test_data
    or None)."""
    dataset = load_dataset(args.manifest)
    config = build_train_config(args)
    if args.view_missing:
        vi, _ = generate_indicators(dataset.n_samples, dataset.n_views, dataset.n_labels,
                                    args.view_missing, 0.0, seed=config.seed + 1)
        try:
            dataset = apply_indicators(dataset, vi, None)
        except ValidationError as exc:
            raise ValidationError(f"manifest {args.manifest}: --view-missing {args.view_missing}: "
                                  f"{exc} (the flag keeps a random view of each sample, which "
                                  "the manifest may already hide)") from None
    test_data = None
    if args.train_frac is not None:
        dataset, test_data = split(dataset, args.train_frac, seed=config.seed + 2)
    if args.label_missing:
        _, wi = generate_indicators(dataset.n_samples, dataset.n_views, dataset.n_labels,
                                    0.0, args.label_missing, seed=config.seed + 3)
        dataset = apply_indicators(dataset, None, wi)
    return config, dataset, test_data


def _check_scorable(data: MultiViewDataset, what: str) -> None:
    """Refuse ``data``, named ``what``, if :func:`check_scorable` does."""
    try:
        check_scorable(data.labels, data.label_indicator)
    except ContractError as exc:
        raise ValidationError(f"{what} cannot be scored: {exc}") from None


def _scored_set(args: argparse.Namespace, train_data: MultiViewDataset,
                test_data: MultiViewDataset | None) -> MultiViewDataset:
    """The set the final report scores, the test split or else the training
    set, once :func:`_check_scorable` accepts it."""
    name, data = ("test", test_data) if test_data is not None else ("training", train_data)
    _check_scorable(data, f"the {name} set of manifest {args.manifest}")
    return data


def _evaluate(params: ModelParams, data: MultiViewDataset, seed: int, epoch: int) -> MetricsReport:
    """The metrics report of the untaped forward on ``data``."""
    scores = forward_all(params, data, None, training=False).scores.value
    return evaluate_all(scores, data.labels, seed=seed, epoch=epoch)


def _write_report(report: MetricsReport, out: Path) -> None:
    (out / "metrics.txt").write_text(report.to_text())
    (out / "metrics.csv").write_text(csv_text([CSV_COLUMNS, report.csv_row()]))


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma list of integers, got {text!r}") from None


def cmd_synth(args: argparse.Namespace) -> int:
    if args.dims is not None:
        parts = _int_list(args.dims, "--dims")
        dims = tuple(parts) if len(parts) > 1 else parts[0]
    else:
        dims = 32
    dataset = synth_dataset(args.n, args.views, args.labels, dims,
                            noise=args.noise, seed=args.seed)
    manifest = save_dataset(dataset, args.out)
    _write_run_config(args.out, args)
    print(f"wrote {manifest}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    config, train_data, test_data = _training_inputs(args)
    target = _scored_set(args, train_data, test_data)
    result = train(train_data, config, eval_data=test_data,
                   eval_every=args.eval_every)
    _write_run_config(args.out, args, config)
    save_checkpoint(args.out / "checkpoint.json", result.params, seed=config.seed,
                    epoch=config.epochs, config=config.to_dict())
    result.log.write_csv(args.out / "train_log.csv", include_timing=args.log_timing)
    # With --eval-every dividing --epochs, the last epoch's report is the final one.
    report = result.log.records[-1].report or _evaluate(
        result.params, target, config.seed, config.epochs)
    _write_report(report, args.out)
    print(report.to_text(), end="")
    return EXIT_OK


def _checkpoint_and_dataset(args: argparse.Namespace) -> tuple[ModelParams, dict, MultiViewDataset]:
    """Load --checkpoint and --manifest; the checkpoint's config must be one
    TrainConfig takes, and their view widths and label counts must agree."""
    params, meta = load_checkpoint(args.checkpoint)
    try:
        TrainConfig.from_dict(meta["config"])
    except ConfigError as exc:
        raise ValidationError(f"checkpoint {args.checkpoint}: config: {exc}") from None
    dataset = load_dataset(args.manifest)
    check_fits(params, dataset, "checkpoint was trained on")
    return params, meta, dataset


def cmd_eval(args: argparse.Namespace) -> int:
    params, meta, dataset = _checkpoint_and_dataset(args)
    _check_scorable(dataset, f"manifest {args.manifest}")
    report = _evaluate(params, dataset, meta["seed"], meta["epoch"])
    if args.out is not None:
        _write_run_config(args.out, args)
        _write_report(report, args.out)
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_ablate(args: argparse.Namespace) -> int:
    config, train_data, test_data = _training_inputs(args)
    target = _scored_set(args, train_data, test_data)
    rows = [("instance_loss", "label_loss", "recon_loss", "ap", "auc")]
    for use_instance, use_label, use_recon in ABLATION_GRID:
        run_cfg = replace(config,
                          alpha=config.alpha * use_instance,
                          beta=config.beta * use_label,
                          gamma=config.gamma * use_recon)
        report = _evaluate(train(train_data, run_cfg).params, target, run_cfg.seed, run_cfg.epochs)
        rows.append((use_instance, use_label, use_recon, report.ap, report.auc))
    _write_run_config(args.out, args, config)
    text = csv_text(rows)
    (args.out / "ablation.csv").write_text(text)
    print(text, end="")
    return EXIT_OK


def cmd_heatmap(args: argparse.Namespace) -> int:
    if args.checkpoint is not None:
        ignored = [flag.option_strings[0] for flag in args.training_flags
                   if getattr(args, flag.dest) != flag.default]
        if ignored:
            raise ConfigError("heatmap --checkpoint exports the checkpoint as trained; "
                              f"it does not take {', '.join(ignored)}")
        params, meta, dataset = _checkpoint_and_dataset(args)
        sim = channel_similarity(params, dataset)
        epoch = meta["epoch"]
        _write_run_config(args.out, args)
        write_matrix_csv(args.out / f"channel_similarity_epoch{epoch}.csv", sim)
        print(f"wrote channel_similarity_epoch{epoch}.csv")
        return EXIT_OK
    if not args.snapshots:
        raise ConfigError("heatmap needs --snapshots (training snapshots) or --checkpoint")
    epochs = tuple(_int_list(args.snapshots, "--snapshots"))
    if len(set(epochs)) < len(epochs):
        raise ConfigError(f"--snapshots names an epoch twice: {args.snapshots!r}")
    config, train_data, _ = _training_inputs(args)
    # Epochs past the last snapshot change no matrix, so training stops there;
    # a snapshot outside the schedule is left for train() to refuse.
    last = max(1, *epochs)
    stop = last if min(epochs) >= 0 and last <= config.epochs else config.epochs
    result = train(train_data, replace(config, epochs=stop), snapshot_epochs=epochs)
    _write_run_config(args.out, args, config)
    for k in epochs:
        write_matrix_csv(args.out / f"channel_similarity_epoch{k}.csv", result.snapshots[k])
    print(f"wrote {len(epochs)} channel-similarity matrices")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    _add_training_flags(p_train)
    p_train.add_argument("--eval-every", type=int, default=0,
                         help="attach test metrics every K epochs; needs --train-frac "
                              "(default off)")
    p_train.add_argument("--log-timing", action="store_true",
                         help="include wall_ms in train_log.csv (breaks byte-identical reruns)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", type=Path, required=True)
    p_eval.add_argument("--manifest", type=Path, required=True)
    p_eval.add_argument("--out", type=Path, default=None, help="optional output directory")
    p_eval.set_defaults(func=cmd_eval)

    p_ablate = sub.add_parser("ablate", help="run the 8 on/off loss combinations")
    _add_training_flags(p_ablate)
    p_ablate.set_defaults(func=cmd_ablate)

    p_heat = sub.add_parser("heatmap", help="export channel-similarity matrices")
    training_flags = _add_training_flags(p_heat)
    p_heat.add_argument("--checkpoint", type=Path, default=None,
                        help="export one matrix from this checkpoint instead of training; "
                             "takes no --snapshots, protocol or training flag")
    snapshots = p_heat.add_argument("--snapshots", type=str, default=None,
                                    help="comma list of snapshot epochs, e.g. 0,20,40,60")
    # the flags that configure training, which --checkpoint does not run
    p_heat.set_defaults(func=cmd_heatmap, training_flags=[snapshots, *training_flags])

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
