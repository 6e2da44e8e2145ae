"""The benchmark workloads: inputs generated from a seed, set-up, one timed
operation, and the gates every operation's outputs must pass.

All inputs are synthetic (3 views of width 32, 6 labels, noise 1.0) under
the standard protocol: half the view entries missing over the whole set,
a 70% train split, half the training labels missing -- the same seed
offsets ``mvmlc train --view-missing 0.5 --train-frac 0.7 --label-missing
0.5`` uses.  The program receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import hostspeed
import mvmlc
from tracing import patched

VIEWS, LABELS, WIDTH, NOISE = 3, 6, 32, 1.0
VIEW_MISSING = LABEL_MISSING = 0.5
TRAIN_FRACTION = 0.7
METRIC_NAMES = ("ap", "one_minus_hl", "one_minus_rl", "auc", "oe", "cov")


@dataclass
class Timings:
    """Epoch and evaluation times gathered across set-ups and operations:
    (rows, seconds as measured, host interval they were measured in)."""

    epochs: list[tuple[int, float, hostspeed.Interval]] = field(default_factory=list)
    evals: list[tuple[int, float, hostspeed.Interval]] = field(default_factory=list)

    def add_train(self, result, rows: int, span: hostspeed.Interval) -> None:
        self.epochs.extend((rows, r.wall_ms / 1e3, span) for r in result.log.records)

    def add_eval(self, rows: int, seconds: float, span: hostspeed.Interval) -> None:
        self.evals.append((rows, seconds, span))

    def raw_s(self, name: str) -> list[float]:
        return [seconds for _, seconds, _ in getattr(self, name)]

    def scaled_s(self, name: str) -> list[float]:
        """The named times scaled to the nominal host (see ``hostspeed``)."""
        mix = hostspeed.TRAINING if name == "epochs" else hostspeed.EVALUATION
        return [seconds * hostspeed.factor(span, mix) for _, seconds, span in getattr(self, name)]

    def rows_per_s(self, name: str) -> list[float]:
        return [rows / seconds for (rows, _, _), seconds in
                zip(getattr(self, name), self.scaled_s(name))]


@dataclass
class Outcome:
    """Outputs of one operation.  ``fingerprint`` holds every deterministic
    output as exact text, so two operations on the same inputs must match."""

    fingerprint: tuple[str, ...]
    test_ap: float
    errors: list[str]
    instance_skipped: int = 0
    label_skipped: int = 0
    epochs: int = 0


def standard_protocol(dataset, seed: int):
    """View missingness (seed+1), train/test split (seed+2), then label
    missingness on the training part (seed+3)."""
    vi, _ = mvmlc.generate_indicators(dataset.n_samples, VIEWS, LABELS,
                                      VIEW_MISSING, 0.0, seed=seed + 1)
    dataset = mvmlc.apply_indicators(dataset, vi, None)
    train_data, test_data = mvmlc.split(dataset, TRAIN_FRACTION, seed=seed + 2)
    _, wi = mvmlc.generate_indicators(train_data.n_samples, VIEWS, LABELS,
                                      0.0, LABEL_MISSING, seed=seed + 3)
    return mvmlc.apply_indicators(train_data, None, wi), test_data


def gated_anchors(gate: np.ndarray) -> int:
    """Anchors the contrastive gates admit in one pass over ``gate``'s rows:
    for every ordered view pair (a, b), a != b, the rows where both views
    are gated in."""
    on = gate > 0
    v = on.shape[1]
    return sum(int(np.count_nonzero(on[:, a] & on[:, b]))
               for a in range(v) for b in range(v) if a != b)


def warm_blas(rows: int) -> None:
    x = np.random.default_rng(0).standard_normal((min(rows, 1024), 64))
    x @ x.T


def report_errors(values: dict[str, float]) -> list[str]:
    return [f"metric {k}={values[k]!r} outside [0, 1]"
            for k in METRIC_NAMES if not 0.0 <= values[k] <= 1.0]


class TrainingWorkload:
    """One operation: ``train()`` for a few epochs, then the held-out
    evaluation ``mvmlc train`` reports."""

    def __init__(self, n: int, batch_size: int, epochs: int) -> None:
        self.n, self.batch_size, self.epochs = n, batch_size, epochs

    def setup(self, seed: int, workdir: Path, timings: Timings) -> None:
        dataset = mvmlc.synth_dataset(self.n, VIEWS, LABELS, WIDTH, noise=NOISE, seed=seed)
        self.train_data, self.test_data = standard_protocol(dataset, seed)
        self.set_config(seed)

    def set_config(self, seed: int) -> None:
        """Training config, BLAS warm-up and the anchors the gates admit."""
        self.config = mvmlc.TrainConfig(epochs=self.epochs, batch_size=self.batch_size, seed=seed)
        warm_blas(self.train_data.n_samples)
        # Mini-batches partition the rows, so one epoch gates these anchors
        # whatever the batch size.
        self.instance_gated = gated_anchors(self.train_data.view_indicator)
        self.label_gated = gated_anchors(mvmlc.label_availability_gate(
            self.train_data.label_indicator, self.train_data.view_indicator))

    def prepare_checks(self) -> None:
        pass  # every check compares outputs of the operations themselves

    def train(self, timings: Timings) -> tuple[object, Outcome]:
        """Timed ``train()``; the outcome holds every loss component, each
        of which must be finite."""
        train_mod = importlib.import_module("mvmlc.train")
        with hostspeed.interval() as span:
            result = train_mod.train(self.train_data, self.config)
        timings.add_train(result, self.train_data.n_samples, span)
        records = result.log.records
        outcome = Outcome(fingerprint=(), test_ap=math.nan, errors=[],
                          instance_skipped=sum(r.losses.instance_skipped for r in records),
                          label_skipped=sum(r.losses.label_skipped for r in records),
                          epochs=len(records))
        for r in records:
            for name, value in r.losses.components().items():
                outcome.fingerprint += (repr(value),)
                if not math.isfinite(value):
                    outcome.errors.append(f"epoch {r.epoch}: {name} is {value}")
        return result, outcome

    def operation(self, timings: Timings) -> Outcome:
        cli = importlib.import_module("mvmlc.cli")
        result, outcome = self.train(timings)
        with hostspeed.interval() as span:
            scores = cli.forward_all(result.params, self.test_data, None, training=False).scores.value
            report = cli.evaluate_all(scores, self.test_data.labels,
                                      seed=self.config.seed, epoch=self.epochs)
        timings.add_eval(self.test_data.n_samples, span.end - span.start, span)
        outcome.errors += report_errors({k: getattr(report, k) for k in METRIC_NAMES})
        outcome.fingerprint += (report.to_text(),)
        outcome.test_ap = report.ap
        return outcome

    def step_peak_mib(self) -> float:
        """Largest traced allocation peak of one training step (forward,
        losses and backward), over one epoch run under ``tracemalloc``."""
        train_mod = importlib.import_module("mvmlc.train")
        peaks: list[int] = []

        def reset_before(fn):
            def wrapper(*args, **kwargs):
                tracemalloc.reset_peak()
                return fn(*args, **kwargs)
            return wrapper

        def read_after(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1])
                return out
            return wrapper

        with patched([(train_mod, "forward_all", reset_before),
                      (train_mod, "backward", read_after)]):
            tracemalloc.start()
            try:
                train_mod.train(self.train_data, replace(self.config, epochs=1))
            finally:
                tracemalloc.stop()
        return max(peaks) / 2 ** 20


class EvalCliWorkload(TrainingWorkload):
    """One operation: train a checkpoint on a few hundred rows and save it,
    then run ``mvmlc eval`` in-process on a large saved manifest of other
    rows of the same draw.  The evaluation, the only part timed as one,
    reads the model without the tape."""

    def __init__(self, eval_rows: int, fit_rows: int, fit_epochs: int, fit_batch: int) -> None:
        super().__init__(fit_rows, fit_batch, fit_epochs)
        self.eval_rows = eval_rows

    def setup(self, seed: int, workdir: Path, timings: Timings) -> None:
        dataset = mvmlc.synth_dataset(self.n + self.eval_rows, VIEWS, LABELS, WIDTH,
                                      noise=NOISE, seed=seed)
        vi, _ = mvmlc.generate_indicators(dataset.n_samples, VIEWS, LABELS,
                                          VIEW_MISSING, 0.0, seed=seed + 1)
        dataset = mvmlc.apply_indicators(dataset, vi, None)
        _, wi = mvmlc.generate_indicators(self.n, VIEWS, LABELS, 0.0, LABEL_MISSING, seed=seed + 3)
        self.train_data = mvmlc.apply_indicators(dataset.subset(np.arange(self.n)), None, wi)
        self.eval_data = dataset.subset(np.arange(self.n, dataset.n_samples))
        self.manifest = mvmlc.save_dataset(self.eval_data, workdir / "eval_data")
        self.checkpoint = workdir / "checkpoint.json"
        self.set_config(seed)

    def prepare_checks(self) -> None:
        """The report of the in-memory data and parameters: the CSV and
        checkpoint round trips of ``mvmlc eval`` must not change a digit."""
        params = mvmlc.train(self.train_data, self.config).params
        scores = mvmlc.forward_all(params, self.eval_data, None, training=False).scores.value
        self.expected = mvmlc.evaluate_all(scores, self.eval_data.labels, seed=self.config.seed,
                                           epoch=self.config.epochs).to_text()

    def operation(self, timings: Timings) -> Outcome:
        cli = importlib.import_module("mvmlc.cli")
        result, outcome = self.train(timings)
        mvmlc.save_checkpoint(self.checkpoint, result.params, seed=self.config.seed,
                              epoch=self.config.epochs, config=self.config.to_dict())
        out = io.StringIO()
        with hostspeed.interval() as span, contextlib.redirect_stdout(out):
            code = cli.main(["eval", "--checkpoint", str(self.checkpoint),
                             "--manifest", str(self.manifest)])
        timings.add_eval(self.eval_rows, span.end - span.start, span)
        text = out.getvalue()
        outcome.fingerprint += (text,)
        if code != 0:
            outcome.errors.append(f"mvmlc eval exited with {code}")
            return outcome
        values = dict(line.split(" ", 1) for line in text.splitlines())
        outcome.errors += report_errors({k: float(values[k]) for k in METRIC_NAMES})
        if text != self.expected:
            outcome.errors.append("mvmlc eval report differs from the in-memory evaluation")
        outcome.test_ap = float(values["ap"])
        return outcome


def build(name: str, tiny: bool):
    """The named workload; ``tiny`` shrinks every size for a smoke test."""
    if name == "train_fullbatch":
        return TrainingWorkload(n=200 if tiny else 2000, batch_size=0, epochs=2 if tiny else 3)
    if name == "train_minibatch":
        return TrainingWorkload(n=600 if tiny else 12000, batch_size=128, epochs=1)
    if name == "eval_cli":
        return EvalCliWorkload(eval_rows=300 if tiny else 10000, fit_rows=100 if tiny else 500,
                               fit_epochs=2 if tiny else 12, fit_batch=64)
    raise ValueError(f"unknown workload {name!r}")
