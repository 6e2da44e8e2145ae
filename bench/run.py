"""Benchmark of mvmlc training and evaluation, run from the repository root:

    python3 bench/run.py --workload train_fullbatch --seed 1 --seconds 30 --trace 0

Each run imports ``mvmlc`` from ``src/`` next to this directory, pins the
BLAS thread count and generates the workload's inputs from ``--seed``.  It
sets them up several times, before and between operations; the median is
``setup_s``.  It runs the workload's operation in a closed loop -- one
caller, each operation starting when the previous one ends -- until
``--seconds`` have passed, and checks every operation's outputs; a failed
check counts the operation as failed.  Every time is scaled to a host of
fixed speed (``hostspeed``), and each timing metric is a median over the
run's samples.

``--trace 0`` reports the end-to-end metrics with nothing traced.
``--trace 1`` alternates an untraced and a traced operation on the same
inputs, requires their outputs to be bitwise identical, and reports the
per-layer metrics, including the tracing overhead between the two.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment.  The full result, and with ``--trace 1`` every span, are
written under ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
SETUP_REPEATS = 3   # set-ups before the first operation
SETUP_SHARE = 0.1   # further set-ups between operations, up to this share of --seconds
BLAS_THREADS_MAX = 1


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def pin_blas_threads() -> int:
    """Pin BLAS to at most ``BLAS_THREADS_MAX`` threads and at most the
    usable cores; must run before numpy is imported.  One thread: with two
    on 2 vCPUs, a 256 x 256 product ran ~18x slower in the first second of
    a process, and load on the other vCPU stalled it."""
    threads = max(1, min(BLAS_THREADS_MAX, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def environment(threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "blas": blas_name,
            "blas_threads": threads, "numpy": np.__version__,
            "python": platform.python_version()}


def end_to_end(setup_s, timings, outcomes, attempted, failed) -> dict:
    ok = [o for o in outcomes if not o.errors]
    return {
        "setup_s": (median(setup_s), "s"),
        "train_samples_per_s": (median(timings.rows_per_s("epochs")), "samples/s"),
        "eval_samples_per_s": (median(timings.rows_per_s("evals")), "samples/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "test_ap": (ok[0].test_ap if ok else 0.0, "ratio"),
        "ok_share": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(workload, tracer, traced_ops, factors, outcomes, walls, traced_walls) -> dict:
    per_op = tracer.per_op()
    # Span times scaled by their operation's host factor; counts as they are.
    ops = [{k: v if "#" in k else v * factors[op] for k, v in per_op.get(op, {}).items()}
           for op in traced_ops]

    def ms(name: str) -> float:
        return median([op.get(name, 0.0) for op in ops])

    backward_ms = sum(op.get("numerics.backward", 0.0) for op in ops)
    records = sum(op.get("numerics.backward#count", 0) for op in ops)
    steps = sum(op.get("numerics.backward#calls", 0) for op in ops)
    epochs = sum(o.epochs for o in outcomes)

    def anchor_yield(skipped: int, gated_per_epoch: int) -> float:
        gated = gated_per_epoch * epochs
        return 1.0 - skipped / gated if gated else 0.0

    metrics = {
        "numerics.backward_ms": (ms("numerics.backward"), "ms"),
        "numerics.tape_records": (records / steps if steps else 0.0, "count"),
        "numerics.backward_us_per_record": (backward_ms * 1e3 / records if records else 0.0, "us"),
        "numerics.step_peak_mib": (workload.step_peak_mib(), "MiB"),
        "losses.instance_contrastive_ms": (ms("losses.instance_contrastive"), "ms"),
        "losses.label_contrastive_ms": (ms("losses.label_contrastive"), "ms"),
        "losses.reconstruction_ms": (ms("losses.reconstruction"), "ms"),
        "losses.classification_ms": (ms("losses.classification"), "ms"),
        "losses.instance_anchor_yield": (anchor_yield(
            sum(o.instance_skipped for o in outcomes), workload.instance_gated), "ratio"),
        "losses.label_anchor_yield": (anchor_yield(
            sum(o.label_skipped for o in outcomes), workload.label_gated), "ratio"),
        "model.forward_train_ms": (ms("model.forward_train"), "ms"),
        "model.encode_ms": (ms("model.encode"), "ms"),
        "model.decode_ms": (ms("model.decode"), "ms"),
        "model.project_ms": (ms("model.project"), "ms"),
        "model.head_ms": (ms("model.head"), "ms"),
        "model.forward_infer_ms": (ms("model.forward_infer"), "ms"),
        "model.load_checkpoint_ms": (ms("model.load_checkpoint"), "ms"),
        "data.mask_generate_ms": (ms("data.mask_generate"), "ms"),
        "data.input_mask_ms": (ms("data.input_mask"), "ms"),
        "data.batch_subset_ms": (ms("data.batch_subset"), "ms"),
        "data.load_dataset_ms": (ms("data.load_dataset"), "ms"),
        "train.adam_step_ms": (ms("train.adam_step"), "ms"),
        "train.adam_steps": (median([op.get("train.adam_step#calls", 0) for op in ops]), "count"),
        "train.self_ms": (ms("train.train.self"), "ms"),
        "metrics.evaluate_all_ms": (ms("metrics.evaluate_all"), "ms"),
    }
    for fn in ("average_precision", "hamming", "ranking_loss", "macro_auc", "one_error", "coverage"):
        metrics[f"metrics.{fn}_ms"] = (ms(f"metrics.{fn}"), "ms")
    metrics["cli.self_ms"] = (ms("cli.main.self"), "ms")
    # Each traced operation against the untraced one just before it.  The
    # first pair is left out when there are others: its untraced operation
    # holds the process's first, much slower, train() call.
    pairs = list(zip(walls, traced_walls))
    ratios = [traced / untraced for untraced, traced in pairs[1:] or pairs]
    metrics["trace.overhead_pct"] = ((median(ratios) - 1.0) * 100.0, "%")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_fullbatch", "train_minibatch", "eval_cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input, for a smoke test of the benchmark itself")
    args = parser.parse_args(argv)

    if not (SOURCE / "mvmlc" / "__init__.py").is_file():
        print(f"error: no mvmlc package under {SOURCE}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path.insert(0, str(SOURCE))
    import hostspeed
    import workloads
    from tracing import Tracer

    env = environment(threads)
    workload = workloads.build(args.workload, args.tiny)
    timings = workloads.Timings()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        setups: list[hostspeed.Interval] = []
        hostspeed.reference()       # warm-up, not used

        def set_up() -> None:
            with hostspeed.interval() as span:
                workload.setup(args.seed, Path(workdir), timings)
            setups.append(span)

        for _ in range(SETUP_REPEATS):
            set_up()
        workload.prepare_checks()

        tracer = Tracer() if args.trace else None
        outcomes, untraced_ops, traced_ops = [], [], []
        op_spans: dict[int, hostspeed.Interval] = {}
        raised: set[int] = set()
        failed = 0
        deadline = perf_counter() + args.seconds
        while not outcomes or perf_counter() < deadline:
            for traced in ((False, True) if tracer else (False,)):
                op = len(outcomes)
                with hostspeed.interval() as span:
                    try:
                        with tracer.installed(op) if traced else nullcontext():
                            outcome = workload.operation(timings)
                    except Exception:  # a failed operation is counted, not fatal
                        traceback.print_exc(file=sys.stderr)
                        outcome = workloads.Outcome((), math.nan, ["operation raised"])
                        raised.add(op)
                op_spans[op] = span
                if outcomes and outcome.fingerprint != outcomes[0].fingerprint:
                    outcome.errors.append("outputs differ from the first operation"
                                          + (" (traced vs untraced)" if traced else ""))
                if outcome.errors:
                    failed += 1
                    print(f"operation {op} failed: {outcome.errors[:3]}", file=sys.stderr)
                outcomes.append(outcome)
                (traced_ops if traced else untraced_ops).append(op)
            # More set-ups between operations sample set-up time across the
            # whole run, as long as set-up stays under SETUP_SHARE of it.
            if (perf_counter() < deadline
                    and sum(s.end - s.start for s in setups) < SETUP_SHARE * args.seconds):
                set_up()

        attempted = len(outcomes)
        setup_s = [(s.end - s.start) * hostspeed.factor(s) for s in setups]
        if tracer:
            factors = {op: hostspeed.factor(s) for op, s in op_spans.items()}
            # An operation that raised has no wall time to compare.
            walls = {op: math.nan if op in raised else (s.end - s.start) * factors[op]
                     for op, s in op_spans.items()}
            metrics = per_layer(workload, tracer, traced_ops, factors, outcomes,
                                [walls[op] for op in untraced_ops],
                                [walls[op] for op in traced_ops])
        else:
            metrics = end_to_end(setup_s, timings, outcomes, attempted, failed)

    out_dir = ROOT / ".bench_out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    samples = {"operations": attempted, "setups": len(setup_s),
               "epochs": len(timings.epochs), "evaluations": len(timings.evals)}
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "environment": env, "samples": samples, "setup_s": setup_s,
         "scaled_s": {name: timings.scaled_s(name) for name in ("epochs", "evals")},
         "raw_s": {name: timings.raw_s(name) for name in ("epochs", "evals")},
         **result}, indent=2) + "\n")
    if tracer:
        tracer.write(out_dir / f"{stem}-spans.jsonl")
    print(json.dumps({"environment": env, "samples": samples}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
