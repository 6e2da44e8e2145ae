"""Scaling of measured times to a host of fixed speed.

On a shared virtual machine the speed of the same code drifts by up to
~1.8x over seconds to minutes, because of load outside this process: a
fixed pure-Python loop measured for 20 s on 2 vCPUs took 113 to 206 ms, in
CPU time as much as in wall time.  A run's median lands on whatever level
the run happened to see.

So every timed interval -- one set-up, one operation, one ``train()`` call
or one evaluation -- runs between two measurements of a fixed reference
that belongs to the benchmark, not to the program.  The reference has one
part for each kind of work the program does (:data:`PARTS`).  When the run
is over, a time measured in an interval is multiplied by the nominal time
of a mix of parts over the median time of that mix among the references
measured within :data:`WINDOW_S` of the interval.  It then reads as it
would on a host where the parts take exactly their nominal times.  The
median over a window, rather than the two measurements next to the
interval, ignores the sub-second stalls that now and then slow one
measurement several times over.  A change to the program cannot move the
reference, so it moves the scaled times as much as the raw ones.

Different work slows differently: the whole mix (:data:`TRAINING`) tracks
training with its many small-array calls, and the interpreter and BLAS
parts alone (:data:`EVALUATION`) track the CSV parsing, forward pass and
per-row metric loops of an evaluation.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

WINDOW_S = 3.0              # references this close to an interval scale it
_PASSES = 5                 # a measurement is the median of each part over its passes

_rng = np.random.default_rng(0)
_SQUARE = _rng.standard_normal((256, 256))
_BATCH = _rng.standard_normal((128, 32))
_WEIGHT = _rng.standard_normal((32, 32))
_STREAM = _rng.standard_normal(2_000_000)      # 16 MB, beyond the caches


def _interpreter() -> None:
    total = 0
    for i in range(25_000):
        total += i * i


def _small_arrays() -> None:
    for _ in range(75):
        h = np.tanh(_BATCH @ _WEIGHT)
        h.sum(axis=0)
        np.exp(-h)


def _blas() -> None:
    _SQUARE @ _SQUARE


def _stream() -> None:
    (_STREAM * 1.0001).sum()


# Each part with its nominal time, about its time on 2 vCPUs.
PARTS: tuple[tuple[Callable[[], None], float], ...] = (
    (_interpreter, 0.0015), (_small_arrays, 0.0018), (_blas, 0.0006), (_stream, 0.0025))
TRAINING = (0, 1, 2, 3)     # mixes: indices into PARTS
EVALUATION = (0, 2)

# (time at the middle of the measurement, seconds of each part), in run order
_references: list[tuple[float, tuple[float, ...]]] = []


@dataclass
class Interval:
    start: float
    end: float = 0.0


def reference() -> tuple[float, ...]:
    """Median wall time of each part over :data:`_PASSES` passes."""
    passes = []
    for _ in range(_PASSES):
        times = []
        for part, _ in PARTS:
            started = perf_counter()
            part()
            times.append(perf_counter() - started)
        passes.append(times)
    return tuple(statistics.median(p[i] for p in passes) for i in range(len(PARTS)))


def _measure() -> None:
    started = perf_counter()
    parts = reference()
    _references.append(((started + perf_counter()) / 2, parts))


@contextmanager
def interval() -> Iterator[Interval]:
    """Measure the reference before and after the block; the yielded
    interval covers the block only, so the measurements are not timed."""
    _measure()
    span = Interval(perf_counter())
    try:
        yield span
    finally:
        span.end = perf_counter()
        _measure()


def factor(span: Interval, mix: tuple[int, ...] = TRAINING) -> float:
    """Scale for times measured in ``span``: the nominal time of ``mix``
    over its median time within :data:`WINDOW_S` of the span."""
    near = [sum(parts[i] for i in mix) for at, parts in _references
            if span.start - WINDOW_S <= at <= span.end + WINDOW_S]
    return sum(PARTS[i][1] for i in mix) / statistics.median(near)
