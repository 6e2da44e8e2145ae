"""Dense float64 matrices with taped reverse-mode differentiation.

The engine holds only the primitives the network uses (``add``, ``sub``,
``mul``, ``matmul``, ``log``, ``square``, ``sigmoid``, ``relu``, ``clip``,
``msum``).  The training objective composes many of them, so gradients are
obtained by recording every primitive application on a :class:`Tape` and
replaying it backwards once, instead of deriving each backward pass by
hand.  The one exception is the fused, row-tiled contrastive loss in
:mod:`mvmlc.losses`: it is recorded as a single primitive through
:func:`emit` with a hand-written VJP, which its tests audit against finite
differences and a naive-loop oracle.  An independent finite-difference
audit is provided by :func:`gradient_check`.

All values are 2-D float64 arrays; scalars are 1x1 matrices.  Matrices are
treated as immutable once produced, which makes read-only sharing across
threads safe.  Recording only happens while a tape is active, so inference
code pays no graph overhead; the active tape is local to each thread (and
each ``contextvars`` context), so concurrent trainings never share one.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

Array = np.ndarray

# Stack of active tapes of this thread; ops record onto the innermost one.
_TAPE_STACK: ContextVar[tuple["Tape", ...]] = ContextVar("mvmlc_tape_stack", default=())


def _active_tape() -> "Tape | None":
    stack = _TAPE_STACK.get()
    return stack[-1] if stack else None


class Tape:
    """Execution-ordered record of primitive applications.

    Records are appended as primitives execute, so every record's operands
    precede it; one reversed sweep therefore propagates adjoints visiting
    each record exactly once.
    """

    def __init__(self) -> None:
        self._records: list[
            tuple["Matrix", tuple["Matrix", ...], Callable[[Array], tuple[Array | None, ...]]]
        ] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.set(_TAPE_STACK.get() + (self,))
        return self

    def __exit__(self, *exc) -> None:
        _TAPE_STACK.set(_TAPE_STACK.get()[:-1])

    def __len__(self) -> int:
        return len(self._records)

    def record(
        self,
        out: "Matrix",
        inputs: tuple["Matrix", ...],
        vjp: Callable[[Array], tuple[Array | None, ...]],
    ) -> None:
        self._records.append((out, inputs, vjp))


class Matrix:
    """A rows x cols float64 matrix, row-major, optionally tape-recorded.

    Accepts a 2-D array-like or a python scalar (lifted to 1x1).  1-D input
    is rejected to avoid silent row/column ambiguity.
    """

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        if arr.ndim != 2:
            raise ShapeError(f"Matrix requires 2-D data, got shape {arr.shape}")
        self.value = np.ascontiguousarray(arr)

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        if self.shape != (1, 1):
            raise ContractError(f"item() requires a 1x1 matrix, got {self.shape}")
        return float(self.value[0, 0])

    def sum(self, axis: int | None = None) -> "Matrix":
        return msum(self, axis)

    def __add__(self, other) -> "Matrix":
        return add(self, _lift(other))

    def __sub__(self, other) -> "Matrix":
        return sub(self, _lift(other))

    def __rsub__(self, other) -> "Matrix":
        return sub(_lift(other), self)

    def __mul__(self, other) -> "Matrix":
        return mul(self, _lift(other))

    def __rmul__(self, other) -> "Matrix":
        return mul(_lift(other), self)

    def __matmul__(self, other) -> "Matrix":
        return matmul(self, _lift(other))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def _lift(x) -> Matrix:
    return x if isinstance(x, Matrix) else Matrix(x)


def emit(value: Array, inputs: tuple[Matrix, ...],
         vjp: Callable[[Array], tuple[Array | None, ...]]) -> Matrix:
    """Wrap ``value`` as the output of a primitive applied to ``inputs``.

    While a tape is active the application is recorded with ``vjp``, which
    maps the output's adjoint to one adjoint per input (``None`` for an
    input that gets none).  Every primitive here is built on it, and so is
    any primitive with a hand-written VJP defined elsewhere.
    """
    out = Matrix(value)
    tape = _active_tape()
    if tape is not None:
        tape.record(out, inputs, vjp)
    return out


def _unbroadcast(grad: Array, shape: tuple[int, int]) -> Array:
    if grad.shape == shape:
        return grad
    if shape[0] == 1 and grad.shape[0] != 1:
        grad = grad.sum(axis=0, keepdims=True)
    if shape[1] == 1 and grad.shape[1] != 1:
        grad = grad.sum(axis=1, keepdims=True)
    return grad


def _broadcast_values(a: Matrix, b: Matrix, op: str) -> Array:
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


def add(a: Matrix, b: Matrix) -> Matrix:
    _broadcast_values(a, b, "add")
    return emit(a.value + b.value, (a, b),
                lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Matrix, b: Matrix) -> Matrix:
    _broadcast_values(a, b, "sub")
    return emit(a.value - b.value, (a, b),
                lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Matrix, b: Matrix) -> Matrix:
    _broadcast_values(a, b, "mul")
    return emit(a.value * b.value, (a, b),
                lambda g: (_unbroadcast(g * b.value, a.shape),
                           _unbroadcast(g * a.value, b.shape)))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    return emit(a.value @ b.value, (a, b),
                lambda g: (g @ b.value.T, a.value.T @ g))


def log(a: Matrix) -> Matrix:
    return emit(np.log(a.value), (a,), lambda g: (g / a.value,))


def square(a: Matrix) -> Matrix:
    return emit(a.value * a.value, (a,), lambda g: (g * (2.0 * a.value),))


def sigmoid(a: Matrix) -> Matrix:
    # Two-branch form: never exponentiates a positive argument, so large
    # |x| saturates to 0/1 without overflow.
    x = a.value
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return emit(out, (a,), lambda g: (g * out * (1.0 - out),))


def relu(a: Matrix) -> Matrix:
    keep = a.value > 0
    return emit(np.where(keep, a.value, 0.0), (a,), lambda g: (g * keep,))


def clip(a: Matrix, lo: float, hi: float) -> Matrix:
    # Subgradient 1 strictly inside [lo, hi], 0 at and beyond the bounds.
    inside = (a.value > lo) & (a.value < hi)
    return emit(np.clip(a.value, lo, hi), (a,), lambda g: (g * inside,))


def msum(a: Matrix, axis: int | None = None) -> Matrix:
    """Sum over all entries (axis=None), rows (axis=0) or columns (axis=1).

    The result stays 2-D: 1x1, 1xcols or rowsx1 respectively.
    """
    if axis not in (None, 0, 1):
        raise ContractError(f"msum: axis must be None, 0 or 1, got {axis}")
    if axis is None:
        value = a.value.sum(dtype=np.float64).reshape(1, 1)
    else:
        value = a.value.sum(axis=axis, keepdims=True)
    return emit(value, (a,), lambda g: (np.broadcast_to(g, a.shape),))


def backward(tape: Tape, loss: Matrix, params: Sequence[Matrix]) -> list[Array]:
    """Replay ``tape`` backwards from ``loss`` and return d(loss)/d(p).

    ``loss`` must be a 1x1 matrix produced through taped primitives.  The
    returned list is aligned with ``params``; parameters the loss does not
    depend on get exact zero gradients.  The sweep is a single reversed
    pass in recording order, so repeated replays are bitwise identical.
    """
    if loss.shape != (1, 1):
        raise ContractError(f"backward: loss must be scalar (1x1), got {loss.shape}")
    adjoint: dict[int, Array] = {id(loss): np.ones((1, 1))}
    for out, inputs, vjp in reversed(tape._records):
        grad_out = adjoint.pop(id(out), None)
        if grad_out is None:
            continue
        for operand, contrib in zip(inputs, vjp(grad_out)):
            if contrib is None:
                continue
            key = id(operand)
            held = adjoint.get(key)
            adjoint[key] = contrib if held is None else held + contrib
    return [np.ascontiguousarray(adjoint.get(id(p), np.zeros(p.shape))) for p in params]


@dataclass
class GradientCheckReport:
    """Outcome of a finite-difference audit of analytic gradients."""

    max_rel_err: float
    mean_rel_err: float
    n_coords: int
    worst_param: int
    worst_coord: tuple[int, int]
    passed: bool


def gradient_check(
    f: Callable[[Sequence[Matrix]], Matrix],
    params: Sequence[Matrix],
    step: float = 1e-5,
    tol: float = 1e-4,
    denom_floor: float = 1e-6,
) -> GradientCheckReport:
    """Compare taped gradients of ``f`` against central finite differences.

    ``f`` maps the parameter list to a scalar Matrix and must be
    deterministic; this is verified by evaluating it twice and comparing
    bitwise (mismatch raises :class:`ContractError`).  Per-coordinate
    relative error uses ``|a - n| / max(|a|, |n|, denom_floor)`` so that
    coordinates whose gradient is essentially zero are compared on an
    absolute scale instead of blowing up.
    """
    if step <= 0:
        raise ContractError(f"gradient_check: step must be positive, got {step}")
    base = f(params).item()
    if f(params).item() != base:
        raise ContractError("gradient_check: f is not deterministic")

    with Tape() as tape:
        loss = f(params)
    analytic = backward(tape, loss, params)

    max_err = 0.0
    sum_err = 0.0
    n_coords = 0
    worst_param = -1
    worst_coord = (-1, -1)
    for p_idx, p in enumerate(params):
        grad = analytic[p_idx]
        for coord in np.ndindex(p.shape):
            orig = p.value[coord]
            p.value[coord] = orig + step
            up = f(params).item()
            p.value[coord] = orig - step
            down = f(params).item()
            p.value[coord] = orig
            numeric = (up - down) / (2.0 * step)
            a = grad[coord]
            err = abs(a - numeric) / max(abs(a), abs(numeric), denom_floor)
            sum_err += err
            n_coords += 1
            if err > max_err:
                max_err = err
                worst_param = p_idx
                worst_coord = coord
    mean_err = sum_err / n_coords if n_coords else 0.0
    return GradientCheckReport(
        max_rel_err=max_err,
        mean_rel_err=mean_err,
        n_coords=n_coords,
        worst_param=worst_param,
        worst_coord=worst_coord,
        passed=max_err < tol,
    )
