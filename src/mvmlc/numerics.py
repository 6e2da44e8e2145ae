"""Dense float64 matrices with taped reverse-mode differentiation.

The engine holds only the primitives the network uses: the two-layer
perceptron ``mlp``, ``scatter_rows`` for lifting and fusion, ``sigmoid``
for the label head, ``sigmoid_mul`` for the channel interaction and
``affine_sigmoid`` for the classifier; :mod:`mvmlc.losses` adds the four
training losses and their weighted sum.  Every one is recorded through :func:`emit` as one
record with a hand-written VJP, so a gradient is one reversed replay of a
:class:`Tape`.  Every primitive but the contrastive losses computes its
value as the plain numpy expression of its formula, in the order written,
so bitwise equal to it, and every VJP is audited against finite
differences.  That audit, ``gradient_check``, lives with the test
oracles, the only code that calls it.

All values are 2-D float64 arrays; scalars are 1x1 matrices.  Matrices are
treated as immutable once produced, which makes read-only sharing across
threads safe.  Recording only happens while a tape is active, so inference
code pays no graph overhead; the active tape is one ``ContextVar``, local to
each thread and context, and a nested tape restores the outer one on exit.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

Array = np.ndarray

# The tape ops record onto in this thread (and contextvars context).
_ACTIVE_TAPE: ContextVar["Tape | None"] = ContextVar("mvmlc_active_tape", default=None)


class Tape(list):
    """Execution-ordered list of primitive applications, each an
    ``(output, inputs, vjp)`` record; entering it makes it the active tape.

    Records are appended as primitives execute, so every record's operands
    precede it; one reversed sweep therefore propagates adjoints visiting
    each record exactly once.
    """

    def __enter__(self) -> "Tape":
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE_TAPE.reset(self._token)


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

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def emit(value: Array, inputs: tuple[Matrix, ...],
         vjp: Callable[[Array], tuple[Array, ...]]) -> Matrix:
    """Wrap ``value`` as the output of a primitive applied to ``inputs``.

    While a tape is active the application is recorded with ``vjp``, which
    maps the output's adjoint to one adjoint per input.  Every primitive
    here is built on it, and so is any primitive with a hand-written VJP
    defined elsewhere.
    """
    out = Matrix(value)
    tape = _ACTIVE_TAPE.get()
    if tape is not None:
        tape.append((out, inputs, vjp))
    return out


@contextmanager
def refuse_overflow(what: str):
    """Raise :class:`ContractError` naming ``what`` at the first overflow
    or invalid operation in the block, the only ways finite inputs give an
    inf or a NaN: either the parameters or the input values are too large."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ContractError(f"{what}: {exc}; the parameters or the input values are out of range") from None


def _sigmoid(x: Array) -> Array:
    # exp(-|x|) never overflows, so large |x| saturates to 0/1.  The
    # numerator is 1 for x >= 0 (1 >= exp(-|x|)) and exp(x) below 0, so
    # this is, bitwise, the two-branch form 1/(1 + exp(-x)) and
    # exp(x)/(1 + exp(x)), without the masked gathers and scatters that
    # made it several passes over the array.  min(x, -x) rather than -|x|
    # keeps a NaN's sign bit as that form does; the steps run in place, so
    # only two arrays of x's size are held.
    ex = np.negative(x)
    np.minimum(x, ex, out=ex)
    np.exp(ex, out=ex)
    out = np.maximum(ex, x >= 0)
    ex += 1.0
    out /= ex
    return out


def sigmoid(a: Matrix) -> Matrix:
    out = _sigmoid(a.value)
    return emit(out, (a,), lambda g: (g * out * (1.0 - out),))


def sigmoid_mul(p: Matrix, x: Matrix) -> Matrix:
    """``sigmoid(p) * x`` elementwise, recorded as one primitive."""
    if p.shape != x.shape:
        raise ShapeError(f"sigmoid_mul: shapes {p.shape} and {x.shape} differ")
    s = _sigmoid(p.value)
    out = s * x.value

    def vjp(g: Array) -> tuple[Array, ...]:
        return (g * x.value * s * (1.0 - s), g * s)

    return emit(out, (p, x), vjp)


def affine_sigmoid(x: Matrix, w: Matrix, b: Matrix) -> Matrix:
    """``sigmoid(x @ w + b)`` with ``b`` one row, recorded as one primitive."""
    if x.cols != w.rows:
        raise ShapeError(f"affine_sigmoid: inner dimensions differ, {x.shape} @ {w.shape}")
    if b.shape != (1, w.cols):
        raise ShapeError(f"affine_sigmoid: bias {b.shape} must be a row of width {w.cols}")
    out = _sigmoid(x.value @ w.value + b.value)

    def vjp(g: Array) -> tuple[Array, ...]:
        d_pre = g * out * (1.0 - out)
        return (d_pre @ w.value.T, x.value.T @ d_pre, d_pre.sum(axis=0, keepdims=True))

    return emit(out, (x, w, b), vjp)


def mlp(x: Matrix, w1: Matrix, b1: Matrix, w2: Matrix, b2: Matrix) -> Matrix:
    """``relu(x @ w1 + b1) @ w2 + b2``, recorded as one primitive.

    The biases are single rows.  The forward is bitwise the plain numpy
    expression, each bias adjoint the column sum of its layer's adjoint.
    """
    if x.cols != w1.rows or w1.cols != w2.rows:
        raise ShapeError(f"mlp: inner dimensions differ, {x.shape} @ {w1.shape} @ {w2.shape}")
    if b1.shape != (1, w1.cols) or b2.shape != (1, w2.cols):
        raise ShapeError(f"mlp: biases {b1.shape} and {b2.shape} must be rows "
                         f"of widths {w1.cols} and {w2.cols}")
    # In-place steps store the values their out-of-place forms would return.
    pre = x.value @ w1.value
    pre += b1.value
    # np.maximum is one pass where np.where(pre > 0, pre, 0.0) is several,
    # and bitwise equal to it on finite input (-0.0 and 0.0 both map to
    # 0.0); datasets reject non-finite values.  Nothing reads pre after
    # this, so the ReLU overwrites it rather than allocate a second array.
    hidden = np.maximum(pre, 0.0, out=pre)
    out = hidden @ w2.value
    out += b2.value

    def vjp(g: Array) -> tuple[Array, ...]:
        d_pre = g @ w2.value.T
        d_pre *= hidden > 0  # pre > 0 bit for bit, NaN and -0.0 included
        return (d_pre @ w1.value.T, x.value.T @ d_pre, d_pre.sum(axis=0, keepdims=True),
                hidden.T @ g, g.sum(axis=0, keepdims=True))

    return emit(out, (x, w1, b1, w2, b2), vjp)


def scatter_rows(parts: Sequence[Matrix], rows: Sequence[Array], n: int,
                 row_scale: Array | None = None) -> Matrix:
    """Sum of each ``parts[k]`` placed at rows ``rows[k]`` of an n-row zero
    matrix, every output row then multiplied by ``row_scale`` (n x 1) if
    given.  The indices within one part must be distinct.

    This is how compact per-view rows return to all n rows: one part lifts
    a view's outputs, several with a scale of 1/count form a mean.  The VJP
    gathers the (scaled) adjoint at each part's rows.
    """
    if not parts or len(parts) != len(rows):
        raise ShapeError(f"scatter_rows: {len(parts)} parts for {len(rows)} row sets")
    cols = parts[0].cols
    out = np.zeros((n, cols))
    for k, (x, r) in enumerate(zip(parts, rows)):
        if x.shape != (len(r), cols):
            raise ShapeError(f"scatter_rows: part {k} is {x.shape}, expected {(len(r), cols)}")
        out[r] += x.value
    if row_scale is not None:
        out *= row_scale

    def vjp(g: Array) -> tuple[Array, ...]:
        scaled = g if row_scale is None else g * row_scale
        return tuple(scaled[r] for r in rows)

    return emit(out, tuple(parts), vjp)


def backward(tape: Tape, loss: Matrix, params: Sequence[Matrix],
             out: Array | None = None) -> list[Array]:
    """Replay ``tape`` backwards from ``loss`` and return d(loss)/d(p).

    ``loss`` must be a 1x1 matrix produced through taped primitives, and
    ``params`` distinct leaves.  The gradients are stored in ``out``, a
    flat float64 vector holding each parameter's gradient in turn, row
    major (a new one if None); the returned list holds views of it aligned
    with ``params``.  The buffer is zeroed, then every adjoint contribution
    is added into its parameter's slice, so a stale ``out`` leaves no trace
    and parameters the loss does not reach get exact zeros.  The sums are
    bitwise those accumulated out of place, except that -0.0 is stored as
    +0.0.  The sweep is a single reversed pass in recording order, so
    repeated replays are bitwise identical.
    """
    if loss.shape != (1, 1):
        raise ContractError(f"backward: loss must be scalar (1x1), got {loss.shape}")
    size = sum(p.value.size for p in params)
    if out is None:
        out = np.empty(size)
    elif out.shape != (size,):
        raise ContractError(f"backward: out must be a vector of {size} values, got {out.shape}")
    out.fill(0.0)
    grads, start = [], 0
    for p in params:
        grads.append(out[start:start + p.value.size].reshape(p.shape))
        start += p.value.size
    slots = {id(p): g for p, g in zip(params, grads)}
    if len(slots) != len(params):
        raise ContractError("backward: a parameter is listed twice")
    adjoint: dict[int, Array] = {id(loss): np.ones((1, 1))}
    for node, inputs, vjp in reversed(tape):
        grad_out = adjoint.pop(id(node), None)
        if grad_out is None:
            continue
        for operand, contrib in zip(inputs, vjp(grad_out)):
            key = id(operand)
            slot = slots.get(key)
            if slot is None:
                held = adjoint.get(key)
                adjoint[key] = contrib if held is None else held + contrib
            else:
                np.add(slot, contrib, out=slot)
    return grads

