"""Exception hierarchy shared across the package, and the number checks
its refusals share.

``cli.main`` maps ``ConfigError`` to exit code 2 and ``ValidationError``,
``ShapeError`` and ``ContractError`` to 3 (an ``OSError`` exits 4).  Library
code should still raise the most specific class that applies, since
callers of the library tell them apart.
"""

from __future__ import annotations

import math
import numbers
import sys


class ShapeError(ValueError):
    """Operand dimensions are incompatible with the requested operation."""


class ContractError(ValueError):
    """A caller violated an API precondition (e.g. non-scalar loss node)."""


class ConfigError(ValueError):
    """A configuration value is outside its documented range."""


class ValidationError(ValueError):
    """On-disk data failed validation (bad shape, non-binary entry, ...)."""


def finite_number(value: numbers.Real) -> bool:
    """Whether ``value`` is finite, for the loss weights, the float
    ``TrainConfig`` fields and the synthetic noise alike."""
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def writable(value: numbers.Integral) -> bool:
    """Whether Python writes the integer ``value`` in decimal, as json does:
    it refuses one of more than ``sys.get_int_max_str_digits()`` digits."""
    try:
        str(value)
    except ValueError:
        return False
    return True


def shown(value, text=repr) -> str:
    """``text(value)``, as a refusal writes the value it refuses; an integer
    Python does not write (see :func:`writable`), alone or inside ``value``,
    is described instead, so writing the refusal cannot fail."""
    try:
        return text(value)
    except ValueError:
        return f"an integer of more than {sys.get_int_max_str_digits()} digits"
