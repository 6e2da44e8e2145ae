"""Exception hierarchy shared across the package.

``cli.main`` maps ``ConfigError`` to exit code 2 and ``ValidationError``,
``ShapeError`` and ``ContractError`` to 3 (an ``OSError`` exits 4).  Library
code should still raise the most specific class that applies, since
callers of the library tell them apart.
"""


class ShapeError(ValueError):
    """Operand dimensions are incompatible with the requested operation."""


class ContractError(ValueError):
    """A caller violated an API precondition (e.g. non-scalar loss node)."""


class ConfigError(ValueError):
    """A configuration value is outside its documented range."""


class ValidationError(ValueError):
    """On-disk data failed validation (bad shape, non-binary entry, ...)."""
