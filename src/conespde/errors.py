"""Exception types shared across the package, and the config rules for
integers and booleans (here, below ``config``, so every module can use them).

Most subclasses derive from ValueError so that callers who do not care
about the fine distinction can still catch invalid input generically.
"""

import numbers


class ConeSpdeError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(ConeSpdeError, ValueError):
    """Dimension mismatch between vectors, cones, or operator tables."""


class DomainError(ConeSpdeError, ValueError):
    """Argument outside the mathematical domain of an operation.

    Examples: negative time for a forward semigroup, resolvent parameter
    at or below the growth bound, sign entry outside {-1, 0, +1}.
    """


class ConfigError(ConeSpdeError, ValueError):
    """Invalid or inconsistent experiment configuration."""


class SamplerContractError(ConeSpdeError, RuntimeError):
    """A sampler produced a point that violates its own contract.

    This is an internal error: it indicates a bug in the sampling code,
    not bad user input.
    """


class SearchRadiusError(ConeSpdeError, RuntimeError):
    """An inner optimization hit the edge of its search interval.

    The optimum may lie outside the searched region, so the returned
    value would be unreliable.  ``suggested_radius`` is a radius to retry
    with.
    """

    def __init__(self, message: str, suggested_radius: float):
        super().__init__(message)
        self.suggested_radius = suggested_radius


class UnsupportedDimensionError(ConeSpdeError, ValueError):
    """Tensor quadrature requested in a dimension it cannot afford."""


class NumericError(ConeSpdeError, ArithmeticError):
    """A numeric probe produced non-finite intermediate values."""


def read_int(path: str, value) -> int:
    """A config integer: an int, or an integral float (``200.0`` reads as
    200); anything else, booleans included, raises ``ConfigError``."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{path}: must be an integer, got {value!r}")
    return int(value)


def read_bool(path: str, value) -> bool:
    """A config boolean: only JSON ``true`` or ``false``; anything else,
    the string ``"false"`` included, raises ``ConfigError``."""
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: must be true or false, got {value!r}")
    return value
