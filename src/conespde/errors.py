"""Exception types shared across the package, the config rules for
numbers, lists of numbers, integers and booleans, and the rule for the
integer fields of the direct API (here, below ``config``, so every
module can use them).

Most subclasses derive from ValueError so that callers who do not care
about the fine distinction can still catch invalid input generically.
"""

import math
import numbers

import numpy as np


class ConeSpdeError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(ConeSpdeError, ValueError):
    """Dimension mismatch between vectors, cones, or operator tables."""


class DomainError(ConeSpdeError, ValueError):
    """Argument outside the mathematical domain of an operation.

    Examples: negative time for a forward semigroup, a retraction
    radius that is not finite and positive, sign entry outside
    {-1, 0, +1}.
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


def require_int(name: str, value) -> None:
    """An integer field of the direct API: a Python or NumPy integer.
    Booleans, integral floats and anything else raise ``DomainError``;
    config documents reach the field through ``read_int`` first."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")


def read_bool(path: str, value) -> bool:
    """A config boolean: only JSON ``true`` or ``false``; anything else,
    the string ``"false"`` included, raises ``ConfigError``."""
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: must be true or false, got {value!r}")
    return value


def read_float(path: str, value) -> float:
    """A config number as a float; anything that is not a real number
    (booleans, strings, ``null``, lists and objects included) and values
    that convert to NaN or an infinity raise ``ConfigError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{path}: must be a number, got {value!r}")
    x = _float(path, value)
    if not math.isfinite(x):
        raise ConfigError(f"{path}: must be finite, got {x!r}")
    return x


def _float(path: str, value) -> float:
    """``float(value)``, with an integer too large for a float (JSON
    allows any number of digits) reported as not finite."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{path}: must be finite, got an integer too large for a float") from None


def read_floats(path: str, values) -> np.ndarray:
    """A config list of numbers, or a list of such lists (a matrix), as
    a float64 array; a boolean or string entry, or an integer too large
    for a float, raises ``ConfigError`` naming it, as ``read_float`` does
    for one number."""
    for idx, x in np.ndenumerate(np.asarray(values, dtype=object)):
        where = "".join(f"[{i}]" for i in idx)
        if isinstance(x, (bool, str)):
            raise ConfigError(f"{path}{where}: must be a number, got {x!r}")
        if isinstance(x, numbers.Integral):
            _float(f"{path}{where}", x)
    return np.asarray(values, dtype=np.float64)
