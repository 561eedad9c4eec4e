"""Exception types shared across the package, the config rules for
numbers, lists of numbers, integers and booleans, and the rules for the
integer, real and array fields of the direct API (here, below
``config``, so every module can use them).

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


def require_int(name: str, value, low: int | None = None) -> None:
    """An integer field of the direct API: a Python or NumPy integer, at
    least ``low`` when given.  Booleans, integral floats, anything else
    and values below ``low`` raise ``DomainError``; config documents
    reach the field through ``read_int`` first."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")


_BOUNDS = {None: lambda x: True, "> 0": lambda x: x > 0, ">= 0": lambda x: x >= 0}


def require_float(name: str, value, bound: str | None = None) -> None:
    """A real field of the direct API: a Python or NumPy real number
    that is finite and, with ``bound`` (``"> 0"`` or ``">= 0"``), inside
    it.  Anything else (booleans, strings, NaN, infinities, integers too
    large for a float) raises ``DomainError`` naming the field, by the
    predicate ``read_float`` uses.  The value is checked, not converted."""
    fault = _real_fault(value)
    if fault is None and not _BOUNDS[bound](value):
        fault = f"must be {bound}, got {value}"
    if fault is not None:
        raise DomainError(f"{name} {fault}")


def require_array(name: str, values, shape: tuple) -> np.ndarray:
    """An array field of the direct API, as a read-only float64 copy.

    ``shape`` has one entry per axis: an integer fixes the axis length,
    and a name such as ``"N"`` takes any length, the same one wherever
    the name repeats (``("N", "N")`` is a square).  An empty or ragged
    array, or one of another shape, raises ``ShapeError``; an entry that
    is not a real number (booleans and strings included) or not finite
    raises ``DomainError``.
    """
    try:
        raw = np.asarray(values)
    except ValueError:
        raise ShapeError(f"{name} must be a rectangular array") from None
    named = {}
    if not (raw.ndim == len(shape) and raw.size and all(
        named.setdefault(want, got) == got if isinstance(want, str) else want == got
        for want, got in zip(shape, raw.shape)
    )):
        want = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
        raise ShapeError(f"{name} must have shape ({want}) and no empty axis, got {raw.shape}")
    if raw.dtype.kind not in "iuf":
        raise DomainError(f"{name} must hold real numbers, got dtype {raw.dtype}")
    arr = raw.astype(np.float64)
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


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
    fault = _real_fault(value)
    if fault is not None:
        raise ConfigError(f"{path}: {fault}")
    return float(value)


def _real_fault(value) -> str | None:
    """What keeps ``value`` from being a finite real number, as ``"must
    be ..., got ..."``, or None when it is one.  A boolean is not a
    number, and an integer too large for a float (JSON allows any number
    of digits) is not finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return f"must be a number, got {value!r}"
    try:
        x = float(value)
    except OverflowError:
        return "must be finite, got an integer too large for a float"
    return None if math.isfinite(x) else f"must be finite, got {x!r}"


def read_floats(path: str, values) -> np.ndarray:
    """A config list of numbers, or a list of such lists (a matrix), as
    a float64 array; a boolean or string entry, or an integer too large
    for a float, raises ``ConfigError`` naming it, as ``read_float`` does
    for one number."""
    for idx, x in np.ndenumerate(np.asarray(values, dtype=object)):
        fault = _real_fault(x) if isinstance(x, (bool, str, numbers.Integral)) else None
        if fault is not None:
            raise ConfigError(f"{path}{''.join(f'[{i}]' for i in idx)}: {fault}")
    return np.asarray(values, dtype=np.float64)
