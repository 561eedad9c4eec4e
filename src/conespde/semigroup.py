"""Diagonal strongly continuous semigroups on the coordinate basis.

The generator acts coordinatewise, ``(A h)_k = -c_k h_k``, so the
semigroup is ``(S_t h)_k = exp(-c_k t) h_k`` in closed form, with
growth bound ``max(0, -min_k c_k)``.

The boundary pairing studied here is the quotient

    q(t) = <h*, S_t h> / t,   h* = theta e_k*,

whose liminf as t drops to 0 decides membership of ``(h*, h)`` in the
admissible boundary set: for the diagonal family and ``h`` in the cone
the liminf is finite exactly when ``h_k = 0``, and then it equals 0.
The condition checkers in ``coefficients`` apply this rule directly.
The short-time liminf of ``d_K(S_t h + t Sigma(h)) / t`` has a closed
form too, which ``simulate.ssnc_estimate`` computes.  The factors
``exp(-c_k t)`` are computed in one place, ``multipliers``; the
stepping kernel takes its per-step decay from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, read_floats, require_array, require_float, require_int

__all__ = ["DiagonalSemigroup"]


@dataclass(frozen=True)
class DiagonalSemigroup:
    """Semigroup with diagonal generator ``(A h)_k = -c_k h_k``.

    Parameters
    ----------
    rates : array_like
        Finite decay rates ``c_k``.  Positive rates contract the
        coordinate, negative rates expand it.
    """

    rates: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rates", require_array("rates", self.rates, ("N",)))

    @property
    def dim(self) -> int:
        return self.rates.shape[0]

    @classmethod
    def heat(cls, dim: int) -> "DiagonalSemigroup":
        """Heat-like spectrum ``c_k = k`` for ``k = 1..dim``."""
        require_int("dim", dim, 1)
        return cls(np.arange(1, dim + 1, dtype=np.float64))

    def multipliers(self, t: float) -> np.ndarray:
        """Per-coordinate factors ``exp(-c_k t)`` for ``t >= 0``."""
        require_float("time", t, ">= 0")
        return np.exp(-self.rates * t)

    def to_config(self) -> dict:
        return {"rates": [float(c) for c in self.rates]}

    @classmethod
    def from_config(cls, doc: dict, dim: int) -> "DiagonalSemigroup":
        """The semigroup of a config section on the space of dimension
        ``dim``, which the heat rule takes as its own."""
        if "dim" in doc:
            raise ConfigError("dim: not a semigroup key; the semigroup takes space.dim")
        rates = doc.get("rates")
        if isinstance(rates, str):
            if rates != "heat":
                raise ConfigError(f"unknown rates rule {rates!r}")
            sg = cls.heat(dim)
        elif rates is None:
            raise ConfigError("semigroup config needs a 'rates' entry")
        else:
            sg = cls(read_floats("rates", rates))
        if sg.dim != dim:
            raise ConfigError(f"semigroup dim {sg.dim} does not match space dim {dim}")
        return sg

