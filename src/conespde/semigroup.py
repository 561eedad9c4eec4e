"""Diagonal strongly continuous semigroups on the coordinate basis.

The generator acts coordinatewise, ``(A h)_k = -c_k h_k``, so the
semigroup is ``(S_t h)_k = exp(-c_k t) h_k`` and every related quantity
has a closed form: the growth bound is ``beta = max(0, -min_k c_k)``,
the resolvent divides coordinates by ``lam + c_k``, and the Laplace
transform identity ``R_lam h = integral of exp(-lam t) S_t h dt`` holds
for ``lam > beta``.

The boundary pairing studied here is the quotient

    q(t) = <h*, S_t h> / t,   h* = theta e_k*,

whose liminf as t drops to 0 decides membership of ``(h*, h)`` in the
admissible boundary set: for the diagonal family and ``h`` in the cone
the liminf is finite exactly when ``h_k = 0``, and then it equals 0.
The condition checkers in ``coefficients`` apply this rule directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ShapeError, read_int
from .space import StateVec

__all__ = ["DiagonalSemigroup", "LiminfGrid"]


@dataclass(frozen=True)
class DiagonalSemigroup:
    """Semigroup with diagonal generator ``(A h)_k = -c_k h_k``.

    Parameters
    ----------
    rates : array_like
        Finite decay rates ``c_k``.  Positive rates contract the
        coordinate, negative rates expand it (and raise the growth
        bound ``beta`` accordingly).
    """

    rates: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.rates, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ShapeError("rates must form a non-empty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise DomainError("rates must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "rates", arr)

    @property
    def dim(self) -> int:
        return self.rates.shape[0]

    @property
    def beta(self) -> float:
        """Growth bound: ``||S_t|| <= exp(beta t)`` with this beta."""
        return float(max(0.0, -np.min(self.rates)))

    @classmethod
    def heat(cls, dim: int) -> "DiagonalSemigroup":
        """Heat-like spectrum ``c_k = k`` for ``k = 1..dim``."""
        if dim < 1:
            raise DomainError(f"dim must be >= 1, got {dim}")
        return cls(np.arange(1, dim + 1, dtype=np.float64))

    def _check_dim(self, h: StateVec) -> None:
        if h.dim != self.dim:
            raise ShapeError(f"semigroup dim {self.dim} vs vector dim {h.dim}")

    def multipliers(self, t: float) -> np.ndarray:
        """Per-coordinate factors ``exp(-c_k t)`` for ``t >= 0``."""
        if t < 0:
            raise DomainError(f"time must be >= 0, got {t}")
        return np.exp(-self.rates * t)

    def apply(self, t: float, h: StateVec) -> StateVec:
        """Evaluate ``S_t h``."""
        self._check_dim(h)
        return StateVec(self.multipliers(t) * h.coords)

    def generator_apply(self, h: StateVec) -> StateVec:
        """Evaluate ``A h = (-c_k h_k)``; every vector is in the domain here."""
        self._check_dim(h)
        return StateVec(-self.rates * h.coords)

    def resolvent(self, lam: float, h: StateVec) -> StateVec:
        """Resolvent ``(lam - A)^{-1} h`` in closed form.

        Requires ``lam > beta`` so that every ``lam + c_k`` is positive
        and the Laplace-transform representation converges.
        """
        self._check_dim(h)
        if not lam > self.beta:
            raise DomainError(
                f"resolvent parameter must exceed the growth bound {self.beta}, got {lam}"
            )
        return StateVec(h.coords / (lam + self.rates))

    def to_config(self) -> dict:
        return {"rates": [float(c) for c in self.rates]}

    @classmethod
    def from_config(cls, doc: dict, dim: int | None = None) -> "DiagonalSemigroup":
        rates = doc.get("rates")
        if isinstance(rates, str):
            if rates != "heat":
                raise ConfigError(f"unknown rates rule {rates!r}")
            n = doc.get("dim", dim)
            if n is None:
                raise ConfigError("rates rule 'heat' needs a dim")
            return cls.heat(read_int("dim", n))
        if rates is None:
            raise ConfigError("semigroup config needs a 'rates' entry")
        sg = cls(np.asarray(rates, dtype=np.float64))
        if dim is not None and sg.dim != dim:
            raise ConfigError(f"semigroup dim {sg.dim} does not match space dim {dim}")
        return sg


@dataclass(frozen=True)
class LiminfGrid:
    """Geometric time grid ``t_m = t0 * ratio^m`` for liminf estimation.

    ``simulate.ssnc_estimate`` reads a liminf with no closed form along
    it; a finite grid can only estimate such a liminf, never prove it.
    """

    t0: float = 1e-1
    ratio: float = 0.5
    points: int = 40

    def __post_init__(self):
        if not (self.t0 > 0 and 0 < self.ratio < 1 and self.points >= 2):
            raise DomainError("need t0 > 0, 0 < ratio < 1, points >= 2")

    def times(self) -> np.ndarray:
        """Grid times in decreasing order, ``t0, t0*ratio, ...``."""
        return self.t0 * self.ratio ** np.arange(self.points, dtype=np.float64)
