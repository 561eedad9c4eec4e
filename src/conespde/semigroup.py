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
The numeric grid estimator below cannot prove divergence, only flag it,
so the analytic rule is authoritative and the grid value is reported as
a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, DomainError, ShapeError
from .space import ConeSpec, StateVec, cone_contains

__all__ = [
    "DiagonalSemigroup",
    "LiminfGrid",
    "BoundaryMembership",
    "boundary_set_membership",
    "liminf_grid_quotients",
    "semigroup_preserves_cone",
    "cesaro_average",
]


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
            return cls.heat(int(n))
        if rates is None:
            raise ConfigError("semigroup config needs a 'rates' entry")
        sg = cls(np.asarray(rates, dtype=np.float64))
        if dim is not None and sg.dim != dim:
            raise ConfigError(f"semigroup dim {sg.dim} does not match space dim {dim}")
        return sg


@dataclass(frozen=True)
class LiminfGrid:
    """Geometric time grid ``t_m = t0 * ratio^m`` for liminf estimation.

    ``divergence_threshold`` is the level above which a still-increasing
    quotient sequence is declared divergent.  The estimator can only
    flag divergence, never prove it; see ``boundary_set_membership``.
    """

    t0: float = 1e-1
    ratio: float = 0.5
    points: int = 40
    divergence_threshold: float = 1e6

    def __post_init__(self):
        if not (self.t0 > 0 and 0 < self.ratio < 1 and self.points >= 2):
            raise DomainError("need t0 > 0, 0 < ratio < 1, points >= 2")
        if self.divergence_threshold <= 0:
            raise DomainError("divergence threshold must be > 0")

    def times(self) -> np.ndarray:
        """Grid times in decreasing order, ``t0, t0*ratio, ...``."""
        return self.t0 * self.ratio ** np.arange(self.points, dtype=np.float64)


@dataclass(frozen=True)
class BoundaryMembership:
    """Result of an admissible-boundary-pair test.

    ``in_d`` and ``a_value`` come from the analytic rule (``a_value`` is
    ``inf`` when the pair is not admissible).  ``grid_estimate`` is the
    minimum of the quotient over the geometric grid and
    ``grid_diverged`` records whether the quotient exceeded the
    threshold while still increasing as t decreased.
    """

    in_d: bool
    a_value: float
    grid_estimate: float
    grid_diverged: bool


def _parse_functional(functional: tuple[int, int], dim: int) -> tuple[int, int]:
    theta, k = int(functional[0]), int(functional[1])
    if theta not in (-1, 1):
        raise ConfigError(f"functional sign must be -1 or +1, got {theta}")
    if not 0 <= k < dim:
        raise ConfigError(f"functional index {k} outside 0..{dim - 1}")
    return theta, k


def _check_functional(cone: ConeSpec, functional: tuple[int, int]) -> tuple[int, int]:
    theta, k = _parse_functional(functional, cone.dim)
    if int(cone.signs[k]) != theta:
        raise ConfigError(
            f"functional ({theta}, {k}) does not generate the cone: sign at {k} is {int(cone.signs[k])}"
        )
    return theta, k


def liminf_grid_quotients(
    sg: DiagonalSemigroup,
    functional: tuple[int, int],
    h: StateVec,
    grid: LiminfGrid = LiminfGrid(),
) -> np.ndarray:
    """Quotients ``theta * exp(-c_k t) h_k / t`` along the grid times."""
    theta, k = _parse_functional(functional, sg.dim)
    sg._check_dim(h)
    ts = grid.times()
    return theta * np.exp(-sg.rates[k] * ts) * h.coords[k] / ts


def boundary_set_membership(
    sg: DiagonalSemigroup,
    cone: ConeSpec,
    functional: tuple[int, int],
    h: StateVec,
    grid: LiminfGrid = LiminfGrid(),
) -> BoundaryMembership:
    """Decide whether ``(theta e_k*, h)`` is an admissible boundary pair.

    For a diagonal semigroup and ``h`` in the cone the quotient
    ``theta <e_k*, S_t h> / t = theta exp(-c_k t) h_k / t`` either
    vanishes identically (``h_k = 0``, pair admissible, value 0) or
    blows up like ``1/t`` (pair not admissible).  The analytic rule
    decides; the grid minimum is attached for cross-checking only,
    because a finite grid cannot distinguish slow divergence from a
    large finite liminf.

    Parameters
    ----------
    functional : (theta, k)
        Sign and coordinate of the generating functional; must match
        the cone's sign at ``k``.
    h : StateVec
        Must lie in the cone.

    Raises
    ------
    ConfigError
        If the functional does not generate the cone.
    DomainError
        If ``h`` is outside the cone.
    """
    theta, k = _check_functional(cone, functional)
    sg._check_dim(h)
    if cone.dim != sg.dim:
        raise ShapeError(f"cone dim {cone.dim} vs semigroup dim {sg.dim}")
    if not cone_contains(cone, h, 0.0):
        raise DomainError("boundary test requires a point inside the cone")

    quotients = liminf_grid_quotients(sg, (theta, k), h, grid)
    grid_estimate = float(np.min(quotients))
    diverged = bool(
        quotients[-1] > grid.divergence_threshold and quotients[-1] > quotients[-2]
    )

    in_d = h.coords[k] == 0.0
    a_value = 0.0 if in_d else float("inf")
    return BoundaryMembership(
        in_d=bool(in_d),
        a_value=a_value,
        grid_estimate=grid_estimate,
        grid_diverged=diverged,
    )


def semigroup_preserves_cone(
    sg: DiagonalSemigroup,
    cone: ConeSpec,
    t_grid: Iterable[float] | None = None,
) -> bool:
    """Check that every ``S_t`` maps the cone into itself.

    A coordinatewise multiplier family preserves a coordinate cone if
    and only if all multipliers at constrained coordinates are
    nonnegative.  For the diagonal family the multipliers are
    exponentials, so this always holds; the check is still performed on
    a sampled time grid so that a future multiplier family with sign
    changes would fail it rather than pass silently.
    """
    if sg.dim != cone.dim:
        raise ShapeError(f"semigroup dim {sg.dim} vs cone dim {cone.dim}")
    if t_grid is None:
        t_grid = np.concatenate(([0.0], np.geomspace(1e-6, 10.0, 25)))
    idx = cone.constrained
    for t in t_grid:
        m = sg.multipliers(float(t))
        if idx.size and np.any(m[idx] < 0.0):
            return False
    return True


def cesaro_average(
    sg: DiagonalSemigroup, t: float, h: StateVec, nodes: int = 64
) -> StateVec:
    """Time average ``(1/t) * integral of S_s h over [0, t]`` by quadrature.

    Gauss-Legendre with ``nodes`` points, which is plenty for the
    entire analytic integrand.  Used to check that averages of
    cone-valued orbits stay in the cone.
    """
    sg._check_dim(h)
    if t <= 0:
        raise DomainError(f"averaging horizon must be > 0, got {t}")
    x, w = np.polynomial.legendre.leggauss(int(nodes))
    s = 0.5 * t * (x + 1.0)
    weights = 0.5 * t * w
    acc = np.zeros(sg.dim)
    for si, wi in zip(s, weights):
        acc += wi * np.exp(-sg.rates * si)
    return StateVec(acc * h.coords / t)
