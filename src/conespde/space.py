"""State space, coordinate cones, and the radial retraction.

The state space is a finite slice of l2 spanned by an orthonormal
coordinate basis.  A closed convex cone is described by one sign per
coordinate: +1 constrains the coordinate to be nonnegative, -1 to be
nonpositive, 0 leaves it free.  Such cones are exactly the ones whose
metric projection acts coordinatewise, which gives closed forms for the
distance and for membership tests.

``retract`` is the radial retraction ``R_n`` onto the closed ball of
radius ``n``.  It is 1-Lipschitz and fixes the ball, so composing a
coefficient with it produces a bounded map without changing small-state
behaviour (``coefficients.RetractedMap``).  The finite-rank projection
``P_n`` (keep the leading ``n`` coordinates, zero the rest) acts on
coefficient maps only, as ``coefficients.ProjectedMap``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "StateVec",
    "ConeSpec",
    "retract",
    "cone_contains",
    "cone_distance",
    "cone_leq",
    "cone_nearest",
]


def _as_coords(values: Iterable[float] | np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError(f"state vector must be 1-d, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError("state vector must have at least one coordinate")
    if not np.all(np.isfinite(arr)):
        raise DomainError("state vector coordinates must be finite")
    return arr


@dataclass(frozen=True)
class StateVec:
    """Immutable point of the state space.

    Parameters
    ----------
    coords : array_like
        Finite float coordinates with respect to the orthonormal basis.

    Notes
    -----
    The wrapped array is marked read-only; arithmetic returns new
    instances.  Equality is exact coordinatewise equality.

    Every instance holds a private, read-only, non-empty 1-d float64
    array of finite values; the constructor checks that, and there is
    no other way to build one.  Code that works on many states at once
    (the envelope searches, the checkers, the kernel) takes raw
    ``(M, N)`` arrays instead and validates them once where they enter.
    """

    coords: np.ndarray

    def __post_init__(self):
        arr = _as_coords(self.coords).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def __add__(self, other: "StateVec") -> "StateVec":
        self._check_same_dim(other)
        return StateVec(self.coords + other.coords)

    def __sub__(self, other: "StateVec") -> "StateVec":
        self._check_same_dim(other)
        return StateVec(self.coords - other.coords)

    def __mul__(self, scalar: float) -> "StateVec":
        return StateVec(self.coords * float(scalar))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVec):
            return NotImplemented
        return self.dim == other.dim and bool(np.all(self.coords == other.coords))

    def __hash__(self):
        return hash((self.dim, self.coords.tobytes()))

    def _check_same_dim(self, other: "StateVec") -> None:
        if self.dim != other.dim:
            raise ShapeError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def to_config(self) -> dict:
        return {"dim": self.dim, "coords": [float(x) for x in self.coords]}

    @classmethod
    def from_config(cls, doc: dict) -> "StateVec":
        coords = _as_coords(doc["coords"])
        if "dim" in doc and int(doc["dim"]) != coords.size:
            raise ShapeError(
                f"declared dim {doc['dim']} does not match {coords.size} coords"
            )
        return cls(coords)


@dataclass(frozen=True)
class ConeSpec:
    """Closed convex coordinate cone, one sign constraint per coordinate.

    ``signs[k] = +1`` requires ``h_k >= 0``, ``-1`` requires ``h_k <= 0``
    and ``0`` leaves the coordinate unconstrained.  The cone is closed
    under addition and positive scaling, and its metric projection acts
    coordinatewise (clip the offending coordinates to zero), which is
    what makes the closed-form distance below correct.
    """

    signs: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.signs)
        if raw.ndim != 1 or raw.size == 0:
            raise ShapeError("cone signs must form a non-empty 1-d array")
        # checked before the int8 cast, which would turn 0.5 into 0 and
        # 257 into 1; booleans and strings are not signs either
        if raw.dtype.kind not in "iuf" or not np.all(np.isin(raw, (-1, 0, 1))):
            raise DomainError("cone signs must be the integers -1, 0, +1")
        arr = raw.astype(np.int8)
        arr.flags.writeable = False
        object.__setattr__(self, "signs", arr)

    @property
    def dim(self) -> int:
        return self.signs.shape[0]

    @property
    def constrained(self) -> np.ndarray:
        """Indices k with signs[k] != 0, in increasing order."""
        return np.flatnonzero(self.signs != 0)

    def _check_dim(self, h: StateVec) -> None:
        if h.dim != self.dim:
            raise ShapeError(f"cone dim {self.dim} vs vector dim {h.dim}")

    def to_config(self) -> dict:
        return {"signs": [int(s) for s in self.signs]}

    @classmethod
    def from_config(cls, doc: dict) -> "ConeSpec":
        return cls(np.asarray(doc["signs"]))

    @classmethod
    def nonnegative(cls, dim: int) -> "ConeSpec":
        return cls(np.ones(dim, dtype=np.int8))


def retract(h: StateVec, n: float) -> StateVec:
    """Radial retraction onto the closed ball of radius ``n``.

    Multiplies ``h`` by ``min(1, n / ||h||)``; the origin is fixed.
    This is the metric projection onto the ball, hence 1-Lipschitz, and
    it is the identity wherever ``||h|| <= n``.
    """
    if not (math.isfinite(n) and n > 0):
        raise DomainError(f"retraction radius must be finite and > 0, got {n}")
    norm = h.norm()
    if norm <= n:
        return h
    return StateVec(h.coords * (n / norm))


def cone_contains(cone: ConeSpec, h: StateVec, tol: float = 0.0) -> bool:
    """Membership test ``h in K`` up to slack ``tol`` on each constraint.

    With ``tol = 0`` this is exact membership.  A positive ``tol``
    accepts points whose constrained coordinates dip below zero by at
    most ``tol``, which is the form Monte Carlo verdicts need.
    """
    cone._check_dim(h)
    if tol < 0:
        raise DomainError(f"tolerance must be >= 0, got {tol}")
    idx = cone.constrained
    if idx.size == 0:
        return True
    margins = cone.signs[idx] * h.coords[idx]
    return bool(np.all(margins >= -tol))


def cone_nearest(cone: ConeSpec, h: StateVec) -> StateVec:
    """Metric projection of ``h`` onto the cone.

    Coordinates violating their sign constraint are clipped to zero;
    all others pass through.  For coordinate cones this pointwise clip
    is the unique nearest point.
    """
    cone._check_dim(h)
    out = h.coords.copy()
    idx = cone.constrained
    bad = cone.signs[idx] * out[idx] < 0.0
    out[idx[bad]] = 0.0
    return StateVec(out)


def cone_distance(cone: ConeSpec, h: StateVec) -> float:
    """Distance from ``h`` to the cone.

    Closed form: the l2 norm of the violating part,
    ``sqrt(sum of h_k^2 over constrained k with signs[k]*h_k < 0)``.
    Zero exactly on the cone; positively homogeneous; 1-Lipschitz.
    """
    cone._check_dim(h)
    idx = cone.constrained
    if idx.size == 0:
        return 0.0
    vals = h.coords[idx]
    bad = cone.signs[idx] * vals < 0.0
    return float(np.sqrt(np.sum(vals[bad] ** 2)))


def cone_leq(cone: ConeSpec, g: StateVec, h: StateVec) -> bool:
    """Partial order induced by the cone: ``g <= h`` iff ``h - g in K``."""
    return cone_contains(cone, h - g, 0.0)
