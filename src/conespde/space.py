"""State space, coordinate cones, the radial retraction and the dead-zone shift.

The state space is a finite slice of l2 spanned by an orthonormal
coordinate basis.  A state is a float64 array of shape ``(N,)``, its
coordinates in that basis, and a batch of states is an ``(M, N)``
array, one state per row.  A closed convex cone is described by one
sign per coordinate: +1 constrains the coordinate to be nonnegative,
-1 to be nonpositive, 0 leaves it free.  Such cones are exactly the
ones whose metric projection acts coordinatewise, which gives a closed
form for membership, on one state or on every row of a batch.

Two operators of the paper act on states, each on one state or on
every row of a batch, and each is composed with a coefficient map by a
map family of ``coefficients``:

* ``retract`` is the radial retraction ``R_n`` onto the closed ball of
  radius ``n`` (``RetractedMap``).  It is 1-Lipschitz and fixes the
  ball, so composing a coefficient with it produces a bounded map
  without changing small-state behaviour.
* ``shift`` is the dead-zone shift ``Phi_n``: the scalar shift
  ``phi_eps`` on the leading ``n`` coordinates, zero on the rest
  (``ShiftedMap``).  It pushes states near a face onto it without
  leaving the cone.

The finite-rank projection ``P_n`` (keep the leading ``n``
coordinates, zero the rest) acts on coefficient maps only, as
``coefficients.ProjectedMap``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, require_float, require_int

__all__ = [
    "ConeSpec",
    "retract",
    "phi_eps",
    "shift",
    "cone_contains",
]


@dataclass(frozen=True)
class ConeSpec:
    """Closed convex coordinate cone, one sign constraint per coordinate.

    ``signs[k] = +1`` requires ``h_k >= 0``, ``-1`` requires ``h_k <= 0``
    and ``0`` leaves the coordinate unconstrained.  The cone is closed
    under addition and positive scaling, and its metric projection acts
    coordinatewise (clip the offending coordinates to zero).
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

    @classmethod
    def nonnegative(cls, dim: int) -> "ConeSpec":
        return cls(np.ones(dim, dtype=np.int8))


def retract(a: np.ndarray, n: float) -> np.ndarray:
    """Radial retraction onto the closed ball of radius ``n``, of one
    state ``(N,)`` or of each row of a batch ``(M, N)``; the result has
    the shape of ``a``.

    Multiplies each row by ``n / max(||row||, n)``: by exactly 1.0
    inside the ball, which leaves the row bitwise alone, and by
    ``n / ||row||`` outside it; the origin is fixed.  This is the metric
    projection onto the ball, hence 1-Lipschitz.

    The norm is the square root of ``np.add.reduce`` over a C-ordered
    product of the rows with themselves.  Every row is then summed in
    the same order whatever the batch's size or memory layout, so row
    ``i`` of a batch result equals the result at ``a[i]`` bit for bit;
    ``np.linalg.norm`` along an axis does not keep that.
    """
    require_float("retraction radius", n, "> 0")
    a = np.asarray(a, dtype=np.float64)
    norm = np.sqrt(np.add.reduce(np.multiply(a, a, order="C"), axis=-1, keepdims=True))
    return a * (n / np.maximum(norm, n))


def phi_eps(x, eps: float):
    """Dead-zone shift: move ``x`` toward zero by ``eps``, clamping at zero.

    ``phi_eps(x) = x - eps`` for ``x >= eps``, ``x + eps`` for
    ``x <= -eps``, and 0 on the dead zone ``[-eps, eps]``.  Equivalent
    closed form: ``sign(x) * max(|x| - eps, 0)``.  It is 1-Lipschitz,
    satisfies ``|phi_eps(x) - x| <= eps``, and never changes sign.

    Accepts scalars or arrays; returns the matching kind.
    """
    require_float("eps", eps, ">= 0")
    arr = np.asarray(x, dtype=np.float64)
    out = np.sign(arr) * np.maximum(np.abs(arr) - eps, 0.0)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def shift(a: np.ndarray, n: int, eps: float | None = None) -> np.ndarray:
    """The dead-zone map ``Phi_n`` of one state ``(N,)`` or of each row
    of a batch ``(M, N)``, as a new array of the shape of ``a``.

    Applies ``phi_eps`` to coordinates ``k < n`` and zeroes the rest;
    the default dead zone is ``eps = 2^-n``.  States within ``eps`` of a
    face are pushed onto it, so small perturbations of a face point
    cannot cross the boundary.  Every entry is computed alone, so row
    ``i`` of a batch result equals the result at ``a[i]`` bit for bit.
    """
    require_int("level", n, 0)
    if eps is None:
        eps = 2.0 ** (-n)
    a = np.asarray(a, dtype=np.float64)
    out = np.zeros(a.shape)
    out[..., :n] = phi_eps(a[..., :n], eps)
    return out


def cone_contains(cone: ConeSpec, a: np.ndarray, tol: float = 0.0) -> bool:
    """Membership ``a in K``, up to slack ``tol`` on each constraint, of
    one state ``(N,)`` or of every row of a batch ``(M, N)``.

    With ``tol = 0`` this is exact membership.  A positive ``tol``
    accepts rows whose constrained coordinates dip below zero by at
    most ``tol``, which is the form Monte Carlo verdicts need.  A
    non-finite entry, free coordinates included, lies outside the cone.
    The test takes full rows: a free coordinate gives ``0 * a_l = 0``.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim not in (1, 2) or a.shape[-1] != cone.dim:
        raise ShapeError(f"cone dim {cone.dim} vs state shape {a.shape}")
    require_float("tol", tol, ">= 0")
    return bool(np.all(np.isfinite(a)) and np.all(cone.signs * a >= -tol))
