"""Coefficient maps and the cone-invariance condition checkers.

A coefficient set bundles the drift, the volatility columns, and the
compensated jump atoms of the dynamics

    dr = (A r + drift(r)) dt + sum_j vol_j(r) dW^j + compensated jumps.

The invariance of a coordinate cone under these dynamics is equivalent
to three pointwise conditions, which the checkers here test by sampling:

* jump condition: ``h + gamma_i(h)`` stays in the cone for ``h`` in the
  cone and every atom ``i``;
* drift condition: at admissible boundary pairs ``(theta e_k*, h)`` the
  inward margin ``a + theta drift(h)_k - sum_i w_i theta gamma_i(h)_k``
  is nonnegative;
* volatility condition: every column is parallel to the boundary,
  ``theta vol_j(h)_k = 0`` at the same pairs.

The semigroup enters only through the admissible boundary pairs.  For
a diagonal semigroup and a coordinate cone a pair ``(theta e_k*, h)``
is admissible exactly when ``h_k = 0``, with ``a = 0``, whatever the
rates, so the checkers take the coefficients and the cone alone.

The conditions are pointwise, so the checkers hold little of the sample
at once.  ``sample_boundary_pairs`` is a generator: it draws one
``(theta, k, H)`` face block per constrained coordinate, ``H`` a
``(P_k, N)`` array of states with ``h_k = 0``, checks it and yields it
before the next face is drawn, so one block is live at a time and a
contract violation raises when the bad face is reached.  The drift and
volatility checkers each consume it once and read only coordinate ``k``
of each map on a block, through ``eval_coords(H, [k])``.
``sample_cone_points`` fills one ``(M, N)`` array of cone points, and
the jump checker evaluates each atom on fixed row blocks of it through
``eval_array``; by the row contract of ``CoefficientMap.eval_coords``
each block equals those rows of the whole-sample evaluation bit for bit.
Witnesses are built only for violating rows, and a map value that is
not finite raises ``NumericError`` naming the condition, map and face.

Sampling can certify a violation (a witness is a concrete point) but
never its absence, so reports distinguish "VIOLATED (witness found)"
from "NO VIOLATION FOUND (sampled)".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    NumericError,
    SamplerContractError,
    ShapeError,
    read_int,
)
from .space import ConeSpec, StateVec, cone_contains

__all__ = [
    "CoefficientMap",
    "ZeroMap",
    "ConstantMap",
    "AffineMap",
    "MeanReversionMap",
    "ProportionalMap",
    "TabulatedMap",
    "GatedOffsetMap",
    "SumMap",
    "ProjectedMap",
    "RetractedMap",
    "CallableMap",
    "map_from_config",
    "CoefficientSet",
    "SamplerSpec",
    "Witness",
    "ConditionReport",
    "sample_boundary_pairs",
    "sample_cone_points",
    "drift_margin",
    "check_jump_condition",
    "check_drift_condition",
    "check_volatility_condition",
    "invariance_verdict",
]


_ALL = slice(None)


class CoefficientMap:
    """Pure map of the state space, ``StateVec -> StateVec``.

    A family implements one evaluator, ``eval_coords``, on raw
    coordinate arrays; ``eval_array`` asks it for every coordinate, and
    ``__call__`` wraps and unwraps ``StateVec``.

    ``support`` lists, in increasing order, the output coordinates that
    can be nonzero: every other output entry is a zero (of either sign)
    at every state.  A caller may therefore add a map's value into a sum
    on its support only, with one exception.  Adding ``+0.0`` leaves
    every value alone except ``-0.0``, which it turns into ``+0.0``; and
    a running sum becomes ``-0.0`` only if it already was.  So a sum that
    holds no zero may skip the coordinates outside a support, and a sum
    that holds one adds at full width.
    """

    dim: int

    def eval_coords(self, a: np.ndarray, idx) -> np.ndarray:
        """Output coordinates ``idx`` (a slice or an integer index array)
        at one state ``a`` of shape ``(N,)`` or at a batch of states, one
        per row, of shape ``(P, N)``.

        The result has shape ``a.shape[:-1] + (len(idx),)``, counting
        the coordinates ``idx`` selects, and equals
        ``eval_array(a)[..., idx]`` bit for bit.  Row ``i`` of a batch
        result equals the result at ``a[i]`` bit for bit (the row
        contract).  Entries outside ``support`` are zero.  The result may
        be a read-only view; callers do not write into it.
        """
        raise NotImplementedError

    def eval_array(self, a: np.ndarray) -> np.ndarray:
        """Every output coordinate at ``a``; the result has ``a.shape``."""
        return self.eval_coords(a, _ALL)

    @cached_property
    def support(self) -> np.ndarray:
        """Output coordinates that can be nonzero; all of them unless a
        family knows better."""
        return _index(np.arange(self.dim))

    #: Closed-form family evaluated exactly, without interpolation or
    #: user code; sets of such maps get the tight default tolerance.
    builtin = False

    def to_config(self) -> dict:
        raise ConfigError(f"{type(self).__name__} has no config form")

    def __call__(self, h: StateVec) -> StateVec:
        if h.dim != self.dim:
            raise ShapeError(f"map dim {self.dim} vs vector dim {h.dim}")
        return StateVec(self.eval_array(h.coords))


def _per_row(eval_one: Callable, a: np.ndarray, idx) -> np.ndarray:
    """Apply a single-state evaluator ``eval_one(row, idx)`` to ``a`` or
    to each row of a batch."""
    if a.ndim == 1:
        return eval_one(a, idx)
    if a.shape[0] == 0:
        return np.empty(a[:, idx].shape)
    return np.stack([eval_one(row, idx) for row in a])


def _index(coords) -> np.ndarray:
    arr = np.asarray(coords, dtype=np.intp)
    arr.flags.writeable = False
    return arr


def row_index(coords, dim: int) -> slice | np.ndarray | None:
    """A set of coordinates as an index into a state row: ``None`` when
    empty, ``slice(None)`` for all of them, a slice for a run of them,
    else the sorted index array.  Slices index without a copy."""
    sup = np.unique(np.asarray(coords, dtype=np.intp))
    if sup.size == 0:
        return None
    if sup[0] < 0 or sup[-1] >= dim:
        raise ShapeError(f"coordinates {sup.tolist()} outside 0..{dim - 1}")
    if sup.size == dim:
        return _ALL
    lo, hi = int(sup[0]), int(sup[-1]) + 1
    return slice(lo, hi) if hi - lo == sup.size else sup


def _selected(idx, dim: int) -> np.ndarray:
    """The coordinates ``idx`` selects out of ``0..dim-1``, in order."""
    return np.arange(dim)[idx]


def _vec(values, dim: int | None, name: str) -> np.ndarray:
    """A read-only finite float64 copy of ``values``, shape ``(dim,)``;
    any length when ``dim`` is None."""
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1 or dim not in (None, arr.shape[0]):
        raise ShapeError(f"{name} must have shape ({dim or 'N'},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ZeroMap(CoefficientMap):
    dim: int

    builtin = True

    def eval_coords(self, a: np.ndarray, idx) -> np.ndarray:
        return np.zeros(a[..., idx].shape)

    @cached_property
    def support(self) -> np.ndarray:
        return _index([])

    def to_config(self) -> dict:
        return {"family": "zero"}


@dataclass(frozen=True)
class ConstantMap(CoefficientMap):
    """``h -> value``, ignoring the state."""

    value: np.ndarray
    dim: int = field(init=False)

    builtin = True

    def __post_init__(self):
        object.__setattr__(self, "value", _vec(self.value, None, "value"))
        object.__setattr__(self, "dim", self.value.shape[0])

    def eval_coords(self, a: np.ndarray, idx) -> np.ndarray:
        v = self.value[idx]
        return v if a.ndim == 1 else v[None, :].repeat(a.shape[0], axis=0)

    @cached_property
    def support(self) -> np.ndarray:
        return _index(np.flatnonzero(self.value))

    def to_config(self) -> dict:
        return {"family": "constant", "value": [float(x) for x in self.value]}


@dataclass(frozen=True)
class AffineMap(CoefficientMap):
    """``h -> matrix h + offset``.

    Evaluation accumulates matrix columns in index order instead of
    calling a BLAS matvec; that keeps each row of a batch bitwise equal
    to the single-state result, and the matrices here are small.
    """

    matrix: np.ndarray
    offset: np.ndarray
    dim: int = field(init=False)

    builtin = True

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise DomainError("matrix must be finite")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", m.shape[0])
        object.__setattr__(self, "offset", _vec(self.offset, self.dim, "offset"))

    def eval_coords(self, a: np.ndarray, idx) -> np.ndarray:
        rows = self.matrix[idx]
        out = np.empty(a.shape[:-1] + rows.shape[:1])
        out[...] = self.offset[idx]
        for l in range(self.dim):
            out += rows[:, l] * a[..., l, None]
        return out

    def to_config(self) -> dict:
        return {
            "family": "affine",
            "matrix": [[float(x) for x in row] for row in self.matrix],
            "offset": [float(x) for x in self.offset],
        }


@dataclass(frozen=True)
class MeanReversionMap(CoefficientMap):
    """``h -> kappa (b - h)``, pull toward the level ``b``."""

    kappa: float
    b: np.ndarray
    dim: int = field(init=False)

    builtin = True

    def __post_init__(self):
        if not np.isfinite(self.kappa):
            raise DomainError("kappa must be finite")
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "b", _vec(self.b, None, "b"))
        object.__setattr__(self, "dim", self.b.shape[0])

    def eval_coords(self, a: np.ndarray, idx) -> np.ndarray:
        return self.kappa * (self.b[idx] - a[..., idx])

    def to_config(self) -> dict:
        return {"family": "mean_reversion", "kappa": self.kappa, "b": [float(x) for x in self.b]}


@dataclass(frozen=True)
class ProportionalMap(CoefficientMap):
    """Single-coordinate proportional map: ``(f(h))_k = scale h_k`` at
    ``k = index``, zero elsewhere.  The standard boundary-parallel
    volatility column."""

    scale: float
    index: int
    dim: int

    builtin = True

    def __post_init__(self):
        if not np.isfinite(self.scale):
            raise DomainError("scale must be finite")
        if not 0 <= self.index < self.dim:
            raise ShapeError(f"index {self.index} outside 0..{self.dim - 1}")

    def eval_coords(self, a: np.ndarray, idx) -> np.ndarray:
        k = self.index
        if idx is _ALL:  # eval_array, frequent on single states
            out = np.zeros(a.shape)
            out[..., k] = self.scale * a[..., k]
            return out
        # the kernel asks for the support as this slice, once per step
        if isinstance(idx, slice) and idx == slice(k, k + 1):
            return self.scale * a[..., idx]
        hit = _selected(idx, self.dim) == k
        out = np.zeros(a.shape[:-1] + hit.shape)
        out[..., hit] = self.scale * a[..., k, None]
        return out

    @cached_property
    def support(self) -> np.ndarray:
        return _index([self.index])

    def to_config(self) -> dict:
        return {"family": "proportional", "scale": self.scale, "index": self.index}


@dataclass(frozen=True)
class TabulatedMap(CoefficientMap):
    """Coordinatewise piecewise-linear interpolant from a value table.

    Applied to every coordinate: ``(f(h))_k = interp(h_k)`` with
    constant extrapolation beyond the knots; ``np.interp`` evaluates a
    whole batch of states at once.  Not a built-in family, so sets that
    use it get the looser default tolerance.
    """

    knots: np.ndarray
    values: np.ndarray
    dim: int

    def __post_init__(self):
        x = np.asarray(self.knots, dtype=np.float64)
        y = np.asarray(self.values, dtype=np.float64)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise ShapeError("knots and values must be equal-length 1-d arrays, size >= 2")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DomainError("table entries must be finite")
        if np.any(np.diff(x) <= 0):
            raise DomainError("knots must be strictly increasing")
        x, y = x.copy(), y.copy()
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "knots", x)
        object.__setattr__(self, "values", y)

    def eval_coords(self, a: np.ndarray, idx) -> np.ndarray:
        return np.interp(a[..., idx], self.knots, self.values)

    def to_config(self) -> dict:
        return {
            "family": "tabulated",
            "x": [float(v) for v in self.knots],
            "y": [float(v) for v in self.values],
        }


@dataclass(frozen=True)
class GatedOffsetMap(CoefficientMap):
    """Constant offset active only while a gate coordinate is in a band.

    ``f(h) = vector`` if ``low <= h[gate_index] <= high``, else 0.
    """

    vector: np.ndarray
    gate_index: int
    low: float
    high: float
    dim: int = field(init=False)

    builtin = True

    def __post_init__(self):
        object.__setattr__(self, "vector", _vec(self.vector, None, "vector"))
        object.__setattr__(self, "dim", self.vector.shape[0])
        if not 0 <= self.gate_index < self.dim:
            raise ShapeError(f"gate index {self.gate_index} outside 0..{self.dim - 1}")
        if not (np.isfinite(self.low) and np.isfinite(self.high) and self.low <= self.high):
            raise DomainError("need finite low <= high")

    def eval_coords(self, a: np.ndarray, idx) -> np.ndarray:
        gate = a[..., self.gate_index]
        on = (self.low <= gate) & (gate <= self.high)
        return np.where(on[..., None], self.vector[idx], 0.0)

    @cached_property
    def support(self) -> np.ndarray:
        return _index(np.flatnonzero(self.vector))

    def to_config(self) -> dict:
        return {
            "family": "gated_offset",
            "vector": [float(x) for x in self.vector],
            "gate_index": self.gate_index,
            "low": self.low,
            "high": self.high,
        }


@dataclass(frozen=True)
class SumMap(CoefficientMap):
    """Pointwise sum of maps, evaluated left to right.

    Asked for every coordinate, a term whose support is not every
    coordinate is added on its support only, unless the running sum
    holds a zero (see ``CoefficientMap``).
    """

    terms: tuple[CoefficientMap, ...]
    dim: int = field(init=False)

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ShapeError("sum needs at least one term")
        dims = {t.dim for t in terms}
        if len(dims) != 1:
            raise ShapeError(f"sum terms disagree on dim: {sorted(dims)}")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "dim", terms[0].dim)

    def eval_coords(self, a: np.ndarray, idx) -> np.ndarray:
        every = isinstance(idx, slice) and idx.indices(self.dim) == (0, self.dim, 1)
        out = self.terms[0].eval_coords(a, idx)
        for t, sup in zip(self.terms[1:], self._term_indices[1:]):
            # a writeable result belongs to the caller, so it may be added into
            if every and sup is not _ALL and out.flags.writeable and out.all():
                if sup is not None:
                    out[..., sup] += t.eval_coords(a, sup)
            else:
                out = out + t.eval_coords(a, idx)
        return out

    @cached_property
    def _term_indices(self) -> tuple:
        return tuple(row_index(t.support, self.dim) for t in self.terms)

    @cached_property
    def support(self) -> np.ndarray:
        return _index(np.unique(np.concatenate([t.support for t in self.terms])))

    @property
    def builtin(self) -> bool:
        return all(t.builtin for t in self.terms)

    def to_config(self) -> dict:
        return {"family": "sum", "terms": [t.to_config() for t in self.terms]}


@dataclass(frozen=True)
class ProjectedMap(CoefficientMap):
    """``h -> P_n f(h)``: evaluate, then zero coordinates past ``level``."""

    inner: CoefficientMap
    level: int
    dim: int = field(init=False)

    def __post_init__(self):
        if self.level < 0:
            raise DomainError(f"projection level must be >= 0, got {self.level}")
        object.__setattr__(self, "dim", self.inner.dim)

    def eval_coords(self, a: np.ndarray, idx) -> np.ndarray:
        out = self.inner.eval_coords(a, idx)
        cut = _selected(idx, self.dim) >= self.level
        return np.where(cut, 0.0, out) if cut.any() else out

    @cached_property
    def support(self) -> np.ndarray:
        sup = self.inner.support
        return _index(sup[sup < self.level])

    @property
    def builtin(self) -> bool:
        return self.inner.builtin

    def to_config(self) -> dict:
        return {"family": "projected", "level": self.level, "inner": self.inner.to_config()}


@dataclass(frozen=True)
class RetractedMap(CoefficientMap):
    """``h -> f(R_n h)`` with the radial retraction at ``radius``.

    Bounded whenever ``f`` is bounded on the ball, identical to ``f``
    inside the ball, and its restriction to any ball keeps the inner
    map's Lipschitz constant because the retraction is 1-Lipschitz.
    """

    inner: CoefficientMap
    radius: float
    dim: int = field(init=False)

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise DomainError(f"retraction radius must be finite and > 0, got {self.radius}")
        object.__setattr__(self, "dim", self.inner.dim)

    def eval_coords(self, a: np.ndarray, idx) -> np.ndarray:
        # row by row: a batched norm sums in a different order
        return _per_row(self._eval_one, a, idx)

    def _eval_one(self, a: np.ndarray, idx) -> np.ndarray:
        norm = float(np.linalg.norm(a))
        if norm > self.radius:
            a = a * (self.radius / norm)
        return self.inner.eval_coords(a, idx)

    def to_config(self) -> dict:
        return {"family": "retracted", "radius": self.radius, "inner": self.inner.to_config()}


@dataclass(frozen=True)
class CallableMap(CoefficientMap):
    """Wrap an arbitrary pure function of the state: ``fn`` takes a
    ``StateVec`` and returns one or an array.  Not a built-in family and
    not serializable."""

    fn: Callable
    dim: int

    def eval_coords(self, a: np.ndarray, idx) -> np.ndarray:
        return _per_row(self._eval_one, a, idx)

    def _eval_one(self, a: np.ndarray, idx) -> np.ndarray:
        res = self.fn(StateVec(a))
        # a copy: SumMap adds into a writeable result
        out = res.coords if isinstance(res, StateVec) else np.array(res, dtype=np.float64)
        if out.shape != (self.dim,):
            raise ShapeError(f"callable returned shape {out.shape}, expected ({self.dim},)")
        return out[idx]


def map_from_config(doc: dict, dim: int, index: int | None = None) -> CoefficientMap:
    """Build a coefficient map from its config document.

    ``index`` is the position of the map in a column list; the
    proportional family uses it as the default coordinate index.
    """
    if not isinstance(doc, dict) or "family" not in doc:
        raise ConfigError(f"coefficient map config needs a 'family' key, got {doc!r}")
    fam = doc["family"]
    try:
        if fam == "zero":
            return ZeroMap(dim)
        if fam == "constant":
            return ConstantMap(_vec(doc["value"], dim, "value"))
        if fam in ("linear", "affine"):
            if "diag" in doc:
                m = np.diag(np.asarray(doc["diag"], dtype=np.float64))
            else:
                m = np.asarray(doc["matrix"], dtype=np.float64)
            offset = doc.get("offset", np.zeros(dim)) if fam == "affine" else np.zeros(dim)
            return AffineMap(m, np.asarray(offset, dtype=np.float64))
        if fam == "mean_reversion":
            return MeanReversionMap(float(doc["kappa"]), _vec(doc["b"], dim, "b"))
        if fam == "proportional":
            idx = doc.get("index", index)
            if idx is None:
                raise ConfigError("proportional map needs an 'index' outside a column list")
            return ProportionalMap(float(doc["scale"]), read_int(f"{fam}.index", idx), dim)
        if fam == "tabulated":
            return TabulatedMap(np.asarray(doc["x"]), np.asarray(doc["y"]), dim)
        if fam == "gated_offset":
            return GatedOffsetMap(
                _vec(doc["vector"], dim, "vector"),
                read_int(f"{fam}.gate_index", doc["gate_index"]),
                float(doc["low"]),
                float(doc["high"]),
            )
        if fam == "sum":
            return SumMap(tuple(map_from_config(t, dim, index) for t in doc["terms"]))
        if fam == "projected":
            level = read_int(f"{fam}.level", doc["level"])
            return ProjectedMap(map_from_config(doc["inner"], dim, index), level)
        if fam == "retracted":
            return RetractedMap(map_from_config(doc["inner"], dim, index), float(doc["radius"]))
    except KeyError as exc:
        raise ConfigError(f"family {fam!r} config missing key {exc}") from exc
    raise ConfigError(f"unknown coefficient family {fam!r}")


@dataclass(frozen=True)
class CoefficientSet:
    """Drift, volatility columns, and compensated jump atoms.

    ``jump_atoms`` are pairs ``(weight, kernel)`` with weight the atom's
    finite jump intensity.  Every map shares one dimension, ``dim``.
    """

    drift: CoefficientMap
    vol_columns: tuple[CoefficientMap, ...] = ()
    jump_atoms: tuple[tuple[float, CoefficientMap], ...] = ()

    def __post_init__(self):
        vols = tuple(self.vol_columns)
        atoms = tuple((float(w), g) for w, g in self.jump_atoms)
        object.__setattr__(self, "vol_columns", vols)
        object.__setattr__(self, "jump_atoms", atoms)
        dims = {self.drift.dim} | {v.dim for v in vols} | {g.dim for _, g in atoms}
        if len(dims) != 1:
            raise ShapeError(f"coefficient maps disagree on dim: {sorted(dims)}")
        for w, _ in atoms:
            if not (np.isfinite(w) and w > 0):
                raise DomainError(f"jump atom weight must be finite and > 0, got {w}")

    @property
    def dim(self) -> int:
        return self.drift.dim

    @property
    def jump_weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.jump_atoms], dtype=np.float64)

    def hs_norm(self, h: StateVec) -> float:
        """Hilbert-Schmidt norm of the volatility at ``h``:
        ``sqrt(sum_j ||vol_j(h)||^2)``."""
        total = 0.0
        for col in self.vol_columns:
            total += float(np.sum(col.eval_array(h.coords) ** 2))
        return float(np.sqrt(total))

    def uses_only_builtin_maps(self) -> bool:
        """True when every map belongs to a built-in closed-form family."""
        maps = (self.drift, *self.vol_columns, *(g for _, g in self.jump_atoms))
        return all(m.builtin for m in maps)

    def to_config(self) -> dict:
        return {
            "drift": self.drift.to_config(),
            "vol": [c.to_config() for c in self.vol_columns],
            "jumps": [{"weight": w, "kernel": g.to_config()} for w, g in self.jump_atoms],
        }

    @classmethod
    def from_config(cls, doc: dict, dim: int) -> "CoefficientSet":
        if "drift" not in doc:
            raise ConfigError("coefficients config needs a 'drift' entry")
        drift = map_from_config(doc["drift"], dim)
        vols = tuple(
            map_from_config(c, dim, index=j) for j, c in enumerate(doc.get("vol", []))
        )
        atoms = []
        for entry in doc.get("jumps", []):
            if "weight" not in entry or "kernel" not in entry:
                raise ConfigError("jump entry needs 'weight' and 'kernel'")
            atoms.append((float(entry["weight"]), map_from_config(entry["kernel"], dim)))
        return cls(drift, vols, tuple(atoms))


# --------------------------------------------------------------------------
# Boundary and cone sampling


@dataclass(frozen=True)
class SamplerSpec:
    """Deterministic sampling plan for the condition checkers.

    For every constrained coordinate ``points_per_face`` random points
    are drawn on that face (the coordinate pinned to zero, the others
    folded into the cone); the jump checker additionally draws
    ``interior_points`` unpinned cone points.  Corners (the origin and
    the unit vectors of the other constrained coordinates) are added
    deterministically.  Identical seeds give identical samples.
    """

    points_per_face: int = 64
    interior_points: int = 64
    seed: int = 0
    include_corners: bool = True

    def __post_init__(self):
        if self.points_per_face < 0 or self.interior_points < 0:
            raise DomainError("sample counts must be >= 0")


def _fold_into_cone(cone: ConeSpec, z: np.ndarray) -> np.ndarray:
    """Reflect the constrained coordinates of each row of ``z`` into the cone."""
    return np.where(cone.signs != 0, cone.signs * np.abs(z), z)


def _face_draws(cone: ConeSpec, rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """``n`` seeded states folded into the cone with coordinate ``k`` pinned to 0.

    One ``(n, N)`` draw consumes the stream exactly as ``n`` successive
    ``(N,)`` draws, so the block is the same whatever its size.
    """
    pts = _fold_into_cone(cone, rng.standard_normal((n, cone.dim)))
    pts[:, k] = 0.0
    return pts


def _corners(cone: ConeSpec, idx: np.ndarray) -> np.ndarray:
    """The origin, then ``signs[l] e_l`` for every ``l`` in ``idx``."""
    out = np.zeros((1 + idx.size, cone.dim))
    out[np.arange(1, 1 + idx.size), idx] = cone.signs[idx]
    return out


def _in_cone(cone: ConeSpec, pts: np.ndarray) -> bool:
    """True when every row of ``pts`` is finite and lies in the cone."""
    # full rows: a free coordinate gives 0 * h_l = 0, and no gather
    return bool(np.all(np.isfinite(pts)) and np.all(cone.signs * pts >= 0.0))


def sample_boundary_pairs(
    cone: ConeSpec, spec: SamplerSpec = SamplerSpec()
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Sampled admissible boundary pairs, one block ``(theta, k, H)`` per face.

    ``H`` is a read-only ``(P_k, N)`` array whose rows ``h`` give the
    pairs ``(theta e_k*, h)``: ``points_per_face`` seeded draws, then the
    face's corners when ``include_corners`` is set.  Faces are visited in
    increasing coordinate order from one seeded stream, so the blocks are
    reproducible.

    This is a generator: a face is drawn only when its block is asked
    for, so a caller that uses each block before asking for the next
    holds one block at a time.  Every row of a block is verified finite
    and in the cone with ``h_k`` exactly zero before it is yielded, so a
    contract violation raises ``SamplerContractError`` when the bad face
    is reached, after the blocks before it.  Wrap the call in ``list``
    to hold every face at once.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    idx = cone.constrained
    for k in idx:
        k = int(k)
        H = _face_draws(cone, rng, spec.points_per_face, k)
        if spec.include_corners:
            H = np.concatenate([H, _corners(cone, idx[idx != k])])
        if not (_in_cone(cone, H) and np.all(H[:, k] == 0.0)):
            raise SamplerContractError(f"face sampler left the face at k={k}")
        H.flags.writeable = False
        yield int(cone.signs[k]), k, H


def sample_cone_points(cone: ConeSpec, spec: SamplerSpec = SamplerSpec()) -> np.ndarray:
    """Sampled cone points as one read-only ``(M, N)`` array.

    Rows are the ``interior_points`` draws, then ``points_per_face``
    draws on every face in coordinate order, then (with
    ``include_corners``) the origin and the unit vectors of the
    constrained coordinates.  Each part is checked finite and in the
    cone as it is drawn, then copied into its rows of the one array.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    idx = cone.constrained
    corners = 1 + idx.size if spec.include_corners else 0
    rows = spec.interior_points + idx.size * spec.points_per_face + corners
    points = np.empty((rows, cone.dim))

    def parts():
        yield _fold_into_cone(cone, rng.standard_normal((spec.interior_points, cone.dim)))
        for k in idx:
            yield _face_draws(cone, rng, spec.points_per_face, int(k))
        if spec.include_corners:
            yield _corners(cone, idx)

    start = 0
    for part in parts():
        if not _in_cone(cone, part):
            raise SamplerContractError("cone sampler produced a point outside the cone")
        points[start : start + part.shape[0]] = part
        start += part.shape[0]
    points.flags.writeable = False
    return points


# --------------------------------------------------------------------------
# Condition checkers

_JUMP_ROWS = 1024  # cone points per atom evaluation in the jump checker


@dataclass(frozen=True)
class Witness:
    """Concrete violation: which condition failed, where, by how much.

    ``component`` is the atom or column index when one is responsible.
    """

    condition: str
    theta: int
    k: int
    point: StateVec
    magnitude: float
    component: int | None = None

    def sort_key(self):
        comp = -1 if self.component is None else self.component
        return (self.condition, self.k, self.theta, comp, -self.magnitude, self.point.coords.tobytes())

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "theta": self.theta,
            "k": self.k,
            "point": [float(x) for x in self.point.coords],
            "magnitude": self.magnitude,
            "component": self.component,
        }


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one or more condition checks.

    Flags left as ``None`` were not evaluated (partial reports from the
    single-condition checkers).  A ``False`` flag always comes with at
    least one witness whose magnitude exceeds the tolerance; witnesses
    are kept in canonical sorted order so reports are comparable.
    """

    jump_ok: bool | None
    drift_ok: bool | None
    vol_ok: bool | None
    witnesses: tuple[Witness, ...]
    sampled_points: int
    tol: float

    def __post_init__(self):
        object.__setattr__(
            self, "witnesses", tuple(sorted(self.witnesses, key=Witness.sort_key))
        )
        for flag, cond in (
            (self.jump_ok, "jump-stays-in-cone"),
            (self.drift_ok, "drift-inward"),
            (self.vol_ok, "vol-parallel"),
        ):
            if flag is False and not any(w.condition == cond for w in self.witnesses):
                raise SamplerContractError(f"failed flag {cond} without a witness")
        for w in self.witnesses:
            if not w.magnitude > self.tol:
                raise SamplerContractError(
                    f"witness magnitude {w.magnitude} not above tolerance {self.tol}"
                )

    @property
    def satisfied(self) -> bool:
        """True when every evaluated condition held on every sample."""
        return all(f is not False for f in (self.jump_ok, self.drift_ok, self.vol_ok))

    @property
    def verdict(self) -> str:
        return "VIOLATED (witness found)" if not self.satisfied else "NO VIOLATION FOUND (sampled)"

    def to_dict(self) -> dict:
        return {
            "jump_ok": self.jump_ok,
            "drift_ok": self.drift_ok,
            "vol_ok": self.vol_ok,
            "verdict": self.verdict,
            "sampled_points": self.sampled_points,
            "tol": self.tol,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


def default_tol(coeffs: CoefficientSet) -> float:
    """1e-9 for built-in families; 1e-6 once interpolated tables or
    opaque callables are involved."""
    return 1e-9 if coeffs.uses_only_builtin_maps() else 1e-6


def _same_dim(coeffs: CoefficientSet, cone: ConeSpec) -> None:
    """Raise ``ShapeError`` unless the coefficients live on the cone's space."""
    if coeffs.dim != cone.dim:
        raise ShapeError(f"dims disagree: cone {cone.dim}, coefficients {coeffs.dim}")


def _finite(vals: np.ndarray, condition: str, part: str, k: int | None = None) -> np.ndarray:
    """``vals``, one evaluated block, checked finite once; else raise
    ``NumericError`` naming the map and the face ``k`` (by default the
    first coordinate that failed)."""
    ok = np.isfinite(vals)
    if not ok.all():
        if k is None:
            k = int(np.argwhere(~ok)[0, -1])
        raise NumericError(f"{condition}: {part} is not finite on face k={k}")
    return vals


def _margin_block(coeffs: CoefficientSet, theta: int, k: int, H: np.ndarray) -> np.ndarray:
    """Inward margins ``theta drift(h)_k - sum_i w_i theta gamma_i(h)_k``
    at the pairs ``(theta e_k*, H[i])``, one entry per row of the block
    ``H``; the boundary value ``a`` of such a pair is 0."""
    drift = coeffs.drift.eval_coords(H, [k])[:, 0]
    drift_k = theta * _finite(drift, "drift-inward", "drift", k)
    comp_k = np.zeros(H.shape[0])
    for i, (w, g) in enumerate(coeffs.jump_atoms):
        gamma = _finite(g.eval_coords(H, [k])[:, 0], "drift-inward", f"jump atom {i}", k)
        comp_k += w * theta * gamma
    return _finite(drift_k - comp_k, "drift-inward", "drift minus jump compensator", k)


@np.errstate(over="ignore", invalid="ignore")
def drift_margin(coeffs: CoefficientSet, cone: ConeSpec, theta: int, k: int, h: StateVec) -> float:
    """Inward margin at the boundary pair ``(theta e_k*, h)``.

    For a diagonal semigroup and a coordinate cone the pair is
    admissible exactly when ``theta e_k*`` generates the cone, ``h`` lies
    in the cone and ``h_k = 0``; its boundary value ``a`` is then 0.

    Raises
    ------
    ConfigError
        If the functional does not generate the cone.
    DomainError
        If ``h`` is outside the cone.
    SamplerContractError
        If ``h_k != 0``, so the pair is not admissible.
    ShapeError
        If the coefficients and the cone disagree on the dimension.
    """
    _same_dim(coeffs, cone)
    if not (theta in (-1, 1) and 0 <= k < cone.dim and cone.signs[k] == theta):
        raise ConfigError(f"functional ({theta}, {k}) does not generate the cone")
    if not cone_contains(cone, h, 0.0):
        raise DomainError("boundary test requires a point inside the cone")
    if h.coords[k] != 0.0:
        raise SamplerContractError(
            f"pair (theta={theta}, k={k}) with h_k={h.coords[k]} is not an admissible boundary pair"
        )
    return float(_margin_block(coeffs, theta, k, h.coords[None, :])[0])


@np.errstate(over="ignore", invalid="ignore")
def check_jump_condition(
    coeffs: CoefficientSet,
    cone: ConeSpec,
    sampler: SamplerSpec = SamplerSpec(),
    tol: float | None = None,
) -> ConditionReport:
    """Sampled check that every jump keeps the cone invariant.

    For each sampled ``h`` in the cone and each atom the displaced point
    ``h + gamma_i(h)`` must satisfy every sign constraint up to ``tol``.
    Each atom is evaluated on blocks of ``_JUMP_ROWS`` sampled points,
    so its temporaries stay small whatever the sample size.
    """
    _same_dim(coeffs, cone)
    if tol is None:
        tol = default_tol(coeffs)
    points = sample_cone_points(cone, sampler)
    witnesses = []
    idx = cone.constrained
    signs = cone.signs[idx]
    for i, (_, g) in enumerate(coeffs.jump_atoms):
        for start in range(0, points.shape[0], _JUMP_ROWS):
            block = points[start : start + _JUMP_ROWS]
            # the atom's block dies with the sum and the signs apply in place
            margins = (
                block + _finite(g.eval_array(block), "jump-stays-in-cone", f"jump atom {i}")
            )[:, idx]
            margins *= signs
            for row, pos in np.argwhere(margins < -tol):
                k = int(idx[pos])
                witnesses.append(
                    Witness(
                        condition="jump-stays-in-cone",
                        theta=int(cone.signs[k]),
                        k=k,
                        point=StateVec(block[row]),
                        magnitude=float(-margins[row, pos]),
                        component=i,
                    )
                )
    return ConditionReport(
        jump_ok=not witnesses,
        drift_ok=None,
        vol_ok=None,
        witnesses=tuple(witnesses),
        sampled_points=points.shape[0],
        tol=tol,
    )


@np.errstate(over="ignore", invalid="ignore")
def check_drift_condition(
    coeffs: CoefficientSet,
    cone: ConeSpec,
    sampler: SamplerSpec = SamplerSpec(),
    tol: float | None = None,
) -> ConditionReport:
    """Sampled check of the inward-pointing drift condition.

    At every sampled admissible boundary pair ``(theta e_k*, h)`` the
    margin ``a + theta drift(h)_k - sum_i w_i theta gamma_i(h)_k`` must
    be ``>= -tol``.  A pair is admissible exactly when ``h_k = 0``, and
    then ``a = 0``; a face block holding any other row is a sampler
    fault.  Each map's coordinate ``k`` is evaluated once per face
    block, and the blocks are consumed as the sampler draws them.  A
    drift, atom or margin value that is not finite raises
    ``NumericError``.
    """
    _same_dim(coeffs, cone)
    if tol is None:
        tol = default_tol(coeffs)
    witnesses = []
    sampled = 0
    for theta, k, H in sample_boundary_pairs(cone, sampler):
        sampled += H.shape[0]
        # a pair is admissible exactly when h_k = 0, and then a = 0
        if not np.all(H[:, k] == 0.0):
            raise SamplerContractError(f"face block k={k} holds a pair that is not admissible")
        margin = _margin_block(coeffs, theta, k, H)
        for row in np.flatnonzero(margin < -tol):
            witnesses.append(
                Witness(
                    condition="drift-inward",
                    theta=theta,
                    k=k,
                    point=StateVec(H[row]),
                    magnitude=float(-margin[row]),
                )
            )
    return ConditionReport(
        jump_ok=None,
        drift_ok=not witnesses,
        vol_ok=None,
        witnesses=tuple(witnesses),
        sampled_points=sampled,
        tol=tol,
    )


@np.errstate(over="ignore", invalid="ignore")
def check_volatility_condition(
    coeffs: CoefficientSet,
    cone: ConeSpec,
    sampler: SamplerSpec = SamplerSpec(),
    tol: float | None = None,
) -> ConditionReport:
    """Sampled check that volatility columns are parallel to the boundary:
    ``|theta vol_j(h)_k| <= tol`` at admissible boundary pairs.  Each
    column's coordinate ``k`` is evaluated once per face block, and the
    blocks are consumed as the sampler draws them."""
    _same_dim(coeffs, cone)
    if tol is None:
        tol = default_tol(coeffs)
    witnesses = []
    sampled = 0
    for theta, k, H in sample_boundary_pairs(cone, sampler):
        sampled += H.shape[0]
        for j, col in enumerate(coeffs.vol_columns):
            vol = col.eval_coords(H, [k])[:, 0]
            val = theta * _finite(vol, "vol-parallel", f"volatility column {j}", k)
            for row in np.flatnonzero(np.abs(val) > tol):
                witnesses.append(
                    Witness(
                        condition="vol-parallel",
                        theta=theta,
                        k=k,
                        point=StateVec(H[row]),
                        magnitude=float(abs(val[row])),
                        component=j,
                    )
                )
    return ConditionReport(
        jump_ok=None,
        drift_ok=None,
        vol_ok=not witnesses,
        witnesses=tuple(witnesses),
        sampled_points=sampled,
        tol=tol,
    )


def invariance_verdict(
    coeffs: CoefficientSet,
    cone: ConeSpec,
    sampler: SamplerSpec = SamplerSpec(),
    tol: float | None = None,
) -> ConditionReport:
    """Combined verdict over the jump, drift, and volatility conditions.

    The three checkers run on the same sampling plan; the merged report
    is satisfied only when all three found no violation.  A satisfied
    report means "no violation found on the sample", never a proof.
    Each checker raises ``ShapeError`` when the coefficients and the
    cone disagree on the dimension.
    """
    if tol is None:
        tol = default_tol(coeffs)
    jump = check_jump_condition(coeffs, cone, sampler, tol)
    drift = check_drift_condition(coeffs, cone, sampler, tol)
    vol = check_volatility_condition(coeffs, cone, sampler, tol)
    return ConditionReport(
        jump_ok=jump.jump_ok,
        drift_ok=drift.drift_ok,
        vol_ok=vol.vol_ok,
        witnesses=jump.witnesses + drift.witnesses + vol.witnesses,
        sampled_points=jump.sampled_points + drift.sampled_points + vol.sampled_points,
        tol=tol,
    )
