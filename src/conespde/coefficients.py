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
``sample_cone_points`` is a generator too: it draws the cone points in
read-only parts of at most ``_JUMP_ROWS`` rows, checks each part and
yields it before the next is drawn, and the jump checker evaluates each
atom on each part through ``eval_array`` as it arrives, so one part is
live at a time.  By the row contract of ``CoefficientMap.eval_coords``
each part's evaluation equals those rows of the whole-sample evaluation
bit for bit.
Every checker opens with one preamble (the dimension check and the
default tolerance) and turns each evaluated block of violation sizes
into witnesses through one builder, one witness per entry above the
tolerance.  A map value that is not finite raises ``NumericError``
naming the condition, map and face.

Sampling can certify a violation (a witness is a concrete point) but
never its absence, so a report holds only the conditions it checked
and the witnesses, and derives each condition's flag from them; its
verdict reads "VIOLATED (witness found)" or "NO VIOLATION FOUND
(sampled)".
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
    read_float,
    read_floats,
    read_int,
    require_array,
    require_float,
    require_int,
)
from .space import ConeSpec, cone_contains, retract, shift

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
    "ShiftedMap",
    "CallableMap",
    "map_from_config",
    "CoefficientSet",
    "SamplerSpec",
    "Witness",
    "ConditionReport",
    "sample_boundary_pairs",
    "sample_cone_points",
    "check_jump_condition",
    "check_drift_condition",
    "check_volatility_condition",
    "invariance_verdict",
]


_ALL = slice(None)


class CoefficientMap:
    """Pure map of the state space, ``(N,)`` state to ``(N,)`` value.

    A family implements one evaluator, ``eval_coords``, on state arrays;
    ``eval_array``, which asks it for every coordinate, is the one way
    to evaluate a whole map.

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


@dataclass(frozen=True)
class ZeroMap(CoefficientMap):
    dim: int

    builtin = True

    def __post_init__(self):
        require_int("dim", self.dim, 1)

    def eval_coords(self, a: np.ndarray, idx) -> np.ndarray:
        # in the batch's memory layout, as ConstantMap
        return np.zeros_like(a, np.float64, shape=a[..., idx].shape)

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
        object.__setattr__(self, "value", require_array("value", self.value, ("N",)))
        object.__setattr__(self, "dim", self.value.shape[0])

    def eval_coords(self, a: np.ndarray, idx) -> np.ndarray:
        v = self.value[idx]
        # in the batch's memory layout, which the stepping kernel reads transposed
        out = np.empty_like(a, np.float64, shape=a.shape[:-1] + v.shape)
        out[...] = v
        return out

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
        m = require_array("matrix", self.matrix, ("N", "N"))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", m.shape[0])
        object.__setattr__(self, "offset", require_array("offset", self.offset, (self.dim,)))

    def eval_coords(self, a: np.ndarray, idx) -> np.ndarray:
        rows = self.matrix[idx]
        # in the batch's memory layout, as ConstantMap, and so is each term
        out = np.empty_like(a, np.float64, shape=a.shape[:-1] + rows.shape[:1])
        term = np.empty_like(out)
        out[...] = self.offset[idx]
        for l in range(self.dim):
            out += np.multiply(rows[:, l], a[..., l, None], out=term)
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
        require_float("kappa", self.kappa)
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "b", require_array("b", self.b, ("N",)))
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
        require_float("scale", self.scale)
        require_int("index", self.index)
        require_int("dim", self.dim, 1)
        if not 0 <= self.index < self.dim:
            raise ShapeError(f"index {self.index} outside 0..{self.dim - 1}")

    def eval_coords(self, a: np.ndarray, idx) -> np.ndarray:
        k = self.index
        # results in the batch's memory layout, as ConstantMap
        if idx is _ALL:  # eval_array, frequent on single states
            out = np.zeros_like(a, np.float64)
            out[..., k] = self.scale * a[..., k]
            return out
        # the kernel asks for the support as this slice, once per step
        if isinstance(idx, slice) and idx == slice(k, k + 1):
            return self.scale * a[..., idx]
        hit = _selected(idx, self.dim) == k
        out = np.zeros_like(a, np.float64, shape=a.shape[:-1] + hit.shape)
        out[..., hit] = self.scale * a[..., k, None]
        return out

    @cached_property
    def support(self) -> np.ndarray:
        return _index([self.index])

    def to_config(self) -> dict:
        return {"family": "proportional", "scale": float(self.scale), "index": int(self.index)}


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
        x = require_array("knots", self.knots, ("K",))
        if x.size < 2:
            raise ShapeError(f"a table needs at least 2 knots, got {x.size}")
        if np.any(np.diff(x) <= 0):
            raise DomainError("knots must be strictly increasing")
        object.__setattr__(self, "knots", x)
        object.__setattr__(self, "values", require_array("values", self.values, x.shape))
        require_int("dim", self.dim, 1)

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
        object.__setattr__(self, "vector", require_array("vector", self.vector, ("N",)))
        object.__setattr__(self, "dim", self.vector.shape[0])
        require_int("gate_index", self.gate_index)
        if not 0 <= self.gate_index < self.dim:
            raise ShapeError(f"gate index {self.gate_index} outside 0..{self.dim - 1}")
        require_float("low", self.low)
        require_float("high", self.high)
        if not self.low <= self.high:
            raise DomainError(f"need low <= high, got {self.low} > {self.high}")

    def eval_coords(self, a: np.ndarray, idx) -> np.ndarray:
        gate = a[..., self.gate_index]
        on = (self.low <= gate) & (gate <= self.high)
        v = self.vector[idx]
        # in the batch's memory layout, as ConstantMap
        out = np.zeros_like(a, np.float64, shape=a.shape[:-1] + v.shape)
        np.copyto(out, v, where=on[..., None])
        return out

    @cached_property
    def support(self) -> np.ndarray:
        return _index(np.flatnonzero(self.vector))

    def to_config(self) -> dict:
        return {
            "family": "gated_offset",
            "vector": [float(x) for x in self.vector],
            "gate_index": int(self.gate_index),
            "low": float(self.low),
            "high": float(self.high),
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
        require_int("projection level", self.level, 0)
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
        return {"family": "projected", "level": int(self.level), "inner": self.inner.to_config()}


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
        require_float("retraction radius", self.radius, "> 0")
        object.__setattr__(self, "dim", self.inner.dim)

    def eval_coords(self, a: np.ndarray, idx) -> np.ndarray:
        # retract keeps the row contract: it sums every row's norm alike
        return self.inner.eval_coords(retract(a, self.radius), idx)

    def to_config(self) -> dict:
        inner = self.inner.to_config()
        return {"family": "retracted", "radius": float(self.radius), "inner": inner}


@dataclass(frozen=True)
class ShiftedMap(CoefficientMap):
    """``h -> f(Phi_n h)`` with the dead-zone shift ``space.shift`` at
    ``level``, dead zone ``eps`` (``2^-level`` when omitted).

    States within ``eps`` of a face are evaluated on it, so when ``f``
    is parallel to a face, this map is parallel on a whole slab around
    it.  The batch is shifted once, entry by entry, so the
    row contract holds; support and the built-in flag are the inner
    map's.
    """

    inner: CoefficientMap
    level: int
    eps: float | None = None
    dim: int = field(init=False)

    def __post_init__(self):
        require_int("shift level", self.level, 0)
        if self.eps is not None:
            require_float("shift eps", self.eps, ">= 0")
        object.__setattr__(self, "dim", self.inner.dim)

    def eval_coords(self, a: np.ndarray, idx) -> np.ndarray:
        return self.inner.eval_coords(shift(a, self.level, self.eps), idx)

    @cached_property
    def support(self) -> np.ndarray:
        return self.inner.support

    @property
    def builtin(self) -> bool:
        return self.inner.builtin

    def to_config(self) -> dict:
        eps = {} if self.eps is None else {"eps": float(self.eps)}
        inner = self.inner.to_config()
        return {"family": "shifted", "level": int(self.level), **eps, "inner": inner}


@dataclass(frozen=True)
class CallableMap(CoefficientMap):
    """Wrap an arbitrary pure function of the state: ``fn`` takes one
    state, a read-only ``(dim,)`` float64 view, and returns an
    array-like of shape ``(dim,)``.  Not a built-in family and not
    serializable."""

    fn: Callable
    dim: int

    def __post_init__(self):
        require_int("dim", self.dim, 1)

    def eval_coords(self, a: np.ndarray, idx) -> np.ndarray:
        # user code sees one state at a time
        if a.ndim == 1:
            return self._eval_one(a, idx)
        if a.shape[0] == 0:
            return np.empty(a[:, idx].shape)
        return np.stack([self._eval_one(row, idx) for row in a])

    def _eval_one(self, a: np.ndarray, idx) -> np.ndarray:
        # a read-only view: user code cannot write into the caller's rows
        row = a.view()
        row.flags.writeable = False
        # a copy: SumMap adds into a writeable result
        out = np.array(self.fn(row), dtype=np.float64)
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
            value = read_floats(f"{fam}.value", doc["value"])
            return ConstantMap(require_array(f"{fam}.value", value, (dim,)))
        if fam in ("linear", "affine"):
            if "diag" in doc:
                m = np.diag(read_floats(f"{fam}.diag", doc["diag"]))
            else:
                m = read_floats(f"{fam}.matrix", doc["matrix"])
            offset = doc.get("offset", np.zeros(dim)) if fam == "affine" else np.zeros(dim)
            return AffineMap(m, read_floats(f"{fam}.offset", offset))
        if fam == "mean_reversion":
            kappa = read_float(f"{fam}.kappa", doc["kappa"])
            b = read_floats(f"{fam}.b", doc["b"])
            return MeanReversionMap(kappa, require_array(f"{fam}.b", b, (dim,)))
        if fam == "proportional":
            idx = doc.get("index", index)
            if idx is None:
                raise ConfigError("proportional map needs an 'index' outside a column list")
            scale = read_float(f"{fam}.scale", doc["scale"])
            return ProportionalMap(scale, read_int(f"{fam}.index", idx), dim)
        if fam == "tabulated":
            x, y = read_floats(f"{fam}.x", doc["x"]), read_floats(f"{fam}.y", doc["y"])
            return TabulatedMap(x, y, dim)
        if fam == "gated_offset":
            vector = read_floats(f"{fam}.vector", doc["vector"])
            return GatedOffsetMap(
                require_array(f"{fam}.vector", vector, (dim,)),
                read_int(f"{fam}.gate_index", doc["gate_index"]),
                read_float(f"{fam}.low", doc["low"]),
                read_float(f"{fam}.high", doc["high"]),
            )
        if fam == "sum":
            return SumMap(tuple(map_from_config(t, dim, index) for t in doc["terms"]))
        if fam == "projected":
            level = read_int(f"{fam}.level", doc["level"])
            return ProjectedMap(map_from_config(doc["inner"], dim, index), level)
        if fam == "retracted":
            radius = read_float(f"{fam}.radius", doc["radius"])
            return RetractedMap(map_from_config(doc["inner"], dim, index), radius)
        if fam == "shifted":
            level = read_int(f"{fam}.level", doc["level"])
            eps = read_float(f"{fam}.eps", doc["eps"]) if "eps" in doc else None
            return ShiftedMap(map_from_config(doc["inner"], dim, index), level, eps)
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
        atoms = tuple(self.jump_atoms)
        for i, (w, _) in enumerate(atoms):
            require_float(f"jump atom {i} weight", w, "> 0")
        atoms = tuple((float(w), g) for w, g in atoms)
        object.__setattr__(self, "vol_columns", vols)
        object.__setattr__(self, "jump_atoms", atoms)
        dims = {self.drift.dim} | {v.dim for v in vols} | {g.dim for _, g in atoms}
        if len(dims) != 1:
            raise ShapeError(f"coefficient maps disagree on dim: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.drift.dim

    @property
    def jump_weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.jump_atoms], dtype=np.float64)

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
        for i, entry in enumerate(doc.get("jumps", [])):
            if "weight" not in entry or "kernel" not in entry:
                raise ConfigError("jump entry needs 'weight' and 'kernel'")
            weight = read_float(f"jumps[{i}].weight", entry["weight"])
            atoms.append((weight, map_from_config(entry["kernel"], dim)))
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
        for name in ("points_per_face", "interior_points", "seed"):
            require_int(name, getattr(self, name), 0)
        if not isinstance(self.include_corners, bool):
            got = self.include_corners
            raise DomainError(f"include_corners must be True or False, got {got!r}")


_JUMP_ROWS = 1024  # most rows in one part of the cone sample


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


def _corners(cone: ConeSpec, idx: np.ndarray, rows: range) -> np.ndarray:
    """Rows ``rows`` of the corner list: row 0 is the origin, row ``1 + j``
    is ``signs[l] e_l`` for ``l = idx[j]``."""
    r = np.arange(rows.start, rows.stop)
    out = np.zeros((r.size, cone.dim))
    axes = idx[r[r > 0] - 1]
    out[np.flatnonzero(r > 0), axes] = cone.signs[axes]
    return out


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
            other = idx[idx != k]
            H = np.concatenate([H, _corners(cone, other, range(1 + other.size))])
        if not (cone_contains(cone, H) and np.all(H[:, k] == 0.0)):
            raise SamplerContractError(f"face sampler left the face at k={k}")
        H.flags.writeable = False
        yield int(cone.signs[k]), k, H


def _row_ranges(n: int) -> Iterator[range]:
    """Row ranges cutting ``n`` rows into parts of at most ``_JUMP_ROWS``."""
    return (range(lo, min(lo + _JUMP_ROWS, n)) for lo in range(0, n, _JUMP_ROWS))


def sample_cone_points(cone: ConeSpec, spec: SamplerSpec = SamplerSpec()) -> Iterator[np.ndarray]:
    """Sampled cone points, as read-only ``(m, N)`` parts of at most
    ``_JUMP_ROWS`` rows each.

    Rows come in one order from one seeded stream: the
    ``interior_points`` draws, then ``points_per_face`` draws on every
    face in coordinate order, then (with ``include_corners``) the origin
    and the unit vectors of the constrained coordinates.  The interior
    draws, each face's draws and the corners are cut into parts
    separately, so a part never mixes them; one ``(n, N)`` draw consumes
    the stream as its pieces do, so the concatenated parts are the same
    whatever the part size.

    This is a generator: a part is drawn only when it is asked for, so a
    caller that uses each part before asking for the next holds one part
    at a time.  Each part is checked finite and in the cone as it is
    drawn, and a violation raises ``SamplerContractError`` naming the
    interior draws, the face or the corners.  Use
    ``np.concatenate(list(...))`` to hold the whole sample.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    idx = cone.constrained

    def parts():
        for rows in _row_ranges(spec.interior_points):
            draws = rng.standard_normal((len(rows), cone.dim))
            yield "in the interior draws", _fold_into_cone(cone, draws)
        for k in idx:
            for rows in _row_ranges(spec.points_per_face):
                yield f"at face k={k}", _face_draws(cone, rng, len(rows), int(k))
        if spec.include_corners:
            for rows in _row_ranges(1 + idx.size):
                yield "in the corners", _corners(cone, idx, rows)

    for where, part in parts():
        if not cone_contains(cone, part):
            raise SamplerContractError(f"cone sampler left the cone {where}")
        part.flags.writeable = False
        yield part


# --------------------------------------------------------------------------
# Condition checkers

#: The three conditions, as witnesses and reports name them.
JUMP, DRIFT, VOL = "jump-stays-in-cone", "drift-inward", "vol-parallel"


@dataclass(frozen=True, eq=False)
class Witness:
    """Concrete violation: which condition failed, where, by how much.

    ``point`` is the state, kept as a read-only ``(N,)`` copy: a view
    would keep the whole sample block it came from alive.  ``component``
    is the atom or column index when one is responsible.  Witnesses hold
    arrays, so they compare by identity; compare ``to_dict()`` documents
    instead.
    """

    condition: str
    theta: int
    k: int
    point: np.ndarray
    magnitude: float
    component: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "point", require_array("point", self.point, ("N",)))

    def sort_key(self):
        comp = -1 if self.component is None else self.component
        return (self.condition, self.k, self.theta, comp, -self.magnitude, self.point.tobytes())

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "theta": self.theta,
            "k": self.k,
            "point": [float(x) for x in self.point],
            "magnitude": self.magnitude,
            "component": self.component,
        }


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one or more condition checks: the conditions evaluated
    (``checked``) and the violations found, in canonical sorted order so
    reports are comparable.

    The witnesses are all the evidence, so a condition's flag is derived
    from them: ``None`` when it was not checked, else true exactly when
    no witness names it.  Every witness names a checked condition and
    exceeds the tolerance.
    """

    checked: tuple[str, ...]
    witnesses: tuple[Witness, ...]
    sampled_points: int
    tol: float

    def __post_init__(self):
        object.__setattr__(self, "checked", tuple(self.checked))
        object.__setattr__(
            self, "witnesses", tuple(sorted(self.witnesses, key=Witness.sort_key))
        )
        for w in self.witnesses:
            if w.condition not in self.checked:
                raise SamplerContractError(f"witness for unchecked condition {w.condition}")
            if not w.magnitude > self.tol:
                raise SamplerContractError(
                    f"witness magnitude {w.magnitude} not above tolerance {self.tol}"
                )

    def _held(self, condition: str) -> bool | None:
        """``None`` if ``condition`` was not checked, else whether no witness names it."""
        if condition not in self.checked:
            return None
        return all(w.condition != condition for w in self.witnesses)

    jump_ok = property(lambda self: self._held(JUMP))
    drift_ok = property(lambda self: self._held(DRIFT))
    vol_ok = property(lambda self: self._held(VOL))

    @property
    def satisfied(self) -> bool:
        """True when every evaluated condition held on every sample."""
        return not self.witnesses

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


def _resolve_tol(coeffs: CoefficientSet, cone: ConeSpec, tol: float | None) -> float:
    """The checkers' preamble: raise ``ShapeError`` unless the
    coefficients live on the cone's space, and return ``tol``, by
    default ``default_tol(coeffs)``; a given ``tol`` must be finite and
    > 0 (``DomainError``), as ``checker.tol`` must be in a config."""
    if coeffs.dim != cone.dim:
        raise ShapeError(f"dims disagree: cone {cone.dim}, coefficients {coeffs.dim}")
    if tol is None:
        return default_tol(coeffs)
    require_float("tol", tol, "> 0")
    return tol


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


def _witnesses(condition, excess, tol, points, thetas, ks, component=None) -> list[Witness]:
    """One witness per entry of the ``(rows, faces)`` block ``excess``
    above ``tol``: row ``r`` is the state ``points[r]``, column ``c`` the
    face ``(thetas[c], ks[c])``, and the entry the violation's size."""
    return [
        Witness(condition, int(thetas[c]), int(ks[c]), points[r], float(excess[r, c]), component)
        for r, c in zip(*np.nonzero(excess > tol))
    ]


def _margin_block(coeffs: CoefficientSet, theta: int, k: int, H: np.ndarray) -> np.ndarray:
    """Inward margins ``theta drift(h)_k - sum_i w_i theta gamma_i(h)_k``
    at the pairs ``(theta e_k*, H[i])``, one entry per row of the block
    ``H``; the boundary value ``a`` of such a pair is 0."""
    drift = coeffs.drift.eval_coords(H, [k])[:, 0]
    drift_k = theta * _finite(drift, DRIFT, "drift", k)
    comp_k = np.zeros(H.shape[0])
    for i, (w, g) in enumerate(coeffs.jump_atoms):
        gamma = _finite(g.eval_coords(H, [k])[:, 0], DRIFT, f"jump atom {i}", k)
        comp_k += w * theta * gamma
    return _finite(drift_k - comp_k, DRIFT, "drift minus jump compensator", k)


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
    The condition is pointwise, so each atom is evaluated on each part
    of ``sample_cone_points`` as the part is drawn, and the checker
    holds one part and its temporaries whatever the sample size.  An
    atom value that is not finite raises ``NumericError``, for the
    first such atom in the first part that has one.
    """
    tol = _resolve_tol(coeffs, cone, tol)
    witnesses = []
    sampled = 0
    idx = cone.constrained
    signs = cone.signs[idx]
    for part in sample_cone_points(cone, sampler):
        sampled += part.shape[0]
        for i, (_, g) in enumerate(coeffs.jump_atoms):
            # the atom's values die with the sum; the sign flip to excesses is in place
            excess = (part + _finite(g.eval_array(part), JUMP, f"jump atom {i}"))[:, idx]
            excess *= -signs
            witnesses += _witnesses(JUMP, excess, tol, part, signs, idx, i)
    return ConditionReport((JUMP,), witnesses, sampled, tol)


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
    then ``a = 0``; ``sample_boundary_pairs`` raises
    ``SamplerContractError`` before it yields a block holding any other
    row.  Each map's coordinate ``k`` is evaluated once per face
    block, and the blocks are consumed as the sampler draws them.  A
    drift, atom or margin value that is not finite raises
    ``NumericError``.
    """
    tol = _resolve_tol(coeffs, cone, tol)
    witnesses = []
    sampled = 0
    for theta, k, H in sample_boundary_pairs(cone, sampler):
        sampled += H.shape[0]
        excess = -_margin_block(coeffs, theta, k, H)
        witnesses += _witnesses(DRIFT, excess[:, None], tol, H, [theta], [k])
    return ConditionReport((DRIFT,), witnesses, sampled, tol)


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
    tol = _resolve_tol(coeffs, cone, tol)
    witnesses = []
    sampled = 0
    for theta, k, H in sample_boundary_pairs(cone, sampler):
        sampled += H.shape[0]
        for j, col in enumerate(coeffs.vol_columns):
            vol = col.eval_coords(H, [k])[:, 0]
            excess = np.abs(theta * _finite(vol, VOL, f"volatility column {j}", k))
            witnesses += _witnesses(VOL, excess[:, None], tol, H, [theta], [k], j)
    return ConditionReport((VOL,), witnesses, sampled, tol)


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
    Raises ``ShapeError`` when the coefficients and the cone disagree on
    the dimension.
    """
    tol = _resolve_tol(coeffs, cone, tol)
    checks = (check_jump_condition, check_drift_condition, check_volatility_condition)
    parts = [check(coeffs, cone, sampler, tol) for check in checks]
    return ConditionReport(
        sum((r.checked for r in parts), ()),
        sum((r.witnesses for r in parts), ()),
        sum(r.sampled_points for r in parts),
        tol,
    )
