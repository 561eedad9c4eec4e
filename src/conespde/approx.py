"""Approximation operators used to regularize coefficients.

The paper proves its conditions sufficient by regularizing rough
coefficients step by step, each step keeping the structure that the
invariance conditions care about.  Every step is a map family: a
``CoefficientMap`` whose ``eval_coords`` takes a whole ``(M, N)``
batch of states in one call, row ``i`` bitwise the value at that state
alone.

* ``h -> f(Phi_n h)``, ``h -> P_n f(h)`` and ``h -> f(R_n h)`` are the
  families ``ShiftedMap``, ``ProjectedMap`` and ``RetractedMap`` of
  ``coefficients``.  The dead-zone shift ``Phi_n`` itself is the batch
  function ``space.shift``, built on the scalar soft threshold
  ``space.phi_eps``.
* ``sup_inf_map``: the componentwise sup-inf (Lasry-Lions) envelope of
  a map, differentiable with a gradient Lipschitz constant at most
  ``max(1/lam, 1/mu)``.  One evaluation is one ``sup_inf_convolve``
  whose lanes are every (row, component) pair.
* ``MollifiedMap(inner, bandwidth)``: the average of a map against a
  smooth compactly supported bump of radius ``1/bandwidth``, on tensor
  Gauss-Legendre nodes, 33 per axis of the map's dimension (at most 3).
  ``mollify(f, bandwidth, h)`` evaluates it at one ``(N,)`` state.

Beside the map families: ``inf_convolve``, ``sup_convolve`` and
``sup_inf_convolve`` are the quadratic envelopes of a scalar target,
and ``stratonovich_correction(coeffs, a)`` is the noise-induced drift
``(1/2) sum_j D vol_j(h) vol_j(h)`` by symmetric differencing, at one
state or at every row of a batch.  The quadrature size and the
difference step are module constants, not options.

Envelope values are computed by a coarse grid plus golden-section
refinement, one coordinate at a time; an optimum landing on the search
boundary raises ``SearchRadiusError`` instead of returning a silently
wrong value.

Envelope targets work on batches: a target takes a read-only float64
``(M, N)`` array of states and returns their ``(M,)`` values, row ``i``
equal to that row evaluated alone (the row contract of
``CoefficientMap.eval_coords``).
``inf_convolve``, ``sup_convolve`` and ``sup_inf_convolve`` take a
``(B, N)`` array of points (one point is a 1-row batch).  Each point is
a lane, and all lanes run the same search in lockstep: the grid is one
target call over every lane, and so is each pair of golden-section
steps (a call evaluates a step's new point together with both points
the next step can pick).  Lanes are independent: a point's value is
bitwise the same alone as inside any batch.  A lane that fails keeps
its first error and runs on with the others; the call then raises
the error of the lowest failing lane, which is the error a
point-by-point loop would meet first.  Errors raised by the target
itself propagate at once.

The points are validated once, where they enter.  Each search then
checks once that every lane's window ``[h - R, h + R]`` is finite and
raises ``DomainError`` if not; the rows it hands the target inside
those windows are not re-validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .coefficients import CoefficientMap, CoefficientSet
from .errors import (
    ConfigError,
    DomainError,
    NumericError,
    SearchRadiusError,
    ShapeError,
    UnsupportedDimensionError,
    require_array,
    require_float,
)

__all__ = [
    "SupInfParams",
    "SearchSpec",
    "inf_convolve",
    "sup_convolve",
    "sup_inf_convolve",
    "sup_inf_map",
    "MollifiedMap",
    "bump",
    "mollify",
    "stratonovich_correction",
]


# --------------------------------------------------------------------------
# Quadratic envelopes (inf/sup convolution)


@dataclass(frozen=True)
class SupInfParams:
    """Envelope widths: inf-convolve at ``lam``, then sup-convolve at ``mu``.

    ``mu < lam`` is required; the composition is then differentiable
    with a gradient Lipschitz constant at most ``max(1/lam, 1/mu)``.
    """

    lam: float
    mu: float

    def __post_init__(self):
        require_float("lam", self.lam, "> 0")
        require_float("mu", self.mu, "> 0")
        if not self.mu < self.lam:
            raise DomainError(f"need mu < lam, got mu={self.mu}, lam={self.lam}")


@dataclass(frozen=True)
class SearchSpec:
    """How to solve the inner 1-d searches.

    ``radius`` is the half-width of the search window around the base
    point.  When omitted it is derived as ``width * L + sqrt(2 width
    F)`` from ``lipschitz`` (L) and ``sup_bound`` (F), the caller's
    bounds on the target function; omitting those too is an error.
    ``GRID_POINTS`` samples locate the global basin, ``REFINE_ITERS``
    golden-section steps refine inside it, and ``SWEEPS`` rounds of
    coordinate descent handle dimensions above one.

    Every lane of a batch runs the same stages in lockstep: the grid of
    all lanes is one target call, and so is each pair of golden-section
    steps.

    ``radius`` must be finite and > 0, ``lipschitz`` and ``sup_bound``
    finite and >= 0.  The window around each base point must be finite
    too: a search with an overflowing window raises ``DomainError``
    before the target is called, since the rows inside it are not
    re-validated.
    """

    radius: float | None = None
    lipschitz: float | None = None
    sup_bound: float | None = None

    def __post_init__(self):
        for name, bound in (("radius", "> 0"), ("lipschitz", ">= 0"), ("sup_bound", ">= 0")):
            if getattr(self, name) is not None:
                require_float(name, getattr(self, name), bound)

    def resolve_radius(self, width: float) -> float:
        if self.radius is not None:
            return self.radius
        if self.lipschitz is None or self.sup_bound is None:
            raise ConfigError(
                "search radius not given and no (lipschitz, sup_bound) to derive it from"
            )
        return width * self.lipschitz + math.sqrt(2.0 * width * self.sup_bound)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GRID_POINTS = 65
REFINE_ITERS = 60
SWEEPS = 4

# A target as the search engine calls it: rows in, ``(values, errors)``
# out, where ``errors`` maps a row index to the exception that row's
# evaluation ran into (empty for user targets, which raise instead).
_Rows = Callable[[np.ndarray], tuple[np.ndarray, dict[int, Exception]]]


def _rows(f: Callable[[np.ndarray], np.ndarray], negate: bool = False) -> _Rows:
    """Wrap a user target, checking that it returns one value per row."""

    def call(rows: np.ndarray):
        out = np.asarray(f(rows), dtype=np.float64)
        if out.shape != (rows.shape[0],):
            raise ShapeError(f"target returned shape {out.shape}, expected ({rows.shape[0]},)")
        return (-out if negate else out), {}

    return call


def _result(values: np.ndarray, errors: dict[int, Exception]) -> np.ndarray:
    """Raise the lowest failing lane's error, else return the values."""
    if errors:
        raise errors[min(errors)]
    return values


def _line_search(evaluate, lo: np.ndarray, hi: np.ndarray, errors: dict[int, Exception]):
    """Minimize every lane's function on its own ``[lo, hi]``; grid, then
    golden section, all lanes in lockstep.

    ``evaluate(xs)`` takes candidates of shape ``(B, K)`` and returns
    their values and the errors of the rows whose evaluation failed,
    keyed by row ``lane * K + j``.  A lane whose best grid point sits
    on its window edge records ``SearchRadiusError`` in ``errors``,
    since its true optimum may lie outside; one with a non-finite grid
    value records ``NumericError``.  Failed lanes run on with the
    others, and a lane keeps its first error.  Returns each lane's best
    point and value.
    """

    def record(row_errors, K, take=None):
        # with ``take``, only the errors of the candidate each lane took
        for r in sorted(row_errors):
            lane, j = divmod(r, K)
            if take is None or j == take[lane]:
                errors.setdefault(lane, row_errors[r])

    xs = np.linspace(lo, hi, GRID_POINTS, axis=-1)
    vals, row_errors = evaluate(xs)
    if row_errors:
        record(row_errors, GRID_POINTS)
    i = vals.argmin(axis=1)
    finite = np.isfinite(vals).all(axis=1)
    for lane in np.flatnonzero(~finite | (i == 0) | (i == GRID_POINTS - 1)):
        if not finite[lane]:
            err = NumericError("non-finite value during line search")
        else:
            err = SearchRadiusError(
                f"optimum at search boundary (x={xs[lane, i[lane]]:.6g}); widen the radius",
                suggested_radius=2.0 * (hi[lane] - lo[lane]) / 2.0,
            )
        errors.setdefault(int(lane), err)
    B = xs.shape[0]
    lanes = np.arange(B)
    # every (point, value) pair that can become the best, in the order
    # the one-point search compared them with it
    seen = np.empty((REFINE_ITERS + 2, 2, B))
    seen[0, 0], seen[0, 1] = xs[lanes, i], vals[lanes, i]
    inner = np.minimum(np.maximum(i, 1), GRID_POINTS - 2)  # a failed lane still needs a bracket
    a, b = xs[lanes, inner - 1], xs[lanes, inner + 1]
    # C and D are the (point, value) pairs of the two inner points, so
    # one np.where moves a point together with its value
    pairs = np.empty((2, B, 2))
    pairs[0, :, 0] = b - _GOLDEN * (b - a)
    pairs[0, :, 1] = a + _GOLDEN * (b - a)
    pairs[1], row_errors = evaluate(pairs[0])
    if row_errors:
        record(row_errors, 2)
    C, D = pairs[..., 0], pairs[..., 1]
    ahead = None  # the next step's two possible (point, value) pairs
    for step in range(REFINE_ITERS):
        # where fc < fd the bracket becomes [a, d] and the new point is
        # b - G (b - a), elsewhere [c, b] and a + G (b - a); in place,
        # which is cheaper than np.where on these small arrays
        left = np.less(C[1], D[1])
        right = ~left
        np.copyto(a, C[0], where=right)
        np.copyto(b, D[0], where=left)
        X = seen[step + 2]
        if ahead is None:
            gs = _GOLDEN * (b - a)
            x = np.add(a, gs, out=X[0])
            np.copyto(x, b - gs, where=left)
            # whatever f(x) is, the next step's point is d - G (d - a)
            # or c + G (b - c) for this step's new c and d; one call
            # evaluates x and both, so it serves two steps
            cx, dx = np.where(left, x, D[0]), np.where(left, C[0], x)
            points = np.stack([x, dx - _GOLDEN * (dx - a), cx + _GOLDEN * (b - cx)], axis=1)
            values, row_errors = evaluate(points)
            if row_errors:
                record(row_errors, 3, np.zeros(B, dtype=int))
            X[1] = values[:, 0]
            ahead = np.stack([points[:, 1:], values[:, 1:]])
        else:
            X[:] = np.where(left, ahead[..., 0], ahead[..., 1])
            if row_errors:
                record(row_errors, 3, np.where(left, 1, 2))
            ahead = None
        C, D = np.where(left, X, D), np.where(left, C, X)
        if step == 0:
            # the first step compares C, then D; later steps compare the
            # older of the two again, which cannot win, so only X counts
            seen[1], seen[2] = C, D
    # the best is replaced only by a strictly smaller value, so it ends
    # at the first minimum in that order; a NaN never becomes best
    values = seen[:, 1]
    k = np.argmin(np.where(np.isnan(values), np.inf, values), axis=0)
    return seen[k, :, lanes].T


def _minimize(target: _Rows, base: np.ndarray, width: float, radius: float):
    """Minimize ``f(g) + ||base_b - g||^2 / (2 width)`` over g for every
    lane ``b`` (row of ``base``) at once.

    Coordinate descent over the cube of half-width ``radius`` around
    each lane; the sup-convolution minimizes the negated function.
    ``base`` is finite, and the windows are checked once here, so every
    row handed to ``target`` is finite.  Returns the values and the
    errors of the failed lanes, keyed by lane.
    """
    with np.errstate(over="ignore"):
        lo, hi = base - radius, base + radius
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise DomainError(f"search window must be finite, got radius {radius} around the state")
    B, dim = base.shape
    g = base.copy()
    base3 = base[:, None, :]
    errors: dict[int, Exception] = {}
    scale = 2.0 * width

    def evaluate(axis: int, xs: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
        # each lane's current point with coordinate ``axis`` set to each
        # of its K candidates: a fresh read-only (B * K, dim) batch
        K = xs.shape[1]
        rows = g[:, None, :].repeat(K, axis=1)
        rows[:, :, axis] = xs
        rows.flags.writeable = False
        values, row_errors = target(rows.reshape(B * K, dim))
        diff = base3 - rows
        return values.reshape(B, K) + np.vecdot(diff, diff) / scale, row_errors

    for _ in range(1 if dim == 1 else SWEEPS):
        for axis in range(dim):
            along = partial(evaluate, axis)
            g[:, axis], value = _line_search(along, lo[:, axis], hi[:, axis], errors)
    # the last line search evaluated its best point at the final g
    return value, errors


def inf_convolve(f: Callable[[np.ndarray], np.ndarray], lam: float, h, search: SearchSpec):
    """Quadratic inf-convolution ``inf_g f(g) + ||h - g||^2 / (2 lam)``.

    Always at most ``f(h)``.  For Lipschitz bounded ``f`` the infimum is
    attained within the effective radius, which the search window must
    cover (see ``SearchSpec``).

    ``f`` is a batch target: it takes a read-only float64 ``(M, N)``
    array of states and returns their ``(M,)`` values, row ``i`` equal
    to that row evaluated alone.  ``h`` is a finite ``(B, N)`` array of
    points, and the result their ``(B,)`` values; each point is an
    independent lane of one lockstep search, and its value is the same
    alone as in any batch.  A failure raises the error of the lowest
    failing lane.
    """
    require_float("lam", lam, "> 0")
    base = require_array("points", h, ("B", "N"))
    values, errors = _minimize(_rows(f), base, lam, search.resolve_radius(lam))
    return _result(values, errors)


def sup_convolve(f: Callable[[np.ndarray], np.ndarray], mu: float, h, search: SearchSpec):
    """Quadratic sup-convolution ``sup_g f(g) - ||h - g||^2 / (2 mu)``;
    always at least ``f(h)``.  Targets, points and errors as in
    ``inf_convolve``."""
    require_float("mu", mu, "> 0")
    base = require_array("points", h, ("B", "N"))
    values, errors = _minimize(_rows(f, negate=True), base, mu, search.resolve_radius(mu))
    return _result(-values, errors)


def sup_inf_convolve(
    f: Callable[[np.ndarray], np.ndarray], p: SupInfParams, h, search: SearchSpec
):
    """Composition ``(f_lam)^mu (h)``: smooth from both sides.

    The result is within ``lam L^2 / 2 + mu L^2 / 2`` of ``f`` for
    ``L``-Lipschitz ``f`` and its gradient is Lipschitz with constant at
    most ``max(1/lam, 1/mu)``.  Targets, points and errors as in
    ``inf_convolve``; the outer search's target is the inner search
    over all its rows at once, and an inner lane's error fails the
    outer lane it belongs to.  Vector maps are treated componentwise by
    ``sup_inf_map``.
    """
    base = require_array("points", h, ("B", "N"))
    inner, inner_radius = _rows(f), search.resolve_radius(p.lam)

    def envelope(rows: np.ndarray):
        values, errors = _minimize(inner, rows, p.lam, inner_radius)
        return -values, errors

    values, errors = _minimize(envelope, base, p.mu, search.resolve_radius(p.mu))
    return _result(-values, errors)


def sup_inf_map(f: CoefficientMap, p: SupInfParams, search: SearchSpec) -> CoefficientMap:
    """Componentwise sup-inf regularization of a vector map.

    Component ``k`` of the result at ``h`` is ``sup_inf_convolve`` of
    coordinate ``k`` of ``f`` at ``h``.  The result is a map family:
    ``eval_coords(a, idx)`` runs one lockstep search with a lane per
    (row of ``a``, component in ``idx``), so a lane's value is bitwise
    the single-row, single-component search.  Its target reads the
    components through ``f.eval_coords(rows, idx)``, never the whole
    map.
    """
    return _SupInfMap(f, p, search)


@dataclass(frozen=True)
class _SupInfMap(CoefficientMap):
    inner: CoefficientMap
    params: SupInfParams
    search: SearchSpec
    dim: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", self.inner.dim)

    def eval_coords(self, a: np.ndarray, idx) -> np.ndarray:
        shape = a[..., idx].shape
        rows = np.atleast_2d(a)
        comps = shape[-1]
        if rows.shape[0] * comps == 0:
            return np.empty(shape)
        # lane ``m * comps + c`` is component ``c`` at row ``m``
        lanes = rows.repeat(comps, axis=0)
        column = np.arange(lanes.shape[0]) % comps

        def target(pts: np.ndarray) -> np.ndarray:
            # every search hands over its rows lane by lane, in equal
            # blocks, so row ``r`` belongs to lane ``r // block``
            block = pts.shape[0] // lanes.shape[0]
            vals = self.inner.eval_coords(pts, idx)
            return vals[np.arange(pts.shape[0]), column.repeat(block)]

        return sup_inf_convolve(target, self.params, lanes, self.search).reshape(shape)


# --------------------------------------------------------------------------
# Mollification


_BUMP_P = 0.1  # edge flatness of the transition; keeps the slope within [-3, 0]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)


def _bump_weight(t: np.ndarray) -> np.ndarray:
    # t must lie strictly inside (0, 1); the negative exponent underflows
    # harmlessly to 0 at the edges.
    return np.exp(-_BUMP_P / (t * (1.0 - t)))


def _weight_integral(s: np.ndarray) -> np.ndarray:
    """Integral of the transition weight from 0 to each s in (0, 1)."""
    half = 0.5 * s
    nodes = half[:, None] * (_GL_X[None, :] + 1.0)
    return half * (_bump_weight(nodes) @ _GL_W)


def _transition(s):
    """Smooth step: 0 for s <= 0, 1 for s >= 1, C-infinity throughout.

    Realized as the normalized integral of a symmetric weight that is
    flat at both endpoints; the plateau-like derivative is what keeps
    the composed bump slope small.  The pointwise normalization
    ``I(s) / (I(s) + I(1 - s))`` pins the range to [0, 1] exactly.
    """
    s = np.asarray(s, dtype=np.float64)
    out = np.empty_like(s)
    lo = s <= 0.0
    hi = s >= 1.0
    mid = ~(lo | hi)
    out[lo] = 0.0
    out[hi] = 1.0
    sm = s[mid]
    a = _weight_integral(sm)
    b = _weight_integral(1.0 - sm)
    out[mid] = a / (a + b)
    return out


def bump(t):
    """Even bump: 1 on (-1/2, 1/2), 0 outside (-1, 1), smooth between.

    The transition profile is chosen so the derivative stays in
    [-3, 0] on the positive axis.
    """
    t = np.asarray(t, dtype=np.float64)
    u = np.abs(t)
    out = _transition(2.0 * (1.0 - u))
    if out.ndim == 0:
        return float(out)
    return out


# tensor Gauss-Legendre nodes per axis of the mollifier's quadrature
_NODES_PER_AXIS = 33


def _tensor_nodes(n: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    if n > 3:
        raise UnsupportedDimensionError(f"tensor quadrature capped at dimension 3, got {n}")
    x, w = np.polynomial.legendre.leggauss(_NODES_PER_AXIS)
    x = x * radius
    w = w * radius
    grids = np.meshgrid(*([x] * n), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([w] * n), indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    return nodes, weights


# node rows per call of the inner map: a batch is mollified in row
# blocks of at most this many nodes, which bounds the temporaries
_NODE_ROWS = 1 << 16


@dataclass(frozen=True)
class MollifiedMap(CoefficientMap):
    """``h -> sum_j c_j f(h - x_j) / sum_j c_j``: ``inner`` averaged
    against the bump scaled to radius ``1 / bandwidth``, on the tensor
    Gauss-Legendre nodes ``x_j`` of that radius, ``_NODES_PER_AXIS`` per
    axis of ``inner.dim`` (at most 3); the weights ``c_j`` are
    quadrature weight times bump.

    The bump weights are divided by their own sum over the quadrature
    nodes, so constants are reproduced exactly and, by node symmetry,
    so are affine maps.  Values only depend on ``inner`` within
    ``1 / bandwidth`` of the state, which is what preserves local
    boundary-parallelism: if ``inner`` is parallel on an ``eps`` ball
    and ``bandwidth >= 2 / eps``, this map is parallel on the
    ``eps / 2`` ball.

    ``eval_coords`` evaluates the nodes of every row of a batch in one
    ``inner.eval_array`` call (in row blocks of at most ``_NODE_ROWS``
    nodes), then sums each row over its nodes.  The sum runs over every
    coordinate and ``idx`` is selected after it: NumPy sums a lone
    column in another order than a column beside others.  So row ``i``
    equals the value at ``a[i]`` bit for bit.
    """

    inner: CoefficientMap
    bandwidth: float
    dim: int = field(init=False)

    def __post_init__(self):
        require_float("bandwidth", self.bandwidth, "> 0")
        object.__setattr__(self, "dim", self.inner.dim)

    @cached_property
    def _rule(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Nodes ``(K, N)``, weights ``(K, 1)`` and their sum."""
        nodes, weights = _tensor_nodes(self.dim, 1.0 / self.bandwidth)
        wphi = weights * bump(self.bandwidth * np.linalg.norm(nodes, axis=1))
        return nodes, wphi[:, None], float(np.sum(wphi))

    @cached_property
    def support(self) -> np.ndarray:
        return self.inner.support

    def eval_coords(self, a: np.ndarray, idx) -> np.ndarray:
        nodes, wphi, z = self._rule
        K, N = nodes.shape
        rows = np.atleast_2d(a)
        out = np.empty(rows.shape)
        step = max(1, _NODE_ROWS // K)
        for lo in range(0, rows.shape[0], step):
            block = rows[lo : lo + step]
            vals = self.inner.eval_array((block[:, None, :] - nodes).reshape(-1, N))
            out[lo : lo + step] = (wphi * vals.reshape(-1, K, N)).sum(axis=1) / z
        return out.reshape(a.shape)[..., idx]


def mollify(f: CoefficientMap, bandwidth: float, h) -> np.ndarray:
    """``MollifiedMap(f, bandwidth)`` at ``h``, a finite ``(N,)`` state
    of ``f``'s dimension; the result has ``h``'s shape."""
    return MollifiedMap(f, bandwidth).eval_array(require_array("h", h, (f.dim,)))


# --------------------------------------------------------------------------
# Noise-induced drift


# the finite-difference step before scaling by a column's norm
_FD_STEP = 1e-5


def _column_derivative(col: CoefficientMap, rows: np.ndarray, delta: np.ndarray,
                       v: np.ndarray) -> np.ndarray:
    hi = col.eval_array(rows + delta * v)
    lo = col.eval_array(rows - delta * v)
    return (hi - lo) / (2.0 * delta)


@np.errstate(over="ignore", invalid="ignore")
def stratonovich_correction(coeffs: CoefficientSet, a: np.ndarray) -> np.ndarray:
    """Noise-induced drift ``(1/2) sum_j D vol_j(h) vol_j(h)`` at one
    state ``(N,)`` or at each row of a batch ``(M, N)``; the result has
    the shape of ``a``.

    The columns are taken as already scaled by their noise eigenvalues.
    Each directional derivative is a symmetric difference at step
    ``1e-5 / max(1, ||vol_j(h)||)`` combined with the half-step value
    by Richardson extrapolation.  A row's step comes from
    ``np.linalg.norm`` of that row alone, so row ``i`` is bitwise the
    value at ``a[i]`` by itself.  A column value or derivative past the
    float range raises ``NumericError``.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim not in (1, 2) or a.shape[-1] != coeffs.dim:
        raise ShapeError(f"states must be (N,) or (M, N) with N = {coeffs.dim}, got {a.shape}")
    rows = np.atleast_2d(a)
    total = np.zeros(rows.shape)
    for col in coeffs.vol_columns:
        v = col.eval_array(rows)
        steps = [_FD_STEP / max(1.0, float(np.linalg.norm(row))) for row in v]
        delta = np.array(steps).reshape(-1, 1)
        d1 = _column_derivative(col, rows, delta, v)
        d2 = _column_derivative(col, rows, 0.5 * delta, v)
        if not (np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))):
            raise NumericError("non-finite finite-difference derivative")
        total += (4.0 * d2 - d1) / 3.0
    return (0.5 * total).reshape(a.shape)
