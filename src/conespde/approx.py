"""Approximation operators used to regularize coefficients.

These are the building blocks that turn rough cone-compatible
coefficients into smooth ones while preserving the structural
properties the invariance conditions care about:

* ``phi_eps``: scalar dead-zone shift (soft threshold), 1-Lipschitz,
  within ``eps`` of the identity, and sign-compatible;
* ``boundary_shift``: the coordinatewise dead-zone map ``Phi_n`` that
  pushes states off the boundary faces without leaving the cone;
* ``h -> P_n f(h)`` and ``h -> f(R_n h)`` are the map families
  ``ProjectedMap`` and ``RetractedMap`` of ``coefficients``;
* ``truncate_noise``: keep the leading volatility columns;
* ``inf_convolve`` / ``sup_convolve`` / ``sup_inf_convolve``: the
  quadratic envelope pair whose composition is gradient-Lipschitz with
  constant at most ``max(1/lam, 1/mu)``;
* ``mollify`` / ``mollify_with_error``: convolution with a smooth
  compactly supported bump, shrinking support radius ``1/bandwidth``;
* ``stratonovich_correction``: the noise-induced drift
  ``(1/2) sum_j D vol_j(h) vol_j(h)`` by symmetric differencing;
* ``lipschitz_probe``: sampled lower bound on a Lipschitz constant.

Envelope values are computed by a coarse grid plus golden-section
refinement, one coordinate at a time; an optimum landing on the search
boundary raises ``SearchRadiusError`` instead of returning a silently
wrong value.

Envelope targets work on batches: a target takes a read-only float64
``(M, N)`` array of states and returns their ``(M,)`` values, row ``i``
equal to that row evaluated alone (the row contract of
``CoefficientMap.eval_coords``).
``inf_convolve``, ``sup_convolve`` and ``sup_inf_convolve`` take one
``StateVec`` or a ``(B, N)`` array of points.  Each point is a lane,
and all lanes run the same search in lockstep: the grid is one target
call over every lane, and so is each pair of golden-section steps (a
call evaluates a step's new point together with both points the next
step can pick).  Lanes are independent: a point's value is bitwise the
same alone as inside any batch.  A lane that fails keeps its first error and runs on with the
others; the call then raises the error of the lowest failing lane,
which is the error a point-by-point loop would meet first.  Errors
raised by the target itself propagate at once.

The points are validated once, where they enter.  Each search then
checks once that every lane's window ``[h - R, h + R]`` is finite and
raises ``DomainError`` if not; the rows it hands the target inside
those windows are not re-validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .coefficients import CallableMap, CoefficientMap, CoefficientSet, ZeroMap
from .errors import (
    ConfigError,
    DomainError,
    NumericError,
    SearchRadiusError,
    ShapeError,
    UnsupportedDimensionError,
)
from .space import StateVec

__all__ = [
    "phi_eps",
    "boundary_shift",
    "boundary_shift_radius",
    "truncate_noise",
    "SupInfParams",
    "SearchSpec",
    "inf_convolve",
    "sup_convolve",
    "sup_inf_convolve",
    "sup_inf_map",
    "GridQuadrature",
    "MonteCarloQuadrature",
    "MollifierParams",
    "bump",
    "mollify",
    "mollify_with_error",
    "stratonovich_correction",
    "BallSpec",
    "lipschitz_probe",
]


def phi_eps(x, eps: float):
    """Dead-zone shift: move ``x`` toward zero by ``eps``, clamping at zero.

    ``phi_eps(x) = x - eps`` for ``x >= eps``, ``x + eps`` for
    ``x <= -eps``, and 0 on the dead zone ``[-eps, eps]``.  Equivalent
    closed form: ``sign(x) * max(|x| - eps, 0)``.  It is 1-Lipschitz,
    satisfies ``|phi_eps(x) - x| <= eps``, and never changes sign.

    Accepts scalars or arrays; returns the matching kind.
    """
    if not (math.isfinite(eps) and eps >= 0):
        raise DomainError(f"eps must be finite and >= 0, got {eps}")
    arr = np.asarray(x, dtype=np.float64)
    out = np.sign(arr) * np.maximum(np.abs(arr) - eps, 0.0)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def boundary_shift(h: StateVec, n: int, eps: float | None = None) -> StateVec:
    """Coordinatewise dead-zone map on the leading ``n`` coordinates.

    Applies ``phi_eps`` to coordinates ``k < n`` and zeroes the rest;
    the default dead zone is ``eps = 2^-n``.  States within ``eps`` of a
    face are pushed onto it, so small perturbations of a face point
    cannot cross the boundary: the composition ``f(boundary_shift(.))``
    of a boundary-parallel ``f`` is parallel on a whole ball around each
    face point (radius ``boundary_shift_radius(n)``).
    """
    if n < 0:
        raise DomainError(f"level must be >= 0, got {n}")
    if eps is None:
        eps = 2.0 ** (-n)
    out = np.zeros(h.dim)
    m = min(n, h.dim)
    out[:m] = phi_eps(h.coords[:m], eps)
    return StateVec(out)


def boundary_shift_radius(n: int) -> float:
    """Localization radius ``2^-n / L`` of the level-``n`` shift, ``L = 2``.

    The coordinate basis is orthonormal, so the coordinatewise Lipschitz
    bound is 1; the factor ``L = 2`` also covers the norms of the
    boundary functionals.
    """
    return 2.0 ** (-n) / 2.0


def truncate_noise(coeffs: CoefficientSet, n: int) -> CoefficientSet:
    """Keep the first ``n`` volatility columns, zero the rest.

    The truncation never increases the Hilbert-Schmidt norm at any
    point.  Drift and jumps pass through unchanged.
    """
    J = len(coeffs.vol_columns)
    if not 0 <= n <= J:
        raise DomainError(f"column count must be in 0..{J}, got {n}")
    cols = tuple(
        col if j < n else ZeroMap(coeffs.dim) for j, col in enumerate(coeffs.vol_columns)
    )
    return CoefficientSet(coeffs.drift, cols, coeffs.jump_atoms)


# --------------------------------------------------------------------------
# Quadratic envelopes (inf/sup convolution)


def _check_width(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class SupInfParams:
    """Envelope widths: inf-convolve at ``lam``, then sup-convolve at ``mu``.

    ``mu < lam`` is required; the composition is then differentiable
    with a gradient Lipschitz constant at most ``max(1/lam, 1/mu)``.
    """

    lam: float
    mu: float

    def __post_init__(self):
        _check_width("lam", self.lam)
        _check_width("mu", self.mu)
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
        if self.radius is not None and not (math.isfinite(self.radius) and self.radius > 0):
            raise DomainError(f"radius must be finite and > 0 when given, got {self.radius}")
        for name in ("lipschitz", "sup_bound"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise DomainError(f"{name} must be finite and >= 0 when given, got {value}")

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


def _lanes(h) -> tuple[np.ndarray, bool]:
    """The search lanes of ``h`` as a fresh ``(B, N)`` array, and whether
    ``h`` was a single ``StateVec``."""
    if isinstance(h, StateVec):
        return h.coords[None, :].copy(), True
    arr = np.array(h, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ShapeError(
            f"points must be a StateVec or a non-empty (B, N) array, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise DomainError("point coordinates must be finite")
    return arr, False


def _rows(f: Callable[[np.ndarray], np.ndarray], negate: bool = False) -> _Rows:
    """Wrap a user target, checking that it returns one value per row."""

    def call(rows: np.ndarray):
        out = np.asarray(f(rows), dtype=np.float64)
        if out.shape != (rows.shape[0],):
            raise ShapeError(f"target returned shape {out.shape}, expected ({rows.shape[0]},)")
        return (-out if negate else out), {}

    return call


def _result(values: np.ndarray, errors: dict[int, Exception], single: bool):
    """Raise the lowest failing lane's error, else return the values."""
    if errors:
        raise errors[min(errors)]
    return float(values[0]) if single else values


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
    to that row evaluated alone.  ``h`` is a ``StateVec`` (the result
    is a ``float``) or a finite ``(B, N)`` array of points (the result
    is ``(B,)``); each point is an independent lane of one lockstep
    search, and its value is the same alone as in any batch.  A failure
    raises the error of the lowest failing lane.
    """
    _check_width("lam", lam)
    base, single = _lanes(h)
    values, errors = _minimize(_rows(f), base, lam, search.resolve_radius(lam))
    return _result(values, errors, single)


def sup_convolve(f: Callable[[np.ndarray], np.ndarray], mu: float, h, search: SearchSpec):
    """Quadratic sup-convolution ``sup_g f(g) - ||h - g||^2 / (2 mu)``;
    always at least ``f(h)``.  Targets, points and errors as in
    ``inf_convolve``."""
    _check_width("mu", mu)
    base, single = _lanes(h)
    values, errors = _minimize(_rows(f, negate=True), base, mu, search.resolve_radius(mu))
    return _result(-values, errors, single)


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
    base, single = _lanes(h)
    inner, inner_radius = _rows(f), search.resolve_radius(p.lam)

    def envelope(rows: np.ndarray):
        values, errors = _minimize(inner, rows, p.lam, inner_radius)
        return -values, errors

    values, errors = _minimize(envelope, base, p.mu, search.resolve_radius(p.mu))
    return _result(-values, errors, single)


def sup_inf_map(f: CoefficientMap, p: SupInfParams, search: SearchSpec) -> CoefficientMap:
    """Componentwise sup-inf regularization of a vector map.

    Component ``k`` searches over coordinate ``k`` of ``f.eval_coords``,
    so a map family computes only the entry it needs.
    """

    def component(k: int) -> Callable[[np.ndarray], np.ndarray]:
        only = slice(k, k + 1)  # a slice selects without the copy of an index list
        return lambda rows: f.eval_coords(rows, only)[:, 0]

    comps = [component(k) for k in range(f.dim)]

    def smooth(h: StateVec) -> np.ndarray:
        return np.array([sup_inf_convolve(c, p, h, search) for c in comps])

    return CallableMap(smooth, f.dim)


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


@dataclass(frozen=True)
class GridQuadrature:
    """Tensor Gauss-Legendre quadrature; dimension capped at 3."""

    points_per_axis: int = 33

    def __post_init__(self):
        if self.points_per_axis < 2:
            raise DomainError("points_per_axis must be >= 2")


@dataclass(frozen=True)
class MonteCarloQuadrature:
    """Uniform Monte Carlo over the support cube, any dimension.

    The estimate is the bump-weighted ratio mean; its standard error is
    reported from ``batches`` batch means.
    """

    samples: int = 20000
    seed: int = 0
    batches: int = 20

    def __post_init__(self):
        if self.samples < self.batches or self.batches < 2:
            raise DomainError("need samples >= batches >= 2")


@dataclass(frozen=True)
class MollifierParams:
    """Smoothing level for ``mollify``.

    ``n`` is the space dimension being integrated over and ``bandwidth``
    the inverse support radius: the mollified map at ``h`` only sees
    values of ``f`` within ``1 / bandwidth`` of ``h``.
    """

    n: int
    bandwidth: float
    quadrature: GridQuadrature | MonteCarloQuadrature = GridQuadrature()

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be >= 1")
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise DomainError(f"bandwidth must be finite and > 0, got {self.bandwidth}")

    @property
    def support_radius(self) -> float:
        return 1.0 / self.bandwidth


def _tensor_nodes(n: int, radius: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    if n > 3:
        raise UnsupportedDimensionError(
            f"tensor quadrature capped at dimension 3, got {n}; use MonteCarloQuadrature"
        )
    x, w = np.polynomial.legendre.leggauss(points)
    x = x * radius
    w = w * radius
    grids = np.meshgrid(*([x] * n), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([w] * n), indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    return nodes, weights


def mollify_with_error(f: CoefficientMap, p: MollifierParams, h: StateVec):
    """``mollify`` together with the Monte Carlo standard error per
    coordinate (``None`` for grid quadrature)."""
    if f.dim != p.n:
        raise ShapeError(f"map dim {f.dim} must equal mollifier dimension {p.n}")
    r = p.support_radius
    if isinstance(p.quadrature, GridQuadrature):
        nodes, weights = _tensor_nodes(p.n, r, p.quadrature.points_per_axis)
        phi = bump(p.bandwidth * np.linalg.norm(nodes, axis=1))
        wphi = weights * phi
        z = float(np.sum(wphi))
        vals = f.eval_array(h.coords - nodes)
        value = (wphi[:, None] * vals).sum(axis=0) / z
        return StateVec(value), None
    q = p.quadrature
    rng = np.random.default_rng(np.random.SeedSequence(q.seed))
    pts = rng.uniform(-r, r, size=(q.samples, p.n))
    phi = bump(p.bandwidth * np.linalg.norm(pts, axis=1))
    vals = f.eval_array(h.coords - pts)
    per_batch = q.samples // q.batches
    batch_est = []
    for bi in range(q.batches):
        sl = slice(bi * per_batch, (bi + 1) * per_batch)
        z = np.sum(phi[sl])
        if z <= 0:
            raise NumericError("bump weights vanished in a Monte Carlo batch")
        batch_est.append((phi[sl, None] * vals[sl]).sum(axis=0) / z)
    batch_est = np.stack(batch_est)
    value = batch_est.mean(axis=0)
    se = batch_est.std(axis=0, ddof=1) / math.sqrt(q.batches)
    return StateVec(value), se


def mollify(f: CoefficientMap, p: MollifierParams, h: StateVec) -> StateVec:
    """Average ``f`` against the scaled bump around ``h``.

    The bump weights are divided by their own sum over the quadrature
    nodes (per batch for Monte Carlo), so constants are reproduced
    exactly and, by node symmetry, so are affine maps.  Values only
    depend on ``f`` within ``p.support_radius`` of ``h``, which is what
    preserves local boundary-parallelism: if ``f`` is parallel on an
    ``eps`` ball and ``bandwidth >= 2 / eps``, the mollified map is
    parallel on the ``eps / 2`` ball.
    """
    value, _ = mollify_with_error(f, p, h)
    return value


# --------------------------------------------------------------------------
# Noise-induced drift and probes


def _column_derivative(col: CoefficientMap, h: np.ndarray, delta: float, v: np.ndarray) -> np.ndarray:
    hi = col.eval_array(h + delta * v)
    lo = col.eval_array(h - delta * v)
    return (hi - lo) / (2.0 * delta)


def stratonovich_correction(
    coeffs: CoefficientSet,
    h: StateVec,
    fd_step: float = 1e-5,
    weights=None,
) -> StateVec:
    """Noise-induced drift ``(1/2) sum_j w_j D vol_j(h) vol_j(h)``.

    ``weights`` are the noise eigenvalues per column (all 1 when
    omitted, for columns already scaled).  Each directional derivative
    is a symmetric difference at step ``fd_step / max(1, ||vol_j(h)||)``
    combined with the half-step value by Richardson extrapolation.
    """
    if not (math.isfinite(fd_step) and fd_step > 0):
        raise DomainError(f"fd_step must be finite and > 0, got {fd_step}")
    if weights is None:
        w_arr = np.ones(len(coeffs.vol_columns))
    else:
        w_arr = np.asarray(weights, dtype=np.float64)
        if w_arr.shape != (len(coeffs.vol_columns),):
            raise ShapeError("one weight per volatility column required")
    a = h.coords
    total = np.zeros(coeffs.dim)
    for wj, col in zip(w_arr, coeffs.vol_columns):
        v = col.eval_array(a)
        delta = fd_step / max(1.0, float(np.linalg.norm(v)))
        d1 = _column_derivative(col, a, delta, v)
        d2 = _column_derivative(col, a, 0.5 * delta, v)
        if not (np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))):
            raise NumericError("non-finite finite-difference derivative")
        extrap = (4.0 * d2 - d1) / 3.0
        total += wj * extrap
    return StateVec(0.5 * total)


@dataclass(frozen=True)
class BallSpec:
    """Sampling ball for probes: ``radius`` around ``center`` (origin
    when omitted) in dimension ``dim``."""

    dim: int
    radius: float
    center: StateVec | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError(f"dim must be >= 1, got {self.dim}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise DomainError(f"radius must be finite and > 0, got {self.radius}")
        if self.center is not None and self.center.dim != self.dim:
            raise ShapeError("center dimension mismatch")


def lipschitz_probe(
    f, pairs: int, domain: BallSpec, seed: int = 0
) -> float:
    """Largest sampled difference quotient of ``f`` over random pairs.

    A lower bound on the true Lipschitz constant, reported as such.
    ``f`` may return vectors (norm quotient) or scalars (absolute
    quotient).  Deterministic for a fixed seed; near-coincident pairs
    are skipped.
    """
    if pairs < 1:
        raise DomainError("pairs must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    center = np.zeros(domain.dim) if domain.center is None else domain.center.coords

    def draw() -> np.ndarray:
        z = rng.standard_normal(domain.dim)
        z /= max(float(np.linalg.norm(z)), 1e-300)
        u = rng.uniform() ** (1.0 / domain.dim)
        return center + domain.radius * u * z

    def value(x: np.ndarray):
        out = f(StateVec(x))
        if isinstance(out, StateVec):
            return out.coords
        return out

    best = 0.0
    for _ in range(pairs):
        x, y = draw(), draw()
        gap = float(np.linalg.norm(x - y))
        if gap < 1e-12 * domain.radius:
            continue
        fx, fy = value(x), value(y)
        diff = fx - fy
        num = float(np.linalg.norm(diff)) if np.ndim(diff) else abs(float(diff))
        best = max(best, num / gap)
    return best
