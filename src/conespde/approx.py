"""Approximation operators used to regularize coefficients.

These are the building blocks that turn rough cone-compatible
coefficients into smooth ones while preserving the structural
properties the invariance conditions care about:

* ``phi_eps``: scalar dead-zone shift (soft threshold), 1-Lipschitz,
  within ``eps`` of the identity, and sign-compatible;
* ``boundary_shift``: the coordinatewise dead-zone map ``Phi_n`` that
  pushes states off the boundary faces without leaving the cone;
* ``compose_projection`` / ``compose_retraction``: finite-rank and
  bounded-range compositions;
* ``truncate_noise``: keep the leading volatility columns;
* ``inf_convolve`` / ``sup_convolve`` / ``sup_inf_convolve``: the
  quadratic envelope pair whose composition is gradient-Lipschitz with
  constant at most ``max(1/lam, 1/mu)``;
* ``mollify``: convolution with a smooth compactly supported bump,
  shrinking support radius ``1/bandwidth``;
* ``stratonovich_correction``: the noise-induced drift
  ``(1/2) sum_j D vol_j(h) vol_j(h)`` by symmetric differencing;
* ``lipschitz_probe``: sampled lower bound on a Lipschitz constant.

Envelope values are computed by a coarse grid plus golden-section
refinement; an optimum landing on the search boundary raises
``SearchRadiusError`` instead of returning a silently wrong value.
The state is validated once, where it enters as a ``StateVec``
(``inf_convolve``, ``sup_convolve``, ``sup_inf_convolve``,
``sup_inf_map``).  Each search then checks once that its window
``[h - R, h + R]`` is finite and raises ``DomainError`` if not; the
states it hands the target function inside that window are not
re-validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import (
    CallableMap,
    CoefficientMap,
    CoefficientSet,
    ProjectedMap,
    RetractedMap,
    ZeroMap,
)
from .errors import (
    ConfigError,
    DomainError,
    NumericError,
    SearchRadiusError,
    ShapeError,
    UnsupportedDimensionError,
)
from .space import ORTHONORMAL, BasisConstants, StateVec

__all__ = [
    "phi_eps",
    "boundary_shift",
    "boundary_shift_lipschitz",
    "boundary_shift_radius",
    "compose_projection",
    "compose_retraction",
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
    "stratonovich_correction_with_error",
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
    if eps < 0:
        raise DomainError(f"eps must be >= 0, got {eps}")
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


def boundary_shift_lipschitz(constants: BasisConstants = ORTHONORMAL) -> float:
    """Lipschitz bound ``L = 2 ubc`` used in the localization radius.

    The coordinatewise bound is actually ``ubc`` for an unconditional
    basis; the factor 2 also covers the functional norms, and the
    localization radius below divides by this same ``L``.
    """
    return 2.0 * constants.ubc


def boundary_shift_radius(n: int, constants: BasisConstants = ORTHONORMAL) -> float:
    """Localization radius ``2^-n / L`` of the level-``n`` shift."""
    return 2.0 ** (-n) / boundary_shift_lipschitz(constants)


def compose_projection(f: CoefficientMap, n: int) -> CoefficientMap:
    """Finite-rank composition ``h -> P_n f(h)``."""
    return ProjectedMap(f, n)


def compose_retraction(f: CoefficientMap, n: float) -> CoefficientMap:
    """Bounded-argument composition ``h -> f(R_n h)``.

    Agrees with ``f`` on the ball of radius ``n`` and is constant along
    rays beyond it, so suprema of ``f`` over the ball bound the
    composition globally.
    """
    return RetractedMap(f, n)


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
    return CoefficientSet(coeffs.drift, cols, coeffs.jump_atoms, coeffs.lipschitz_hint)


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
        if not (self.lam > 0 and self.mu > 0):
            raise DomainError("lam and mu must be > 0")
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

    ``radius`` must be finite and > 0, ``lipschitz`` and ``sup_bound``
    finite and >= 0.  The window around the base point must be finite
    too: a search whose window overflows raises ``DomainError`` before
    ``f`` is called, since the states inside it are not re-validated.
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


def _line_search(fn: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Minimize a scalar function on [lo, hi]; grid then golden section.

    Raises SearchRadiusError when the best grid point sits on the
    window edge, since the true optimum may then lie outside.
    """
    xs = np.linspace(lo, hi, GRID_POINTS)
    vals = np.array([fn(float(x)) for x in xs])
    if not np.all(np.isfinite(vals)):
        raise NumericError("non-finite value during line search")
    i = int(np.argmin(vals))
    if i == 0 or i == GRID_POINTS - 1:
        raise SearchRadiusError(
            f"optimum at search boundary (x={xs[i]:.6g}); widen the radius",
            suggested_radius=2.0 * (hi - lo) / 2.0,
        )
    best_x, best_v = float(xs[i]), float(vals[i])
    a, b = float(xs[i - 1]), float(xs[i + 1])
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(REFINE_ITERS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
        if fc < best_v:
            best_x, best_v = c, fc
        if fd < best_v:
            best_x, best_v = d, fd
    return best_x, best_v


def _opt_shifted(
    f: Callable[[StateVec], float],
    base: np.ndarray,
    width: float,
    spec: SearchSpec,
) -> float:
    """Minimize ``f(g) + ||base - g||^2 / (2 width)`` over g.

    Coordinate descent over the cube of half-width
    ``resolve_radius(width)`` around ``base``; the sup-convolution
    minimizes the negated function.  ``base`` comes from a validated
    state, and the window is checked once here, so every iterate is
    finite and reaches ``f`` unchecked.
    """
    R = spec.resolve_radius(width)
    with np.errstate(over="ignore"):
        lo, hi = base - R, base + R
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise DomainError(f"search window must be finite, got radius {R} around the state")
    dim = base.shape[0]
    g = base.copy()

    def objective() -> float:
        diff = base - g
        return f(StateVec._unchecked(g)) + float(diff @ diff) / (2.0 * width)

    sweeps = 1 if dim == 1 else SWEEPS
    for _ in range(sweeps):
        for axis in range(dim):
            def fn(x: float, axis=axis) -> float:
                g[axis] = x
                return objective()

            x, _ = _line_search(fn, lo[axis], hi[axis])
            g[axis] = x
    return objective()


def inf_convolve(
    f: Callable[[StateVec], float], lam: float, h: StateVec, search: SearchSpec
) -> float:
    """Quadratic inf-convolution ``inf_g f(g) + ||h - g||^2 / (2 lam)``.

    Always at most ``f(h)``.  For Lipschitz bounded ``f`` the infimum is
    attained within the effective radius, which the search window must
    cover (see ``SearchSpec``).
    """
    if lam <= 0:
        raise DomainError("lam must be > 0")
    return _opt_shifted(f, h.coords.copy(), lam, search)


def sup_convolve(
    f: Callable[[StateVec], float], mu: float, h: StateVec, search: SearchSpec
) -> float:
    """Quadratic sup-convolution ``sup_g f(g) - ||h - g||^2 / (2 mu)``;
    always at least ``f(h)``."""
    if mu <= 0:
        raise DomainError("mu must be > 0")

    def neg(x: StateVec) -> float:
        return -f(x)

    return -_opt_shifted(neg, h.coords.copy(), mu, search)


def sup_inf_convolve(
    f: Callable[[StateVec], float], p: SupInfParams, h: StateVec, search: SearchSpec
) -> float:
    """Composition ``(f_lam)^mu (h)``: smooth from both sides.

    The result is within ``lam L^2 / 2 + mu L^2 / 2`` of ``f`` for
    ``L``-Lipschitz ``f`` and its gradient is Lipschitz with constant at
    most ``max(1/lam, 1/mu)``.  Vector maps are treated componentwise
    by ``sup_inf_map``.
    """

    def envelope(u: StateVec) -> float:
        return inf_convolve(f, p.lam, u, search)

    return sup_convolve(envelope, p.mu, h, search)


def sup_inf_map(f: CoefficientMap, p: SupInfParams, search: SearchSpec) -> CoefficientMap:
    """Componentwise sup-inf regularization of a vector map.

    Component ``k`` searches over coordinate ``k`` of ``f.eval_coords``,
    so a family that overrides ``eval_coords`` computes only the entry
    it needs.
    """

    def component(k: int) -> Callable[[StateVec], float]:
        only = slice(k, k + 1)  # a slice selects without the copy of an index list
        return lambda x: float(f.eval_coords(x.coords, only)[0])

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
        if self.bandwidth <= 0:
            raise DomainError("bandwidth must be > 0")

    @property
    def support_radius(self) -> float:
        return 1.0 / self.bandwidth

    def normalizer(self) -> float:
        """Quadrature value of ``integral of bump(|g|) over the unit cube``.

        Positive and finite; the same node layout is used inside
        ``mollify`` after scaling, so constants are reproduced exactly.
        """
        if isinstance(self.quadrature, GridQuadrature):
            nodes, weights = _tensor_nodes(self.n, 1.0, self.quadrature.points_per_axis)
            phi = bump(np.linalg.norm(nodes, axis=1))
            return float(np.sum(weights * phi))
        rng = np.random.default_rng(np.random.SeedSequence(self.quadrature.seed))
        pts = rng.uniform(-1.0, 1.0, size=(self.quadrature.samples, self.n))
        vol = 2.0 ** self.n
        return float(vol * np.mean(bump(np.linalg.norm(pts, axis=1))))


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


def _mollify_eval(f: CoefficientMap, p: MollifierParams, h: StateVec):
    if f.dim != p.n:
        raise ShapeError(f"map dim {f.dim} must equal mollifier dimension {p.n}")
    r = p.support_radius
    if isinstance(p.quadrature, GridQuadrature):
        nodes, weights = _tensor_nodes(p.n, r, p.quadrature.points_per_axis)
        phi = bump(p.bandwidth * np.linalg.norm(nodes, axis=1))
        wphi = weights * phi
        z = float(np.sum(wphi))
        vals = np.stack([f.eval_array(h.coords - g) for g in nodes])
        value = (wphi[:, None] * vals).sum(axis=0) / z
        return StateVec(value), None
    q = p.quadrature
    rng = np.random.default_rng(np.random.SeedSequence(q.seed))
    pts = rng.uniform(-r, r, size=(q.samples, p.n))
    phi = bump(p.bandwidth * np.linalg.norm(pts, axis=1))
    vals = np.stack([f.eval_array(h.coords - g) for g in pts])
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

    The weight integrates to one by construction (the normalizer uses
    the same node layout), so constants are reproduced exactly and, by
    node symmetry, so are affine maps.  Values only depend on ``f``
    within ``p.support_radius`` of ``h``, which is what preserves local
    boundary-parallelism: if ``f`` is parallel on an ``eps`` ball and
    ``bandwidth >= 2 / eps``, the mollified map is parallel on the
    ``eps / 2`` ball.
    """
    value, _ = _mollify_eval(f, p, h)
    return value


def mollify_with_error(f: CoefficientMap, p: MollifierParams, h: StateVec):
    """Like ``mollify`` but also returns the Monte Carlo standard error
    per coordinate (``None`` for grid quadrature)."""
    return _mollify_eval(f, p, h)


# --------------------------------------------------------------------------
# Noise-induced drift and probes


def _column_derivative(col: CoefficientMap, h: np.ndarray, delta: float, v: np.ndarray) -> np.ndarray:
    hi = col.eval_array(h + delta * v)
    lo = col.eval_array(h - delta * v)
    return (hi - lo) / (2.0 * delta)


def stratonovich_correction_with_error(
    coeffs: CoefficientSet,
    h: StateVec,
    fd_step: float = 1e-5,
    weights=None,
):
    """Noise-induced drift ``(1/2) sum_j w_j D vol_j(h) vol_j(h)`` with
    an error estimate.

    ``weights`` are the noise eigenvalues per column (all 1 when
    omitted, for columns already scaled).  Each directional derivative
    is a symmetric difference at step ``fd_step / max(1, ||vol_j(h)||)``
    combined with the half-step value by Richardson extrapolation; the
    returned error is the norm of the disagreement between the two,
    scaled by 1/3.
    """
    if fd_step <= 0:
        raise DomainError("fd_step must be > 0")
    if weights is None:
        w_arr = np.ones(len(coeffs.vol_columns))
    else:
        w_arr = np.asarray(weights, dtype=np.float64)
        if w_arr.shape != (len(coeffs.vol_columns),):
            raise ShapeError("one weight per volatility column required")
    a = h.coords
    total = np.zeros(coeffs.dim)
    err = 0.0
    for wj, col in zip(w_arr, coeffs.vol_columns):
        v = col.eval_array(a)
        delta = fd_step / max(1.0, float(np.linalg.norm(v)))
        d1 = _column_derivative(col, a, delta, v)
        d2 = _column_derivative(col, a, 0.5 * delta, v)
        if not (np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))):
            raise NumericError("non-finite finite-difference derivative")
        extrap = (4.0 * d2 - d1) / 3.0
        total += wj * extrap
        err += abs(wj) * float(np.linalg.norm(d2 - d1)) / 3.0
    return StateVec(0.5 * total), 0.5 * err


def stratonovich_correction(
    coeffs: CoefficientSet,
    h: StateVec,
    fd_step: float = 1e-5,
    weights=None,
) -> StateVec:
    """See ``stratonovich_correction_with_error``; returns the value only."""
    value, _ = stratonovich_correction_with_error(coeffs, h, fd_step, weights)
    return value


@dataclass(frozen=True)
class BallSpec:
    """Sampling ball for probes: ``radius`` around ``center`` (origin
    when omitted) in dimension ``dim``."""

    dim: int
    radius: float
    center: StateVec | None = None

    def __post_init__(self):
        if self.dim < 1 or self.radius <= 0:
            raise DomainError("need dim >= 1 and radius > 0")
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
