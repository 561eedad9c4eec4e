"""Property suites for the approximation operators.

Each suite runs a battery of numeric invariant checks on fixed,
seeded constructions and reports pass/fail per property with a
counterexample on failure.  One rule, ``_judge``, decides every
property from a comparison that a NaN fails (``worst <= bound``), and
``_worst`` counts a NaN as the largest sample, so a NaN never passes.
The operators run on whole batches: the envelope grid is the lanes of
one search, the retraction pairs go in row blocks, and the mollifier's
face points are one batch of ``MollifiedMap(ShiftedMap(...))``.

The CLI ``appendix`` command is a thin wrapper around ``run_suites``;
the acceptance tests AC7 and AC8 call ``suite_mollify`` (with 64 face
points instead of 16) and ``suite_rho`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .approx import (
    MollifiedMap,
    SearchSpec,
    SupInfParams,
    bump,
    inf_convolve,
    mollify,
    stratonovich_correction,
    sup_convolve,
    sup_inf_convolve,
)
from .coefficients import (
    AffineMap,
    CoefficientSet,
    ConstantMap,
    ProportionalMap,
    SamplerSpec,
    ShiftedMap,
    sample_boundary_pairs,
)
from .errors import ConfigError
from .space import ConeSpec, StateVec, phi_eps, retract, shift

__all__ = ["PropertyResult", "SUITE_NAMES", "run_suites"]


@dataclass(frozen=True)
class PropertyResult:
    """One checked property: name, detail, and the evidence of a failure.

    The counterexample is the outcome: a property passed exactly when
    it has none.
    """

    suite: str
    name: str
    detail: str
    counterexample: dict | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def to_dict(self) -> dict:
        doc = {"suite": self.suite, "name": self.name, "passed": self.passed, "detail": self.detail}
        return doc if self.passed else {**doc, "counterexample": self.counterexample}


def _judge(suite: str, name: str, ok: bool, detail: str, failure: str,
           counterexample: dict) -> PropertyResult:
    """The one verdict rule: ``detail`` when ``ok`` holds, else
    ``failure`` with ``counterexample``.  Callers compute ``ok`` only
    from comparisons that a NaN fails, such as ``worst <= bound``."""
    if ok:
        return PropertyResult(suite, name, detail)
    return PropertyResult(suite, name, failure, counterexample)


def _worst(values) -> tuple[int, float]:
    """Index and value of the largest entry of a non-empty 1-d sample.
    ``np.argmax`` returns the first NaN when there is one, so a NaN
    counts as the largest value and fails any bound it is compared to."""
    values = np.asarray(values, dtype=np.float64)
    i = int(np.argmax(values))
    return i, float(values[i])


# grid points on [-10, 10]: an odd count keeps x = 0 on the grid, so the
# dead-zone check is never vacuous at small eps
_PHI_SAMPLES = 10_001


def suite_phi(seed: int = 0) -> list[PropertyResult]:
    """Dead-zone shift: zero on the dead zone, eps-close, 1-Lipschitz."""
    out = []
    xs = np.linspace(-10.0, 10.0, _PHI_SAMPLES)
    gaps = np.diff(xs)
    for eps in (1e-3, 1e-1, 1.0):
        y = phi_eps(xs, eps)
        inside = np.flatnonzero(np.abs(xs) <= eps)
        j, dev = _worst(np.abs(y[inside]))
        i = int(inside[j])
        out.append(_judge("phi", f"dead-zone eps={eps}", dev <= 0.0,
                          f"{inside.size} grid points", "nonzero inside dead zone",
                          {"x": float(xs[i]), "value": float(y[i])}))
        i, dist = _worst(np.abs(y - xs))
        out.append(_judge("phi", f"eps-close eps={eps}", dist <= eps + 1e-15,
                          f"{_PHI_SAMPLES} grid points", "|phi(x) - x| > eps",
                          {"x": float(xs[i]), "value": float(y[i])}))
        steps = np.abs(np.diff(y))
        i, excess = _worst(steps - gaps * (1.0 + 1e-12))
        out.append(_judge("phi", f"lipschitz eps={eps}", excess <= 0.0,
                          f"{_PHI_SAMPLES - 1} adjacent pairs", "adjacent quotient above 1",
                          {"x": float(xs[i]), "quotient": float(steps[i] / gaps[i])}))
    shifted = shift(np.array([0.05, 3.0, -1.0, 0.2]), 3)
    expect = np.array([0.0, 2.875, -0.875, 0.0])
    out.append(_judge("phi", "coordinatewise shift", np.allclose(shifted, expect, atol=1e-15),
                      "level-3 shift matches hand evaluation", "unexpected shifted state",
                      {"got": [float(v) for v in shifted]}))
    return out


# random pairs of states in R^32, and rows retracted per call: the batch
# stays small next to the samples
_RETRACT_PAIRS, _RETRACT_DIM = 10_000, 32
_RETRACT_ROWS = 1024


def suite_retraction(seed: int = 0) -> list[PropertyResult]:
    """Radial retraction: nonexpansive, norm-bounded, identity inside."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pairs, dim = _RETRACT_PAIRS, _RETRACT_DIM
    n = 2.0
    h = rng.standard_normal((pairs, dim)) * rng.uniform(0.0, 4.0 * n, (pairs, 1))
    g = rng.standard_normal((pairs, dim)) * rng.uniform(0.0, 4.0 * n, (pairs, 1))
    quotients, norms = [], []
    for lo in range(0, pairs, _RETRACT_ROWS):
        a, b = h[lo:lo + _RETRACT_ROWS], g[lo:lo + _RETRACT_ROWS]
        ra, rb = retract(a, n), retract(b, n)
        gap = np.linalg.norm(a - b, axis=1)
        step = np.linalg.norm(ra - rb, axis=1)
        # a pair of equal points moves together: quotient 0
        quotients.append(np.divide(step, gap, out=np.zeros_like(gap), where=gap > 0))
        norms.append(np.linalg.norm(ra, axis=1))
    i, quot = _worst(np.concatenate(quotients))
    j, norm = _worst(np.concatenate(norms))
    inside = rng.standard_normal(dim)
    inside *= 0.5 * n / np.linalg.norm(inside)
    return [
        _judge("retraction", "nonexpansive", quot <= 1.0 + 1e-12,
               f"max quotient {quot:.3e} over {pairs} pairs", "difference quotient above 1",
               {"h_norm": float(np.linalg.norm(h[i])), "g_norm": float(np.linalg.norm(g[i])),
                "quotient": quot}),
        _judge("retraction", "norm-bound", norm <= n * (1.0 + 1e-12),
               f"max retracted norm {norm:.6f} <= {n}", "retracted point outside the ball",
               {"h_norm": float(np.linalg.norm(h[j])), "norm": norm, "radius": n}),
        _judge("retraction", "identity-inside", np.array_equal(retract(inside, n), inside),
               "point at half radius unchanged", "interior point moved",
               {"norm": float(np.linalg.norm(inside))}),
    ]


def _kinked(rows: np.ndarray) -> np.ndarray:
    return np.minimum(np.abs(rows[:, 0]), 1.0)


def _kinked_envelope(x: np.ndarray, lam: float) -> np.ndarray:
    # Exact inf-convolution of min(|x|, 1) with the quadratic kernel:
    # the Huber envelope of |x|, capped at the flat level 1.
    ax = np.abs(x)
    huber = np.where(ax <= lam, ax * ax / (2.0 * lam), ax - lam / 2.0)
    return np.minimum(huber, 1.0)


# envelope points on [-2, 2], one search lane each
_SUPINF_GRID = 41


def suite_supinf(seed: int = 0) -> list[PropertyResult]:
    """Quadratic envelopes on the bounded Lipschitz test function."""
    lam, mu = 1e-2, 1e-3
    p = SupInfParams(lam=lam, mu=mu)
    search = SearchSpec(lipschitz=1.0, sup_bound=1.0)
    xs = np.linspace(-2.0, 2.0, _SUPINF_GRID)
    points = xs[:, None]  # one search lane per grid point

    lows = inf_convolve(_kinked, lam, points, search)
    want = _kinked_envelope(xs, lam)
    i, err = _worst(np.abs(lows - want))
    closed = _judge("supinf", "moreau-closed-form", err <= 1e-6,
                    f"max error {err:.2e} on |x| <= 2", "envelope disagrees with closed form",
                    {"x": float(xs[i]), "got": float(lows[i]), "closed_form": float(want[i])})

    highs = sup_convolve(_kinked, mu, points, search)
    mids = _kinked(points)
    good = (lows <= mids + 1e-12) & (mids <= highs + 1e-12)
    j = int(np.argmin(good))  # the first misordered point
    ordering = _judge("supinf", "ordering", good.all(),
                      f"f_lam <= f <= f^mu on {_SUPINF_GRID} points", "envelope ordering violated",
                      {"x": float(xs[j]), "inf": float(lows[j]), "f": float(mids[j]),
                       "sup": float(highs[j])})

    both = sup_inf_convolve(_kinked, p, points, search)
    k, sup_err = _worst(np.abs(both - mids))
    drift = _judge("supinf", "sup-error", sup_err <= 0.05,
                   f"max |(f_lam)^mu - f| = {sup_err:.4f} <= 0.05", "composition drifts from f",
                   {"x": float(xs[k]), "sup_error": sup_err})
    return [closed, ordering, drift]


def suite_mollify(face_points: int = 16, seed: int = 0) -> list[PropertyResult]:
    """Bump quality plus exactness and parallelism of the smoothing."""
    ts = np.linspace(-1.5, 1.5, 20_001)
    vals = bump(ts)
    _, slope = _worst(np.abs(np.diff(vals) / np.diff(ts)))
    in_range = bool(np.all((vals >= 0.0) & (vals <= 1.0)))
    plateau = bool(bump(0.49) == 1.0 and bump(1.0) == 0.0 and bump(1.2) == 0.0)
    out = [_judge("mollify", "bump-profile", in_range and plateau and slope <= 3.0,
                  f"range [0,1], plateau edges exact, max |slope| {slope:.3f} <= 3",
                  "bump profile violates its envelope",
                  {"max_slope": slope, "range_ok": in_range, "plateau_ok": plateau})]

    bandwidth = 8.0
    h = StateVec([0.4, -0.7])
    const = ConstantMap(np.array([2.5, -1.25]))
    _, err = _worst(np.abs(mollify(const, bandwidth, h).coords - const.value))
    out.append(_judge("mollify", "constant-exact", err <= 1e-10, f"error {err:.2e} <= 1e-10",
                      "constant not reproduced", {"error": err}))
    lin = AffineMap(np.array([[1.5, -0.25], [0.5, 2.0]]), np.array([0.3, -0.1]))
    _, err = _worst(np.abs(mollify(lin, bandwidth, h).coords - lin.eval_array(h.coords)))
    out.append(_judge("mollify", "affine-exact", err <= 1e-6, f"error {err:.2e} <= 1e-6",
                      "affine map not reproduced", {"error": err}))

    # Parallelism: a column vanishing on a slab around the face stays
    # exactly zero there after smoothing with a smaller support.
    smoothed = MollifiedMap(ShiftedMap(ProportionalMap(1.0, 0, 2), level=2), bandwidth)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    faces = np.zeros((face_points, 2))
    faces[:, 1] = rng.uniform(-2.0, 2.0, face_points)
    i, comp = _worst(np.abs(smoothed.eval_coords(faces, [0])[:, 0]))
    out.append(_judge("mollify", "parallel-preserved", comp <= 1e-12,
                      f"face component {comp:.2e} at {face_points} face points",
                      "smoothing broke face parallelism",
                      {"face_point": float(faces[i, 1]), "max_component": comp}))
    return out


def suite_rho(face_points: int = 64, seed: int = 0) -> list[PropertyResult]:
    """Noise-induced drift: analytic agreement and boundary parallelism."""
    dim = 16
    cols = tuple(ProportionalMap(0.3, j, dim) for j in range(8))
    coeffs = CoefficientSet(ConstantMap(np.zeros(dim)), cols)
    cone = ConeSpec.nonnegative(dim)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    states = rng.uniform(0.0, 2.0, (16, dim))
    want = np.zeros_like(states)
    want[:, :8] = 0.5 * 0.09 * states[:, :8]
    got = stratonovich_correction(coeffs, states)
    i, err = _worst(np.max(np.abs(got - want), axis=1))
    analytic = _judge("rho", "analytic-match", err <= 1e-6, f"max error {err:.2e} <= 1e-6",
                      "finite differences disagree with closed form",
                      {"point_norm": float(np.linalg.norm(states[i])), "error": err})

    sampler = SamplerSpec(points_per_face=max(1, face_points // dim), interior_points=0, seed=seed)
    # one call per face block; row i is bitwise the state alone
    blocks = [(k, theta, abs(theta * stratonovich_correction(coeffs, H)[:, k]))
              for theta, k, H in sample_boundary_pairs(cone, sampler)]
    faces = [(k, theta) for k, theta, pairings in blocks for _ in pairings]
    j, pairing = _worst(np.concatenate([pairings for *_, pairings in blocks]))
    parallel = _judge("rho", "face-parallel", pairing <= 1e-6,
                      f"max |pairing| {pairing:.2e} over {len(faces)} face points",
                      "noise drift pairs with an active face",
                      {"k": faces[j][0], "theta": faces[j][1], "pairing": pairing})
    return [analytic, parallel]


SUITES = {
    "phi": suite_phi,
    "retraction": suite_retraction,
    "supinf": suite_supinf,
    "mollify": suite_mollify,
    "rho": suite_rho,
}

SUITE_NAMES = tuple(sorted(SUITES)) + ("all",)


def run_suites(selector: str, seed: int = 0) -> list[PropertyResult]:
    """Run one suite or all of them; results in declaration order."""
    if selector not in SUITE_NAMES:
        raise ConfigError(f"unknown suite {selector!r}; choose from {', '.join(SUITE_NAMES)}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    names = sorted(SUITES) if selector == "all" else [selector]
    return [r for name in names for r in SUITES[name](seed=seed)]
