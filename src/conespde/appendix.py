"""Property suites for the approximation operators.

Each suite runs a battery of numeric invariant checks on fixed,
seeded constructions and reports pass/fail per property with a
counterexample on failure.  The CLI ``appendix`` command is a thin
wrapper around ``run_suites``; the test suite drives the same checks
at higher sample counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .approx import (
    GridQuadrature,
    MollifierParams,
    SearchSpec,
    SupInfParams,
    boundary_shift,
    bump,
    inf_convolve,
    mollify,
    phi_eps,
    stratonovich_correction,
    sup_convolve,
    sup_inf_convolve,
)
from .coefficients import (
    AffineMap,
    CallableMap,
    CoefficientSet,
    ConstantMap,
    ProportionalMap,
    SamplerSpec,
    sample_boundary_pairs,
)
from .errors import ConfigError
from .semigroup import DiagonalSemigroup
from .space import ConeSpec, StateVec, retract

__all__ = ["PropertyResult", "SUITE_NAMES", "run_suites"]


@dataclass(frozen=True)
class PropertyResult:
    """One checked property: name, outcome, and evidence on failure."""

    suite: str
    name: str
    passed: bool
    detail: str
    counterexample: dict | None = None

    def to_dict(self) -> dict:
        doc = {
            "suite": self.suite,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
        }
        if self.counterexample is not None:
            doc["counterexample"] = self.counterexample
        return doc


def _ok(suite: str, name: str, detail: str) -> PropertyResult:
    return PropertyResult(suite, name, True, detail)


def _fail(suite: str, name: str, detail: str, ce: dict) -> PropertyResult:
    return PropertyResult(suite, name, False, detail, ce)


def suite_phi(samples: int = 10_001, seed: int = 0) -> list[PropertyResult]:
    """Dead-zone shift: zero on the dead zone, eps-close, 1-Lipschitz.

    An odd sample count keeps x = 0 on the grid so the dead-zone check
    is never vacuous at small eps.
    """
    out = []
    xs = np.linspace(-10.0, 10.0, samples)
    for eps in (1e-3, 1e-1, 1.0):
        y = phi_eps(xs, eps)
        inside = np.abs(xs) <= eps
        bad = np.flatnonzero(y[inside] != 0.0)
        if bad.size:
            i = int(np.flatnonzero(inside)[bad[0]])
            out.append(_fail("phi", f"dead-zone eps={eps}", "nonzero inside dead zone",
                             {"x": float(xs[i]), "value": float(y[i])}))
        else:
            out.append(_ok("phi", f"dead-zone eps={eps}", f"{int(inside.sum())} grid points"))
        close = np.abs(y - xs) <= eps + 1e-15
        if not close.all():
            i = int(np.argmin(close))
            out.append(_fail("phi", f"eps-close eps={eps}", "|phi(x) - x| > eps",
                             {"x": float(xs[i]), "value": float(y[i])}))
        else:
            out.append(_ok("phi", f"eps-close eps={eps}", f"{samples} grid points"))
        steps = np.abs(np.diff(y))
        gaps = np.diff(xs)
        lip = steps <= gaps * (1.0 + 1e-12)
        if not lip.all():
            i = int(np.argmin(lip))
            out.append(_fail("phi", f"lipschitz eps={eps}", "adjacent quotient above 1",
                             {"x": float(xs[i]), "quotient": float(steps[i] / gaps[i])}))
        else:
            out.append(_ok("phi", f"lipschitz eps={eps}", f"{samples - 1} adjacent pairs"))
    shifted = boundary_shift(StateVec([0.05, 3.0, -1.0, 0.2]), n=3)
    expect = np.array([0.0, 2.875, -0.875, 0.0])
    if np.allclose(shifted.coords, expect, atol=1e-15):
        out.append(_ok("phi", "coordinatewise shift", "level-3 shift matches hand evaluation"))
    else:
        out.append(_fail("phi", "coordinatewise shift", "unexpected shifted state",
                         {"got": [float(v) for v in shifted.coords]}))
    return out


def suite_retraction(pairs: int = 10_000, dim: int = 32, seed: int = 0) -> list[PropertyResult]:
    """Radial retraction: nonexpansive, norm-bounded, identity inside."""
    out = []
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = 2.0
    h = rng.standard_normal((pairs, dim)) * rng.uniform(0.0, 4.0 * n, (pairs, 1))
    g = rng.standard_normal((pairs, dim)) * rng.uniform(0.0, 4.0 * n, (pairs, 1))
    worst_quot = 0.0
    worst_norm = 0.0
    ce = None
    for a, b in zip(h, g):
        ra = retract(StateVec(a), n).coords
        rb = retract(StateVec(b), n).coords
        gap = float(np.linalg.norm(a - b))
        if gap > 0:
            q = float(np.linalg.norm(ra - rb)) / gap
            if q > worst_quot:
                worst_quot = q
                ce = {"h_norm": float(np.linalg.norm(a)), "g_norm": float(np.linalg.norm(b)), "quotient": q}
        worst_norm = max(worst_norm, float(np.linalg.norm(ra)))
    if worst_quot <= 1.0 + 1e-12:
        out.append(_ok("retraction", "nonexpansive", f"max quotient {worst_quot:.3e} over {pairs} pairs"))
    else:
        out.append(_fail("retraction", "nonexpansive", "difference quotient above 1", ce))
    if worst_norm <= n * (1.0 + 1e-12):
        out.append(_ok("retraction", "norm-bound", f"max retracted norm {worst_norm:.6f} <= {n}"))
    else:
        out.append(_fail("retraction", "norm-bound", "retracted point outside the ball",
                         {"norm": worst_norm, "radius": n}))
    inside = rng.standard_normal(dim)
    inside *= 0.5 * n / np.linalg.norm(inside)
    fixed = retract(StateVec(inside), n).coords
    if np.array_equal(fixed, inside):
        out.append(_ok("retraction", "identity-inside", "point at half radius unchanged"))
    else:
        out.append(_fail("retraction", "identity-inside", "interior point moved",
                         {"norm": float(np.linalg.norm(inside))}))
    return out


def _kinked(x: StateVec) -> float:
    return float(min(abs(x.coords[0]), 1.0))


def _kinked_envelope(x: float, lam: float) -> float:
    # Exact inf-convolution of min(|x|, 1) with the quadratic kernel:
    # the Huber envelope of |x|, capped at the flat level 1.
    ax = abs(x)
    huber = ax * ax / (2.0 * lam) if ax <= lam else ax - lam / 2.0
    return min(huber, 1.0)


def suite_supinf(grid: int = 41, seed: int = 0) -> list[PropertyResult]:
    """Quadratic envelopes on the bounded Lipschitz test function."""
    out = []
    lam, mu = 1e-2, 1e-3
    p = SupInfParams(lam=lam, mu=mu)
    search = SearchSpec(lipschitz=1.0, sup_bound=1.0)
    xs = np.linspace(-2.0, 2.0, grid)

    worst = 0.0
    ce = None
    for x in xs:
        got = inf_convolve(_kinked, lam, StateVec([float(x)]), search)
        want = _kinked_envelope(float(x), lam)
        err = abs(got - want)
        if err > worst:
            worst, ce = err, {"x": float(x), "got": got, "closed_form": want}
    if worst <= 1e-6:
        out.append(_ok("supinf", "moreau-closed-form", f"max error {worst:.2e} on |x| <= 2"))
    else:
        out.append(_fail("supinf", "moreau-closed-form", "envelope disagrees with closed form", ce))

    bad_order = None
    sup_err = 0.0
    for x in xs:
        s = StateVec([float(x)])
        lo = inf_convolve(_kinked, lam, s, search)
        hi = sup_convolve(_kinked, mu, s, search)
        mid = _kinked(s)
        if not (lo <= mid + 1e-12 and mid <= hi + 1e-12):
            bad_order = {"x": float(x), "inf": lo, "f": mid, "sup": hi}
            break
        both = sup_inf_convolve(_kinked, p, s, search)
        sup_err = max(sup_err, abs(both - mid))
    if bad_order is None:
        out.append(_ok("supinf", "ordering", f"f_lam <= f <= f^mu on {grid} points"))
    else:
        out.append(_fail("supinf", "ordering", "envelope ordering violated", bad_order))
    if sup_err <= 0.05:
        out.append(_ok("supinf", "sup-error", f"max |(f_lam)^mu - f| = {sup_err:.4f} <= 0.05"))
    else:
        out.append(_fail("supinf", "sup-error", "composition drifts from f",
                         {"sup_error": sup_err}))
    return out


def suite_mollify(face_points: int = 16, seed: int = 0) -> list[PropertyResult]:
    """Bump quality plus exactness and parallelism of the smoothing."""
    out = []
    ts = np.linspace(-1.5, 1.5, 20_001)
    vals = bump(ts)
    slopes = np.diff(vals) / np.diff(ts)
    in_range = (vals >= 0.0).all() and (vals <= 1.0).all()
    plateau = (bump(0.49) == 1.0) and (bump(1.0) == 0.0) and (bump(1.2) == 0.0)
    slope_ok = np.max(np.abs(slopes)) <= 3.0
    if in_range and plateau and slope_ok:
        out.append(_ok("mollify", "bump-profile",
                       f"range [0,1], plateau edges exact, max |slope| {np.max(np.abs(slopes)):.3f} <= 3"))
    else:
        out.append(_fail("mollify", "bump-profile", "bump profile violates its envelope",
                         {"max_slope": float(np.max(np.abs(slopes))), "range_ok": bool(in_range),
                          "plateau_ok": bool(plateau)}))

    params = MollifierParams(n=2, bandwidth=8.0, quadrature=GridQuadrature(33))
    h = StateVec([0.4, -0.7])
    const = ConstantMap(np.array([2.5, -1.25]))
    got = mollify(const, params, h).coords
    err_c = float(np.max(np.abs(got - const.value)))
    if err_c <= 1e-10:
        out.append(_ok("mollify", "constant-exact", f"error {err_c:.2e} <= 1e-10"))
    else:
        out.append(_fail("mollify", "constant-exact", "constant not reproduced",
                         {"error": err_c}))
    lin = AffineMap(np.array([[1.5, -0.25], [0.5, 2.0]]), np.array([0.3, -0.1]))
    got = mollify(lin, params, h).coords
    err_l = float(np.max(np.abs(got - lin.eval_array(h.coords))))
    if err_l <= 1e-6:
        out.append(_ok("mollify", "affine-exact", f"error {err_l:.2e} <= 1e-6"))
    else:
        out.append(_fail("mollify", "affine-exact", "affine map not reproduced",
                         {"error": err_l}))

    # Parallelism: a column vanishing on a slab around the face stays
    # exactly zero there after smoothing with a smaller support.
    level = 2
    inner = ProportionalMap(1.0, 0, 2)
    shifted = CallableMap(lambda s: inner.eval_array(boundary_shift(s, level).coords), 2)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    worst = 0.0
    for _ in range(face_points):
        face = StateVec([0.0, float(rng.uniform(-2.0, 2.0))])
        sm = mollify(shifted, params, face).coords
        worst = max(worst, abs(float(sm[0])))
    if worst <= 1e-12:
        out.append(_ok("mollify", "parallel-preserved",
                       f"face component {worst:.2e} at {face_points} face points"))
    else:
        out.append(_fail("mollify", "parallel-preserved", "smoothing broke face parallelism",
                         {"max_component": worst}))
    return out


def suite_rho(face_points: int = 64, seed: int = 0) -> list[PropertyResult]:
    """Noise-induced drift: analytic agreement and boundary parallelism."""
    out = []
    dim = 16
    cols = tuple(ProportionalMap(0.3, j, dim) for j in range(8))
    coeffs = CoefficientSet(ConstantMap(np.zeros(dim)), cols)
    cone = ConeSpec.nonnegative(dim)
    sg = DiagonalSemigroup.heat(dim)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    worst = 0.0
    ce = None
    for _ in range(16):
        h = StateVec(rng.uniform(0.0, 2.0, dim))
        got = stratonovich_correction(coeffs, h).coords
        want = np.zeros(dim)
        want[:8] = 0.5 * 0.09 * h.coords[:8]
        err = float(np.max(np.abs(got - want)))
        if err > worst:
            worst, ce = err, {"point_norm": h.norm(), "error": err}
    if worst <= 1e-6:
        out.append(_ok("rho", "analytic-match", f"max error {worst:.2e} <= 1e-6"))
    else:
        out.append(_fail("rho", "analytic-match", "finite differences disagree with closed form", ce))

    sampler = SamplerSpec(points_per_face=max(1, face_points // dim), interior_points=0, seed=seed)
    worst = 0.0
    ce = None
    count = 0
    for theta, k, H in sample_boundary_pairs(cone, sampler):
        for row in H:
            val = stratonovich_correction(coeffs, StateVec(row)).coords
            pairing = abs(theta * val[k])
            count += 1
            if pairing > worst:
                worst, ce = pairing, {"k": k, "theta": theta, "pairing": pairing}
    if worst <= 1e-6:
        out.append(_ok("rho", "face-parallel", f"max |pairing| {worst:.2e} over {count} face points"))
    else:
        out.append(_fail("rho", "face-parallel", "noise drift pairs with an active face", ce))
    return out


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
    if selector == "all":
        names = sorted(SUITES)
    elif selector in SUITES:
        names = [selector]
    else:
        raise ConfigError(
            f"unknown suite {selector!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    results: list[PropertyResult] = []
    for name in names:
        results.extend(SUITES[name](seed=seed))
    return results
