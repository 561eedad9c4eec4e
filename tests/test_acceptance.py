"""Full-size acceptance runs for the worked dim-16 system.

Each test records one PASS/FAIL line through the ``criterion`` fixture;
the collected lines are printed as a terminal summary section after the
run (see conftest).  Tolerances here are the advertised ones, not
loosened test-local variants.
"""

import time

import numpy as np

from conespde import StateVec, retract
from conespde.approx import (
    SearchSpec,
    SupInfParams,
    inf_convolve,
    phi_eps,
    stratonovich_correction,
    sup_inf_convolve,
)
from conespde.appendix import suite_mollify, suite_rho
from conespde.cli import cli
from conespde.coefficients import (
    CoefficientSet,
    MeanReversionMap,
    ProjectedMap,
    SamplerSpec,
    invariance_verdict,
    sample_boundary_pairs,
)
from conespde.config import ExperimentConfig, preset_document
from conespde.simulate import run_ensemble, ssnc_estimate, stability_experiment

from click.testing import CliRunner


def load_preset(name: str, seed: int | None = None) -> ExperimentConfig:
    doc = preset_document(name)
    if seed is not None:
        doc["noise"]["seed"] = seed
    return ExperimentConfig.from_dict(doc)


def ensemble_stats(ec: ExperimentConfig):
    ens = run_ensemble(ec.coeffs, ec.semigroup, ec.noise, ec.cone, ec.sim, ec.h0)
    ok = ens.diverged < 0
    counted = int(ok.sum())
    frac = float((ens.exited & ok).sum()) / counted
    se = float(np.sqrt(frac * (1.0 - frac) / counted))
    return frac, se


class TestAcceptance:
    def test_ac1_compliant_system_stays_in(self, criterion):
        ec = load_preset("heat-positive")
        t0 = time.perf_counter()
        report = invariance_verdict(ec.coeffs, ec.semigroup, ec.cone, ec.sampler)
        frac, _ = ensemble_stats(ec)
        elapsed = time.perf_counter() - t0
        ok = report.satisfied and frac <= 0.01 and elapsed < 30.0
        criterion(
            "AC1 compliant: checker satisfied, exits <= 1%, under 30s",
            ok,
            f"satisfied={report.satisfied}, exit={frac:.4f}, {elapsed:.1f}s",
        )

    def test_ac2_bad_volatility_flagged_and_exits(self, criterion):
        ec = load_preset("heat-positive-badvol")
        report = invariance_verdict(ec.coeffs, ec.semigroup, ec.cone, ec.sampler)
        witnessed = (not report.satisfied) and any(
            w.condition == "vol-parallel" and w.k == 0 for w in report.witnesses
        )
        gaps = []
        for seed in (0, 1, 2):
            bad, _ = ensemble_stats(load_preset("heat-positive-badvol", seed))
            good, _ = ensemble_stats(load_preset("heat-positive", seed))
            gaps.append((seed, bad, good))
        rates_ok = all(bad >= 0.3 and bad >= 10.0 * good for _, bad, good in gaps)
        criterion(
            "AC2 bad volatility: first-face witness, exits >= 0.3 and 10x compliant (3 seeds)",
            witnessed and rates_ok,
            "; ".join(f"seed {s}: bad {b:.3f} vs compliant {g:.3f}" for s, b, g in gaps),
        )

    def test_ac3_exit_fraction_refines_monotonically(self, criterion):
        stats = []
        for dt in (4e-3, 2e-3, 1e-3):
            doc = preset_document("heat-positive")
            doc["sim"]["dt"] = dt
            stats.append(ensemble_stats(ExperimentConfig.from_dict(doc)))
        ok = all(
            stats[i + 1][0] <= stats[i][0] + 2.0 * np.hypot(stats[i][1], stats[i + 1][1])
            for i in range(len(stats) - 1)
        )
        criterion(
            "AC3 compliant sweep: exit fraction non-increasing under refinement (2 SE)",
            ok,
            ", ".join(f"{f:.4f}" for f, _ in stats),
        )

    def test_ac4_dead_zone_shift_properties(self, criterion):
        x = np.linspace(-10.0, 10.0, 10**4)
        failures = 0
        for eps in (1e-3, 1e-1, 1.0):
            y = phi_eps(x, eps)
            dead = np.abs(x) <= eps
            failures += int(np.sum(y[dead] != 0.0))
            failures += int(np.sum(np.abs(y - x) > eps + 1e-12))
            failures += int(np.sum(np.abs(np.diff(y)) > np.abs(np.diff(x)) + 1e-12))
        criterion(
            "AC4 dead-zone shift: zero on the dead zone, eps-close, 1-Lipschitz",
            failures == 0,
            f"{failures} grid failures",
        )

    def test_ac5_retraction_bounds(self, criterion):
        rng = np.random.default_rng(0)
        dim, pairs = 32, 10_000
        bad_expansive = bad_range = 0
        for _ in range(pairs):
            n = rng.uniform(0.5, 8.0)
            x = StateVec(rng.normal(scale=10.0, size=dim))
            y = StateVec(rng.normal(scale=10.0, size=dim))
            rx, ry = retract(x, n), retract(y, n)
            gap = np.linalg.norm(x.coords - y.coords)
            if np.linalg.norm(rx.coords - ry.coords) > (1.0 + 1e-12) * gap:
                bad_expansive += 1
            if max(np.linalg.norm(rx.coords), np.linalg.norm(ry.coords)) > n * (1 + 1e-12):
                bad_range += 1
        criterion(
            "AC5 retraction: nonexpansive and norm-bounded over 10^4 random pairs",
            bad_expansive == 0 and bad_range == 0,
            f"expansive {bad_expansive}, out of range {bad_range}",
        )

    def test_ac6_envelope_composition(self, criterion):
        def f(v):
            return min(abs(float(v.coords[0])), 1.0)

        spec = SearchSpec(lipschitz=1.0, sup_bound=1.0)
        p = SupInfParams(lam=1e-2, mu=1e-3)

        def closed_form(x):
            ax = abs(x)
            hub = ax * ax / (2 * p.lam) if ax <= p.lam else ax - p.lam / 2
            return min(hub, 1.0)

        grid = np.linspace(-2.0, 2.0, 41)
        env_err = max(
            abs(inf_convolve(f, p.lam, StateVec(np.array([x])), spec) - closed_form(x))
            for x in grid
        )

        xs = np.linspace(-1.5, 1.5, 41)
        sup_err = 0.0
        derivs = []
        delta = 1e-3
        for x in xs:
            g = sup_inf_convolve(f, p, StateVec(np.array([x])), spec)
            sup_err = max(sup_err, abs(g - f(StateVec(np.array([x])))))
            g_hi = sup_inf_convolve(f, p, StateVec(np.array([x + delta])), spec)
            g_lo = sup_inf_convolve(f, p, StateVec(np.array([x - delta])), spec)
            derivs.append((g_hi - g_lo) / (2 * delta))
        grad_lip = float(np.max(np.abs(np.diff(derivs)) / np.diff(xs)))
        ok = env_err <= 1e-6 and sup_err <= 0.05 and grad_lip <= 1.05 / p.mu
        criterion(
            "AC6 envelopes: closed form 1e-6, sup-error 0.05, gradient Lipschitz 1.05/mu",
            ok,
            f"closed-form {env_err:.2e}, sup {sup_err:.4f}, grad-Lip {grad_lip:.1f} (cap {1.05 / p.mu:.0f})",
        )

    def test_ac7_mollifier_suite(self, criterion):
        results = suite_mollify(face_points=64)
        failing = [r.name for r in results if not r.passed]
        criterion(
            "AC7 mollifier: constants, affine maps, face-local parallelism (64 points)",
            not failing,
            f"{len(results) - len(failing)}/{len(results)} properties"
            + (f", failing: {', '.join(failing)}" if failing else ""),
        )

    def test_ac8_noise_drift_suite(self, criterion):
        results = suite_rho(face_points=64)
        failing = [r.name for r in results if not r.passed]
        criterion(
            "AC8 noise-induced drift: analytic vs differenced, face pairing (64 points)",
            not failing,
            f"{len(results) - len(failing)}/{len(results)} properties"
            + (f", failing: {', '.join(failing)}" if failing else ""),
        )

    def test_ac9_projected_drift_converges(self, criterion, heat16, cone16, flat_noise8):
        from conespde import SimConfig
        from conespde.coefficients import ProportionalMap

        b = np.array([2.0 ** (-k) for k in range(1, 17)])
        drift = MeanReversionMap(1.0, b)
        vols = tuple(ProportionalMap(0.3, j, 16) for j in range(8))
        limit = CoefficientSet(drift, vols)
        seq = [
            CoefficientSet(ProjectedMap(drift, n), vols) for n in (2, 4, 8, 16)
        ]
        config = SimConfig(dt=1e-3, horizon=1.0, paths=200)
        out = stability_experiment(
            heat16, limit, seq, flat_noise8, cone16, config, StateVec(np.full(16, 1.0))
        )
        means = [r.mean for r in out]
        ses = [r.stderr for r in out]
        decreasing = all(m2 < m1 for m1, m2 in zip(means, means[1:]))
        buffered = all(
            means[i + 1] <= means[i] + 2.0 * np.hypot(ses[i], ses[i + 1])
            for i in range(len(means) - 1)
        )
        exact_zero = means[-1] == 0.0 and ses[-1] == 0.0
        criterion(
            "AC9 projected drift: coupled error strictly decreasing, exactly 0 at full level",
            decreasing and buffered and exact_zero,
            ", ".join(f"{m:.2e}" for m in means),
        )

    def test_ac10_boundary_compatibility(self, criterion, heat16, cone16, compliant_coeffs):
        rng = np.random.default_rng(0)
        u = rng.normal(size=8)
        u /= np.linalg.norm(u)
        spec = SamplerSpec(points_per_face=1, interior_points=0, seed=1, include_corners=False)
        pairs = [
            (theta, k, StateVec(row))
            for theta, k, H in sample_boundary_pairs(cone16, spec)
            for row in H
        ]
        worst = 0.0
        for theta, k, h in pairs:
            sigma = compliant_coeffs.drift.eval_array(h.coords)
            sigma = sigma - stratonovich_correction(compliant_coeffs, h).coords
            for j, col in enumerate(compliant_coeffs.vol_columns):
                sigma = sigma + u[j] * col.eval_array(h.coords)
            worst = max(worst, ssnc_estimate(heat16, sigma, cone16, h))
        _, k0, h0 = pairs[0]
        outward = np.zeros(16)
        outward[k0] = -1.0
        pushed = ssnc_estimate(heat16, outward, cone16, h0)
        ok = len(pairs) == 16 and worst <= 1e-4 and pushed >= 0.5
        criterion(
            "AC10 compatibility: full field inward at every face, outward push detected",
            ok,
            f"{len(pairs)} faces, worst inward {worst:.2e}, outward {pushed:.3f}",
        )

    def test_ac11_verify_reproducible(self, criterion, tmp_path):
        runner = CliRunner()
        args = ["verify", "--preset", "heat-positive-badvol", "--paths", "60"]
        res_a = runner.invoke(cli, args + ["--out", str(tmp_path / "a")])
        res_b = runner.invoke(cli, args + ["--out", str(tmp_path / "b")])
        names = ["paths_dt4x.csv", "paths_dt2x.csv", "paths_dt1x.csv", "sweep.csv"]
        same = res_a.exit_code == 0 and res_b.exit_code == 0 and all(
            (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
            for n in names
        )
        criterion(
            "AC11 repeat verify: identical CSV bytes for the same config and seed",
            same,
            f"{len(names)} files compared",
        )
