"""Path simulation: noise specs, the exponential-Euler stepper, coupled
stability runs, and the short-time compatibility estimate.

Closed forms used as oracles:

* zero coefficients reduce the scheme to the exact semigroup flow;
* constant drift against a diagonal rate has the affine ODE solution
  ``b/c + (h0 - b/c) exp(-cT)``, approached at first order in dt;
* compensated jumps with a state-independent kernel leave the mean at
  the initial state for every dt.
"""

import tracemalloc

import numpy as np
import pytest

from conespde import (
    ConeSpec,
    ConfigError,
    DiagonalSemigroup,
    DomainError,
    NoiseSpec,
    ShapeError,
    SimConfig,
    StateVec,
    simulate,
)
from conespde.coefficients import (
    AffineMap,
    CoefficientSet,
    ConstantMap,
    MeanReversionMap,
    ProjectedMap,
    ProportionalMap,
    ZeroMap,
)
from conespde.semigroup import LiminfGrid
from conespde.simulate import (
    _draw_noise,
    _path_stream,
    run_ensemble,
    ssnc_estimate,
    stability_experiment,
)

FREE2 = ConeSpec(np.array([0, 0]))
NO_NOISE = NoiseSpec(())


class TestNoiseSpec:
    def test_dyadic_halves(self):
        spec = NoiseSpec.dyadic(4, seed=7)
        assert spec.eigenvalues == (0.5, 0.25, 0.125, 0.0625)
        assert spec.count == 4
        assert spec.trace == pytest.approx(1.0 - 2.0**-4)
        assert spec.seed == 7

    def test_flat(self):
        spec = NoiseSpec.flat(3, 0.2)
        assert spec.eigenvalues == (0.2, 0.2, 0.2)
        assert spec.trace == pytest.approx(0.6)

    def test_eigenvalues_positive(self):
        with pytest.raises(DomainError):
            NoiseSpec((1.0, 0.0))

    @pytest.mark.parametrize("lam", [float("inf"), float("nan")])
    def test_eigenvalues_finite(self, lam):
        with pytest.raises(DomainError):
            NoiseSpec((1.0, lam))

    def test_seed_nonnegative(self):
        with pytest.raises(DomainError):
            NoiseSpec((1.0,), seed=-1)


class TestSimConfig:
    def test_steps(self):
        assert SimConfig(dt=1e-3, horizon=1.0, paths=1).steps == 1000
        assert SimConfig(dt=0.5, horizon=0.5, paths=1).steps == 1

    def test_non_integer_steps_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(dt=0.3, horizon=1.0, paths=1)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            SimConfig(dt=0.0, horizon=1.0, paths=1)
        with pytest.raises(DomainError):
            SimConfig(dt=0.1, horizon=1.0, paths=0)
        with pytest.raises(DomainError):
            SimConfig(dt=0.1, horizon=1.0, paths=1, exit_tol=-1e-9)

    @pytest.mark.parametrize("name", ["dt", "horizon", "exit_tol", "guard"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, name, value):
        fields = {"dt": 0.1, "horizon": 1.0, "paths": 1, name: value}
        with pytest.raises(DomainError, match=name):
            SimConfig(**fields)


class TestNoiseDraws:
    def test_shapes_and_dtypes(self):
        rng, _ = _path_stream(0, 0)
        normals, counts = _draw_noise(rng, 50, 3, np.array([0.05, 0.1]))
        assert normals.shape == (50, 3) and normals.dtype == np.float64
        assert counts.shape == (50, 2) and counts.dtype == np.int64

    def test_moments(self):
        rng, _ = _path_stream(1, 0)
        S = 100_000
        normals, counts = _draw_noise(rng, S, 2, np.array([0.05]))
        # sample variance of a standard normal: SE ~ sqrt(2/S)
        assert abs(np.var(normals) - 1.0) <= 4.0 * np.sqrt(2.0 / (2 * S))
        assert abs(np.mean(normals)) <= 4.0 / np.sqrt(2 * S)
        # Poisson(0.05) mean: SE = sqrt(lam/S)
        assert abs(np.mean(counts) - 0.05) <= 4.0 * np.sqrt(0.05 / S)

    def test_stream_independent_of_other_paths(self):
        # path 3's stream does not depend on how many paths ran before it
        a = _path_stream(42, 3)[0].standard_normal(8)
        b = _path_stream(42, 3)[0].standard_normal(8)
        np.testing.assert_array_equal(a, b)
        assert _path_stream(42, 3)[1] == _path_stream(42, 3)[1]
        assert _path_stream(42, 3)[1] != _path_stream(42, 4)[1]


class TestSchemeExactness:
    def test_zero_coefficients_follow_semigroup(self):
        sg = DiagonalSemigroup.heat(4)
        K = ConeSpec.nonnegative(4)
        coeffs = CoefficientSet(ZeroMap(4))
        h0 = StateVec(np.array([1.0, 2.0, 3.0, 4.0]))
        config = SimConfig(dt=1e-3, horizon=1.0, paths=3)
        ens = run_ensemble(coeffs, sg, NO_NOISE, K, config, h0)
        want = sg.apply(1.0, h0).coords
        for row in ens.final:
            np.testing.assert_allclose(row, want, rtol=1e-12)
        # no randomness: every path identical bitwise
        assert np.array_equal(ens.final[0], ens.final[1])
        assert ens.exit_fraction == 0.0

    def test_constant_drift_matches_ode(self):
        sg = DiagonalSemigroup(np.array([1.0, 2.0]))
        b = np.array([1.0, 0.5])
        coeffs = CoefficientSet(ConstantMap(b))
        h0 = StateVec(np.array([2.0, -1.0]))
        exact = b / sg.rates + (h0.coords - b / sg.rates) * np.exp(-sg.rates)

        def err(dt):
            config = SimConfig(dt=dt, horizon=1.0, paths=1)
            ens = run_ensemble(coeffs, sg, NO_NOISE, FREE2, config, h0)
            return np.abs(ens.final[0] - exact)

        ratio = err(1e-2) / err(1e-3)
        assert np.all(ratio > 6.0) and np.all(ratio < 15.0)

    def test_compensated_jumps_preserve_mean(self):
        sg = DiagonalSemigroup(np.zeros(2))
        v = np.array([0.5, -0.25])
        coeffs = CoefficientSet(ZeroMap(2), (), ((1.0, ConstantMap(v)),))
        h0 = StateVec(np.array([1.0, -1.0]))
        config = SimConfig(dt=0.05, horizon=1.0, paths=10_000)
        ens = run_ensemble(coeffs, sg, NoiseSpec((), seed=11), FREE2, config, h0)
        mean = ens.final.mean(axis=0)
        se = ens.final.std(axis=0, ddof=1) / np.sqrt(config.paths)
        assert np.all(np.abs(mean - h0.coords) <= 4.0 * se)


class TestDeterminism:
    def test_repeat_runs_bitwise_equal(self, heat16, cone16, compliant_coeffs, flat_noise8, quick_sim):
        h0 = StateVec(np.full(16, 1.0))
        a = run_ensemble(compliant_coeffs, heat16, flat_noise8, cone16, quick_sim, h0)
        b = run_ensemble(compliant_coeffs, heat16, flat_noise8, cone16, quick_sim, h0)
        assert np.array_equal(a.final, b.final)
        assert np.array_equal(a.min_margin, b.min_margin)
        assert np.array_equal(a.first_exit, b.first_exit)
        assert np.array_equal(a.seeds, b.seeds)

    def test_chunk_size_invariant(
        self, monkeypatch, heat16, cone16, compliant_coeffs, flat_noise8
    ):
        h0 = StateVec(np.full(16, 1.0))
        config = SimConfig(dt=1e-3, horizon=0.05, paths=32)
        a = run_ensemble(compliant_coeffs, heat16, flat_noise8, cone16, config, h0)
        monkeypatch.setattr(simulate, "_CHUNK", 5)
        b = run_ensemble(compliant_coeffs, heat16, flat_noise8, cone16, config, h0)
        assert np.array_equal(a.final, b.final)

    def test_peak_memory_holds_one_chunk(
        self, monkeypatch, heat16, cone16, compliant_coeffs, flat_noise8
    ):
        # Each chunk's noise arrays are released before the next chunk is
        # drawn, so four chunks peak about where one chunk does.
        h0 = StateVec(np.full(16, 1.0))
        monkeypatch.setattr(simulate, "_CHUNK", 16)

        def peak(paths):
            config = SimConfig(dt=1e-3, horizon=0.5, paths=paths)
            tracemalloc.start()
            try:
                run_ensemble(compliant_coeffs, heat16, flat_noise8, cone16, config, h0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(16)  # warm-up: first-call allocations are not the ensemble's
        chunk_normals = 16 * 500 * 8 * 8
        assert peak(64) < peak(16) + chunk_normals // 2

    def test_first_path_is_a_slice(self, heat16, cone16, compliant_coeffs, flat_noise8):
        h0 = StateVec(np.full(16, 1.0))
        full = run_ensemble(
            compliant_coeffs, heat16, flat_noise8, cone16,
            SimConfig(dt=1e-3, horizon=0.05, paths=8), h0,
        )
        part = run_ensemble(
            compliant_coeffs, heat16, flat_noise8, cone16,
            SimConfig(dt=1e-3, horizon=0.05, paths=2), h0, first_path=3,
        )
        assert np.array_equal(part.final, full.final[3:5])
        assert np.array_equal(part.seeds, full.seeds[3:5])

    def test_single_path_matches_ensemble_row(
        self, heat16, cone16, compliant_coeffs, flat_noise8
    ):
        h0 = StateVec(np.full(16, 1.0))
        full = run_ensemble(
            compliant_coeffs, heat16, flat_noise8, cone16,
            SimConfig(dt=1e-3, horizon=0.05, paths=6), h0,
        )
        one = run_ensemble(
            compliant_coeffs, heat16, flat_noise8, cone16,
            SimConfig(dt=1e-3, horizon=0.05, paths=1), h0, first_path=5,
        )
        assert np.array_equal(one.final[0], full.final[5])


class TestDimChecks:
    def test_noise_count_must_match_columns(self, heat16, cone16, compliant_coeffs):
        h0 = StateVec(np.full(16, 1.0))
        config = SimConfig(dt=1e-3, horizon=0.01, paths=1)
        with pytest.raises(ShapeError):
            run_ensemble(compliant_coeffs, heat16, NoiseSpec.flat(3), cone16, config, h0)

    def test_semigroup_dim_must_match(self, cone16, compliant_coeffs, flat_noise8):
        h0 = StateVec(np.full(16, 1.0))
        config = SimConfig(dt=1e-3, horizon=0.01, paths=1)
        with pytest.raises(ShapeError):
            run_ensemble(
                compliant_coeffs, DiagonalSemigroup.heat(4), flat_noise8, cone16, config, h0
            )


class TestExitsAndMargins:
    def test_compliant_short_run_stays_in(
        self, heat16, cone16, compliant_coeffs, flat_noise8, quick_sim
    ):
        h0 = StateVec(np.full(16, 1.0))
        ens = run_ensemble(compliant_coeffs, heat16, flat_noise8, cone16, quick_sim, h0)
        assert ens.exit_fraction == 0.0
        assert np.all(ens.first_exit == -1)
        assert np.all(np.isnan(ens.exit_times()))

    def test_margin_matches_stored_trajectories(
        self, heat16, cone16, badvol_coeffs, flat_noise8
    ):
        # start at the origin, where the constant column pushes straight
        # through the first face
        h0 = StateVec(np.zeros(16))
        config = SimConfig(
            dt=1e-3, horizon=0.05, paths=8, store_trajectories=True,
        )
        noise9 = NoiseSpec.flat(9, 1.0, seed=0)
        ens = run_ensemble(badvol_coeffs, heat16, noise9, cone16, config, h0)
        assert ens.trajectories.shape == (8, config.steps + 1, 16)
        # orthant margins are plain coordinate minima per step
        recomputed = ens.trajectories.min(axis=2).min(axis=1)
        np.testing.assert_array_equal(ens.min_margin, recomputed)
        np.testing.assert_array_equal(ens.trajectories[:, -1], ens.final)

    def test_exit_count_monotone_in_tolerance(self, heat16, cone16, badvol_coeffs):
        h0 = StateVec(np.zeros(16))
        noise9 = NoiseSpec.flat(9, 1.0, seed=0)

        def exits(tol):
            config = SimConfig(dt=1e-3, horizon=0.2, paths=64, exit_tol=tol)
            ens = run_ensemble(badvol_coeffs, heat16, noise9, cone16, config, h0)
            return int(np.sum(ens.exited))

        # same noise either way, so the comparison is pathwise
        strict, loose = exits(0.0), exits(0.05)
        assert strict >= loose
        assert strict > 0

    def test_exit_step_is_first_crossing(self, heat16, cone16, badvol_coeffs):
        h0 = StateVec(np.zeros(16))
        noise9 = NoiseSpec.flat(9, 1.0, seed=0)
        config = SimConfig(
            dt=1e-3, horizon=0.2, paths=16, store_trajectories=True,
        )
        ens = run_ensemble(badvol_coeffs, heat16, noise9, cone16, config, h0)
        assert np.any(ens.exited)
        margins = ens.trajectories.min(axis=2)
        for p in range(16):
            crossings = np.flatnonzero(margins[p] < -config.exit_tol)
            if ens.first_exit[p] < 0:
                assert crossings.size == 0
            else:
                assert ens.first_exit[p] == crossings[0]


class TestDivergence:
    def _explosive(self):
        # growth factor ~6 per step at dt = 0.05 crosses a 1e6 guard fast
        return CoefficientSet(AffineMap(100.0 * np.eye(2), np.zeros(2)))

    def test_ensemble_records_and_freezes(self):
        sg = DiagonalSemigroup(np.zeros(2))
        config = SimConfig(dt=0.05, horizon=1.0, paths=3, guard=1e6)
        ens = run_ensemble(self._explosive(), sg, NO_NOISE, FREE2, config, StateVec(np.ones(2)))
        assert np.all(ens.diverged > 0)
        # frozen at the last pre-overflow state, not at infinity
        assert np.all(np.abs(ens.final) <= config.guard)
        assert np.all(np.isfinite(ens.final))


class TestStability:
    def _system(self):
        dim = 4
        sg = DiagonalSemigroup.heat(dim)
        K = ConeSpec.nonnegative(dim)
        b = np.full(dim, 0.5)
        drift = MeanReversionMap(1.0, b)
        vols = tuple(ProportionalMap(0.3, j, dim) for j in range(2))
        limit = CoefficientSet(drift, vols)
        return sg, K, limit

    def test_identical_entry_scores_exactly_zero(self):
        sg, K, limit = self._system()
        config = SimConfig(dt=1e-2, horizon=0.1, paths=8)
        coarse = CoefficientSet(ProjectedMap(limit.drift, 2), limit.vol_columns)
        out = stability_experiment(
            sg, limit, [coarse, limit], NoiseSpec.flat(2, 1.0, seed=3), K,
            config, StateVec(np.full(4, 1.0)),
        )
        assert out[0].mean > 0.0
        assert out[1].mean == 0.0 and out[1].stderr == 0.0
        assert np.all(out[1].per_path == 0.0)
        assert out[0].index == 0 and out[1].index == 1

    def test_limit_simulated_once(self, monkeypatch):
        sg, K, limit = self._system()
        config = SimConfig(dt=1e-2, horizon=0.1, paths=4)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return run_ensemble(*args, **kwargs)

        monkeypatch.setattr(simulate, "run_ensemble", counted)
        seq = [CoefficientSet(ProjectedMap(limit.drift, n), limit.vol_columns) for n in (1, 2, 3)]
        noise, h0 = NoiseSpec.flat(2, 1.0, seed=3), StateVec(np.full(4, 1.0))
        out = stability_experiment(sg, limit, seq, noise, K, config, h0)
        assert stability_experiment(sg, limit, [], noise, K, config, h0) == []
        assert len(calls) == len(seq) + 1
        assert all(ran is system for ran, system in zip(calls, [limit, *seq]))
        # the one limit run is the run each entry used to repeat
        stored = SimConfig(dt=1e-2, horizon=0.1, paths=4, store_trajectories=True)
        base = run_ensemble(limit, sg, noise, K, stored, h0).trajectories
        for entry, res in zip(seq, out):
            diff = base - run_ensemble(entry, sg, noise, K, stored, h0).trajectories
            assert np.array_equal(res.per_path, np.max(np.sum(diff * diff, axis=2), axis=1))

    def test_dim_mismatch_rejected(self):
        sg, K, limit = self._system()
        config = SimConfig(dt=1e-2, horizon=0.1, paths=2)
        with pytest.raises(ShapeError):
            stability_experiment(
                sg, limit, [CoefficientSet(ZeroMap(3))], NoiseSpec.flat(2, 1.0), K,
                config, StateVec(np.full(4, 1.0)),
            )


class TestSsncEstimate:
    def test_zero_field_scores_zero(self, heat16, cone16):
        h = StateVec(np.full(16, 1.0))
        assert ssnc_estimate(heat16, np.zeros(16), cone16, h) == 0.0

    def test_inward_push_scores_zero(self, heat16, cone16):
        coords = np.full(16, 1.0)
        coords[1] = 0.0
        h = StateVec(coords)
        inward = np.zeros(16)
        inward[1] = 1.0
        assert ssnc_estimate(heat16, inward, cone16, h) == 0.0

    def test_outward_push_scores_unit_rate(self, heat16, cone16):
        # Sigma = -e_1 at a face point: the moved state dips below the
        # face linearly in t, so every grid ratio is exactly 1
        coords = np.full(16, 1.0)
        coords[1] = 0.0
        h = StateVec(coords)
        outward = np.zeros(16)
        outward[1] = -1.0
        est = ssnc_estimate(heat16, outward, cone16, h)
        assert est == pytest.approx(1.0, rel=1e-12)
        assert est >= 0.5

    def test_callable_sigma_accepted(self, heat16, cone16):
        h = StateVec(np.full(16, 1.0))
        est = ssnc_estimate(heat16, lambda v: StateVec(np.zeros(16)), cone16, h)
        assert est == 0.0

    def test_state_must_be_in_cone(self, heat16, cone16):
        coords = np.full(16, 1.0)
        coords[3] = -0.5
        with pytest.raises(DomainError):
            ssnc_estimate(heat16, np.zeros(16), cone16, StateVec(coords))

    def test_sigma_shape_checked(self, heat16, cone16):
        h = StateVec(np.full(16, 1.0))
        with pytest.raises(ShapeError):
            ssnc_estimate(heat16, np.zeros(4), cone16, h)

    def test_custom_grid(self, heat16, cone16):
        coords = np.full(16, 1.0)
        coords[1] = 0.0
        h = StateVec(coords)
        outward = np.zeros(16)
        outward[1] = -1.0
        grid = LiminfGrid(t0=0.2, ratio=0.5, points=5)
        assert ssnc_estimate(heat16, outward, cone16, h, grid) == pytest.approx(1.0)
