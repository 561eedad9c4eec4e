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
from test_kernels import assert_matches_rows, ensemble_rows

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
    GatedOffsetMap,
    MeanReversionMap,
    ProjectedMap,
    ProportionalMap,
    SumMap,
    ZeroMap,
)
from conespde.kernels import KernelState, StepPlan, step_ensemble
from conespde.simulate import (
    _count_stream,
    _draw_noise,
    _path_stream,
    run_ensemble,
    run_sweep,
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
        assert spec.seed == 7

    def test_flat(self):
        spec = NoiseSpec.flat(3, 0.2)
        assert spec.eigenvalues == (0.2, 0.2, 0.2)

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


def projected_drift(coeffs, level):
    """``coeffs`` with its drift projected onto the first ``level``
    coordinates."""
    return CoefficientSet(ProjectedMap(coeffs.drift, level), coeffs.vol_columns, coeffs.jump_atoms)


def draw(seed, p, steps, n_vols, lam, splits=()):
    """Path ``p``'s normals and counts for ``steps`` steps, drawn in
    consecutive blocks that end at the step indices ``splits``."""
    normals = np.zeros((steps, n_vols))
    counts = np.zeros((steps, len(lam)), dtype=np.int64)
    rng, _ = _path_stream(seed, p)
    count_rng = _count_stream(seed, p)
    bounds = [0, *splits, steps]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        _draw_noise(rng, count_rng, normals[lo:hi], counts[lo:hi], lam)
    return normals, counts


class TestNoiseDraws:
    def test_shapes_and_dtypes(self):
        normals = np.zeros((50, 3))
        counts = np.full((50, 2), -1, dtype=np.int64)
        rng, _ = _path_stream(0, 0)
        _draw_noise(rng, _count_stream(0, 0), normals, counts, np.array([0.05, 0.1]))
        assert np.all(normals != 0.0)
        assert np.all(counts >= 0)

    def test_moments(self):
        S = 100_000
        normals, counts = draw(1, 0, S, 2, np.array([0.05]))
        # sample variance of a standard normal: SE ~ sqrt(2/S)
        assert abs(np.var(normals) - 1.0) <= 4.0 * np.sqrt(2.0 / (2 * S))
        assert abs(np.mean(normals)) <= 4.0 / np.sqrt(2 * S)
        # Poisson(0.05) mean: SE = sqrt(lam/S)
        assert abs(np.mean(counts) - 0.05) <= 4.0 * np.sqrt(0.05 / S)

    def test_stream_independent_of_other_paths(self):
        # path 3's streams do not depend on how many paths ran before it
        a = _path_stream(42, 3)[0].standard_normal(8)
        b = _path_stream(42, 3)[0].standard_normal(8)
        np.testing.assert_array_equal(a, b)
        assert _path_stream(42, 3)[1] == _path_stream(42, 3)[1]
        assert _path_stream(42, 3)[1] != _path_stream(42, 4)[1]
        np.testing.assert_array_equal(
            _count_stream(42, 3).poisson(2.0, 8), _count_stream(42, 3).poisson(2.0, 8)
        )
        # the counts stream is the first child of the path's SeedSequence
        child = np.random.SeedSequence(42, spawn_key=(3,)).spawn(1)[0]
        np.testing.assert_array_equal(
            _count_stream(42, 3).random(8), np.random.default_rng(child).random(8)
        )
        assert not np.array_equal(_count_stream(42, 3).random(8), _path_stream(42, 3)[0].random(8))
        assert not np.array_equal(_count_stream(42, 3).random(8), _count_stream(42, 4).random(8))

    @pytest.mark.parametrize("lam", [[0.3], [0.3, 1.5]], ids=["one-atom", "two-atoms"])
    def test_blocks_give_the_whole_draw(self, lam):
        # the block length changes memory only, never the numbers
        whole = draw(7, 2, 100, 3, np.array(lam))
        split = draw(7, 2, 100, 3, np.array(lam), splits=(1, 32, 65))
        for a, b in zip(whole, split):
            assert a.tobytes() == b.tobytes()


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
        assert not ens.exited.any()

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
        coarse = projected_drift(compliant_coeffs, 4)

        def distances():
            return stability_experiment(
                heat16, compliant_coeffs, [coarse], flat_noise8, cone16, config, h0
            )[0].per_path

        a = run_ensemble(compliant_coeffs, heat16, flat_noise8, cone16, config, h0)
        sup_a = distances()
        monkeypatch.setattr(simulate, "_CHUNK", 5)
        b = run_ensemble(compliant_coeffs, heat16, flat_noise8, cone16, config, h0)
        # 7-step blocks for 5-path chunks of 8 normals and 1 count per step
        monkeypatch.setattr(simulate, "_NOISE_BYTES", 8 * 5 * 9 * 7)
        c = run_ensemble(compliant_coeffs, heat16, flat_noise8, cone16, config, h0)
        # and for two lanes that also record 16 coordinates per step
        monkeypatch.setattr(simulate, "_NOISE_BYTES", 8 * 5 * (9 + 2 * 16) * 7)
        sup_c = distances()
        ref = ensemble_rows(compliant_coeffs, heat16, flat_noise8, cone16, config, h0)
        for ens in (a, b, c):
            assert_matches_rows(ens, ref)
            assert np.array_equal(a.seeds, ens.seeds)
        assert np.all(sup_a > 0.0)
        assert sup_c.tobytes() == sup_a.tobytes()

    def test_peak_memory_holds_one_block(
        self, monkeypatch, heat16, cone16, compliant_coeffs, flat_noise8
    ):
        # Each chunk draws its noise one time block at a time, so two
        # chunks four times as long peak less than one block above one
        # short chunk: memory holds one chunk x one block.
        h0 = StateVec(np.full(16, 1.0))
        monkeypatch.setattr(simulate, "_CHUNK", 16)
        block = 16 * 50 * (8 + 1) * 8  # 50 steps of 8 normals and 1 count
        monkeypatch.setattr(simulate, "_NOISE_BYTES", block)

        def peak(horizon, paths):
            config = SimConfig(dt=1e-3, horizon=horizon, paths=paths)
            tracemalloc.start()
            try:
                run_ensemble(compliant_coeffs, heat16, flat_noise8, cone16, config, h0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(0.1, 16)  # warm-up: first-call allocations are not the ensemble's
        assert peak(2.0, 32) < peak(0.5, 16) + block

    def test_stability_memory_holds_one_block(
        self, monkeypatch, heat16, cone16, compliant_coeffs, flat_noise8
    ):
        # Each lane records its rows one block at a time and the distances
        # fold into one running sup per path, so a horizon four times as
        # long peaks less than one block above the short one.
        h0 = StateVec(np.full(16, 1.0))
        coarse = projected_drift(compliant_coeffs, 4)
        monkeypatch.setattr(simulate, "_CHUNK", 16)
        # 50 steps of 8 normals, 1 count and two lanes' 16-coordinate rows
        block = 16 * 50 * (8 + 1 + 2 * 16) * 8
        monkeypatch.setattr(simulate, "_NOISE_BYTES", block)

        def peak(horizon):
            config = SimConfig(dt=1e-3, horizon=horizon, paths=32)
            tracemalloc.start()
            try:
                stability_experiment(
                    heat16, compliant_coeffs, [coarse], flat_noise8, cone16, config, h0
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(0.1)  # warm-up: first-call allocations are not the experiment's
        assert peak(2.0) < peak(0.5) + block

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


class TestSweep:
    def test_levels_are_summed_fine_draws(self, heat16, cone16, badvol_coeffs):
        # each level equals the kernel run on explicitly summed fine draws
        noise9 = NoiseSpec.flat(9, 1.0, seed=4)
        h0 = StateVec(np.zeros(16))
        config = SimConfig(dt=1e-3, horizon=0.04, paths=6)
        levels = run_sweep(badvol_coeffs, heat16, noise9, cone16, config, h0, (4, 2, 1))
        lam = badvol_coeffs.jump_weights * config.dt
        fine = [draw(noise9.seed, p, 40, 9, lam) for p in range(6)]
        xi = np.stack([n for n, _ in fine])
        counts = np.stack([c for _, c in fine])
        for f, ens in zip((4, 2, 1), levels):
            summed = xi[:, 0::f].copy()
            for i in range(1, f):
                summed += xi[:, i::f]
            if f > 1:
                summed /= np.sqrt(f)
            summed_counts = sum(counts[:, i::f] for i in range(f))
            cfg = SimConfig(dt=config.dt * f, horizon=config.horizon, paths=6)
            plan = StepPlan.build(badvol_coeffs, heat16, noise9, cone16, cfg)
            state = KernelState.start(plan, np.zeros((6, 16)))
            step_ensemble(plan, state, summed, summed_counts)
            assert ens.dt == cfg.dt and ens.steps == 40 // f
            assert ens.final.tobytes() == state.r.tobytes()
            assert ens.min_margin.tobytes() == state.runmin.tobytes()
            assert np.array_equal(ens.first_exit, state.first_exit)
            assert np.array_equal(ens.diverged, state.diverged)
        assert np.any(levels[0].exited)
        one = run_ensemble(badvol_coeffs, heat16, noise9, cone16, config, h0)
        assert one.final.tobytes() == levels[2].final.tobytes()
        assert np.array_equal(one.seeds, levels[0].seeds)

    def test_factor_must_divide_the_steps(self, heat16, cone16, compliant_coeffs, flat_noise8):
        config = SimConfig(dt=1e-3, horizon=0.01, paths=2)
        with pytest.raises(ConfigError):
            run_sweep(compliant_coeffs, heat16, flat_noise8, cone16, config,
                      StateVec(np.ones(16)), (4, 1))


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
        assert not ens.exited.any()
        assert np.all(ens.first_exit == -1)

    def test_margin_matches_stored_trajectories(
        self, heat16, cone16, badvol_coeffs, flat_noise8
    ):
        # start at the origin, where the constant column pushes straight
        # through the first face
        h0 = StateVec(np.zeros(16))
        config = SimConfig(dt=1e-3, horizon=0.05, paths=8)
        noise9 = NoiseSpec.flat(9, 1.0, seed=0)
        ens = run_ensemble(badvol_coeffs, heat16, noise9, cone16, config, h0)
        ref = ensemble_rows(badvol_coeffs, heat16, noise9, cone16, config, h0)
        assert_matches_rows(ens, ref)
        traj = ref["traj"]
        assert traj.shape == (8, config.steps + 1, 16)
        # orthant margins are plain coordinate minima per step
        recomputed = traj.min(axis=2).min(axis=1)
        np.testing.assert_array_equal(ens.min_margin, recomputed)
        np.testing.assert_array_equal(traj[:, -1], ens.final)

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
        config = SimConfig(dt=1e-3, horizon=0.2, paths=16)
        ens = run_ensemble(badvol_coeffs, heat16, noise9, cone16, config, h0)
        ref = ensemble_rows(badvol_coeffs, heat16, noise9, cone16, config, h0)
        assert_matches_rows(ens, ref)
        assert np.any(ens.exited)
        margins = ref["traj"].min(axis=2)
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

    def test_noise_is_drawn_once(self, monkeypatch):
        # the limit and every entry are lanes of one run over one set of
        # draws: each path's stream is made once, not once per system
        sg, K, limit = self._system()
        config = SimConfig(dt=1e-2, horizon=0.1, paths=4)
        calls = []
        real = simulate._path_stream

        def counted(seed, p):
            calls.append(p)
            return real(seed, p)

        monkeypatch.setattr(simulate, "_path_stream", counted)
        seq = [CoefficientSet(ProjectedMap(limit.drift, n), limit.vol_columns) for n in (1, 2, 3)]
        noise, h0 = NoiseSpec.flat(2, 1.0, seed=3), StateVec(np.full(4, 1.0))
        out = stability_experiment(sg, limit, seq, noise, K, config, h0)
        assert calls == list(range(config.paths))
        assert stability_experiment(sg, limit, [], noise, K, config, h0) == []
        assert calls == list(range(config.paths))
        assert [res.index for res in out] == [0, 1, 2]

    def test_per_path_matches_whole_trajectories(self, monkeypatch):
        # a jump atom, an entry some of whose paths diverge, and 37 paths
        # in 5-path chunks stepped through 7-step blocks
        dim = 3
        drift = SumMap(
            (
                MeanReversionMap(1.0, np.full(dim, 0.5)),
                GatedOffsetMap(np.array([0.0, -2.0, 0.0]), 2, 0.5, 1.5),
            )
        )
        vols = (ProportionalMap(0.5, 0, dim), ProportionalMap(0.3, 1, dim))
        atoms = ((2.0, ConstantMap(np.array([0.2, 0.0, -0.1]))),)
        limit = CoefficientSet(drift, vols, atoms)
        volatile = CoefficientSet(drift, (ProportionalMap(10.0, 0, dim), vols[1]), atoms)
        seq = [projected_drift(limit, 2), volatile, limit]
        sg = DiagonalSemigroup(np.array([0.0, 1.0, 2.0]))
        noise = NoiseSpec.flat(2, 1.0, seed=5)
        K = ConeSpec.nonnegative(dim)
        config = SimConfig(dt=0.02, horizon=2.0, paths=37, guard=1e6)
        h0 = StateVec(np.array([1.0, 0.5, 1.0]))
        monkeypatch.setattr(simulate, "_CHUNK", 5)
        # 2 normals, 1 count and four lanes' 3-coordinate rows per step
        monkeypatch.setattr(simulate, "_NOISE_BYTES", 8 * 5 * (2 + 1 + 4 * 3) * 7)
        out = stability_experiment(sg, limit, seq, noise, K, config, h0)
        # the reference: max_s sum((r_limit - r_entry)^2) over every step
        # of whole-horizon rows
        base = ensemble_rows(limit, sg, noise, K, config, h0)["traj"]
        for entry, res in zip(seq, out):
            diff = base - ensemble_rows(entry, sg, noise, K, config, h0)["traj"]
            want = np.max(np.sum(diff * diff, axis=2), axis=1)
            assert res.per_path.tobytes() == want.tobytes()
        diverged = run_ensemble(volatile, sg, noise, K, config, h0).diverged
        assert 0 < np.sum(diverged > 0) < config.paths
        assert out[0].mean > 0.0 and out[2].mean == 0.0

    def test_jump_weights_must_match_the_limit(self):
        sg, K, limit = self._system()
        atom = ConstantMap(np.full(4, 0.1))
        jumpy = CoefficientSet(limit.drift, limit.vol_columns, ((0.2, atom),))
        heavier = CoefficientSet(limit.drift, limit.vol_columns, ((0.4, atom),))
        config = SimConfig(dt=1e-2, horizon=0.1, paths=2)
        noise, h0 = NoiseSpec.flat(2, 1.0), StateVec(np.full(4, 1.0))
        with pytest.raises(DomainError, match="entry 1 jump weights"):
            stability_experiment(sg, jumpy, [jumpy, heavier], noise, K, config, h0)
        with pytest.raises(DomainError, match="entry 0 jump weights"):
            stability_experiment(sg, jumpy, [limit], noise, K, config, h0)

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

    def test_state_must_be_in_cone(self, heat16, cone16):
        coords = np.full(16, 1.0)
        coords[3] = -0.5
        with pytest.raises(DomainError):
            ssnc_estimate(heat16, np.zeros(16), cone16, StateVec(coords))

    def test_sigma_shape_checked(self, heat16, cone16):
        h = StateVec(np.full(16, 1.0))
        with pytest.raises(ShapeError):
            ssnc_estimate(heat16, np.zeros(4), cone16, h)
