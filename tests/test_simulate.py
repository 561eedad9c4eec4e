"""Path simulation: noise specs, the exponential-Euler stepper, coupled
stability runs, and the short-time compatibility estimate.

Closed forms used as oracles:

* zero coefficients reduce the scheme to the exact semigroup flow;
* constant drift against a diagonal rate has the affine ODE solution
  ``b/c + (h0 - b/c) exp(-cT)``, approached at first order in dt;
* compensated jumps with a state-independent kernel leave the mean at
  the initial state for every dt.
"""

import os
import pickle
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from test_kernels import assert_matches_rows, ensemble_rows

from conespde import (
    ConeSpec,
    ConeSpdeError,
    ConfigError,
    DiagonalSemigroup,
    DomainError,
    NoiseSpec,
    SearchRadiusError,
    ShapeError,
    SimConfig,
    forks,
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
        spec = NoiseSpec.dyadic(4)
        assert spec.eigenvalues == (0.5, 0.25, 0.125, 0.0625)
        assert spec.count == 4
        assert spec.seed == 0

    def test_flat(self):
        spec = NoiseSpec.flat(3, 0.2)
        assert spec.eigenvalues == (0.2, 0.2, 0.2)

    def test_eigenvalues_positive(self):
        with pytest.raises(DomainError):
            NoiseSpec((1.0, 0.0))

    @pytest.mark.parametrize("lam", [float("inf"), float("nan"), True])
    def test_eigenvalues_finite(self, lam):
        with pytest.raises(DomainError):
            NoiseSpec((1.0, lam))

    @pytest.mark.parametrize(
        "lams, message",
        [
            ((1.0, np.float64(2.0), -1.0), "eigenvalues[2] must be > 0, got -1.0"),
            ((1.0, 2.0, float("nan"), 0.0), "eigenvalues[2] must be finite, got nan"),
            ((np.float32(0.5), "1"), "eigenvalues[1] must be a number, got '1'"),
            ((2.0, False), "eigenvalues[1] must be a number, got False"),
        ],
    )
    def test_first_bad_eigenvalue_named(self, lams, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            NoiseSpec(lams)

    def test_eigenvalues_held_as_plain_floats(self):
        spec = NoiseSpec([1, np.float64(0.5), 0.25])
        assert spec.eigenvalues == (1.0, 0.5, 0.25)
        assert {type(lam) for lam in spec.eigenvalues} == {float}

    def test_seed_nonnegative(self):
        with pytest.raises(DomainError):
            NoiseSpec((1.0,), seed=-1)

    @pytest.mark.parametrize(
        "make, count",
        [(NoiseSpec.flat, -2), (NoiseSpec.dyadic, -1)],
        ids=["flat", "dyadic"],
    )
    def test_count_nonnegative(self, make, count):
        # checked before the tuple is built: (1.0,) * -2 is ()
        with pytest.raises(DomainError, match=f"^count must be >= 0, got {count}$"):
            make(count)
        assert make(0).eigenvalues == ()

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, "1", None])
    def test_seed_is_an_integer(self, seed):
        with pytest.raises(DomainError, match="^seed must be an integer"):
            NoiseSpec((), seed=seed)


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

    @pytest.mark.parametrize("paths", [2.5, 2.0, True, "2", None])
    def test_paths_is_an_integer(self, paths):
        with pytest.raises(DomainError, match="^paths must be an integer"):
            SimConfig(dt=0.1, horizon=1.0, paths=paths)

    @pytest.mark.parametrize("name", ["dt", "horizon", "exit_tol", "guard"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True])
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
        h0 = np.array([1.0, 2.0, 3.0, 4.0])
        config = SimConfig(dt=1e-3, horizon=1.0, paths=3)
        ens = run_ensemble(coeffs, sg, NO_NOISE, K, config, h0)
        want = sg.multipliers(1.0) * h0
        for row in ens.final:
            np.testing.assert_allclose(row, want, rtol=1e-12)
        # no randomness: every path identical bitwise
        assert np.array_equal(ens.final[0], ens.final[1])
        assert not ens.exited.any()

    def test_constant_drift_matches_ode(self):
        sg = DiagonalSemigroup(np.array([1.0, 2.0]))
        b = np.array([1.0, 0.5])
        coeffs = CoefficientSet(ConstantMap(b))
        h0 = np.array([2.0, -1.0])
        exact = b / sg.rates + (h0 - b / sg.rates) * np.exp(-sg.rates)

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
        h0 = np.array([1.0, -1.0])
        config = SimConfig(dt=0.05, horizon=1.0, paths=10_000)
        ens = run_ensemble(coeffs, sg, NoiseSpec((), seed=11), FREE2, config, h0)
        mean = ens.final.mean(axis=0)
        se = ens.final.std(axis=0, ddof=1) / np.sqrt(config.paths)
        assert np.all(np.abs(mean - h0) <= 4.0 * se)


class TestDeterminism:
    def test_repeat_runs_bitwise_equal(self, heat16, cone16, compliant_coeffs, flat_noise8, quick_sim):
        h0 = np.full(16, 1.0)
        a = run_ensemble(compliant_coeffs, heat16, flat_noise8, cone16, quick_sim, h0)
        b = run_ensemble(compliant_coeffs, heat16, flat_noise8, cone16, quick_sim, h0)
        assert np.array_equal(a.final, b.final)
        assert np.array_equal(a.min_margin, b.min_margin)
        assert np.array_equal(a.first_exit, b.first_exit)
        assert np.array_equal(a.seeds, b.seeds)

    def test_chunk_size_invariant(
        self, monkeypatch, heat16, cone16, compliant_coeffs, flat_noise8
    ):
        h0 = np.full(16, 1.0)
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

    @pytest.mark.parametrize("sub_block", [1, 18], ids=["one-unit", "ragged"])
    def test_sub_block_invariant(
        self, monkeypatch, heat16, cone16, compliant_coeffs, badvol_coeffs, flat_noise8,
        sub_block,
    ):
        # The engine transposes each block of fine draws in sub-blocks of
        # simulate._SUB_BLOCK steps, rounded down to whole steps of every
        # lane.  1 rounds to one lane unit (4 steps for factors 4, 2, 1,
        # 3 for factors 3, 1); 18 leaves a ragged last sub-block of the
        # 60 steps (16 or 18 steps each, then 12 or 6).  Neither changes
        # a byte of a run, a sweep or the distances a stability run folds
        # from its recorded rows.
        h0 = np.full(16, 1.0)
        noise9 = NoiseSpec((1.0,) * 9, 2)
        config = SimConfig(dt=1e-3, horizon=0.06, paths=12)
        coarse = projected_drift(compliant_coeffs, 4)

        def outputs():
            runs = [
                run_ensemble(compliant_coeffs, heat16, flat_noise8, cone16, config, h0),
                *run_sweep(badvol_coeffs, heat16, noise9, cone16, config, np.zeros(16), (4, 2, 1)),
                *run_sweep(compliant_coeffs, heat16, flat_noise8, cone16, config, h0, (3, 1)),
            ]
            sup = stability_experiment(
                heat16, compliant_coeffs, [coarse], flat_noise8, cone16, config, h0
            )[0].per_path
            fields = ("final", "min_margin", "first_exit", "diverged")
            return [getattr(e, name).tobytes() for e in runs for name in fields], sup

        ref, sup_ref = outputs()
        monkeypatch.setattr(simulate, "_SUB_BLOCK", sub_block)
        got, sup = outputs()
        assert got == ref
        assert np.all(sup_ref > 0.0) and sup.tobytes() == sup_ref.tobytes()

    def test_peak_memory_holds_one_block(
        self, monkeypatch, heat16, cone16, compliant_coeffs, flat_noise8
    ):
        # Each chunk draws its noise one time block at a time, so two
        # chunks four times as long peak less than one block above one
        # short chunk: memory holds one chunk x one block.  One CPU, so
        # this process steps both chunks (see test_worker_memory).
        h0 = np.full(16, 1.0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
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
        # long peaks less than one block above the short one.  One CPU,
        # so this process steps both chunks.
        h0 = np.full(16, 1.0)
        coarse = projected_drift(compliant_coeffs, 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
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
        h0 = np.full(16, 1.0)
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
        h0 = np.full(16, 1.0)
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
        noise9 = NoiseSpec((1.0,) * 9, 4)
        h0 = np.zeros(16)
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
                      np.ones(16), (4, 1))

    @pytest.mark.parametrize(
        "factors, error, message",
        [
            ((2.0,), DomainError, r"factors\[0\] must be an integer, got 2\.0"),
            ((0,), DomainError, r"factors\[0\] must be >= 1, got 0"),
            ((True,), DomainError, r"factors\[0\] must be an integer, got True"),
            ((1, -2), DomainError, r"factors\[1\] must be >= 1, got -2"),
            # checked before a level's SimConfig, whose own message names
            # the level's dt, not the factor
            ((3,), ConfigError, r"sweep factor 3 does not divide the 1000 steps of dt 0\.001"),
        ],
        ids=["float", "zero", "bool", "negative", "not-dividing"],
    )
    def test_factors_checked(
        self, heat16, cone16, compliant_coeffs, flat_noise8, factors, error, message
    ):
        config = SimConfig(dt=1e-3, horizon=1.0, paths=2)
        with pytest.raises(error, match=f"^{message}$"):
            run_sweep(compliant_coeffs, heat16, flat_noise8, cone16, config, np.ones(16), factors)

    def test_no_factors_no_levels(self, heat16, cone16, compliant_coeffs, flat_noise8):
        config = SimConfig(dt=1e-3, horizon=0.01, paths=2)
        assert run_sweep(compliant_coeffs, heat16, flat_noise8, cone16, config, np.ones(16), ()) == []


class TestDimChecks:
    def test_noise_count_must_match_columns(self, heat16, cone16, compliant_coeffs):
        h0 = np.full(16, 1.0)
        config = SimConfig(dt=1e-3, horizon=0.01, paths=1)
        with pytest.raises(ShapeError):
            run_ensemble(compliant_coeffs, heat16, NoiseSpec.flat(3), cone16, config, h0)

    def test_cone_dim_must_match(self, heat16, compliant_coeffs, flat_noise8):
        h0 = np.full(16, 1.0)
        config = SimConfig(dt=1e-3, horizon=0.01, paths=1)
        with pytest.raises(ShapeError, match="^cone dimension 4 != coefficients 16$"):
            run_ensemble(
                compliant_coeffs, heat16, flat_noise8, ConeSpec.nonnegative(4), config, h0
            )

    def test_semigroup_dim_must_match(self, cone16, compliant_coeffs, flat_noise8):
        h0 = np.full(16, 1.0)
        config = SimConfig(dt=1e-3, horizon=0.01, paths=1)
        with pytest.raises(ShapeError):
            run_ensemble(
                compliant_coeffs, DiagonalSemigroup.heat(4), flat_noise8, cone16, config, h0
            )


class TestExitsAndMargins:
    def test_compliant_short_run_stays_in(
        self, heat16, cone16, compliant_coeffs, flat_noise8, quick_sim
    ):
        h0 = np.full(16, 1.0)
        ens = run_ensemble(compliant_coeffs, heat16, flat_noise8, cone16, quick_sim, h0)
        assert not ens.exited.any()
        assert np.all(ens.first_exit == -1)

    def test_margin_matches_stored_trajectories(
        self, heat16, cone16, badvol_coeffs, flat_noise8
    ):
        # start at the origin, where the constant column pushes straight
        # through the first face
        h0 = np.zeros(16)
        config = SimConfig(dt=1e-3, horizon=0.05, paths=8)
        noise9 = NoiseSpec.flat(9, 1.0)
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
        h0 = np.zeros(16)
        noise9 = NoiseSpec.flat(9, 1.0)

        def exits(tol):
            config = SimConfig(dt=1e-3, horizon=0.2, paths=64, exit_tol=tol)
            ens = run_ensemble(badvol_coeffs, heat16, noise9, cone16, config, h0)
            return int(np.sum(ens.exited))

        # same noise either way, so the comparison is pathwise
        strict, loose = exits(0.0), exits(0.05)
        assert strict >= loose
        assert strict > 0

    def test_exit_step_is_first_crossing(self, heat16, cone16, badvol_coeffs):
        h0 = np.zeros(16)
        noise9 = NoiseSpec.flat(9, 1.0)
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
        ens = run_ensemble(self._explosive(), sg, NO_NOISE, FREE2, config, np.ones(2))
        assert np.all(ens.diverged > 0)
        # frozen at the last pre-overflow state, not at infinity
        assert np.all(np.abs(ens.final) <= config.guard)
        assert np.all(np.isfinite(ens.final))


def jumpy_system():
    """A dim-3 system with a jump atom, and a sequence one of whose entries
    diverges on some of its 37 paths: ``(semigroup, cone, noise, config,
    h0, limit, volatile, seq)``."""
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
    noise = NoiseSpec((1.0,) * 2, 5)
    K = ConeSpec.nonnegative(dim)
    config = SimConfig(dt=0.02, horizon=2.0, paths=37, guard=1e6)
    h0 = np.array([1.0, 0.5, 1.0])
    return sg, K, noise, config, h0, limit, volatile, seq


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
            sg, limit, [coarse, limit], NoiseSpec((1.0,) * 2, 3), K,
            config, np.full(4, 1.0),
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
        noise, h0 = NoiseSpec((1.0,) * 2, 3), np.full(4, 1.0)
        out = stability_experiment(sg, limit, seq, noise, K, config, h0)
        assert calls == list(range(config.paths))
        assert stability_experiment(sg, limit, [], noise, K, config, h0) == []
        assert calls == list(range(config.paths))
        assert [res.index for res in out] == [0, 1, 2]

    def test_per_path_matches_whole_trajectories(self, monkeypatch):
        # a jump atom, an entry some of whose paths diverge, and 37 paths
        # in 5-path chunks stepped through 7-step blocks
        sg, K, noise, config, h0, limit, volatile, seq = jumpy_system()
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
        noise, h0 = NoiseSpec.flat(2, 1.0), np.full(4, 1.0)
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
                config, np.full(4, 1.0),
            )


class TestWorkers:
    # A run of several chunks steps its first slice in this process and
    # each other slice in a forked worker; the CPUs it may use are set
    # here through os.sched_getaffinity.

    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def use_cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    @pytest.mark.parametrize(
        "paths, cpus, want",
        [
            (5, 3, [(0, 5)]),
            (37, 1, [(0, 37)]),
            (37, 2, [(0, 20), (20, 37)]),
            (37, 3, [(0, 10), (10, 25), (25, 37)]),
            (37, 64, [(lo, min(lo + 5, 37)) for lo in range(0, 37, 5)]),
        ],
    )
    def test_slices_are_whole_chunks(self, monkeypatch, paths, cpus, want):
        # W = min(CPUs, chunks) slices of whole 5-path chunks
        monkeypatch.setattr(simulate, "_CHUNK", 5)
        self.use_cpus(monkeypatch, cpus)
        assert simulate._slices(paths) == want

    @pytest.mark.parametrize(
        "cpus, forks_allowed", [(2, None), (3, None), (3, 1)],
        ids=["2-cpus", "3-cpus", "3-cpus-one-fork"],
    )
    def test_forked_runs_are_the_serial_engine(self, monkeypatch, cpus, forks_allowed):
        # 37 paths in eight 5-path chunks, a jump atom and a set some of
        # whose paths diverge: run, sweep and stability distances are the
        # serial engine's bytes whatever the slices, also when a worker
        # cannot be started and this process steps its slice
        sg, K, noise, config, h0, limit, volatile, seq = jumpy_system()
        monkeypatch.setattr(simulate, "_CHUNK", 5)

        def outputs():
            runs = [
                run_ensemble(volatile, sg, noise, K, config, h0),
                *run_sweep(volatile, sg, noise, K, config, h0, (4, 2, 1)),
            ]
            sup = [res.per_path for res in stability_experiment(sg, limit, seq, noise, K, config, h0)]
            fields = ("final", "min_margin", "first_exit", "diverged", "seeds")
            return [getattr(e, name).tobytes() for e in runs for name in fields], sup, runs

        self.use_cpus(monkeypatch, 1)
        ref, sup_ref, runs = outputs()
        assert 0 < np.sum(runs[0].diverged > 0) < config.paths
        assert np.any(runs[0].exited)

        forks = []
        real_fork = os.fork

        def fork():
            if forks_allowed is not None and len(forks) >= forks_allowed:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        self.use_cpus(monkeypatch, cpus)
        got, sup, _ = outputs()
        assert got == ref
        assert [a.tobytes() for a in sup] == [a.tobytes() for a in sup_ref]
        # cpus - 1 workers for each of the three runs, or as many as start
        assert len(forks) == min(3 * (cpus - 1), forks_allowed or 3 * cpus)

    @staticmethod
    def warning_fork(monkeypatch):
        """Have ``os.fork`` warn in the parent after the child exists, as
        Python 3.12 does in a process with threads."""
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                warnings.warn("use of fork() may lead to deadlocks in the child", DeprecationWarning)
            return pid

        monkeypatch.setattr(os, "fork", fork)

    def test_fork_warning_as_error_leaves_no_worker(self, monkeypatch):
        # the warning raises from run, after its worker was registered,
        # so the worker is killed and reaped (no_worker_left)
        self.warning_fork(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DeprecationWarning, match="use of fork"):
                forks.run(3, lambda i: i * i, lambda i: f"task {i}")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_fork_warning_keeps_the_results(self, monkeypatch):
        self.warning_fork(monkeypatch)
        with pytest.warns(DeprecationWarning, match="use of fork") as issued:
            got = forks.run(3, lambda i: i * i, lambda i: f"task {i}")
        assert got == [i * i for i in range(3)]
        assert len(issued) == 2

    def test_worker_that_ends_without_a_result(self):
        # task 1 ends its worker before anything is written to the pipe
        def task(i):
            if i:
                os._exit(0)
            return i

        message = "^task 1: the worker process ended without a result$"
        with pytest.raises(ConeSpdeError, match=message):
            forks.run(2, task, lambda i: f"task {i}")

    def failing_paths(self, monkeypatch, fail):
        """The system on two CPUs, 5-path chunks, with ``_path_stream``
        calling ``fail(p)`` first: this process steps paths 0..19, a
        worker paths 20..36."""
        sg, K, noise, config, h0, limit, _, _ = jumpy_system()
        monkeypatch.setattr(simulate, "_CHUNK", 5)
        self.use_cpus(monkeypatch, 2)
        real = simulate._path_stream

        def stream(seed, p):
            fail(p)
            return real(seed, p)

        monkeypatch.setattr(simulate, "_path_stream", stream)
        return lambda: run_ensemble(limit, sg, noise, K, config, h0)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        def fail(p):
            if p >= 20:
                raise DomainError(f"path {p} refused")

        with pytest.raises(DomainError, match=r"^path 20 refused$"):
            self.failing_paths(monkeypatch, fail)()

    def test_unpicklable_worker_error_is_a_package_error(self, monkeypatch):
        # SearchRadiusError's __init__ takes two arguments, so a pickle of
        # it does not load
        with pytest.raises(TypeError):
            pickle.loads(pickle.dumps(SearchRadiusError("edge", 2.0)))

        def fail(p):
            if p >= 20:
                raise SearchRadiusError(f"path {p} hit the edge", 2.0)

        with pytest.raises(ConeSpdeError) as info:
            self.failing_paths(monkeypatch, fail)()
        assert type(info.value) is ConeSpdeError
        assert str(info.value) == "paths 20..36: SearchRadiusError: path 20 hit the edge"

    def test_own_slice_error_kills_the_worker(self, monkeypatch):
        # the worker would take a minute on path 20; this process fails
        # on path 0 and must not wait for it
        def fail(p):
            if p == 0:
                raise DomainError("path 0 refused")
            if p == 20:
                time.sleep(60)

        t0 = time.perf_counter()
        with pytest.raises(DomainError, match=r"^path 0 refused$"):
            self.failing_paths(monkeypatch, fail)()
        assert time.perf_counter() - t0 < 30

    def test_worker_memory(self, monkeypatch, heat16, cone16, compliant_coeffs, flat_noise8):
        # Two chunks on two CPUs: this process steps one chunk and a worker
        # the other, so it peaks no higher than when it steps both.
        h0 = np.full(16, 1.0)
        monkeypatch.setattr(simulate, "_CHUNK", 16)
        monkeypatch.setattr(simulate, "_NOISE_BYTES", 16 * 50 * (8 + 1) * 8)
        config = SimConfig(dt=1e-3, horizon=2.0, paths=32)

        def peak(cpus):
            self.use_cpus(monkeypatch, cpus)
            tracemalloc.start()
            try:
                run_ensemble(compliant_coeffs, heat16, flat_noise8, cone16, config, h0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm-up: first-call allocations are not the ensemble's
        one, two = peak(1), peak(2)
        assert two <= one


# Steps 10 paths in 5-path chunks on two CPUs: this process steps paths
# 0..4, and the worker prints its pid on path 5 and then hangs there.
HANGING_RUN = """\
import os, time
import numpy as np
from conespde import ConeSpec, DiagonalSemigroup, NoiseSpec, SimConfig, simulate
from conespde.coefficients import CoefficientSet, ZeroMap

simulate._CHUNK = 5
os.sched_getaffinity = lambda pid: {0, 1}
real = simulate._path_stream


def stream(seed, p):
    if p == 5:
        print(os.getpid(), flush=True)
        time.sleep(60)
    return real(seed, p)


simulate._path_stream = stream
C = CoefficientSet(ZeroMap(2), (ZeroMap(2),))
config = SimConfig(dt=0.1, horizon=1.0, paths=10)
simulate.run_ensemble(
    C, DiagonalSemigroup.heat(2), NoiseSpec.flat(1), ConeSpec.nonnegative(2), config, np.ones(2)
)
"""


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG is Linux's")
def test_worker_dies_with_its_parent():
    # A caller killed with SIGKILL cannot kill its workers itself; each
    # worker asked the kernel to kill it when its parent dies.
    src = Path(simulate.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(
        [sys.executable, "-c", HANGING_RUN], stdout=subprocess.PIPE, text=True, env=env
    )
    worker = None
    try:
        worker = int(proc.stdout.readline())
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 5.0
        while _running(worker) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _running(worker)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        if worker is not None and _running(worker):
            os.kill(worker, signal.SIGKILL)


GENERIC_SIMULATE = """
import json, sys
from conespde.cli import cli
from conespde.config import preset_document

doc = preset_document("heat-positive")
tab = {"family": "tabulated", "x": [-1.0, 0.0, 1.0, 2.0], "y": [0.0, 0.0, -0.05, -0.1]}
doc["coefficients"]["drift"] = {"family": "sum", "terms": [doc["coefficients"]["drift"], tab]}
doc["sim"].update(paths=4, horizon=0.01)
with open(sys.argv[1], "w") as fh:
    json.dump(doc, fh)
try:
    cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]], standalone_mode=False)
finally:
    print("numpy.ma" in sys.modules)
"""


def test_generic_simulate_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma (about 12 ms); a sum's support and the
    # kernel's row indices sort and dedupe without it
    src = Path(simulate.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    args = [str(tmp_path / "config.json"), str(tmp_path / "out")]
    out = subprocess.run([sys.executable, "-c", GENERIC_SIMULATE, *args], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "False"
    assert (tmp_path / "out" / "paths.csv").exists()


class TestSsncEstimate:
    def test_zero_field_scores_zero(self, heat16, cone16):
        h = np.full(16, 1.0)
        assert ssnc_estimate(heat16, np.zeros(16), cone16, h) == 0.0

    def test_inward_push_scores_zero(self, heat16, cone16):
        h = np.full(16, 1.0)
        h[1] = 0.0
        inward = np.zeros(16)
        inward[1] = 1.0
        assert ssnc_estimate(heat16, inward, cone16, h) == 0.0

    def test_outward_push_scores_unit_rate(self, heat16, cone16):
        # Sigma = -e_1 at a face point: the state leaves the face at
        # rate exactly 1
        h = np.full(16, 1.0)
        h[1] = 0.0
        outward = np.zeros(16)
        outward[1] = -1.0
        assert ssnc_estimate(heat16, outward, cone16, h) == 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_closed_form_at_face_points(self, seed):
        # mixed signs, some coordinates on their faces, rates of either
        # sign: the value is the norm of the outward parts of Sigma on
        # the faces h sits on, whatever the rates
        rng = np.random.default_rng(seed)
        dim = 6
        K = ConeSpec(rng.integers(-1, 2, size=dim))
        sg = DiagonalSemigroup(rng.uniform(-2.0, 5.0, size=dim))
        coords = K.signs * np.abs(rng.normal(size=dim)) + (K.signs == 0) * rng.normal(size=dim)
        coords[rng.random(dim) < 0.5] = 0.0
        sigma = rng.normal(scale=10.0, size=dim)
        push = [
            max(0.0, -float(K.signs[k]) * sigma[k])
            for k in range(dim)
            if K.signs[k] != 0 and coords[k] == 0.0
        ]
        got = ssnc_estimate(sg, sigma, K, coords)
        assert np.float64(got).tobytes() == np.linalg.norm(np.array(push)).tobytes()

    def test_coordinate_off_its_face_never_counts(self, heat16, cone16):
        # however close to its face and however strong the push, a
        # coordinate off the face stays inside for small t
        coords = np.full(16, 1.0)
        coords[0] = 3.4e-13
        sigma = np.zeros(16)
        sigma[0] = -832.0
        assert ssnc_estimate(heat16, sigma, cone16, coords) == 0.0

    def test_semigroup_dim_checked(self, cone16):
        h = np.full(16, 1.0)
        with pytest.raises(ShapeError):
            ssnc_estimate(DiagonalSemigroup.heat(15), np.zeros(16), cone16, h)

    def test_sigma_must_be_finite(self, heat16, cone16):
        h = np.full(16, 1.0)
        for bad in (np.nan, np.inf):
            sigma = np.zeros(16)
            sigma[5] = bad
            with pytest.raises(DomainError):
                ssnc_estimate(heat16, sigma, cone16, h)

    def test_state_must_be_in_cone(self, heat16, cone16):
        coords = np.full(16, 1.0)
        coords[3] = -0.5
        with pytest.raises(DomainError):
            ssnc_estimate(heat16, np.zeros(16), cone16, coords)

    def test_sigma_shape_checked(self, heat16, cone16):
        h = np.full(16, 1.0)
        with pytest.raises(ShapeError):
            ssnc_estimate(heat16, np.zeros(4), cone16, h)
