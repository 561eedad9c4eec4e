"""The stepping kernel's constants, its two call names, and their agreement.

Every coefficient set runs through ``kernels.step_ensemble``, one NumPy
loop that evaluates each map on the whole batch, on the map's output
support only, by its ``eval_coords``.  Sets of built-in maps call it by
the name ``simulate.step_ensemble``, other sets by
``kernels.step_ensemble``; wrapping a builtin map in an opaque callable
that delegates to it must therefore reproduce the output exactly, exits
and divergence included.  ``TestDenseReference`` holds the loop as it
was before supports, which evaluated every map at full width, and
requires the same bytes from the kernel.  No run keeps whole
trajectories, so the tests build them from the kernel's one-block
``rows`` buffer (``run_kernel``, ``ensemble_rows``).
"""

import numpy as np
import pytest

from conespde import ConeSpec, DiagonalSemigroup, NoiseSpec, ShapeError, SimConfig, kernels, simulate
from conespde.coefficients import (
    AffineMap,
    CallableMap,
    CoefficientSet,
    ConstantMap,
    GatedOffsetMap,
    MeanReversionMap,
    ProportionalMap,
    SumMap,
    TabulatedMap,
    ZeroMap,
)
from conespde.config import ExperimentConfig, preset_document
from conespde.simulate import _count_stream, _draw_noise, _path_stream, run_ensemble, run_sweep


def assert_same_ensemble(a, b):
    assert np.array_equal(a.final, b.final)
    assert np.array_equal(a.min_margin, b.min_margin)
    assert np.array_equal(a.first_exit, b.first_exit)
    assert np.array_equal(a.diverged, b.diverged)
    assert np.array_equal(a.seeds, b.seeds)


def assert_matches_rows(ens, ref):
    """``ens``, a ``run_ensemble`` output, is bitwise the kernel run
    ``ref`` from ``ensemble_rows``."""
    for key in ("final", "min_margin", "first_exit", "diverged"):
        assert getattr(ens, key).tobytes() == ref[key].tobytes(), key


class TestPlan:
    def test_step_constants(self):
        rates = np.array([1.0, 2.0])
        lam = np.array([0.5])
        weights = np.array([0.2])
        zero = ZeroMap(2)
        coeffs = CoefficientSet(zero, (zero,), ((weights[0], zero),))
        config = SimConfig(dt=1e-3, horizon=1e-3, paths=1)
        sp = kernels.StepPlan.build(
            coeffs, DiagonalSemigroup(rates), NoiseSpec(tuple(lam)), ConeSpec.nonnegative(2), config
        )
        np.testing.assert_array_equal(sp.decay, np.exp(-rates * 1e-3))
        np.testing.assert_array_equal(sp.sqrt_scale, np.sqrt(lam * 1e-3))
        np.testing.assert_array_equal(sp.atom_wdt, weights * 1e-3)

    def test_supports_become_row_indices(self):
        # a run of coordinates becomes a slice, the whole row slice(None),
        # scattered coordinates an index array, an empty support None
        drift = SumMap((ProportionalMap(0.5, 1, 4), ProportionalMap(0.5, 2, 4)))
        vols = (ProportionalMap(0.3, 3, 4), MeanReversionMap(1.0, np.ones(4)))
        atoms = ((0.2, ConstantMap(np.array([0.1, 0.0, -0.0, 0.1]))), (0.1, ZeroMap(4)))
        coeffs = CoefficientSet(drift, vols, atoms)
        config = SimConfig(dt=1e-3, horizon=1e-3, paths=1)
        sp = kernels.StepPlan.build(
            coeffs, DiagonalSemigroup.heat(4), NoiseSpec.flat(2), ConeSpec.nonnegative(4), config
        )
        drift_sup, vol3, vol_all, atom_sup, zero_sup = sp.supports
        assert drift_sup == slice(1, 3)
        assert vol3 == slice(3, 4)
        assert vol_all == slice(None)
        assert atom_sup.tolist() == [0, 3]
        assert zero_sup is None

    def test_support_outside_the_row_rejected(self):
        class Stray(ZeroMap):
            support = np.array([4])

        config = SimConfig(dt=1e-3, horizon=1e-3, paths=1)
        with pytest.raises(ShapeError):
            kernels.StepPlan.build(
                CoefficientSet(Stray(4)), DiagonalSemigroup.heat(4), NoiseSpec(()), ConeSpec.nonnegative(4), config
            )


def opaque(m):
    """A callable that delegates to ``m`` but is not a built-in map."""
    return CallableMap(lambda h, m=m: m.eval_array(h), m.dim)


def opaque_set(coeffs, drift_only=False):
    if drift_only:
        return CoefficientSet(opaque(coeffs.drift), coeffs.vol_columns, coeffs.jump_atoms)
    return CoefficientSet(
        opaque(coeffs.drift),
        tuple(opaque(c) for c in coeffs.vol_columns),
        tuple((w, opaque(g)) for w, g in coeffs.jump_atoms),
    )


class TestUnloweredSetParity:
    # Sets with maps outside the built-in families call the loop as
    # kernels.step_ensemble; wrappers that delegate to builtin maps must
    # reproduce the output of the simulate.step_ensemble route exactly.

    def test_opaque_wrappers_reproduce_kernel_output(self, heat16, cone16, compliant_coeffs, flat_noise8):
        wrapped = opaque_set(compliant_coeffs)
        assert not wrapped.uses_only_builtin_maps()
        h0 = np.zeros(16)
        config = SimConfig(dt=1e-3, horizon=0.02, paths=8)
        a = run_ensemble(compliant_coeffs, heat16, flat_noise8, cone16, config, h0)
        b = run_ensemble(wrapped, heat16, flat_noise8, cone16, config, h0)
        assert_same_ensemble(a, b)

    def test_unlowered_set_monitors_exits(self, heat16, cone16, badvol_coeffs):
        wrapped = opaque_set(badvol_coeffs)
        noise9 = NoiseSpec.flat(9, 1.0)
        h0 = np.zeros(16)
        config = SimConfig(dt=1e-3, horizon=0.05, paths=8)
        a = run_ensemble(badvol_coeffs, heat16, noise9, cone16, config, h0)
        b = run_ensemble(wrapped, heat16, noise9, cone16, config, h0)
        assert np.any(a.exited)
        assert_same_ensemble(a, b)

    def test_opaque_drift_only(self, monkeypatch, heat16, cone16, badvol_coeffs):
        # the shape of a tabulated drift term next to builtin columns
        wrapped = opaque_set(badvol_coeffs, drift_only=True)
        assert not wrapped.uses_only_builtin_maps()
        noise9 = NoiseSpec((1.0,) * 9, 2)
        h0 = np.zeros(16)
        monkeypatch.setattr(simulate, "_CHUNK", 5)
        config = SimConfig(dt=1e-3, horizon=0.05, paths=12)
        a = run_ensemble(badvol_coeffs, heat16, noise9, cone16, config, h0)
        b = run_ensemble(wrapped, heat16, noise9, cone16, config, h0)
        assert np.any(a.exited)
        assert_same_ensemble(a, b)
        ref_a = ensemble_rows(badvol_coeffs, heat16, noise9, cone16, config, h0)
        ref_b = ensemble_rows(wrapped, heat16, noise9, cone16, config, h0)
        assert_matches_rows(a, ref_a)
        assert ref_a["traj"].tobytes() == ref_b["traj"].tobytes()

    def test_divergence_freezes_like_lowered(self):
        dim = 2
        coeffs = CoefficientSet(AffineMap(100.0 * np.eye(dim), np.zeros(dim)))
        sg = DiagonalSemigroup(np.zeros(dim))
        cone = ConeSpec(np.array([0, 0]))
        config = SimConfig(dt=0.05, horizon=1.0, paths=3, guard=1e6)
        h0 = np.ones(dim)
        a = run_ensemble(coeffs, sg, NoiseSpec(()), cone, config, h0)
        b = run_ensemble(opaque_set(coeffs), sg, NoiseSpec(()), cone, config, h0)
        assert np.all(a.diverged > 0)
        assert_same_ensemble(a, b)
        ref = ensemble_rows(opaque_set(coeffs), sg, NoiseSpec(()), cone, config, h0)
        assert_matches_rows(a, ref)
        assert np.all(ref["traj"][:, -1] == a.final)

    def test_nan_state_diverges(self):
        # 2e308 - 2e308 overflows to inf - inf = NaN in the first step; a
        # NaN fails every comparison with the guard, but the path must
        # still be marked diverged and keep its last finite state
        coeffs = CoefficientSet(AffineMap(np.array([[1e308, -1e308], [0.0, 0.0]]), np.zeros(2)))
        sg = DiagonalSemigroup(np.zeros(2))
        config = SimConfig(dt=0.1, horizon=1.0, paths=3)
        h0 = np.full(2, 2.0)
        with np.errstate(invalid="ignore", over="ignore"):
            out = run_ensemble(coeffs, sg, NoiseSpec(()), ConeSpec.nonnegative(2), config, h0)
            ref = ensemble_rows(coeffs, sg, NoiseSpec(()), ConeSpec.nonnegative(2), config, h0)
        assert out.diverged.tolist() == [1, 1, 1]
        assert out.first_exit.tolist() == [-1, -1, -1]
        assert np.array_equal(out.final, np.full((3, 2), 2.0))
        assert np.array_equal(out.min_margin, np.full(3, 2.0))
        assert_matches_rows(out, ref)
        assert np.all(ref["traj"] == 2.0)


class TestBenchmarkHooks:
    # perfbench records kernels.BACKEND and times the kernel layer by
    # wrapping simulate.step_ensemble; its self-test expects only sets
    # of built-in maps to reach that call site.

    def test_backend_is_named(self):
        assert isinstance(kernels.BACKEND, str)

    def test_only_builtin_sets_reach_step_ensemble(
        self, monkeypatch, heat16, cone16, compliant_coeffs, flat_noise8
    ):
        calls = []
        real = simulate.step_ensemble

        def counted(*args, **kwargs):
            calls.append(args[2].shape[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(simulate, "step_ensemble", counted)
        h0 = np.zeros(16)
        config = SimConfig(dt=1e-3, horizon=0.01, paths=3)
        run_ensemble(compliant_coeffs, heat16, flat_noise8, cone16, config, h0)
        assert calls == [3]
        table = TabulatedMap(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 0.0, -0.1]), 16)
        tabulated = CoefficientSet(table, compliant_coeffs.vol_columns, compliant_coeffs.jump_atoms)
        run_ensemble(tabulated, heat16, flat_noise8, cone16, config, h0)
        assert calls == [3]

    def test_engine_hands_noise_path_fastest(self, monkeypatch, heat16, cone16, badvol_coeffs):
        # The engine transposes each sub-block of fine draws once, so the
        # kernel gets (P, b, J) normals and (P, b, M) counts whose path
        # axis is fastest, and keeps its states one row per coordinate.
        # Transposing path-major noise for each lane, strided, costs the
        # verify-sweep benchmark about 13% of its wall time.
        seen = []
        real = simulate.step_ensemble

        def spy(plan, state, normals, counts):
            seen.append((normals, counts, state))
            return real(plan, state, normals, counts)

        monkeypatch.setattr(simulate, "step_ensemble", spy)
        config = SimConfig(dt=1e-3, horizon=0.04, paths=5)
        noise9 = NoiseSpec.flat(9, 1.0)
        run_sweep(badvol_coeffs, heat16, noise9, cone16, config, np.zeros(16), (4, 2, 1))
        # three lanes, each through sub-blocks of 32 and 8 fine steps
        assert len(seen) == 3 * 2
        for normals, counts, state in seen:
            assert normals.shape[0] == counts.shape[0] == 5
            assert normals.strides[0] == normals.itemsize
            assert counts.strides[0] == counts.itemsize
            assert state.rT.shape == (16, 5) and state.rT.flags.c_contiguous
            assert state.r.shape == (5, 16)


def dense_reference(plan, r0, normals, counts, store=False):
    """The kernel loop before output supports, kept verbatim: every map
    is evaluated at full width and every step copies through the mask."""

    def _margins(r, con_idx, con_sign):
        if con_idx.size == 0:
            return np.full(r.shape[0], np.inf)
        vals = con_sign[None, :] * r[:, con_idx]
        return np.min(vals, axis=1) + 0.0

    P, N = r0.shape
    S = normals.shape[1]
    dt = plan.dt
    counts_f = counts.astype(np.float64)

    con_idx = np.flatnonzero(plan.signs != 0.0)
    con_sign = plan.signs[con_idx]

    r = r0.astype(np.float64).copy()
    first_exit = np.full(P, -1, dtype=np.int64)
    diverged = np.full(P, -1, dtype=np.int64)
    alive = np.ones(P, dtype=bool)
    traj = np.zeros((P, S + 1, N)) if store else None
    if store:
        traj[:, 0] = r

    bad0 = np.max(np.abs(r), axis=1) > plan.guard
    diverged[bad0] = 0
    alive &= ~bad0

    runmin = np.full(P, np.inf)
    m0 = _margins(r, con_idx, con_sign)
    runmin[alive] = m0[alive]
    hit0 = alive & (m0 < -plan.exit_tol)
    first_exit[hit0] = 0

    for s in range(S):
        acc = r + dt * plan.drift.eval_array(r)
        for j, vol in enumerate(plan.vols):
            w = plan.sqrt_scale[j] * normals[:, s, j]
            acc += vol.eval_array(r) * w[:, None]
        for i, atom in enumerate(plan.atoms):
            f = counts_f[:, s, i] - plan.atom_wdt[i]
            acc += atom.eval_array(r) * f[:, None]
        r_new = plan.decay[None, :] * acc

        maxabs = np.max(np.abs(r_new), axis=1)
        newly_div = alive & (maxabs > plan.guard)
        ok = alive & ~newly_div
        diverged[newly_div] = s + 1
        alive &= ~newly_div

        r[ok] = r_new[ok]
        m = _margins(r_new, con_idx, con_sign)
        runmin[ok] = np.minimum(runmin[ok], m[ok])
        crossed = ok & (m < -plan.exit_tol) & (first_exit < 0)
        first_exit[crossed] = s + 1
        if store:
            traj[:, s + 1] = r

    return {
        "final": r,
        "min_margin": runmin,
        "first_exit": first_exit,
        "diverged": diverged,
        "traj": traj,
    }


def run_kernel(plan, r0, normals, counts, splits=()):
    """``kernels.step_ensemble`` over the whole noise arrays, stepped in
    consecutive blocks that end at the step indices ``splits``, with the
    result in ``dense_reference``'s form.  The trajectories are ``r0``
    followed by each block's rows, copied out of one reused ``rows``
    buffer as the engine's lanes record them."""
    S = normals.shape[1]
    bounds = [0, *splits, S]
    assert all(lo < hi for lo, hi in zip(bounds[:-1], bounds[1:])), bounds
    blocks = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    longest = max(normals[:, block].shape[1] for block in blocks)
    state = kernels.KernelState.start(plan, r0, np.zeros((r0.shape[0], longest, r0.shape[1])))
    traj = [r0.astype(np.float64)[:, None]]
    for block in blocks:
        kernels.step_ensemble(plan, state, normals[:, block], counts[:, block])
        traj.append(state.rows[:, : normals[:, block].shape[1]].copy())
    assert state.step == S
    return {
        "final": state.r,
        "min_margin": state.runmin,
        "first_exit": state.first_exit,
        "diverged": state.diverged,
        "traj": np.concatenate(traj, axis=1),
    }


def draw_whole(seed, paths, steps, n_vols, atom_wdt):
    """Every path's noise for the whole horizon, as run_ensemble draws it
    block by block."""
    normals = np.zeros((paths, steps, n_vols))
    counts = np.zeros((paths, steps, len(atom_wdt)), dtype=np.int64)
    for p in range(paths):
        rng, _ = _path_stream(seed, p)
        _draw_noise(rng, _count_stream(seed, p), normals[p], counts[p], atom_wdt)
    return normals, counts


def ensemble_rows(coeffs, semigroup, noise, cone, config, h0):
    """``run_ensemble``'s paths as ``run_kernel`` steps them over each
    path's whole-horizon draws, trajectories included."""
    plan = kernels.StepPlan.build(coeffs, semigroup, noise, cone, config)
    normals, counts = draw_whole(noise.seed, config.paths, config.steps, noise.count, plan.atom_wdt)
    r0 = np.broadcast_to(h0, (config.paths, coeffs.dim))
    return run_kernel(plan, r0, normals, counts)


def _preset_inputs(name, paths, steps):
    """Plan, initial states and per-path noise of a preset, as run_ensemble
    draws them."""
    ec = ExperimentConfig.from_dict(preset_document(name))
    config = SimConfig(dt=ec.sim.dt, horizon=steps * ec.sim.dt, paths=paths)
    plan = kernels.StepPlan.build(ec.coeffs, ec.semigroup, ec.noise, ec.cone, config)
    normals, counts = draw_whole(ec.noise.seed, paths, steps, ec.noise.count, plan.atom_wdt)
    r0 = np.broadcast_to(ec.h0, (paths, ec.dim)).copy()
    return plan, r0, normals, counts


def _signed_zero_inputs():
    """-0.0 and +0.0 entries under a zero drift and proportional columns:
    coordinates that no column touches stay zero, and only the
    full-width sum turns their -0.0 into +0.0."""
    dim = 4
    coeffs = CoefficientSet(
        ZeroMap(dim), (ProportionalMap(0.3, 0, dim), ProportionalMap(-0.5, 2, dim))
    )
    config = SimConfig(dt=0.01, horizon=0.2, paths=4)
    plan = kernels.StepPlan.build(
        coeffs, DiagonalSemigroup.heat(dim), NoiseSpec.flat(2), ConeSpec.nonnegative(dim), config
    )
    r0 = np.array(
        [
            [-0.0, 1.0, -0.0, 0.5],
            [0.0, -0.0, 2.0, -0.0],
            [-0.0, -0.0, -0.0, -0.0],
            [1.5, 0.25, -0.0, 3.0],
        ]
    )
    signs = np.where(np.arange(20 * 2) % 3 == 0, -1.0, 1.0).reshape(1, 20, 2)
    normals = signs * np.linspace(0.1, 2.0, 4 * 20 * 2).reshape(4, 20, 2)
    return plan, r0, normals, np.zeros((4, 20, 0), dtype=np.int64)


def _diverging_inputs():
    """A volatile first coordinate that passes the guard on some paths,
    at different steps, while the rest keep stepping; a gated drift
    term and a jump atom with partial support ride along."""
    dim = 3
    drift = SumMap(
        (
            MeanReversionMap(1.0, np.full(dim, 0.5)),
            GatedOffsetMap(np.array([0.0, -2.0, 0.0]), 2, 0.5, 1.5),
        )
    )
    vols = (ProportionalMap(10.0, 0, dim), ProportionalMap(0.3, 1, dim))
    atoms = ((2.0, ConstantMap(np.array([0.2, 0.0, -0.1]))),)
    coeffs = CoefficientSet(drift, vols, atoms)
    noise = NoiseSpec((1.0,) * 2, 5)
    config = SimConfig(dt=0.02, horizon=2.0, paths=24, guard=1e4)
    plan = kernels.StepPlan.build(
        coeffs, DiagonalSemigroup(np.array([0.0, 1.0, 2.0])), noise, ConeSpec.nonnegative(dim), config
    )
    normals, counts = draw_whole(noise.seed, 24, config.steps, 2, plan.atom_wdt)
    r0 = np.tile(np.array([1.0, 0.5, 1.0]), (24, 1))
    return plan, r0, normals, counts


def _mixed_start_inputs():
    """``_diverging_inputs`` started from three kinds of finite rows: rows
    beyond the guard (one also outside the cone), which diverge at step
    0; rows outside the cone, which exit at step 0; and rows inside both."""
    plan, r0, normals, counts = _diverging_inputs()
    r0 = r0.copy()
    r0[0] = [2e4, 0.5, 1.0]
    r0[5] = [1.0, -3e4, 1.0]
    r0[9] = [1.0, -0.5, 1.0]
    r0[14] = [-1e-3, 0.5, 1.0]
    r0[20] = [1.0, 0.5, -2.0]
    return plan, r0, normals, counts


class TestDenseReference:
    # the kernel adds each map on its support only and takes r_new whole
    # while every path is alive; the bytes must not change

    KEYS = ("final", "min_margin", "first_exit", "diverged", "traj")

    def assert_same_bytes(self, inputs, splits=()):
        plan, r0, normals, counts = inputs
        want = dense_reference(plan, r0, normals, counts, store=True)
        got = run_kernel(plan, r0, normals, counts, splits=splits)
        for key in self.KEYS:
            assert got[key].dtype == want[key].dtype, key
            assert got[key].tobytes() == want[key].tobytes(), key
        return want

    def test_hidden_preset(self):
        want = self.assert_same_bytes(_preset_inputs("heat-positive-hidden", 32, 400))
        assert np.all(want["first_exit"] > 0)

    def test_signed_zero_state(self):
        inputs = _signed_zero_inputs()
        want = self.assert_same_bytes(inputs)
        # the case is live: a -0.0 start leaves +0.0 behind
        assert np.signbit(inputs[1]).any()
        assert not np.signbit(want["final"][want["final"] == 0.0]).any()

    def test_some_paths_diverge_mid_run(self):
        want = self.assert_same_bytes(_diverging_inputs())
        div = want["diverged"]
        assert np.any(div < 0) and np.any(div > 1)
        assert len(set(div[div > 0].tolist())) > 1


class TestBlockSplit:
    # the kernel carries its state from one noise block to the next, so
    # three uneven blocks and the rest of the steps, all inside each
    # input's horizon, give the bytes of the whole arrays stepped at once

    @pytest.mark.parametrize(
        "inputs, splits",
        [
            (lambda: _preset_inputs("heat-positive-hidden", 32, 400), (1, 32, 65)),  # of 400
            (lambda: _preset_inputs("heat-positive-badvol", 16, 150), (1, 32, 65)),  # of 150
            (_signed_zero_inputs, (1, 4, 11)),  # of 20
            (_diverging_inputs, (1, 32, 65)),  # of 100
        ],
        ids=["hidden", "badvol", "signed-zero", "diverging"],
    )
    def test_uneven_blocks_match_dense_reference(self, inputs, splits):
        TestDenseReference().assert_same_bytes(inputs(), splits=splits)


class TestMixedStart:
    # KernelState.start puts the initial rows through the rule every later
    # step goes through; the step-0 bytes are dense_reference's

    def test_step_zero_matches_dense_reference(self):
        inputs = _mixed_start_inputs()
        want = TestDenseReference().assert_same_bytes(inputs)
        div, exit_ = want["diverged"], want["first_exit"]
        assert np.flatnonzero(div == 0).tolist() == [0, 5]
        assert np.flatnonzero(exit_ == 0).tolist() == [9, 14, 20]
        # a row beyond the guard keeps its initial state and no margin
        assert np.array_equal(want["final"][[0, 5]], inputs[1][[0, 5]])
        assert np.all(np.isinf(want["min_margin"][[0, 5]]))
        # the rows inside go on to diverge and exit later
        assert np.any(div > 0) and np.any(exit_ > 0)

    @pytest.mark.parametrize("splits", [(1, 32, 65), (1, 2, 3)])  # of 100
    def test_uneven_blocks_match_dense_reference(self, splits):
        TestDenseReference().assert_same_bytes(_mixed_start_inputs(), splits=splits)
