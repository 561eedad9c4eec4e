"""The stepping kernel's constants, its two call names, and their agreement.

Every coefficient set runs through ``kernels.step_ensemble``, one NumPy
loop that evaluates each map on the whole batch by its ``eval_array``.
Sets of built-in maps call it by the name ``simulate.step_ensemble``,
other sets by ``kernels.step_ensemble``; wrapping a builtin map in an
opaque callable that delegates to it must therefore reproduce the
output exactly, exits and divergence included.
"""

import numpy as np

from conespde import ConeSpec, DiagonalSemigroup, NoiseSpec, SimConfig, StateVec, kernels, simulate
from conespde.coefficients import AffineMap, CallableMap, CoefficientSet, TabulatedMap, ZeroMap
from conespde.simulate import run_ensemble


def assert_same_ensemble(a, b):
    assert np.array_equal(a.final, b.final)
    assert np.array_equal(a.min_margin, b.min_margin)
    assert np.array_equal(a.first_exit, b.first_exit)
    assert np.array_equal(a.diverged, b.diverged)
    assert np.array_equal(a.seeds, b.seeds)
    if a.trajectories is not None or b.trajectories is not None:
        assert np.array_equal(a.trajectories, b.trajectories)


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


def opaque(m):
    """A callable that delegates to ``m`` but is not a built-in map."""
    return CallableMap(lambda h, m=m: m.eval_array(h.coords), m.dim)


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
        h0 = StateVec(np.zeros(16))
        config = SimConfig(dt=1e-3, horizon=0.02, paths=8)
        a = run_ensemble(compliant_coeffs, heat16, flat_noise8, cone16, config, h0)
        b = run_ensemble(wrapped, heat16, flat_noise8, cone16, config, h0)
        assert_same_ensemble(a, b)

    def test_unlowered_set_monitors_exits(self, heat16, cone16, badvol_coeffs):
        wrapped = opaque_set(badvol_coeffs)
        noise9 = NoiseSpec.flat(9, 1.0, seed=0)
        h0 = StateVec(np.zeros(16))
        config = SimConfig(dt=1e-3, horizon=0.05, paths=8)
        a = run_ensemble(badvol_coeffs, heat16, noise9, cone16, config, h0)
        b = run_ensemble(wrapped, heat16, noise9, cone16, config, h0)
        assert np.any(a.exited)
        assert_same_ensemble(a, b)

    def test_opaque_drift_only(self, heat16, cone16, badvol_coeffs):
        # the shape of a tabulated drift term next to builtin columns
        wrapped = opaque_set(badvol_coeffs, drift_only=True)
        assert not wrapped.uses_only_builtin_maps()
        noise9 = NoiseSpec.flat(9, 1.0, seed=2)
        h0 = StateVec(np.zeros(16))
        config = SimConfig(dt=1e-3, horizon=0.05, paths=12, chunk=5, store_trajectories=True)
        a = run_ensemble(badvol_coeffs, heat16, noise9, cone16, config, h0)
        b = run_ensemble(wrapped, heat16, noise9, cone16, config, h0)
        assert np.any(a.exited)
        assert_same_ensemble(a, b)

    def test_divergence_freezes_like_lowered(self):
        dim = 2
        coeffs = CoefficientSet(AffineMap(100.0 * np.eye(dim), np.zeros(dim)))
        sg = DiagonalSemigroup(np.zeros(dim))
        cone = ConeSpec(np.array([0, 0]))
        config = SimConfig(dt=0.05, horizon=1.0, paths=3, guard=1e6, store_trajectories=True)
        h0 = StateVec(np.ones(dim))
        a = run_ensemble(coeffs, sg, NoiseSpec(()), cone, config, h0)
        b = run_ensemble(opaque_set(coeffs), sg, NoiseSpec(()), cone, config, h0)
        assert np.all(a.diverged > 0)
        assert np.all(a.trajectories[:, -1] == a.final)
        assert_same_ensemble(a, b)


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
            calls.append(args[1].shape[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(simulate, "step_ensemble", counted)
        h0 = StateVec(np.zeros(16))
        config = SimConfig(dt=1e-3, horizon=0.01, paths=3)
        run_ensemble(compliant_coeffs, heat16, flat_noise8, cone16, config, h0)
        assert calls == [3]
        table = TabulatedMap(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 0.0, -0.1]), 16)
        tabulated = CoefficientSet(table, compliant_coeffs.vol_columns, compliant_coeffs.jump_atoms)
        run_ensemble(tabulated, heat16, flat_noise8, cone16, config, h0)
        assert calls == [3]
