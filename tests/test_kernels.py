"""Backend selection and cross-backend agreement.

The compiled stepper and the numpy fallback share precomputed step
constants and leaf evaluation order, so lowered coefficient systems
must agree to the last bit.  Sets with maps that do not lower run
through the same numpy loop, each map evaluated on the whole batch by
its ``eval_array``; wrapping a builtin map in an opaque callable that
delegates to it must therefore reproduce the kernel output exactly as
well, exits and divergence included.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import conespde
from conespde import ConeSpec, ConfigError, DiagonalSemigroup, NoiseSpec, SimConfig, StateVec
from conespde.coefficients import (
    AffineMap,
    CallableMap,
    CoefficientSet,
    ConstantMap,
    GatedOffsetMap,
    MeanReversionMap,
    ProjectedMap,
    ProportionalMap,
    SumMap,
    TabulatedMap,
    ZeroMap,
)
from conespde.kernels import BACKEND, backend_name, step_ensemble
from conespde.kernels.plan import (
    CONSTANT,
    DENSE,
    GATED,
    MEAN_REV,
    PROPORTIONAL,
    make_plan,
)
from conespde.simulate import run_ensemble

needs_compiled = pytest.mark.skipif(
    BACKEND != "compiled", reason="compiled extension not importable here"
)


def mixed_system():
    """Exercises every lowered leaf family: mean-reversion and a gated
    offset in the drift, proportional / dense / constant volatility
    columns, and one constant jump kernel."""
    dim = 6
    b = np.full(dim, 0.5)
    gate_vec = np.zeros(dim)
    gate_vec[0] = -0.4
    drift = SumMap((MeanReversionMap(1.0, b), GatedOffsetMap(gate_vec, 2, 6.0, 7.0)))
    A = np.diag(np.linspace(0.05, 0.3, dim))
    vols = (
        ProportionalMap(0.3, 0, dim),
        AffineMap(A, np.zeros(dim)),
        ConstantMap(np.full(dim, 0.02)),
    )
    jumps = ((0.5, ConstantMap(np.full(dim, 0.1))),)
    coeffs = CoefficientSet(drift, vols, jumps)
    sg = DiagonalSemigroup.heat(dim)
    cone = ConeSpec.nonnegative(dim)
    h0 = np.full(dim, 1.0)
    h0[2] = 6.5  # inside the gate band
    return coeffs, sg, NoiseSpec.flat(3, 1.0, seed=5), cone, StateVec(h0)


def assert_same_ensemble(a, b):
    assert np.array_equal(a.final, b.final)
    assert np.array_equal(a.min_margin, b.min_margin)
    assert np.array_equal(a.first_exit, b.first_exit)
    assert np.array_equal(a.diverged, b.diverged)
    assert np.array_equal(a.seeds, b.seeds)
    if a.trajectories is not None or b.trajectories is not None:
        assert np.array_equal(a.trajectories, b.trajectories)


class TestSelection:
    def test_backend_reported(self):
        assert backend_name() == BACKEND
        assert BACKEND in ("compiled", "fallback")

    def test_unknown_backend_rejected(self):
        coeffs, sg, noise, cone, h0 = mixed_system()
        config = SimConfig(dt=1e-3, horizon=0.01, paths=1)
        with pytest.raises(ValueError):
            run_ensemble(coeffs, sg, noise, cone, config, h0, backend="numba")

    def test_override_needs_lowerable_maps(self, heat16, cone16, flat_noise8):
        opaque = CoefficientSet(
            CallableMap(lambda h: np.zeros(16), 16),
            tuple(ProportionalMap(0.3, j, 16) for j in range(8)),
        )
        config = SimConfig(dt=1e-3, horizon=0.01, paths=1)
        with pytest.raises(ConfigError):
            run_ensemble(
                opaque, heat16, flat_noise8, cone16, config,
                StateVec(np.full(16, 1.0)), backend="fallback",
            )

    def test_force_python_env(self):
        # a fresh interpreter with the override set must report the
        # fallback and refuse an explicit compiled request
        code = (
            "import numpy as np\n"
            "from conespde.kernels import BACKEND, step_ensemble\n"
            "from conespde.kernels.plan import make_plan\n"
            "print(BACKEND)\n"
            "sp = make_plan(2, 0.1, (), (), (), np.zeros(2), np.zeros(0), np.zeros(0),\n"
            "               np.ones(2), 1e-8, 1e12)\n"
            "try:\n"
            "    step_ensemble(sp, np.zeros((1, 2)), np.zeros((1, 1, 0)),\n"
            "                  np.zeros((1, 1, 0), dtype=np.int64), backend='compiled')\n"
            "    print('no-error')\n"
            "except RuntimeError:\n"
            "    print('runtime-error')\n"
        )
        # cwd="/" keeps the source tree out of the import path, so the
        # package must come from an absolute PYTHONPATH
        pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(conespde.__file__)))
        env = dict(os.environ, CONE_SPDE_FORCE_PYTHON="1", PYTHONPATH=pkg_parent)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            cwd="/", check=True,
        )
        assert out.stdout.split() == ["fallback", "runtime-error"]


class TestPlan:
    def test_step_constants(self):
        rates = np.array([1.0, 2.0])
        lam = np.array([0.5])
        weights = np.array([0.2])
        sp = make_plan(
            2, 1e-3, (), ((),), ((),), rates, lam, weights, np.ones(2), 1e-8, 1e12
        )
        np.testing.assert_array_equal(sp.decay, np.exp(-rates * 1e-3))
        np.testing.assert_array_equal(sp.sqrt_scale, np.sqrt(lam * 1e-3))
        np.testing.assert_array_equal(sp.atom_wdt, weights * 1e-3)
        assert sp.n_vols == 1 and sp.n_atoms == 1

    def test_leaf_codes(self):
        b = np.full(4, 0.5)
        assert ZeroMap(4).lower() == ()
        assert ConstantMap(b).lower()[0].code == CONSTANT
        assert MeanReversionMap(1.0, b).lower()[0].code == MEAN_REV
        assert ProportionalMap(0.3, 1, 4).lower()[0].code == PROPORTIONAL
        assert AffineMap(np.eye(4), b).lower()[0].code == DENSE
        assert GatedOffsetMap(b, 2, 6.0, 7.0).lower()[0].code == GATED

    def test_sum_concatenates_and_projection_cuts(self):
        b = np.full(4, 0.5)
        m = SumMap((MeanReversionMap(1.0, b), ConstantMap(b)))
        assert [leaf.code for leaf in m.lower()] == [MEAN_REV, CONSTANT]
        leaves = ProjectedMap(MeanReversionMap(1.0, b), 2).lower()
        assert leaves[0].cutoff == 2

    def test_non_lowerable_families(self):
        tab = TabulatedMap(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 4)
        assert tab.lower() is None
        assert CallableMap(lambda h: h.coords, 4).lower() is None


@needs_compiled
class TestBackendParity:
    def test_mixed_system(self):
        coeffs, sg, noise, cone, h0 = mixed_system()
        config = SimConfig(dt=1e-3, horizon=0.05, paths=16)
        a = run_ensemble(coeffs, sg, noise, cone, config, h0, backend="compiled")
        b = run_ensemble(coeffs, sg, noise, cone, config, h0, backend="fallback")
        assert_same_ensemble(a, b)

    def test_mixed_system_with_trajectories(self):
        coeffs, sg, noise, cone, h0 = mixed_system()
        config = SimConfig(dt=1e-3, horizon=0.02, paths=4, store_trajectories=True)
        a = run_ensemble(coeffs, sg, noise, cone, config, h0, backend="compiled")
        b = run_ensemble(coeffs, sg, noise, cone, config, h0, backend="fallback")
        assert_same_ensemble(a, b)

    def test_compliant_system(self, heat16, cone16, compliant_coeffs, flat_noise8):
        h0 = StateVec(np.zeros(16))
        config = SimConfig(dt=1e-3, horizon=0.05, paths=16)
        a = run_ensemble(compliant_coeffs, heat16, flat_noise8, cone16, config, h0, backend="compiled")
        b = run_ensemble(compliant_coeffs, heat16, flat_noise8, cone16, config, h0, backend="fallback")
        assert_same_ensemble(a, b)

    def test_badvol_system_with_exits(self, heat16, cone16, badvol_coeffs):
        noise9 = NoiseSpec.flat(9, 1.0, seed=0)
        h0 = StateVec(np.zeros(16))
        config = SimConfig(dt=1e-3, horizon=0.05, paths=16)
        a = run_ensemble(badvol_coeffs, heat16, noise9, cone16, config, h0, backend="compiled")
        b = run_ensemble(badvol_coeffs, heat16, noise9, cone16, config, h0, backend="fallback")
        assert np.any(a.exited)
        assert_same_ensemble(a, b)

    def test_divergence_recording_matches(self):
        dim = 2
        coeffs = CoefficientSet(AffineMap(100.0 * np.eye(dim), np.zeros(dim)))
        sg = DiagonalSemigroup(np.zeros(dim))
        cone = ConeSpec(np.array([0, 0]))
        config = SimConfig(dt=0.05, horizon=1.0, paths=3, guard=1e6)
        a = run_ensemble(coeffs, sg, NoiseSpec(()), cone, config, StateVec(np.ones(dim)), backend="compiled")
        b = run_ensemble(coeffs, sg, NoiseSpec(()), cone, config, StateVec(np.ones(dim)), backend="fallback")
        assert np.all(a.diverged > 0)
        assert_same_ensemble(a, b)


def opaque(m):
    """A callable that delegates to ``m`` but cannot be lowered."""
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
    # Sets that do not lower run through the numpy loop with each map
    # evaluated by its batch eval_array; wrappers that delegate to
    # builtin maps must reproduce the lowered output exactly.

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
        assert wrapped.lower() is None
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


class TestStepEnsembleDirect:
    def test_unknown_backend_name(self):
        sp = make_plan(2, 0.1, (), (), (), np.zeros(2), np.zeros(0), np.zeros(0), np.ones(2), 1e-8, 1e12)
        with pytest.raises(ValueError):
            step_ensemble(
                sp, np.zeros((1, 2)), np.zeros((1, 1, 0)),
                np.zeros((1, 1, 0), dtype=np.int64), backend="gpu",
            )
