"""State space, cones, retraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conespde import (
    CoefficientSet,
    ConeSpec,
    DiagonalSemigroup,
    DomainError,
    ExperimentConfig,
    NoiseSpec,
    ShapeError,
    SimConfig,
    Witness,
    cone_contains,
    retract,
    run_ensemble,
    ssnc_estimate,
)
from conespde.approx import mollify
from conespde.coefficients import AffineMap, ProjectedMap, ZeroMap
from conespde.space import shift


def clip(cone: ConeSpec, h: np.ndarray) -> np.ndarray:
    """The nearest point of ``cone`` to ``h``: every coordinate that
    breaks its sign constraint set to 0."""
    return np.where(cone.signs * h < 0.0, 0.0, h)


coords = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False, width=64),
    min_size=1,
    max_size=8,
)
signs_for = lambda n: st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n)


@st.composite
def cone_and_vec(draw):
    c = draw(coords)
    s = draw(signs_for(len(c)))
    return ConeSpec(np.array(s)), np.array(c)


# ---------------------------------------------------------------- state vectors


def state_edges(dim: int = 2) -> dict:
    """Every public call that takes one state, as ``h -> result``, on
    the space of dimension ``dim``."""
    free = ConeSpec(np.zeros(dim, dtype=int))
    sg = DiagonalSemigroup.heat(dim)
    return {
        "run_ensemble": lambda h: run_ensemble(
            CoefficientSet(ZeroMap(dim)), sg, NoiseSpec(()), free, SimConfig(0.5, 0.5, 1), h
        ),
        "ssnc_estimate": lambda h: ssnc_estimate(sg, np.zeros(dim), free, h),
        "mollify": lambda h: mollify(ZeroMap(dim), 8.0, h),
        "Witness": lambda h: Witness("drift-inward", 1, 0, h, 1.0),
    }


class TestStateVec:
    """A state vector is an ``(N,)`` float64 array-like, checked once
    where it enters the API."""

    @staticmethod
    def rejected(h, error, edges=None):
        for name, enter in state_edges().items():
            if edges is None or name in edges:
                with pytest.raises(error):
                    enter(h)

    def test_rejects_nan(self):
        self.rejected([1.0, np.nan], DomainError)

    def test_rejects_inf(self):
        self.rejected(np.array([np.inf, 0.0]), DomainError)

    def test_rejects_matrix(self):
        self.rejected(np.zeros((2, 2)), ShapeError)

    def test_rejects_empty(self):
        self.rejected(np.array([]), ShapeError)

    def test_dim_mismatch(self):
        # a witness's point has no space to disagree with
        self.rejected(np.array([1.0]), ShapeError, ("run_ensemble", "ssnc_estimate", "mollify"))

    def test_immutable(self):
        # the states a run keeps are read-only copies of what came in
        h = np.array([1.0, 2.0])
        w = state_edges()["Witness"](h)
        h[0] = 9.0
        assert w.point.tolist() == [1.0, 2.0]
        h0 = ExperimentConfig.from_dict({"preset": "heat-positive"}).h0
        for v in (w.point, h0):
            with pytest.raises(ValueError):
                v[0] = 9.0


class TestConeSpec:
    def test_rejects_bad_sign(self):
        with pytest.raises(DomainError):
            ConeSpec(np.array([1, 2]))

    def test_constrained_indices(self):
        c = ConeSpec(np.array([1, 0, -1]))
        assert list(c.constrained) == [0, 2]

    def test_config_round_trip(self):
        c = ConeSpec(np.array([1, 0, -1]))
        assert ConeSpec.from_config(c.to_config()).signs.tolist() == [1, 0, -1]


# ---------------------------------------------------------------- retract


class TestRetract:
    def test_frozen_example(self):
        out = retract(np.array([3.0, 4.0]), 1.0)
        np.testing.assert_allclose(out, [0.6, 0.8], rtol=1e-15)
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_identity_inside_ball(self):
        h = np.array([0.3, 0.4])
        assert retract(h, 1.0).tobytes() == h.tobytes()

    def test_origin_fixed(self):
        z = np.zeros(3)
        assert retract(z, 2.0).tobytes() == z.tobytes()

    def test_radius_positive(self):
        with pytest.raises(DomainError):
            retract(np.array([1.0]), 0.0)

    @pytest.mark.parametrize("n", [np.nan, np.inf, -np.inf])
    def test_radius_finite(self, n):
        with pytest.raises(DomainError, match="radius"):
            retract(np.array([1.0, 2.0]), n)

    @given(coords, coords, st.floats(min_value=0.1, max_value=10))
    def test_nonexpansive(self, a, b, n):
        if len(a) != len(b):
            b = (b + a)[: len(a)]
        h, g = np.array(a), np.array(b)
        assert np.linalg.norm(retract(h, n) - retract(g, n)) <= np.linalg.norm(h - g) * (1 + 1e-12)

    @given(coords, st.floats(min_value=0.1, max_value=10))
    def test_bounded(self, c, n):
        assert np.linalg.norm(retract(np.array(c), n)) <= n * (1 + 1e-12)


# ---------------------------------------------------------------- cone algebra


class TestConeMembership:
    def test_boundary_point(self):
        K = ConeSpec.nonnegative(3)
        assert cone_contains(K, np.array([0.0, 1.0, 2.0]))

    def test_sign_violation(self):
        K = ConeSpec.nonnegative(3)
        assert not cone_contains(K, np.array([-1e-3, 1.0, 1.0]))

    def test_mixed_signs_by_hand(self):
        K = ConeSpec(np.array([1, -1, 0]))
        assert cone_contains(K, np.array([2.0, -3.0, -7.0]))

    def test_tolerance_slack(self):
        K = ConeSpec.nonnegative(2)
        h = np.array([-1e-10, 1.0])
        assert not cone_contains(K, h, 0.0)
        assert cone_contains(K, h, 1e-9)

    def test_negative_tolerance(self):
        with pytest.raises(DomainError):
            cone_contains(ConeSpec.nonnegative(1), np.array([1.0]), -1.0)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            cone_contains(ConeSpec.nonnegative(2), np.array([1.0]))

    @pytest.mark.parametrize("shape", [(2,), (4, 2), (2, 3, 3), ()])
    def test_wrong_shape(self, shape):
        with pytest.raises(ShapeError):
            cone_contains(ConeSpec.nonnegative(3), np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [0, 2])
    def test_non_finite_entry_is_outside(self, bad, k):
        # coordinate 2 is free: a non-finite value there is outside too
        K = ConeSpec(np.array([1, -1, 0]))
        h = np.array([1.0, -1.0, 0.0])
        h[k] = bad
        assert not cone_contains(K, h, 1e9)
        assert not cone_contains(K, np.stack([np.array([1.0, -1.0, 5.0]), h]), 1e9)

    @pytest.mark.parametrize("seed", range(8))
    def test_batch_is_every_row(self, seed):
        # seed 0 gives an empty batch, which is in the cone
        rng = np.random.default_rng(seed)
        K = ConeSpec(rng.integers(-1, 2, size=4))
        inside = np.abs(rng.normal(size=(seed, 4))) * K.signs
        rows = np.where(rng.random((seed, 4)) < 0.9, inside, -K.signs)
        for tol in (0.0, 0.5, 2.0):
            want = all(cone_contains(K, row, tol) for row in rows)
            assert cone_contains(K, rows, tol) == want

    @given(cone_and_vec(), cone_and_vec(), st.floats(min_value=0, max_value=10))
    def test_cone_closed_under_algebra(self, cv1, cv2, lam):
        K, h = cv1
        _, g_raw = cv2
        h = clip(K, h)
        g = clip(K, np.resize(g_raw, h.size))
        assert cone_contains(K, h + g, 1e-12)
        assert cone_contains(K, lam * h, 1e-9)

    @given(cone_and_vec(), st.integers(min_value=0, max_value=8))
    def test_projection_preserves_cone(self, cv, n):
        K, h = cv
        p = clip(K, h)
        proj = ProjectedMap(AffineMap(np.eye(h.size), np.zeros(h.size)), n)
        assert cone_contains(K, proj.eval_array(p), 0.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda a: cone_contains(ConeSpec(np.array([1, -1])), a),
        lambda a: cone_contains(ConeSpec.nonnegative(2), a, 0.5),
        lambda a: retract(a, 1.0),
        lambda a: shift(a, 1),
        lambda a: shift(a, 2, 0.25),
    ],
    ids=["contains", "contains-tol", "retract", "shift", "shift-eps"],
)
@pytest.mark.parametrize(
    "a", [[1.0, 2.0], [[0.5, -2.0], [-0.25, 0.0]], [1, 0], [np.nan, 1.0]],
    ids=["state", "batch", "ints", "nan"],
)
def test_batch_functions_take_lists(call, a):
    # a list is the array it spells, non-finite entries included
    want, got = call(np.array(a, dtype=np.float64)), call(a)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
