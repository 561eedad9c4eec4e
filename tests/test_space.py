"""State space, cones, retraction.

The distance oracle solves the nearest-point problem with a bounded
quasi-Newton method (scipy), which shares no code with the closed-form
clip used by the package.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from conespde import (
    ConeSpec,
    DomainError,
    ShapeError,
    StateVec,
    cone_contains,
    cone_distance,
    cone_leq,
    cone_nearest,
    retract,
)
from conespde.coefficients import AffineMap, ProjectedMap


def oracle_distance(cone: ConeSpec, h: StateVec) -> float:
    """Nearest-point distance via bounded L-BFGS-B, independent of the
    closed form under test."""
    bounds = []
    for s in cone.signs:
        if s > 0:
            bounds.append((0.0, None))
        elif s < 0:
            bounds.append((None, 0.0))
        else:
            bounds.append((None, None))

    def objective(g):
        return float(np.sum((h.coords - g) ** 2))

    res = minimize(objective, np.zeros(h.dim), bounds=bounds, method="L-BFGS-B")
    return float(np.sqrt(res.fun))


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
    return ConeSpec(np.array(s)), StateVec(np.array(c))


# ---------------------------------------------------------------- StateVec


class TestStateVec:
    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            StateVec(np.array([1.0, np.nan]))

    def test_rejects_inf(self):
        with pytest.raises(DomainError):
            StateVec(np.array([np.inf]))

    def test_rejects_matrix(self):
        with pytest.raises(ShapeError):
            StateVec(np.zeros((2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            StateVec(np.array([]))

    def test_immutable(self):
        v = StateVec(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            v.coords[0] = 9.0

    def test_arithmetic(self):
        a = StateVec(np.array([1.0, 2.0]))
        b = StateVec(np.array([0.5, -1.0]))
        assert (a + b) == StateVec(np.array([1.5, 1.0]))
        assert (a - b) == StateVec(np.array([0.5, 3.0]))
        assert 2.0 * a == StateVec(np.array([2.0, 4.0]))
        assert a.norm() == pytest.approx(np.sqrt(5.0))

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            StateVec(np.array([1.0])) + StateVec(np.array([1.0, 2.0]))

    def test_config_round_trip(self):
        v = StateVec(np.array([1.0, -2.5]))
        assert StateVec.from_config(v.to_config()) == v

    def test_config_dim_check(self):
        with pytest.raises(ShapeError):
            StateVec.from_config({"dim": 3, "coords": [1.0, 2.0]})


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
        out = retract(StateVec(np.array([3.0, 4.0])), 1.0)
        np.testing.assert_allclose(out.coords, [0.6, 0.8], rtol=1e-15)
        assert out.norm() == pytest.approx(1.0)

    def test_identity_inside_ball(self):
        h = StateVec(np.array([0.3, 0.4]))
        assert retract(h, 1.0) == h

    def test_origin_fixed(self):
        z = StateVec(np.zeros(3))
        assert retract(z, 2.0) == z

    def test_radius_positive(self):
        with pytest.raises(DomainError):
            retract(StateVec(np.array([1.0])), 0.0)

    @pytest.mark.parametrize("n", [np.nan, np.inf, -np.inf])
    def test_radius_finite(self, n):
        with pytest.raises(DomainError, match="radius"):
            retract(StateVec(np.array([1.0, 2.0])), n)

    @given(coords, coords, st.floats(min_value=0.1, max_value=10))
    def test_nonexpansive(self, a, b, n):
        if len(a) != len(b):
            b = (b + a)[: len(a)]
        h, g = StateVec(np.array(a)), StateVec(np.array(b))
        assert (retract(h, n) - retract(g, n)).norm() <= (h - g).norm() * (1 + 1e-12)

    @given(coords, st.floats(min_value=0.1, max_value=10))
    def test_bounded(self, c, n):
        assert retract(StateVec(np.array(c)), n).norm() <= n * (1 + 1e-12)


# ---------------------------------------------------------------- cone algebra


class TestConeMembership:
    def test_boundary_point(self):
        K = ConeSpec.nonnegative(3)
        assert cone_contains(K, StateVec(np.array([0.0, 1.0, 2.0])))

    def test_sign_violation(self):
        K = ConeSpec.nonnegative(3)
        assert not cone_contains(K, StateVec(np.array([-1e-3, 1.0, 1.0])))

    def test_mixed_signs_by_hand(self):
        K = ConeSpec(np.array([1, -1, 0]))
        assert cone_contains(K, StateVec(np.array([2.0, -3.0, -7.0])))

    def test_tolerance_slack(self):
        K = ConeSpec.nonnegative(2)
        h = StateVec(np.array([-1e-10, 1.0]))
        assert not cone_contains(K, h, 0.0)
        assert cone_contains(K, h, 1e-9)

    def test_negative_tolerance(self):
        with pytest.raises(DomainError):
            cone_contains(ConeSpec.nonnegative(1), StateVec(np.array([1.0])), -1.0)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            cone_contains(ConeSpec.nonnegative(2), StateVec(np.array([1.0])))

    @given(cone_and_vec(), cone_and_vec(), st.floats(min_value=0, max_value=10))
    def test_cone_closed_under_algebra(self, cv1, cv2, lam):
        K, h = cv1
        _, g_raw = cv2
        h = cone_nearest(K, h)
        g = cone_nearest(K, StateVec(np.resize(g_raw.coords, h.dim)))
        assert cone_contains(K, h + g, 1e-12)
        assert cone_contains(K, lam * h, 1e-9)

    @given(cone_and_vec(), st.integers(min_value=0, max_value=8))
    def test_projection_preserves_cone(self, cv, n):
        K, h = cv
        p = cone_nearest(K, h)
        proj = ProjectedMap(AffineMap(np.eye(h.dim), np.zeros(h.dim)), n)
        assert cone_contains(K, StateVec(proj.eval_array(p.coords)), 0.0)


class TestConeDistance:
    def test_frozen_example(self):
        K = ConeSpec.nonnegative(2)
        assert cone_distance(K, StateVec(np.array([-3.0, 4.0]))) == pytest.approx(3.0)

    def test_zero_on_cone(self):
        K = ConeSpec.nonnegative(2)
        assert cone_distance(K, StateVec(np.array([1.0, 0.0]))) == 0.0

    def test_free_cone(self):
        K = ConeSpec(np.zeros(2, dtype=int))
        assert cone_distance(K, StateVec(np.array([-5.0, -5.0]))) == 0.0

    @given(cone_and_vec())
    @settings(max_examples=40, deadline=None)
    def test_matches_optimizer_oracle(self, cv):
        K, h = cv
        want = oracle_distance(K, h)
        assert cone_distance(K, h) == pytest.approx(want, abs=1e-5)

    @given(cone_and_vec(), st.floats(min_value=0, max_value=100))
    def test_positive_homogeneity(self, cv, lam):
        K, h = cv
        assert cone_distance(K, lam * h) == pytest.approx(lam * cone_distance(K, h), rel=1e-12, abs=1e-12)

    @given(cone_and_vec(), cone_and_vec())
    def test_one_lipschitz(self, cv1, cv2):
        K, h = cv1
        _, g_raw = cv2
        g = StateVec(np.resize(g_raw.coords, h.dim))
        assert abs(cone_distance(K, h) - cone_distance(K, g)) <= (h - g).norm() + 1e-12

    @given(cone_and_vec(), cone_and_vec())
    def test_adding_cone_point_never_increases(self, cv1, cv2):
        K, h = cv1
        _, g_raw = cv2
        g = cone_nearest(K, StateVec(np.resize(g_raw.coords, h.dim)))
        assert cone_distance(K, h + g) <= cone_distance(K, h) + 1e-12

    @given(cone_and_vec())
    def test_nearest_point_is_member_and_attains(self, cv):
        K, h = cv
        p = cone_nearest(K, h)
        assert cone_contains(K, p, 0.0)
        assert (h - p).norm() == pytest.approx(cone_distance(K, h), abs=1e-12)


class TestConeOrder:
    def test_reflexive(self):
        K = ConeSpec.nonnegative(2)
        h = StateVec(np.array([1.0, 2.0]))
        assert cone_leq(K, h, h)

    def test_componentwise_example(self):
        K = ConeSpec.nonnegative(2)
        assert cone_leq(K, StateVec(np.array([1.0, 1.0])), StateVec(np.array([2.0, 1.0])))
        assert not cone_leq(K, StateVec(np.array([2.0, 1.0])), StateVec(np.array([1.0, 1.0])))

    @given(coords, coords)
    def test_antisymmetry_on_orthant(self, a, b):
        # Fully constrained cone: mutual domination forces equality.
        n = len(a)
        b = np.resize(np.array(b), n)
        K = ConeSpec.nonnegative(n)
        g, h = StateVec(np.array(a)), StateVec(b)
        if cone_leq(K, g, h) and cone_leq(K, h, g):
            assert g == h
