"""Diagonal semigroups, resolvents, and the boundary pairing.

The resolvent oracle integrates the Laplace transform numerically
(scipy quad per coordinate) instead of using the closed form, so the
two implementations can disagree only if one of them is wrong.  The
admissible-pair rule is tested through ``drift_margin``, which applies
it before it evaluates a margin.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conespde import (
    ConeSpec,
    ConfigError,
    DiagonalSemigroup,
    DomainError,
    LiminfGrid,
    SamplerContractError,
    ShapeError,
    StateVec,
    cone_contains,
    cone_leq,
    cone_nearest,
)
from conespde.coefficients import CoefficientSet, ZeroMap, drift_margin


def oracle_resolvent(rates: np.ndarray, lam: float, h: np.ndarray) -> np.ndarray:
    """Laplace-transform quadrature of the orbit, coordinate by coordinate."""
    out = np.zeros_like(h)
    for k, (c, x) in enumerate(zip(rates, h)):
        # exponents combined so the expanding-rate factor cannot overflow
        val, err = quad(lambda t: np.exp(-(lam + c) * t) * x, 0, np.inf)
        assert err < 1e-7
        out[k] = val
    return out


rate_lists = st.lists(
    st.floats(min_value=-3, max_value=20, allow_nan=False, width=64),
    min_size=1,
    max_size=6,
)


class TestApply:
    def test_time_zero_is_identity(self):
        sg = DiagonalSemigroup(np.array([1.0, 5.0]))
        h = StateVec(np.array([2.0, -3.0]))
        assert sg.apply(0.0, h) == h

    def test_heat_at_ln2(self):
        sg = DiagonalSemigroup.heat(2)
        out = sg.apply(np.log(2.0), StateVec(np.array([1.0, 1.0])))
        np.testing.assert_allclose(out.coords, [0.5, 0.25], rtol=1e-14)

    def test_negative_time(self):
        sg = DiagonalSemigroup.heat(2)
        with pytest.raises(DomainError):
            sg.apply(-0.1, StateVec(np.array([1.0, 1.0])))

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            DiagonalSemigroup.heat(3).apply(1.0, StateVec(np.array([1.0])))

    @given(
        rate_lists,
        st.floats(min_value=0, max_value=5),
        st.floats(min_value=0, max_value=5),
    )
    def test_semigroup_law(self, rates, t, s):
        sg = DiagonalSemigroup(np.array(rates))
        h = StateVec(np.linspace(1.0, 2.0, sg.dim))
        lhs = sg.apply(t, sg.apply(s, h))
        rhs = sg.apply(t + s, h)
        np.testing.assert_allclose(lhs.coords, rhs.coords, rtol=1e-12)

    @given(rate_lists, st.floats(min_value=0, max_value=10))
    def test_growth_bound(self, rates, t):
        sg = DiagonalSemigroup(np.array(rates))
        h = StateVec(np.ones(sg.dim))
        assert sg.apply(t, h).norm() <= np.exp(sg.beta * t) * h.norm() * (1 + 1e-12)

    def test_beta_zero_for_contractive(self):
        assert DiagonalSemigroup.heat(4).beta == 0.0

    def test_beta_from_expanding_rate(self):
        assert DiagonalSemigroup(np.array([1.0, -2.5])).beta == 2.5


class TestGenerator:
    def test_closed_form(self):
        sg = DiagonalSemigroup(np.array([1.0, 3.0]))
        out = sg.generator_apply(StateVec(np.array([2.0, -1.0])))
        np.testing.assert_allclose(out.coords, [-2.0, 3.0])

    def test_finite_difference_consistency(self):
        # (S_t h - h)/t at t = 1e-6 vs the analytic generator.
        sg = DiagonalSemigroup.heat(8)
        h = StateVec(np.linspace(0.5, 4.0, 8))
        t = 1e-6
        fd = (sg.apply(t, h) - h) * (1.0 / t)
        want = sg.generator_apply(h)
        np.testing.assert_allclose(fd.coords, want.coords, rtol=1e-4)


class TestResolvent:
    def test_frozen_example(self):
        sg = DiagonalSemigroup(np.array([1.0, 2.0]))
        out = sg.resolvent(1.0, StateVec(np.array([2.0, 3.0])))
        np.testing.assert_allclose(out.coords, [1.0, 1.0], rtol=1e-14)

    def test_matches_laplace_quadrature(self):
        rates = np.array([0.5, 1.0, 4.0, -0.25])
        sg = DiagonalSemigroup(rates)
        h = np.array([2.0, -3.0, 1.5, 0.7])
        lam = 1.0  # above beta = 0.25
        want = oracle_resolvent(rates, lam, h)
        got = sg.resolvent(lam, StateVec(h))
        np.testing.assert_allclose(got.coords, want, atol=1e-6)

    def test_parameter_must_exceed_growth_bound(self):
        sg = DiagonalSemigroup(np.array([1.0, -2.0]))
        with pytest.raises(DomainError):
            sg.resolvent(2.0, StateVec(np.array([1.0, 1.0])))
        sg.resolvent(2.0 + 1e-9, StateVec(np.array([1.0, 1.0])))

    def test_large_lambda_recovers_identity(self):
        sg = DiagonalSemigroup.heat(4)
        h = StateVec(np.array([1.0, -2.0, 3.0, -4.0]))
        lam = 1e8
        out = lam * sg.resolvent(lam, h)
        np.testing.assert_allclose(out.coords, h.coords, rtol=1e-6)

    def test_preserves_cone(self):
        sg = DiagonalSemigroup.heat(4)
        K = ConeSpec.nonnegative(4)
        rng = np.random.default_rng(3)
        for _ in range(50):
            h = cone_nearest(K, StateVec(rng.standard_normal(4)))
            assert cone_contains(K, sg.resolvent(0.7, h), 0.0)


class TestConePreservation:
    def test_monte_carlo_spot_check(self):
        sg = DiagonalSemigroup.heat(6)
        K = ConeSpec.nonnegative(6)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            h = StateVec(np.abs(rng.standard_normal(6)))
            t = float(rng.uniform(0.0, 10.0))
            assert cone_contains(K, sg.apply(t, h), 0.0)


def zero_margin(cone, functional, h):
    """``drift_margin`` with zero coefficients: 0.0 (the boundary value
    ``a``) at an admissible pair, an error at any other."""
    return drift_margin(CoefficientSet(ZeroMap(cone.dim)), cone, *functional, h)


class TestBoundaryMembership:
    def test_on_face_admissible_with_zero_value(self):
        K = ConeSpec.nonnegative(3)
        h = StateVec(np.array([1.0, 0.0, 2.0]))
        assert zero_margin(K, (1, 1), h) == 0.0

    def test_off_face_not_admissible(self):
        K = ConeSpec.nonnegative(1)
        with pytest.raises(SamplerContractError, match="not an admissible boundary pair"):
            zero_margin(K, (1, 0), StateVec(np.array([1.0])))

    @pytest.mark.parametrize("functional", [(1, 9), (1, -1), (0, 0), (2, 1)])
    def test_quotient_functional_validated(self, functional):
        with pytest.raises(ConfigError, match="functional"):
            zero_margin(ConeSpec.nonnegative(4), functional, StateVec(np.zeros(4)))

    def test_functional_must_generate_cone(self):
        K = ConeSpec(np.array([1, 0]))
        with pytest.raises(ConfigError):
            zero_margin(K, (1, 1), StateVec(np.array([1.0, 0.0])))
        with pytest.raises(ConfigError):
            zero_margin(K, (-1, 0), StateVec(np.array([0.0, 0.0])))

    def test_point_must_lie_in_cone(self):
        K = ConeSpec.nonnegative(2)
        with pytest.raises(DomainError):
            zero_margin(K, (1, 0), StateVec(np.array([-1.0, 0.0])))

    @given(st.floats(min_value=0, max_value=50))
    @settings(max_examples=30)
    def test_homogeneity_of_membership(self, lam):
        # (h*, h) admissible => (h*, lam h) admissible with value lam * 0 = 0.
        K = ConeSpec.nonnegative(2)
        h = StateVec(np.array([0.0, 1.0]))
        assert zero_margin(K, (1, 0), lam * h) == 0.0

    def test_monotone_in_cone_order(self):
        # g <= h in the cone order and (h*, h) admissible force h_k = g_k = 0,
        # so g is admissible with the same (zero) boundary value.
        K = ConeSpec.nonnegative(3)
        h = StateVec(np.array([0.0, 2.0, 3.0]))
        g = StateVec(np.array([0.0, 1.0, 0.5]))
        assert cone_leq(K, g, h)
        assert zero_margin(K, (1, 0), g) == zero_margin(K, (1, 0), h) == 0.0


class TestLiminfGrid:
    def test_times_geometric(self):
        g = LiminfGrid(t0=1.0, ratio=0.5, points=3)
        np.testing.assert_allclose(g.times(), [1.0, 0.5, 0.25])

    def test_validation(self):
        with pytest.raises(DomainError):
            LiminfGrid(t0=0.0)
        with pytest.raises(DomainError):
            LiminfGrid(ratio=1.5)
        with pytest.raises(DomainError):
            LiminfGrid(points=1)


class TestFromConfig:
    def test_heat_rule(self):
        sg = DiagonalSemigroup.from_config({"rates": "heat"}, dim=4)
        np.testing.assert_allclose(sg.rates, [1.0, 2.0, 3.0, 4.0])

    def test_explicit_rates(self):
        sg = DiagonalSemigroup.from_config({"rates": [1.0, 0.5]})
        np.testing.assert_allclose(sg.rates, [1.0, 0.5])

    def test_unknown_rule(self):
        with pytest.raises(ConfigError):
            DiagonalSemigroup.from_config({"rates": "wave"}, dim=4)

    def test_dim_mismatch(self):
        with pytest.raises(ConfigError):
            DiagonalSemigroup.from_config({"rates": [1.0, 2.0]}, dim=3)

    def test_round_trip(self):
        sg = DiagonalSemigroup(np.array([2.0, 0.25]))
        back = DiagonalSemigroup.from_config(sg.to_config())
        np.testing.assert_array_equal(back.rates, sg.rates)
