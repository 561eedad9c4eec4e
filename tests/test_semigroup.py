"""Diagonal semigroups: the flow's factors and the config form.

The admissible boundary pairs of the semigroup are decided by the
condition checkers and tested with them in ``test_coefficients``.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conespde import (
    ConeSpec,
    ConfigError,
    DiagonalSemigroup,
    DomainError,
    cone_contains,
)


rate_lists = st.lists(
    st.floats(min_value=-3, max_value=20, allow_nan=False, width=64),
    min_size=1,
    max_size=6,
)


class TestApply:
    # S_t h is multipliers(t) * h, coordinate by coordinate

    def test_time_zero_is_identity(self):
        sg = DiagonalSemigroup(np.array([1.0, 5.0]))
        h = np.array([2.0, -3.0])
        assert np.array_equal(sg.multipliers(0.0) * h, h)

    def test_heat_at_ln2(self):
        out = DiagonalSemigroup.heat(2).multipliers(np.log(2.0))
        np.testing.assert_allclose(out, [0.5, 0.25], rtol=1e-14)

    def test_negative_time(self):
        sg = DiagonalSemigroup.heat(2)
        with pytest.raises(DomainError):
            sg.multipliers(-0.1)

    @given(
        rate_lists,
        st.floats(min_value=0, max_value=5),
        st.floats(min_value=0, max_value=5),
    )
    def test_semigroup_law(self, rates, t, s):
        sg = DiagonalSemigroup(np.array(rates))
        lhs = sg.multipliers(t) * sg.multipliers(s)
        np.testing.assert_allclose(lhs, sg.multipliers(t + s), rtol=1e-12)

    @given(rate_lists, st.floats(min_value=0, max_value=10))
    def test_growth_bound(self, rates, t):
        sg = DiagonalSemigroup(np.array(rates))
        h = np.ones(sg.dim)
        beta = max(0.0, -min(rates))  # the growth bound
        assert np.linalg.norm(sg.multipliers(t) * h) <= (
            np.exp(beta * t) * np.linalg.norm(h) * (1 + 1e-12)
        )


class TestGenerator:
    def test_finite_difference_consistency(self):
        # (S_t h - h)/t at t = 1e-6 vs the generator (A h)_k = -c_k h_k.
        sg = DiagonalSemigroup.heat(8)
        h = np.linspace(0.5, 4.0, 8)
        t = 1e-6
        fd = (sg.multipliers(t) * h - h) / t
        np.testing.assert_allclose(fd, -sg.rates * h, rtol=1e-4)


class TestConePreservation:
    def test_monte_carlo_spot_check(self):
        sg = DiagonalSemigroup.heat(6)
        K = ConeSpec.nonnegative(6)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            h = np.abs(rng.standard_normal(6))
            t = float(rng.uniform(0.0, 10.0))
            assert cone_contains(K, sg.multipliers(t) * h, 0.0)


class TestFromConfig:
    def test_heat_rule(self):
        sg = DiagonalSemigroup.from_config({"rates": "heat"}, 4)
        np.testing.assert_allclose(sg.rates, [1.0, 2.0, 3.0, 4.0])

    def test_explicit_rates(self):
        sg = DiagonalSemigroup.from_config({"rates": [1.0, 0.5]}, 2)
        np.testing.assert_allclose(sg.rates, [1.0, 0.5])

    def test_unknown_rule(self):
        with pytest.raises(ConfigError):
            DiagonalSemigroup.from_config({"rates": "wave"}, 4)

    def test_dim_mismatch(self):
        with pytest.raises(ConfigError):
            DiagonalSemigroup.from_config({"rates": [1.0, 2.0]}, 3)

    def test_heat_dim_mismatch(self):
        # the heat rule takes the space's dimension, so a dim key is
        # refused whatever its value
        for dim in (3, 4):
            with pytest.raises(ConfigError, match="^dim: undeclared key$"):
                DiagonalSemigroup.from_config({"rates": "heat", "dim": dim}, 4)

    def test_round_trip(self):
        sg = DiagonalSemigroup(np.array([2.0, 0.25]))
        back = DiagonalSemigroup.from_config(sg.to_config(), sg.dim)
        np.testing.assert_array_equal(back.rates, sg.rates)
