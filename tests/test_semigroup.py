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
    ExperimentConfig,
    cone_contains,
    preset_document,
)
from conespde.config import canonical_json


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


def _load(semigroup: dict) -> ExperimentConfig:
    """The heat-positive preset (dimension 16) with its ``semigroup``
    section replaced, as ``ExperimentConfig.from_dict`` reads it."""
    return ExperimentConfig.from_dict({**preset_document("heat-positive"), "semigroup": semigroup})


class TestFromConfig:
    # the semigroup section of a config document, which
    # ExperimentConfig.from_dict reads and to_dict writes

    def test_heat_rule(self):
        ec = _load({"rates": "heat"})
        np.testing.assert_array_equal(ec.semigroup.rates, np.arange(1.0, 17.0))
        assert ec.to_dict()["semigroup"] == {"rates": [float(k) for k in range(1, 17)]}

    def test_explicit_rates(self):
        rates = [1.0, 0.5] * 8
        np.testing.assert_array_equal(_load({"rates": rates}).semigroup.rates, rates)

    def test_unknown_rule(self):
        with pytest.raises(ConfigError, match="^semigroup: unknown rates rule 'wave'$"):
            _load({"rates": "wave"})

    def test_dim_mismatch(self):
        message = "^semigroup: semigroup dim 2 does not match space dim 16$"
        with pytest.raises(ConfigError, match=message):
            _load({"rates": [1.0, 2.0]})

    def test_heat_dim_mismatch(self):
        # the heat rule takes the space's dimension, so a dim key is
        # refused whatever its value
        for dim in (3, 16):
            with pytest.raises(ConfigError, match="^semigroup: dim: undeclared key$"):
                _load({"rates": "heat", "dim": dim})

    def test_round_trip(self):
        rates = [2.0, 0.25] * 8
        written = _load({"rates": rates}).to_dict()
        assert canonical_json(written["semigroup"]) == '{"rates":[%s]}' % ",".join(
            ["2.0,0.25"] * 8
        )
        back = ExperimentConfig.from_dict(written)
        np.testing.assert_array_equal(back.semigroup.rates, rates)
