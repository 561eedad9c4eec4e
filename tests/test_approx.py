"""Smoothing toolbox: dead-zone clippers, boundary shifts, inf/sup
envelopes, mollified correctors, and the noise-induced drift term.

The envelope oracle below is independent of the package: for f = |x|
the inf-convolution has the Huber closed form, evaluated directly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conespde import (
    ConeSpec,
    DomainError,
    SearchRadiusError,
    ShapeError,
    StateVec,
    UnsupportedDimensionError,
    cone_contains,
)
from conespde.approx import (
    BallSpec,
    GridQuadrature,
    MollifierParams,
    MonteCarloQuadrature,
    SearchSpec,
    SupInfParams,
    boundary_shift,
    boundary_shift_lipschitz,
    boundary_shift_radius,
    bump,
    compose_projection,
    compose_retraction,
    inf_convolve,
    lipschitz_probe,
    mollify,
    mollify_with_error,
    phi_eps,
    stratonovich_correction,
    sup_convolve,
    sup_inf_convolve,
    sup_inf_map,
    truncate_noise,
)
from conespde.coefficients import (
    AffineMap,
    CallableMap,
    CoefficientSet,
    ConstantMap,
    ProportionalMap,
    ZeroMap,
)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def huber(x, lam):
    # inf-convolution of |.| with a quadratic of width lam
    ax = abs(x)
    return ax * ax / (2 * lam) if ax <= lam else ax - lam / 2


# ---------------------------------------------------------------- phi_eps


class TestPhiEps:
    def test_frozen_values(self):
        assert phi_eps(2.5, 1.0) == 1.5
        assert phi_eps(-3.0, 1.0) == -2.0
        assert phi_eps(0.0, 1.0) == 0.0
        assert phi_eps(0.5, 1.0) == 0.0

    def test_zero_eps_is_identity(self):
        assert phi_eps(1.25, 0.0) == 1.25

    def test_negative_eps_rejected(self):
        with pytest.raises(DomainError):
            phi_eps(1.0, -0.5)

    def test_vectorized(self):
        out = phi_eps(np.array([-2.0, 0.25, 2.0]), 0.5)
        np.testing.assert_allclose(out, [-1.5, 0.0, 1.5])

    @given(finite, st.floats(1e-6, 10.0))
    def test_dead_zone_and_error_bound(self, x, eps):
        y = phi_eps(x, eps)
        if abs(x) <= eps:
            assert y == 0.0
        # the subtraction |x| - eps rounds at ulp(x)
        assert abs(y - x) <= eps + 1e-12 + 1e-14 * abs(x)
        assert y == 0.0 or np.sign(y) == np.sign(x)

    @given(finite, finite, st.floats(1e-6, 10.0))
    def test_lipschitz(self, x, y, eps):
        assert abs(phi_eps(x, eps) - phi_eps(y, eps)) <= abs(x - y) + 1e-9

    @given(st.floats(-10.0, 10.0), st.floats(1e-3, 2.0), st.sampled_from([1, -1]))
    def test_signed_clip_respects_halfline(self, y, eps, theta):
        # once y is within eps of the theta halfline, the clipped value
        # lies on it
        if theta * y >= -eps:
            assert theta * phi_eps(y, eps) >= 0.0


# ---------------------------------------------------------------- boundary shift


class TestBoundaryShift:
    def test_frozen_example(self):
        h = StateVec(np.array([0.05, 3.0, -1.0, 0.2]))
        out = boundary_shift(h, 3)
        np.testing.assert_allclose(out.coords, [0.0, 2.875, -0.875, 0.0])

    def test_explicit_eps_overrides_default(self):
        h = StateVec(np.array([0.3, 0.3]))
        out = boundary_shift(h, 2, eps=0.25)
        np.testing.assert_allclose(out.coords, [0.05, 0.05])

    def test_tail_zeroed(self):
        h = StateVec(np.linspace(1.0, 6.0, 6))
        out = boundary_shift(h, 2)
        assert np.all(out.coords[2:] == 0.0)

    def test_level_beyond_dim(self):
        h = StateVec(np.array([1.0, -1.0]))
        out = boundary_shift(h, 5)
        np.testing.assert_allclose(out.coords, phi_eps(h.coords, 2.0**-5))

    def test_stays_in_sign_cone(self):
        # moving each coordinate toward zero never leaves a sign cone
        K = ConeSpec(np.array([1, -1, 1, -1]))
        rng = np.random.default_rng(3)
        for _ in range(50):
            h = StateVec(K.signs * np.abs(rng.normal(size=4)))
            assert cone_contains(K, boundary_shift(h, 3), 0.0)

    def test_distance_budget(self):
        # per-head displacement <= eps = 2^-n, plus the discarded tail
        rng = np.random.default_rng(4)
        for n in (1, 3, 6):
            h = StateVec(np.abs(rng.normal(size=8)))
            out = boundary_shift(h, n)
            tail = np.linalg.norm(h.coords[n:])
            budget = math.sqrt(n) * 2.0**-n + tail
            assert np.linalg.norm(out.coords - h.coords) <= budget + 1e-12

    def test_flattens_face_neighborhood(self):
        # every state within the dead zone of a face lands exactly on it
        n = 4
        eps = 2.0**-n
        base = StateVec(np.array([0.0, 1.0, 2.0, 3.0]))
        nudged = StateVec(base.coords + np.array([0.9 * eps, 0.0, 0.0, 0.0]))
        assert boundary_shift(nudged, n).coords[0] == 0.0

    def test_level_nonnegative(self):
        with pytest.raises(DomainError):
            boundary_shift(StateVec(np.ones(2)), -1)

    def test_localization_constants(self):
        assert boundary_shift_lipschitz() == 2.0
        assert boundary_shift_radius(3) == pytest.approx(2.0**-3 / 2.0)


# ---------------------------------------------------------------- composed maps


class TestComposeProjection:
    def test_full_level_identity(self):
        f = ConstantMap(np.array([1.0, 2.0, 3.0]))
        g = compose_projection(f, 3)
        np.testing.assert_array_equal(g.eval_array(np.zeros(3)), [1.0, 2.0, 3.0])

    def test_head_preserved_tail_cut(self):
        f = ConstantMap(np.array([1.0, 2.0, 3.0]))
        g = compose_projection(f, 1)
        np.testing.assert_array_equal(g.eval_array(np.zeros(3)), [1.0, 0.0, 0.0])

    def test_sup_error_is_tail_norm(self):
        f = ConstantMap(np.array([0.0, 0.0, 3.0, 4.0]))
        g = compose_projection(f, 2)
        h = np.zeros(4)
        err = np.linalg.norm(g.eval_array(h) - f.eval_array(h))
        assert err == pytest.approx(5.0)


class TestComposeRetraction:
    def test_unchanged_inside_ball(self):
        f = AffineMap(np.eye(2), np.zeros(2))
        g = compose_retraction(f, 10.0)
        h = np.array([1.0, 2.0])
        np.testing.assert_allclose(g.eval_array(h), f.eval_array(h))

    def test_caps_argument(self):
        f = AffineMap(np.eye(2), np.zeros(2))
        g = compose_retraction(f, 1.0)
        out = g.eval_array(np.array([30.0, 40.0]))
        np.testing.assert_allclose(out, [0.6, 0.8])

    def test_probe_sees_bounded_constant(self):
        f = AffineMap(2.0 * np.eye(3), np.zeros(3))
        g = compose_retraction(f, 1.0)
        est = lipschitz_probe(g, pairs=200, domain=BallSpec(3, 5.0), seed=0)
        assert est <= 2.0 + 1e-9


class TestTruncateNoise:
    def test_column_count_preserved(self, compliant_coeffs):
        cut = truncate_noise(compliant_coeffs, 3)
        assert len(cut.vol_columns) == len(compliant_coeffs.vol_columns)

    def test_prefix_kept_tail_zeroed(self, compliant_coeffs):
        cut = truncate_noise(compliant_coeffs, 3)
        h = np.full(16, 2.0)
        for j, col in enumerate(cut.vol_columns):
            if j < 3:
                np.testing.assert_array_equal(
                    col.eval_array(h), compliant_coeffs.vol_columns[j].eval_array(h)
                )
            else:
                assert np.all(col.eval_array(h) == 0.0)

    def test_hs_norm_monotone(self, compliant_coeffs):
        h = StateVec(np.linspace(0.5, 2.0, 16))
        norms = [truncate_noise(compliant_coeffs, n).hs_norm(h) for n in range(9)]
        assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))

    def test_range_checked(self, compliant_coeffs):
        with pytest.raises(DomainError):
            truncate_noise(compliant_coeffs, 9)
        with pytest.raises(DomainError):
            truncate_noise(compliant_coeffs, -1)


# ---------------------------------------------------------------- envelopes


ABS = lambda v: abs(float(v.coords[0]))  # noqa: E731


class TestEnvelopes:
    spec = SearchSpec(lipschitz=1.0, sup_bound=3.0)

    def test_inf_matches_huber_closed_form(self):
        for x in np.linspace(-2.0, 2.0, 41):
            got = inf_convolve(ABS, 0.5, StateVec(np.array([x])), self.spec)
            assert got == pytest.approx(huber(x, 0.5), abs=1e-6)

    def test_constant_fixed_point(self):
        spec = SearchSpec(lipschitz=0.0, sup_bound=2.0)
        got = inf_convolve(lambda v: 2.0, 0.1, StateVec(np.array([0.3, -0.4])), spec)
        assert got == pytest.approx(2.0, abs=1e-9)

    def test_never_above_f(self):
        for x in (-1.3, 0.0, 0.7):
            h = StateVec(np.array([x]))
            assert inf_convolve(ABS, 0.25, h, self.spec) <= ABS(h) + 1e-9

    def test_sup_mirrors_inf(self):
        h = StateVec(np.array([0.7]))
        lo = inf_convolve(ABS, 0.25, h, self.spec)
        hi = sup_convolve(lambda v: -ABS(v), 0.25, h, self.spec)
        assert hi == pytest.approx(-lo, abs=1e-12)

    def test_sup_never_below_f(self):
        h = StateVec(np.array([0.4]))
        assert sup_convolve(ABS, 0.25, h, self.spec) >= ABS(h) - 1e-9

    def test_composition_bracketed(self):
        def f(v):
            return min(abs(float(v.coords[0])), 1.0)

        spec = SearchSpec(lipschitz=1.0, sup_bound=1.0)
        p = SupInfParams(lam=1e-2, mu=1e-3)
        for x in np.linspace(-1.5, 1.5, 7):
            h = StateVec(np.array([x]))
            lower = inf_convolve(f, p.lam, h, spec)
            upper = sup_inf_convolve(f, p, h, spec)
            assert lower <= f(h) + 1e-9
            assert lower - 1e-9 <= upper <= f(h) + 1e-6

    def test_params_ordering_enforced(self):
        with pytest.raises(DomainError):
            SupInfParams(lam=1e-3, mu=1e-2)
        with pytest.raises(DomainError):
            SupInfParams(lam=0.0, mu=0.0)

    def test_width_positive(self):
        with pytest.raises(DomainError):
            inf_convolve(ABS, 0.0, StateVec(np.zeros(1)), self.spec)

    def test_radius_error_reports_suggestion(self):
        # steep linear target and a window far too small to contain the
        # minimizer: the best grid point sits on the edge
        spec = SearchSpec(radius=0.1, lipschitz=5.0, sup_bound=50.0)
        with pytest.raises(SearchRadiusError) as info:
            inf_convolve(lambda v: -5.0 * float(v.coords[0]), 1.0, StateVec(np.zeros(1)), spec)
        assert info.value.suggested_radius > 0.1

    def test_larger_radius_succeeds(self):
        spec = SearchSpec(radius=50.0, lipschitz=5.0, sup_bound=50.0)
        got = inf_convolve(lambda v: -5.0 * float(v.coords[0]), 1.0, StateVec(np.zeros(1)), spec)
        # closed form: inf_g (-5g + g^2/2) = -25/2
        assert got == pytest.approx(-12.5, abs=1e-5)

    def test_search_spec_validation(self):
        with pytest.raises(DomainError):
            SearchSpec(radius=-1.0)

    def test_map_wrapper_smooths_componentwise(self):
        f = ConstantMap(np.array([2.0, -1.0]))
        p = SupInfParams(lam=1e-2, mu=1e-3)
        spec = SearchSpec(lipschitz=0.0, sup_bound=2.0)
        g = sup_inf_map(f, p, spec)
        np.testing.assert_allclose(g.eval_array(np.array([0.4, 0.1])), [2.0, -1.0], atol=1e-8)


# ---------------------------------------------------------------- mollifier


class TestBump:
    def test_plateau_and_support(self):
        s = np.array([-0.49, 0.0, 0.49, 0.5])
        np.testing.assert_allclose(bump(s), 1.0, atol=1e-12)
        np.testing.assert_allclose(bump(np.array([-1.0, 1.0, 1.7])), 0.0, atol=1e-12)

    def test_scalar_round_trip(self):
        assert bump(0.0) == 1.0
        assert bump(2.0) == 0.0

    def test_range_and_symmetry(self):
        s = np.linspace(-1.2, 1.2, 401)
        v = bump(s)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)
        np.testing.assert_allclose(v, bump(-s), atol=1e-12)

    def test_monotone_on_transition(self):
        s = np.linspace(0.5, 1.0, 200)
        v = bump(s)
        assert np.all(np.diff(v) <= 1e-12)

    def test_slope_bound(self):
        s = np.linspace(-1.0, 1.0, 4001)
        slopes = np.abs(np.diff(bump(s)) / np.diff(s))
        assert slopes.max() <= 3.0


class TestMollify:
    def test_constant_reproduced(self):
        f = CallableMap(lambda h: np.full(2, 7.0), 2)
        p = MollifierParams(n=2, bandwidth=8.0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            h = StateVec(rng.normal(size=2))
            np.testing.assert_allclose(mollify(f, p, h).coords, 7.0, atol=1e-10)

    def test_affine_reproduced(self):
        A = np.array([[1.0, 0.5], [0.0, 2.0]])
        f = AffineMap(A, np.array([0.3, -0.1]))
        p = MollifierParams(n=2, bandwidth=8.0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            h = StateVec(rng.normal(size=2))
            np.testing.assert_allclose(
                mollify(f, p, h).coords, f.eval_array(h.coords), atol=1e-6
            )

    def test_monte_carlo_agrees_with_grid(self):
        f = CallableMap(lambda h: np.array([math.sin(h.coords[0])]), 1)
        h = StateVec(np.array([0.4]))
        grid_val = mollify(f, MollifierParams(1, 8.0), h)
        mc = MollifierParams(1, 8.0, MonteCarloQuadrature(samples=20000, seed=2))
        mc_val, se = mollify_with_error(f, mc, h)
        assert se is not None
        assert abs(mc_val.coords[0] - grid_val.coords[0]) <= 5 * se[0] + 1e-6

    def test_grid_dimension_cap(self):
        p = MollifierParams(n=4, bandwidth=8.0)
        with pytest.raises(UnsupportedDimensionError):
            mollify(ZeroMap(4), p, StateVec(np.zeros(4)))

    def test_monte_carlo_lifts_cap(self):
        p = MollifierParams(4, 8.0, MonteCarloQuadrature(samples=2000, seed=0))
        out = mollify(ConstantMap(np.full(4, 3.0)), p, StateVec(np.zeros(4)))
        np.testing.assert_allclose(out.coords, 3.0, atol=1e-9)

    def test_dim_agreement(self):
        with pytest.raises(ShapeError):
            mollify(ZeroMap(2), MollifierParams(n=3, bandwidth=8.0), StateVec(np.zeros(3)))

    def test_smooths_kink(self):
        # |.| has a corner at 0; averaging over the support window lifts
        # the value there by at most the support radius
        f = CallableMap(lambda h: np.abs(h.coords), 1)
        p = MollifierParams(n=1, bandwidth=8.0)
        val = mollify(f, p, StateVec(np.zeros(1))).coords[0]
        assert 0.0 < val < p.support_radius

    def test_locality(self):
        # two maps agreeing within the support radius mollify identically
        f = CallableMap(lambda h: np.where(np.abs(h.coords) < 0.5, h.coords, 99.0), 1)
        g = CallableMap(lambda h: h.coords.copy(), 1)
        p = MollifierParams(n=1, bandwidth=8.0)
        h = StateVec(np.zeros(1))
        np.testing.assert_allclose(
            mollify(f, p, h).coords, mollify(g, p, h).coords, atol=1e-12
        )

    def test_params_validation(self):
        with pytest.raises(DomainError):
            MollifierParams(n=0, bandwidth=8.0)
        with pytest.raises(DomainError):
            MollifierParams(n=1, bandwidth=0.0)
        with pytest.raises(DomainError):
            MonteCarloQuadrature(samples=5, batches=10)


# ---------------------------------------------------------------- drift correction


class TestStratonovich:
    def test_constant_columns_give_zero(self):
        C = CoefficientSet(ZeroMap(3), (ConstantMap(np.array([1.0, 2.0, 3.0])),))
        out = stratonovich_correction(C, StateVec(np.ones(3)))
        np.testing.assert_allclose(out.coords, 0.0, atol=1e-9)

    def test_proportional_closed_form(self):
        # vol(h) = s h_1 e_1 gives D vol vol = s^2 h_1 e_1, so the
        # correction is s^2 h_1 / 2 on that coordinate
        C = CoefficientSet(ZeroMap(3), (ProportionalMap(0.5, 1, 3),))
        h = StateVec(np.array([2.0, 4.0, 1.0]))
        out = stratonovich_correction(C, h)
        np.testing.assert_allclose(out.coords, [0.0, 0.5**2 * 4.0 / 2.0, 0.0], atol=1e-8)

    def test_weights_scale_terms(self):
        C = CoefficientSet(ZeroMap(3), (ProportionalMap(0.5, 1, 3),))
        h = StateVec(np.array([0.0, 4.0, 0.0]))
        base = stratonovich_correction(C, h)
        double = stratonovich_correction(C, h, weights=np.array([2.0]))
        np.testing.assert_allclose(double.coords, 2.0 * base.coords, atol=1e-7)

    def test_face_component_vanishes_for_parallel_columns(self, compliant_coeffs):
        # columns proportional to h_k vanish on face k, and so does the
        # correction's k-th component
        rng = np.random.default_rng(7)
        for k in (0, 5, 10, 15):
            coords = np.abs(rng.normal(size=16))
            coords[k] = 0.0
            out = stratonovich_correction(compliant_coeffs, StateVec(coords))
            assert abs(out.coords[k]) <= 1e-6

    def test_weight_length_checked(self, compliant_coeffs):
        with pytest.raises(ShapeError):
            stratonovich_correction(compliant_coeffs, StateVec(np.zeros(16)), weights=np.ones(3))

    def test_step_positive(self, compliant_coeffs):
        with pytest.raises(DomainError):
            stratonovich_correction(compliant_coeffs, StateVec(np.zeros(16)), fd_step=0.0)


class TestLipschitzProbe:
    def test_identity(self):
        f = AffineMap(np.eye(3), np.zeros(3))
        est = lipschitz_probe(f, pairs=100, domain=BallSpec(3, 2.0), seed=0)
        assert est == pytest.approx(1.0, rel=1e-12)

    def test_scaling(self):
        f = AffineMap(2.0 * np.eye(3), np.zeros(3))
        est = lipschitz_probe(f, pairs=100, domain=BallSpec(3, 2.0), seed=0)
        assert est == pytest.approx(2.0, rel=1e-9)

    def test_scalar_targets_allowed(self):
        est = lipschitz_probe(
            lambda v: 3.0 * float(v.coords[0]), pairs=200, domain=BallSpec(1, 1.0), seed=1
        )
        assert est == pytest.approx(3.0, rel=1e-9)

    def test_ball_spec_validation(self):
        with pytest.raises(DomainError):
            BallSpec(0, 1.0)
        with pytest.raises(ShapeError):
            BallSpec(2, 1.0, center=StateVec(np.zeros(3)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_probe_never_exceeds_true_constant(self, seed):
        f = AffineMap(np.diag([3.0, 1.0]), np.zeros(2))
        est = lipschitz_probe(f, pairs=50, domain=BallSpec(2, 1.0), seed=seed)
        assert est <= 3.0 + 1e-9
