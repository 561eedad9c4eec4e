"""Smoothing toolbox: dead-zone clippers, boundary shifts, inf/sup
envelopes, mollified correctors, and the noise-induced drift term.

The envelope oracle below is independent of the package: for f = |x|
the inf-convolution has the Huber closed form, evaluated directly.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conespde import (
    ConeSpec,
    DomainError,
    NumericError,
    SearchRadiusError,
    ShapeError,
    UnsupportedDimensionError,
    cone_contains,
)
from conespde import approx
from conespde.approx import (
    GRID_POINTS,
    REFINE_ITERS,
    MollifiedMap,
    SearchSpec,
    SupInfParams,
    bump,
    inf_convolve,
    mollify,
    stratonovich_correction,
    sup_convolve,
    sup_inf_convolve,
    sup_inf_map,
)
from conespde.coefficients import (
    AffineMap,
    CallableMap,
    CoefficientSet,
    ConstantMap,
    ProjectedMap,
    ProportionalMap,
    RetractedMap,
    ShiftedMap,
    TabulatedMap,
    ZeroMap,
)
from conespde.space import phi_eps, shift

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
        out = shift(np.array([0.05, 3.0, -1.0, 0.2]), 3)
        np.testing.assert_allclose(out, [0.0, 2.875, -0.875, 0.0])

    def test_explicit_eps_overrides_default(self):
        out = shift(np.array([0.3, 0.3]), 2, eps=0.25)
        np.testing.assert_allclose(out, [0.05, 0.05])

    def test_tail_zeroed(self):
        out = shift(np.linspace(1.0, 6.0, 6), 2)
        assert np.all(out[2:] == 0.0)

    def test_level_beyond_dim(self):
        h = np.array([1.0, -1.0])
        np.testing.assert_allclose(shift(h, 5), phi_eps(h, 2.0**-5))

    def test_stays_in_sign_cone(self):
        # moving each coordinate toward zero never leaves a sign cone
        K = ConeSpec(np.array([1, -1, 1, -1]))
        rng = np.random.default_rng(3)
        for _ in range(50):
            h = K.signs * np.abs(rng.normal(size=4))
            assert cone_contains(K, shift(h, 3), 0.0)

    def test_distance_budget(self):
        # per-head displacement <= eps = 2^-n, plus the discarded tail
        rng = np.random.default_rng(4)
        for n in (1, 3, 6):
            h = np.abs(rng.normal(size=8))
            tail = np.linalg.norm(h[n:])
            budget = math.sqrt(n) * 2.0**-n + tail
            assert np.linalg.norm(shift(h, n) - h) <= budget + 1e-12

    def test_flattens_face_neighborhood(self):
        # every state within the dead zone of a face lands exactly on it
        n = 4
        eps = 2.0**-n
        nudged = np.array([0.9 * eps, 1.0, 2.0, 3.0])
        assert shift(nudged, n)[0] == 0.0

    def test_level_nonnegative(self):
        with pytest.raises(DomainError):
            shift(np.ones(2), -1)


# ---------------------------------------------------------------- composed maps


class TestComposeProjection:
    def test_full_level_identity(self):
        f = ConstantMap(np.array([1.0, 2.0, 3.0]))
        g = ProjectedMap(f, 3)
        np.testing.assert_array_equal(g.eval_array(np.zeros(3)), [1.0, 2.0, 3.0])

    def test_head_preserved_tail_cut(self):
        f = ConstantMap(np.array([1.0, 2.0, 3.0]))
        g = ProjectedMap(f, 1)
        np.testing.assert_array_equal(g.eval_array(np.zeros(3)), [1.0, 0.0, 0.0])

    def test_sup_error_is_tail_norm(self):
        f = ConstantMap(np.array([0.0, 0.0, 3.0, 4.0]))
        g = ProjectedMap(f, 2)
        h = np.zeros(4)
        err = np.linalg.norm(g.eval_array(h) - f.eval_array(h))
        assert err == pytest.approx(5.0)


class TestComposeRetraction:
    def test_unchanged_inside_ball(self):
        f = AffineMap(np.eye(2), np.zeros(2))
        g = RetractedMap(f, 10.0)
        h = np.array([1.0, 2.0])
        np.testing.assert_allclose(g.eval_array(h), f.eval_array(h))

    def test_caps_argument(self):
        f = AffineMap(np.eye(2), np.zeros(2))
        g = RetractedMap(f, 1.0)
        out = g.eval_array(np.array([30.0, 40.0]))
        np.testing.assert_allclose(out, [0.6, 0.8])

    @pytest.mark.parametrize("n", [np.nan, np.inf, 0.0, -1.0, True])
    def test_radius_must_be_finite_and_positive(self, n):
        with pytest.raises(DomainError, match="radius"):
            RetractedMap(AffineMap(np.eye(2), np.zeros(2)), n)


# ---------------------------------------------------------------- envelopes


def ABS(rows):
    return np.abs(rows[:, 0])


def KINKED(rows):
    return np.minimum(np.abs(rows[:, 0]), 1.0)


class TestEnvelopes:
    spec = SearchSpec(lipschitz=1.0, sup_bound=3.0)

    def test_inf_matches_huber_closed_form(self):
        for x in np.linspace(-2.0, 2.0, 41):
            got = inf_convolve(ABS, 0.5, np.array([[x]]), self.spec)[0]
            assert got == pytest.approx(huber(x, 0.5), abs=1e-6)

    def test_constant_fixed_point(self):
        spec = SearchSpec(lipschitz=0.0, sup_bound=2.0)
        got = inf_convolve(
            lambda rows: np.full(rows.shape[0], 2.0), 0.1, np.array([[0.3, -0.4]]), spec
        )[0]
        assert got == pytest.approx(2.0, abs=1e-9)

    def test_never_above_f(self):
        for x in (-1.3, 0.0, 0.7):
            h = np.array([[x]])
            assert inf_convolve(ABS, 0.25, h, self.spec)[0] <= abs(x) + 1e-9

    def test_sup_mirrors_inf(self):
        h = np.array([[0.7]])
        lo = inf_convolve(ABS, 0.25, h, self.spec)[0]
        hi = sup_convolve(lambda rows: -ABS(rows), 0.25, h, self.spec)[0]
        assert hi == pytest.approx(-lo, abs=1e-12)

    def test_sup_never_below_f(self):
        h = np.array([[0.4]])
        assert sup_convolve(ABS, 0.25, h, self.spec)[0] >= 0.4 - 1e-9

    def test_composition_bracketed(self):
        spec = SearchSpec(lipschitz=1.0, sup_bound=1.0)
        p = SupInfParams(lam=1e-2, mu=1e-3)
        points = np.linspace(-1.5, 1.5, 7)[:, None]
        lower = inf_convolve(KINKED, p.lam, points, spec)
        upper = sup_inf_convolve(KINKED, p, points, spec)
        f = KINKED(points)
        assert np.all(lower <= f + 1e-9)
        assert np.all((lower - 1e-9 <= upper) & (upper <= f + 1e-6))

    def test_params_ordering_enforced(self):
        with pytest.raises(DomainError):
            SupInfParams(lam=1e-3, mu=1e-2)
        with pytest.raises(DomainError):
            SupInfParams(lam=0.0, mu=0.0)

    def test_width_positive(self):
        with pytest.raises(DomainError):
            inf_convolve(ABS, 0.0, np.zeros((1, 1)), self.spec)

    def test_radius_error_reports_suggestion(self):
        # steep linear target and a window far too small to contain the
        # minimizer: the best grid point sits on the edge
        spec = SearchSpec(radius=0.1, lipschitz=5.0, sup_bound=50.0)
        with pytest.raises(SearchRadiusError) as info:
            inf_convolve(lambda rows: -5.0 * rows[:, 0], 1.0, np.zeros((1, 1)), spec)
        assert info.value.suggested_radius > 0.1

    def test_larger_radius_succeeds(self):
        spec = SearchSpec(radius=50.0, lipschitz=5.0, sup_bound=50.0)
        got = inf_convolve(lambda rows: -5.0 * rows[:, 0], 1.0, np.zeros((1, 1)), spec)[0]
        # closed form: inf_g (-5g + g^2/2) = -25/2
        assert got == pytest.approx(-12.5, abs=1e-5)

    def test_search_spec_validation(self):
        for kwargs in (
            {"radius": -1.0},
            {"radius": math.inf},
            {"radius": math.nan},
            {"lipschitz": -1.0, "sup_bound": 1.0},
            {"lipschitz": math.nan, "sup_bound": 1.0},
            {"lipschitz": math.inf, "sup_bound": 1.0},
            {"lipschitz": 1.0, "sup_bound": -1.0},
            {"lipschitz": 1.0, "sup_bound": math.inf},
        ):
            with pytest.raises(DomainError):
                SearchSpec(**kwargs)

    def test_overflowing_window_is_a_domain_error(self):
        # each spec is valid alone; only the window around the state
        # overflows, which the search reports before calling f
        cases = (
            (SearchSpec(radius=1e308), np.array([[1e308]])),
            (SearchSpec(lipschitz=1e308, sup_bound=0.0), np.zeros((1, 1))),
        )
        for spec, h in cases:
            with pytest.raises(DomainError, match="window must be finite"):
                inf_convolve(ABS, 10.0, h, spec)

    # float.hex values recorded from the search that validated every
    # iterate; skipping that validation must not move a single bit
    PINNED_X = (-1.995, -0.3, 0.004, 0.0125, 1.001)
    PINNED = {
        "inf": (
            "0x1.0000000000000p+0", "0x1.2e147ae147ae1p-2", "0x1.a36e2eb1c4bc5p-11",
            "0x1.eb851eb851eb8p-8", "0x1.fdf3b645a1cabp-1",
        ),
        "sup": (
            "0x1.0000000000000p+0", "0x1.33b645a1cac08p-2", "0x1.26e978d4fdf3bp-8",
            "0x1.a9fbe76c8b43ap-7", "0x1.0000000000000p+0",
        ),
        "sup_inf": (
            "0x1.0000000000000p+0", "0x1.2e978d4fdf3b6p-2", "0x1.d208a5a913c40p-11",
            "0x1.0624dd2f1a9fcp-7", "0x1.fe353f7ced915p-1",
        ),
    }
    PINNED_2D = "0x1.b99999999999ap-1"

    @staticmethod
    def pinned_envelopes():
        spec = SearchSpec(lipschitz=1.0, sup_bound=1.0)
        p = SupInfParams(lam=1e-2, mu=1e-3)
        return {
            "inf": lambda h: inf_convolve(KINKED, p.lam, h, spec),
            "sup": lambda h: sup_convolve(KINKED, p.mu, h, spec),
            "sup_inf": lambda h: sup_inf_convolve(KINKED, p, h, spec),
        }

    @staticmethod
    def pinned_2d(h):
        def g(rows):
            x, y = rows[:, 0], rows[:, 1]
            return np.abs(x - y) + 0.5 * np.abs(y - 0.25)

        return inf_convolve(g, 0.1, h, SearchSpec(lipschitz=1.5, sup_bound=2.0))

    def test_values_pinned(self):
        for name, env in self.pinned_envelopes().items():
            got = tuple(env(np.array([[x]]))[0].hex() for x in self.PINNED_X)
            assert got == self.PINNED[name], name
        assert self.pinned_2d(np.array([[0.3, -0.4]]))[0].hex() == self.PINNED_2D

    def test_objective_sees_private_readonly_state(self):
        # every call gets a fresh read-only float64 (M, N) batch that no
        # later step writes into, and never the caller's array
        seen = []

        def f(rows):
            assert rows.dtype == np.float64 and rows.ndim == 2 and rows.shape[1] == 2
            assert not rows.flags.writeable
            seen.append((rows, rows.copy()))
            return np.abs(rows[:, 0]) + np.abs(rows[:, 1])

        spec = SearchSpec(lipschitz=1.0, sup_bound=1.0)
        points = np.array([[0.3, -0.4], [-0.2, 0.1], [0.05, 0.5]])
        before = points.copy()
        inf_convolve(f, 0.1, points, spec)
        np.testing.assert_array_equal(points, before)
        assert {rows.shape[0] for rows, _ in seen} == {3 * GRID_POINTS, 3 * 2, 3 * 3}
        for rows, snapshot in seen:
            assert not rows.flags.writeable
            np.testing.assert_array_equal(rows, snapshot)
            assert not np.shares_memory(rows, points)
        for (x, _), (y, _) in zip(seen, seen[1:]):
            assert not np.shares_memory(x, y)

    def test_map_wrapper_smooths_componentwise(self):
        f = ConstantMap(np.array([2.0, -1.0]))
        p = SupInfParams(lam=1e-2, mu=1e-3)
        spec = SearchSpec(lipschitz=0.0, sup_bound=2.0)
        g = sup_inf_map(f, p, spec)
        np.testing.assert_allclose(g.eval_array(np.array([0.4, 0.1])), [2.0, -1.0], atol=1e-8)


class TestEnvelopeInputs:
    spec = SearchSpec(radius=0.5)

    @pytest.mark.parametrize(
        "points", [np.zeros(3), np.zeros((0, 1)), np.zeros((2, 0)), np.zeros((1, 1, 1))],
        ids=["1-d", "no-lanes", "no-coords", "3-d"],
    )
    def test_batch_shape_checked(self, points):
        with pytest.raises(ShapeError):
            inf_convolve(ABS, 0.5, points, self.spec)

    def test_batch_must_be_finite(self):
        with pytest.raises(DomainError, match="finite"):
            points = np.array([[0.0], [math.inf]])
            sup_inf_convolve(ABS, SupInfParams(0.5, 0.1), points, self.spec)

    def test_target_must_return_one_value_per_row(self):
        with pytest.raises(ShapeError, match="target returned shape"):
            inf_convolve(lambda rows: rows, 0.5, np.zeros((1, 1)), self.spec)
        with pytest.raises(ShapeError, match="target returned shape"):
            sup_convolve(lambda rows: 1.0, 0.5, np.zeros((1, 1)), self.spec)


@pytest.mark.parametrize(
    "name, call",
    [
        ("eps", lambda: phi_eps(np.array([1.0, -2.0]), math.nan)),
        ("eps", lambda: phi_eps(1.0, math.inf)),
        ("lam", lambda: inf_convolve(ABS, math.nan, np.zeros((1, 1)), SearchSpec(radius=1.0))),
        ("mu", lambda: sup_convolve(ABS, math.nan, np.zeros((1, 1)), SearchSpec(radius=1.0))),
        ("lam", lambda: SupInfParams(lam=math.inf, mu=1e-3)),
        ("bandwidth", lambda: MollifiedMap(ZeroMap(1), math.nan)),
        ("lam", lambda: SupInfParams(True, 0.5)),
        ("bandwidth", lambda: MollifiedMap(ZeroMap(1), True)),
        ("sup_bound", lambda: SearchSpec(lipschitz=1.0, sup_bound=math.inf)),
    ],
    ids=["phi-eps-nan", "phi-eps-inf", "inf-lam-nan", "sup-mu-nan", "supinf-lam-inf",
         "mollifier-bandwidth-nan", "supinf-lam-bool", "mollifier-bandwidth-bool",
         "search-sup-bound-inf"],
)
def test_non_finite_parameter_rejected(name, call):
    with pytest.raises(DomainError, match=name):
        call()


# ---------------------------------------------------------------- lockstep parity


# A verbatim copy of the one-point-at-a-time search that the lockstep
# engine replaced, kept as the reference it must match bit for bit.
# Two changes: the target gets the point as a read-only one-row batch,
# and the search constants are read from ``approx`` at call time so a
# test can shrink them.


def _reference_line_search(fn, lo, hi):
    xs = np.linspace(lo, hi, approx.GRID_POINTS)
    vals = np.array([fn(float(x)) for x in xs])
    if not np.all(np.isfinite(vals)):
        raise NumericError("non-finite value during line search")
    i = int(np.argmin(vals))
    if i == 0 or i == approx.GRID_POINTS - 1:
        raise SearchRadiusError(
            f"optimum at search boundary (x={xs[i]:.6g}); widen the radius",
            suggested_radius=2.0 * (hi - lo) / 2.0,
        )
    best_x, best_v = float(xs[i]), float(vals[i])
    a, b = float(xs[i - 1]), float(xs[i + 1])
    c = b - approx._GOLDEN * (b - a)
    d = a + approx._GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(approx.REFINE_ITERS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - approx._GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + approx._GOLDEN * (b - a)
            fd = fn(d)
        if fc < best_v:
            best_x, best_v = c, fc
        if fd < best_v:
            best_x, best_v = d, fd
    return best_x, best_v


def _reference_opt_shifted(f, base, width, spec):
    R = spec.resolve_radius(width)
    with np.errstate(over="ignore"):
        lo, hi = base - R, base + R
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise DomainError(f"search window must be finite, got radius {R} around the state")
    dim = base.shape[0]
    g = base.copy()

    def objective() -> float:
        diff = base - g
        row = g[None, :].copy()
        row.flags.writeable = False
        return float(f(row)[0]) + float(diff @ diff) / (2.0 * width)

    sweeps = 1 if dim == 1 else approx.SWEEPS
    for _ in range(sweeps):
        for axis in range(dim):
            def fn(x, axis=axis):
                g[axis] = x
                return objective()

            x, _ = _reference_line_search(fn, lo[axis], hi[axis])
            g[axis] = x
    return objective()


def scalar_reference(kind, f, width, point, spec):
    """The one-point envelope the lockstep engine replaced: ``width`` is
    lam, mu or a ``SupInfParams``."""
    if kind == "inf":
        return _reference_opt_shifted(f, point.copy(), width, spec)
    if kind == "sup":
        return -_reference_opt_shifted(lambda rows: -f(rows), point.copy(), width, spec)

    def envelope(rows):
        return np.array([scalar_reference("inf", f, width.lam, rows[0], spec)])

    return scalar_reference("sup", envelope, width.mu, point, spec)


LOCKSTEP = {"inf": inf_convolve, "sup": sup_convolve, "sup_inf": sup_inf_convolve}


def _outcome(run):
    """float.hex of every value, or the raised search error's type,
    message and suggested radius."""
    try:
        values = run()
    except (SearchRadiusError, NumericError) as err:
        return type(err).__name__, str(err), getattr(err, "suggested_radius", None)
    return "values", [v.hex() for v in np.atleast_1d(values).tolist()]


def reference_outcome(kind, f, width, points, spec):
    """Points one at a time, in order; the first error ends the run."""
    hexes = []
    for point in points:
        got = _outcome(lambda: scalar_reference(kind, f, width, point, spec))
        if got[0] != "values":
            return got
        hexes += got[1]
    return "values", hexes


def assert_parity(kind, f, width, points, spec):
    want = reference_outcome(kind, f, width, points, spec)
    assert _outcome(lambda: LOCKSTEP[kind](f, width, points, spec)) == want
    return want


def rough(rows):
    # bounded, kinked, and coupling the first, middle and last coordinates
    first, mid, last = rows[:, 0], rows[:, rows.shape[1] // 2], rows[:, -1]
    return np.minimum(np.abs(first - 0.5 * last), 1.0) + 0.25 * np.abs(mid - 0.1)


def lanes(count, dim, seed=0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (count, dim))


@pytest.fixture
def small_search(monkeypatch):
    """Shrink the search so the one-point reference of a sup-inf stays
    cheap; both engines read these constants at call time."""
    monkeypatch.setattr(approx, "GRID_POINTS", 9)
    monkeypatch.setattr(approx, "REFINE_ITERS", 8)
    monkeypatch.setattr(approx, "SWEEPS", 2)


class TestLockstepParity:
    spec = SearchSpec(radius=0.3)
    p = SupInfParams(lam=0.05, mu=0.01)

    @pytest.mark.parametrize("kind", ["inf", "sup"])
    @pytest.mark.parametrize("dim, count", [(1, 1), (1, 41), (2, 5), (3, 3), (12, 2)])
    def test_envelope_matches_reference(self, kind, dim, count):
        width = self.p.lam if kind == "inf" else self.p.mu
        want = assert_parity(kind, rough, width, lanes(count, dim), self.spec)
        assert want[0] == "values" and len(want[1]) == count

    def test_sup_inf_matches_reference_full_search(self):
        assert_parity("sup_inf", rough, self.p, lanes(3, 1), self.spec)

    @pytest.mark.parametrize("dim, count, sweeps", [(1, 17, 2), (2, 5, 2), (3, 3, 2), (12, 2, 1)])
    def test_sup_inf_matches_reference(self, small_search, monkeypatch, dim, count, sweeps):
        monkeypatch.setattr(approx, "SWEEPS", sweeps)
        want = assert_parity("sup_inf", rough, self.p, lanes(count, dim), self.spec)
        assert want[0] == "values" and len(want[1]) == count

    def test_nan_inside_the_golden_bracket(self):
        # NaN just right of the kink, between grid points: golden steps
        # land in it and compare against it, and it never becomes best
        hits = []

        def kink(rows):
            t = rows[:, 0] - 0.0123
            out = np.where((t > 0) & (t < 1e-6), np.nan, np.abs(t))
            hits.append(int(np.isnan(out).sum()))
            return out

        points = np.array([[0.0], [0.05], [-0.03]])
        for kind in ("inf", "sup"):
            width = self.p.lam if kind == "inf" else self.p.mu
            want = assert_parity(kind, kink, width, points, self.spec)
            assert want[0] == "values"
        assert sum(hits) > 0

    @staticmethod
    def failing(rows):
        # flat, except near x = +-1 (a steep drop that the window edge
        # wins) and x = +-3 (NaN); the lanes at +1 and +3 fail on axis 1,
        # the lanes at -1 and -3 already on axis 0
        x, y = rows[:, 0], rows[:, 1]

        def near(c):
            return np.abs(x - c) < 0.5

        out = np.where(near(1.0), -5.0 * y, np.where(near(-1.0), -5.0 * x, 0.0))
        nan = (near(3.0) & (y > 0.05)) | (near(-3.0) & (x < -3.05))
        return np.where(nan, np.nan, out)

    @pytest.mark.parametrize(
        "points, error",
        [
            ([[1.0, 0.0], [-1.0, 0.0]], "SearchRadiusError"),
            ([[-1.0, 0.0], [1.0, 0.0]], "SearchRadiusError"),
            ([[3.0, 0.0], [-3.0, 0.0]], "NumericError"),
            ([[0.0, 0.0], [3.0, 0.0], [-1.0, 0.0]], "NumericError"),
            ([[0.0, 0.0], [1.0, 0.0], [-3.0, 0.0]], "SearchRadiusError"),
        ],
        ids=["radius-late-first", "radius-early-first", "nan-late-first",
             "nan-late-before-radius-early", "radius-late-before-nan-early"],
    )
    def test_lowest_failing_lane_raises(self, points, error):
        spec = SearchSpec(radius=0.1)
        points = np.array(points)
        want = assert_parity("inf", self.failing, 1.0, points, spec)
        assert want[0] == error

    def test_inner_lane_error_fails_its_outer_lane(self, small_search):
        spec = SearchSpec(radius=0.1)
        p = SupInfParams(lam=1.0, mu=0.5)

        def steep(rows):
            return np.where(rows[:, 0] > 0, -5.0 * rows[:, 0], 0.0)

        for points in ([[-1.0], [1.0]], [[1.0], [-1.0]], [[-1.0], [0.5], [1.0]]):
            want = assert_parity("sup_inf", steep, p, np.array(points), spec)
            assert want[0] == "SearchRadiusError"


class TestLookahead:
    # each golden-section call also evaluates the two points the next
    # step can pick; only the one it picks may count

    def evaluated(self, run):
        points = []

        def f(rows):
            points.extend(rows[:, 0].tolist())
            return rough(rows)

        run(f)
        return points

    def test_error_only_from_the_point_taken(self):
        base, width, radius = np.array([[0.3]]), 0.05, 0.3
        spec = SearchSpec(radius=radius)
        engine = self.evaluated(lambda f: inf_convolve(f, width, base, spec))
        taken = set(self.evaluated(lambda f: scalar_reference("inf", f, width, base[0], spec)))
        spare = [x for x in engine if x not in taken]
        golden = [x for x in engine[GRID_POINTS:] if x in taken]
        assert spare and golden
        want = inf_convolve(rough, width, base, spec)
        for bad, fails in ((spare[0], False), (golden[-1], True)):
            def target(rows, bad=bad):
                hit = np.flatnonzero(rows[:, 0] == bad)
                return rough(rows), {int(r): NumericError(f"row {r}") for r in hit}

            values, errors = approx._minimize(target, base, width, radius)
            if fails:
                assert list(errors) == [0]
            else:
                assert errors == {}
                assert values.tolist() == want.tolist()


class TestLockstepGuard:
    spec = SearchSpec(lipschitz=1.0, sup_bound=1.0)

    def test_target_calls_do_not_grow_with_lanes(self):
        counts = []
        for count in (1, 41):
            calls = []

            def f(rows):
                calls.append(rows.shape[0])
                return KINKED(rows)

            inf_convolve(f, 1e-2, np.linspace(-2.0, 2.0, count)[:, None], self.spec)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 3 + REFINE_ITERS

    def test_pinned_values_alone_and_in_a_batch(self):
        # each pinned point sits among 36 others and keeps its bits
        others = np.linspace(-1.9, 1.9, 36)
        points = np.insert(others, [0, 10, 18, 19, 27], TestEnvelopes.PINNED_X)[:, None]
        at = np.flatnonzero(np.isin(points[:, 0], TestEnvelopes.PINNED_X))
        assert len(at) == len(TestEnvelopes.PINNED_X)
        for name, env in TestEnvelopes.pinned_envelopes().items():
            got = tuple(v.hex() for v in env(points)[at].tolist())
            assert got == TestEnvelopes.PINNED[name], name
        points = np.array([[0.3, -0.4], [1.2, 0.7], [-0.5, 0.25], [0.3, -0.4]])
        got = TestEnvelopes.pinned_2d(points)
        assert got[0].hex() == got[3].hex() == TestEnvelopes.PINNED_2D


@pytest.fixture(scope="module")
def affine_sup_inf():
    """``sup_inf_map`` of an affine map at one dim-2 point, evaluated with
    ``AffineMap.eval_array`` patched to raise."""
    f = AffineMap(np.array([[0.5, -1.0], [2.0, 0.25]]), np.array([0.1, -0.2]))
    g = sup_inf_map(f, SupInfParams(lam=0.2, mu=0.05), SearchSpec(radius=0.5))

    def refuse(self, a):
        raise AssertionError("sup_inf_map evaluated the whole map")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AffineMap, "eval_array", refuse)
        return g.eval_array(np.array([0.3, -0.7]))


class TestSupInfMapComponents:
    # each component search reads one coordinate through eval_coords;
    # about two million reads per evaluation at dim 2

    def test_whole_map_never_evaluated(self, affine_sup_inf):
        # the fixture ran every search without reaching eval_array
        assert affine_sup_inf.shape == (2,)

    def test_values_pinned(self, affine_sup_inf):
        # recorded with the searches reading f.eval_array(x)[k]
        assert [v.hex() for v in affine_sup_inf.tolist()] == [
            "0x1.b666666666666p-1",
            "-0x1.466666666666dp-4",
        ]


class TestSupInfMapLanes:
    # one evaluation of a sup-inf map is one search with a lane per
    # (row, component); each lane keeps the bits of its own search
    spec = SearchSpec(radius=0.5)
    p = SupInfParams(lam=0.2, mu=0.05)

    def alone(self, f, k, row):
        """Component ``k`` at one row, as a single-lane search."""
        only = slice(k, k + 1)
        return sup_inf_convolve(lambda rows: f.eval_coords(rows, only)[:, 0], self.p,
                                row[None, :], self.spec)[0]

    def test_rows_of_a_dim_one_map(self):
        f = TabulatedMap(np.array([-1.0, 0.0, 1.0]), np.array([0.5, -0.25, 1.0]), 1)
        rows = np.array([[-0.3], [0.1], [0.45]])
        got = sup_inf_map(f, self.p, self.spec).eval_array(rows)
        assert got.shape == (3, 1)
        for m, row in enumerate(rows):
            assert got[m, 0].hex() == self.alone(f, 0, row).hex()

    def test_rows_and_components(self, small_search):
        f = AffineMap(np.array([[0.5, -1.0], [2.0, 0.25]]), np.array([0.1, -0.2]))
        g = sup_inf_map(f, self.p, self.spec)
        rows = np.array([[0.3, -0.7], [-0.2, 0.4], [0.3, -0.7]])
        full = g.eval_array(rows)
        for m, k in np.ndindex(full.shape):
            assert full[m, k].hex() == self.alone(f, k, rows[m]).hex()
        for idx in ([1], [1, 0], slice(1, None), slice(None)):
            assert g.eval_coords(rows, idx).tobytes() == full[:, idx].tobytes()
        assert g.eval_array(rows[1]).tobytes() == full[1].tobytes()
        assert g.eval_coords(rows[:0], [0]).shape == (0, 1)


# ---------------------------------------------------------------- mollifier
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
        rng = np.random.default_rng(0)
        for _ in range(5):
            h = rng.normal(size=2)
            np.testing.assert_allclose(mollify(f, 8.0, h), 7.0, atol=1e-10)

    def test_affine_reproduced(self):
        A = np.array([[1.0, 0.5], [0.0, 2.0]])
        f = AffineMap(A, np.array([0.3, -0.1]))
        rng = np.random.default_rng(1)
        for _ in range(5):
            h = rng.normal(size=2)
            np.testing.assert_allclose(
                mollify(f, 8.0, h), f.eval_array(h), atol=1e-6
            )

    def test_grid_dimension_cap(self):
        with pytest.raises(UnsupportedDimensionError):
            mollify(ZeroMap(4), 8.0, np.zeros(4))

    def test_dim_agreement(self):
        # the quadrature takes the map's dimension; the state must match it
        with pytest.raises(ShapeError):
            mollify(ZeroMap(2), 8.0, np.zeros(3))

    def test_smooths_kink(self):
        # |.| has a corner at 0; averaging over the support window lifts
        # the value there by at most the support radius 1 / bandwidth
        f = CallableMap(lambda h: np.abs(h), 1)
        val = mollify(f, 8.0, np.zeros(1))[0]
        assert 0.0 < val < 1.0 / 8.0

    def test_locality(self):
        # two maps agreeing within the support radius mollify identically
        f = CallableMap(lambda h: np.where(np.abs(h) < 0.5, h, 99.0), 1)
        g = CallableMap(lambda h: h, 1)
        h = np.zeros(1)
        np.testing.assert_allclose(
            mollify(f, 8.0, h), mollify(g, 8.0, h), atol=1e-12
        )

    def test_params_validation(self):
        with pytest.raises(DomainError, match="bandwidth"):
            MollifiedMap(ZeroMap(1), 0.0)
        with pytest.raises(DomainError, match="bandwidth"):
            MollifiedMap(ZeroMap(1), -8.0)


class TestMollifiedMap:
    # a batch through MollifiedMap is bitwise the per-point mollify, in
    # one row block or several, and eval_coords selects after the sum
    @staticmethod
    def inner(kind, dim):
        if kind == "shifted":
            return ShiftedMap(ProportionalMap(1.0, 0, dim), 2)
        if kind == "affine":
            return AffineMap(np.eye(dim) + 0.5, np.full(dim, 0.3))
        return TabulatedMap(np.array([-1.0, 0.0, 1.0, 2.0]), np.array([0.0, -0.0, -0.05, -0.1]), dim)

    @pytest.mark.parametrize("node_rows", [approx._NODE_ROWS, 1], ids=["one-block", "row-blocks"])
    @pytest.mark.parametrize("kind", ["shifted", "affine", "table"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_batch_matches_points(self, monkeypatch, dim, kind, node_rows):
        monkeypatch.setattr(approx, "_NODE_ROWS", node_rows)
        f = self.inner(kind, dim)
        m = MollifiedMap(f, 8.0)
        rows = np.random.default_rng(dim).uniform(-2.0, 2.0, (64, dim))
        rows[::4, 0] = 0.0  # face points, where the shifted column vanishes
        batch = m.eval_array(rows)
        points = np.stack([mollify(f, 8.0, row) for row in rows])
        assert batch.tobytes() == points.tobytes()
        for idx in ([0], [dim - 1], slice(None), list(range(dim))[::-1]):
            assert m.eval_coords(rows, idx).tobytes() == batch[:, idx].tobytes()
        if kind == "shifted":
            assert np.all(batch[::4, 0] == 0.0)

    def test_support_and_settings(self):
        f = ProportionalMap(1.0, 1, 2)
        m = MollifiedMap(f, 8.0)
        assert m.support.tolist() == [1] and not m.builtin
        assert m.dim == 2 and m.bandwidth == 8.0


# ---------------------------------------------------------------- drift correction


class TestStratonovich:
    def test_constant_columns_give_zero(self):
        C = CoefficientSet(ZeroMap(3), (ConstantMap(np.array([1.0, 2.0, 3.0])),))
        out = stratonovich_correction(C, np.ones(3))
        np.testing.assert_allclose(out, 0.0, atol=1e-9)

    def test_proportional_closed_form(self):
        # vol(h) = s h_1 e_1 gives D vol vol = s^2 h_1 e_1, so the
        # correction is s^2 h_1 / 2 on that coordinate
        C = CoefficientSet(ZeroMap(3), (ProportionalMap(0.5, 1, 3),))
        out = stratonovich_correction(C, np.array([2.0, 4.0, 1.0]))
        np.testing.assert_allclose(out, [0.0, 0.5**2 * 4.0 / 2.0, 0.0], atol=1e-8)

    def test_weights_scale_terms(self):
        # the columns come scaled: a noise eigenvalue w enters as the
        # column times sqrt(w), which scales that column's term by w
        h = np.array([0.0, 4.0, 0.0])
        base = stratonovich_correction(CoefficientSet(ZeroMap(3), (ProportionalMap(0.5, 1, 3),)), h)
        scaled = CoefficientSet(ZeroMap(3), (ProportionalMap(0.5 * math.sqrt(2.0), 1, 3),))
        np.testing.assert_allclose(stratonovich_correction(scaled, h), 2.0 * base, atol=1e-7)

    def test_face_component_vanishes_for_parallel_columns(self, compliant_coeffs):
        # columns proportional to h_k vanish on face k, and so does the
        # correction's k-th component
        rng = np.random.default_rng(7)
        for k in (0, 5, 10, 15):
            coords = np.abs(rng.normal(size=16))
            coords[k] = 0.0
            out = stratonovich_correction(compliant_coeffs, coords)
            assert abs(out[k]) <= 1e-6

    @pytest.mark.parametrize("rows", [1, 5, 0])
    def test_batch_rows_are_the_states_alone(self, badvol_coeffs, rows):
        # each row's step comes from that row's column norms alone, so a
        # batch is bitwise its states one by one; every other row is
        # scaled out past norm 1, where the step depends on the row
        a = np.random.default_rng(3).uniform(0.0, 2.0, (rows, 16))
        a[::2] *= 10.0
        batch = stratonovich_correction(badvol_coeffs, a)
        assert batch.shape == (rows, 16)
        for row, got in zip(a, batch):
            assert stratonovich_correction(badvol_coeffs, row).tobytes() == got.tobytes()

    @pytest.mark.parametrize("shape", [(15,), (2, 15), (1, 2, 16), ()])
    def test_state_shape_checked(self, compliant_coeffs, shape):
        with pytest.raises(ShapeError):
            stratonovich_correction(compliant_coeffs, np.zeros(shape))
