"""Coefficient maps and the sampled invariance-condition checkers.

Hand-evaluated violations pin the checkers: a jump kernel that hops out
of the orthant, a compensator that overwhelms a zero drift, a constant
volatility column on a face.  Each expected magnitude is worked out in
the test body.
"""

import numpy as np
import pytest

from conespde import (
    ConeSpec,
    ConfigError,
    DiagonalSemigroup,
    DomainError,
    SamplerContractError,
    ShapeError,
    StateVec,
    cone_contains,
)
from conespde.coefficients import (
    AffineMap,
    CallableMap,
    CoefficientSet,
    ConditionReport,
    ConstantMap,
    GatedOffsetMap,
    MeanReversionMap,
    ProjectedMap,
    ProportionalMap,
    RetractedMap,
    SamplerSpec,
    SumMap,
    TabulatedMap,
    Witness,
    ZeroMap,
    check_drift_condition,
    check_jump_condition,
    check_volatility_condition,
    default_tol,
    drift_margin,
    invariance_verdict,
    map_from_config,
    sample_boundary_pairs,
    sample_cone_points,
)

SMALL = SamplerSpec(points_per_face=8, interior_points=8, seed=1)


# ---------------------------------------------------------------- map families


class TestMapFamilies:
    def test_zero(self):
        assert np.array_equal(ZeroMap(3).eval_array(np.ones(3)), np.zeros(3))

    def test_constant(self):
        m = ConstantMap(np.array([1.0, -2.0]))
        np.testing.assert_array_equal(m.eval_array(np.array([9.0, 9.0])), [1.0, -2.0])

    def test_affine(self):
        A = np.array([[1.0, 2.0], [0.0, -1.0]])
        m = AffineMap(A, np.array([0.5, 0.5]))
        h = np.array([1.0, 3.0])
        np.testing.assert_allclose(m.eval_array(h), A @ h + 0.5)

    def test_affine_rejects_rectangular(self):
        with pytest.raises(ShapeError):
            AffineMap(np.zeros((2, 3)), np.zeros(2))

    def test_mean_reversion(self):
        m = MeanReversionMap(2.0, np.array([1.0, 1.0]))
        np.testing.assert_allclose(m.eval_array(np.array([0.0, 3.0])), [2.0, -4.0])

    def test_proportional(self):
        m = ProportionalMap(0.3, 1, 3)
        np.testing.assert_allclose(m.eval_array(np.array([5.0, 2.0, 7.0])), [0.0, 0.6, 0.0])

    def test_proportional_index_range(self):
        with pytest.raises(ShapeError):
            ProportionalMap(1.0, 3, 3)

    def test_tabulated_interpolation(self):
        m = TabulatedMap(np.array([0.0, 1.0]), np.array([0.0, 2.0]), 2)
        np.testing.assert_allclose(m.eval_array(np.array([0.5, 2.0])), [1.0, 2.0])

    def test_tabulated_requires_increasing_knots(self):
        with pytest.raises(DomainError):
            TabulatedMap(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 2)

    def test_gated_offset(self):
        m = GatedOffsetMap(np.array([1.0, 0.0]), 1, 2.0, 3.0)
        np.testing.assert_array_equal(m.eval_array(np.array([0.0, 2.5])), [1.0, 0.0])
        np.testing.assert_array_equal(m.eval_array(np.array([0.0, 3.5])), [0.0, 0.0])

    def test_sum(self):
        m = SumMap((ConstantMap(np.array([1.0])), ConstantMap(np.array([2.0]))))
        np.testing.assert_array_equal(m.eval_array(np.array([0.0])), [3.0])

    def test_sum_dim_agreement(self):
        with pytest.raises(ShapeError):
            SumMap((ZeroMap(2), ZeroMap(3)))

    def test_projected(self):
        m = ProjectedMap(ConstantMap(np.array([1.0, 2.0, 3.0])), 2)
        np.testing.assert_array_equal(m.eval_array(np.zeros(3)), [1.0, 2.0, 0.0])

    def test_retracted_inside_and_outside(self):
        # f(h) = h via identity affine; retraction caps the argument norm.
        ident = AffineMap(np.eye(2), np.zeros(2))
        m = RetractedMap(ident, 1.0)
        np.testing.assert_allclose(m.eval_array(np.array([0.3, 0.4])), [0.3, 0.4])
        np.testing.assert_allclose(m.eval_array(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_callable_wraps_statevec_function(self):
        m = CallableMap(lambda h: 2.0 * h, 2)
        np.testing.assert_array_equal(m.eval_array(np.array([1.0, 2.0])), [2.0, 4.0])

    def test_callable_shape_contract(self):
        m = CallableMap(lambda h: np.zeros(3), 2)
        with pytest.raises(ShapeError):
            m.eval_array(np.array([1.0, 2.0]))

    def test_call_protocol(self):
        m = MeanReversionMap(1.0, np.array([1.0, 1.0]))
        out = m(StateVec(np.array([0.5, 0.5])))
        assert isinstance(out, StateVec)
        np.testing.assert_allclose(out.coords, [0.5, 0.5])


# Rows of a (P, 3) batch: signed zeros, both edges of the gate band
# [6, 7] on coordinate 1 and points on either side of it, and states
# inside and outside the retraction radius 5.  The last row's norm
# differs in its last bit between np.linalg.norm of the row and of the
# batch along axis 1.
BATCH = np.array(
    [
        [0.0, -0.0, 1.5],
        [-0.0, 0.0, -1.0],
        [-2.0, 6.0, 0.25],
        [3.0, 7.0, -1.0],
        [0.5, 7.5, 4.0],
        [-0.0, 5.999, 0.0],
        [30.0, 40.0, 12.0],
        [-7.92, -3.97, 5.61],
    ]
)
_A = np.array([[1.0, -2.0, 0.0], [0.5, 0.0, -1.0], [0.0, 3.0, 0.25]])
_AFFINE = AffineMap(_A, np.array([-0.0, 0.1, 0.0]))
_GATED = GatedOffsetMap(np.array([-0.5, 0.0, 2.0]), 1, 6.0, 7.0)
_TABLE = TabulatedMap(np.array([-1.0, 0.0, 1.0, 2.0]), np.array([0.0, -0.0, -0.05, -0.1]), 3)
_MEANREV = MeanReversionMap(1.5, np.array([0.5, -0.0, 1.0]))

# name -> (map, whether it counts as a built-in closed-form family)
BATCH_CASES = {
    "zero": (ZeroMap(3), True),
    "constant": (ConstantMap(np.array([1.0, -0.0, 2.0])), True),
    "affine": (_AFFINE, True),
    "mean_reversion": (_MEANREV, True),
    "proportional": (ProportionalMap(-0.3, 1, 3), True),
    "tabulated": (_TABLE, False),
    "gated": (_GATED, True),
    "sum": (SumMap((_MEANREV, _GATED, _TABLE)), False),
    "sum_builtin": (SumMap((_MEANREV, _AFFINE, _GATED)), True),
    "projected_affine": (ProjectedMap(_AFFINE, 2), True),
    "projected_constant": (ProjectedMap(ConstantMap(np.array([1.0, 2.0, 3.0])), 1), True),
    "projected_table": (ProjectedMap(_TABLE, 1), False),
    "retracted": (RetractedMap(_AFFINE, 5.0), False),
    "callable_statevec": (CallableMap(lambda h: 2.0 * h, 3), False),
    "callable_array": (CallableMap(lambda h: np.sin(h.coords) - h.coords[1], 3), False),
}


@pytest.mark.parametrize("m", [m for m, _ in BATCH_CASES.values()], ids=BATCH_CASES.keys())
def test_batch_eval_matches_rows(m):
    # row i of a batch evaluation is eval_array(BATCH[i]), bit for bit
    rows = np.stack([m.eval_array(row) for row in BATCH])
    batch = m.eval_array(BATCH)
    assert np.broadcast_to(batch, BATCH.shape).tobytes() == rows.tobytes()


@pytest.mark.parametrize("m, builtin", BATCH_CASES.values(), ids=BATCH_CASES.keys())
def test_builtin_family_flag(m, builtin):
    # sums and projections inherit the flag from their terms
    coeffs = CoefficientSet(m)
    assert coeffs.uses_only_builtin_maps() is builtin
    assert default_tol(coeffs) == (1e-9 if builtin else 1e-6)


def test_projection_leaves_callable_result_alone():
    # the callable hands back an array it keeps; projecting the map's
    # value must not write into it
    v = np.array([1.0, 2.0, 3.0, 4.0])
    inner = CallableMap(lambda h: v, 4)
    for m in (ProjectedMap(inner, 2), ProjectedMap(SumMap((inner,)), 2)):
        np.testing.assert_array_equal(m.eval_array(np.zeros(4)), [1.0, 2.0, 0.0, 0.0])
        np.testing.assert_array_equal(m(StateVec(np.zeros(4))).coords, [1.0, 2.0, 0.0, 0.0])
    assert v.tolist() == [1.0, 2.0, 3.0, 4.0]


class TestMapConfig:
    @pytest.mark.parametrize(
        "m",
        [
            ZeroMap(3),
            ConstantMap(np.array([1.0, 2.0, 3.0])),
            AffineMap(np.diag([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3])),
            MeanReversionMap(0.5, np.array([1.0, 1.0, 1.0])),
            ProportionalMap(0.3, 2, 3),
            TabulatedMap(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 3),
            GatedOffsetMap(np.array([1.0, 0.0, 0.0]), 0, -1.0, 1.0),
            SumMap((ZeroMap(3), ConstantMap(np.array([1.0, 0.0, 0.0])))),
            ProjectedMap(ConstantMap(np.array([1.0, 2.0, 3.0])), 1),
        ],
    )
    def test_round_trip(self, m):
        back = map_from_config(m.to_config(), 3)
        h = np.array([0.3, -0.7, 2.0])
        np.testing.assert_array_equal(back.eval_array(h), m.eval_array(h))

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            map_from_config({"family": "fractal"}, 3)

    def test_missing_key_reported(self):
        with pytest.raises(ConfigError, match="kappa"):
            map_from_config({"family": "mean_reversion", "b": [1.0]}, 1)

    def test_linear_diag_shortcut(self):
        m = map_from_config({"family": "linear", "diag": [2.0, 3.0]}, 2)
        np.testing.assert_allclose(m.eval_array(np.array([1.0, 1.0])), [2.0, 3.0])

    def test_proportional_uses_column_index(self):
        m = map_from_config({"family": "proportional", "scale": 0.5}, 3, index=2)
        np.testing.assert_allclose(m.eval_array(np.array([1.0, 1.0, 4.0])), [0.0, 0.0, 2.0])


class TestCoefficientSet:
    def test_dims_must_agree(self):
        with pytest.raises(ShapeError):
            CoefficientSet(ZeroMap(2), (ZeroMap(3),))

    def test_weight_positive(self):
        with pytest.raises(DomainError):
            CoefficientSet(ZeroMap(2), (), ((0.0, ZeroMap(2)),))

    def test_hs_norm(self, compliant_coeffs):
        h = StateVec(np.linspace(1.0, 2.0, 16))
        want = np.sqrt(sum((0.3 * h.coords[j]) ** 2 for j in range(8)))
        assert compliant_coeffs.hs_norm(h) == pytest.approx(want, rel=1e-14)

    def test_builtin_detection(self, compliant_coeffs):
        assert compliant_coeffs.uses_only_builtin_maps()
        wrapped = CoefficientSet(CallableMap(lambda h: 0.0 * h, 16))
        assert not wrapped.uses_only_builtin_maps()

    def test_default_tol_tiers(self, compliant_coeffs):
        assert default_tol(compliant_coeffs) == 1e-9
        tab = CoefficientSet(TabulatedMap(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 2))
        assert default_tol(tab) == 1e-6

    def test_config_round_trip(self, compliant_coeffs):
        back = CoefficientSet.from_config(compliant_coeffs.to_config(), 16)
        h = np.linspace(0.0, 1.5, 16)
        np.testing.assert_array_equal(
            back.drift.eval_array(h), compliant_coeffs.drift.eval_array(h)
        )
        assert len(back.vol_columns) == 8
        assert back.jump_weights.tolist() == [0.2]


# ---------------------------------------------------------------- samplers


class TestSamplers:
    def test_boundary_pairs_on_faces(self):
        K = ConeSpec(np.array([1, -1, 0]))
        pairs = sample_boundary_pairs(K, SMALL)
        assert pairs, "sampler produced no pairs"
        for theta, k, h in pairs:
            assert theta == int(K.signs[k])
            assert h.coords[k] == 0.0
            assert cone_contains(K, h, 0.0)

    def test_cone_points_inside(self):
        K = ConeSpec(np.array([1, -1, 0]))
        for h in sample_cone_points(K, SMALL):
            assert cone_contains(K, h, 0.0)

    def test_deterministic(self):
        K = ConeSpec.nonnegative(4)
        a = sample_boundary_pairs(K, SamplerSpec(seed=5))
        b = sample_boundary_pairs(K, SamplerSpec(seed=5))
        assert len(a) == len(b)
        for (t1, k1, h1), (t2, k2, h2) in zip(a, b):
            assert (t1, k1) == (t2, k2) and h1 == h2

    def test_corner_points_present(self):
        K = ConeSpec.nonnegative(3)
        pts = sample_cone_points(K, SamplerSpec(points_per_face=0, interior_points=0))
        coords = {tuple(p.coords) for p in pts}
        assert (0.0, 0.0, 0.0) in coords
        assert (1.0, 0.0, 0.0) in coords


# ---------------------------------------------------------------- checkers


class TestJumpCondition:
    def test_zero_kernel_passes(self):
        K = ConeSpec.nonnegative(3)
        C = CoefficientSet(ZeroMap(3), (), ((1.0, ZeroMap(3)),))
        assert check_jump_condition(C, K, SMALL).jump_ok

    def test_nonnegative_shift_passes(self):
        K = ConeSpec.nonnegative(3)
        C = CoefficientSet(ZeroMap(3), (), ((1.0, ConstantMap(np.ones(3))),))
        assert check_jump_condition(C, K, SMALL).jump_ok

    def test_doubling_reflection_violates(self):
        # gamma(h) = -2h maps the corner (1,0,0) to (-1,0,0): out by 1.
        K = ConeSpec.nonnegative(3)
        gamma = AffineMap(-2.0 * np.eye(3), np.zeros(3))
        C = CoefficientSet(ZeroMap(3), (), ((1.0, gamma),))
        report = check_jump_condition(C, K, SMALL)
        assert report.jump_ok is False
        corner = [w for w in report.witnesses if np.array_equal(w.point.coords, [1.0, 0.0, 0.0])]
        assert corner and corner[0].magnitude == pytest.approx(1.0)
        assert corner[0].condition == "jump-stays-in-cone"


class TestDriftCondition:
    def test_nonnegative_constant_drift_passes(self):
        K = ConeSpec.nonnegative(3)
        sg = DiagonalSemigroup.heat(3)
        C = CoefficientSet(ConstantMap(np.array([0.5, 0.0, 1.0])))
        assert check_drift_condition(C, sg, K, SMALL).drift_ok

    def test_compensator_overwhelms_zero_drift(self):
        # Atom w = 1 with kernel e_1: at the first face the margin is
        # 0 + 0 - 1 = -1 even though the jump itself stays in the cone.
        K = ConeSpec.nonnegative(3)
        sg = DiagonalSemigroup.heat(3)
        gamma = ConstantMap(np.array([1.0, 0.0, 0.0]))
        C = CoefficientSet(ZeroMap(3), (), ((1.0, gamma),))
        assert check_jump_condition(C, K, SMALL).jump_ok
        report = check_drift_condition(C, sg, K, SMALL)
        assert report.drift_ok is False
        faces = {w.k for w in report.witnesses}
        assert faces == {0}
        assert all(w.magnitude == pytest.approx(1.0) for w in report.witnesses)

    def test_mean_reversion_face_value(self, heat16, cone16, compliant_coeffs):
        # kappa b_k - w * 0.1 = 0.5 - 0.02 = 0.48 on every face.
        pairs = sample_boundary_pairs(cone16, SMALL)
        theta, k, h = pairs[0]
        terms = drift_margin(compliant_coeffs, heat16, cone16, theta, k, h)
        assert terms["main"] == pytest.approx(0.48)
        assert terms["a"] == 0.0
        assert terms["no_a"] == pytest.approx(terms["main"])
        assert terms["generator"] == pytest.approx(terms["main"])

    def test_margin_requires_admissible_pair(self, heat16, cone16, compliant_coeffs):
        h = StateVec(np.full(16, 1.0))
        with pytest.raises(SamplerContractError):
            drift_margin(compliant_coeffs, heat16, cone16, 1, 0, h)


class TestVolatilityCondition:
    def test_proportional_vanishes_on_faces(self, heat16, cone16, compliant_coeffs):
        assert check_volatility_condition(compliant_coeffs, heat16, cone16, SMALL).vol_ok

    def test_constant_column_magnitude(self, heat16, cone16, badvol_coeffs):
        report = check_volatility_condition(badvol_coeffs, heat16, cone16, SMALL)
        assert report.vol_ok is False
        w = report.witnesses[0]
        assert w.condition == "vol-parallel"
        assert w.k == 0 and w.component == 8
        assert w.magnitude == pytest.approx(0.3)
        # only the first face sees the constant column
        assert {v.k for v in report.witnesses} == {0}

    def test_noise_on_free_coordinate_passes(self):
        K = ConeSpec(np.array([1, 0]))
        sg = DiagonalSemigroup.heat(2)
        C = CoefficientSet(ZeroMap(2), (ConstantMap(np.array([0.0, 1.0])),))
        assert check_volatility_condition(C, sg, K, SMALL).vol_ok


class TestVerdict:
    def test_compliant_satisfied(self, heat16, cone16, compliant_coeffs):
        report = invariance_verdict(compliant_coeffs, heat16, cone16, SMALL)
        assert report.satisfied
        assert report.verdict == "NO VIOLATION FOUND (sampled)"
        assert report.witnesses == ()

    def test_badvol_violated(self, heat16, cone16, badvol_coeffs):
        report = invariance_verdict(badvol_coeffs, heat16, cone16, SMALL)
        assert not report.satisfied
        assert report.verdict == "VIOLATED (witness found)"
        assert report.jump_ok and report.drift_ok and report.vol_ok is False

    def test_zero_coefficients_satisfied(self):
        K = ConeSpec.nonnegative(4)
        sg = DiagonalSemigroup.heat(4)
        report = invariance_verdict(CoefficientSet(ZeroMap(4)), sg, K, SMALL)
        assert report.satisfied

    def test_deterministic_reports(self, heat16, cone16, badvol_coeffs):
        a = invariance_verdict(badvol_coeffs, heat16, cone16, SamplerSpec(seed=9))
        b = invariance_verdict(badvol_coeffs, heat16, cone16, SamplerSpec(seed=9))
        assert a.to_dict() == b.to_dict()

    def test_dims_must_agree(self, cone16, compliant_coeffs):
        with pytest.raises(ShapeError):
            invariance_verdict(compliant_coeffs, DiagonalSemigroup.heat(4), cone16, SMALL)

    def test_retraction_keeps_verdict(self, heat16, cone16, compliant_coeffs):
        # Composing every map with the radial retraction moves face
        # points along their own ray, so a satisfied verdict persists.
        retracted = CoefficientSet(
            RetractedMap(compliant_coeffs.drift, 2.0),
            tuple(RetractedMap(c, 2.0) for c in compliant_coeffs.vol_columns),
            tuple((w, RetractedMap(g, 2.0)) for w, g in compliant_coeffs.jump_atoms),
        )
        report = invariance_verdict(retracted, heat16, cone16, SMALL)
        assert report.satisfied

    def test_jump_pairings_nonnegative_at_faces(self, cone16, compliant_coeffs):
        # A passing jump condition forces theta * gamma_k >= 0 on faces.
        tol = default_tol(compliant_coeffs)
        for theta, k, h in sample_boundary_pairs(cone16, SMALL):
            for _, g in compliant_coeffs.jump_atoms:
                assert theta * g.eval_array(h.coords)[k] >= -tol


class TestReportContract:
    def _witness(self, mag=1.0):
        return Witness(
            condition="vol-parallel",
            theta=1,
            k=0,
            point=StateVec(np.zeros(2)),
            magnitude=mag,
            component=0,
        )

    def test_false_flag_needs_witness(self):
        with pytest.raises(SamplerContractError):
            ConditionReport(
                jump_ok=None, drift_ok=None, vol_ok=False,
                witnesses=(), sampled_points=1, tol=1e-9,
            )

    def test_witness_magnitude_above_tol(self):
        with pytest.raises(SamplerContractError):
            ConditionReport(
                jump_ok=None, drift_ok=None, vol_ok=False,
                witnesses=(self._witness(mag=1e-12),), sampled_points=1, tol=1e-9,
            )

    def test_witnesses_sorted_canonically(self):
        a = Witness("vol-parallel", 1, 2, StateVec(np.zeros(3)), 0.5, 1)
        b = Witness("vol-parallel", 1, 0, StateVec(np.zeros(3)), 0.7, 0)
        report = ConditionReport(
            jump_ok=None, drift_ok=None, vol_ok=False,
            witnesses=(a, b), sampled_points=2, tol=1e-9,
        )
        assert report.witnesses[0].k == 0 and report.witnesses[1].k == 2

    def test_partial_flags_none_counts_as_satisfied(self):
        report = ConditionReport(
            jump_ok=True, drift_ok=None, vol_ok=None,
            witnesses=(), sampled_points=3, tol=1e-9,
        )
        assert report.satisfied

    def test_to_dict_shape(self):
        report = ConditionReport(
            jump_ok=None, drift_ok=None, vol_ok=False,
            witnesses=(self._witness(),), sampled_points=1, tol=1e-9,
        )
        doc = report.to_dict()
        assert doc["verdict"] == "VIOLATED (witness found)"
        assert doc["witnesses"][0]["condition"] == "vol-parallel"
