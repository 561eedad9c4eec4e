"""Coefficient maps and the sampled invariance-condition checkers.

Hand-evaluated violations pin the checkers: a jump kernel that hops out
of the orthant, a compensator that overwhelms a zero drift, a constant
volatility column on a face.  Each expected magnitude is worked out in
the test body.
"""

import dataclasses
import hashlib
import inspect
import itertools
import os
import re
import runpy
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conespde import (
    ConeSpdeError,
    ConeSpec,
    ConfigError,
    DiagonalSemigroup,
    DomainError,
    NumericError,
    SamplerContractError,
    SearchRadiusError,
    ShapeError,
    coefficients,
    cone_contains,
)
from conespde.appendix import run_suites
from conespde.approx import MollifiedMap
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
    ShiftedMap,
    SumMap,
    TabulatedMap,
    Witness,
    ZeroMap,
    check_drift_condition,
    check_jump_condition,
    check_volatility_condition,
    default_tol,
    invariance_verdict,
    map_from_config,
    row_index,
    sample_boundary_pairs,
    sample_cone_points,
)
from conespde.config import PRESET_NAMES, ExperimentConfig, canonical_json, preset_document
from conespde.errors import read_floats
from conespde.space import phi_eps

SMALL = SamplerSpec(points_per_face=8, interior_points=8, seed=1)


def cone_sample(cone, spec):
    """The whole cone sample: every part of ``sample_cone_points`` in order."""
    return np.concatenate([np.empty((0, cone.dim)), *sample_cone_points(cone, spec)])


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

    def test_ragged_vector_rejected(self):
        with pytest.raises(ShapeError, match="^value must be a rectangular array$"):
            ConstantMap([[1.0], [1.0, 2.0]])

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

    def test_callable_sees_read_only_states(self):
        # one (N,) float64 row per call, which user code cannot write into
        seen = []

        def fn(h):
            seen.append((h.shape, h.dtype, h.flags.writeable))
            h[0] = 9.0
            return h

        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        for a in (rows[0], rows):
            with pytest.raises(ValueError, match="read-only"):
                CallableMap(fn, 2).eval_array(a)
        assert seen == [((2,), np.float64, False)] * 2
        assert rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        out = CallableMap(lambda h: h, 2).eval_array(rows)
        out[0, 0] = 9.0
        assert rows[0, 0] == 1.0

    def test_call_protocol(self):
        # eval_array is the one call: a state array in, a new array out
        m = MeanReversionMap(1.0, np.array([1.0, 1.0]))
        out = m.eval_array(np.array([0.5, 0.5]))
        assert out.dtype == np.float64 and out.shape == (2,)
        np.testing.assert_allclose(out, [0.5, 0.5])


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
    # the level-2 shift moves coordinates 0 and 1 toward 0 by 1/4 and
    # zeroes coordinate 2; eps 0.5 moves the gate edges 6 and 7 to 5.5
    # and 6.5, so rows 3 and 4 open the gate and row 2 does not
    "shifted": (ShiftedMap(_AFFINE, 2), True),
    "shifted_gated": (ShiftedMap(_GATED, 3, eps=0.5), True),
    "shifted_table": (ShiftedMap(_TABLE, 1), False),
    "callable_statevec": (CallableMap(lambda h: 2.0 * h, 3), False),
    "callable_array": (CallableMap(lambda h: np.sin(h) - h[1], 3), False),
    # mean reversion gives -0.0 at coordinate 1 of row 1, where the
    # proportional term outside its support adds +0.0
    "sum_signed_zero": (SumMap((_MEANREV, ProportionalMap(-0.3, 0, 3))), True),
    "sum_partial": (SumMap((ProportionalMap(2.0, 0, 3), _GATED, ZeroMap(3))), True),
}

# the support each case must declare
SUPPORTS = {
    "zero": [],
    "constant": [0, 2],
    "proportional": [1],
    "gated": [0, 2],
    "projected_affine": [0, 1],
    "projected_constant": [0],
    "projected_table": [0],
    "shifted_gated": [0, 2],
    "sum_partial": [0, 2],
}


@pytest.mark.parametrize("m", [m for m, _ in BATCH_CASES.values()], ids=BATCH_CASES.keys())
def test_eval_array_keeps_the_state_shape(m):
    # one state gives (N,) and a batch (P, N), also for maps that ignore
    # the state
    assert m.eval_array(BATCH).shape == BATCH.shape
    for row in BATCH:
        assert m.eval_array(row).shape == row.shape


@pytest.mark.parametrize("m", [m for m, _ in BATCH_CASES.values()], ids=BATCH_CASES.keys())
def test_batch_eval_matches_rows(m):
    # row i of a batch evaluation is eval_array(BATCH[i]), bit for bit
    rows = np.stack([m.eval_array(row) for row in BATCH])
    batch = m.eval_array(BATCH)
    assert np.broadcast_to(batch, BATCH.shape).tobytes() == rows.tobytes()


# the batch cases and two mollified maps, which evaluate their nodes in blocks
LAYOUT_CASES = {
    **{name: m for name, (m, _) in BATCH_CASES.items()},
    "mollified_affine": MollifiedMap(_AFFINE, 8.0),
    "mollified_gated": MollifiedMap(_GATED, 8.0),
}


# the built-in families, whose results follow the batch's memory layout
BUILTIN_FAMILIES = (ZeroMap, ConstantMap, AffineMap, MeanReversionMap, ProportionalMap, GatedOffsetMap)


@pytest.mark.parametrize("m", LAYOUT_CASES.values(), ids=LAYOUT_CASES.keys())
def test_fortran_batch_is_the_c_batch(m):
    # the stepping kernel holds its states one row per coordinate, rT,
    # and evaluates maps on the transpose rT.T, a Fortran-ordered (P, N)
    # batch: at full width and on the map's support, the result is the
    # C-ordered batch's bit for bit, and a built-in family's result is
    # Fortran-ordered too, so the kernel reads its transpose contiguously
    fortran = np.ascontiguousarray(BATCH.T).T
    assert not fortran.flags.c_contiguous
    for idx in (slice(None), row_index(m.support, m.dim)):
        if idx is None:
            continue
        want = m.eval_coords(BATCH, idx)
        got = m.eval_coords(fortran, idx)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if type(m) in BUILTIN_FAMILIES:
            assert got.flags.f_contiguous


@pytest.mark.parametrize(
    "shape, order", [((16,), "C"), ((7, 16), "C"), ((1024, 16), "F"), ((0, 16), "C")],
    ids=["state", "batch", "fortran", "empty"],
)
def test_proportional_full_width(shape, order):
    # eval_array goes through the general selection: zero but at the
    # column's coordinate, in the batch's memory layout
    a = np.asarray(np.random.default_rng(2).standard_normal(shape), order=order)
    want = np.zeros(shape)
    want[..., 5] = 0.3 * a[..., 5]
    got = ProportionalMap(0.3, 5, 16).eval_array(a)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert (got.flags.c_contiguous, got.flags.f_contiguous) == (
        a.flags.c_contiguous, a.flags.f_contiguous
    )


@pytest.mark.parametrize(
    "coords", [[], [3], [2, 2, 2], [5, 0, 3, 0, 5], list(range(6)), [4, 5], [1, 3, 5]],
    ids=["empty", "one", "repeated", "shuffled", "all", "run", "spread"],
)
def test_row_index_sorts_and_dedupes_as_np_unique(coords):
    # row_index and SumMap.support dedupe without np.unique, which
    # imports numpy.ma; the index is np.unique's, in dtype and value
    want = np.unique(np.asarray(coords, dtype=np.intp))
    got = coefficients._unique(coords)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    idx = row_index(coords, 6)
    if want.size == 0:
        assert idx is None
    else:
        assert np.arange(6)[idx].tolist() == want.tolist()


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_retracted_rows_on_any_layout(layout):
    # the retraction sums each row's squares in one order whatever the
    # batch's memory layout; 40 columns take the sum past NumPy's
    # unrolled blocks of 8
    rng = np.random.default_rng(7)
    wide = rng.standard_normal((64, 80)) * rng.uniform(0.0, 20.0, (64, 1))
    batch = {
        "C": wide[:, :40].copy(),
        "F": np.asfortranarray(wide[:, :40]),
        "strided": wide[:, ::2],
    }[layout]
    m = RetractedMap(AffineMap(np.eye(40), np.zeros(40)), 5.0)
    rows = np.stack([m.eval_array(row) for row in batch])
    assert m.eval_array(batch).tobytes() == rows.tobytes()


def test_shifted_is_the_inner_map_after_the_shift():
    # ShiftedMap(f, n, eps) at h is f at h with phi_eps applied to the
    # leading n coordinates and the rest zeroed, bit for bit
    for name in ("shifted", "shifted_gated", "shifted_table"):
        m = BATCH_CASES[name][0]
        eps = 2.0 ** -m.level if m.eps is None else m.eps
        for row in BATCH:
            moved = np.zeros(3)
            moved[: m.level] = phi_eps(row[: m.level], eps)
            assert m.eval_array(row).tobytes() == m.inner.eval_array(moved).tobytes(), name


@pytest.mark.parametrize(
    "level, eps", [(-1, None), (1, -0.5), (1, np.nan), (1, np.inf), (2.5, None), (1, True)],
    ids=["negative-level", "negative-eps", "nan-eps", "inf-eps", "fractional-level", "bool-eps"],
)
def test_shifted_rejects_bad_settings(level, eps):
    with pytest.raises(DomainError):
        ShiftedMap(_AFFINE, level, eps)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: DiagonalSemigroup.heat(2.5), "dim must be an integer, got 2.5"),
        (lambda: DiagonalSemigroup.heat(True), "dim must be an integer, got True"),
        (lambda: ProjectedMap(_AFFINE, 2.5), "projection level must be an integer, got 2.5"),
        (lambda: ProportionalMap(2.0, 1.5, 3), "index must be an integer, got 1.5"),
        (lambda: ProportionalMap(True, 0, 3), "scale must be a number, got True"),
        (lambda: MeanReversionMap("1", np.ones(2)), "kappa must be a number, got '1'"),
        (lambda: CoefficientSet(ZeroMap(2), (), ((True, ZeroMap(2)),)),
         "jump atom 0 weight must be a number, got True"),
        (lambda: TabulatedMap(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 2.0),
         "dim must be an integer, got 2.0"),
        (lambda: ZeroMap(0), "dim must be >= 1, got 0"),
        (lambda: ConstantMap(np.array([True, False])), "value must hold real numbers"),
        (lambda: Witness("vol-parallel", 1, 0, ["1.0"], 1.0), "point must hold real numbers"),
        (lambda: run_suites("phi", seed=True), "seed must be an integer, got True"),
        (lambda: run_suites("phi", seed=1.5), "seed must be an integer, got 1.5"),
        (lambda: run_suites("phi", seed="3"), "seed must be an integer, got '3'"),
        (lambda: run_suites("phi", seed=None), "seed must be an integer, got None"),
        (lambda: run_suites("phi", seed=-1), "seed must be >= 0, got -1"),
    ],
    ids=["heat-float", "heat-bool", "projected-float", "proportional-index-float",
         "proportional-scale-bool", "kappa-str", "weight-bool",
         "tabulated-dim-float", "zero-dim-0", "constant-bool-array", "state-str-array",
         "suite-seed-bool", "suite-seed-float", "suite-seed-str", "suite-seed-none",
         "suite-seed-negative"],
)
def test_direct_api_rejects_wrong_types(call, message):
    # booleans are not numbers, floats are not integers, strings are
    # neither: each rejected where it enters, naming the field
    with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
        call()


def _selections(m):
    """Every single coordinate, the support and all coordinates, as index
    lists and as slices."""
    picks = [[k] for k in range(m.dim)] + [slice(k, k + 1) for k in range(m.dim)]
    return picks + [m.support, list(range(m.dim)), slice(None), slice(1, None)]


@pytest.mark.parametrize("m", [m for m, _ in BATCH_CASES.values()], ids=BATCH_CASES.keys())
def test_eval_coords_matches_columns(m):
    # eval_coords(a, idx) is broadcast_to(eval_array(a), a.shape)[..., idx]
    # bit for bit, on the batch and on each of its rows
    for a in [BATCH, *BATCH]:
        full = np.broadcast_to(m.eval_array(a), a.shape)
        for idx in _selections(m):
            got = m.eval_coords(a, idx)
            assert got.shape == full[..., idx].shape, idx
            assert got.tobytes() == full[..., idx].tobytes(), idx


@pytest.mark.parametrize("name", BATCH_CASES.keys())
def test_support_is_sound(name):
    # outside its support a map is zero everywhere on the batch, and
    # inside it the batch reaches a nonzero value: the gated case has
    # rows inside its band [6, 7]
    m = BATCH_CASES[name][0]
    sup = m.support
    assert sup.tolist() == SUPPORTS.get(name, list(range(m.dim)))
    full = np.broadcast_to(m.eval_array(BATCH), BATCH.shape)
    outside = np.setdiff1d(np.arange(m.dim), sup)
    assert np.all(full[:, outside] == 0.0)
    assert sup.size == 0 or np.any(full[:, sup] != 0.0)


@pytest.mark.parametrize("name", [n for n, (m, _) in BATCH_CASES.items() if isinstance(m, SumMap)])
def test_sum_matches_full_width_sum(name):
    # adding a term on its support only gives the full-width sum's bytes,
    # -0.0 entries included
    m = BATCH_CASES[name][0]
    for a in [BATCH, *BATCH]:
        want = m.terms[0].eval_array(a)
        for t in m.terms[1:]:
            want = want + t.eval_array(a)
        got = m.eval_array(a)
        assert np.broadcast_to(got, a.shape).tobytes() == np.broadcast_to(want, a.shape).tobytes()


FAMILIES = sorted(
    (
        cls
        for cls in vars(coefficients).values()
        if isinstance(cls, type)
        and issubclass(cls, coefficients.CoefficientMap)
        and cls is not coefficients.CoefficientMap
        and cls.__module__ == coefficients.__name__
    ),
    key=lambda cls: cls.__name__,
)


def test_batch_cases_cover_every_family():
    # a new map family must join BATCH_CASES, so the batch, support and
    # eval_coords parity tests above cover it
    assert len(FAMILIES) >= 11
    assert set(FAMILIES) - {type(m) for m, _ in BATCH_CASES.values()} == set()


@pytest.mark.parametrize("cls", FAMILIES, ids=lambda cls: cls.__name__)
def test_family_implements_only_eval_coords(cls):
    # eval_array is the base class asking eval_coords for every coordinate
    assert "eval_coords" in vars(cls)
    assert "eval_array" not in vars(cls)


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
        np.testing.assert_array_equal(m.eval_array(np.zeros((1, 4))), [[1.0, 2.0, 0.0, 0.0]])
    assert v.tolist() == [1.0, 2.0, 3.0, 4.0]


# one map of every family with a config form
ROUND_TRIP = [
    ZeroMap(3),
    ConstantMap(np.array([1.0, 2.0, 3.0])),
    AffineMap(np.diag([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3])),
    MeanReversionMap(0.5, np.array([1.0, 1.0, 1.0])),
    ProportionalMap(0.3, 2, 3),
    TabulatedMap(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 3),
    GatedOffsetMap(np.array([1.0, 0.0, 0.0]), 0, -1.0, 1.0),
    SumMap((ZeroMap(3), ConstantMap(np.array([1.0, 0.0, 0.0])))),
    ProjectedMap(ConstantMap(np.array([1.0, 2.0, 3.0])), 1),
    RetractedMap(AffineMap(np.diag([1.0, 2.0, 3.0]), np.zeros(3)), 1.0),
    ShiftedMap(AffineMap(np.diag([1.0, 2.0, 3.0]), np.zeros(3)), 2),
    ShiftedMap(TabulatedMap(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 3), 1, eps=0.5),
]


def _sha(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def _with_drift(drift) -> dict:
    """A dimension-3 config whose drift is ``drift``: a map document
    read the way ``from_dict`` reads one outside a column list."""
    return {
        "space": {"dim": 3, "cone": "nonnegative"},
        "semigroup": {"rates": "heat"},
        "coefficients": {"drift": drift, "vol": [{"family": "proportional", "scale": 0.3}]},
        "noise": {"eigenvalues": [1.0], "seed": 0},
        "sim": {"dt": 0.1, "horizon": 1.0, "paths": 2},
        "initial": [0.0, 0.0, 0.0],
    }


# sha256 of the canonical JSON of each ROUND_TRIP map's load-and-write
# round trip, recorded before the families declared their config forms
ROUND_TRIP_DIGESTS = [
    "076db0b5d4c226317cadbae2f0ab29175acead9c2f99152ff23e2ccedd269d54",
    "d1dc3e17af84cdd4e50e7f6afbd69b9909d2f4988b3053e394e22b8cc10a3aac",
    "5c5f00ca18cbfdff8834f5fa4f976d2eeac0e9f325a4df792c9b8b3de17f6224",
    "28681b2a6f24ec7291c8cd3cb79f22e31b3034c81264cbc7aa2bac56221d3abf",
    "5420933f023ec4ca747d5264d289def3b90821ed07ea67478a834e20b51ba255",
    "d5f89370f4f0fa632be7dafbde55d3502cfd342b5c28f482bbb77df2abc59aa5",
    "f8a7b87ba43eca2038ba26488fd55417aef58ae8ea5c220216f5789f5a8d2dfc",
    "c72afbd00a9d22b92a3a3a6da891020b7b9b8714a5cfc52316869a34508ed180",
    "2d75108310d9e6cb91911daae9b4dd10d62d4c73f56fd910efaffb8801f89f32",
    "ab66955a1dffc076906f7342bef2f8a6abcd5fef056322e48fd8170fc35cec8c",
    "0dbd9db7fab6b44c3412a8ed1678b624f2132dfd3f0d0a2fab766865f167bba5",
    "78b19c4a50e1dc55e7c1e33649d0fa302d6b78801cfcdfd5bf5e165087613b78",
]

# the special forms, each with its column index and the same digest
ALIAS_FORMS = {
    "linear-matrix": ({"family": "linear", "matrix": [[1, 2, 0], [0, 1, 0], [0, 0, 3]]}, None,
                      "19121e5f14ddc2631765749b42b1d9e5dd369b24e834ba0bed7e2b122f00dfed"),
    "linear-diag": ({"family": "linear", "diag": [2.0, 3.0, 4.0]}, None,
                    "b745d54fd167b0731960bb2e64ccc852c4d71aed64a19d3edf053dfd6d890a8f"),
    "affine-diag": ({"family": "affine", "diag": [2.0, 3.0, 4.0], "offset": [1, 0, -1]}, None,
                    "6dc06895a8a27d06b063f325892978f4d98f2824f984c1116270b341c5032980"),
    "affine-no-offset": ({"family": "affine", "matrix": [[1.0] * 3] * 3}, None,
                         "0808a4a79cd32347f81a4d28deca2ac300d68954b8dc8817f6f5b51e507bc534"),
    "proportional-column": ({"family": "proportional", "scale": 0.5}, 2,
                            "a8e246f56a6b7c7767324a1e2d68f14a2e3f38d705808dfffdca2a3d8910b8d7"),
    "shifted-no-eps": ({"family": "shifted", "level": 3, "inner": {"family": "zero"}}, None,
                       "7304aba4fe43fb18997bff8856bfef6012ac4dcfed1674d78973c40191ad72ed"),
    "integral-floats": ({"family": "gated_offset", "vector": [1, 0, 0], "gate_index": 1.0,
                         "low": 0, "high": 2}, None,
                        "0de4ee91198890e2f7c70b001faf1925c38b50780a1ffe4f3f31ed92d1440146"),
}

_V3, _Z = [1.0, 2.0, 3.0], {"family": "zero"}

# bad map documents read as a drift, and the exact message each raises;
# CHANGES.md lists those the one config reader moved
BAD_MAPS = {
    "no-family": ({"kappa": 1.0},
                  "coefficient map config needs a 'family' key, got {'kappa': 1.0}"),
    "unknown": ({"family": "fractal"}, "unknown coefficient family 'fractal'"),
    "unhashable": ({"family": ["affine"]}, "unknown coefficient family ['affine']"),
    "constant": ({"family": "constant"}, "constant.value: missing"),
    "affine": ({"family": "affine"}, "affine.matrix: missing"),
    "linear": ({"family": "linear"}, "linear.matrix: missing"),
    "kappa": ({"family": "mean_reversion", "b": _V3},
              "mean_reversion.kappa: missing"),
    "b": ({"family": "mean_reversion", "kappa": 1.0},
          "mean_reversion.b: missing"),
    "scale": ({"family": "proportional", "index": 0},
              "proportional.scale: missing"),
    "x": ({"family": "tabulated", "y": [0.0, 1.0]}, "tabulated.x: missing"),
    "y": ({"family": "tabulated", "x": [0.0, 1.0]}, "tabulated.y: missing"),
    "high": ({"family": "gated_offset", "vector": _V3, "gate_index": 0, "low": 0.0},
             "gated_offset.high: missing"),
    "gate_index": ({"family": "gated_offset", "vector": _V3, "low": 0.0, "high": 1.0},
                   "gated_offset.gate_index: missing"),
    "terms": ({"family": "sum"}, "sum.terms: missing"),
    "projected-level": ({"family": "projected", "inner": _Z},
                        "projected.level: missing"),
    "projected-inner": ({"family": "projected", "level": 1},
                        "projected.inner: missing"),
    "radius": ({"family": "retracted", "inner": _Z},
               "retracted.radius: missing"),
    "retracted-inner": ({"family": "retracted", "radius": 1.0},
                        "retracted.inner: missing"),
    "shifted-level": ({"family": "shifted", "inner": _Z},
                      "shifted.level: missing"),
    "shifted-inner": ({"family": "shifted", "level": 2},
                      "shifted.inner: missing"),
    "no-index": ({"family": "proportional", "scale": 0.5}, "proportional.index: missing"),
    "null-index": ({"family": "proportional", "scale": 0.5, "index": None},
                   "proportional.index: must be an integer, got None"),
    "value-length": ({"family": "constant", "value": [1.0, 2.0]},
                     "constant.value must have shape (3,) and no empty axis, got (2,)"),
    "b-length": ({"family": "mean_reversion", "kappa": 1.0, "b": [1.0]},
                 "mean_reversion.b must have shape (3,) and no empty axis, got (1,)"),
    "vector-length": ({"family": "gated_offset", "vector": [1.0], "gate_index": 0, "low": 0,
                       "high": 1},
                      "gated_offset.vector must have shape (3,) and no empty axis, got (1,)"),
    "offset-length": ({"family": "affine", "matrix": [[1.0] * 3] * 3, "offset": [1.0]},
                      "offset must have shape (3,) and no empty axis, got (1,)"),
    "value-string": ({"family": "constant", "value": ["1", 2.0, 3.0]},
                     "constant.value[0]: must be a number, got '1'"),
    "diag-string": ({"family": "linear", "diag": ["a", 1.0, 1.0]},
                    "linear.diag[0]: must be a number, got 'a'"),
    "b-null-entry": ({"family": "mean_reversion", "kappa": 1.0, "b": [None, 1.0, 1.0]},
                     "mean_reversion.b must be finite"),
    "kappa-string": ({"family": "mean_reversion", "kappa": "1", "b": _V3},
                     "mean_reversion.kappa: must be a number, got '1'"),
    "kappa-boolean": ({"family": "mean_reversion", "kappa": True},
                      "mean_reversion.kappa: must be a number, got True"),
    "index-fraction": ({"family": "proportional", "scale": 0.5, "index": 1.5},
                       "proportional.index: must be an integer, got 1.5"),
    "scale-boolean": ({"family": "proportional", "scale": True, "index": 1},
                      "proportional.scale: must be a number, got True"),
    "gate-fraction": ({"family": "gated_offset", "vector": _V3, "gate_index": 0.5, "low": 0,
                       "high": 1},
                      "gated_offset.gate_index: must be an integer, got 0.5"),
    "level-string": ({"family": "projected", "level": "1", "inner": _Z},
                     "projected.level: must be an integer, got '1'"),
    "radius-string": ({"family": "retracted", "radius": "1", "inner": _Z},
                      "retracted.radius: must be a number, got '1'"),
    "eps-boolean": ({"family": "shifted", "level": 2, "eps": True, "inner": _Z},
                    "shifted.eps: must be a number, got True"),
    "eps-null": ({"family": "shifted", "level": 2, "eps": None, "inner": _Z},
                 "shifted.eps: must be a number, got None"),
    "level-fraction": ({"family": "shifted", "level": 2.5, "inner": _Z},
                       "shifted.level: must be an integer, got 2.5"),
    "terms-number": ({"family": "sum", "terms": 5}, "sum.terms: must be a list, got 5"),
    "bad-term": ({"family": "sum", "terms": [_Z, {"family": "fractal"}]},
                 "unknown coefficient family 'fractal'"),
    "null-inner": ({"family": "projected", "level": 1, "inner": None},
                   "coefficient map config needs a 'family' key, got None"),
    "one-knot": ({"family": "tabulated", "x": [0.0], "y": [1.0]},
                 "a table needs at least 2 knots, got 1"),
    "gate-out-of-range": ({"family": "gated_offset", "vector": _V3, "gate_index": 3, "low": 0,
                           "high": 1},
                          "gate index 3 outside 0..2"),
    "low-above-high": ({"family": "gated_offset", "vector": _V3, "gate_index": 0, "low": 2.0,
                        "high": 1.0},
                       "need low <= high, got 2.0 > 1.0"),
}

# keys a family's form does not declare, each rejected by name
UNDECLARED = {
    "linear-offset": ({"family": "linear", "matrix": [[1.0] * 3] * 3, "offset": [5.0] * 3},
                      "linear.offset: undeclared key"),
    "diag-and-matrix": ({"family": "affine", "diag": _V3, "matrix": [[1.0] * 3] * 3},
                        "affine.matrix: undeclared key"),
    "typo": ({"family": "mean_reversion", "kapa": 1.0, "kappa": 1.0, "b": _V3},
             "mean_reversion.kapa: undeclared key"),
}


class TestMapConfig:
    @pytest.mark.parametrize("m", ROUND_TRIP)
    def test_round_trip(self, m):
        back = map_from_config(m.to_config(), 3)
        h = np.array([0.3, -0.7, 2.0])
        np.testing.assert_array_equal(back.eval_array(h), m.eval_array(h))
        assert back.to_config() == m.to_config()

    @pytest.mark.parametrize("m, digest", zip(ROUND_TRIP, ROUND_TRIP_DIGESTS, strict=True))
    def test_round_trip_bytes_pinned(self, m, digest):
        assert _sha(map_from_config(m.to_config(), 3).to_config()) == digest

    @pytest.mark.parametrize("doc, index, digest", ALIAS_FORMS.values(), ids=ALIAS_FORMS.keys())
    def test_alias_form_bytes_pinned(self, doc, index, digest):
        assert _sha(map_from_config(doc, 3, index).to_config()) == digest

    @pytest.mark.parametrize("doc, message", BAD_MAPS.values(), ids=BAD_MAPS.keys())
    def test_error_message_pinned(self, doc, message):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(_with_drift(doc))
        assert str(exc.value) == f"coefficients: {message}"

    @pytest.mark.parametrize("doc, message", UNDECLARED.values(), ids=UNDECLARED.keys())
    def test_undeclared_key(self, doc, message):
        with pytest.raises(ConfigError) as exc:
            map_from_config(doc, 3)
        assert str(exc.value) == message

    def test_undeclared_key_after_other_faults(self):
        # a document that fails for another reason reports that reason
        with pytest.raises(ConfigError, match="^mean_reversion.b: missing$"):
            map_from_config({"family": "mean_reversion", "kappa": 1.0, "kapa": 1.0}, 3)

    def test_two_fault_documents(self):
        # fields are read scalars first, in declaration order, then lists
        # and nested maps: a proportional map with neither key reports the
        # scale (its index was reported first before the declarations)
        with pytest.raises(ConfigError, match="^proportional.scale: missing$"):
            map_from_config({"family": "proportional"}, 3)
        with pytest.raises(ConfigError, match="^shifted.level: must be an integer, got 'x'$"):
            map_from_config({"family": "shifted", "level": "x", "inner": None}, 3)

    @pytest.mark.parametrize(
        "read, message",
        [
            (lambda: map_from_config({"family": "sum", "terms": 5}, 3),
             "sum.terms: must be a list, got 5"),
            (lambda: read_floats("b", {"x": 1}), "b: must be a list, got {'x': 1}"),
            (lambda: read_floats("b", [1.0, [2.0]]), "b[1]: must be a number, got [2.0]"),
        ],
        ids=["terms-number", "floats-object", "floats-nested"],
    )
    def test_public_readers_raise_config_errors(self, read, message):
        # each raised a bare TypeError before the readers checked their lists
        with pytest.raises(ConfigError) as exc:
            read()
        assert str(exc.value) == message

    def test_round_trip_covers_every_family(self):
        # a callable has no config form; every other family must load
        # the config it saves
        assert {type(m) for m in ROUND_TRIP} == set(FAMILIES) - {CallableMap}

    def test_callable_has_no_config_form(self):
        with pytest.raises(ConfigError, match="^CallableMap has no config form$"):
            CallableMap(lambda h: h, 3).to_config()

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            map_from_config({"family": "fractal"}, 3)

    @pytest.mark.parametrize("family", [["affine"], {"name": "zero"}], ids=["list", "dict"])
    def test_unhashable_family_is_unknown(self, family):
        with pytest.raises(ConfigError, match="unknown coefficient family"):
            map_from_config({"family": family}, 3)

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

    def test_builtin_detection(self, compliant_coeffs):
        assert compliant_coeffs.uses_only_builtin_maps()
        wrapped = CoefficientSet(CallableMap(lambda h: 0.0 * h, 16))
        assert not wrapped.uses_only_builtin_maps()

    def test_default_tol_tiers(self, compliant_coeffs):
        assert default_tol(compliant_coeffs) == 1e-9
        tab = CoefficientSet(TabulatedMap(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 2))
        assert default_tol(tab) == 1e-6

    def test_config_round_trip(self, compliant_coeffs):
        # the coefficients section, which ExperimentConfig.to_dict writes
        # and from_dict reads: the preset's own, for the set it describes
        ec = ExperimentConfig.from_dict({"preset": "heat-positive"})
        written = dataclasses.replace(ec, coeffs=compliant_coeffs).to_dict()
        assert written["coefficients"] == preset_document("heat-positive")["coefficients"]
        back = ExperimentConfig.from_dict(written).coeffs
        h = np.linspace(0.0, 1.5, 16)
        np.testing.assert_array_equal(
            back.drift.eval_array(h), compliant_coeffs.drift.eval_array(h)
        )
        assert len(back.vol_columns) == 8
        assert back.jump_weights.tolist() == [0.2]


# ---------------------------------------------------------------- samplers


class TestSamplers:
    @pytest.mark.parametrize("name", ["points_per_face", "interior_points", "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None])
    def test_counts_and_seed_are_integers(self, name, value):
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            SamplerSpec(**{name: value})

    @pytest.mark.parametrize("value", [1, 0, "yes", np.bool_(True), None])
    def test_include_corners_is_a_bool(self, value):
        with pytest.raises(DomainError, match="^include_corners must be True or False"):
            SamplerSpec(include_corners=value)

    def test_numpy_integers_accepted(self):
        spec = SamplerSpec(points_per_face=np.int64(3), interior_points=np.int32(0), seed=np.uint8(1))
        assert cone_sample(ConeSpec.nonnegative(2), spec).shape == (2 * 3 + 3, 2)

    def test_boundary_pairs_on_faces(self):
        K = ConeSpec(np.array([1, -1, 0]))
        pairs = list(sample_boundary_pairs(K, SMALL))
        assert pairs, "sampler produced no pairs"
        for theta, k, H in pairs:
            assert theta == int(K.signs[k])
            assert np.all(H[:, k] == 0.0)
            assert cone_contains(K, H, 0.0)

    def test_cone_points_inside(self):
        K = ConeSpec(np.array([1, -1, 0]))
        assert all(cone_contains(K, part, 0.0) for part in sample_cone_points(K, SMALL))

    def test_deterministic(self):
        K = ConeSpec.nonnegative(4)
        a = list(sample_boundary_pairs(K, SamplerSpec(seed=5)))
        b = list(sample_boundary_pairs(K, SamplerSpec(seed=5)))
        assert len(a) == len(b)
        for (t1, k1, H1), (t2, k2, H2) in zip(a, b):
            assert (t1, k1) == (t2, k2) and np.array_equal(H1, H2)

    def test_corner_points_present(self):
        K = ConeSpec.nonnegative(3)
        pts = cone_sample(K, SamplerSpec(points_per_face=0, interior_points=0))
        coords = {tuple(p) for p in pts}
        assert (0.0, 0.0, 0.0) in coords
        assert (1.0, 0.0, 0.0) in coords

    @pytest.mark.parametrize("per_face", [0, 5])
    @pytest.mark.parametrize("corners", [True, False])
    def test_block_shapes(self, per_face, corners):
        K = ConeSpec(np.array([1, -1, 0, 1]))
        spec = SamplerSpec(points_per_face=per_face, interior_points=2, include_corners=corners)
        # a face's corners: the origin and the two other constrained unit vectors
        rows = per_face + (3 if corners else 0)
        blocks = list(sample_boundary_pairs(K, spec))
        assert [(t, k, H.shape) for t, k, H in blocks] == [
            (1, 0, (rows, 4)),
            (-1, 1, (rows, 4)),
            (1, 3, (rows, 4)),
        ]
        # the interior draws, each face's draws, then the origin and the
        # three constrained unit vectors
        parts = list(sample_cone_points(K, spec))
        assert [p.shape for p in parts] == (
            [(2, 4)] + [(per_face, 4)] * (3 if per_face else 0) + [(4, 4)] * corners
        )
        assert not any(p.flags.writeable for p in parts)
        assert not any(H.flags.writeable for _, _, H in blocks)

    def test_parts_cut_at_the_row_bound(self, monkeypatch):
        # the interior draws, each face's draws and the corners are cut
        # at _JUMP_ROWS rows apiece, and the parts are the same rows from
        # the same stream whatever the bound
        K = ConeSpec(np.array([1, -1, 0, 1, 1]))
        spec = SamplerSpec(points_per_face=5, interior_points=9, seed=2)
        whole = cone_sample(K, spec)
        monkeypatch.setattr(coefficients, "_JUMP_ROWS", 4)
        parts = list(sample_cone_points(K, spec))
        assert [p.shape[0] for p in parts] == [4, 4, 1] + [4, 1] * 4 + [4, 1]
        assert np.concatenate(parts).tobytes() == whole.tobytes()

    def test_no_constrained_coordinate(self):
        K = ConeSpec(np.zeros(3, dtype=int))
        assert list(sample_boundary_pairs(K, SMALL)) == []
        points = cone_sample(K, SMALL)
        assert points.shape == (SMALL.interior_points + 1, 3)
        # nothing to violate: every jump lands in the whole space
        C = CoefficientSet(
            ConstantMap(np.ones(3)),
            (ConstantMap(np.ones(3)),),
            ((1.0, AffineMap(-3.0 * np.eye(3), np.zeros(3))),),
        )
        report = invariance_verdict(C, K, SMALL)
        assert report.satisfied and report.sampled_points == points.shape[0]

    def test_empty_blocks_evaluate(self):
        # row-by-row maps on (0, N) blocks: nothing sampled, nothing raised
        K = ConeSpec(np.array([1, -1, 0, 1]))
        spec = SamplerSpec(points_per_face=0, interior_points=0, include_corners=False)
        C = CoefficientSet(
            CallableMap(lambda h: -1.0 * h, 4),
            (RetractedMap(ConstantMap(np.ones(4)), 1.0),),
            ((1.0, CallableMap(lambda h: -2.0 * h, 4)),),
        )
        report = invariance_verdict(C, K, spec)
        assert report.satisfied and report.sampled_points == 0

    def test_dim_one(self):
        K = ConeSpec(np.array([-1]))
        blocks = list(sample_boundary_pairs(K, SMALL))
        assert [(t, k) for t, k, _ in blocks] == [(-1, 0)]
        H = blocks[0][2]
        assert H.shape == (SMALL.points_per_face + 1, 1) and np.all(H == 0.0)
        points = cone_sample(K, SMALL)
        assert points.shape == (SMALL.interior_points + SMALL.points_per_face + 2, 1)
        assert np.all(points <= 0.0)

    def test_stream_pinned(self):
        # Digests recorded when the samplers drew one state per generator
        # call and the cone sampler returned one array: one (P, N) draw per
        # face, and the cone sample's parts in order, must consume the
        # stream the same way.
        K = ConeSpec(np.array([1, -1, 0, 1]))
        spec = SamplerSpec(seed=5)
        blocks = list(sample_boundary_pairs(K, spec))
        assert [(t, k, H.shape[0]) for t, k, H in blocks] == [(1, 0, 67), (-1, 1, 67), (1, 3, 67)]
        faces = np.concatenate([H for _, _, H in blocks])
        assert (
            hashlib.sha256(faces.tobytes()).hexdigest()
            == "5b59c2c148a0c912a98201821a1ba969fd3563999881e1ac28c632ada7b2a989"
        )
        assert (
            hashlib.sha256(cone_sample(K, spec).tobytes()).hexdigest()
            == "57351eeff7fe2e8f61f33e566aaa63ac78029a35e2b780a92d0e1b21f479c70e"
        )

    @pytest.mark.parametrize(
        "fold",
        [
            lambda cone, z: z.copy(),  # left outside the cone
            lambda cone, z: np.where(cone.signs < 0, -np.inf, np.inf) + 0.0 * z,  # not finite
        ],
        ids=["unfolded", "infinite"],
    )
    def test_contract_violation_raises(self, monkeypatch, fold):
        corners = coefficients._corners
        monkeypatch.setattr(coefficients, "_fold_into_cone", fold)
        monkeypatch.setattr(
            coefficients, "_corners", lambda cone, idx, rows: fold(cone, -corners(cone, idx, rows))
        )
        K = ConeSpec(np.array([1, -1, 0]))
        with pytest.raises(SamplerContractError, match="^face sampler left the face at k=0$"):
            list(sample_boundary_pairs(K, SMALL))
        # each part of the cone sample is checked as it is drawn, and the
        # error names the part
        first_bad = {
            "in the interior draws": SMALL,
            "at face k=0": SamplerSpec(points_per_face=8, interior_points=0),
            "in the corners": SamplerSpec(points_per_face=0, interior_points=0),
        }
        for where, spec in first_bad.items():
            with pytest.raises(SamplerContractError, match=f"^cone sampler left the cone {where}$"):
                list(sample_cone_points(K, spec))


class TestStreaming:
    # both samplers are generators: each checker draws one face block or
    # one part of the cone sample at a time, and a bad face raises when
    # it is reached

    @staticmethod
    def _heat(dim):
        return CoefficientSet(
            MeanReversionMap(1.0, np.full(dim, 0.5)),
            tuple(ProportionalMap(0.3, j, dim) for j in range(8)),
            ((0.2, ConstantMap(np.full(dim, 0.1))),),
        )

    def test_verdict_peak_below_all_blocks(self):
        dim = 96
        cone = ConeSpec.nonnegative(dim)
        coeffs = self._heat(dim)
        spec = SamplerSpec()
        all_blocks = sum(H.nbytes for _, _, H in sample_boundary_pairs(cone, spec))

        def peak():
            tracemalloc.start()
            try:
                invariance_verdict(coeffs, cone, spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak()  # warm-up: first-call allocations are not the verdict's
        assert peak() < all_blocks

    def test_jump_peak_holds_one_part(self):
        # the jump checker evaluates each part as it is drawn: its peak
        # stays below the whole cone sample, and four times the interior
        # draws move it by less than one part
        dim = 96
        cone = ConeSpec.nonnegative(dim)
        coeffs = self._heat(dim)
        small, large = SamplerSpec(interior_points=2048), SamplerSpec(interior_points=4 * 2048)

        def peak(spec):
            check_jump_condition(coeffs, cone, spec)  # warm-up
            tracemalloc.start()
            try:
                check_jump_condition(coeffs, cone, spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        part = coefficients._JUMP_ROWS * dim * 8
        assert peak(small) < cone_sample(cone, small).nbytes
        assert peak(large) - peak(small) < part

    def test_each_checker_draws_the_boundary_once(self, monkeypatch, cone16, badvol_coeffs):
        calls = []
        draw = coefficients.sample_boundary_pairs

        def counted(cone, spec):
            calls.append(spec)
            return draw(cone, spec)

        monkeypatch.setattr(coefficients, "sample_boundary_pairs", counted)
        check_drift_condition(badvol_coeffs, cone16, SMALL)
        assert len(calls) == 1
        check_volatility_condition(badvol_coeffs, cone16, SMALL)
        assert len(calls) == 2
        invariance_verdict(badvol_coeffs, cone16, SMALL)
        assert len(calls) == 4

    def test_bad_face_raises_when_reached(self, monkeypatch):
        draws = coefficients._face_draws

        def off_face_at_two(cone, rng, n, k):
            pts = draws(cone, rng, n, k)
            if k == 2:
                pts[0, 2] = 1.0  # still in the cone, no longer on face 2
            return pts

        monkeypatch.setattr(coefficients, "_face_draws", off_face_at_two)
        K = ConeSpec.nonnegative(4)
        blocks = sample_boundary_pairs(K, SMALL)
        assert [k for _, k, _ in itertools.islice(blocks, 2)] == [0, 1]
        with pytest.raises(SamplerContractError, match="k=2"):
            next(blocks)
        C = CoefficientSet(ZeroMap(4))
        assert check_jump_condition(C, K, SMALL).jump_ok
        for check in (check_drift_condition, check_volatility_condition, invariance_verdict):
            with pytest.raises(SamplerContractError):
                check(C, K, SMALL)


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
        corner = [w for w in report.witnesses if np.array_equal(w.point, [1.0, 0.0, 0.0])]
        assert corner and corner[0].magnitude == pytest.approx(1.0)
        assert corner[0].condition == "jump-stays-in-cone"


class TestDriftCondition:
    def test_nonnegative_constant_drift_passes(self):
        K = ConeSpec.nonnegative(3)
        C = CoefficientSet(ConstantMap(np.array([0.5, 0.0, 1.0])))
        assert check_drift_condition(C, K, SMALL).drift_ok

    def test_compensator_overwhelms_zero_drift(self):
        # Atom w = 1 with kernel e_1: at the first face the margin is
        # 0 + 0 - 1 = -1 even though the jump itself stays in the cone.
        K = ConeSpec.nonnegative(3)
        gamma = ConstantMap(np.array([1.0, 0.0, 0.0]))
        C = CoefficientSet(ZeroMap(3), (), ((1.0, gamma),))
        assert check_jump_condition(C, K, SMALL).jump_ok
        report = check_drift_condition(C, K, SMALL)
        assert report.drift_ok is False
        faces = {w.k for w in report.witnesses}
        assert faces == {0}
        assert all(w.magnitude == pytest.approx(1.0) for w in report.witnesses)

    def test_mean_reversion_face_value(self, cone16, compliant_coeffs):
        # kappa b_k - w * 0.1 = 0.5 - 0.02 = 0.48 on every face.
        pairs = list(sample_boundary_pairs(cone16, SMALL))
        theta, k, H = pairs[0]
        *_, (_, margin, _, _) = coefficients._drift_parts(compliant_coeffs, np.array([theta]), [k], H[:1])
        assert margin[0, 0] == pytest.approx(0.48)

    def test_checker_rejects_off_face_block(self, monkeypatch):
        # the face contract is checked once, by the sampler, before the
        # checker sees the block
        def off_face(cone, rng, n, k):
            return np.array([[0.0, 1.0], [0.5, 1.0]])

        monkeypatch.setattr(coefficients, "_face_draws", off_face)
        K = ConeSpec.nonnegative(2)
        with pytest.raises(SamplerContractError, match="k=0"):
            check_drift_condition(CoefficientSet(ZeroMap(2)), K, SMALL)


class TestVolatilityCondition:
    def test_proportional_vanishes_on_faces(self, cone16, compliant_coeffs):
        assert check_volatility_condition(compliant_coeffs, cone16, SMALL).vol_ok

    def test_constant_column_magnitude(self, cone16, badvol_coeffs):
        report = check_volatility_condition(badvol_coeffs, cone16, SMALL)
        assert report.vol_ok is False
        w = report.witnesses[0]
        assert w.condition == "vol-parallel"
        assert w.k == 0 and w.component == 8
        assert w.magnitude == pytest.approx(0.3)
        # only the first face sees the constant column
        assert {v.k for v in report.witnesses} == {0}

    def test_noise_on_free_coordinate_passes(self):
        K = ConeSpec(np.array([1, 0]))
        C = CoefficientSet(ZeroMap(2), (ConstantMap(np.array([0.0, 1.0])),))
        assert check_volatility_condition(C, K, SMALL).vol_ok


def _nan_at(*coords):
    """A dim-3 callable map that is NaN at ``coords`` and zero elsewhere."""
    value = np.zeros(3)
    value[list(coords)] = np.nan
    return CallableMap(lambda h: value, 3)


NAN_ALL = _nan_at(0, 1, 2)


class TestNonFiniteValues:
    # a map value that is not finite is an error naming the condition,
    # the map and the face, never a pass or a sampler fault
    CASES = {
        "vol": ((ZeroMap(3), (NAN_ALL,), ()), "vol-parallel: volatility column 0", 0),
        "vol-face-2": (
            (ZeroMap(3), (ZeroMap(3), _nan_at(2)), ()),
            "vol-parallel: volatility column 1",
            2,
        ),
        "jump": ((ZeroMap(3), (), ((1.0, NAN_ALL),)), "jump-stays-in-cone: jump atom 0", 0),
        "jump-face-1": (
            (ZeroMap(3), (), ((1.0, ZeroMap(3)), (2.0, _nan_at(1)))),
            "jump-stays-in-cone: jump atom 1",
            1,
        ),
        "drift": ((NAN_ALL, (), ()), "drift-inward: drift", 0),
        "drift-atom-face-2": (
            (ZeroMap(3), (), ((1.0, ZeroMap(3)), (2.0, _nan_at(2)))),
            "drift-inward: jump atom 1",
            2,
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_checkers_raise(self, case):
        maps, part, k = self.CASES[case]
        coeffs = CoefficientSet(*maps)
        K = ConeSpec.nonnegative(3)
        condition = part.split(":")[0]
        with pytest.raises(NumericError, match=re.escape(f"{part} is not finite on face k={k}")):
            if condition == "jump-stays-in-cone":
                check_jump_condition(coeffs, K, SMALL)
            elif condition == "drift-inward":
                check_drift_condition(coeffs, K, SMALL)
            else:
                check_volatility_condition(coeffs, K, SMALL)
        # the verdict runs the jump checker first, so an atom may fail there
        with pytest.raises(NumericError, match="is not finite on face"):
            invariance_verdict(coeffs, K, SMALL)

    def test_jump_names_the_first_atom_in_part_order(self):
        # atom 0 is not finite only at the origin, a corner drawn last,
        # atom 1 nowhere: the first part, the interior draws, reaches
        # atom 1 before any part reaches the origin
        at_origin = CallableMap(lambda h: np.full(3, np.nan if not h.any() else 0.0), 3)
        C = CoefficientSet(ZeroMap(3), (), ((1.0, at_origin), (1.0, NAN_ALL)))
        with pytest.raises(NumericError, match="jump atom 1 is not finite on face k=0"):
            check_jump_condition(C, ConeSpec.nonnegative(3), SMALL)

    def test_free_coordinate_of_a_jump(self):
        # only coordinate 0 is constrained, so no jump margin reads the NaN
        K = ConeSpec(np.array([1, 0, 0]))
        C = CoefficientSet(ZeroMap(3), (), ((1.0, _nan_at(2)),))
        with pytest.raises(NumericError, match="jump atom 0 is not finite on face k=2"):
            check_jump_condition(C, K, SMALL)

    def test_overflowing_drift(self):
        # kappa (b - h) overflows to inf, quietly: pytest turns a NumPy
        # overflow warning into an error
        C = CoefficientSet(MeanReversionMap(1e308, np.full(3, 1e308)))
        with pytest.raises(NumericError, match="drift-inward: drift"):
            check_drift_condition(C, ConeSpec.nonnegative(3), SMALL)

    def test_overflowing_compensator(self):
        # every atom value is finite, but w * gamma = 1e309 is not; the
        # margin 0 - inf is an overflow, not a sampler fault
        C = CoefficientSet(ZeroMap(3), (), ((10.0, ConstantMap(np.full(3, 1e308))),))
        K = ConeSpec.nonnegative(3)
        message = "drift-inward: drift minus jump compensator is not finite on face k=0"
        with pytest.raises(NumericError, match=re.escape(message)):
            check_drift_condition(C, K, SMALL)
        with pytest.raises(NumericError, match=re.escape(message)):
            invariance_verdict(C, K, SMALL)


class TestVerdict:
    def test_compliant_satisfied(self, cone16, compliant_coeffs):
        report = invariance_verdict(compliant_coeffs, cone16, SMALL)
        assert report.satisfied
        assert report.verdict == "NO VIOLATION FOUND (sampled)"
        assert report.witnesses == ()

    def test_badvol_violated(self, cone16, badvol_coeffs):
        report = invariance_verdict(badvol_coeffs, cone16, SMALL)
        assert not report.satisfied
        assert report.verdict == "VIOLATED (witness found)"
        assert report.jump_ok and report.drift_ok and report.vol_ok is False

    def test_zero_coefficients_satisfied(self):
        K = ConeSpec.nonnegative(4)
        report = invariance_verdict(CoefficientSet(ZeroMap(4)), K, SMALL)
        assert report.satisfied

    def test_deterministic_reports(self, cone16, badvol_coeffs):
        a = invariance_verdict(badvol_coeffs, cone16, SamplerSpec(seed=9))
        b = invariance_verdict(badvol_coeffs, cone16, SamplerSpec(seed=9))
        assert a.to_dict() == b.to_dict()

    def test_dims_must_agree(self, compliant_coeffs):
        with pytest.raises(ShapeError, match="dims disagree: cone 4, coefficients 16"):
            invariance_verdict(compliant_coeffs, ConeSpec.nonnegative(4), SMALL)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, 0.0, True, "1e-9"])
    @pytest.mark.parametrize(
        "check",
        [check_jump_condition, check_drift_condition, check_volatility_condition,
         invariance_verdict],
        ids=["jump", "drift", "vol", "verdict"],
    )
    def test_tolerance_must_be_finite_and_positive(self, check, tol):
        # a NaN or infinite tol hides every witness and a negative one
        # turns zero-size margins into witnesses: no plan holds one, and a
        # checker takes its tolerance from the plan alone
        with pytest.raises(DomainError, match="^tol must be"):
            SamplerSpec(tol=tol)
        assert "tol" not in inspect.signature(check).parameters

    @pytest.mark.parametrize(
        "check",
        [
            check_jump_condition,
            check_drift_condition,
            check_volatility_condition,
            invariance_verdict,
        ],
        ids=["jump", "drift", "vol", "verdict"],
    )
    def test_checkers_reject_a_set_of_another_dim(self, check):
        # a dim-3 set on a dim-5 cone: no checker may pass it, index past
        # its maps or read its first coordinates only
        C = CoefficientSet(ZeroMap(3), (ProportionalMap(0.3, 0, 3),), ((1.0, ZeroMap(3)),))
        with pytest.raises(ShapeError, match="dims disagree: cone 5, coefficients 3"):
            check(C, ConeSpec.nonnegative(5), SMALL)

    def test_retraction_keeps_verdict(self, cone16, compliant_coeffs):
        # Composing every map with the radial retraction moves face
        # points along their own ray, so a satisfied verdict persists.
        retracted = CoefficientSet(
            RetractedMap(compliant_coeffs.drift, 2.0),
            tuple(RetractedMap(c, 2.0) for c in compliant_coeffs.vol_columns),
            tuple((w, RetractedMap(g, 2.0)) for w, g in compliant_coeffs.jump_atoms),
        )
        report = invariance_verdict(retracted, cone16, SMALL)
        assert report.satisfied

    def test_jump_pairings_nonnegative_at_faces(self, cone16, compliant_coeffs):
        # A passing jump condition forces theta * gamma_k >= 0 on faces.
        tol = default_tol(compliant_coeffs)
        for theta, k, H in sample_boundary_pairs(cone16, SMALL):
            for row in H:
                for _, g in compliant_coeffs.jump_atoms:
                    assert theta * g.eval_array(row)[k] >= -tol


def reference_verdict(coeffs, cone, sampler):
    """The three checkers evaluated one state at a time with the
    single-state formulas, as reference for the block evaluation."""
    tol = default_tol(coeffs) if sampler.tol is None else sampler.tol
    witnesses = []
    points = cone_sample(cone, sampler)
    idx = cone.constrained
    for row in points:
        for i, (_, g) in enumerate(coeffs.jump_atoms):
            margins = cone.signs[idx] * (row + g.eval_array(row))[idx]
            for pos in np.flatnonzero(margins < -tol):
                k = int(idx[pos])
                w = Witness("jump-stays-in-cone", int(cone.signs[k]), k, row,
                            float(-margins[pos]), i)
                witnesses.append(w)
    pairs = [(t, k, row) for t, k, H in sample_boundary_pairs(cone, sampler) for row in H]
    for theta, k, row in pairs:
        a = 0.0 if row[k] == 0.0 else np.inf
        drift_k = theta * coeffs.drift.eval_array(row)[k]
        comp_k = 0.0
        for w, g in coeffs.jump_atoms:
            comp_k += w * theta * g.eval_array(row)[k]
        main = a + drift_k - comp_k
        if main < -tol:
            witnesses.append(Witness("drift-inward", theta, k, row, float(-main)))
        for j, col in enumerate(coeffs.vol_columns):
            val = theta * col.eval_array(row)[k]
            if abs(val) > tol:
                witnesses.append(Witness("vol-parallel", theta, k, row, float(abs(val)), j))
    return ConditionReport(
        checked=("jump-stays-in-cone", "drift-inward", "vol-parallel"),
        witnesses=tuple(witnesses),
        sampled_points=len(points) + 2 * len(pairs),
        tol=tol,
    )


def _mixed_cone_case():
    # theta = -1 on coordinate 1, coordinate 2 free; every condition fails
    K = ConeSpec(np.array([1, -1, 0, 1]))
    A = np.array(
        [[0.5, -1.0, 0.2, 0.0], [0.3, -0.2, 0.0, 0.4], [1.0, 1.0, 1.0, 1.0], [-0.6, 0.0, 0.1, 0.2]]
    )
    drift = AffineMap(A, np.array([0.2, 0.3, 0.0, -0.1]))
    vols = (
        ProportionalMap(0.4, 0, 4),
        ProportionalMap(-0.2, 1, 4),
        ConstantMap(np.array([0.0, 0.0, 1.0, 0.0])),
        ConstantMap(np.array([0.0, 0.05, 0.0, 0.0])),
        AffineMap(0.1 * A.T, np.zeros(4)),
    )
    jumps = ((0.5, AffineMap(-0.5 * np.eye(4), np.array([-0.1, 0.1, 0.3, 0.0]))),)
    return CoefficientSet(drift, vols, jumps), K


def _wrapped_case():
    # constant and zero maps return (N,) and broadcast; callables and
    # retractions evaluate row by row
    K = ConeSpec.nonnegative(3)
    A = np.array([[0.0, 1.0, -1.0], [0.5, 0.0, 0.5], [-1.0, 0.2, 0.0]])
    drift = CallableMap(lambda h: h[::-1] - 0.5, 3)
    vols = (
        ZeroMap(3),
        ConstantMap(np.array([0.0, 0.2, 0.0])),
        RetractedMap(AffineMap(A, np.zeros(3)), 1.0),
        CallableMap(lambda h: 0.1 * h, 3),
    )
    jumps = (
        (0.3, ConstantMap(np.array([-0.05, 0.0, 0.1]))),
        (1.5, ZeroMap(3)),
        (0.7, RetractedMap(CallableMap(lambda h: -1.5 * h, 3), 1.0)),
    )
    return CoefficientSet(drift, vols, jumps), K


def _jump_case():
    K = ConeSpec.nonnegative(3)
    gamma = AffineMap(np.diag([-2.0, -1.5, -3.0]), np.zeros(3))
    return CoefficientSet(ZeroMap(3), (), ((1.0, gamma),)), K


def _drift_case():
    K = ConeSpec.nonnegative(4)
    drift = AffineMap(-np.ones((4, 4)), np.full(4, 0.5))
    gamma = ConstantMap(np.array([1.0, 0.0, 0.0, 0.0]))
    return CoefficientSet(drift, (), ((0.5, gamma),)), K


def _three_atom_drift_case():
    # inexact weights and atom values: summing the compensator in
    # another order moves some witness magnitudes in their last bits
    K = ConeSpec.nonnegative(4)
    drift = AffineMap(np.array([[0.3, 0.1, -0.7, 0.2]] * 4), np.full(4, 0.1))
    atoms = tuple(
        (w, AffineMap(c * np.eye(4)[::-1], np.full(4, 0.3)))
        for w, c in ((0.1, 0.7), (0.2, 1.1), (0.7, 0.3))
    )
    return CoefficientSet(drift, (), atoms), K


PARITY_SPEC = SamplerSpec(points_per_face=16, interior_points=16, seed=3)


class TestCheckerParity:
    @pytest.mark.parametrize("name", ["heat-positive", "heat-positive-badvol", "heat-positive-hidden"])
    def test_presets(self, name):
        ec = ExperimentConfig.from_dict(preset_document(name))
        args = (ec.coeffs, ec.cone, ec.sampler)
        assert invariance_verdict(*args).to_dict() == reference_verdict(*args).to_dict()

    @pytest.mark.parametrize(
        "case, failing",
        [
            (_jump_case, {"jump-stays-in-cone"}),
            (_drift_case, {"drift-inward"}),
            (_three_atom_drift_case, {"drift-inward"}),
            (_mixed_cone_case, {"jump-stays-in-cone", "drift-inward", "vol-parallel"}),
            (_wrapped_case, {"jump-stays-in-cone", "drift-inward", "vol-parallel"}),
        ],
        ids=["jump", "drift", "drift_three_atoms", "mixed_cone", "wrapped"],
    )
    def test_violating_sets(self, case, failing):
        coeffs, cone = case()
        want = reference_verdict(coeffs, cone, PARITY_SPEC).to_dict()
        assert {w["condition"] for w in want["witnesses"]} == failing
        assert invariance_verdict(coeffs, cone, PARITY_SPEC).to_dict() == want

    @pytest.mark.parametrize(
        "check",
        [check_jump_condition, check_drift_condition, check_volatility_condition,
         invariance_verdict],
        ids=["jump", "drift", "vol", "verdict"],
    )
    def test_checkers_judge_up_to_the_plans_tolerance(self, check):
        # each entry point reads sampler.tol, default_tol for a plan
        # without one: at 0.09 every condition of the mixed case keeps
        # some of its default witnesses and drops others
        coeffs, cone = _mixed_cone_case()
        assert check(coeffs, cone, PARITY_SPEC).tol == default_tol(coeffs)
        plan = dataclasses.replace(PARITY_SPEC, tol=0.09)
        report = check(coeffs, cone, plan)
        assert report.tol == 0.09

        def mine(spec):
            found = reference_verdict(coeffs, cone, spec).witnesses
            return [w.to_dict() for w in found if w.condition in report.checked]

        assert [w.to_dict() for w in report.witnesses] == mine(plan)
        assert 0 < len(mine(plan)) < len(mine(PARITY_SPEC))

    def test_jump_row_blocks_match_reference(self):
        # interior draws over two parts of the jump checker, faces in one
        # part each, with violations in every part
        coeffs, cone = _jump_case()
        spec = SamplerSpec(points_per_face=700, interior_points=2100, seed=4)
        sizes = [p.shape[0] for p in sample_cone_points(cone, spec)]
        assert sizes == [coefficients._JUMP_ROWS] * 2 + [52, 700, 700, 700, 4]
        want = reference_verdict(coeffs, cone, spec).to_dict()
        assert invariance_verdict(coeffs, cone, spec).to_dict() == want

    def test_mixed_cone_sees_both_signs(self):
        coeffs, cone = _mixed_cone_case()
        report = invariance_verdict(coeffs, cone, PARITY_SPEC)
        assert {w.theta for w in report.witnesses} == {1, -1}


class TestReportContract:
    def _witness(self, mag=1.0):
        return Witness(
            condition="vol-parallel",
            theta=1,
            k=0,
            point=np.zeros(2),
            magnitude=mag,
            component=0,
        )

    def test_witness_needs_checked_condition(self):
        with pytest.raises(SamplerContractError, match="unchecked condition vol-parallel"):
            ConditionReport(
                checked=("jump-stays-in-cone", "drift-inward"),
                witnesses=(self._witness(),), sampled_points=1, tol=1e-9,
            )

    def test_witness_magnitude_above_tol(self):
        with pytest.raises(SamplerContractError):
            ConditionReport(
                checked=("vol-parallel",),
                witnesses=(self._witness(mag=1e-12),), sampled_points=1, tol=1e-9,
            )

    def test_witnesses_sorted_canonically(self):
        a = Witness("vol-parallel", 1, 2, np.zeros(3), 0.5, 1)
        b = Witness("vol-parallel", 1, 0, np.zeros(3), 0.7, 0)
        report = ConditionReport(
            checked=("vol-parallel",),
            witnesses=(a, b), sampled_points=2, tol=1e-9,
        )
        assert report.witnesses[0].k == 0 and report.witnesses[1].k == 2

    def test_partial_flags_none_counts_as_satisfied(self):
        report = ConditionReport(
            checked=("jump-stays-in-cone",),
            witnesses=(), sampled_points=3, tol=1e-9,
        )
        assert report.jump_ok is True and report.drift_ok is None and report.vol_ok is None
        assert report.satisfied

    def test_to_dict_shape(self):
        report = ConditionReport(
            checked=("vol-parallel",),
            witnesses=(self._witness(),), sampled_points=1, tol=1e-9,
        )
        doc = report.to_dict()
        assert doc["verdict"] == "VIOLATED (witness found)"
        assert (doc["jump_ok"], doc["drift_ok"], doc["vol_ok"]) == (None, None, False)
        assert doc["witnesses"][0]["condition"] == "vol-parallel"


class TestConcurrentVerdict:
    # With the fork threshold at 0, a verdict runs each of its last W - 1
    # checks in a forked worker, W = min(CPUs, 3), and the rest here; the
    # CPUs it may use are set here through os.sched_getaffinity.

    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def forking(monkeypatch, cpus, forks_allowed=None):
        """Fork from any sample size on ``cpus`` CPUs; the returned list
        gets each worker's pid, and a fork past ``forks_allowed`` fails."""
        monkeypatch.setattr(coefficients, "_FORK_ENTRIES", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        forks = []
        real_fork = os.fork

        def fork():
            if forks_allowed is not None and len(forks) >= forks_allowed:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return forks

    @pytest.mark.parametrize(
        "cpus, forks_allowed, want_forks",
        [(1, None, 0), (2, None, 1), (3, None, 2), (3, 0, 0), (3, 1, 1)],
        ids=["1-cpu", "2-cpus", "3-cpus", "3-cpus-no-fork", "3-cpus-one-fork"],
    )
    def test_reports_are_the_serial_ones(self, monkeypatch, cpus, forks_allowed, want_forks):
        # every condition fails on this set; witnesses, their order and
        # the sample count are the serial verdict's, also when a worker
        # cannot be started and its check runs here
        coeffs, cone = _mixed_cone_case()
        want = invariance_verdict(coeffs, cone, PARITY_SPEC)
        assert {w.condition for w in want.witnesses} >= {"drift-inward", "vol-parallel"}
        forks = self.forking(monkeypatch, cpus, forks_allowed)
        got = invariance_verdict(coeffs, cone, PARITY_SPEC)
        assert len(forks) == want_forks
        assert got.to_dict() == want.to_dict()
        assert [w.to_dict() for w in got.witnesses] == [w.to_dict() for w in want.witnesses]
        assert got.sampled_points == want.sampled_points
        assert not any(w.point.flags.writeable for w in got.witnesses)

    @pytest.mark.parametrize(
        "cpus, forks_allowed", [(2, None), (3, None), (3, 1)],
        ids=["2-cpus", "3-cpus", "3-cpus-one-fork"],
    )
    def test_drift_error_wins_over_volatility_error(self, monkeypatch, cpus, forks_allowed):
        # drift and a volatility column are both NaN: the serial run
        # raises the drift's error, whichever process checks each
        C = CoefficientSet(NAN_ALL, (NAN_ALL,))
        K = ConeSpec.nonnegative(3)
        message = re.escape("drift-inward: drift is not finite on face k=0")
        with pytest.raises(NumericError, match=message):
            invariance_verdict(C, K, SMALL)
        self.forking(monkeypatch, cpus, forks_allowed)
        with pytest.raises(NumericError, match=message):
            invariance_verdict(C, K, SMALL)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        # only the volatility check, in the worker, fails
        C = CoefficientSet(ZeroMap(3), (NAN_ALL,))
        forks = self.forking(monkeypatch, 2)
        with pytest.raises(NumericError) as info:
            invariance_verdict(C, ConeSpec.nonnegative(3), SMALL)
        assert type(info.value) is NumericError
        assert str(info.value) == "vol-parallel: volatility column 0 is not finite on face k=0"
        assert len(forks) == 1

    def test_unpicklable_worker_error_is_a_package_error(self, monkeypatch):
        # SearchRadiusError's __init__ takes two arguments, so a pickle of
        # it does not load; the error names the check it came from
        def edge(h):
            raise SearchRadiusError("column hit the edge", 2.0)

        C = CoefficientSet(ZeroMap(3), (CallableMap(edge, 3),))
        self.forking(monkeypatch, 2)
        with pytest.raises(ConeSpdeError) as info:
            invariance_verdict(C, ConeSpec.nonnegative(3), SMALL)
        assert type(info.value) is ConeSpdeError
        assert str(info.value) == "vol-parallel check: SearchRadiusError: column hit the edge"


def _perfbench_smoke_configs() -> dict[str, dict]:
    """The config documents of the benchmark's workloads at their smoke
    sizes, by workload name."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    workloads = runpy.run_path(str(path))
    built = {name: workloads["build"](name, 0, smoke=True) for name in workloads["NAMES"]}
    return {f"{name}-smoke": wl.config for name, wl in built.items() if wl.config is not None}


SMALL_DOCUMENTS = {
    **{name: preset_document(name) for name in PRESET_NAMES},
    **_perfbench_smoke_configs(),
}


@pytest.mark.parametrize("name", SMALL_DOCUMENTS)
def test_small_verdicts_fork_nothing(monkeypatch, name):
    # every preset and smoke-size sample is below the fork threshold, so
    # the verdict draws each face twice in this process, as the
    # benchmark's traced smoke test counts
    def fork():
        raise AssertionError("a verdict below the threshold forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
    monkeypatch.setattr(os, "fork", fork)
    ec = ExperimentConfig.from_dict(SMALL_DOCUMENTS[name])
    invariance_verdict(ec.coeffs, ec.cone, ec.sampler)


def _nan_where(test, coords, dim=3, value=np.nan):
    """A dim-``dim`` callable map that is ``value`` at ``coords`` on the
    states where ``test`` holds, and zero elsewhere."""
    hit = np.zeros(dim)
    hit[list(coords)] = value
    return CallableMap(lambda h: hit if test(h) else np.zeros(dim), dim)


def _at_e0(h):
    # the corner e_0 of the nonnegative orthant; a draw is 1.0 with probability 0
    return h[0] == 1.0 and not h[1:].any()


def _face1_draw(h):
    # a draw on face 1: h_1 pinned to 0, h_0 neither 0 nor 1
    return h[1] == 0.0 and h[0] not in (0.0, 1.0)


class TestCornerSet:
    # the boundary checkers evaluate every map once on the corner set
    # (the origin and the constrained unit vectors) and read face k's
    # corners from column k, skipping the row of e_k itself; reports,
    # witnesses and errors are those of whole face blocks

    @staticmethod
    def _corner_only_case():
        # each map is nonzero only where a gate coordinate is exactly 1
        # or -1, which of all sampled states only a corner reaches
        K = ConeSpec(np.array([1, -1, 0, 1]))
        drift = GatedOffsetMap(np.array([-1.0, 1.0, 0.5, -1.0]), 0, 1.0, 1.0)
        vols = (GatedOffsetMap(np.array([0.3, 0.2, 0.7, 0.1]), 1, -1.0, -1.0),)
        jumps = ((0.5, GatedOffsetMap(np.array([-2.0, 2.0, 0.0, -2.0]), 3, 1.0, 1.0)),)
        return CoefficientSet(drift, vols, jumps), K

    @pytest.mark.parametrize("corners", [True, False])
    def test_violated_only_at_corners(self, corners):
        coeffs, cone = self._corner_only_case()
        spec = dataclasses.replace(PARITY_SPEC, include_corners=corners)
        report = invariance_verdict(coeffs, cone, spec)
        assert report.to_dict() == reference_verdict(coeffs, cone, spec).to_dict()
        assert report.satisfied is not corners
        conditions = {w.condition for w in report.witnesses}
        assert conditions == ({"jump-stays-in-cone", "drift-inward", "vol-parallel"} if corners else set())
        # every witness is the origin or a unit vector, never on its own axis
        for w in report.witnesses:
            assert np.count_nonzero(w.point) <= 1
            assert w.point[w.k] == 0.0 or w.condition == "jump-stays-in-cone"

    CASES = {
        # NaN at e_0, a corner of faces 1 and 2 but not of face 0
        "drift-at-e0": ((_nan_where(_at_e0, (0, 1, 2)), (), ()), "drift-inward: drift", 1),
        "vol-at-e0": ((ZeroMap(3), (_nan_where(_at_e0, (0, 1, 2)),), ()),
                      "vol-parallel: volatility column 0", 1),
        "atom-at-e0": ((ZeroMap(3), (), ((1.0, _nan_where(_at_e0, (1,))),)),
                       "drift-inward: jump atom 0", 1),
        # w * gamma = 1e309 at e_0 alone: the margin overflows at a corner
        "margin-at-e0": ((ZeroMap(3), (), ((10.0, _nan_where(_at_e0, (1, 2), value=1e308)),)),
                         "drift-inward: drift minus jump compensator", 1),
        # a draw and a corner of face 1: parts are tested in order, each
        # on the draws and the corners together
        "vol-draw-then-corner": (
            (ZeroMap(3), (ZeroMap(3), _nan_where(_face1_draw, (1,)), _nan_where(_at_e0, (1,))), ()),
            "vol-parallel: volatility column 1", 1),
        "vol-corner-then-draw": (
            (ZeroMap(3), (ZeroMap(3), _nan_where(_at_e0, (1,)), _nan_where(_face1_draw, (1,))), ()),
            "vol-parallel: volatility column 1", 1),
        "drift-draw-atom-corner": (
            (_nan_where(_face1_draw, (1,)), (), ((1.0, _nan_where(_at_e0, (1,))),)),
            "drift-inward: drift", 1),
        "drift-corner-atom-draw": (
            (_nan_where(_at_e0, (1,)), (), ((1.0, _nan_where(_face1_draw, (1,))),)),
            "drift-inward: drift", 1),
        "atoms-corner-then-draw": (
            (ZeroMap(3), (), ((1.0, _nan_where(_at_e0, (1,))), (1.0, _nan_where(_face1_draw, (1,))))),
            "drift-inward: jump atom 0", 1),
        "atoms-draw-then-corner": (
            (ZeroMap(3), (), ((1.0, _nan_where(_face1_draw, (1,))), (1.0, _nan_where(_at_e0, (1,))))),
            "drift-inward: jump atom 0", 1),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_non_finite_at_a_corner(self, case):
        maps, part, k = self.CASES[case]
        check = check_drift_condition if part.startswith("drift") else check_volatility_condition
        with pytest.raises(NumericError, match=f"^{re.escape(part)} is not finite on face k={k}$"):
            check(CoefficientSet(*maps), ConeSpec.nonnegative(3), SMALL)

    def test_own_axis_is_not_read(self):
        # NaN only in coordinate 0 at e_0: no face reads it, since e_0 is
        # not a corner of face 0
        nan = _nan_where(_at_e0, (0,))
        coeffs = CoefficientSet(nan, (nan,), ((1.0, nan),))
        K = ConeSpec.nonnegative(3)
        assert check_drift_condition(coeffs, K, SMALL).drift_ok
        assert check_volatility_condition(coeffs, K, SMALL).vol_ok

    @pytest.mark.parametrize(
        "fold",
        [
            lambda cone, z: z.copy(),  # left outside the cone
            lambda cone, z: np.where(cone.signs < 0, -np.inf, np.inf) + 0.0 * z,  # not finite
        ],
        ids=["unfolded", "infinite"],
    )
    @pytest.mark.parametrize("check", [check_drift_condition, check_volatility_condition],
                             ids=["drift", "vol"])
    def test_bad_corners_leave_the_face(self, monkeypatch, fold, check):
        # the bad corners of test_contract_violation_raises, with the face
        # draws left good: the corners alone break the contract at face 0
        corners = coefficients._corners
        monkeypatch.setattr(
            coefficients, "_corners", lambda cone, idx, rows: fold(cone, -corners(cone, idx, rows))
        )
        K = ConeSpec(np.array([1, -1, 0]))
        C = CoefficientSet(ZeroMap(3), (ZeroMap(3),), ((1.0, ZeroMap(3)),))
        with pytest.raises(SamplerContractError, match="^face sampler left the face at k=0$"):
            check(C, K, SMALL)

    @pytest.mark.parametrize("check", [check_drift_condition, check_volatility_condition],
                             ids=["drift", "vol"])
    def test_bad_corner_of_a_later_face(self, monkeypatch, check):
        # only e_0 leaves the cone, and it is no corner of face 0
        corners = coefficients._corners

        def bad_e0(cone, idx, rows):
            out = corners(cone, idx, rows)
            out[out[:, 0] != 0.0] *= -1.0
            return out

        monkeypatch.setattr(coefficients, "_corners", bad_e0)
        K = ConeSpec(np.array([1, -1, 0]))
        C = CoefficientSet(ZeroMap(3), (ZeroMap(3),), ((1.0, ZeroMap(3)),))
        with pytest.raises(SamplerContractError, match="^face sampler left the face at k=1$"):
            check(C, K, SMALL)
