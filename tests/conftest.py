"""Shared fixtures: the worked dim-16 system assembled from the public API.

The compliant setup is the reference system for most experiment-level
tests: heat rates c_k = k, nonnegative orthant, mean reversion toward
0.5, eight boundary-parallel proportional volatility columns, and one
small constant jump atom with weight 0.2.  The "badvol" variant adds a
constant volatility column that pushes across the first face.
"""

import numpy as np
import pytest

from conespde import ConeSpec, DiagonalSemigroup, NoiseSpec, SimConfig
from conespde.coefficients import (
    CoefficientSet,
    ConstantMap,
    MeanReversionMap,
    ProportionalMap,
)

DIM = 16

# Pass/fail lines recorded by the acceptance tests; printed as a
# terminal section so the verdicts survive output capturing.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def criterion():
    """Record one acceptance verdict line and assert it."""

    def _record(tag: str, ok: bool, detail: str = "") -> None:
        suffix = f"  [{detail}]" if detail else ""
        ACCEPTANCE_LINES.append(f"{tag}: {'PASS' if ok else 'FAIL'}{suffix}")
        assert ok, f"{tag} failed: {detail}"

    return _record


def make_compliant_coeffs() -> CoefficientSet:
    drift = MeanReversionMap(1.0, np.full(DIM, 0.5))
    vols = tuple(ProportionalMap(0.3, j, DIM) for j in range(8))
    jumps = ((0.2, ConstantMap(np.full(DIM, 0.1))),)
    return CoefficientSet(drift, vols, jumps)


def make_badvol_coeffs() -> CoefficientSet:
    base = make_compliant_coeffs()
    bad = np.zeros(DIM)
    bad[0] = 0.3
    return CoefficientSet(
        base.drift, base.vol_columns + (ConstantMap(bad),), base.jump_atoms
    )


@pytest.fixture(scope="session")
def heat16() -> DiagonalSemigroup:
    return DiagonalSemigroup.heat(DIM)


@pytest.fixture(scope="session")
def cone16() -> ConeSpec:
    return ConeSpec.nonnegative(DIM)


@pytest.fixture(scope="session")
def compliant_coeffs() -> CoefficientSet:
    return make_compliant_coeffs()


@pytest.fixture(scope="session")
def badvol_coeffs() -> CoefficientSet:
    return make_badvol_coeffs()


@pytest.fixture(scope="session")
def flat_noise8() -> NoiseSpec:
    return NoiseSpec.flat(8, 1.0)


@pytest.fixture
def quick_sim() -> SimConfig:
    """Small ensemble for structural tests; statistics tests size their own."""
    return SimConfig(dt=1e-3, horizon=0.05, paths=16)
