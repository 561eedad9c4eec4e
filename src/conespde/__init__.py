"""Cone invariance toolkit for jump-diffusion dynamics on sequence space.

The package splits along the structure of the problem: ``space`` holds
states, cones, and the metric geometry; ``semigroup`` the diagonal
linear flow and its boundary behavior; ``coefficients`` the drift /
volatility / jump maps and the sampled invariance checkers; ``approx``
the regularization operators; ``simulate`` the exponential-Euler Monte
Carlo engine; ``config`` and ``cli`` the experiment plumbing.
"""

from .coefficients import (
    CoefficientSet,
    ConditionReport,
    SamplerSpec,
    Witness,
    check_drift_condition,
    check_jump_condition,
    check_volatility_condition,
    invariance_verdict,
    map_from_config,
)
from .config import ExperimentConfig, PRESET_NAMES, preset_document
from .errors import (
    ConeSpdeError,
    ConfigError,
    DomainError,
    NumericError,
    SamplerContractError,
    SearchRadiusError,
    ShapeError,
    UnsupportedDimensionError,
)
from .semigroup import DiagonalSemigroup
from .simulate import (
    NoiseSpec,
    PathEnsemble,
    SimConfig,
    run_ensemble,
    ssnc_estimate,
    stability_experiment,
)
from .space import (
    ConeSpec,
    cone_contains,
    retract,
)

__version__ = "0.1.0"
