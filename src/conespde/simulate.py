"""Path simulation for the jump-diffusion dynamics.

The scheme is exponential Euler: one step over ``dt`` evaluates all
coefficients at the current state, adds the scaled Gaussian and
compensated Poisson increments, and then applies the exact linear
flow:

    acc   = r + dt drift(r) + sum_j vol_j(r) sqrt(lam_j dt) xi_j
                          + sum_i jump_i(r) (count_i - w_i dt)
    r_new = exp(-c dt) * acc

``kernels.step_ensemble`` steps every coefficient set, vectorized
over the paths of a chunk; it evaluates each map on the whole batch,
on the map's output support only, through
``CoefficientMap.eval_coords``, the evaluator the condition checkers
use as well.  Chunks of ``_CHUNK`` = 256 paths run one after another
in a single thread; the width is a module constant, not an option,
because a chunk holds its whole ``(chunk, steps, columns)`` noise.

Monitoring is structural, not pathwise-absorbing: every path records
its minimum signed cone margin, the first step index at which the
margin dropped below ``-exit_tol`` (0 means the initial state), and
the first step at which the sup norm blew past the overflow guard.
Diverged paths freeze at their last finite state and keep their
statistics.

Reproducibility contract: path ``p`` of a run with master seed ``s``
draws from ``default_rng(SeedSequence(s, spawn_key=(p,)))``, normals
first, arrival counts second.  Ensembles are therefore independent of
chunking, and any single path can be regenerated in isolation:
``run_ensemble`` with ``paths=1`` and ``first_path=p`` returns path
``p``'s row, and its ``diverged`` entry records an overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .coefficients import CoefficientSet
from .errors import ConfigError, DomainError, ShapeError
from .kernels import StepPlan, step_ensemble
from .semigroup import DiagonalSemigroup, LiminfGrid
from .space import ConeSpec, StateVec, cone_contains, cone_distance

__all__ = [
    "NoiseSpec",
    "SimConfig",
    "PathEnsemble",
    "run_ensemble",
    "StabilityResult",
    "stability_experiment",
    "ssnc_estimate",
]

_CHUNK = 256  # paths stepped together; results do not depend on it


@dataclass(frozen=True)
class NoiseSpec:
    """Driving noise: Q-Wiener eigenvalues per column plus master seed.

    ``eigenvalues[j]`` scales column ``j`` of the volatility; the trace
    ``sum(eigenvalues)`` is the total instantaneous noise intensity.
    """

    eigenvalues: tuple[float, ...]
    seed: int = 0

    def __post_init__(self):
        # finite, too: the kernel skips 0 * sqrt(lam dt) xi off a column's
        # support, which is not 0 when lam is infinite
        if any(not (lam > 0 and np.isfinite(lam)) for lam in self.eigenvalues):
            raise DomainError("noise eigenvalues must all be finite and > 0")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")

    @classmethod
    def dyadic(cls, count: int, seed: int = 0) -> "NoiseSpec":
        """Summable default: ``lam_j = 2^-j`` for ``j = 1..count``."""
        return cls(tuple(2.0 ** (-j) for j in range(1, count + 1)), seed)

    @classmethod
    def flat(cls, count: int, value: float = 1.0, seed: int = 0) -> "NoiseSpec":
        """Equal weight on every column (finitely many, so still trace class)."""
        return cls((float(value),) * count, seed)

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    @property
    def trace(self) -> float:
        return float(sum(self.eigenvalues))


@dataclass(frozen=True)
class SimConfig:
    """Stepping parameters shared by every path of a run."""

    dt: float
    horizon: float
    paths: int
    exit_tol: float = 1e-8
    guard: float = 1e12
    store_trajectories: bool = False

    def __post_init__(self):
        for name in ("dt", "horizon", "exit_tol", "guard"):
            if not np.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0 or self.horizon <= 0:
            raise DomainError("dt and horizon must be > 0")
        if self.paths < 1:
            raise DomainError("paths must be >= 1")
        if self.exit_tol < 0 or self.guard <= 0:
            raise DomainError("exit_tol must be >= 0 and guard > 0")
        s = round(self.horizon / self.dt)
        if s < 1 or abs(s * self.dt - self.horizon) > 1e-9 * max(1.0, self.horizon):
            raise ConfigError(
                f"horizon {self.horizon} is not an integer number of steps of dt {self.dt}"
            )

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass
class PathEnsemble:
    """Simulation output; arrays are indexed by path.

    ``first_exit`` and ``diverged`` hold step indices (0 = initial
    state, -1 = never).  ``seeds`` are per-path generator labels so any
    path can be tied back to its noise stream.
    """

    final: np.ndarray
    min_margin: np.ndarray
    first_exit: np.ndarray
    diverged: np.ndarray
    seeds: np.ndarray
    dt: float
    steps: int
    trajectories: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_paths(self) -> int:
        return self.final.shape[0]

    @property
    def exited(self) -> np.ndarray:
        return self.first_exit >= 0

    @property
    def exit_fraction(self) -> float:
        return float(np.mean(self.exited))

    def exit_times(self) -> np.ndarray:
        """Exit step scaled to time; NaN where the path never exited."""
        t = self.first_exit.astype(np.float64) * self.dt
        t[self.first_exit < 0] = np.nan
        return t


def _path_stream(master_seed: int, p: int):
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(p,))
    return np.random.default_rng(ss), np.uint64(ss.generate_state(1, np.uint64)[0])


def _draw_noise(rng, steps: int, n_vols: int, atom_wdt: np.ndarray):
    """Per-path draws, fixed order: normals first, then counts."""
    normals = rng.standard_normal((steps, n_vols))
    counts = rng.poisson(lam=atom_wdt, size=(steps, len(atom_wdt))).astype(np.int64)
    return normals, counts


def _validate_setup(
    coeffs: CoefficientSet,
    semigroup: DiagonalSemigroup,
    noise: NoiseSpec,
    cone: ConeSpec,
    h0: StateVec,
) -> None:
    dim = coeffs.dim
    if len(semigroup.rates) != dim:
        raise ShapeError(f"semigroup dimension {len(semigroup.rates)} != coefficients {dim}")
    if cone.dim != dim or h0.dim != dim:
        raise ShapeError("cone / initial state dimension mismatch")
    if noise.count != len(coeffs.vol_columns):
        raise ShapeError(
            f"noise has {noise.count} eigenvalues for {len(coeffs.vol_columns)} volatility columns"
        )


def run_ensemble(
    coeffs: CoefficientSet,
    semigroup: DiagonalSemigroup,
    noise: NoiseSpec,
    cone: ConeSpec,
    config: SimConfig,
    h0: StateVec,
    first_path: int = 0,
) -> PathEnsemble:
    """Simulate ``config.paths`` independent paths from ``h0``.

    ``first_path`` offsets the path indices (and so the noise streams),
    which is how a slice of a larger ensemble is reproduced exactly.
    """
    _validate_setup(coeffs, semigroup, noise, cone, h0)
    dim = coeffs.dim
    S = config.steps
    P = config.paths

    # Both names are the same function.  Built-in sets call it as
    # simulate.step_ensemble, the call site perfbench/tracing.py wraps to
    # time the kernel layer; perfbench/test_perfbench.py pins that only
    # the verify-sweep workload reaches it.
    step = step_ensemble if coeffs.uses_only_builtin_maps() else kernels.step_ensemble
    sp = StepPlan.build(coeffs, semigroup, noise, cone, config)

    final = np.zeros((P, dim))
    runmin = np.zeros(P)
    first_exit = np.zeros(P, dtype=np.int64)
    diverged = np.zeros(P, dtype=np.int64)
    seeds = np.zeros(P, dtype=np.uint64)
    traj = np.zeros((P, S + 1, dim)) if config.store_trajectories else None

    for lo in range(0, P, _CHUNK):
        hi = min(lo + _CHUNK, P)
        n = hi - lo
        normals = np.zeros((n, S, noise.count))
        counts = np.zeros((n, S, len(sp.atoms)), dtype=np.int64)
        for k in range(n):
            rng, label = _path_stream(noise.seed, first_path + lo + k)
            normals[k], counts[k] = _draw_noise(rng, S, noise.count, sp.atom_wdt)
            seeds[lo + k] = label
        r0 = np.broadcast_to(h0.coords, (n, dim)).copy()
        out = step(sp, r0, normals, counts, config.store_trajectories)
        final[lo:hi] = out["final"]
        runmin[lo:hi] = out["min_margin"]
        first_exit[lo:hi] = out["first_exit"]
        diverged[lo:hi] = out["diverged"]
        if traj is not None:
            traj[lo:hi] = out["traj"]
        # Release this chunk's noise before the next one is drawn, so
        # peak memory holds one chunk, not two.
        del normals, counts, out

    return PathEnsemble(
        final=final,
        min_margin=runmin,
        first_exit=first_exit,
        diverged=diverged,
        seeds=seeds,
        dt=config.dt,
        steps=S,
        trajectories=traj,
    )


@dataclass(frozen=True)
class StabilityResult:
    """Coupled distance between two coefficient sets under shared noise.

    ``mean`` estimates the expected squared sup-norm distance over the
    horizon for entry ``index`` of the approximating sequence;
    ``stderr`` is its Monte Carlo standard error.
    """

    index: int
    mean: float
    stderr: float
    per_path: np.ndarray
    steps: int
    dt: float


def stability_experiment(
    semigroup: DiagonalSemigroup,
    limit: CoefficientSet,
    seq: list[CoefficientSet],
    noise: NoiseSpec,
    cone: ConeSpec,
    config: SimConfig,
    h0: StateVec,
) -> list[StabilityResult]:
    """Estimate ``E sup_t ||r_t - r^n_t||^2`` for each entry of ``seq``.

    The limiting system and every approximation consume identical noise
    draws (same master seed, same path indices), so an entry equal to
    ``limit`` scores exactly zero.  The sup runs over every stored step
    including the initial state.  The limiting system is simulated
    once, and not at all for an empty ``seq``.
    """
    for n, other in enumerate(seq):
        if other.dim != limit.dim:
            raise ShapeError(f"sequence entry {n} dimension differs from the limit")
    if not seq:
        return []
    stored = replace(config, store_trajectories=True)
    base = run_ensemble(limit, semigroup, noise, cone, stored, h0).trajectories
    results = []
    for n, other in enumerate(seq):
        diff = base - run_ensemble(other, semigroup, noise, cone, stored, h0).trajectories
        sup_sq = np.max(np.sum(diff * diff, axis=2), axis=1)
        mean = float(np.mean(sup_sq))
        stderr = (
            float(np.std(sup_sq, ddof=1) / np.sqrt(len(sup_sq)))
            if len(sup_sq) > 1
            else 0.0
        )
        results.append(
            StabilityResult(
                index=n,
                mean=mean,
                stderr=stderr,
                per_path=sup_sq,
                steps=config.steps,
                dt=config.dt,
            )
        )
    return results


def ssnc_estimate(
    semigroup: DiagonalSemigroup,
    sigma_map,
    cone: ConeSpec,
    h: StateVec,
    grid: LiminfGrid = LiminfGrid(),
) -> float:
    """Short-time cone compatibility of a vector field at ``h``.

    Returns ``min over the grid of d_K(S_t h + t Sigma(h)) / t``, an
    estimate of the liminf as t drops to 0.  Near zero it is consistent
    with the flow ``Sigma`` nudging the state back into the cone; a
    value bounded away from zero witnesses an outward push.  ``h`` must
    lie in the cone, where the semigroup alone contributes nothing.
    """
    if not cone_contains(cone, h, tol=1e-12):
        raise DomainError("state must lie in the cone")
    value = sigma_map(h) if not isinstance(sigma_map, np.ndarray) else sigma_map
    vec = value.coords if isinstance(value, StateVec) else np.asarray(value, dtype=np.float64)
    if vec.shape != (h.dim,):
        raise ShapeError("Sigma must produce a vector of the state dimension")
    best = np.inf
    for t in grid.times():
        moved = semigroup.apply(float(t), h).coords + t * vec
        best = min(best, cone_distance(cone, StateVec(moved)) / float(t))
    return float(best)
