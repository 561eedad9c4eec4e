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
use as well.  Chunks of ``_CHUNK`` = 1024 paths run one after another
in a single thread.  Each chunk holds one time block of noise at a
time: its paths draw the next ``b`` steps into a buffer of about
``_NOISE_BYTES`` (8 MiB), the kernel advances the chunk's state through
them, and the buffer is reused for the next block.  So memory does not
grow with the horizon, and the width and the block length are module
constants, not options.

Whole trajectories are kept only when ``run_ensemble(..., store=True)``
asks for them, which only ``stability_experiment`` does; the commands
write per-path summaries and never store them.

Monitoring is structural, not pathwise-absorbing: every path records
its minimum signed cone margin, the first step index at which the
margin dropped below ``-exit_tol`` (0 means the initial state), and
the first step at which the sup norm blew past the overflow guard.
Diverged paths freeze at their last finite state and keep their
statistics.

Reproducibility contract (v2): path ``p`` of a run with master seed
``s`` draws its standard normals, step by step and column by column,
from ``default_rng(SeedSequence(s, spawn_key=(p,)))``, and, when the set
has jump atoms, its arrival counts, step by step and atom by atom, from
a second generator made from that sequence's first child
(``spawn_key=(p, 0)``).  Each stream is drawn in order, block after
block, so the chunk width and the block length change memory only,
never the output, and any single path can be regenerated in isolation:
``run_ensemble`` with ``paths=1`` and ``first_path=p`` returns path
``p``'s row, and its ``diverged`` entry records an overflow.  (The v1
contract drew the counts from the normals' generator after a whole
horizon of normals, which tied the numbers to holding the horizon.)

``run_sweep`` steps several step sizes ``f * dt`` on the same paths in
one pass over the draws at ``dt`` (coupled levels, as in Giles,
"Multilevel Monte Carlo path simulation", Oper. Res. 56, 2008).  A
level-``f`` step consumes ``f`` fine steps: its normal in column ``j``
is ``(xi_1 + ... + xi_f) / sqrt(f)``, added left to right and then
divided, and its count for atom ``i`` is the sum of the ``f`` fine
counts.  Blocks hold a whole number of every level's steps, and every
level advances through a block before the next block is drawn.  The
level with ``f = 1`` is ``run_ensemble``'s ensemble bit for bit:
``run_ensemble`` is the one-level case of the same engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .coefficients import CoefficientSet
from .errors import ConfigError, DomainError, ShapeError
from .kernels import KernelState, StepPlan, step_ensemble
from .semigroup import DiagonalSemigroup
from .space import ConeSpec, StateVec, cone_contains, cone_distance

__all__ = [
    "NoiseSpec",
    "SimConfig",
    "PathEnsemble",
    "run_ensemble",
    "run_sweep",
    "StabilityResult",
    "stability_experiment",
    "ssnc_estimate",
]

_CHUNK = 1024  # paths stepped together; results do not depend on it
_NOISE_BYTES = 8 << 20  # a chunk's block of fine draws; sets memory, not results
# ssnc_estimate's time grid, decreasing: t_m = 0.1 * 0.5^m for m = 0..39
_LIMINF_TIMES = 0.1 * 0.5 ** np.arange(40.0)


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


@dataclass(frozen=True)
class SimConfig:
    """Stepping parameters shared by every path of a run."""

    dt: float
    horizon: float
    paths: int
    exit_tol: float = 1e-8
    guard: float = 1e12

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


def _path_stream(master_seed: int, p: int):
    """Path ``p``'s generator for its normals, and its label."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(p,))
    return np.random.default_rng(ss), np.uint64(ss.generate_state(1, np.uint64)[0])


def _count_stream(master_seed: int, p: int):
    """Path ``p``'s generator for its arrival counts: the first child of
    its ``SeedSequence`` (spawn key ``(p, 0)``)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(p, 0)))


def _draw_noise(rng, count_rng, normals: np.ndarray, counts: np.ndarray, lam: np.ndarray) -> None:
    """Fill one path's next time block in place: ``normals`` (b, J) from
    ``rng``, ``counts`` (b, M) from ``count_rng``, step by step and atom
    by atom (Poisson means ``lam``).  Each stream is drawn in order, so
    blocks of any length give the numbers one whole draw would."""
    if normals.shape[1]:
        rng.standard_normal(normals.shape, out=normals)
    if len(lam) == 1:
        # a scalar mean skips the per-call validation of a mean array
        counts[:, 0] = count_rng.poisson(lam[0], counts.shape[0])
    elif len(lam):
        counts[...] = count_rng.poisson(lam, counts.shape)


def _block_steps(paths: int, width: int, unit: int) -> int:
    """Steps per noise block: as many as fit ``_NOISE_BYTES`` for
    ``paths`` paths of ``width`` draws per step, in whole multiples of
    ``unit`` (so every sweep level's steps end on a block boundary)."""
    steps = _NOISE_BYTES // (8 * paths * max(width, 1))
    return max(unit, steps - steps % unit)


def _coarsen(normals: np.ndarray, counts: np.ndarray, factor: int):
    """The noise of a step ``factor`` times as long, from a block of fine
    draws: each coarse normal is ``(xi_1 + ... + xi_f) / sqrt(f)``, summed
    left to right, and each coarse count is the sum of ``f`` fine counts."""
    if factor == 1:
        return normals, counts
    P, b = normals.shape[:2]
    xi = normals.reshape(P, b // factor, factor, -1)
    coarse = xi[:, :, 0].copy()
    for i in range(1, factor):
        coarse += xi[:, :, i]
    coarse /= np.sqrt(factor)
    return coarse, counts.reshape(P, b // factor, factor, -1).sum(axis=2)


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
    store: bool = False,
) -> PathEnsemble:
    """Simulate ``config.paths`` independent paths from ``h0``.

    ``first_path`` offsets the path indices (and so the noise streams),
    which is how a slice of a larger ensemble is reproduced exactly.
    With ``store`` the ensemble keeps every path's states at every step
    (``trajectories``, ``(paths, steps + 1, dim)``); storing changes no
    other output.
    """
    return _simulate(coeffs, semigroup, noise, cone, config, h0, (1,), first_path, store)[0]


def run_sweep(
    coeffs: CoefficientSet,
    semigroup: DiagonalSemigroup,
    noise: NoiseSpec,
    cone: ConeSpec,
    config: SimConfig,
    h0: StateVec,
    factors: tuple[int, ...],
) -> list[PathEnsemble]:
    """One ensemble per entry of ``factors``, each stepped at ``factor *
    config.dt`` on the same paths, in one pass over the same draws.

    Every level's noise is built from the draws at ``config.dt`` (see
    ``_coarsen``), so the level with factor 1 is ``run_ensemble``'s
    ensemble, and the levels differ only by the step size.  Each factor
    must divide ``config.steps``.
    """
    return _simulate(coeffs, semigroup, noise, cone, config, h0, tuple(factors), 0, store=False)


def _simulate(coeffs, semigroup, noise, cone, config, h0, factors, first_path, store):
    """The engine behind ``run_ensemble`` and ``run_sweep``: chunks of
    ``_CHUNK`` paths, each stepped block by block through its fine draws,
    every level on each block before the next block is drawn."""
    _validate_setup(coeffs, semigroup, noise, cone, h0)
    dim = coeffs.dim
    S = config.steps
    P = config.paths
    levels = [replace(config, dt=config.dt * f) for f in factors]
    for f, cfg in zip(factors, levels):
        if cfg.steps * f != S:
            raise ConfigError(f"sweep factor {f} does not divide the {S} steps of dt {config.dt}")

    # Both names are the same function.  Built-in sets call it as
    # simulate.step_ensemble, the call site perfbench/tracing.py wraps to
    # time the kernel layer; perfbench/test_perfbench.py pins that only
    # the verify-sweep workload reaches it.
    step = step_ensemble if coeffs.uses_only_builtin_maps() else kernels.step_ensemble
    plans = [StepPlan.build(coeffs, semigroup, noise, cone, cfg) for cfg in levels]
    J = noise.count
    lam = coeffs.jump_weights * float(config.dt)
    M = len(lam)
    unit = math.lcm(*factors)

    seeds = np.zeros(P, dtype=np.uint64)
    out = [
        PathEnsemble(
            final=np.zeros((P, dim)),
            min_margin=np.zeros(P),
            first_exit=np.zeros(P, dtype=np.int64),
            diverged=np.zeros(P, dtype=np.int64),
            seeds=seeds,
            dt=cfg.dt,
            steps=cfg.steps,
            trajectories=np.zeros((P, cfg.steps + 1, dim)) if store else None,
        )
        for cfg in levels
    ]

    for lo in range(0, P, _CHUNK):
        hi = min(lo + _CHUNK, P)
        n = hi - lo
        streams = []
        for k in range(n):
            p = first_path + lo + k
            rng, seeds[lo + k] = _path_stream(noise.seed, p)
            streams.append((rng, _count_stream(noise.seed, p) if M else None))
        r0 = np.broadcast_to(h0.coords, (n, dim))
        states = [
            KernelState.start(plan, r0, None if e.trajectories is None else e.trajectories[lo:hi])
            for plan, e in zip(plans, out)
        ]
        B = _block_steps(n, J + M, unit)
        normals = np.zeros((n, min(B, S), J))
        counts = np.zeros((n, min(B, S), M), dtype=np.int64)
        for s0 in range(0, S, B):
            b = min(B, S - s0)
            for k, (rng, count_rng) in enumerate(streams):
                _draw_noise(rng, count_rng, normals[k, :b], counts[k, :b], lam)
            for f, plan, state in zip(factors, plans, states):
                step(plan, state, *_coarsen(normals[:, :b], counts[:, :b], f))
        for e, state in zip(out, states):
            e.final[lo:hi] = state.r
            e.min_margin[lo:hi] = state.runmin
            e.first_exit[lo:hi] = state.first_exit
            e.diverged[lo:hi] = state.diverged
        # Release this chunk's blocks and generators before the next
        # chunk makes its own, so peak memory holds one chunk, not two.
        del normals, counts, states, streams
    return out


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
    base = run_ensemble(limit, semigroup, noise, cone, config, h0, store=True).trajectories
    results = []
    for n, other in enumerate(seq):
        run = run_ensemble(other, semigroup, noise, cone, config, h0, store=True)
        diff = base - run.trajectories
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
    sigma: np.ndarray,
    cone: ConeSpec,
    h: StateVec,
) -> float:
    """Short-time cone compatibility of a vector field value at ``h``.

    ``sigma`` is the field's value ``Sigma(h)``, an ``(N,)`` array.
    Returns ``min over t of d_K(S_t h + t Sigma(h)) / t`` on the grid
    ``t = 0.1 * 0.5^m``, ``m = 0..39``, an estimate of the liminf as t
    drops to 0; a finite grid can only estimate such a liminf, never
    prove it.  Near zero it is consistent with the flow ``Sigma``
    nudging the state back into the cone; a value bounded away from
    zero witnesses an outward push.  ``h`` must lie in the cone, where
    the semigroup alone contributes nothing.
    """
    if not cone_contains(cone, h, tol=1e-12):
        raise DomainError("state must lie in the cone")
    vec = np.asarray(sigma, dtype=np.float64)
    if vec.shape != (h.dim,):
        raise ShapeError(f"sigma must have shape ({h.dim},), got {vec.shape}")
    best = np.inf
    for t in _LIMINF_TIMES:
        moved = semigroup.apply(float(t), h).coords + t * vec
        best = min(best, cone_distance(cone, StateVec(moved)) / float(t))
    return float(best)
