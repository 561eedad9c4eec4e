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
use as well.  A run's paths fall into chunks of ``_CHUNK`` = 1024,
and the chunks into ``W = min(usable CPUs, chunks)`` contiguous slices
of whole chunks (the CPUs are those ``os.sched_getaffinity`` allows;
one where it does not exist).  This process steps the first slice, and
a worker forked for each other slice steps its own at the same time and
sends its paths' results back through a pipe (``forks.run``, which the
sampled verdict shares; it reaps every worker, and a worker dies with
its parent); a slice's chunks run one after another.  A run of one
chunk forks nothing.  Each chunk holds one time block of noise at a
time: its paths draw the next
``b`` steps into a buffer of about ``_NOISE_BYTES`` (8 MiB), which is
transposed once per sub-block of ``_SUB_BLOCK`` steps for the kernel
to step the chunk through, and reused for the next block.  So
memory is one chunk times one block per process and does not grow with
the horizon, and the width and the block lengths are module constants,
not options.  No run keeps whole trajectories.

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
block, so the chunk width, the block length and the number of slices
change memory and speed only, never the output, and any single path can
be regenerated in isolation:
``run_ensemble`` with ``paths=1`` and ``first_path=p`` returns path
``p``'s row, and its ``diverged`` entry records an overflow.  (The v1
contract drew the counts from the normals' generator after a whole
horizon of normals, which tied the numbers to holding the horizon.)

One engine, ``_simulate``, steps coupled lanes: a lane is a
coefficient set and a step factor ``f``, and every lane steps the same
paths in one pass over the draws at ``dt`` (coupled levels, as in
Giles, "Multilevel Monte Carlo path simulation", Oper. Res. 56, 2008).
A lane-``f`` step consumes ``f`` fine steps: its normal in column ``j``
is ``(xi_1 + ... + xi_f) / sqrt(f)``, added left to right and then
divided, and its count for atom ``i`` is the sum of the ``f`` fine
counts.  Blocks and sub-blocks hold a whole number of every lane's
steps, and every lane advances through a sub-block before the next is
transposed.  So a lane's output does not depend on the other lanes:

* ``run_ensemble`` is one lane, the set at ``f = 1``;
* ``run_sweep`` is the set at several factors (levels), and its level
  with ``f = 1`` is ``run_ensemble``'s ensemble bit for bit;
* ``stability_experiment`` is the limit and each entry of the sequence
  at ``f = 1``.  Each of its lanes records the rows of a sub-block into
  a buffer of one sub-block, and after each sub-block the engine folds
  ``max_s ||r_limit - r_entry||^2`` into one running sup per path and
  entry.  The recorded rows count in the block's width, so a block
  stays about ``_NOISE_BYTES`` whatever the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import forks, kernels
from .coefficients import CoefficientSet, config_field
from .errors import (
    ConfigError,
    DomainError,
    ShapeError,
    check_keys,
    read_float,
    read_int,
    read_list,
    read_object,
    require_array,
    require_float,
    require_int,
)
from .kernels import KernelState, StepPlan, step_ensemble
from .semigroup import DiagonalSemigroup
from .space import ConeSpec, cone_contains

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
_SUB_BLOCK = 32  # fine steps transposed, and scaled by the kernel, at once


def _eigenvalues(path: str, raw) -> tuple:
    """Noise eigenvalues from a config list of numbers, or from a rule
    object: ``{"rule": "flat", "count", "value"}`` (``value`` 1 if left
    out) for ``NoiseSpec.flat``'s, ``{"rule": "dyadic", "count"}`` for
    ``NoiseSpec.dyadic``'s."""
    if not isinstance(raw, dict):
        return tuple(read_float(f"{path}[{j}]", x) for j, x in enumerate(read_list(path, raw)))
    rule = read_object(path, raw, "rule", "count")["rule"]
    count = read_int(f"{path}.count", raw["count"])
    if rule == "flat":
        spec = NoiseSpec.flat(count, read_float(f"{path}.value", raw.get("value", 1.0)))
    elif rule == "dyadic":
        spec = NoiseSpec.dyadic(count)
    else:
        raise ConfigError(f"{path}.rule: unknown rule {rule!r}")
    check_keys(path, raw, ("rule", "count", "value") if rule == "flat" else ("rule", "count"))
    return spec.eigenvalues


@dataclass(frozen=True)
class NoiseSpec:
    """Driving noise: Q-Wiener eigenvalues per column plus master seed.

    ``eigenvalues[j]`` scales column ``j`` of the volatility; the trace
    ``sum(eigenvalues)`` is the total instantaneous noise intensity.
    """

    eigenvalues: tuple[float, ...] = config_field(_eigenvalues)
    seed: int = config_field(read_int, default=0)

    def __post_init__(self):
        # finite, too: the kernel skips 0 * sqrt(lam dt) xi off a column's
        # support, which is not 0 when lam is infinite
        for j, lam in enumerate(self.eigenvalues):
            require_float(f"eigenvalues[{j}]", lam, "> 0")
        # plain floats, as config documents write them
        object.__setattr__(self, "eigenvalues", tuple(float(lam) for lam in self.eigenvalues))
        require_int("seed", self.seed, 0)

    @classmethod
    def dyadic(cls, count: int) -> "NoiseSpec":
        """Summable default: ``lam_j = 2^-j`` for ``j = 1..count``, with
        ``count >= 0``."""
        require_int("count", count, 0)
        return cls(tuple(2.0 ** (-j) for j in range(1, count + 1)))

    @classmethod
    def flat(cls, count: int, value: float = 1.0) -> "NoiseSpec":
        """Equal weight on every one of ``count >= 0`` columns (finitely
        many, so still trace class)."""
        require_int("count", count, 0)
        return cls((float(value),) * count)

    @property
    def count(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class SimConfig:
    """Stepping parameters shared by every path of a run."""

    dt: float = config_field(read_float)
    horizon: float = config_field(read_float)
    paths: int = config_field(read_int)
    exit_tol: float = config_field(read_float, default=1e-8)
    guard: float = config_field(read_float, default=1e12)

    def __post_init__(self):
        for name in ("dt", "horizon", "guard"):
            require_float(name, getattr(self, name), "> 0")
        require_float("exit_tol", self.exit_tol, ">= 0")
        require_int("paths", self.paths, 1)
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
    ``paths`` paths of ``width`` numbers per step (draws, and recorded
    rows), in whole multiples of ``unit`` (so every lane's steps end on
    a block boundary)."""
    steps = _NOISE_BYTES // (8 * paths * max(width, 1))
    return max(unit, steps - steps % unit)


def _coarsen(normals: np.ndarray, counts: np.ndarray, factor: int):
    """The noise of a step ``factor`` times as long, from a sub-block of
    fine draws laid out step by column by path, ``(b, J, P)`` and ``(b, M,
    P)``: each coarse normal is ``(xi_1 + ... + xi_f) / sqrt(f)``, summed
    left to right, and each coarse count the sum of ``f`` fine counts;
    returned as ``(P, b / f, J)`` and ``(P, b / f, M)`` path-fastest views."""
    if factor > 1:
        xi = normals.reshape(len(normals) // factor, factor, *normals.shape[1:])
        normals = xi[:, 0].copy()
        for i in range(1, factor):
            normals += xi[:, i]
        normals /= np.sqrt(factor)
        counts = counts.reshape(len(counts) // factor, factor, *counts.shape[1:]).sum(axis=1)
    return normals.transpose(2, 0, 1), counts.transpose(2, 0, 1)


def _validate_setup(
    coeffs: CoefficientSet,
    semigroup: DiagonalSemigroup,
    noise: NoiseSpec,
    cone: ConeSpec,
) -> None:
    dim = coeffs.dim
    if len(semigroup.rates) != dim:
        raise ShapeError(f"semigroup dimension {len(semigroup.rates)} != coefficients {dim}")
    if cone.dim != dim:
        raise ShapeError(f"cone dimension {cone.dim} != coefficients {dim}")
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
    h0: np.ndarray,
    first_path: int = 0,
) -> PathEnsemble:
    """Simulate ``config.paths`` independent paths from ``h0``, a finite
    ``(N,)`` array-like state.

    ``first_path`` offsets the path indices (and so the noise streams),
    which is how a slice of a larger ensemble is reproduced exactly.
    """
    return _simulate([(coeffs, 1)], semigroup, noise, cone, config, h0, first_path, None)[0]


def run_sweep(
    coeffs: CoefficientSet,
    semigroup: DiagonalSemigroup,
    noise: NoiseSpec,
    cone: ConeSpec,
    config: SimConfig,
    h0: np.ndarray,
    factors: tuple[int, ...],
) -> list[PathEnsemble]:
    """One ensemble per entry of ``factors``, each stepped at ``factor *
    config.dt`` on the same paths, in one pass over the same draws.

    Every level's noise is built from the draws at ``config.dt`` (see
    ``_coarsen``), so the level with factor 1 is ``run_ensemble``'s
    ensemble, and the levels differ only by the step size.  Each factor
    must be an integer >= 1 that divides ``config.steps``.  Nothing is
    simulated for an empty ``factors``.
    """
    for i, f in enumerate(factors):
        require_int(f"factors[{i}]", f, 1)
        if config.steps % f:
            raise ConfigError(
                f"sweep factor {f} does not divide the {config.steps} steps of dt {config.dt}"
            )
    if not factors:
        return []
    lanes = [(coeffs, f) for f in factors]
    return _simulate(lanes, semigroup, noise, cone, config, h0, 0, None)


def _simulate(lanes, semigroup, noise, cone, config, h0, first_path, sup_sq):
    """The engine: one ensemble per lane ``(coeffs, factor)``, all lanes
    driven by the same draws at ``config.dt``.  The serial engine steps
    chunks of ``_CHUNK`` paths one after another, each sub-block by
    sub-block through its fine draws, every lane on each sub-block before
    the next.  The paths are split into ``_slices``, and ``forks.run``
    runs the serial engine on the first here and on each other in a
    forked worker; every path's results are the same bytes whatever the
    split.  The lanes' sets share their jump weights, which set the
    counts' distribution.

    ``sup_sq``, when not None, is an ``(L - 1, P)`` array for lanes of
    factor 1: each lane records its rows a sub-block at a time, and row
    ``l`` of ``sup_sq`` is raised, path by path, to the largest squared
    distance between lane 0's rows and lane ``l + 1``'s."""
    dim = lanes[0][0].dim
    h0 = require_array("h0", h0, (dim,))
    for coeffs, _ in lanes:
        _validate_setup(coeffs, semigroup, noise, cone)
    S = config.steps
    P = config.paths
    factors = [f for _, f in lanes]
    levels = [replace(config, dt=config.dt * f) for f in factors]

    # Both names are the same function, chosen once for the run.  Runs
    # whose every set is built-in call it as simulate.step_ensemble, the
    # call site perfbench/tracing.py wraps to time the kernel layer;
    # perfbench/test_perfbench.py pins that only the verify-sweep
    # workload reaches it.
    builtin = all(coeffs.uses_only_builtin_maps() for coeffs, _ in lanes)
    step = step_ensemble if builtin else kernels.step_ensemble
    plans = [StepPlan.build(c, semigroup, noise, cone, cfg) for (c, _), cfg in zip(lanes, levels)]
    J = noise.count
    lam = lanes[0][0].jump_weights * float(config.dt)
    M = len(lam)
    unit = math.lcm(*factors)
    rows_width = 0 if sup_sq is None else dim * len(lanes)

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
        )
        for cfg in levels
    ]

    # every per-path output, path axis first
    rows = [seeds, *(a for e in out for a in (e.final, e.min_margin, e.first_exit, e.diverged))]
    if sup_sq is not None:
        rows.append(sup_sq.T)

    def serial(lo, hi):
        """The serial engine: step paths ``lo..hi - 1`` of the run, chunk
        by chunk, into their rows of ``out``, ``seeds`` and ``sup_sq``,
        and return those rows of every array in ``rows``."""
        for c0 in range(lo, hi, _CHUNK):
            c1 = min(c0 + _CHUNK, hi)
            n = c1 - c0
            streams = []
            for k in range(n):
                p = first_path + c0 + k
                rng, seeds[c0 + k] = _path_stream(noise.seed, p)
                streams.append((rng, _count_stream(noise.seed, p) if M else None))
            r0 = np.broadcast_to(h0, (n, dim))
            B = _block_steps(n, J + M + rows_width, unit)
            # steps of fine noise transposed at once, whole steps of every lane
            T = min(B, max(unit, _SUB_BLOCK - _SUB_BLOCK % unit))
            states = [
                KernelState.start(plan, r0, np.zeros((n, min(T, S), dim)) if rows_width else None)
                for plan in plans
            ]
            normals = np.zeros((n, min(B, S), J))
            counts = np.zeros((n, min(B, S), M), dtype=np.int64)
            for s0 in range(0, S, B):
                b = min(B, S - s0)
                for k, (rng, count_rng) in enumerate(streams):
                    _draw_noise(rng, count_rng, normals[k, :b], counts[k, :b], lam)
                for t0 in range(0, b, T):
                    t = min(T, b - t0)
                    # one transpose per sub-block, to step by column by path
                    fine = [np.ascontiguousarray(a[:, t0:t0 + t].transpose(1, 2, 0))
                            for a in (normals, counts)]
                    for f, plan, state in zip(factors, plans, states):
                        step(plan, state, *_coarsen(*fine, f))
                    if rows_width:
                        _fold_distances(sup_sq[:, c0:c1], states, t)
            for e, state in zip(out, states):
                e.final[c0:c1] = state.r
                e.min_margin[c0:c1] = state.runmin
                e.first_exit[c0:c1] = state.first_exit
                e.diverged[c0:c1] = state.diverged
            # Release this chunk's blocks and generators before the next
            # chunk makes its own, so peak memory holds one chunk, not two.
            del normals, counts, states, streams
        return [a[lo:hi] for a in rows]

    # the first slice here, each other in a forked worker; a forked
    # slice's rows are copied into place (a slice stepped here is
    # assigned to itself, which NumPy skips)
    slices = _slices(P)
    parts = forks.run(
        len(slices),
        lambda i: serial(*slices[i]),
        lambda i: f"paths {slices[i][0]}..{slices[i][1] - 1}",
    )
    for (lo, hi), part in zip(slices, parts):
        for a, got in zip(rows, part):
            a[lo:hi] = got
    return out


def _slices(paths: int) -> list[tuple[int, int]]:
    """``W = min(usable CPUs, chunks)`` contiguous slices ``(lo, hi)`` of
    a run's paths, each a whole number of ``_CHUNK`` chunks."""
    chunks = -(-paths // _CHUNK)
    W = min(forks.usable_cpus(), chunks)
    cuts = [min(paths, _CHUNK * (chunks * w // W)) for w in range(W + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def _fold_distances(sup_sq: np.ndarray, states: list, b: int) -> None:
    """Raise row ``l`` of ``sup_sq`` (one chunk's paths) to the largest
    squared distance, over the ``b`` steps the lanes just recorded,
    between lane 0's rows and lane ``l + 1``'s."""
    base = states[0].rows[:, :b]
    for sup, state in zip(sup_sq, states[1:]):
        diff = base - state.rows[:, :b]
        diff *= diff
        np.maximum(sup, diff.sum(axis=2).max(axis=1), out=sup)


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
    h0: np.ndarray,
) -> list[StabilityResult]:
    """Estimate ``E sup_t ||r_t - r^n_t||^2`` for each entry of ``seq``.

    The limiting system and every approximation are lanes of one run:
    they consume identical noise draws (same master seed, same path
    indices), drawn once, so an entry equal to ``limit`` scores exactly
    zero.  The sup runs over every step, the initial state included.
    Nothing is simulated for an empty ``seq``.  An entry's jump weights
    must equal the limit's: they are the intensity of the shared Poisson
    random measure, so they belong to the noise, not to the coefficients.
    """
    for n, other in enumerate(seq):
        if other.dim != limit.dim:
            raise ShapeError(f"sequence entry {n} dimension differs from the limit")
        if not np.array_equal(other.jump_weights, limit.jump_weights):
            raise DomainError(f"sequence entry {n} jump weights differ from the limit's")
    if not seq:
        return []
    distances = np.zeros((len(seq), config.paths))
    lanes = [(limit, 1), *((other, 1) for other in seq)]
    _simulate(lanes, semigroup, noise, cone, config, h0, 0, distances)
    P = config.paths
    return [
        StabilityResult(
            index=n,
            mean=float(np.mean(sup_sq)),
            stderr=float(np.std(sup_sq, ddof=1) / np.sqrt(P)) if P > 1 else 0.0,
            per_path=sup_sq,
            steps=config.steps,
            dt=config.dt,
        )
        for n, sup_sq in enumerate(distances)
    ]


def ssnc_estimate(
    semigroup: DiagonalSemigroup,
    sigma: np.ndarray,
    cone: ConeSpec,
    h: np.ndarray,
) -> float:
    """Short-time cone compatibility of a vector field value at ``h``:
    the liminf of ``d_K(S_t h + t Sigma(h)) / t`` as t drops to 0, in
    closed form.

    ``h`` is a finite ``(N,)`` array-like state in the cone up to 1e-12
    per constraint, and ``sigma`` the field's value ``Sigma(h)``, a
    finite ``(N,)`` array.
    A constrained coordinate off its face (``sign_k h_k > 0``) stays
    inside for small ``t``, whatever its rate.  A coordinate on its face
    (``sign_k h_k <= 0``, which takes in the slack) moves by exactly
    ``t Sigma_k``.  So the liminf is the norm of ``max(0, -sign_k
    Sigma_k)`` over the constrained coordinates on their faces: zero
    when the field points into the cone there, the size of its outward
    push otherwise.  The semigroup's rates do not enter it, but its
    dimension must be ``h``'s.
    """
    h = require_array("h", h, (semigroup.dim,))
    if not cone_contains(cone, h, tol=1e-12):
        raise DomainError("state must lie in the cone")
    vec = require_array("sigma", sigma, h.shape)
    on_face = (cone.signs != 0) & (cone.signs * h <= 0.0)
    return float(np.linalg.norm(np.maximum(-cone.signs[on_face] * vec[on_face], 0.0)))
