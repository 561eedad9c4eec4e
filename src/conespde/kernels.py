"""The ensemble stepping kernel: one NumPy loop, vectorized over paths.

One exponential-Euler step of a batch of states ``r``, shape (P, N):

    acc   = r + dt * drift(r)
          + sum_j vol_j(r) * (sqrt_scale_j * xi_j)
          + sum_i atom_i(r) * (count_i - atom_wdt_i)
    r_new = decay * acc

with ``decay = exp(-c dt)``, ``sqrt_scale = sqrt(lambda dt)`` and
``atom_wdt = w dt``, computed once per run by ``StepPlan.build``.  Every
coefficient set steps through this one loop.

The loop runs one time block at a time.  ``KernelState.start`` makes a
chunk's state once, from its initial rows (step 0 is checked against
the guard and the cone there), and ``step_ensemble(plan, state,
normals, counts)`` advances it in place through the ``(P, b, J)``
normals and ``(P, b, M)`` counts of one block: rows, running minima,
first exits, divergence, the alive and waiting flags and the step
offset.  Nothing in a step depends on where a block starts or ends, so
stepping the noise of a run whole or split into consecutive blocks of
any lengths gives the same bytes.  A state made with a ``rows`` buffer
of one block, ``(P, b, N)``, also records the rows after each step of
the block, overwriting the previous block's; no run keeps whole
trajectories.

Each map touches only its output ``support``: ``StepPlan.build`` turns
the support into a slice where it can (the whole row, one coordinate, a
run of them), or else an index array, and the step adds
``map.eval_coords(r, sup) * coefficient`` into ``acc[:, sup]``.  The
result is the full-width sum bit for bit: outside the support the map is
zero, and adding a zero changes only a ``-0.0`` entry, which a running
sum holds only if it started with one.  So a step whose accumulator
starts with a zero of either sign adds every map at full width, by the
same code with the support set to every coordinate.

While every path is alive and no row leaves the guard, a step takes
``r_new`` whole and updates the running minima in place; the per-row
sup norm is computed only when the chunk's largest entry exceeds the
guard (or is not a number), and the exit test stops once every live
path has a first exit.  A path diverges when its sup norm is not within
the guard, so a state holding a NaN diverges too, and the path then
keeps its last state within the guard.  Divergence uses the sup norm
(order-free), and margins get ``+ 0.0`` so a margin of -0.0 is reported
as 0.0, which also makes their minimum independent of the order it is
taken in.
``BACKEND`` names the kernel for run reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .coefficients import row_index

if TYPE_CHECKING:
    from .coefficients import CoefficientMap, CoefficientSet
    from .semigroup import DiagonalSemigroup
    from .simulate import NoiseSpec, SimConfig
    from .space import ConeSpec

BACKEND = "numpy"

_ALL = slice(None)  # every coordinate
_NOISE_BLOCK = 32  # steps of a block's noise scaled at once


@dataclass(frozen=True)
class StepPlan:
    """Everything the kernel needs to advance an ensemble: the maps and
    the step constants derived from the semigroup, noise and step size."""

    dt: float
    drift: CoefficientMap
    vols: tuple[CoefficientMap, ...]
    atoms: tuple[CoefficientMap, ...]
    supports: tuple          # drift, vols, atoms: each map's support as a row_index
    decay: np.ndarray        # (N,)   exp(-c_k dt)
    sqrt_scale: np.ndarray   # (J,)   sqrt(lambda_j dt)
    atom_wdt: np.ndarray     # (M,)   w_i dt, Poisson intensities per step
    signs: np.ndarray        # (N,)   cone signs as float64 (0 for free coords)
    exit_tol: float
    guard: float             # sup-norm overflow guard

    @classmethod
    def build(
        cls,
        coeffs: CoefficientSet,
        semigroup: DiagonalSemigroup,
        noise: NoiseSpec,
        cone: ConeSpec,
        config: SimConfig,
    ) -> "StepPlan":
        dt = float(config.dt)
        atoms = tuple(g for _, g in coeffs.jump_atoms)
        maps = (coeffs.drift, *coeffs.vol_columns, *atoms)
        return cls(
            dt=dt,
            drift=coeffs.drift,
            vols=coeffs.vol_columns,
            atoms=atoms,
            supports=tuple(row_index(m.support, m.dim) for m in maps),
            decay=np.exp(-semigroup.rates * dt),
            sqrt_scale=np.sqrt(np.array(noise.eigenvalues, dtype=np.float64) * dt),
            atom_wdt=coeffs.jump_weights * dt,
            signs=cone.signs.astype(np.float64),
            exit_tol=float(config.exit_tol),
            guard=float(config.guard),
        )


def _step_factors(plan: StepPlan, normals: np.ndarray, counts: np.ndarray):
    """Per step, what each map's value is multiplied by, in the order
    drift, vols, atoms: ``dt``, then one ``(P, 1)`` column per noise
    column (scaled normals) and per atom (compensated counts).

    The factors are made a block of steps at a time, laid out step by
    column by path, so each column is contiguous: one pass over a block
    of every path's draws costs much less than a strided gather across
    the paths every step, and products with contiguous columns are
    faster."""
    for s0 in range(0, normals.shape[1], _NOISE_BLOCK):
        block = slice(s0, s0 + _NOISE_BLOCK)
        W = np.multiply(normals[:, block].transpose(1, 2, 0), plan.sqrt_scale[:, None], order="C")
        F = np.subtract(counts[:, block].transpose(1, 2, 0), plan.atom_wdt[:, None], order="C")
        for w, f in zip(W[..., None], F[..., None]):
            yield (plan.dt, *w, *f)


def _margins(r: np.ndarray, con, sign_cols: np.ndarray) -> np.ndarray:
    """Signed cone margin of each row: the least ``sign_l * r_l`` over the
    constrained coordinates ``con``, with ``sign_cols`` the signs as a
    ``(K, P)`` column block."""
    if con is None:
        return np.full(r.shape[0], np.inf)
    # one row per coordinate: a minimum down the columns runs much faster
    # than one along short rows, and after + 0.0 the order does not matter
    vals = r.T[con].copy()
    vals *= sign_cols
    return vals.min(axis=0) + 0.0


@dataclass(eq=False)
class KernelState:
    """One chunk of paths between two noise blocks: everything the kernel
    carries from one step to the next.  ``start`` makes it once per
    chunk, from the initial rows; ``step_ensemble`` advances it in place.

    ``first_exit`` and ``diverged`` hold step indices (0 = the initial
    state, -1 = never); ``waiting`` marks live paths with no first exit
    yet.  ``rows``, when given, receives each block's rows: ``rows[:, i]``
    holds the states after the block's step ``i + 1``.
    """

    r: np.ndarray            # (P, N) current rows
    runmin: np.ndarray       # (P,)   running minimum margin
    first_exit: np.ndarray   # (P,)   int64
    diverged: np.ndarray     # (P,)   int64
    alive: np.ndarray        # (P,)   bool: not diverged
    waiting: np.ndarray      # (P,)   bool: alive and not yet exited
    all_alive: bool
    any_waiting: bool
    step: int                # steps taken so far
    rows: np.ndarray | None  # (P, b, N): the last block's rows, or None
    con: object              # constrained coordinates as a row_index
    sign_cols: np.ndarray    # (K, P) cone signs, one column per path
    decay: np.ndarray        # (P, N) exp(-c dt), one row per path

    @classmethod
    def start(cls, plan: StepPlan, r0: np.ndarray, rows: np.ndarray | None = None) -> "KernelState":
        """The state at step 0: rows ``r0`` (P, N), checked against the
        guard and the cone as every later step is.  ``rows`` is a
        (P, b, N) buffer to record each block's rows in, with ``b`` at
        least the longest block, or None."""
        P, N = r0.shape
        con_idx = np.flatnonzero(plan.signs != 0.0)
        con = row_index(con_idx, N)
        # the per-coordinate constants spelled out per path: a product of
        # equal shapes is much faster than one that broadcasts a short row
        sign_cols = np.repeat(plan.signs[con_idx, None], P, axis=1)
        decay = np.repeat(plan.decay[None, :], P, axis=0)

        r = r0.astype(np.float64).copy()
        first_exit = np.full(P, -1, dtype=np.int64)
        diverged = np.full(P, -1, dtype=np.int64)
        alive = np.ones(P, dtype=bool)

        # a row counts as diverged unless its sup norm is within the guard,
        # so a row holding a NaN diverges too
        bad0 = ~(np.abs(r).max(axis=1) <= plan.guard)
        diverged[bad0] = 0
        alive &= ~bad0

        runmin = np.full(P, np.inf)
        m0 = _margins(r, con, sign_cols)
        runmin[alive] = m0[alive]
        hit0 = alive & (m0 < -plan.exit_tol)
        first_exit[hit0] = 0
        # live paths with no first exit yet; once there are none, the exit
        # test is skipped
        waiting = alive & ~hit0
        return cls(
            r=r,
            runmin=runmin,
            first_exit=first_exit,
            diverged=diverged,
            alive=alive,
            waiting=waiting,
            all_alive=bool(alive.all()),
            any_waiting=bool(waiting.any()),
            step=0,
            rows=rows,
            con=con,
            sign_cols=sign_cols,
            decay=decay,
        )


def step_ensemble(
    plan: StepPlan,
    state: KernelState,
    normals: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Advance ``state`` in place through every step of one noise block.

    Parameters
    ----------
    plan : StepPlan
        The maps and step constants.
    state : KernelState
        The chunk's state, ``state.step`` steps in.
    normals : (P, b, J) float64
        Standard normal draws per path, step of the block, and noise column.
    counts : (P, b, M) int64
        Poisson arrival counts per path, step of the block, and jump atom.

    Stepping a run's noise in one block or in any split of it into
    consecutive blocks gives the same bytes.
    """
    r, runmin, alive, waiting = state.r, state.runmin, state.alive, state.waiting
    all_alive, any_waiting = state.all_alive, state.any_waiting
    con, sign_cols, decay = state.con, state.sign_cols, state.decay

    maps = (plan.drift, *plan.vols, *plan.atoms)
    full_width = (_ALL,) * len(maps)
    for s, coefs in enumerate(_step_factors(plan, normals, counts), start=state.step):
        # the accumulator starts as r: with a zero in it, add at full width
        sups = plan.supports if r.all() else full_width
        acc = r.copy()
        for m, sup, c in zip(maps, sups, coefs):
            if sup is not None:
                acc[:, sup] += m.eval_coords(r, sup) * c
        r_new = decay * acc

        # initial=0.0 lets an empty chunk through; a NaN fails the test
        if not np.abs(r_new).max(initial=0.0) <= plan.guard:
            newly_div = alive & ~(np.abs(r_new).max(axis=1) <= plan.guard)
            state.diverged[newly_div] = s + 1
            alive &= ~newly_div
            all_alive = bool(alive.all())
            waiting &= alive
            any_waiting = bool(waiting.any())

        margin = _margins(r_new, con, sign_cols)
        if all_alive:
            r = r_new
            np.minimum(runmin, margin, out=runmin)
        else:
            r[alive] = r_new[alive]
            runmin[alive] = np.minimum(runmin[alive], margin[alive])
        if any_waiting:
            crossed = waiting & (margin < -plan.exit_tol)
            if crossed.any():
                state.first_exit[crossed] = s + 1
                waiting &= ~crossed
                any_waiting = bool(waiting.any())
        if state.rows is not None:
            state.rows[:, s - state.step] = r

    state.r, state.all_alive, state.any_waiting = r, all_alive, any_waiting
    state.step += normals.shape[1]
