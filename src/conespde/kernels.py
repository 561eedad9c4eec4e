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
chunk's state once, from its initial rows, and ``step_ensemble(plan,
state, normals, counts)`` advances it in place through the
``(P, b, J)`` normals and ``(P, b, M)`` counts of one block: states,
running minima, first exits, divergence, the alive and waiting flags
and the step offset.  One function, ``_monitor``, holds the monitoring
rule (margin, first exit, divergence freeze): ``start`` applies it to
the initial rows at step 0, and the loop to the states each later step
reaches.  Nothing in a step depends on where a block starts or ends, so
stepping the noise of a run whole or split into consecutive blocks of
any lengths gives the same bytes.  A state made with a ``rows`` buffer
of one block, ``(P, b, N)``, also records the rows after each step of
the block, overwriting the previous block's; no run keeps whole
trajectories.

The state is held coordinate-major, ``rT`` (N, P), and the noise is
read step by column by path, so every per-coordinate update runs over
contiguous paths.  Maps see the Fortran-ordered batch ``rT.T`` (by the
row contract, bitwise a C-ordered one), and each map touches only its
output ``support``: ``StepPlan.build`` turns the support into a slice
where it can (the whole row, one coordinate, a run of them), or else an
index array, and the step adds ``map.eval_coords(rT.T, sup).T *
coefficient`` into ``acc[sup]``.  The result is the full-width sum bit
for bit: outside the support the map is zero, and adding a zero changes
only a ``-0.0`` entry, which a running sum holds only if it started with
one.  So a step whose accumulator starts with a zero of either sign adds
every map at full width, by the same code with the support set to every
coordinate.

While every path is alive and no row leaves the guard, the rule takes
``r_new`` whole and updates the running minima in place; the per-path
sup norm is computed only when the chunk's largest entry exceeds the
guard (or is not a number), and the exit test stops once every live
path has a first exit.  A path diverges when its sup norm is not within
the guard, so a state holding a NaN diverges too, and the path then
keeps its last state within the guard (an initial row beyond it keeps
that row).  Divergence uses the sup norm (order-free), and margins get
``+ 0.0`` so a margin of -0.0 is reported as 0.0, which also makes their
minimum independent of the order it is taken in.
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
            decay=semigroup.multipliers(dt),
            sqrt_scale=np.sqrt(np.array(noise.eigenvalues, dtype=np.float64) * dt),
            atom_wdt=coeffs.jump_weights * dt,
            signs=cone.signs.astype(np.float64),
            exit_tol=float(config.exit_tol),
            guard=float(config.guard),
        )


def _step_factors(plan: StepPlan, normals: np.ndarray, counts: np.ndarray):
    """Per step, what each map's value is multiplied by, in the order
    drift, vols, atoms: ``dt``, then one ``(1, P)`` row per noise column
    (scaled normals) and per atom (compensated counts).

    The factors of the whole block are made at once, laid out step by
    column by path, so each row is contiguous.  Noise whose path axis is
    fastest, as the engine hands it over, is in that layout already; any
    other layout is transposed here."""
    W = np.multiply(normals.transpose(1, 2, 0), plan.sqrt_scale[:, None], order="C")
    F = np.subtract(counts.transpose(1, 2, 0), plan.atom_wdt[:, None], order="C")
    for w, f in zip(W[:, :, None], F[:, :, None]):
        yield (plan.dt, *w, *f)


def _margins(rT: np.ndarray, con, sign_cols: np.ndarray) -> np.ndarray:
    """Signed cone margin of each path: the least ``sign_l * r_l`` over
    the constrained coordinates ``con`` of the ``(N, P)`` states ``rT``,
    with ``sign_cols`` the signs spelled out as ``(K, P)``."""
    if con is None:
        return np.full(rT.shape[1], np.inf)
    # one row per coordinate: a minimum down the columns runs much faster
    # than one along short rows, and after + 0.0 the order does not matter
    return (rT[con] * sign_cols).min(axis=0) + 0.0


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

    rT: np.ndarray           # (N, P) current states, one row per coordinate
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
    decay: np.ndarray        # (N, P) exp(-c dt), one column per path

    @property
    def r(self) -> np.ndarray:
        """The current states, one row per path: a (P, N) view."""
        return self.rT.T

    @classmethod
    def start(cls, plan: StepPlan, r0: np.ndarray, rows: np.ndarray | None = None) -> "KernelState":
        """The state at step 0: every path alive and waiting, with running
        minima at ``+inf``, and then the rows ``r0`` (P, N) put through the
        monitoring rule as every later step's are.  ``rows`` is a
        (P, b, N) buffer to record each block's rows in, with ``b`` at
        least the longest block, or None."""
        P, N = r0.shape
        con_idx = np.flatnonzero(plan.signs != 0.0)
        state = cls(
            rT=np.array(r0.T, dtype=np.float64, order="C"),
            runmin=np.full(P, np.inf),
            first_exit=np.full(P, -1, dtype=np.int64),
            diverged=np.full(P, -1, dtype=np.int64),
            alive=np.ones(P, dtype=bool),
            waiting=np.ones(P, dtype=bool),
            all_alive=True,
            any_waiting=P > 0,
            step=0,
            rows=rows,
            con=row_index(con_idx, N),
            # the per-coordinate constants spelled out per path: a product of
            # equal shapes is much faster than one that broadcasts a short row
            sign_cols=np.repeat(plan.signs[con_idx, None], P, axis=1),
            decay=np.repeat(plan.decay[:, None], P, axis=1),
        )
        _monitor(plan, state, state.rT, 0)
        return state


def _monitor(plan: StepPlan, state: KernelState, r_new: np.ndarray, s: int) -> None:
    """The monitoring rule: the ``(N, P)`` states ``r_new`` reached at
    step ``s`` become ``state``'s current states, running minima, first
    exits and divergence.

    A live path diverges at ``s`` unless its sup norm is within the
    guard, so a row holding a NaN diverges too; a diverged path keeps
    its last state and minimum.  A waiting path whose margin drops below
    ``-exit_tol`` takes ``s`` as its first exit."""
    alive, waiting = state.alive, state.waiting
    # initial=0.0 lets an empty chunk through; a NaN fails the test
    if not np.abs(r_new).max(initial=0.0) <= plan.guard:
        newly_div = alive & ~(np.abs(r_new).max(axis=0) <= plan.guard)
        state.diverged[newly_div] = s
        alive &= ~newly_div
        state.all_alive = bool(alive.all())
        waiting &= alive
        state.any_waiting = bool(waiting.any())

    margin = _margins(r_new, state.con, state.sign_cols)
    if state.all_alive:
        state.rT = r_new
        np.minimum(state.runmin, margin, out=state.runmin)
    else:
        state.rT[:, alive] = r_new[:, alive]
        state.runmin[alive] = np.minimum(state.runmin[alive], margin[alive])
    if state.any_waiting:
        crossed = waiting & (margin < -plan.exit_tol)
        if crossed.any():
            state.first_exit[crossed] = s
            waiting &= ~crossed
            state.any_waiting = bool(waiting.any())


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
    maps = (plan.drift, *plan.vols, *plan.atoms)
    full_width = (_ALL,) * len(maps)
    for s, coefs in enumerate(_step_factors(plan, normals, counts), start=state.step):
        rT = state.rT
        # the accumulator starts as r: with a zero in it, add at full width
        sups = plan.supports if rT.all() else full_width
        acc = rT.copy()
        for m, sup, c in zip(maps, sups, coefs):
            if sup is not None:
                acc[sup] += m.eval_coords(rT.T, sup).T * c
        _monitor(plan, state, state.decay * acc, s + 1)
        if state.rows is not None:
            state.rows[:, s - state.step] = state.rT.T
    state.step += normals.shape[1]
