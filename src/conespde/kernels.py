"""The ensemble stepping kernel: one NumPy loop, vectorized over paths.

One exponential-Euler step of a batch of states ``r``, shape (P, N):

    acc   = r + dt * drift(r)
          + sum_j vol_j(r) * (sqrt_scale_j * xi_j)
          + sum_i atom_i(r) * (count_i - atom_wdt_i)
    r_new = decay * acc

with ``decay = exp(-c dt)``, ``sqrt_scale = sqrt(lambda dt)`` and
``atom_wdt = w dt``, computed once per run by ``StepPlan.build``.  Each
coefficient map is evaluated on the whole batch through its
``eval_array``, the function the condition checkers evaluate too, so
every coefficient set steps through this one loop.  Divergence uses the
sup norm (order-free), and margins get ``+ 0.0`` so a margin of -0.0 is
reported as 0.0.  ``BACKEND`` names the kernel for run reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .coefficients import CoefficientMap, CoefficientSet
    from .semigroup import DiagonalSemigroup
    from .simulate import NoiseSpec, SimConfig
    from .space import ConeSpec

BACKEND = "numpy"


@dataclass(frozen=True)
class StepPlan:
    """Everything the kernel needs to advance an ensemble: the maps and
    the step constants derived from the semigroup, noise and step size."""

    dt: float
    drift: CoefficientMap
    vols: tuple[CoefficientMap, ...]
    atoms: tuple[CoefficientMap, ...]
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
        return cls(
            dt=dt,
            drift=coeffs.drift,
            vols=coeffs.vol_columns,
            atoms=tuple(g for _, g in coeffs.jump_atoms),
            decay=np.exp(-semigroup.rates * dt),
            sqrt_scale=np.sqrt(np.array(noise.eigenvalues, dtype=np.float64) * dt),
            atom_wdt=coeffs.jump_weights * dt,
            signs=cone.signs.astype(np.float64),
            exit_tol=float(config.exit_tol),
            guard=float(config.guard),
        )


def _margins(r: np.ndarray, con_idx: np.ndarray, con_sign: np.ndarray) -> np.ndarray:
    if con_idx.size == 0:
        return np.full(r.shape[0], np.inf)
    vals = con_sign[None, :] * r[:, con_idx]
    return np.min(vals, axis=1) + 0.0


def step_ensemble(
    plan: StepPlan,
    r0: np.ndarray,
    normals: np.ndarray,
    counts: np.ndarray,
    store: bool = False,
) -> dict:
    """Advance an ensemble through every step of the noise arrays.

    Parameters
    ----------
    r0 : (P, N) float64
        Initial states, one row per path.
    normals : (P, S, J) float64
        Standard normal draws per path, step, and noise column.
    counts : (P, S, M) int64
        Poisson arrival counts per path, step, and jump atom.
    store : bool
        Keep the full trajectories (P, S+1, N).

    Returns
    -------
    dict with ``final``, ``min_margin``, ``first_exit`` (time index,
    -1 if none), ``diverged`` (time index, -1 if none), ``traj``.
    """
    P, N = r0.shape
    S = normals.shape[1]
    dt = plan.dt
    counts_f = counts.astype(np.float64)

    con_idx = np.flatnonzero(plan.signs != 0.0)
    con_sign = plan.signs[con_idx]

    r = r0.astype(np.float64).copy()
    first_exit = np.full(P, -1, dtype=np.int64)
    diverged = np.full(P, -1, dtype=np.int64)
    alive = np.ones(P, dtype=bool)
    traj = np.zeros((P, S + 1, N)) if store else None
    if store:
        traj[:, 0] = r

    bad0 = np.max(np.abs(r), axis=1) > plan.guard
    diverged[bad0] = 0
    alive &= ~bad0

    runmin = np.full(P, np.inf)
    m0 = _margins(r, con_idx, con_sign)
    runmin[alive] = m0[alive]
    hit0 = alive & (m0 < -plan.exit_tol)
    first_exit[hit0] = 0

    for s in range(S):
        acc = r + dt * plan.drift.eval_array(r)
        for j, vol in enumerate(plan.vols):
            w = plan.sqrt_scale[j] * normals[:, s, j]
            acc += vol.eval_array(r) * w[:, None]
        for i, atom in enumerate(plan.atoms):
            f = counts_f[:, s, i] - plan.atom_wdt[i]
            acc += atom.eval_array(r) * f[:, None]
        r_new = plan.decay[None, :] * acc

        maxabs = np.max(np.abs(r_new), axis=1)
        newly_div = alive & (maxabs > plan.guard)
        ok = alive & ~newly_div
        diverged[newly_div] = s + 1
        alive &= ~newly_div

        r[ok] = r_new[ok]
        m = _margins(r_new, con_idx, con_sign)
        runmin[ok] = np.minimum(runmin[ok], m[ok])
        crossed = ok & (m < -plan.exit_tol) & (first_exit < 0)
        first_exit[crossed] = s + 1
        if store:
            traj[:, s + 1] = r

    return {
        "final": r,
        "min_margin": runmin,
        "first_exit": first_exit,
        "diverged": diverged,
        "traj": traj,
    }
