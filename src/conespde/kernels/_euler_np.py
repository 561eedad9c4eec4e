"""Numpy fallback stepping kernel, vectorized over paths.

Implements the same exponential-Euler update as the compiled kernel:

    acc   = r + dt * drift(r)
          + sum_j vol_j(r) * (sqrt_scale_j * xi_j)
          + sum_i atom_i(r) * (count_i - w_i dt)
    r_new = decay * acc

with the identical leaf evaluation and multiply/accumulate order, so
for lowered coefficient families the two backends produce bitwise
equal paths.  Divergence uses the sup norm (order-free), margins are
normalized with ``+ 0.0`` so signed zeros cannot differ between
backends.

The plan's maps may also be coefficient maps that do not lower; each is
then evaluated on the whole batch through its ``eval_array``.  This
loop is the only Python engine, for lowered and unlowered sets alike.
"""

from __future__ import annotations

import numpy as np

from .plan import CONSTANT, DENSE, GATED, MEAN_REV, PROPORTIONAL, FlatMap, StepPlan


def eval_flat_batch(leaves: FlatMap, r: np.ndarray) -> np.ndarray:
    """Evaluate a lowered map on a batch of states, shape (P, N)."""
    P, N = r.shape
    out = np.zeros((P, N))
    for leaf in leaves:
        c = leaf.cutoff
        if leaf.code == CONSTANT:
            out[:, :c] += leaf.vec[:c]
        elif leaf.code == MEAN_REV:
            out[:, :c] += leaf.f0 * (leaf.vec[:c] - r[:, :c])
        elif leaf.code == PROPORTIONAL:
            if leaf.i0 < c:
                out[:, leaf.i0] += leaf.f0 * r[:, leaf.i0]
        elif leaf.code == DENSE:
            out[:, :c] += leaf.vec[:c]
            for l in range(N):
                out[:, :c] += leaf.mat[:c, l] * r[:, l][:, None]
        elif leaf.code == GATED:
            gate = r[:, leaf.i0]
            mask = (gate >= leaf.f0) & (gate <= leaf.f1)
            if mask.any():
                out[mask, :c] += leaf.vec[:c]
    return out


def _eval_map(m, r: np.ndarray) -> np.ndarray:
    """A lowered leaf tuple or a coefficient map, on a (P, N) batch."""
    return eval_flat_batch(m, r) if isinstance(m, tuple) else m.eval_array(r)


def _margins(r: np.ndarray, con_idx: np.ndarray, con_sign: np.ndarray) -> np.ndarray:
    if con_idx.size == 0:
        return np.full(r.shape[0], np.inf)
    vals = con_sign[None, :] * r[:, con_idx]
    return np.min(vals, axis=1) + 0.0


def run_paths(
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
    J = plan.n_vols
    M = plan.n_atoms
    dt = plan.dt
    decay = plan.decay
    sqrt_scale = plan.sqrt_scale
    atom_wdt = plan.atom_wdt
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
        acc = r + dt * _eval_map(plan.drift, r)
        for j in range(J):
            v = _eval_map(plan.vols[j], r)
            w = sqrt_scale[j] * normals[:, s, j]
            acc += v * w[:, None]
        for i in range(M):
            g = _eval_map(plan.atoms[i], r)
            f = counts_f[:, s, i] - atom_wdt[i]
            acc += g * f[:, None]
        r_new = decay[None, :] * acc

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
