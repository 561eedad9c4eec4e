"""Step plans for the simulation kernel.

A plan holds the coefficient maps of one run together with every
floating constant the exponential-Euler step derives from the
semigroup, the noise and the step size, computed once per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..coefficients import CoefficientMap


@dataclass(frozen=True)
class StepPlan:
    """Everything the kernel needs to advance an ensemble: the maps and
    the derived step constants (decay factors, noise scales, the
    compensator products ``w_i * dt``)."""

    dim: int
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

    @property
    def n_vols(self) -> int:
        return len(self.vols)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)


def make_plan(
    dim: int,
    dt: float,
    drift: CoefficientMap,
    vols: tuple[CoefficientMap, ...],
    atoms: tuple[CoefficientMap, ...],
    rates: np.ndarray,
    q_eigenvalues: np.ndarray,
    atom_weights: np.ndarray,
    signs: np.ndarray,
    exit_tol: float,
    guard: float,
) -> StepPlan:
    decay = np.exp(-np.asarray(rates, dtype=np.float64) * dt)
    sqrt_scale = np.sqrt(np.asarray(q_eigenvalues, dtype=np.float64) * dt)
    atom_wdt = np.asarray(atom_weights, dtype=np.float64) * dt
    return StepPlan(
        dim=dim,
        dt=float(dt),
        drift=drift,
        vols=vols,
        atoms=atoms,
        decay=decay,
        sqrt_scale=sqrt_scale,
        atom_wdt=atom_wdt,
        signs=np.asarray(signs, dtype=np.float64),
        exit_tol=float(exit_tol),
        guard=float(guard),
    )
