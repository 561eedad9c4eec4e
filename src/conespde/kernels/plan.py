"""Lowered coefficient maps and step plans for the simulation kernels.

A coefficient map that belongs to one of the built-in families can be
*lowered* to a flat tuple of additive leaves.  Both kernels (compiled
and numpy fallback) evaluate the same flat form with the same
multiply/accumulate order, which is what makes their outputs bitwise
identical.  Maps that cannot be lowered (tabulated interpolants,
arbitrary callables, retracted compositions) go into the plan as
themselves; only the numpy fallback accepts such a plan, and it
evaluates them on the whole batch of paths through ``eval_array``.

Leaf codes::

    CONSTANT       out[k] += vec[k]                        for k < cutoff
    MEAN_REV       out[k] += f0 * (vec[k] - r[k])          for k < cutoff
    PROPORTIONAL   out[i0] += f0 * r[i0]                   if i0 < cutoff
    DENSE          out[k] += vec[k]; then, for each column l in order,
                   out[k] += mat[k, l] * r[l]              for k < cutoff
    GATED          out[k] += vec[k] for k < cutoff, only while
                   f0 <= r[i0] <= f1

The zero map lowers to an empty leaf tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..coefficients import CoefficientMap

CONSTANT = 0
MEAN_REV = 1
PROPORTIONAL = 2
DENSE = 3
GATED = 4


@dataclass(frozen=True)
class Leaf:
    """One additive term of a lowered map.  See module docstring."""

    code: int
    cutoff: int
    i0: int = -1
    f0: float = 0.0
    f1: float = 0.0
    vec: np.ndarray | None = None
    mat: np.ndarray | None = None

    def with_cutoff(self, n: int) -> "Leaf":
        return Leaf(self.code, min(self.cutoff, n), self.i0, self.f0, self.f1, self.vec, self.mat)


FlatMap = tuple[Leaf, ...]


@dataclass(frozen=True)
class StepPlan:
    """Everything a kernel needs to advance an ensemble.

    All derived floating constants (decay factors, noise scales, the
    compensator products ``w_i * dt``) are computed once here so each
    backend consumes identical values.
    """

    dim: int
    dt: float
    drift: FlatMap | CoefficientMap
    vols: tuple[FlatMap | CoefficientMap, ...]
    atoms: tuple[FlatMap | CoefficientMap, ...]
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
    drift: FlatMap | CoefficientMap,
    vols: tuple[FlatMap | CoefficientMap, ...],
    atoms: tuple[FlatMap | CoefficientMap, ...],
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


def pack_maps(maps: list[FlatMap], dim: int):
    """Pack flat maps into contiguous arrays for the compiled kernel.

    Returns a dict of arrays: per-map leaf offsets plus per-leaf codes,
    cutoffs, integer and float parameters, vectors, and dense blocks.
    """
    offsets = [0]
    codes, cutoffs, i0s, f0s, f1s = [], [], [], [], []
    vecs, dense_idx, dense_mats = [], [], []
    for fm in maps:
        for leaf in fm:
            codes.append(leaf.code)
            cutoffs.append(leaf.cutoff)
            i0s.append(leaf.i0)
            f0s.append(leaf.f0)
            f1s.append(leaf.f1)
            vecs.append(
                np.zeros(dim) if leaf.vec is None else np.asarray(leaf.vec, dtype=np.float64)
            )
            if leaf.mat is not None:
                dense_idx.append(len(dense_mats))
                dense_mats.append(np.asarray(leaf.mat, dtype=np.float64))
            else:
                dense_idx.append(-1)
        offsets.append(len(codes))
    n_leaves = len(codes)
    return {
        "offsets": np.asarray(offsets, dtype=np.int64),
        "codes": np.asarray(codes, dtype=np.int64),
        "cutoffs": np.asarray(cutoffs, dtype=np.int64),
        "i0": np.asarray(i0s, dtype=np.int64),
        "f0": np.asarray(f0s, dtype=np.float64),
        "f1": np.asarray(f1s, dtype=np.float64),
        "vecs": (
            np.stack(vecs) if n_leaves else np.zeros((0, dim))
        ),
        "dense_idx": np.asarray(dense_idx, dtype=np.int64),
        "dense": (
            np.stack(dense_mats) if dense_mats else np.zeros((0, dim, dim))
        ),
    }
