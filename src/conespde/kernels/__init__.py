"""The ensemble stepping kernel.

One NumPy loop, vectorized over paths, advances every coefficient set;
it evaluates each map on the whole batch through ``eval_array``, the
same function the condition checkers call.  ``BACKEND`` names it for
run reports.
"""

from __future__ import annotations

from . import _euler_np, plan

BACKEND = "numpy"


def step_ensemble(sp: plan.StepPlan, r0, normals, counts, store: bool = False):
    """Run the stepping kernel on pre-generated noise arrays."""
    return _euler_np.run_paths(sp, r0, normals, counts, store)
