"""scipy (HiGHS) backend: the default, exact LP solve."""

from __future__ import annotations

import numpy as np
import scipy.optimize

from repro.exceptions import LPError, LPInfeasibleError, LPUnboundedError
from repro.lp.model import LinearProgram


def scipy_solve(lp: LinearProgram) -> tuple[float, np.ndarray]:
    """Solve ``max c x, A x <= b, x >= 0`` with ``scipy.optimize.linprog``.

    Returns ``(optimal_value, x)``; raises the library's LP exceptions on
    infeasible/unbounded problems.
    """
    result = scipy.optimize.linprog(
        -lp.c,
        A_ub=lp.a_matrix,
        b_ub=lp.b,
        bounds=(0, None),
        method="highs",
    )
    if result.status == 2:
        raise LPInfeasibleError(f"{lp.name or 'LP'}: {result.message}")
    if result.status == 3:
        raise LPUnboundedError(f"{lp.name or 'LP'}: {result.message}")
    if not result.success:
        raise LPError(f"{lp.name or 'LP'}: linprog failed: {result.message}")
    return float(-result.fun), np.asarray(result.x, dtype=np.float64)
