"""One LP solve entry point over the two solvers in the repo.

``"scipy"`` runs HiGHS through :mod:`repro.lp.scipy_backend` (the
default, and the exact solve); ``"interior_point"`` runs the Mehrotra
solver of :mod:`repro.lp.interior_point`, which Table 1 stops early.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.lp.model import LinearProgram

METHODS = ("scipy", "interior_point")


@dataclass(frozen=True)
class LPSolution:
    """Result of :func:`solve_lp`."""

    status: str
    objective: float
    x: np.ndarray
    method: str
    elapsed: float
    iterations: int = 0


def solve_lp(
    lp: LinearProgram,
    method: str = "scipy",
    **kwargs,
) -> LPSolution:
    """Solve an LP with one of the backends.

    ``"scipy"`` (HiGHS; the default and the fast exact solve) or
    ``"interior_point"`` (our Mehrotra solver — supports early stopping,
    which Table 1's baseline needs).
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    start = time.perf_counter()
    if method == "scipy":
        from repro.lp.scipy_backend import scipy_solve

        objective, x = scipy_solve(lp, **kwargs)
        return LPSolution(
            status="optimal",
            objective=objective,
            x=x,
            method=method,
            elapsed=time.perf_counter() - start,
        )
    from repro.lp.interior_point import interior_point_solve

    result = interior_point_solve(lp, **kwargs)
    return LPSolution(
        status=result.status,
        objective=result.objective,
        x=result.x,
        method=method,
        elapsed=time.perf_counter() - start,
        iterations=result.iterations,
    )
