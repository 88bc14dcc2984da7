"""``solve_lp`` on HiGHS: the LP error contract and small edge cases."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import LPInfeasibleError, LPUnboundedError
from repro.lp.generators import fig3_example
from repro.lp.model import LinearProgram
from repro.lp.solve import solve_lp


def test_unknown_method_rejected():
    lp = LinearProgram(sp.csr_matrix(np.eye(1)), np.ones(1), np.ones(1))
    with pytest.raises(ValueError, match="method must be one of"):
        solve_lp(lp, method="simplex")


class TestErrors:
    def test_infeasible_detected(self):
        # x1 >= 3 and x1 <= 1 simultaneously.
        lp = LinearProgram(
            sp.csr_matrix(np.array([[-1.0], [1.0]])),
            np.array([-3.0, 1.0]),
            np.array([1.0]),
        )
        with pytest.raises(LPInfeasibleError):
            solve_lp(lp)

    def test_unbounded_detected(self):
        # maximize x with no constraint on x.
        lp = LinearProgram(
            sp.csr_matrix(np.array([[0.0]])),
            np.array([1.0]),
            np.array([1.0]),
        )
        with pytest.raises(LPUnboundedError):
            solve_lp(lp)


class TestEdgeCases:
    def test_fig3(self):
        lp = fig3_example()
        solution = solve_lp(lp)
        assert solution.objective == pytest.approx(128.157, abs=1e-3)
        assert lp.is_feasible(solution.x)

    def test_negative_b_feasible(self):
        """A x <= b with negative b: x = 0 is infeasible (x1 >= 2)."""
        # maximize x1 subject to -x1 <= -2 (x1 >= 2), x1 <= 5
        lp = LinearProgram(
            sp.csr_matrix(np.array([[-1.0], [1.0]])),
            np.array([-2.0, 5.0]),
            np.array([1.0]),
        )
        solution = solve_lp(lp)
        assert solution.objective == pytest.approx(5.0)
        assert solution.x[0] == pytest.approx(5.0)

    def test_zero_objective(self):
        lp = LinearProgram(
            sp.csr_matrix(np.eye(2)), np.ones(2), np.zeros(2)
        )
        assert solve_lp(lp).objective == 0.0

    def test_single_variable(self):
        lp = LinearProgram(
            sp.csr_matrix(np.array([[2.0]])),
            np.array([6.0]),
            np.array([3.0]),
        )
        solution = solve_lp(lp)
        assert solution.objective == pytest.approx(9.0)
        assert solution.x[0] == pytest.approx(3.0)
