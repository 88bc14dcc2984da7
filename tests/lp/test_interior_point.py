"""Tests for the Mehrotra interior-point solver and early stopping."""

import numpy as np
import pytest

from repro.lp.generators import fig3_example, transportation
from repro.lp.interior_point import (
    early_stopping_solve,
    interior_point_solve,
)
from repro.lp.scipy_backend import scipy_solve
from tests.conftest import random_feasible_lp


class TestConvergence:
    def test_fig3(self):
        result = interior_point_solve(fig3_example())
        assert result.status == "optimal"
        assert result.objective == pytest.approx(128.157, abs=1e-2)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_lps(self, seed):
        lp = random_feasible_lp(seed, m=8, n=6)
        expected, _ = scipy_solve(lp)
        result = interior_point_solve(lp)
        assert result.status == "optimal"
        assert result.objective == pytest.approx(expected, rel=1e-4, abs=1e-4)

    def test_transportation(self):
        lp = transportation(5, 4, seed=1)
        expected, _ = scipy_solve(lp)
        result = interior_point_solve(lp)
        assert result.objective == pytest.approx(expected, rel=1e-4)

    def test_history_recorded(self):
        result = interior_point_solve(fig3_example())
        assert len(result.history) == result.iterations
        assert result.history[-1].duality_gap <= result.history[0].duality_gap


class TestCallback:
    def test_callback_sees_iterates(self):
        seen = []
        interior_point_solve(
            fig3_example(), callback=lambda it: seen.append(it) and False
        )
        assert len(seen) >= 2
        assert seen[0].iteration == 1

    def test_callback_can_stop(self):
        result = interior_point_solve(
            fig3_example(), callback=lambda it: it.iteration >= 3
        )
        assert result.status == "early_stopped"
        assert result.iterations == 3


class TestEarlyStopping:
    @pytest.mark.parametrize("target", [3.0, 1.5, 1.05])
    def test_certified_error_met(self, target):
        lp = fig3_example()
        optimum = 128.157
        result = early_stopping_solve(lp, target_ratio=target)
        assert result.status in ("early_stopped", "optimal")
        achieved = max(result.objective / optimum, optimum / result.objective)
        # The certificate bounds the error, with slack for near-feasibility.
        assert achieved <= target * 1.1

    def test_early_stop_is_faster(self):
        lp = random_feasible_lp(3, m=10, n=8)
        full = interior_point_solve(lp)
        stopped = early_stopping_solve(lp, target_ratio=2.0)
        assert stopped.iterations <= full.iterations

    def test_bad_target(self):
        with pytest.raises(ValueError):
            early_stopping_solve(fig3_example(), target_ratio=0.5)


class TestIterationLimit:
    def test_limit_reported(self):
        result = interior_point_solve(fig3_example(), max_iterations=1)
        assert result.status == "iteration_limit"
        assert result.iterations == 1
