"""Tests for the quasi-stable LP reduction (Sec. 4.1), incl. Fig. 3."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.partition import Coloring
from repro.exceptions import LPError
from repro.lp.generators import fig3_example, planted_block_lp
from repro.lp.model import LinearProgram
from repro.lp.reduction import (
    approx_lp_opt,
    color_lp,
    reduce_lp,
)
from repro.lp.solve import solve_lp
from repro.utils.stats import ratio_error


@pytest.fixture
def fig3_colorings():
    """The paper's manual block partition: rows {1,2,3},{4,5}, objective
    row pinned; columns {1,2},{3}, RHS column pinned."""
    row_coloring = Coloring([0, 0, 0, 1, 1, 2])
    col_coloring = Coloring([0, 0, 1, 2])
    return row_coloring, col_coloring


class TestFig3WorkedExample:
    def test_reduced_matrix_matches_paper(self, fig3_colorings):
        lp = fig3_example()
        reduction = reduce_lp(lp, coloring=fig3_colorings)
        a_hat = reduction.reduced.a_matrix.toarray()
        expected = np.array(
            [
                [34 / np.sqrt(3 * 2), 5 / np.sqrt(3 * 1)],
                [9 / np.sqrt(2 * 2), 43 / np.sqrt(2 * 1)],
            ]
        )
        assert np.allclose(a_hat, expected)
        assert np.allclose(
            reduction.reduced.b,
            [61 / np.sqrt(3), 101 / np.sqrt(2)],
        )
        assert np.allclose(
            reduction.reduced.c, [19 / np.sqrt(2), 50 / np.sqrt(1)]
        )

    def test_block_coloring_is_one_stable(self, fig3_colorings):
        reduction = reduce_lp(fig3_example(), coloring=fig3_colorings)
        assert reduction.max_q_err == pytest.approx(1.0)

    def test_optimal_values(self, fig3_colorings):
        lp = fig3_example()
        exact = solve_lp(lp).objective
        reduction = reduce_lp(lp, coloring=fig3_colorings)
        reduced_opt = solve_lp(reduction.reduced).objective
        assert exact == pytest.approx(128.157, abs=1e-3)
        assert reduced_opt == pytest.approx(130.199, abs=1e-3)


class TestStableColoringExactness:
    """Theorem 2 at q = 0 (the Grohe et al. result): a stable coloring
    preserves the LP optimum exactly, in both reduction modes."""

    @pytest.mark.parametrize("mode", ["sqrt", "grohe"])
    def test_noiseless_planted_lp(self, mode):
        lp = planted_block_lp(
            40, 30, row_groups=4, col_groups=3, noise=0.0, seed=1
        )
        exact = solve_lp(lp).objective
        reduction = reduce_lp(lp, q=0.0, mode=mode)
        assert reduction.max_q_err == pytest.approx(0.0, abs=1e-9)
        reduced_opt = solve_lp(reduction.reduced).objective
        assert reduced_opt == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("mode", ["sqrt", "grohe"])
    def test_lifted_solution_feasible_and_optimal(self, mode):
        lp = planted_block_lp(
            30, 24, row_groups=3, col_groups=3, noise=0.0, seed=2
        )
        exact = solve_lp(lp).objective
        result = approx_lp_opt(lp, q=0.0, mode=mode)
        lifted = result.x_lifted
        assert lp.is_feasible(lifted, tol=1e-6)
        assert lp.objective(lifted) == pytest.approx(exact, rel=1e-6)


class TestQuasiStableApproximation:
    def test_error_shrinks_with_colors(self):
        lp = planted_block_lp(
            60, 40, row_groups=6, col_groups=4, noise=0.1, seed=3
        )
        exact = solve_lp(lp).objective
        errors = []
        for budget in (6, 12, 40):
            result = approx_lp_opt(lp, n_colors=budget)
            errors.append(ratio_error(exact, result.value))
        assert errors[-1] <= errors[0] + 1e-9
        assert errors[-1] < 1.2

    def test_color_budget_counts_all_colors(self):
        lp = planted_block_lp(30, 20, 3, 2, seed=4)
        reduction = reduce_lp(lp, n_colors=9)
        assert reduction.n_colors <= 9


def loop_lift(reduction, x_hat: np.ndarray) -> np.ndarray:
    """The per-column loop ``LPReduction.lift`` replaced: the oracle."""
    n = reduction.original.n_cols
    rhs_color = reduction.col_coloring.color_of(n)
    col_colors = [
        color
        for color in range(reduction.col_coloring.n_colors)
        if color != rhs_color
    ]
    value_of_color = dict(zip(col_colors, x_hat))
    sizes = reduction.col_coloring.sizes
    labels = reduction.col_coloring.labels[:n]
    x = np.zeros(n)
    for j in range(n):
        color = int(labels[j])
        if reduction.mode == "sqrt":
            x[j] = value_of_color[color] / np.sqrt(sizes[color])
        else:
            x[j] = value_of_color[color] / sizes[color]
    return x


class TestLiftGather:
    @pytest.mark.parametrize("mode", ["sqrt", "grohe"])
    @pytest.mark.parametrize("budget", [8, 16, 30])
    def test_bit_identical_to_the_loop(self, mode, budget):
        lp = planted_block_lp(
            40, 30, row_groups=4, col_groups=3, noise=0.2, seed=7
        )
        reduction = reduce_lp(lp, n_colors=budget, mode=mode)
        assert reduction.col_coloring.n_colors < lp.n_cols + 1
        x_hat = np.random.default_rng(budget).uniform(
            0.1, 9.0, reduction.reduced.n_cols
        )
        assert np.array_equal(
            reduction.lift(x_hat), loop_lift(reduction, x_hat)
        )


class TestColorLP:
    def test_pins_are_singletons(self):
        lp = fig3_example()
        rothko = color_lp(lp, n_colors=8)
        labels = rothko.coloring.labels
        # objective row node (index m) and RHS column node (last index).
        obj_color = labels[lp.n_rows]
        rhs_color = labels[-1]
        assert (labels == obj_color).sum() == 1
        assert (labels == rhs_color).sum() == 1

    def test_rows_and_columns_never_mix(self):
        lp = fig3_example()
        rothko = color_lp(lp, n_colors=8)
        labels = rothko.coloring.labels
        row_colors = set(labels[: lp.n_rows + 1].tolist())
        col_colors = set(labels[lp.n_rows + 1 :].tolist())
        assert row_colors.isdisjoint(col_colors)


class TestValidation:
    def test_row_coloring_size_check(self):
        lp = fig3_example()
        with pytest.raises(LPError):
            reduce_lp(lp, coloring=(Coloring([0, 1]), Coloring([0] * 4)))

    def test_unpinned_objective_rejected(self):
        lp = fig3_example()
        row_coloring = Coloring([0, 0, 0, 0, 0, 0])  # objective row mixed in
        col_coloring = Coloring([0, 0, 1, 2])
        with pytest.raises(LPError, match="singleton"):
            reduce_lp(lp, coloring=(row_coloring, col_coloring))

    def test_bad_mode(self, fig3_colorings):
        with pytest.raises(ValueError):
            reduce_lp(
                fig3_example(), coloring=fig3_colorings, mode="exotic"
            )

    def test_lift_shape_check(self, fig3_colorings):
        reduction = reduce_lp(fig3_example(), coloring=fig3_colorings)
        with pytest.raises(LPError):
            reduction.lift(np.zeros(7))

    def test_needs_stopping_rule(self):
        with pytest.raises(ValueError):
            approx_lp_opt(fig3_example())


class TestCompressionRatio:
    def test_reported_ratio(self, fig3_colorings):
        reduction = reduce_lp(fig3_example(), coloring=fig3_colorings)
        assert reduction.compression_ratio == pytest.approx(
            (5 * 3) / (2 * 2)
        )
