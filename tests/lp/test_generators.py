"""Tests for the structured LP generators."""

import numpy as np
import pytest

from repro.exceptions import LPError
from repro.lp.generators import (
    ex10_like,
    fig3_example,
    planted_block_lp,
    qap_like,
    supportcase_like,
    transportation,
)
from repro.lp.scipy_backend import scipy_solve


class TestFig3:
    def test_exact_data(self):
        lp = fig3_example()
        assert lp.a_matrix.toarray()[0].tolist() == [4.0, 8.0, 2.0]
        assert lp.b.tolist() == [20.0, 20.0, 21.0, 50.0, 51.0]
        assert lp.c.tolist() == [9.0, 10.0, 50.0]


class TestPlantedBlock:
    def test_shapes(self):
        lp = planted_block_lp(50, 30, 5, 3, seed=0)
        assert (lp.n_rows, lp.n_cols) == (50, 30)

    def test_deterministic(self):
        a = planted_block_lp(30, 20, 3, 2, seed=5)
        b = planted_block_lp(30, 20, 3, 2, seed=5)
        assert (a.a_matrix != b.a_matrix).nnz == 0
        assert np.array_equal(a.b, b.b)

    def test_solvable_and_bounded(self):
        lp = planted_block_lp(30, 20, 3, 2, seed=1)
        value, x = scipy_solve(lp)
        assert np.isfinite(value)
        assert value > 0

    def test_noiseless_has_stable_structure(self):
        """With noise = 0 the planted groups give a 0-error coloring of
        the extended matrix (checked via the reduction pipeline)."""
        from repro.lp.reduction import reduce_lp

        lp = planted_block_lp(24, 18, 3, 2, noise=0.0, seed=2)
        reduction = reduce_lp(lp, q=0.0)
        assert reduction.max_q_err == pytest.approx(0.0)
        # Far fewer colors than rows + cols.
        assert reduction.n_colors < (24 + 18) / 2

    def test_bad_density(self):
        with pytest.raises(LPError):
            planted_block_lp(10, 10, 2, 2, density=0.0)

    @pytest.mark.parametrize(
        "args, name",
        [
            ((5, 40, 10, 4), "row_groups"),
            ((5, 40, 0, 4), "row_groups"),
            ((10, 10, 2, 0), "col_groups"),
            ((10, 3, 2, 4), "col_groups"),
        ],
    )
    def test_bad_group_counts(self, args, name):
        with pytest.raises(LPError, match=f"{name} must be in \\[1, "):
            planted_block_lp(*args)


class TestQAPLike:
    def test_shape_scaling(self):
        lp = qap_like(size=5, seed=0)
        assert lp.n_cols == 25
        assert lp.n_rows == 2 * 5 + 5 * 4 // 2

    def test_assignment_rows_bounded_by_one(self):
        lp = qap_like(size=4, seed=0)
        assert np.all(lp.b[:8] == 1.0)

    def test_solvable(self):
        value, x = scipy_solve(qap_like(size=4, seed=1))
        assert np.isfinite(value)
        assert value > 0


class TestShapeFamilies:
    def test_supportcase_is_wide(self):
        lp = supportcase_like(n_rows=40, n_cols=400, seed=0)
        assert lp.n_cols > 5 * lp.n_rows

    def test_ex10_is_tall(self):
        lp = ex10_like(n_rows=400, n_cols=60, seed=0)
        assert lp.n_rows > 5 * lp.n_cols

    def test_transportation_structure(self):
        lp = transportation(3, 4, seed=0)
        assert (lp.n_rows, lp.n_cols) == (7, 12)
        # Every variable appears in exactly one supply and one demand row.
        assert np.all(
            np.asarray(lp.a_matrix.sum(axis=0)).ravel() == 2.0
        )
