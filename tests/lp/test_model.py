"""Tests for repro.lp.model."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import LPError
from repro.lp.generators import fig3_example
from repro.lp.model import LinearProgram


class TestConstruction:
    def test_shapes(self):
        lp = fig3_example()
        assert (lp.n_rows, lp.n_cols) == (5, 3)
        assert lp.nnz == 15

    def test_b_shape_mismatch(self):
        with pytest.raises(LPError):
            LinearProgram(sp.csr_matrix((2, 3)), np.zeros(3), np.zeros(3))

    def test_c_shape_mismatch(self):
        with pytest.raises(LPError):
            LinearProgram(sp.csr_matrix((2, 3)), np.zeros(2), np.zeros(2))

    def test_dense_input_accepted(self):
        lp = LinearProgram(np.eye(2), np.ones(2), np.ones(2))
        assert lp.nnz == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["A", "b", "c"])
    def test_non_finite_named(self, where, bad):
        a_matrix = np.arange(1.0, 13.0).reshape(4, 3)
        b, c = np.ones(4), np.ones(3)
        if where == "A":
            a_matrix[2, 1] = bad
            expected = f"A[2, 1] = {bad}"
        elif where == "b":
            b[3] = bad
            expected = f"b[3] = {bad}"
        else:
            c[1] = bad
            expected = f"c[1] = {bad}"
        with pytest.raises(LPError) as caught:
            LinearProgram(sp.csr_matrix(a_matrix), b, c)
        assert str(caught.value) == f"{expected}: LP data must be finite"


class TestFeasibility:
    def test_zero_feasible(self):
        lp = fig3_example()
        assert lp.is_feasible(np.zeros(3))

    def test_violating_point(self):
        lp = fig3_example()
        assert not lp.is_feasible(np.array([100.0, 0.0, 0.0]))

    def test_negative_rejected(self):
        lp = fig3_example()
        assert not lp.is_feasible(np.array([-1.0, 0.0, 0.0]))

    def test_shape_check(self):
        lp = fig3_example()
        with pytest.raises(LPError):
            lp.is_feasible(np.zeros(5))

    def test_objective(self):
        lp = fig3_example()
        assert lp.objective(np.array([1.0, 1.0, 0.0])) == 19.0


class TestExtendedMatrix:
    def test_layout(self):
        lp = fig3_example()
        extended = lp.extended_matrix().toarray()
        assert extended.shape == (6, 4)
        assert np.allclose(extended[:5, :3], lp.a_matrix.toarray())
        assert np.allclose(extended[:5, 3], lp.b)
        assert np.allclose(extended[5, :3], lp.c)
        assert extended[5, 3] == 0.0  # infinity corner stored as 0

    def test_bipartite_adjacency(self):
        lp = fig3_example()
        adjacency = lp.bipartite_adjacency()
        size = (5 + 1) + (3 + 1)
        assert adjacency.shape == (size, size)
        # Arc from row 0 to column 1 carries A[0, 1] = 8.
        assert adjacency[0, 6 + 1] == 8.0
        # No arcs out of column nodes.
        assert adjacency[6:, :].nnz == 0


class TestScale:
    def test_scale_preserves_argmax(self):
        from repro.lp.solve import solve_lp

        lp = fig3_example()
        scaled = lp.scale(2.0)
        original = solve_lp(lp).objective
        doubled = solve_lp(scaled).objective
        # (2A) x <= 2b has the same feasible set; objective doubles.
        assert doubled == pytest.approx(2.0 * original)

    def test_bad_factor(self):
        with pytest.raises(LPError):
            fig3_example().scale(0.0)
