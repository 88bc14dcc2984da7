"""Unit tests for the shared vectorized kernels."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import kernels
from repro.core.partition import Coloring
from repro.core.rothko import Rothko


def _random_csr(n, density, seed):
    generator = np.random.default_rng(seed)
    dense = generator.random((n, n)) * (generator.random((n, n)) < density)
    np.fill_diagonal(dense, 0.0)
    return sp.csr_matrix(dense)


class TestTakeRanges:
    def test_basic(self):
        starts = np.array([0, 10, 5])
        counts = np.array([3, 2, 1])
        np.testing.assert_array_equal(
            kernels.take_ranges(starts, counts), [0, 1, 2, 10, 11, 5]
        )

    def test_empty_ranges_skipped(self):
        starts = np.array([4, 7, 2])
        counts = np.array([2, 0, 3])
        np.testing.assert_array_equal(
            kernels.take_ranges(starts, counts), [4, 5, 2, 3, 4]
        )

    def test_all_empty(self):
        result = kernels.take_ranges(np.array([3, 9]), np.array([0, 0]))
        assert result.size == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive(self, seed):
        generator = np.random.default_rng(seed)
        starts = generator.integers(0, 50, size=12)
        counts = generator.integers(0, 6, size=12)
        naive = np.concatenate(
            [np.arange(s, s + c) for s, c in zip(starts, counts)]
            + [np.empty(0, dtype=np.int64)]
        )
        np.testing.assert_array_equal(
            kernels.take_ranges(starts, counts), naive
        )


class TestColorDegreeMatrix:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_indicator_product(self, seed):
        matrix = _random_csr(25, 0.25, seed)
        generator = np.random.default_rng(seed)
        coloring = Coloring(generator.integers(0, 5, size=25))
        k = coloring.n_colors
        expected = matrix.toarray() @ coloring.indicator().toarray()
        d_out = kernels.color_degree_matrix(
            matrix.indptr, matrix.indices, matrix.data, coloring.labels, k
        )
        np.testing.assert_allclose(d_out, expected)
        transposed = kernels.color_degree_matrix_t(
            matrix.indptr, matrix.indices, matrix.data, coloring.labels, k
        )
        np.testing.assert_allclose(transposed, expected.T)

    def test_zero_colors(self):
        matrix = _random_csr(5, 0.4, 1)
        result = kernels.color_degree_matrix(
            matrix.indptr, matrix.indices, matrix.data, np.zeros(5, int), 0
        )
        assert result.shape == (5, 0)


class TestGroupedMinmax:
    def test_zero_colors(self):
        upper, lower = kernels.grouped_minmax_by_labels(
            np.empty((0, 0)), np.empty(0, dtype=np.int64), 0
        )
        assert upper.shape == lower.shape == (0, 0)
        upper, lower = kernels.grouped_minmax_by_members(np.empty((3, 0)), [])
        assert upper.shape == lower.shape == (3, 0)

    def test_empty_graph_max_q_err(self):
        from repro.core.qerror import max_q_err

        empty = sp.csr_matrix((0, 0))
        assert max_q_err(empty, Coloring(np.empty(0, dtype=np.int64))) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_members_variant_matches_labels_variant(self, seed):
        generator = np.random.default_rng(seed)
        n, k, r = 30, 4, 3
        labels = generator.integers(0, k, size=n)
        labels[:k] = np.arange(k)  # every class non-empty
        values = generator.standard_normal((r, n))
        members = [np.flatnonzero(labels == c) for c in range(k)]
        upper_m, lower_m = kernels.grouped_minmax_by_members(values, members)
        upper_l, lower_l = kernels.grouped_minmax_by_labels(values.T, labels, k)
        np.testing.assert_allclose(upper_m, upper_l.T)
        np.testing.assert_allclose(lower_m, lower_l.T)


class TestScatterAdd:
    def test_accumulates(self):
        out = kernels.scatter_add(
            np.array([0, 2, 2, 4]), np.array([1.0, 2.0, 3.0, 4.0]), 6
        )
        np.testing.assert_allclose(out, [1.0, 0.0, 5.0, 0.0, 4.0, 0.0])

    def test_empty(self):
        np.testing.assert_array_equal(
            kernels.scatter_add(np.empty(0, int), np.empty(0), 3), np.zeros(3)
        )


class TestAsCsrSquare:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            kernels.as_csr_square(np.zeros((2, 3)))

    def test_dense_roundtrip(self):
        dense = np.arange(9.0).reshape(3, 3)
        assert kernels.as_csr_square(dense).toarray().tolist() == dense.tolist()


def _fold_rows(matrix, labels, parts, form):
    """Fold the out- and in-arcs of each row group in ``parts`` through
    one row form of the Rothko refresh (``"_fold_row_slice"``, the dense
    ``2k x |rows|`` degree slice, or ``"_fold_row_pairs"``) on an engine
    colored by ``labels``.  Returns the engine and the closed
    ``(upper, lower)``, each ``(len(parts), 2, k)`` with direction 0
    out and 1 in."""
    engine = Rothko(matrix, initial=Coloring(labels))
    k, csr, csc = engine.k, engine._csr, engine._csc
    rows = np.concatenate(parts)
    groups = np.repeat(np.arange(len(parts)), [part.size for part in parts])
    out_counts = csr.indptr[rows + 1] - csr.indptr[rows]
    in_counts = csc.indptr[rows + 1] - csc.indptr[rows]
    out_positions = kernels.take_ranges(csr.indptr[rows], out_counts)
    in_positions = kernels.take_ranges(csc.indptr[rows], in_counts)
    local = np.arange(rows.size)
    size = len(parts) * 2 * k
    upper = np.full(size, -np.inf)
    lower = np.full(size, np.inf)
    touch = np.zeros(size, dtype=np.int64)
    getattr(engine, form)(
        np.concatenate(
            [np.repeat(local, out_counts), np.repeat(local, in_counts)]
        ),
        np.concatenate([
            engine.labels[csr.indices[out_positions]],
            engine.labels[csc.indices[in_positions]] + k,
        ]),
        np.concatenate([csr.data[out_positions], csc.data[in_positions]]),
        groups,
        (upper, lower, touch),
    )
    engine._close_extrema(
        upper, lower, touch, np.repeat([part.size for part in parts], 2 * k)
    )
    return engine, upper.reshape(-1, 2, k), lower.reshape(-1, 2, k)


_ROW_FORMS = ("_fold_row_slice", "_fold_row_pairs")


class TestColorDegreeSlice:
    """The dense ``2k x |rows|`` degree slice of the Rothko refresh
    (:meth:`Rothko._fold_row_slice`): a row group's ``U``/``L`` toward
    every color in both directions, checked against the dense degree
    matrices and, bit for bit, against the sparse pairs form."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_degree_matrix(self, seed):
        matrix = _random_csr(22, 0.3, seed)
        labels = np.random.default_rng(seed).integers(0, 4, size=22)
        rows = np.array([0, 3, 9, 17, 21])
        folds = [
            _fold_rows(matrix, labels, [rows], form) for form in _ROW_FORMS
        ]
        engine, upper, lower = folds[0]
        dense = kernels.color_degree_matrices(
            engine._csr, engine.labels, engine.k
        )
        for direction, degrees in enumerate(dense):
            np.testing.assert_allclose(
                upper[0, direction], degrees[rows].max(axis=0)
            )
            np.testing.assert_allclose(
                lower[0, direction], degrees[rows].min(axis=0)
            )
        np.testing.assert_array_equal(folds[1][1], upper)
        np.testing.assert_array_equal(folds[1][2], lower)

    def test_exact_zeros(self):
        """Cells with no contributing arc are exactly 0.0 (the
        geometric/relative thresholds depend on it)."""
        matrix = sp.csr_matrix(np.array([[0.0, 0.3], [0.0, 0.0]]))
        for form in _ROW_FORMS:
            _, upper, lower = _fold_rows(
                matrix, np.array([0, 1]), [np.array([0, 1])], form
            )
            assert upper[0].tolist() == [[0.0, 0.3], [0.3, 0.0]]
            assert lower[0].tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_empty_rows(self):
        """Rows without arcs (isolated members) fold to exact zeros."""
        matrix = sp.csr_matrix((10, 10))
        rows = np.array([2, 5, 7])
        for form in _ROW_FORMS:
            _, upper, lower = _fold_rows(
                matrix, np.zeros(10, dtype=np.int64), [rows], form
            )
            assert upper.shape == (1, 2, 1)
            assert not upper.any() and not lower.any()

    @pytest.mark.parametrize("seed", range(3))
    def test_pair_stacks_both_directions(self, seed):
        """A refresh pass folds a color pair at once: group ``g``'s
        direction ``d`` lands at ``[g * 2k + d * k + color]``."""
        matrix = _random_csr(18, 0.3, seed + 7)
        labels = np.random.default_rng(seed).integers(0, 3, size=18)
        parts = [np.array([2, 5, 11]), np.array([1, 8])]
        folds = [
            _fold_rows(matrix, labels, parts, form) for form in _ROW_FORMS
        ]
        engine, upper, lower = folds[0]
        dense = kernels.color_degree_matrices(
            engine._csr, engine.labels, engine.k
        )
        for group, rows in enumerate(parts):
            for direction, degrees in enumerate(dense):
                np.testing.assert_allclose(
                    upper[group, direction], degrees[rows].max(axis=0)
                )
                np.testing.assert_allclose(
                    lower[group, direction], degrees[rows].min(axis=0)
                )
        np.testing.assert_array_equal(folds[1][1], upper)
        np.testing.assert_array_equal(folds[1][2], lower)


class TestSelectDegreesToward:
    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_target_matches_dense(self, seed):
        matrix = _random_csr(20, 0.35, seed)
        generator = np.random.default_rng(seed)
        labels = generator.integers(0, 3, size=20)
        rows = np.array([1, 6, 13, 19])
        degrees = kernels.select_degrees_toward(
            matrix.indptr, matrix.indices, matrix.data, rows, labels, 2
        )
        dense = matrix.toarray()
        expected = dense[np.ix_(rows, np.flatnonzero(labels == 2))].sum(axis=1)
        np.testing.assert_allclose(degrees, expected)

    @pytest.mark.parametrize("seed", range(3))
    def test_per_row_targets(self, seed):
        matrix = _random_csr(16, 0.4, seed + 3)
        generator = np.random.default_rng(seed)
        labels = generator.integers(0, 3, size=16)
        rows = np.array([0, 4, 9, 15])
        targets = np.array([2, 0, 1, 2])
        degrees = kernels.select_degrees_toward(
            matrix.indptr, matrix.indices, matrix.data, rows, labels, targets
        )
        dense = matrix.toarray()
        for row, target, got in zip(rows, targets, degrees):
            expected = dense[row, labels == target].sum()
            assert got == pytest.approx(expected)

    def test_no_matching_edges_exact_zero(self):
        matrix = sp.csr_matrix(np.array([[0.0, 0.5], [0.0, 0.0]]))
        labels = np.array([0, 0])
        degrees = kernels.select_degrees_toward(
            matrix.indptr, matrix.indices, matrix.data,
            np.array([0, 1]), labels, 1,
        )
        assert degrees[0] == 0.0 and degrees[1] == 0.0

    def test_empty_rows(self):
        matrix = _random_csr(8, 0.3, 0)
        degrees = kernels.select_degrees_toward(
            matrix.indptr, matrix.indices, matrix.data,
            np.empty(0, dtype=np.int64), np.zeros(8, dtype=np.int64), 0,
        )
        assert degrees.size == 0


class TestMembersOrder:
    @pytest.mark.parametrize("seed", range(3))
    def test_ordered_reduce_matches_by_members(self, seed):
        generator = np.random.default_rng(seed)
        n, k = 30, 5
        labels = np.concatenate([np.arange(k), generator.integers(0, k, n - k)])
        members = [np.flatnonzero(labels == c) for c in range(k)]
        values = generator.random((3, n))
        order, starts = kernels.members_order(members)
        upper, lower = kernels.grouped_minmax_ordered(values, order, starts)
        upper2, lower2 = kernels.grouped_minmax_by_members(values, members)
        np.testing.assert_array_equal(upper, upper2)
        np.testing.assert_array_equal(lower, lower2)

    def test_empty_members(self):
        order, starts = kernels.members_order([])
        assert order.size == 0 and starts.size == 0
        upper, lower = kernels.grouped_minmax_ordered(
            np.zeros((2, 0)), order, starts
        )
        assert upper.shape == (2, 0) and lower.shape == (2, 0)
