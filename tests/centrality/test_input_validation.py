"""Brandes input is validated once, at its boundary.

Out-of-range or non-integral sources, non-finite source weights, NaN,
infinite or non-positive arc lengths on the weighted path, a
non-square adjacency and a pivot count below one raise a
``ValueError`` that names the first bad value — instead of a ``nan``
or all-zero score vector, an empty answer or a numpy error from deep
inside a kernel.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from repro.centrality.approx import pivot_betweenness
from repro.centrality.brandes import betweenness_centrality
from repro.core.partition import Coloring
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.generators import karate_club, path_graph
from repro.solvers import betweenness_centrality_csr
from tests.conftest import store_with_weights


@pytest.fixture
def karate():
    return karate_club()


class TestSources:
    @pytest.mark.parametrize("bad", [-1, 34, 10**9])
    def test_out_of_range_source_rejected(self, karate, bad):
        with pytest.raises(ValueError, match=rf"source {bad} is not a node"):
            betweenness_centrality(karate, sources=[0, bad])

    def test_first_bad_source_named(self, karate):
        with pytest.raises(ValueError, match="source 34 "):
            betweenness_centrality(karate, sources=[5, 34, -1])

    def test_weighted_variant_checks_too(self, karate):
        with pytest.raises(ValueError, match="source 34 "):
            betweenness_centrality(karate, sources=[34], weighted=True)

    @pytest.mark.parametrize("bad", [1.7, -0.5, np.nan, np.inf])
    def test_non_integral_source_rejected(self, karate, bad):
        with pytest.raises(ValueError, match=f"source {bad} is not a node"):
            betweenness_centrality(karate, sources=[0, bad])

    def test_integral_values_of_any_type_accepted(self, karate):
        expected = betweenness_centrality(karate, sources=[2, 3])
        got = betweenness_centrality(
            karate, sources=np.array([2.0, 3.0])
        )
        assert np.array_equal(got, expected)
        got = betweenness_centrality(karate, sources=np.array([2, 3]))
        assert np.array_equal(got, expected)


def _path_with_length(length: float, tmp_path) -> WeightedDiGraph:
    """The undirected path 0-1-2-3 with edge (0, 1) of ``length``.

    ``add_edge`` and the store writer refuse a NaN or infinite weight,
    so such a path is read from an edge store edited on disk.
    """
    if not math.isfinite(length):
        store = store_with_weights(
            tmp_path / "path", [0, 1, 2], [1, 2, 3], [length, 1.0, 1.0],
            directed=False,
        )
        return WeightedDiGraph.from_edgestore(store)
    graph = WeightedDiGraph(directed=False)
    graph.add_edge(0, 1, length)
    graph.add_edge(1, 2, 1.0)
    graph.add_edge(2, 3, 1.0)
    return graph


class TestArcLengths:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -2.0])
    def test_bad_length_named_by_arc(self, bad, tmp_path):
        with pytest.raises(
            ValueError, match=f"arc 0 -> 1 has weight {bad}$"
        ):
            betweenness_centrality(
                _path_with_length(bad, tmp_path), weighted=True
            )

    def test_first_bad_arc_in_row_order(self):
        matrix = sp.csr_matrix(
            np.array([[0.0, 1.0, 0.0], [0.0, 0.0, np.inf], [-1.0, 0, 0]])
        )
        with pytest.raises(ValueError, match=r"arc 1 -> 2 has weight inf"):
            betweenness_centrality_csr(matrix, directed=True, weighted=True)

    def test_stored_zero_length_rejected(self):
        matrix = sp.csr_matrix(
            (np.array([1.0, 0.0]), np.array([1, 0]), np.array([0, 1, 2])),
            shape=(2, 2),
        )
        with pytest.raises(ValueError, match=r"arc 1 -> 0 has weight 0\.0"):
            betweenness_centrality_csr(matrix, directed=True, weighted=True)

    def test_unweighted_path_ignores_lengths(self, tmp_path):
        scores = betweenness_centrality(_path_with_length(np.nan, tmp_path))
        assert np.array_equal(
            scores, betweenness_centrality(path_graph(4))
        )


class TestShape:
    def test_non_square_adjacency_rejected(self):
        matrix = sp.csr_matrix(np.ones((2, 3)))
        with pytest.raises(ValueError, match="must be square, got shape 2x3"):
            betweenness_centrality_csr(matrix, directed=True)


class TestSourceWeights:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, karate, bad):
        with pytest.raises(ValueError, match=f"source weight {bad} "):
            betweenness_centrality(
                karate, sources=[0, 1], source_weights=[1.0, bad]
            )

    def test_negative_finite_weight_is_a_signed_combination(self, karate):
        unit = betweenness_centrality(karate, sources=[0, 7])
        first = betweenness_centrality(karate, sources=[0])
        signed = betweenness_centrality(
            karate, sources=[0, 7], source_weights=[-2.0, 1.0]
        )
        assert np.allclose(signed, unit - 3.0 * first)


class TestPivotsPerColor:
    @pytest.mark.parametrize("bad", [0, -1])
    def test_below_one_rejected(self, karate, bad):
        coloring = Coloring(np.arange(34) % 4)
        with pytest.raises(
            ValueError, match=f"pivots_per_color must be >= 1, got {bad}"
        ):
            pivot_betweenness(karate, coloring, pivots_per_color=bad)
