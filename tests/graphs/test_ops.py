"""Tests for repro.graphs.ops."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.generators import erdos_renyi
from repro.graphs.ops import (
    degree_vector,
    induced_subgraph,
    perturb_add_random_edges,
)


class TestDegreeVector:
    def test_out_weighted(self, small_directed):
        degrees = degree_vector(small_directed, weighted=True, direction="out")
        assert degrees[0] == pytest.approx(3.0)

    def test_in_unweighted(self, small_directed):
        degrees = degree_vector(small_directed, weighted=False, direction="in")
        assert degrees[3] == 2.0

    def test_bad_direction(self, small_directed):
        with pytest.raises(ValueError):
            degree_vector(small_directed, direction="sideways")


class TestInducedSubgraph:
    def test_keeps_internal_edges(self, small_directed):
        sub = induced_subgraph(small_directed, [0, 1, 2])
        assert sub.n_nodes == 3
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2)
        assert not sub.has_node(3)

    def test_unknown_label(self, small_directed):
        with pytest.raises(GraphError):
            induced_subgraph(small_directed, [0, 99])


class TestPerturb:
    def test_adds_exact_count(self):
        graph = erdos_renyi(40, 0.05, seed=1)
        before = graph.n_edges
        perturbed = perturb_add_random_edges(graph, 10, seed=2)
        assert perturbed.n_edges == before + 10
        assert graph.n_edges == before  # original untouched

    def test_impossible_count_raises(self):
        graph = erdos_renyi(4, 1.0, seed=0)  # complete graph
        with pytest.raises(GraphError):
            perturb_add_random_edges(graph, 1, seed=0)

    def test_too_few_nodes(self):
        graph = WeightedDiGraph()
        graph.add_node(0)
        with pytest.raises(GraphError):
            perturb_add_random_edges(graph, 1)

    def test_deterministic(self):
        graph = erdos_renyi(30, 0.1, seed=5)
        a = perturb_add_random_edges(graph, 5, seed=9)
        b = perturb_add_random_edges(graph, 5, seed=9)
        assert set(a.edges()) == set(b.edges())
