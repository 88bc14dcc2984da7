"""Tests for Brandes betweenness against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.centrality.brandes import betweenness_centrality
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.generators import (
    barabasi_albert,
    erdos_renyi,
    karate_club,
    path_graph,
    star_graph,
)


def nx_scores(graph: WeightedDiGraph, normalized=False) -> np.ndarray:
    scores = nx.betweenness_centrality(
        graph.to_networkx(), normalized=normalized
    )
    return np.array(
        [scores[graph.label_of(i)] for i in range(graph.n_nodes)]
    )


class TestAgainstNetworkx:
    def test_karate(self):
        graph = karate_club()
        assert np.allclose(betweenness_centrality(graph), nx_scores(graph))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_undirected(self, seed):
        graph = erdos_renyi(25, 0.2, seed=seed)
        assert np.allclose(betweenness_centrality(graph), nx_scores(graph))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_directed(self, seed):
        generator = np.random.default_rng(seed)
        nx_graph = nx.gnp_random_graph(
            20, 0.2, seed=int(generator.integers(10**6)), directed=True
        )
        graph = WeightedDiGraph.from_networkx(nx_graph)
        assert np.allclose(betweenness_centrality(graph), nx_scores(graph))

    def test_normalized(self):
        graph = karate_club()
        assert np.allclose(
            betweenness_centrality(graph, normalized=True),
            nx_scores(graph, normalized=True),
        )


class TestKnownValues:
    def test_path_middle_node(self):
        # Path 0-1-2: node 1 lies on the single 0-2 shortest path.
        scores = betweenness_centrality(path_graph(3))
        assert scores.tolist() == [0.0, 1.0, 0.0]

    def test_star_hub(self):
        # Hub lies on every leaf-to-leaf path: C(5, 2) = 10 pairs.
        scores = betweenness_centrality(star_graph(5))
        assert scores[0] == 10.0
        assert np.all(scores[1:] == 0.0)

    def test_disconnected_components(self):
        graph = WeightedDiGraph(directed=False)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        graph.add_edge(3, 4)
        scores = betweenness_centrality(graph)
        assert scores[1] == 1.0
        assert scores[3] == scores[4] == 0.0


class TestSourceRestriction:
    def test_all_sources_equals_default(self):
        graph = erdos_renyi(15, 0.3, seed=1)
        full = betweenness_centrality(graph)
        explicit = betweenness_centrality(graph, sources=range(15))
        assert np.allclose(full, explicit)

    def test_weighted_sources(self):
        """Doubling every source weight doubles the scores."""
        graph = erdos_renyi(12, 0.3, seed=2)
        single = betweenness_centrality(graph)
        doubled = betweenness_centrality(
            graph, sources=range(12), source_weights=[2.0] * 12
        )
        assert np.allclose(doubled, 2.0 * single)

    def test_weight_length_mismatch(self):
        graph = path_graph(4)
        with pytest.raises(ValueError):
            betweenness_centrality(
                graph, sources=[0, 1], source_weights=[1.0]
            )


class TestDependencies:
    def test_sum_over_sources_is_centrality(self):
        """One-source runs add up to the all-source run, whatever the
        batch boundaries."""
        graph = barabasi_albert(30, 2, seed=3)
        total = np.zeros(30)
        for source in range(30):
            total += betweenness_centrality(graph, sources=[source])
        assert np.allclose(total, betweenness_centrality(graph))


class TestWeightedBetweenness:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_networkx_weighted(self, seed):
        generator = np.random.default_rng(seed)
        nx_graph = nx.gnp_random_graph(16, 0.3, seed=seed)
        graph = WeightedDiGraph(directed=False)
        for i in range(16):
            graph.add_node(i)
        for u, v in nx_graph.edges():
            weight = float(generator.integers(1, 7))
            graph.add_edge(u, v, weight)
            nx_graph[u][v]["weight"] = weight
        ours = betweenness_centrality(graph, weighted=True)
        theirs = nx.betweenness_centrality(
            nx_graph, weight="weight", normalized=False
        )
        theirs_vec = np.array([theirs[i] for i in range(16)])
        assert np.allclose(ours, theirs_vec)

    def test_unit_weights_match_bfs_variant(self):
        graph = erdos_renyi(20, 0.25, seed=9)
        assert np.allclose(
            betweenness_centrality(graph, weighted=True),
            betweenness_centrality(graph, weighted=False),
        )

    def test_nonpositive_weight_rejected(self):
        graph = WeightedDiGraph(directed=True)
        graph.add_edge(0, 1, -1.0)
        with pytest.raises(ValueError):
            betweenness_centrality(graph, weighted=True)

    def test_weights_change_routing(self):
        # Square with one heavy edge: paths avoid it, shifting centrality.
        graph = WeightedDiGraph(directed=False)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(2, 3, 1.0)
        graph.add_edge(3, 0, 10.0)
        scores = betweenness_centrality(graph, weighted=True)
        # All 0-3 traffic now routes through 1 and 2.
        assert scores[1] > 0 and scores[2] > 0
        unweighted = betweenness_centrality(graph, weighted=False)
        assert not np.allclose(scores, unweighted)
