"""Cross-checks of the two max-flow solvers (Dinic and push-relabel)
against networkx and each other, plus min-cut duality."""

import networkx as nx
import numpy as np
import pytest

from repro.flow.mincut import min_cut
from repro.flow.network import FlowNetwork, max_flow, validate_flow
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.generators import pathological_flow_network

ALGORITHMS = ("dinic", "push_relabel")


def random_network(seed: int, n: int = 12, density: float = 0.35):
    generator = np.random.default_rng(seed)
    nx_graph = nx.gnp_random_graph(
        n, density, seed=int(generator.integers(10**6)), directed=True
    )
    graph = WeightedDiGraph(directed=True)
    for i in range(n):
        graph.add_node(i)
    for u, v in nx_graph.edges():
        capacity = float(generator.integers(1, 10))
        graph.add_edge(u, v, capacity)
        nx_graph[u][v]["capacity"] = capacity
    return FlowNetwork(graph, 0, n - 1), nx_graph


class TestAgainstNetworkx:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("seed", range(10))
    def test_value_matches(self, algorithm, seed):
        network, nx_graph = random_network(seed)
        expected = nx.maximum_flow_value(nx_graph, 0, network.n_nodes - 1)
        result = max_flow(network, algorithm=algorithm)
        assert result.value == pytest.approx(expected)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("seed", range(10))
    def test_flow_is_valid(self, algorithm, seed):
        network, _ = random_network(seed)
        result = max_flow(network, algorithm=algorithm)
        validate_flow(network, result)


class TestEdgeCases:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_disconnected(self, algorithm):
        graph = WeightedDiGraph(directed=True)
        graph.add_node("s")
        graph.add_node("t")
        graph.add_edge("s", "x", 5.0)
        network = FlowNetwork(graph, "s", "t")
        assert max_flow(network, algorithm=algorithm).value == 0.0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_path(self, algorithm):
        graph = WeightedDiGraph(directed=True)
        graph.add_edge(0, 1, 4.0)
        graph.add_edge(1, 2, 2.0)
        network = FlowNetwork(graph, 0, 2)
        assert max_flow(network, algorithm=algorithm).value == 2.0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_antiparallel_arcs(self, algorithm):
        graph = WeightedDiGraph(directed=True)
        graph.add_edge(0, 1, 3.0)
        graph.add_edge(1, 0, 2.0)
        graph.add_edge(1, 2, 3.0)
        network = FlowNetwork(graph, 0, 2)
        assert max_flow(network, algorithm=algorithm).value == 3.0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_undirected_graph(self, algorithm):
        graph = WeightedDiGraph(directed=False)
        graph.add_edge(0, 1, 2.0)
        graph.add_edge(1, 2, 2.0)
        graph.add_edge(0, 2, 1.0)
        network = FlowNetwork(graph, 0, 2)
        assert max_flow(network, algorithm=algorithm).value == 3.0

    def test_unknown_algorithm(self):
        graph = WeightedDiGraph(directed=True)
        graph.add_edge(0, 1, 1.0)
        with pytest.raises(ValueError):
            max_flow(FlowNetwork(graph, 0, 1), algorithm="magic")


class TestPathologicalNetwork:
    """Fig. 4 / Example 7: max flow is exactly 2."""

    @pytest.mark.parametrize("n", [3, 5, 8])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_flow_is_two(self, n, algorithm):
        graph, s, t = pathological_flow_network(n)
        network = FlowNetwork(graph, s, t)
        assert max_flow(network, algorithm=algorithm).value == 2.0


class TestMinCut:
    @pytest.mark.parametrize("seed", range(8))
    def test_cut_equals_flow(self, seed):
        """Max-flow min-cut duality on random networks."""
        network, _ = random_network(seed)
        flow_value = max_flow(network).value
        cut_value, source_side, cut_arcs = min_cut(network)
        assert cut_value == pytest.approx(flow_value)
        assert network.source_index in source_side
        assert network.sink_index not in source_side

    def test_pathological_cut_is_two_arcs(self):
        graph, s, t = pathological_flow_network(6)
        cut_value, _, cut_arcs = min_cut(FlowNetwork(graph, s, t))
        assert cut_value == 2.0
        assert len(cut_arcs) == 2
