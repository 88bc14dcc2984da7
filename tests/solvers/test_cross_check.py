"""Property sweep: the exact solver tier against networkx.

The acceptance contract of the CSR-native solver core: on random
directed/undirected weighted graphs every max-flow algorithm matches
networkx's flow value, the min-cut has the same capacity and the same
minimal source side (the nodes reachable from ``s`` in any maximum
flow's residual network), the max-flow bracket lifted from a reduced
answer holds, and betweenness matches networkx's Brandes to 1e-9 —
unweighted, weighted, normalized, and restricted to weighted sources.
The hypothesis sweep adds the awkward inputs: self-loops, duplicate
and zero-weight arcs, isolated nodes and unreachable sinks
(``tests/flow/test_bracket.py`` sweeps the max-flow bracket over the
same graphs).
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.centrality.brandes import betweenness_centrality
from repro.flow.approx import color_flow_network, flow_bracket, reduced_network
from repro.flow.mincut import min_cut
from repro.flow.network import FlowNetwork, max_flow, validate_flow
from repro.graphs.digraph import WeightedDiGraph

ALGORITHMS = ("dinic", "push_relabel")


def random_flow_network(seed: int, n: int = 14, density: float = 0.3):
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


def random_weighted_graph(seed: int, n: int = 18, directed: bool = False):
    generator = np.random.default_rng(seed)
    nx_graph = nx.gnp_random_graph(n, 0.25, seed=seed, directed=directed)
    graph = WeightedDiGraph(directed=directed)
    for i in range(n):
        graph.add_node(i)
    for u, v in nx_graph.edges():
        weight = float(generator.integers(1, 7))
        graph.add_edge(u, v, weight)
        nx_graph[u][v]["weight"] = weight
    return graph, nx_graph


def nx_min_cut_source_side(nx_graph, source, sink) -> set:
    """Nodes reachable from ``source`` in networkx's final residual
    network — the minimal min-cut source side, the same for every
    maximum flow."""
    residual = nx.algorithms.flow.edmonds_karp(
        nx_graph, source, sink, capacity="capacity"
    )
    open_arcs = nx.DiGraph(
        (u, v)
        for u, v, data in residual.edges(data=True)
        if data["capacity"] - data["flow"] > 1e-12
    )
    open_arcs.add_node(source)
    return nx.descendants(open_arcs, source) | {source}


def as_vector(scores: dict, n: int) -> np.ndarray:
    return np.array([scores[i] for i in range(n)])


def nx_restricted_betweenness(nx_graph, sources, weights, weight=None):
    """``sum_s w_s * betweenness_centrality_subset(G, [s], V)``."""
    total = np.zeros(nx_graph.number_of_nodes())
    for source, source_weight in zip(sources, weights):
        scores = nx.betweenness_centrality_subset(
            nx_graph, [source], list(nx_graph), normalized=False,
            weight=weight,
        )
        total += source_weight * as_vector(scores, len(total))
    return total


class TestMaxFlowCrossCheck:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("seed", range(10))
    def test_engines_agree_with_networkx(self, algorithm, seed):
        network, nx_graph = random_flow_network(seed)
        expected = nx.maximum_flow_value(nx_graph, 0, network.n_nodes - 1)
        result = max_flow(network, algorithm=algorithm)
        assert result.value == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("seed", range(10))
    def test_arcstore_flow_is_valid(self, algorithm, seed):
        network, _ = random_flow_network(seed)
        result = max_flow(network, algorithm=algorithm)
        validate_flow(network, result)

    @pytest.mark.parametrize("seed", range(6))
    def test_undirected_engines_agree(self, seed):
        generator = np.random.default_rng(seed)
        nx_graph = nx.gnp_random_graph(12, 0.35, seed=seed)
        graph = WeightedDiGraph(directed=False)
        for i in range(12):
            graph.add_node(i)
        for u, v in nx_graph.edges():
            capacity = float(generator.integers(1, 8))
            graph.add_edge(u, v, capacity)
            nx_graph[u][v]["capacity"] = capacity
        network = FlowNetwork(graph, 0, 11)
        expected = nx.maximum_flow_value(nx_graph, 0, 11)
        for algorithm in ALGORITHMS:
            result = max_flow(network, algorithm=algorithm)
            assert result.value == pytest.approx(expected, abs=1e-9)
            validate_flow(network, result)


class TestMinCutDuality:
    @pytest.mark.parametrize("seed", range(8))
    def test_maxflow_equals_mincut_both_engines(self, seed):
        network, nx_graph = random_flow_network(seed)
        flow_value = max_flow(network).value
        cut_value, source_side, cut_arcs = min_cut(network)
        assert cut_value == pytest.approx(flow_value, abs=1e-9)
        assert cut_value == pytest.approx(
            nx.minimum_cut_value(nx_graph, 0, network.n_nodes - 1), abs=1e-9
        )
        assert network.source_index in source_side
        assert network.sink_index not in source_side
        # Cut arcs all leave the source side and add up to the cut.
        for u, v in cut_arcs:
            assert u in source_side and v not in source_side
        assert sum(
            network.graph.weight(u, v) for u, v in cut_arcs
        ) == pytest.approx(cut_value, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_engines_find_same_reachable_set(self, seed):
        """Every maximum flow leaves the same residual reachable set,
        so the min-cut source side must equal networkx's."""
        network, nx_graph = random_flow_network(seed)
        _, source_side, _ = min_cut(network)
        assert source_side == nx_min_cut_source_side(
            nx_graph, 0, network.n_nodes - 1
        )


class TestLiftedFlowValidity:
    @pytest.mark.parametrize("seed", range(4))
    def test_lower_bound_lift_validates(self, seed):
        network, nx_graph = random_flow_network(seed, n=12, density=0.4)
        coloring = color_flow_network(network, n_colors=6).coloring
        reduced = reduced_network(network, coloring)
        exact = nx.maximum_flow_value(nx_graph, 0, network.n_nodes - 1)
        for algorithm in ALGORITHMS:
            solution = max_flow(reduced, algorithm=algorithm)
            bracket = flow_bracket(network, coloring, reduced, solution)
            # The lifted lower bound cannot exceed maxFlow(G), nor the
            # lifted cut fall below it (Theorem 6).
            assert 0.0 <= bracket.lb <= exact + 1e-9
            assert exact <= bracket.ub + 1e-9
            assert bracket.ub == pytest.approx(solution.value, abs=1e-9)


class TestBetweennessCrossCheck:
    @pytest.mark.parametrize("directed", (False, True))
    @pytest.mark.parametrize("seed", range(5))
    def test_engines_match_networkx(self, directed, seed):
        graph, nx_graph = random_weighted_graph(seed, directed=directed)
        reference = nx.betweenness_centrality(nx_graph, normalized=False)
        scores = betweenness_centrality(graph)
        assert np.allclose(
            scores, as_vector(reference, graph.n_nodes), atol=1e-9
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_weighted_engines_match_networkx(self, seed):
        graph, nx_graph = random_weighted_graph(seed)
        reference = nx.betweenness_centrality(
            nx_graph, weight="weight", normalized=False
        )
        scores = betweenness_centrality(graph, weighted=True)
        assert np.allclose(
            scores, as_vector(reference, graph.n_nodes), atol=1e-9
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_restricted_sources_agree(self, seed):
        """The pivot hook (sources + weights) is the weighted sum of
        single-source subset betweenness."""
        graph, nx_graph = random_weighted_graph(seed)
        sources = list(range(0, graph.n_nodes, 3))
        weights = [1.0 + 0.5 * i for i in range(len(sources))]
        scores = betweenness_centrality(
            graph, sources=sources, source_weights=weights
        )
        expected = nx_restricted_betweenness(nx_graph, sources, weights)
        assert np.allclose(scores, expected, atol=1e-9)

    def test_normalized_agrees(self):
        graph, nx_graph = random_weighted_graph(1)
        reference = nx.betweenness_centrality(nx_graph, normalized=True)
        scores = betweenness_centrality(graph, normalized=True)
        assert np.allclose(
            scores, as_vector(reference, graph.n_nodes), atol=1e-9
        )


@st.composite
def awkward_graphs(draw):
    """Small graphs with self-loops, duplicate and zero-weight arcs,
    isolated nodes and (often) no s-t path.

    Returns ``(graph, nx_graph)``: ours is array-built (duplicates sum,
    zero weights mean "no edge"); the networkx twin carries the summed
    positive weights as both ``weight`` and ``capacity``.
    """
    n = draw(st.integers(2, 9))
    directed = draw(st.booleans())
    node = st.integers(0, n - 1)
    arcs = draw(st.lists(
        st.tuples(node, node, st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0])),
        max_size=3 * n,
    ))
    graph = WeightedDiGraph.from_arrays(
        np.array([u for u, _, _ in arcs], dtype=np.int64),
        np.array([v for _, v, _ in arcs], dtype=np.int64),
        np.array([w for _, _, w in arcs], dtype=np.float64),
        n_nodes=n,
        directed=directed,
    )
    nx_graph = nx.DiGraph() if directed else nx.Graph()
    nx_graph.add_nodes_from(range(n))
    matrix = graph.to_csr().tocoo()
    for u, v, w in zip(matrix.row, matrix.col, matrix.data):
        nx_graph.add_edge(int(u), int(v), weight=float(w), capacity=float(w))
    return graph, nx_graph


class TestRandomGraphSweep:
    @settings(max_examples=150, deadline=None)
    @given(awkward_graphs())
    def test_flow_and_cut_match_networkx(self, graphs):
        graph, nx_graph = graphs
        sink = graph.n_nodes - 1
        network = FlowNetwork(graph, 0, sink)
        expected = nx.maximum_flow_value(nx_graph, 0, sink)
        for algorithm in ALGORITHMS:
            result = max_flow(network, algorithm=algorithm)
            assert result.value == pytest.approx(expected, abs=1e-9)
            validate_flow(network, result)
        cut_value, source_side, _ = min_cut(network)
        assert cut_value == pytest.approx(expected, abs=1e-9)
        assert source_side == nx_min_cut_source_side(nx_graph, 0, sink)

    @settings(max_examples=150, deadline=None)
    @given(awkward_graphs())
    def test_betweenness_matches_networkx(self, graphs):
        graph, nx_graph = graphs
        n = graph.n_nodes
        for normalized in (False, True):
            assert np.allclose(
                betweenness_centrality(graph, normalized=normalized),
                as_vector(
                    nx.betweenness_centrality(
                        nx_graph, normalized=normalized
                    ),
                    n,
                ),
                atol=1e-9,
            )
        assert np.allclose(
            betweenness_centrality(graph, weighted=True),
            as_vector(
                nx.betweenness_centrality(
                    nx_graph, weight="weight", normalized=False
                ),
                n,
            ),
            atol=1e-9,
        )

    @settings(max_examples=60, deadline=None)
    @given(awkward_graphs(), st.data())
    def test_restricted_sources_match_networkx(self, graphs, data):
        graph, nx_graph = graphs
        n = graph.n_nodes
        sources = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
        weights = data.draw(st.lists(
            st.sampled_from([0.5, 1.0, 2.0, 3.0]),
            min_size=len(sources), max_size=len(sources),
        ))
        for weighted in (False, True):
            scores = betweenness_centrality(
                graph, sources=sources, source_weights=weights,
                weighted=weighted,
            )
            expected = nx_restricted_betweenness(
                nx_graph, sources, weights,
                weight="weight" if weighted else None,
            )
            assert np.allclose(scores, expected, atol=1e-9)
