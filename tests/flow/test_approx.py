"""Tests for the Theorem 6 flow approximation pipeline and its
witnessed bracket."""

import numpy as np
import pytest

from repro.core.partition import Coloring
from repro.core.reduced import block_weights
from repro.flow.approx import (
    approx_max_flow,
    color_flow_network,
    flow_bracket,
    reduced_network,
)
from repro.flow.network import FlowNetwork, max_flow
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.generators import (
    pathological_flow_network,
    pathological_layer_coloring,
)
from repro.pipeline import MaxFlowTask
from tests.conftest import random_adjacency


def random_flow_network(seed: int, n: int = 14) -> FlowNetwork:
    adjacency = random_adjacency(n, 0.35, seed)
    graph = WeightedDiGraph.from_scipy(adjacency, directed=True)
    return FlowNetwork(graph, 0, n - 1)


class TestTheorem6Bounds:
    @pytest.mark.parametrize("seed", range(8))
    def test_sandwich(self, seed):
        """lb <= maxFlow(G) <= maxFlow(G_hat_2) = ub."""
        network = random_flow_network(seed)
        exact = max_flow(network).value
        coloring = color_flow_network(network, n_colors=5).coloring
        reduced = reduced_network(network, coloring)
        solution = max_flow(reduced)
        bracket = flow_bracket(network, coloring, reduced, solution)
        assert bracket.lb <= exact + 1e-6
        assert exact <= solution.value + 1e-6
        assert bracket.ub == pytest.approx(solution.value, rel=1e-12)

    def test_discrete_coloring_is_exact(self):
        """With every node its own color the reduced graph IS the graph."""
        network = random_flow_network(3, n=10)
        labels = np.arange(10)
        labels[[0, network.sink_index]] = [0, 9]
        coloring = Coloring(labels)
        upper = max_flow(reduced_network(network, coloring)).value
        assert upper == pytest.approx(max_flow(network).value)


class TestPathologicalExample:
    """Example 7: the upper bound is wildly loose; the lifted flow still
    proves 2/n."""

    def test_bounds(self):
        for n in (6, 8, 20):
            graph, s, t = pathological_flow_network(n)
            network = FlowNetwork(graph, s, t)
            coloring = Coloring(pathological_layer_coloring(n))
            reduced = reduced_network(network, coloring)
            solution = max_flow(reduced)
            bracket = flow_bracket(network, coloring, reduced, solution)
            assert max_flow(network).value == 2.0
            assert bracket.ub >= n - 1  # ~n: a huge overestimate
            assert bracket.ub == pytest.approx(solution.value, rel=1e-12)
            assert bracket.lb == pytest.approx(2.0 / n, rel=1e-12)


class TestColorFlowNetwork:
    def test_source_sink_pinned(self):
        network = random_flow_network(1)
        result = color_flow_network(network, n_colors=6)
        coloring = result.coloring
        source_color = coloring.color_of(network.source_index)
        sink_color = coloring.color_of(network.sink_index)
        assert coloring.sizes[source_color] == 1
        assert coloring.sizes[sink_color] == 1
        assert source_color != sink_color

    def test_unpinned_coloring_rejected(self):
        network = random_flow_network(2)
        with pytest.raises(ValueError, match="singleton"):
            reduced_network(network, Coloring.trivial(network.n_nodes))

    def test_bad_bound(self):
        """The block-capacity network is the only reduced network."""
        network = random_flow_network(2)
        MaxFlowTask(network, bound="upper")
        for bound in ("lower", "middle"):
            with pytest.raises(ValueError, match=f"'{bound}'"):
                MaxFlowTask(network, bound=bound)


class TestReducedNetwork:
    @pytest.mark.parametrize("seed", range(3))
    def test_arcs_are_off_diagonal_block_capacities(self, seed):
        network = random_flow_network(seed)
        coloring = color_flow_network(network, n_colors=6).coloring
        weights = block_weights(network.graph.to_csr(), coloring).toarray()
        expected = np.where(np.eye(len(weights), dtype=bool), 0.0, weights)
        reduced = reduced_network(network, coloring)
        assert reduced.n_nodes == coloring.n_colors
        assert np.array_equal(reduced.graph.to_dense(), expected)
        # Built straight from arrays: no per-arc dict adjacency.
        assert reduced.graph._succ is None

    def test_isolated_colors_keep_their_nodes(self):
        graph = WeightedDiGraph.from_arrays(
            np.array([0]), np.array([3]), np.array([5.0]), n_nodes=4
        )
        network = FlowNetwork(graph, 0, 3)
        reduced = reduced_network(network, Coloring(np.arange(4)))
        assert reduced.n_nodes == 4
        assert max_flow(reduced).value == 5.0


class TestEndToEnd:
    @pytest.mark.parametrize("seed", range(4))
    def test_upper_approximation(self, seed):
        network = random_flow_network(seed, n=20)
        exact = max_flow(network).value
        result = approx_max_flow(network, n_colors=8)
        assert result.value >= exact - 1e-6
        assert result.n_colors <= 8
        assert result.timings.total > 0

    def test_more_colors_tighter_or_equal(self):
        """At the full discrete budget the reduced graph is the original
        graph (or a stable coloring, where Corollary 9(2) gives equality),
        so the approximation is exact."""
        network = random_flow_network(5, n=12)
        exact = max_flow(network).value
        full = approx_max_flow(network, n_colors=12)
        assert full.value == pytest.approx(exact)

    def test_q_stopping(self):
        network = random_flow_network(6, n=12)
        result = approx_max_flow(network, q=1.0)
        assert result.value >= max_flow(network).value - 1e-6

    def test_needs_stopping_rule(self):
        network = random_flow_network(7)
        with pytest.raises(ValueError):
            approx_max_flow(network)
