"""Tests for the Theorem 6 flow lifting (reduced flow -> original flow)."""

import numpy as np
import pytest

from repro.core.partition import Coloring
from repro.core.qerror import max_q_err
from repro.exceptions import FlowError
from repro.flow.approx import color_flow_network, lift_flow, reduced_network
from repro.flow.network import FlowNetwork, FlowResult, max_flow, validate_flow
from repro.graphs.digraph import WeightedDiGraph
from tests.conftest import random_adjacency


def biregular_layered_network(
    n_a: int = 6, n_b: int = 4, degree: int = 2
) -> tuple[FlowNetwork, Coloring]:
    """s -> A -> B -> t with a biregular A-B block; the layer coloring is
    stable, so Corollary 9(2) applies (c_hat_1 = c_hat_2)."""
    graph = WeightedDiGraph(directed=True)
    graph.add_node("s")
    graph.add_node("t")
    a_nodes = [("a", i) for i in range(n_a)]
    b_nodes = [("b", j) for j in range(n_b)]
    for a in a_nodes:
        graph.add_edge("s", a, 2.0)
    for i in range(n_a):
        for d in range(degree):
            graph.add_edge(a_nodes[i], b_nodes[(i * degree + d) % n_b], 1.0)
    for b in b_nodes:
        graph.add_edge(b, "t", 3.0)
    labels = np.array([0, 1] + [2] * n_a + [3] * n_b)
    return FlowNetwork(graph, "s", "t"), Coloring(labels)


class TestLiftOnStableColoring:
    def test_lift_is_exact(self):
        network, coloring = biregular_layered_network()
        assert max_q_err(network.graph.to_csr(), coloring) == 0.0
        exact = max_flow(network).value
        lower = reduced_network(network, coloring, bound="lower")
        reduced = max_flow(lower, algorithm="dinic")
        # Corollary 9(2): the lower bound matches the true flow...
        assert reduced.value == pytest.approx(exact)
        # ...and the lift realizes it as a concrete valid flow.
        lifted = lift_flow(network, coloring, reduced)
        validate_flow(network, lifted)
        assert lifted.value == pytest.approx(exact)


class TestLiftOnQuasiStableColoring:
    @pytest.mark.parametrize("seed", range(5))
    def test_lifted_flow_always_valid(self, seed):
        adjacency = random_adjacency(16, 0.35, seed)
        graph = WeightedDiGraph.from_scipy(adjacency, directed=True)
        network = FlowNetwork(graph, 0, 15)
        rothko = color_flow_network(network, n_colors=6)
        lower = reduced_network(network, rothko.coloring, bound="lower")
        reduced = max_flow(lower, algorithm="dinic")
        lifted = lift_flow(network, rothko.coloring, reduced)
        validate_flow(network, lifted)
        # Lower bound property: never exceeds the true max-flow.
        assert lifted.value <= max_flow(network).value + 1e-6


class TestLiftGuards:
    def test_overfull_reduced_flow_rejected(self):
        """A flow exceeding c_hat_1 (e.g. taken from the upper-bound
        network) cannot be spread uniformly and must be refused."""
        network, coloring = biregular_layered_network()
        upper = reduced_network(network, coloring, bound="upper")
        # Inflate one reduced arc beyond the block's uniform capacity.
        a_color = coloring.color_of(network.graph.index_of(("a", 0)))
        b_color = coloring.color_of(network.graph.index_of(("b", 0)))
        fake = FlowResult(100.0, [a_color], [b_color], [100.0])
        with pytest.raises(FlowError, match="uniform"):
            lift_flow(network, coloring, fake)

    def test_zero_flow_lifts_to_zero(self):
        network, coloring = biregular_layered_network()
        lifted = lift_flow(network, coloring, FlowResult(0.0))
        validate_flow(network, lifted)
        assert lifted.value == 0.0
