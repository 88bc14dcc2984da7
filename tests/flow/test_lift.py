"""Lifting a reduced max-flow answer back onto ``G``.

The proportional lift of :func:`repro.flow.approx.flow_bracket` spreads
each reduced arc's flow over the arcs of its block; what it provably
routes from ``s`` to ``t`` is a lower bound on ``maxFlow(G)``, and the
lifted minimum cut an upper bound, on every Rothko coloring.
"""

import pytest

from repro.flow.approx import color_flow_network, flow_bracket, reduced_network
from repro.flow.network import FlowNetwork, max_flow
from repro.graphs.digraph import WeightedDiGraph
from tests.conftest import random_adjacency


class TestLiftOnQuasiStableColoring:
    @pytest.mark.parametrize("seed", range(5))
    def test_lifted_flow_always_valid(self, seed):
        adjacency = random_adjacency(16, 0.35, seed)
        graph = WeightedDiGraph.from_scipy(adjacency, directed=True)
        network = FlowNetwork(graph, 0, 15)
        rothko = color_flow_network(network, n_colors=6)
        reduced = reduced_network(network, rothko.coloring)
        solution = max_flow(reduced, algorithm="dinic")
        bracket = flow_bracket(network, rothko.coloring, reduced, solution)
        exact = max_flow(network).value
        # Lower bound property: never exceeds the true max-flow.
        assert 0.0 <= bracket.lb <= exact + 1e-6
        assert exact <= bracket.ub + 1e-6
        assert bracket.ub == pytest.approx(solution.value, rel=1e-9)
