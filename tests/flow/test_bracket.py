"""The witnessed max-flow bracket ``lb <= maxFlow(G) <= ub``.

The sweep draws ``test_cross_check.py``'s awkward graphs (self-loops,
duplicate and zero-weight arcs, isolated nodes, unreachable sinks,
directed and undirected) with random colorings that keep ``s`` and
``t`` singletons, solves each reduced network with both algorithms, and
checks the bracket against networkx's max-flow.
"""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import Coloring
from repro.flow.approx import FlowBracket, flow_bracket, reduced_network
from repro.flow.network import FlowNetwork, max_flow
from repro.graphs.digraph import WeightedDiGraph
from repro.pipeline import MaxFlowTask, run_task
from tests.conftest import random_adjacency
from tests.solvers.test_cross_check import ALGORITHMS, awkward_graphs


def pinned_coloring(draw, n: int) -> Coloring:
    """Random colors for the interior nodes; ``0`` and ``n - 1`` alone."""
    interior = [draw(st.integers(0, n - 1)) for _ in range(n - 2)]
    return Coloring(np.array([n, *interior, n + 1]))


class TestBracketSweep:
    @settings(deadline=None)
    @given(awkward_graphs(), st.data())
    def test_bracket_holds_on_random_colorings(self, graphs, data):
        graph, nx_graph = graphs
        n = graph.n_nodes
        network = FlowNetwork(graph, 0, n - 1)
        coloring = pinned_coloring(data.draw, n)
        expected = nx.maximum_flow_value(nx_graph, 0, n - 1)
        reduced = reduced_network(network, coloring)
        for algorithm in ALGORITHMS:
            solution = max_flow(reduced, algorithm=algorithm)
            bracket = flow_bracket(network, coloring, reduced, solution)
            assert bracket.lb <= expected + 1e-9
            assert expected <= bracket.ub + 1e-9
            assert bracket.ub == pytest.approx(solution.value, rel=1e-9)
            assert bracket.gap >= 0.0


class TestBracketOnPipelineAnswers:
    @pytest.mark.parametrize("seed", range(4))
    def test_gap_bounds_the_certified_error(self, seed):
        """The reported value is ``ub``, so ``gap`` bounds its ratio
        error without an exact solve."""
        adjacency = random_adjacency(30, 0.2, seed)
        network = FlowNetwork(
            WeightedDiGraph.from_scipy(adjacency, directed=True), 0, 29
        )
        task = MaxFlowTask(network)
        result = run_task(task, n_colors=8)
        bracket = flow_bracket(
            network, result.coloring, result.reduced, result.solution
        )
        exact = max_flow(network).value
        assert bracket.lb <= exact + 1e-9
        assert bracket.ub == pytest.approx(result.value, rel=1e-12)
        assert bracket.gap >= task.certified_error(exact, result) - 1e-12


class TestGap:
    @pytest.mark.parametrize(
        "lb, ub, gap",
        [(2.0, 3.0, 0.5), (4.0, 4.0, 0.0), (0.0, 0.0, 0.0),
         (0.0, 1.0, math.inf), (1.0, 1.0 - 1e-16, 0.0)],
    )
    def test_gap(self, lb, ub, gap):
        assert FlowBracket(lb, ub).gap == gap

