"""Stable-coloring exactness through the unified pipeline.

At q = 0 the coloring is stable, and each application's reduction is
exact: the lifted LP optimum matches the full LP (Theorem 2 /
Grohe et al.), the reduced max-flow value and both ends of its
witnessed bracket match the true max-flow (Corollary 9(2)), and pivot
betweenness matches full Brandes (a stable coloring of these instances
is discrete, so every node is its own pivot).  All three run through
:func:`repro.pipeline.run_task`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.centrality.brandes import betweenness_centrality
from repro.flow.approx import flow_bracket
from repro.flow.network import FlowNetwork, max_flow
from repro.graphs.digraph import WeightedDiGraph
from repro.lp.generators import planted_block_lp
from repro.lp.solve import solve_lp
from repro.pipeline import (
    CentralityTask,
    LPTask,
    MaxFlowTask,
    run_task,
)
from tests.conftest import random_adjacency


def random_network(seed: int, n: int = 14) -> FlowNetwork:
    adjacency = random_adjacency(n, 0.35, seed)
    graph = WeightedDiGraph.from_scipy(adjacency, directed=True)
    return FlowNetwork(graph, 0, n - 1)


@st.composite
def blown_up_networks(draw):
    """A small random base network with every interior node replaced by
    ``r`` in {2, 3, 4} copies and every base arc ``(u, v, w)`` by the
    complete bipartite block of arcs ``w / (r_u r_v)`` between the
    copies.  Returns ``(network, number of base nodes)``."""
    n = draw(st.integers(3, 6))
    copies = [1] + [draw(st.integers(2, 4)) for _ in range(n - 2)] + [1]
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    weights = st.sampled_from([1.0, 2.0, 3.0, 5.0])
    arcs = draw(st.lists(
        st.tuples(st.sampled_from(pairs), weights),
        unique_by=lambda arc: arc[0], max_size=len(pairs),
    ))
    first = np.cumsum([0] + copies)
    src, dst, weight = [], [], []
    for (u, v), w in arcs:
        for a in range(first[u], first[u + 1]):
            for b in range(first[v], first[v + 1]):
                src.append(a)
                dst.append(b)
                weight.append(w / (copies[u] * copies[v]))
    graph = WeightedDiGraph.from_arrays(
        np.array(src, dtype=np.int64),
        np.array(dst, dtype=np.int64),
        np.array(weight),
        n_nodes=int(first[-1]),
    )
    return FlowNetwork(graph, 0, int(first[-1]) - 1), n


def assert_bracket_is_exact(network, result, exact):
    bracket = flow_bracket(
        network, result.coloring, result.reduced, result.solution
    )
    for bound in (result.value, bracket.lb, bracket.ub):
        assert bound == pytest.approx(exact, rel=1e-9, abs=1e-9)


class TestMaxFlowExactness:
    @pytest.mark.parametrize("seed", range(4))
    def test_stable_coloring_reduced_flow_is_exact(self, seed):
        network = random_network(seed)
        exact = max_flow(network).value
        result = run_task(MaxFlowTask(network), q=0.0)
        assert result.max_q_err == pytest.approx(0.0, abs=1e-9)
        assert result.value == pytest.approx(exact, rel=1e-9)

    @settings(deadline=None)
    @given(blown_up_networks())
    def test_blown_up_network_is_exact(self, case):
        """At q = 0 the coloring is not discrete, yet value, lb and ub
        all equal the exact max-flow."""
        network, n_base = case
        exact = max_flow(network).value
        result = run_task(MaxFlowTask(network), q=0.0)
        assert result.n_colors <= n_base < network.n_nodes
        assert_bracket_is_exact(network, result, exact)

    def test_biregular_layered_network_is_exact(self):
        """s -> A -> B -> t with a biregular A-B block: the layer
        coloring is stable."""
        graph = WeightedDiGraph(directed=True)
        graph.add_node("s")
        graph.add_node("t")
        for i in range(6):
            graph.add_edge("s", ("a", i), 2.0)
            for d in range(2):
                graph.add_edge(("a", i), ("b", (2 * i + d) % 4), 1.0)
        for j in range(4):
            graph.add_edge(("b", j), "t", 3.0)
        network = FlowNetwork(graph, "s", "t")
        exact = max_flow(network).value
        result = run_task(MaxFlowTask(network), q=0.0)
        assert result.n_colors == 4  # {s}, {t}, A, B
        assert_bracket_is_exact(network, result, exact)


class TestLPExactness:
    @pytest.mark.parametrize("mode", ["sqrt", "grohe"])
    def test_lifted_optimum_matches_full_lp(self, mode):
        lp = planted_block_lp(
            36, 27, row_groups=3, col_groups=3, noise=0.0, seed=5
        )
        exact = solve_lp(lp).objective
        result = run_task(LPTask(lp, mode=mode), q=0.0)
        assert result.max_q_err == pytest.approx(0.0, abs=1e-9)
        assert result.value == pytest.approx(exact, rel=1e-6)
        lifted = result.lifted
        assert lp.is_feasible(lifted, tol=1e-6)
        assert lp.objective(lifted) == pytest.approx(exact, rel=1e-6)


class TestCentralityExactness:
    @pytest.mark.parametrize("seed", range(3))
    def test_stable_coloring_pivot_scores_are_exact(self, seed):
        adjacency = random_adjacency(16, 0.3, seed)
        graph = WeightedDiGraph.from_scipy(adjacency, directed=True)
        result = run_task(CentralityTask(graph, seed=seed), q=0.0)
        assert result.max_q_err == pytest.approx(0.0, abs=1e-9)
        # Random weights make the stable coloring discrete, so every
        # node is its own pivot and the estimate is exact Brandes.
        assert result.n_colors == graph.n_nodes
        exact = betweenness_centrality(graph)
        np.testing.assert_allclose(result.lifted, exact, rtol=1e-9)
