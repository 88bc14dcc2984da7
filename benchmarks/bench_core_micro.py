"""Micro-benchmarks of the substrate primitives.

Not a paper artifact — these keep the building blocks honest: max-flow
solver comparison, q-error evaluation, betweenness, and the LP solvers.
"""

import pytest

from repro.centrality.brandes import betweenness_centrality
from repro.core.partition import Coloring
from repro.core.qerror import max_q_err
from repro.core.rothko import q_color
from repro.datasets.registry import load_flow
from repro.flow.network import max_flow
from repro.graphs.generators import barabasi_albert
from repro.lp.generators import planted_block_lp
from repro.lp.interior_point import interior_point_solve
from repro.lp.solve import solve_lp


@pytest.fixture(scope="module")
def flow_instance():
    return load_flow("tsukuba0", scale=0.002)


@pytest.mark.parametrize("algorithm", ["dinic", "push_relabel"])
def test_maxflow_solvers(benchmark, flow_instance, algorithm):
    result = benchmark(max_flow, flow_instance, algorithm)
    assert result.value > 0


def test_q_error_evaluation(benchmark):
    graph = barabasi_albert(3000, 4, seed=5)
    adjacency = graph.to_csr()
    coloring = Coloring(
        q_color(adjacency, n_colors=50).coloring.labels
    )
    value = benchmark(max_q_err, adjacency, coloring)
    assert value >= 0


def test_betweenness_exact(benchmark):
    graph = barabasi_albert(400, 3, seed=6)
    scores = benchmark(betweenness_centrality, graph)
    assert scores.max() > 0


@pytest.mark.parametrize("solver", ["scipy", "interior_point"])
def test_lp_solvers(benchmark, solver):
    lp = planted_block_lp(40, 30, 4, 3, seed=7)
    solution = benchmark(solve_lp, lp, solver)
    assert solution.objective > 0
