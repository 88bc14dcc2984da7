"""Quasi-stable max-flow approximation (Sec. 4.2, Theorem 6).

Pipeline: color the network with the source and sink pinned to singleton
colors (``alpha = beta = 0``, the paper's choice for flow — only the total
inter-color capacity matters, not class sizes), build the reduced network,
and solve max-flow on it.

Two reduced capacity functions are supported:

* ``c_hat_2[i, j] = c(P_i, P_j)`` — block capacity sums; the reduced
  max-flow **upper-bounds** the true value and is the deployed
  approximation (cheap: one sparse triple product);
* ``c_hat_1[i, j] = maxUFlow(P_i, P_j, c)`` — uniform-flow capacities;
  the reduced max-flow **lower-bounds** the true value (expensive: one LP
  per adjacent color pair; exposed for the Theorem 6 bound experiments).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.partition import Coloring
from repro.core.reduced import block_weights as _scratch_block_weights
from repro.core.rothko import Rothko, RothkoResult
from repro.flow.network import FlowNetwork, FlowResult
from repro.flow.uniform import max_uniform_flow, max_uniform_flow_assignment
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.digraph import WeightedDiGraph
from repro.utils.timing import StageTimings


def flow_initial_coloring(
    network: FlowNetwork,
) -> tuple[Coloring, tuple[int, int]]:
    """Initial partition ``{s}, {t}, V - {s, t}`` plus the frozen ids.

    This is Theorem 6's precondition ``P_0 = {s}, P_k = {t}``; the two
    pinned colors must stay singletons, so they are returned as the
    frozen set.  Coloring canonicalizes labels by first occurrence, so
    the pinned singleton ids are looked up rather than assumed.
    """
    graph = network.graph
    labels = np.full(graph.n_nodes, 2, dtype=np.int64)
    labels[network.source_index] = 0
    labels[network.sink_index] = 1
    initial = Coloring(labels)
    frozen = (
        initial.color_of(network.source_index),
        initial.color_of(network.sink_index),
    )
    return initial, frozen


def color_flow_network(
    network: FlowNetwork,
    n_colors: int | None = None,
    q: float | None = None,
    split_mean: str = "arithmetic",
) -> RothkoResult:
    """Run Rothko on the network with ``{s}`` and ``{t}`` pinned.

    ``alpha = beta = 0`` per the paper's choice for flow — only the
    total inter-color capacity matters, not class sizes.
    """
    initial, frozen = flow_initial_coloring(network)
    engine = Rothko(
        network.graph,
        initial=initial,
        alpha=0.0,
        beta=0.0,
        split_mean=split_mean,
        frozen=frozen,
    )
    return engine.run(
        max_colors=n_colors, q_tolerance=q if q is not None else 0.0
    )


def reduced_network(
    network: FlowNetwork,
    coloring: Coloring,
    bound: str = "upper",
    block_weights: np.ndarray | sp.spmatrix | None = None,
) -> FlowNetwork:
    """Build the reduced network ``G_hat_2`` (upper) or ``G_hat_1`` (lower).

    Color ids become node labels; the colors of ``s`` and ``t`` become the
    reduced source/sink (they must be singletons).  ``block_weights``
    accepts a precomputed ``W = S^T A S`` (canonical color-id order),
    as the pipeline runner passes it from
    :meth:`~repro.pipeline.cache.ProgressiveRun.weights`.
    """
    if bound not in ("upper", "lower"):
        raise ValueError(f"bound must be 'upper' or 'lower', got {bound!r}")
    graph = network.graph
    source_color = coloring.color_of(network.source_index)
    sink_color = coloring.color_of(network.sink_index)
    if coloring.sizes[source_color] != 1 or coloring.sizes[sink_color] != 1:
        raise ValueError(
            "source and sink must be singleton colors (Theorem 6); use "
            "color_flow_network to build such a coloring"
        )

    if bound == "upper":
        capacities = (
            _scratch_block_weights(graph.to_csr(), coloring)
            if block_weights is None
            else block_weights
        )
    else:
        capacities = _uniform_capacities(graph, coloring, block_weights)

    capacities = sp.coo_matrix(capacities)
    keep = (capacities.row != capacities.col) & (capacities.data > 0)
    reduced = WeightedDiGraph.from_arrays(
        capacities.row[keep],
        capacities.col[keep],
        capacities.data[keep],
        n_nodes=coloring.n_colors,
    )
    return FlowNetwork(reduced, source_color, sink_color)


def _uniform_capacities(
    graph: WeightedDiGraph,
    coloring: Coloring,
    block_sums: np.ndarray | sp.spmatrix | None = None,
) -> sp.csr_matrix:
    """``c_hat_1``: maxUFlow of every adjacent color block (Theorem 6).

    ``block_sums`` optionally supplies the precomputed block weights
    used to find the adjacent color pairs (one LP is solved per pair).
    """
    matrix = graph.to_csr()
    if block_sums is None:
        block_sums = _scratch_block_weights(matrix, coloring)
    adjacency = sp.coo_matrix(block_sums)
    classes = coloring.classes()
    rows, cols, values = [], [], []
    for i, j, total in zip(adjacency.row, adjacency.col, adjacency.data):
        if i == j or total <= 0:
            continue
        block = BipartiteGraph(matrix[classes[i]][:, classes[j]])
        value = max_uniform_flow(block)
        if value > 0:
            rows.append(i)
            cols.append(j)
            values.append(value)
    k = coloring.n_colors
    return sp.csr_matrix((values, (rows, cols)), shape=(k, k))


@dataclass(frozen=True)
class ApproxFlowResult:
    """End-to-end output of :func:`approx_max_flow`."""

    value: float
    coloring: Coloring
    reduced: FlowNetwork
    reduced_result: FlowResult
    timings: StageTimings

    @property
    def n_colors(self) -> int:
        return self.coloring.n_colors


def approx_max_flow(
    network: FlowNetwork,
    n_colors: int | None = None,
    q: float | None = None,
    bound: str = "upper",
    split_mean: str = "arithmetic",
) -> ApproxFlowResult:
    """Approximate ``maxFlow(G)`` on the reduced graph (the paper's method).

    End-to-end: color (s/t pinned) -> reduce -> solve, driven through
    the shared :mod:`repro.pipeline` runner.  With ``bound="upper"`` the
    result over-estimates the true flow; Theorem 6 guarantees
    ``maxFlow(G_hat_1) <= maxFlow(G) <= maxFlow(G_hat_2)``.
    """
    if n_colors is None and q is None:
        raise ValueError("approx_max_flow needs n_colors and/or q")
    from repro.pipeline import MaxFlowTask, run_task

    task = MaxFlowTask(network, bound=bound, split_mean=split_mean)
    result = run_task(task, n_colors=n_colors, q=q)
    return ApproxFlowResult(
        value=result.value,
        coloring=result.coloring,
        reduced=result.reduced,
        reduced_result=result.solution,
        timings=result.timings,
    )


def lift_flow(
    network: FlowNetwork,
    coloring: Coloring,
    reduced_result: FlowResult,
    tol: float = 1e-9,
) -> FlowResult:
    """Lift a reduced flow on ``G_hat_1`` to a valid flow on ``G``.

    This is the constructive half of Theorem 6: for every reduced arc
    ``(i, j)`` carrying flow ``f_hat``, take the maximum *uniform* flow
    of the bipartite block ``(P_i, P_j, c)`` and scale it down by
    ``f_hat / f'(P_i, P_j)``.  Uniformity makes the per-node in/out flows
    constant within each color, so conservation on the reduced graph
    implies conservation on the original graph and the lifted flow has
    exactly the reduced value.

    The reduced flow must respect the ``c_hat_1`` (uniform-flow)
    capacities — i.e. come from ``reduced_network(..., bound="lower")``;
    otherwise a block cannot absorb its share and a
    :class:`~repro.exceptions.FlowError` is raised.
    """
    from repro.exceptions import FlowError

    matrix = network.graph.to_csr()
    classes = coloring.classes()
    # Each original arc lies in exactly one block, so the per-block
    # pieces never overlap and concatenate into the lifted flow.
    pieces = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
    for i, j, f_hat in zip(
        reduced_result.tails, reduced_result.heads, reduced_result.flows
    ):
        if f_hat <= tol:
            continue
        members_i = classes[i]
        members_j = classes[j]
        block = BipartiteGraph(matrix[members_i][:, members_j])
        capacity, assignment = max_uniform_flow_assignment(block)
        if f_hat > capacity + tol:
            raise FlowError(
                f"reduced flow {f_hat} between colors ({i}, {j}) exceeds "
                f"the block's maximum uniform flow {capacity}; lift the "
                "flow of the lower-bound reduced network instead"
            )
        assignment = assignment.tocoo()
        positive = assignment.data > 0
        pieces.append((
            members_i[assignment.row[positive]],
            members_j[assignment.col[positive]],
            assignment.data[positive] * (f_hat / capacity),
        ))
    tails, heads, flows = (np.concatenate(part) for part in zip(*pieces))
    return FlowResult(reduced_result.value, tails, heads, flows)
