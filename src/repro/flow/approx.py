"""Quasi-stable max-flow approximation (Sec. 4.2, Theorem 6).

Pipeline: color the network with the source and sink pinned to singleton
colors (``alpha = beta = 0``, the paper's choice for flow — only the total
inter-color capacity matters, not class sizes), build the reduced network
on the block capacity sums ``c_hat_2[i, j] = c(P_i, P_j)`` (one sparse
triple product), and solve max-flow on it.  Theorem 6 makes the reduced
value an upper bound on ``maxFlow(G)``.

:func:`flow_bracket` turns one reduced answer into ``lb <= maxFlow(G) <=
ub`` with both bounds witnessed on ``G``: ``ub`` is the capacity of the
lifted minimum cut and ``lb`` what the proportionally lifted flow
provably routes from ``s`` to ``t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.partition import Coloring
from repro.core.reduced import block_weights as _scratch_block_weights
from repro.core.rothko import Rothko, RothkoResult
from repro.flow.mincut import min_cut
from repro.flow.network import FlowNetwork, FlowResult
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
    *,
    block_weights: np.ndarray | sp.spmatrix | None = None,
) -> FlowNetwork:
    """Build the reduced network ``G_hat_2`` on block capacity sums.

    Color ids become node labels; the colors of ``s`` and ``t`` become the
    reduced source/sink (they must be singletons).  ``block_weights``
    accepts a precomputed ``W = S^T A S`` (canonical color-id order),
    as the pipeline runner passes it from
    :meth:`~repro.pipeline.cache.ProgressiveRun.weights`.
    """
    graph = network.graph
    source_color = coloring.color_of(network.source_index)
    sink_color = coloring.color_of(network.sink_index)
    if coloring.sizes[source_color] != 1 or coloring.sizes[sink_color] != 1:
        raise ValueError(
            "source and sink must be singleton colors (Theorem 6); use "
            "color_flow_network to build such a coloring"
        )
    capacities = sp.coo_matrix(
        _scratch_block_weights(graph.to_csr(), coloring)
        if block_weights is None
        else block_weights
    )
    keep = (capacities.row != capacities.col) & (capacities.data > 0)
    reduced = WeightedDiGraph.from_arrays(
        capacities.row[keep],
        capacities.col[keep],
        capacities.data[keep],
        n_nodes=coloring.n_colors,
    )
    return FlowNetwork(reduced, source_color, sink_color)


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
    split_mean: str = "arithmetic",
) -> ApproxFlowResult:
    """Approximate ``maxFlow(G)`` on the reduced graph (the paper's method).

    End-to-end: color (s/t pinned) -> reduce -> solve, driven through
    the shared :mod:`repro.pipeline` runner.  The result over-estimates
    the true flow (Theorem 6); :func:`flow_bracket` bounds it from both
    sides.
    """
    if n_colors is None and q is None:
        raise ValueError("approx_max_flow needs n_colors and/or q")
    from repro.pipeline import MaxFlowTask, run_task

    task = MaxFlowTask(network, split_mean=split_mean)
    result = run_task(task, n_colors=n_colors, q=q)
    return ApproxFlowResult(
        value=result.value,
        coloring=result.coloring,
        reduced=result.reduced,
        reduced_result=result.solution,
        timings=result.timings,
    )


@dataclass(frozen=True)
class FlowBracket:
    """``lb <= maxFlow(G) <= ub``, both witnessed on ``G``."""

    lb: float
    ub: float

    @property
    def gap(self) -> float:
        """``ub / lb - 1``: bounds the ratio error (minus 1) of any value
        in ``[lb, ub]``, the reported ``ub`` included.  ``0`` when both
        bounds are 0, ``inf`` when only ``lb`` is; never negative (at
        ``q = 0`` the bounds agree up to rounding)."""
        if self.lb > 0:
            return max(self.ub / self.lb - 1.0, 0.0)
        return 0.0 if self.ub == 0 else math.inf


def flow_bracket(
    network: FlowNetwork,
    coloring: Coloring,
    reduced: FlowNetwork,
    solution: FlowResult,
) -> FlowBracket:
    """Bound ``maxFlow(G)`` from one reduced answer: ``O(m)`` work on
    ``G`` plus one minimum cut of the reduced network.

    ``reduced`` must come from :func:`reduced_network` on ``coloring``
    and ``solution`` be a maximum flow of it.

    * ``ub``: lift the source side of a minimum cut of ``reduced`` to
      ``G`` through the labels; ``ub`` is the capacity of ``G``'s arcs
      leaving that node set.  Block capacities are sums, so this equals
      the reduced value up to summation order.
    * ``lb``: lift each reduced arc's flow ``F(I, J)`` onto ``G``'s arcs
      from ``P_I`` to ``P_J`` in proportion to capacity,
      ``f(u, v) = c(u, v) F(I, J) / C(I, J)``, so ``0 <= f <= c``.  With
      ``b(v)`` the net out-flow of ``f``, flow decomposition routes at
      least ``b(s)`` minus the interior deficits, and at least ``-b(t)``
      minus the interior excesses, along ``s``-``t`` paths.  On a stable
      coloring ``f`` conserves flow and ``lb = ub``.
    """
    matrix = network.graph.to_csr()
    n = matrix.shape[0]
    tails = np.repeat(np.arange(n), np.diff(matrix.indptr))
    heads = matrix.indices
    labels = coloring.labels

    _, source_side, _ = min_cut(reduced)
    lifted = np.zeros(coloring.n_colors, dtype=bool)
    lifted[list(source_side)] = True
    lifted = lifted[labels]
    ub = float(matrix.data[lifted[tails] & ~lifted[heads]].sum())

    # F(I, J) / C(I, J) of each arc's block (scipy returns a sparse
    # matrix, not an array, for empty index arrays).
    capacity = reduced.graph.to_csr()
    share = sp.csr_matrix(
        (solution.flows, (solution.tails, solution.heads)),
        shape=capacity.shape,
    ).multiply(capacity.power(-1)).tocsr()
    ratio = (
        np.asarray(share[labels[tails], labels[heads]]).ravel()
        if tails.size
        else np.zeros(0)
    )
    flow = matrix.data * np.minimum(ratio, 1.0)
    net = np.bincount(tails, flow, n) - np.bincount(heads, flow, n)
    s, t = network.source_index, network.sink_index
    interior = np.delete(net, [s, t])
    excess = float(interior[interior > 0].sum())
    deficit = float(-interior[interior < 0].sum())
    lb = max(0.0, float(net[s]) - deficit, float(-net[t]) - excess)
    return FlowBracket(lb, ub)
