"""Flow networks and flow validation (Sec. 4.2 definitions).

A network is ``G = (X, c, S, T)`` — here specialized to single source and
sink (as in Theorem 6); capacities are the positive arc weights of a
:class:`~repro.graphs.digraph.WeightedDiGraph`.  Undirected graphs work
unchanged: their adjacency already stores both arc directions, each with
the full capacity, the standard reduction.

Solving runs on the CSR-native solver core of :mod:`repro.solvers`: one
flat :class:`~repro.solvers.arcstore.ArcStore` per graph, vectorized
BFS, and flat-array residual updates.

``FlowResult`` carries the flow value and the per-arc assignment as
flat ``(tails, heads, flows)`` arrays so callers can validate capacity
and conservation (done in :func:`validate_flow` — O(m) numpy reductions
— used heavily by the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.exceptions import FlowError
from repro.graphs.digraph import WeightedDiGraph


@dataclass(frozen=True)
class FlowNetwork:
    """A single-source single-sink flow network."""

    graph: WeightedDiGraph
    source: Hashable
    sink: Hashable

    def __post_init__(self) -> None:
        if not self.graph.has_node(self.source):
            raise FlowError(f"source {self.source!r} not in graph")
        if not self.graph.has_node(self.sink):
            raise FlowError(f"sink {self.sink!r} not in graph")
        if self.source == self.sink:
            raise FlowError("source and sink must differ")
        # One pass over the cached CSR snapshot (the solvers and the
        # coloring read the same one).  ``weight < 0`` is false for NaN,
        # so NaN is rejected explicitly.
        matrix = self.graph.to_csr()
        bad = np.isnan(matrix.data) | (matrix.data < 0)
        if bad.any():
            position = int(np.argmax(bad))
            tail = np.searchsorted(matrix.indptr, position, side="right") - 1
            head = matrix.indices[position]
            raise FlowError(
                f"capacity {matrix.data[position]} on arc "
                f"{self.graph.label_of(int(tail))!r} -> "
                f"{self.graph.label_of(int(head))!r}: capacities must be "
                "non-negative numbers"
            )

    @property
    def source_index(self) -> int:
        return self.graph.index_of(self.source)

    @property
    def sink_index(self) -> int:
        return self.graph.index_of(self.sink)

    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes


class FlowResult:
    """A max-flow answer: the value plus per-arc flows (by node index),
    as flat ``(tails, heads, flows)`` arrays."""

    __slots__ = ("value", "tails", "heads", "flows")

    def __init__(
        self, value: float, tails=(), heads=(), flows=()
    ) -> None:
        self.value = value
        self.tails = np.asarray(tails, dtype=np.int64)
        self.heads = np.asarray(heads, dtype=np.int64)
        self.flows = np.asarray(flows, dtype=np.float64)

    def __eq__(self, other: object) -> bool:
        # Value equality over (value, per-arc flows).
        if not isinstance(other, FlowResult):
            return NotImplemented
        return (
            self.value == other.value
            and np.array_equal(self.tails, other.tails)
            and np.array_equal(self.heads, other.heads)
            and np.array_equal(self.flows, other.flows)
        )

    # Mutable arrays inside: explicitly unhashable.
    __hash__ = None

    def __repr__(self) -> str:
        return f"FlowResult(value={self.value!r}, arcs={self.flows.size})"


def validate_flow(
    network: FlowNetwork, result: FlowResult, tol: float = 1e-7
) -> None:
    """Raise :class:`FlowError` unless ``result`` is a valid s-t flow.

    Checks the capacity condition, conservation at internal nodes, and
    that the claimed value matches the net out-flow at the source — all
    as O(m) numpy reductions over the flat arc arrays.
    """
    graph = network.graph
    n = graph.n_nodes
    tails, heads, flows = result.tails, result.heads, result.flows

    if flows.size:
        worst = int(np.argmin(flows))
        if flows[worst] < -tol:
            raise FlowError(
                f"negative flow {flows[worst]} on arc "
                f"{(int(tails[worst]), int(heads[worst]))}"
            )
        # Out-of-range endpoints first: the flat key encoding below is
        # only injective over valid node indices.
        out_of_range = (tails < 0) | (tails >= n) | (heads < 0) | (heads >= n)
        if out_of_range.any():
            first = int(np.argmax(out_of_range))
            raise FlowError(
                f"flow on non-existent arc "
                f"{(int(tails[first]), int(heads[first]))}"
            )
        # Capacity lookup: CSR arc keys are sorted (row-major, sorted
        # columns), so one searchsorted resolves every flow arc.
        matrix = graph.to_csr()
        matrix.sort_indices()
        graph_keys = (
            np.repeat(
                np.arange(n, dtype=np.int64), np.diff(matrix.indptr)
            )
            * n
            + matrix.indices
        )
        flow_keys = tails.astype(np.int64) * n + heads
        positions = np.searchsorted(graph_keys, flow_keys)
        positions_clipped = np.minimum(positions, max(graph_keys.size - 1, 0))
        missing = (
            (positions >= graph_keys.size)
            | (graph_keys[positions_clipped] != flow_keys)
            if graph_keys.size
            else np.ones(flow_keys.size, dtype=bool)
        )
        if missing.any():
            first = int(np.argmax(missing))
            raise FlowError(
                f"flow on non-existent arc "
                f"{(int(tails[first]), int(heads[first]))}"
            )
        capacities = matrix.data[positions_clipped]
        over = flows > capacities + tol
        if over.any():
            first = int(np.argmax(over))
            raise FlowError(
                f"flow {flows[first]} exceeds capacity {capacities[first]} "
                f"on {(int(tails[first]), int(heads[first]))}"
            )

    net = np.zeros(n)
    if flows.size:
        net += np.bincount(tails, weights=flows, minlength=n)
        net -= np.bincount(heads, weights=flows, minlength=n)
    s, t = network.source_index, network.sink_index
    interior = np.abs(net) > tol
    interior[s] = interior[t] = False
    if interior.any():
        node = int(np.argmax(interior))
        raise FlowError(
            f"conservation violated at node {node}: {net[node]}"
        )
    if abs(net[s] - result.value) > tol:
        raise FlowError(
            f"claimed value {result.value} but source pushes {net[s]}"
        )
    if abs(net[t] + result.value) > tol:
        raise FlowError(
            f"claimed value {result.value} but sink receives {-net[t]}"
        )


def max_flow(
    network: FlowNetwork,
    algorithm: str = "dinic",
) -> FlowResult:
    """Maximum s-t flow of ``network``.

    ``algorithm`` is ``"dinic"`` (the default and the exact reference
    everywhere) or ``"push_relabel"``.
    """
    from repro.solvers import arc_store_for, dinic, push_relabel

    solvers = {"dinic": dinic, "push_relabel": push_relabel}
    if algorithm not in solvers:
        raise ValueError(
            f"algorithm must be one of {sorted(solvers)}, "
            f"got {algorithm!r}"
        )
    store = arc_store_for(network.graph)
    value, cap = solvers[algorithm](
        store, network.source_index, network.sink_index
    )
    return FlowResult(value, *store.extract_flow_arrays(cap))
