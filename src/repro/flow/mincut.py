"""Min-cut extraction (max-flow min-cut theorem, used for validation).

Runs :func:`repro.solvers.maxflow.dinic` and reads reachability straight
off the final residual arrays — one vectorized BFS, then a mask over the
forward arcs picks the crossing set.
"""

from __future__ import annotations

from typing import Tuple

from repro.flow.network import FlowNetwork


def min_cut(
    network: FlowNetwork,
) -> Tuple[float, set[int], list[tuple[int, int]]]:
    """Return ``(capacity, source_side, cut_arcs)`` of a minimum s-t cut.

    Runs Dinic to max-flow, then collects the nodes still reachable in the
    residual graph; the cut arcs are the original arcs leaving that set.
    By max-flow/min-cut the returned capacity equals the max-flow value —
    the property tests assert exactly this.
    """
    from repro.solvers import arc_store_for
    from repro.solvers.maxflow import min_cut as _min_cut

    store = arc_store_for(network.graph)
    capacity, source_side, cut_arcs, _ = _min_cut(
        store, network.source_index, network.sink_index
    )
    return capacity, source_side, cut_arcs
