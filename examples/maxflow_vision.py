#!/usr/bin/env python
"""Approximate max-flow on a vision-style grid network (Sec. 4.2).

Builds a BK-style stereo instance (the structure of the paper's Tsukuba/
Venus benchmarks), solves it exactly with Dinic, then sweeps the
quasi-stable approximation across color budgets — the Fig. 7(a)
experiment at example scale.  Also brackets the exact value from one
reduced answer: ``lb <= maxFlow(G) <= ub``, both witnessed on ``G``.

Run:  python examples/maxflow_vision.py
"""

import time

from repro.datasets.flows import vision_grid_instance
from repro.flow.approx import approx_max_flow, flow_bracket
from repro.flow.network import max_flow
from repro.utils.stats import ratio_error
from repro.utils.tables import format_table


def main() -> None:
    network = vision_grid_instance(24, 24, levels=12, seed=3)
    graph = network.graph
    print(
        f"Vision grid instance: {graph.n_nodes} nodes, "
        f"{graph.n_arcs} arcs\n"
    )

    start = time.perf_counter()
    exact = max_flow(network)
    exact_seconds = time.perf_counter() - start
    print(
        f"Exact max-flow (Dinic): {exact.value:.1f} "
        f"in {exact_seconds:.2f}s\n"
    )

    rows = []
    for budget in (4, 8, 16, 32, 64):
        result = approx_max_flow(network, n_colors=budget)
        rows.append(
            [
                budget,
                result.n_colors,
                round(result.value, 1),
                round(ratio_error(exact.value, result.value), 3),
                f"{result.timings.total:.3f}s",
                f"{100 * result.timings.total / exact_seconds:.1f}%",
            ]
        )
    print(format_table(
        ["budget", "colors", "approx flow", "ratio error", "time",
         "% of exact time"],
        rows,
        title="Fig. 7(a)-style sweep: accuracy vs color budget",
    ))

    # --- the witnessed bracket -------------------------------------------
    result = approx_max_flow(network, n_colors=16)
    bracket = flow_bracket(
        network, result.coloring, result.reduced, result.reduced_result
    )
    print(
        f"\nBracket at {result.n_colors} colors:\n"
        f"  lb         = {bracket.lb:8.1f}   (proportionally lifted flow)\n"
        f"  maxFlow(G) = {exact.value:8.1f}\n"
        f"  ub         = {bracket.ub:8.1f}   (lifted minimum cut)\n"
        f"  gap        = {bracket.gap:8.3f}   (ub / lb - 1)"
    )
    assert bracket.lb - 1e-6 <= exact.value <= bracket.ub + 1e-6


if __name__ == "__main__":
    main()
