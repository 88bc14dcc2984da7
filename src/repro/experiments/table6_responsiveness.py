"""Table 6: latency and responsiveness of the anytime Rothko loop.

Because Rothko refines one color at a time, an application can consume
intermediate colorings: the paper reports the time to the first usable
result, the average time between updates, and the time to convergence.
We drive :meth:`Rothko.steps` directly, re-evaluating the downstream
approximation at every snapshot; "converged" is the first time the
approximation comes within ``convergence_tol`` of its final value.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.core.partition import Coloring
from repro.core.rothko import Rothko
from repro.centrality.approx import pivot_betweenness
from repro.datasets.registry import load_flow, load_graph, load_lp
from repro.flow.approx import reduced_network
from repro.flow.network import FlowNetwork, max_flow
from repro.lp.reduction import reduce_lp
from repro.lp.solve import solve_lp
from repro.utils.stats import spearman_rho

import numpy as np


def _responsiveness(
    engine: Rothko,
    evaluate: Callable[[Coloring], float],
    max_colors: int,
    min_colors: int = 3,
    convergence_tol: float = 0.01,
) -> dict:
    """Drive the anytime loop, timing first result / updates / convergence."""
    start = time.perf_counter()
    update_times: list[float] = []
    values: list[float] = []
    first_result: float | None = None
    for step in engine.steps(max_colors=max_colors):
        if step.n_colors < min_colors:
            continue
        value = evaluate(step.coloring)
        now = time.perf_counter() - start
        if first_result is None:
            first_result = now
        update_times.append(now)
        values.append(value)
    if not values:
        raise RuntimeError("anytime loop produced no evaluations")
    final = values[-1]
    converge_time = update_times[-1]
    for t, value in zip(update_times, values):
        if final == 0:
            close = abs(value) <= convergence_tol
        else:
            close = abs(value - final) <= convergence_tol * abs(final)
        if close:
            converge_time = t
            break
    gaps = np.diff([0.0] + update_times)
    return {
        "time_to_first_s": first_result,
        "update_freq_s": float(np.mean(gaps)),
        "time_to_converge_s": converge_time,
        "updates": len(update_times),
    }


def responsiveness_rows(
    flow_dataset: str = "tsukuba0",
    lp_dataset: str = "qap15",
    centrality_dataset: str = "facebook",
    flow_scale: float = 0.005,
    lp_scale: float = 0.05,
    centrality_scale: float = 0.01,
    max_colors: int = 30,
    seed: int = 0,
) -> list[dict]:
    """One row per task type, as in Table 6."""
    rows = []

    # --- max-flow ------------------------------------------------------
    network = load_flow(flow_dataset, scale=flow_scale)
    labels = np.full(network.graph.n_nodes, 2, dtype=np.int64)
    labels[network.source_index] = 0
    labels[network.sink_index] = 1
    initial = Coloring(labels)
    frozen = (
        initial.color_of(network.source_index),
        initial.color_of(network.sink_index),
    )
    engine = Rothko(network.graph, initial=initial, frozen=frozen)

    def eval_flow(coloring: Coloring) -> float:
        reduced = reduced_network(network, coloring)
        return max_flow(reduced).value

    row = _responsiveness(engine, eval_flow, max_colors=max_colors)
    rows.append({"task": "maxflow", "dataset": flow_dataset, **row})

    # --- linear program --------------------------------------------------
    lp = load_lp(lp_dataset, scale=lp_scale)
    from repro.lp.reduction import initial_bipartite_coloring

    lp_initial, lp_frozen = initial_bipartite_coloring(lp.n_rows, lp.n_cols)
    engine = Rothko(
        lp.bipartite_adjacency(),
        initial=lp_initial,
        alpha=1.0,
        frozen=lp_frozen,
    )

    def eval_lp(coloring: Coloring) -> float:
        reduction = reduce_lp(lp, coloring=coloring)
        try:
            return solve_lp(reduction.reduced, method="scipy").objective
        except Exception:
            return 0.0

    row = _responsiveness(engine, eval_lp, max_colors=max_colors)
    rows.append({"task": "lp", "dataset": lp_dataset, **row})

    # --- centrality ------------------------------------------------------
    graph = load_graph(centrality_dataset, scale=centrality_scale)
    engine = Rothko(graph, alpha=1.0, beta=1.0, split_mean="geometric")
    exact_proxy: list[np.ndarray] = []

    def eval_centrality(coloring: Coloring) -> float:
        scores, _ = pivot_betweenness(graph, coloring, seed=seed)
        # Track rank stability against the previous snapshot: once the
        # ranking stops moving, the approximation has converged.
        if exact_proxy:
            rho = spearman_rho(exact_proxy[-1], scores)
        else:
            rho = 0.0
        exact_proxy.append(scores)
        return rho

    row = _responsiveness(engine, eval_centrality, max_colors=max_colors)
    rows.append({"task": "centrality", "dataset": centrality_dataset, **row})
    return rows
