#!/usr/bin/env python
"""One coloring serving all three applications across a k-schedule.

The unified pipeline (``repro.pipeline``) treats max-flow, LPs, and
betweenness centrality as one compress–solve–lift pattern.  This example
runs all three tasks through a single :class:`ColoringCache` over a
shared schedule of color budgets:

* each task's Rothko engine colors **once**, progressively — every
  budget in the schedule is a checkpoint of the same run instead of a
  fresh coloring;
* variants of the same task (LP ``sqrt`` *and* ``grohe`` weight
  modes) hit the cache and share the coloring outright;
* every max-flow checkpoint brackets the exact value from its own
  reduced answer, with no exact solve.

Run:  python examples/progressive_pipeline.py
"""

from repro.centrality.brandes import betweenness_centrality
from repro.datasets.flows import vision_grid_instance
from repro.datasets.registry import load_graph, load_lp
from repro.flow.approx import flow_bracket
from repro.flow.network import max_flow
from repro.lp.solve import solve_lp
from repro.pipeline import (
    CentralityTask,
    ColoringCache,
    LPTask,
    MaxFlowTask,
    progressive_sweep,
    run_task,
)
from repro.utils.stats import ratio_error, spearman_rho
from repro.utils.tables import format_table

SCHEDULE = (4, 6, 8, 12, 16, 24, 32, 48)


def main() -> None:
    cache = ColoringCache()

    # --- the three problems -------------------------------------------
    network = vision_grid_instance(20, 20, levels=12, seed=1)
    lp = load_lp("qap15", scale=0.05)
    graph = load_graph("deezer", scale=0.006)

    exact_flow = max_flow(network).value
    exact_opt = solve_lp(lp).objective
    exact_scores = betweenness_centrality(graph)

    # --- one progressive sweep per task, one shared cache -------------
    sweeps = {
        "maxflow": progressive_sweep(
            MaxFlowTask(network), SCHEDULE, cache=cache
        ),
        "lp": progressive_sweep(
            LPTask(lp), [max(6, k) for k in SCHEDULE], cache=cache
        ),
        "centrality": progressive_sweep(
            CentralityTask(graph, seed=0), SCHEDULE, cache=cache
        ),
    }

    rows = []
    for budget, flow_r, lp_r, cen_r in zip(
        SCHEDULE, sweeps["maxflow"], sweeps["lp"], sweeps["centrality"]
    ):
        rows.append(
            [
                budget,
                f"{ratio_error(exact_flow, flow_r.value):.3f}",
                f"{ratio_error(exact_opt, lp_r.value):.3f}",
                f"{spearman_rho(exact_scores, cen_r.lifted):.3f}",
            ]
        )
    print(format_table(
        ["colors", "flow ratio err", "LP ratio err", "centrality rho"],
        rows,
        title="One progressive coloring per task, solutions at every "
        "checkpoint",
    ))
    print(
        f"\nColoring runs so far: {len(cache)} (one per task) for "
        f"{sum(len(s) for s in sweeps.values())} solved checkpoints; "
        f"cache hits {cache.hits}, misses {cache.misses}."
    )

    # --- each max-flow checkpoint brackets the exact value ------------
    bracket_rows = []
    for result in sweeps["maxflow"]:
        bracket = flow_bracket(
            network, result.coloring, result.reduced, result.solution
        )
        bracket_rows.append([
            result.n_colors,
            f"{bracket.lb:.1f}",
            f"{bracket.ub:.1f}",
            f"{bracket.gap:.3f}",
        ])
    print()
    print(format_table(
        ["colors", "lb", "ub", "gap"],
        bracket_rows,
        title=f"Witnessed bracket of maxFlow(G) = {exact_flow:.1f} from "
        "the cached sweep",
    ))

    # --- variants reuse the same coloring run -------------------------
    grohe = run_task(
        LPTask(lp, mode="grohe"), n_colors=max(6, SCHEDULE[-1]), cache=cache,
    )
    print(
        f"\nGrohe-mode LP optimum from the cached coloring: "
        f"{grohe.value:.2f} (exact {exact_opt:.2f})"
    )
    print(
        f"\nStill {len(cache)} coloring runs after the variants "
        f"(cache hits {cache.hits})."
    )


if __name__ == "__main__":
    main()
