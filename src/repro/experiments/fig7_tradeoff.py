"""Fig. 7: speed-accuracy trade-offs for the three task types.

For every dataset the exact baseline is solved once (Dinic for flow,
the LP solver for LPs, Brandes for centrality); then the coloring
approximation is evaluated at a sweep of color budgets, reporting the
task-appropriate accuracy per budget: ratio error (flow/LP, 1.0 ideal)
or Spearman's rho (centrality, 1.0 ideal).

The sweep runs through :func:`repro.pipeline.progressive_sweep`: one
Rothko run per dataset is refined toward the largest budget, pausing at
every checkpoint to reduce, solve and lift instead of re-coloring per
budget.  Checkpoint accuracies are identical
to re-coloring from scratch at each budget (Rothko is deterministic and
only ever refines).  Two timing columns tell the sweep's story:
``time_s`` is the *incremental* cost a checkpoint added on top of the
previous one (coloring since the last checkpoint + reduce + solve), and
``cum_time_s`` is the running total — the end-to-end cost of reaching
that budget through the progressive pipeline, the paper-comparable
per-point measurement (it upper-bounds a standalone run at that budget
by the earlier checkpoints' reduce/solve work).  ``time_fraction``
compares ``cum_time_s`` to the exact baseline.  Passing a shared
``cache`` reuses colorings across calls (e.g. Fig. 8's finer sweep over
the same datasets).
"""

from __future__ import annotations

from repro.centrality.brandes import betweenness_centrality
from repro.datasets.registry import load_flow, load_graph, load_lp
from repro.flow.network import max_flow
from repro.lp.solve import solve_lp
from repro.pipeline import (
    CentralityTask,
    ColoringCache,
    LPTask,
    MaxFlowTask,
    progressive_sweep,
)
from repro.utils.stats import ratio_error, spearman_rho
from repro.utils.timing import time_call

DEFAULT_FLOW_DATASETS = ("tsukuba0", "venus0", "sawtooth0")
DEFAULT_LP_DATASETS = ("qap15", "supportcase10", "ex10")
DEFAULT_CENTRALITY_DATASETS = ("astroph", "facebook", "deezer")


def _sweep_rows(name: str, results, exact_seconds: float, extras) -> list[dict]:
    """Rows for one dataset's sweep: id/timing columns + per-row extras.

    ``extras(result)`` supplies the task-specific accuracy columns.
    """
    rows = []
    cum_seconds = 0.0
    for result in results:
        cum_seconds += result.timings.total
        rows.append(
            {
                "dataset": name,
                "task": result.task,
                "colors": result.n_colors,
                **extras(result),
                "time_s": result.timings.total,
                "cum_time_s": cum_seconds,
                "exact_time_s": exact_seconds,
                "time_fraction": cum_seconds / exact_seconds
                if exact_seconds > 0
                else float("inf"),
            }
        )
    return rows


def maxflow_tradeoff(
    datasets: tuple[str, ...] = DEFAULT_FLOW_DATASETS,
    scale: float = 0.01,
    color_budgets: tuple[int, ...] = (5, 10, 20, 35),
    cache: ColoringCache | None = None,
) -> list[dict]:
    """Fig. 7(a): max-flow ratio error vs end-to-end time."""
    cache = cache if cache is not None else ColoringCache()
    rows = []
    for name in datasets:
        network = load_flow(name, scale=scale)
        exact, exact_seconds = time_call(max_flow, network)
        results = progressive_sweep(
            MaxFlowTask(network), color_budgets, cache=cache
        )
        rows += _sweep_rows(
            name,
            results,
            exact_seconds,
            lambda result: {
                "exact_value": exact.value,
                "approx_value": result.value,
                "accuracy": ratio_error(exact.value, result.value),
            },
        )
    return rows


def lp_tradeoff(
    datasets: tuple[str, ...] = DEFAULT_LP_DATASETS,
    scale: float = 0.05,
    color_budgets: tuple[int, ...] = (10, 25, 50, 100),
    method: str = "scipy",
    cache: ColoringCache | None = None,
) -> list[dict]:
    """Fig. 7(b): LP objective ratio error vs end-to-end time."""
    cache = cache if cache is not None else ColoringCache()
    rows = []
    for name in datasets:
        lp = load_lp(name, scale=scale)
        exact, exact_seconds = time_call(solve_lp, lp, method)
        results = progressive_sweep(
            LPTask(lp, method=method), color_budgets, cache=cache
        )
        rows += _sweep_rows(
            name,
            results,
            exact_seconds,
            lambda result: {
                "exact_value": exact.objective,
                "approx_value": result.value,
                "accuracy": ratio_error(exact.objective, result.value),
            },
        )
    return rows


def centrality_tradeoff(
    datasets: tuple[str, ...] = DEFAULT_CENTRALITY_DATASETS,
    scale: float = 0.02,
    color_budgets: tuple[int, ...] = (10, 25, 50, 100),
    seed: int = 0,
    cache: ColoringCache | None = None,
) -> list[dict]:
    """Fig. 7(c): Spearman rho vs end-to-end time."""
    cache = cache if cache is not None else ColoringCache()
    rows = []
    for name in datasets:
        graph = load_graph(name, scale=scale)
        exact, exact_seconds = time_call(betweenness_centrality, graph)
        results = progressive_sweep(
            CentralityTask(graph, seed=seed), color_budgets, cache=cache
        )
        rows += _sweep_rows(
            name,
            results,
            exact_seconds,
            lambda result: {
                "accuracy": spearman_rho(exact, result.lifted),
            },
        )
    return rows
