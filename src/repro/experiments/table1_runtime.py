"""Table 1: runtime to reach a target approximation quality.

Top block — betweenness centrality: ours (quasi-stable color-pivot) vs
the Riondato–Kornaropoulos sampler vs exact Brandes; target is Spearman
correlation with the exact scores.

Bottom block — linear optimization: ours (reduced LP) vs early-stopping
the interior-point solver vs a full interior-point solve; target is the
ratio error of the objective.

"Runtime to achieve a target" is measured the way the paper does: run the
method at increasing budgets (colors / samples / iterations) and report
the end-to-end time of the first configuration meeting the target; a
method that never meets it within the budget ladder scores ``inf``
(rendered as the paper's "x" timeout).
"""

from __future__ import annotations

import time

from repro.centrality.approx import approx_betweenness
from repro.centrality.brandes import betweenness_centrality
from repro.centrality.sampling import riondato_kornaropoulos_betweenness
from repro.datasets.registry import load_graph, load_lp
from repro.lp.interior_point import early_stopping_solve, interior_point_solve
from repro.lp.reduction import approx_lp_opt
from repro.utils.stats import ratio_error, spearman_rho
from repro.utils.timing import time_call

CENTRALITY_TARGETS = (0.90, 0.95, 0.97)
LP_TARGETS = (3.0, 2.0, 1.5)


def _first_time_to_target(attempts) -> float:
    """First attempt's time meeting its target, else inf.

    ``attempts`` yields ``(seconds, met)`` pairs in increasing-budget
    order; evaluation cost is excluded by the callers (the paper times the
    approximation itself, not the quality measurement).
    """
    for seconds, met in attempts:
        if met:
            return seconds
    return float("inf")


def centrality_runtime_rows(
    datasets: tuple[str, ...] = ("astroph", "facebook", "deezer"),
    scale: float = 0.02,
    color_ladder: tuple[int, ...] = (10, 20, 40, 80, 160),
    sample_ladder: tuple[int, ...] = (100, 400, 1600, 6400),
    targets: tuple[float, ...] = CENTRALITY_TARGETS,
    seed: int = 0,
) -> list[dict]:
    """Table 1 (top): ours vs Riondato–Kornaropoulos vs exact Brandes."""
    rows = []
    for name in datasets:
        graph = load_graph(name, scale=scale)
        exact, exact_seconds = time_call(betweenness_centrality, graph)

        ours_runs = []
        for budget in color_ladder:
            result = approx_betweenness(graph, n_colors=budget, seed=seed)
            rho = spearman_rho(exact, result.scores)
            ours_runs.append((result.timings.total, rho))
        prior_runs = []
        for samples in sample_ladder:
            scores, seconds = time_call(
                riondato_kornaropoulos_betweenness,
                graph,
                n_samples=samples,
                seed=seed,
            )
            prior_runs.append((seconds, spearman_rho(exact, scores)))

        row = {"dataset": name, "exact_s": exact_seconds}
        for target in targets:
            row[f"ours_rho{target}"] = _first_time_to_target(
                (seconds, rho >= target) for seconds, rho in ours_runs
            )
            row[f"prior_rho{target}"] = _first_time_to_target(
                (seconds, rho >= target) for seconds, rho in prior_runs
            )
        rows.append(row)
    return rows


def lp_runtime_rows(
    datasets: tuple[str, ...] = ("qap15", "supportcase10", "ex10"),
    scale: float = 0.05,
    color_ladder: tuple[int, ...] = (8, 16, 32, 64, 128),
    targets: tuple[float, ...] = LP_TARGETS,
) -> list[dict]:
    """Table 1 (bottom): ours vs early-stopped IPM vs exact IPM."""
    rows = []
    for name in datasets:
        lp = load_lp(name, scale=scale)
        exact, exact_seconds = time_call(
            interior_point_solve, lp, 1e-8, 200
        )
        optimum = exact.objective

        ours_runs = []
        for budget in color_ladder:
            result = approx_lp_opt(lp, n_colors=budget, method="scipy")
            ours_runs.append(
                (result.timings.total, ratio_error(optimum, result.value))
            )

        row = {"dataset": name, "exact_s": exact_seconds}
        for target in targets:
            row[f"ours_err{target}"] = _first_time_to_target(
                (seconds, err <= target) for seconds, err in ours_runs
            )
            start = time.perf_counter()
            stopped = early_stopping_solve(lp, target_ratio=target)
            prior_seconds = time.perf_counter() - start
            # Stopping early or converging outright both meet the target;
            # only an iteration-limited run that missed it scores inf.
            met = ratio_error(optimum, stopped.objective) <= target * 1.05
            row[f"prior_err{target}"] = prior_seconds if met else float("inf")
        rows.append(row)
    return rows
