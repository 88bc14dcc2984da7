#!/usr/bin/env python
"""Approximate betweenness centrality on a social graph (Sec. 4.3).

Builds a facebook-style powerlaw-cluster graph, computes exact Brandes
betweenness, then compares two approximations across budgets:

* the paper's quasi-stable color-pivot method, and
* the Riondato-Kornaropoulos shortest-path sampler (the prior work in
  Table 1).

Run:  python examples/centrality_social.py
"""

import time

import numpy as np

from repro.centrality import (
    approx_betweenness,
    betweenness_centrality,
    riondato_kornaropoulos_betweenness,
)
from repro.datasets.registry import load_graph
from repro.utils.stats import spearman_rho, top_k_overlap
from repro.utils.tables import format_table


def main() -> None:
    graph = load_graph("facebook", scale=0.02)
    print(f"Social graph stand-in: {graph}\n")

    start = time.perf_counter()
    exact = betweenness_centrality(graph)
    exact_seconds = time.perf_counter() - start
    print(f"Exact Brandes betweenness: {exact_seconds:.2f}s\n")

    rows = []
    for budget in (10, 25, 50, 100):
        ours = approx_betweenness(graph, n_colors=budget, seed=0)
        rows.append(
            [
                f"q-color ({budget})",
                round(spearman_rho(exact, ours.scores), 3),
                round(top_k_overlap(exact, ours.scores, 10), 2),
                f"{ours.timings.total:.2f}s",
                f"{100 * ours.timings.total / exact_seconds:.1f}%",
            ]
        )
    for samples in (500, 2000, 8000):
        start = time.perf_counter()
        sampled = riondato_kornaropoulos_betweenness(
            graph, n_samples=samples, seed=0
        )
        seconds = time.perf_counter() - start
        rows.append(
            [
                f"RK sampling ({samples})",
                round(spearman_rho(exact, sampled), 3),
                round(top_k_overlap(exact, sampled, 10), 2),
                f"{seconds:.2f}s",
                f"{100 * seconds / exact_seconds:.1f}%",
            ]
        )
    print(format_table(
        ["method", "spearman rho", "top-10 overlap", "time", "% of exact"],
        rows,
        title="Centrality approximations vs exact Brandes",
    ))

    best = approx_betweenness(graph, n_colors=100, seed=0)
    top_exact = np.argsort(-exact)[:5]
    top_ours = np.argsort(-best.scores)[:5]
    print(
        "\nTop-5 central nodes (exact):  ", top_exact.tolist(),
        "\nTop-5 central nodes (approx): ", top_ours.tolist(),
    )


if __name__ == "__main__":
    main()
