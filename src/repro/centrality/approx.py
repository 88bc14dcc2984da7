"""Color-pivot betweenness approximation (Sec. 4.3).

The paper's recipe: compute a quasi-stable coloring with ``alpha = beta =
1`` ("the number of paths depends on both the number of nodes in source
and target color"), assume same-colored nodes have interchangeable
centrality roles, and evaluate the centrality sum once per color.

Computing Eq. (9) for a single vertex still costs a full APSP, so "once
per color" is realized on the *source side* of Brandes' algorithm: one
dependency-accumulation pass from a single representative source per
color, scaled by the color's size.  This estimates
``g(v) = sum_s delta_s(v) ~= sum_colors |P_i| * delta_{rep(P_i)}(v)``
and is exact whenever same-colored sources have identical dependency
vectors — which a stable coloring approaches and a q-coloring
approximates.  The per-color representative is chosen uniformly at
random, matching "randomly sampling some v in that color".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.partition import Coloring
from repro.centrality.brandes import betweenness_centrality
from repro.graphs.digraph import WeightedDiGraph
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.timing import StageTimings


@dataclass(frozen=True)
class ApproxCentralityResult:
    """End-to-end output of :func:`approx_betweenness`."""

    scores: np.ndarray
    coloring: Coloring
    representatives: np.ndarray
    timings: StageTimings

    @property
    def n_colors(self) -> int:
        return self.coloring.n_colors


def pivot_betweenness(
    graph: WeightedDiGraph,
    coloring: Coloring,
    seed: SeedLike = None,
    pivots_per_color: int = 1,
    workers: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Betweenness estimated from per-color representative sources.

    Returns ``(scores, representatives)``.  Each color contributes
    ``|P_i| / pivots`` times the dependency vector of each of its
    ``pivots`` sampled sources; ``pivots_per_color`` must be at least 1.
    ``workers`` reaches the threaded fan-out of the Brandes source
    batches.
    """
    if pivots_per_color < 1:
        raise ValueError(
            f"pivots_per_color must be >= 1, got {pivots_per_color}"
        )
    rng = ensure_rng(seed)
    sources: list[int] = []
    weights: list[float] = []
    representatives: list[int] = []
    for members in coloring.classes():
        count = min(pivots_per_color, len(members))
        chosen = rng.choice(members, size=count, replace=False)
        for source in np.atleast_1d(chosen):
            sources.append(int(source))
            weights.append(len(members) / count)
            representatives.append(int(source))
    scores = betweenness_centrality(
        graph,
        sources=sources,
        source_weights=weights,
        workers=workers,
    )
    return scores, np.asarray(representatives)


def approx_betweenness(
    graph: WeightedDiGraph,
    n_colors: int | None = None,
    q: float | None = None,
    split_mean: str = "geometric",
    seed: SeedLike = 0,
    pivots_per_color: int = 1,
    workers: int | None = None,
) -> ApproxCentralityResult:
    """The paper's centrality pipeline: color, then pivot-Brandes,
    driven through the shared :mod:`repro.pipeline` runner.

    ``alpha = beta = 1`` per Sec. 5.2; the geometric-mean split is the
    paper's recommendation for scale-free social graphs (all weights are
    non-negative here).  ``workers`` fans the restricted Brandes passes'
    source batches out over threads (the coloring itself is sequential).
    """
    if n_colors is None and q is None:
        raise ValueError("approx_betweenness needs n_colors and/or q")
    from repro.pipeline import CentralityTask, run_task

    task = CentralityTask(
        graph,
        seed=seed,
        pivots_per_color=pivots_per_color,
        split_mean=split_mean,
        workers=workers,
    )
    result = run_task(task, n_colors=n_colors, q=q)
    scores, representatives = result.solution
    return ApproxCentralityResult(
        scores=scores,
        coloring=result.coloring,
        representatives=representatives,
        timings=result.timings,
    )
