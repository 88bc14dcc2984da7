"""Brandes' exact betweenness centrality — the paper's exact baseline.

Betweenness (Eq. 9): ``g(v) = sum_{s != v != t} sigma(s, t | v) /
sigma(s, t)`` where ``sigma`` counts shortest paths.  Brandes (2001)
computes all values with one shortest-path pass + dependency accumulation
per source: BFS for unweighted graphs (``O(nm)`` total) and Dijkstra for
positively-weighted graphs (``weighted=True``).

:func:`betweenness_centrality` is a thin view over the CSR-native core
(:mod:`repro.solvers.betweenness`): batches of BFS lanes in lock-step,
each level one sparse row-block x lanes product where the lanes share
its frontier nodes and pair-by-pair scatters where they do not, and an
array-heap Dijkstra for weighted graphs.  Conventions match networkx
(the cross-check oracle): with ``normalized=False``, undirected graphs
report half the ordered-pair sum (each unordered pair counted once).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.graphs.digraph import WeightedDiGraph


def betweenness_centrality(
    graph: WeightedDiGraph,
    normalized: bool = False,
    sources: Iterable[int] | None = None,
    source_weights: Iterable[float] | None = None,
    weighted: bool = False,
    workers: int | None = None,
) -> np.ndarray:
    """Betweenness centrality of every node (by internal index).

    ``sources``/``source_weights`` restrict and weight the per-source
    passes — the hook used by the pivot approximations.  With the default
    (all sources, unit weights) the result is exact.  ``weighted=True``
    treats edge weights as finite positive lengths (Dijkstra variant).
    ``workers=`` fans the source batches out over threads.
    """
    from repro.solvers import betweenness_centrality_csr

    return betweenness_centrality_csr(
        graph.to_csr(),
        directed=graph.directed,
        normalized=normalized,
        sources=sources,
        source_weights=source_weights,
        weighted=weighted,
        workers=workers,
    )
