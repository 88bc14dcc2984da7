"""CSR-native solver core: the flat arc-store engine for exact solving.

This package is the exact tier's compute substrate; ``repro.flow`` and
``repro.centrality`` are thin views over it.

* :mod:`repro.solvers.arcstore` — :class:`ArcStore` (paired residual
  arcs in contiguous arrays + CSR arc index) and the shared level BFS;
* :mod:`repro.solvers.kernels` — the numpy kernels the solvers run:
  residual level BFS, Dinic's blocking flow, push-relabel and the
  batched Brandes pass;
* :mod:`repro.solvers.maxflow` — Dinic (the exact reference),
  highest-label push-relabel, and min-cut over the store;
* :mod:`repro.solvers.betweenness` — frontier-batched Brandes and the
  array-heap Dijkstra variant for weighted graphs.
"""

from repro.solvers.arcstore import ArcStore, arc_store_for, bfs_levels
from repro.solvers.betweenness import betweenness_centrality_csr
from repro.solvers.maxflow import dinic, min_cut, push_relabel

__all__ = [
    "ArcStore",
    "arc_store_for",
    "bfs_levels",
    "betweenness_centrality_csr",
    "dinic",
    "min_cut",
    "push_relabel",
]
