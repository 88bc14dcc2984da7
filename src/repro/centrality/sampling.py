"""Riondato–Kornaropoulos sampling betweenness (the Table 1 prior work).

Riondato & Kornaropoulos (WSDM 2014) sample ``r`` uniform shortest paths
and count, for each vertex, the fraction of sampled paths through it.
With

    r = (c / eps^2) * (floor(log2(VD - 2)) + 1 + ln(1 / delta))

samples (``VD`` = vertex diameter, ``c ~ 0.5``), every betweenness value
is within ``eps * n(n-1)`` of the truth with probability ``1 - delta``.
The implementation follows the paper's Algorithm 1: sample a pair
``(s, t)``, run a BFS, then walk one shortest path backwards choosing
each predecessor with probability proportional to its path count.

The per-sample BFS routes through the arc-store solver core
(:func:`repro.solvers.betweenness.bfs_dag` over the graph's CSR
arrays); only the O(path-length) backward walk stays scalar, reading
each node's shortest-path predecessors off the CSC column slices.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graphs.digraph import WeightedDiGraph
from repro.solvers.betweenness import bfs_dag
from repro.utils.rng import SeedLike, ensure_rng


def _csr_arrays(graph: WeightedDiGraph):
    matrix = graph.to_csr()
    return matrix.indptr.astype(np.int64), matrix.indices.astype(np.int64)


def vertex_diameter_estimate(
    graph: WeightedDiGraph, samples: int = 4, seed: SeedLike = 0
) -> int:
    """Estimate the vertex diameter (nodes on the longest shortest path).

    Standard 2-approximation: BFS from a few random sources and take the
    largest eccentricity seen, plus one (edge count -> vertex count).
    """
    rng = ensure_rng(seed)
    n = graph.n_nodes
    indptr, indices = _csr_arrays(graph)
    best = 1
    for _ in range(min(samples, n)):
        source = int(rng.integers(0, n))
        dist, _ = bfs_dag(indptr, indices, source, n)
        reached = dist[dist >= 0]
        if reached.size:
            best = max(best, int(reached.max()) + 1)
    return best


def rk_sample_size(
    vertex_diameter: int, eps: float, delta: float = 0.1, c: float = 0.5
) -> int:
    """The VC-dimension sample bound of Riondato–Kornaropoulos."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    vd_term = math.floor(math.log2(max(vertex_diameter - 2, 2))) + 1
    return max(1, math.ceil((c / eps**2) * (vd_term + math.log(1 / delta))))


def riondato_kornaropoulos_betweenness(
    graph: WeightedDiGraph,
    eps: float = 0.05,
    delta: float = 0.1,
    seed: SeedLike = 0,
    n_samples: int | None = None,
) -> np.ndarray:
    """Sampled betweenness, scaled to the same units as the exact scores.

    ``n_samples`` overrides the VC bound (useful for time/accuracy
    sweeps).  Returned scores estimate the unnormalized (networkx-
    convention) betweenness, so they are directly comparable to
    :func:`repro.centrality.brandes.betweenness_centrality`.
    """
    rng = ensure_rng(seed)
    n = graph.n_nodes
    indptr, indices = _csr_arrays(graph)
    csc = graph.to_csc()
    in_indptr = csc.indptr.astype(np.int64)
    in_indices = csc.indices.astype(np.int64)
    if n_samples is None:
        diameter = vertex_diameter_estimate(graph, seed=rng)
        n_samples = rk_sample_size(diameter, eps, delta)

    counts = np.zeros(n)
    performed = 0
    while performed < n_samples:
        s = int(rng.integers(0, n))
        t = int(rng.integers(0, n))
        if s == t:
            continue
        performed += 1
        dist, sigma = bfs_dag(indptr, indices, s, n)
        if dist[t] < 0:
            continue  # unreachable pair contributes no path
        # Walk one uniform shortest path backwards from t; a node's
        # predecessors are its in-neighbors one BFS level closer to s.
        node = t
        while node != s:
            candidates = in_indices[in_indptr[node] : in_indptr[node + 1]]
            predecessors = candidates[dist[candidates] == dist[node] - 1]
            if predecessors.size == 1:
                parent = int(predecessors[0])
            else:
                probabilities = sigma[predecessors]
                probabilities = probabilities / probabilities.sum()
                parent = int(rng.choice(predecessors, p=probabilities))
            if parent != s:
                counts[parent] += 1.0
            node = parent

    # counts / n_samples estimates g(v) / (n (n - 1)) for ordered pairs.
    scores = counts / n_samples * n * (n - 1)
    if not graph.directed:
        scores /= 2.0
    return scores
