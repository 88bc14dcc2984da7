"""Graph operations used by the coloring pipelines and experiments."""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.graphs.digraph import WeightedDiGraph
from repro.utils.rng import SeedLike, ensure_rng


def degree_vector(
    graph: WeightedDiGraph, weighted: bool = True, direction: str = "out"
) -> np.ndarray:
    """Per-node (weighted) degree vector, by internal index."""
    matrix = graph.to_csr()
    if direction not in ("out", "in"):
        raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")
    if not weighted:
        matrix = sp.csr_matrix(
            (np.ones_like(matrix.data), matrix.indices, matrix.indptr),
            shape=matrix.shape,
        )
    axis = 1 if direction == "out" else 0
    return np.asarray(matrix.sum(axis=axis)).ravel()


def induced_subgraph(
    graph: WeightedDiGraph, labels: Sequence
) -> WeightedDiGraph:
    """Subgraph induced by ``labels`` (kept in the given order)."""
    keep = set(labels)
    sub = WeightedDiGraph(directed=graph.directed)
    for label in labels:
        if not graph.has_node(label):
            raise GraphError(f"unknown node {label!r}")
        sub.add_node(label)
    for u, v, w in graph.edges():
        if u in keep and v in keep:
            sub.add_edge(u, v, w)
    return sub


def perturb_add_random_edges(
    graph: WeightedDiGraph,
    count: int,
    seed: SeedLike = None,
    weight: float = 1.0,
    max_attempts_factor: int = 50,
) -> WeightedDiGraph:
    """Return a copy of ``graph`` with ``count`` fresh random edges added.

    This is the Fig. 2 perturbation: new endpoints are drawn uniformly,
    skipping self-loops and already-present edges.  Raises if the graph is
    too dense to place the requested number of new edges.
    """
    rng = ensure_rng(seed)
    perturbed = graph.copy()
    n = perturbed.n_nodes
    if n < 2:
        raise GraphError("need at least 2 nodes to add edges")
    added = 0
    attempts = 0
    budget = max(count * max_attempts_factor, 100)
    labels = perturbed.labels()
    while added < count:
        attempts += 1
        if attempts > budget:
            raise GraphError(
                f"could not place {count} new edges after {attempts} attempts"
            )
        u, v = rng.integers(0, n, size=2)
        if u == v:
            continue
        lu, lv = labels[u], labels[v]
        if perturbed.has_edge(lu, lv):
            continue
        perturbed.add_edge(lu, lv, weight)
        added += 1
    return perturbed
