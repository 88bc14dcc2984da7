"""Frontier-batched Brandes betweenness on flat CSR arrays.

The per-source pass of Brandes (2001) is two sweeps over the shortest-
path DAG.  On the arc-store representation both sweeps vectorize:

* **forward** — a frontier-batched BFS (all of level ``d`` expanded at
  once); the path counts ``sigma`` of level ``d + 1`` are sums over
  the arcs that cross into it;
* **backward** — the dependency accumulation replays the levels
  deepest-first: ``delta[v] += sigma[v] / sigma[w] * (1 + delta[w])``
  summed over the level's DAG arcs ``v -> w``.

Sources are processed in *batches* through the ``solve_brandes_batch``
kernel (:mod:`repro.solvers.kernels`).  All lanes of a batch run in
lock-step over node-major state (node ``v`` of lane ``b`` is key
``v * lanes + b``).  A level where many lanes share the same
frontier nodes — the common case on the paper's small-world social
networks — runs as one product of the frontier rows' arcs with a
``rows x lanes`` block (multi-source BFS); a thin level runs pair by
pair.  Either way one set of array calls serves a whole block of
sources, so the numpy call overhead amortizes across the batch.

Batches are also the parallel unit: sources are independent and the
weighted dependency vectors sum associatively, so
:func:`betweenness_centrality_csr` maps batches over a thread pool
(``workers=`` / ``REPRO_WORKERS``, :func:`resolve_workers`) and adds
the results in fixed submission order.  numpy and scipy release the
GIL inside their large-array calls, which is most of a batch, so
threads scale.  Batch boundaries never depend on the worker count, so
serial and parallel runs add the same partial vectors in the same
order — bit-identical.

For weighted graphs (positive lengths), :func:`weighted_dependencies`
runs an array-heap Dijkstra over the CSR slices — a binary heap of
``(distance, node)`` pairs with a settled mask, path counts accumulated
on distance ties (1e-12 tolerance) — followed by the same reversed
dependency accumulation over the settle order.

Entry point :func:`betweenness_centrality_csr` backs
``repro.centrality.brandes.betweenness_centrality`` (``sources`` /
``source_weights`` restriction, networkx conventions for
directed/undirected and normalization); networkx is its 1e-9
cross-check oracle.
"""

from __future__ import annotations

import heapq
import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, List, Tuple

import numpy as np
import scipy.sparse as sp

from repro.obs import recorder as _obs
from repro.core.kernels import scatter_add, take_ranges
from repro.solvers.kernels import solve_brandes_batch, unique_int

__all__ = [
    "bfs_dag",
    "weighted_dependencies",
    "betweenness_centrality_csr",
    "resolve_workers",
]


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument > ``REPRO_WORKERS`` env > 1.

    Fan-out is opt-in: the default of 1 keeps a run single-threaded
    unless the caller or the environment asks for more.  A bad
    environment value raises a :class:`ValueError` naming the variable
    and the value.
    """
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return workers
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(
            f"REPRO_WORKERS must be a positive integer, got {env!r}"
        )
    return workers


def bfs_dag(
    indptr: np.ndarray, indices: np.ndarray, source: int, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Frontier-batched BFS from one source: ``(dist, sigma)``.

    ``dist`` is the hop count (``-1`` if unreached) and ``sigma`` the
    number of shortest paths from ``source`` to each node.
    """
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n)
    dist[source] = 0
    sigma[source] = 1.0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        positions = take_ranges(starts, counts)
        heads = indices[positions]
        tails = np.repeat(frontier, counts)
        # An arc crosses into depth + 1 exactly when its head was
        # undiscovered at gather time (depth + 1 labels are only
        # assigned below), so one gather serves discovery and the
        # sigma scatter alike.
        crossing = dist[heads] < 0
        tails, heads = tails[crossing], heads[crossing]
        if tails.size == 0:
            break
        dist[heads] = depth + 1
        sigma += scatter_add(heads, sigma[tails], n)
        frontier = unique_int(heads)
        depth += 1
    return dist, sigma


#: soft bound on a batch's lane state: lanes x nodes bounds the
#: dist/sigma/delta arrays, and lanes x arcs bounds what the levels keep
#: for the backward sweep (flat levels' DAG arcs, dense levels' row
#: blocks); keeps a batch within a few tens of MB on the large graphs
_BATCH_CELLS = 4_000_000


def _batch_size(n: int, m: int, n_sources: int) -> int:
    lanes = min(
        n_sources,
        max(1, _BATCH_CELLS // max(n, 1)),
        max(1, _BATCH_CELLS // max(m, 1)),
    )
    return max(1, min(lanes, 256))


def weighted_dependencies(
    indptr: List[int],
    indices: List[int],
    weights: List[float],
    source: int,
    n: int,
) -> np.ndarray:
    """Dependency vector of one array-heap Dijkstra pass.

    Arrays arrive as flat lists (CSR ``indptr``/``indices``/``data``)
    because the heap loop is scalar-bound; distance ties within 1e-12
    accumulate path counts onto one shortest-path DAG.
    """
    distance = [np.inf] * n
    distance[source] = 0.0
    sigma = np.zeros(n)
    sigma[source] = 1.0
    predecessors: List[List[int]] = [[] for _ in range(n)]
    order: List[int] = []
    settled = [False] * n
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        dist_u, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        order.append(u)
        sigma_u = sigma[u]
        for position in range(indptr[u], indptr[u + 1]):
            v = indices[position]
            candidate = dist_u + weights[position]
            dist_v = distance[v]
            if candidate < dist_v - 1e-12:
                distance[v] = candidate
                sigma[v] = sigma_u
                predecessors[v] = [u]
                heapq.heappush(heap, (candidate, v))
            elif not settled[v] and abs(candidate - dist_v) <= 1e-12:
                sigma[v] += sigma_u
                predecessors[v].append(u)
    delta = np.zeros(n)
    for w in reversed(order):
        coefficient = (1.0 + delta[w]) / sigma[w]
        for v in predecessors[w]:
            delta[v] += sigma[v] * coefficient
    delta[source] = 0.0
    return delta


def _node_index(source, n: int) -> int:
    """``source`` as an integral node index in ``[0, n)``, else a
    :class:`ValueError` naming it."""
    try:
        index = int(source)
    except (TypeError, ValueError, OverflowError):
        index = -1
    if index != source or not 0 <= index < n:
        raise ValueError(f"source {source} is not a node index in [0, {n})")
    return index


def betweenness_centrality_csr(
    matrix: sp.csr_matrix,
    directed: bool,
    normalized: bool = False,
    sources: Iterable[int] | None = None,
    source_weights: Iterable[float] | None = None,
    weighted: bool = False,
    workers: int | None = None,
) -> np.ndarray:
    """Betweenness of every node from a CSR adjacency.

    Unnormalized scores follow networkx (undirected graphs report each
    unordered pair once); ``sources``/``source_weights`` restrict and
    weight the per-source passes; ``weighted=True`` treats arc weights
    as positive lengths.  The matrix must be square, every source an
    integral node index in ``[0, n)``, every source weight finite and,
    with ``weighted=True``, every stored length finite and positive;
    else :class:`ValueError` names the first bad value (a bad length
    by its arc ``tail -> head``).  Negative source weights are legal: a
    signed combination of dependency vectors is well defined.

    The unweighted path batches sources through the
    ``solve_brandes_batch`` kernel and, with ``workers > 1`` (or
    ``REPRO_WORKERS``), maps the batches over a
    :class:`~concurrent.futures.ThreadPoolExecutor`.  Sources are
    independent, batch boundaries do not depend on the worker count,
    and the partial vectors are added in submission order, so results
    are bit-identical to a serial run.
    """
    n, n_cols = matrix.shape
    if n != n_cols:
        raise ValueError(f"adjacency must be square, got shape {n}x{n_cols}")
    indptr = matrix.indptr.astype(np.int64)
    indices = matrix.indices.astype(np.int64)
    if weighted:
        lengths = matrix.data
        bad = np.flatnonzero(~((lengths > 0) & (lengths < np.inf)))
        if bad.size:
            position = int(bad[0])
            tail = int(np.searchsorted(indptr, position, side="right")) - 1
            raise ValueError(
                "weighted betweenness needs finite positive arc lengths: "
                f"arc {tail} -> {indices[position]} has weight "
                f"{lengths[position]}"
            )
    if sources is None:
        source_list = list(range(n))
    else:
        source_list = [_node_index(source, n) for source in sources]
    if source_weights is None:
        weight_list = [1.0] * len(source_list)
    else:
        weight_list = [float(w) for w in source_weights]
        if len(weight_list) != len(source_list):
            raise ValueError(
                f"{len(source_list)} sources but {len(weight_list)} weights"
            )
        bad = next((w for w in weight_list if not math.isfinite(w)), None)
        if bad is not None:
            raise ValueError(f"source weight {bad} is not finite")

    centrality = np.zeros(n)
    n_batches = 0
    if weighted:
        indptr_list = indptr.tolist()
        indices_list = indices.tolist()
        data_list = matrix.data.tolist()
        for source, weight in zip(source_list, weight_list):
            centrality += weight * weighted_dependencies(
                indptr_list, indices_list, data_list, source, n
            )
    elif source_list:
        source_array = np.asarray(source_list, dtype=np.int64)
        weight_array = np.asarray(weight_list)
        lanes = _batch_size(n, int(matrix.nnz), len(source_list))
        batches = [
            (source_array[start : start + lanes],
             weight_array[start : start + lanes])
            for start in range(0, len(source_list), lanes)
        ]
        n_batches = len(batches)

        def compute_batch(batch: tuple) -> np.ndarray:
            return solve_brandes_batch(
                indptr, indices, batch[0], batch[1], n
            )

        workers = min(resolve_workers(workers), n_batches)
        if workers == 1:
            for batch in batches:
                centrality += compute_batch(batch)
        else:
            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-brandes"
            ) as pool:
                # map() yields in submission order: the serial loop's
                # partial vectors, added in the serial loop's order.
                for partial in pool.map(compute_batch, batches):
                    centrality += partial

    recorder = _obs._active
    recorder.count("solvers.brandes.sources", len(source_list))
    if n_batches:
        recorder.count("solvers.brandes.batches", n_batches)
    if not directed:
        centrality /= 2.0
    if normalized:
        scale = (n - 1) * (n - 2) if directed else (n - 1) * (n - 2) / 2.0
        if scale > 0:
            centrality /= scale
    return centrality
