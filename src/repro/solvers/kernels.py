"""The solver kernels of the exact tier, in numpy.

These are the exact-solver counterparts of the coloring kernels in
:mod:`repro.core.kernels`: the frontier-batched residual level BFS and
the blocking-flow DFS of Dinic's phases, the fused highest-label
push-relabel loop, and the batched multi-lane Brandes dependency pass.
:mod:`repro.solvers.arcstore`, :mod:`repro.solvers.maxflow` and
:mod:`repro.solvers.betweenness` call them directly.

The module imports numpy, ``scipy.sparse`` (for the Brandes batch's
row-block products) and :mod:`repro.core.kernels`, and nothing from the
rest of :mod:`repro.solvers`, so no import cycle forms through it.

All kernels are **pure** of observability: work counters (relabels,
pushes) are *returned* so the solvers can report them once per solve.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.kernels import take_ranges

_EPS = 1e-12

#: a Brandes BFS level runs in dense form when its distinct rows x lanes
#: x their arcs is at most this many times its (key, arc) pair count
_DENSE_WASTE = 8

__all__ = [
    "unique_int",
    "solve_bfs_levels",
    "solve_blocking_flow",
    "solve_push_relabel",
    "solve_brandes_batch",
]


def unique_int(values: np.ndarray) -> np.ndarray:
    """Sorted unique of an int array (sort + diff mask).

    Several times faster than ``np.unique``'s hash path on the mid-size
    index arrays the BFS frontiers produce, and the solvers dedupe a
    frontier on every level — this is their hottest scalar kernel.
    """
    if values.size <= 1:
        return values
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _frontier_arcs(
    indptr: np.ndarray,
    arcs: np.ndarray,
    cap: np.ndarray,
    frontier: np.ndarray,
) -> np.ndarray:
    """All residual arcs (cap > eps) leaving the frontier nodes."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    out = arcs[take_ranges(starts, counts)]
    return out[cap[out] > _EPS]


# ----------------------------------------------------------------------
# residual BFS
# ----------------------------------------------------------------------
def solve_bfs_levels(
    indptr: np.ndarray,
    arcs: np.ndarray,
    head: np.ndarray,
    cap: np.ndarray,
    n: int,
    source: int,
    sink: int,
) -> np.ndarray:
    """Frontier-batched BFS levels of the residual graph.

    Unreached nodes get ``-1``.  ``sink < 0`` runs the full BFS
    (reachability); otherwise expansion stops as soon as the sink's
    level is assigned — the whole level is finished first, so every
    shortest admissible arc survives (Dinic's level graph).
    """
    level = np.full(n, -1, dtype=np.int64)
    level[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        heads = head[_frontier_arcs(indptr, arcs, cap, frontier)]
        heads = heads[level[heads] < 0]
        if heads.size == 0:
            break
        frontier = unique_int(heads)
        depth += 1
        level[frontier] = depth
        if sink >= 0 and level[sink] == depth:
            break
    return level


# ----------------------------------------------------------------------
# Dinic blocking flow (compacted level graph)
# ----------------------------------------------------------------------
def solve_blocking_flow(
    local_indptr: np.ndarray,
    heads: np.ndarray,
    caps: np.ndarray,
    source: int,
    sink: int,
) -> Tuple[float, np.ndarray]:
    """Iterative current-arc DFS over one compacted level graph.

    ``local_indptr``/``heads``/``caps`` describe only the admissible,
    sink-reaching arcs of the phase (tail-grouped), so no level checks
    are needed while advancing.  Returns ``(total, flows)`` — the
    blocking-flow value and the per-arc pushes to scatter back into the
    residual vector.  ``caps`` is consumed (callers pass a copy).

    The DFS runs on plain Python lists: it is scalar-bound, and list
    indexing beats numpy scalar indexing by ~3x here.
    """
    indptr: List[int] = local_indptr.tolist()
    head_list: List[int] = heads.tolist()
    cap_list: List[float] = caps.tolist()
    flows: List[float] = [0.0] * len(head_list)
    n = len(indptr) - 1
    cursor = indptr[:n]
    limit = indptr[1:]
    total = 0.0
    stack = [source]
    path: List[int] = []
    while stack:
        u = stack[-1]
        if u == sink:
            bottleneck = min(map(cap_list.__getitem__, path))
            total += bottleneck
            # Augment and retreat to the first saturated arc, fused in
            # one pass over the (short) path.
            cut = -1
            for index, a in enumerate(path):
                remaining = cap_list[a] - bottleneck
                cap_list[a] = remaining
                flows[a] += bottleneck
                if cut < 0 and remaining <= _EPS:
                    cut = index
            del stack[cut + 1 :]
            del path[cut:]
            continue
        position = cursor[u]
        end = limit[u]
        while position < end and cap_list[position] <= _EPS:
            position += 1
        cursor[u] = position
        if position < end:
            stack.append(head_list[position])
            path.append(position)
        else:
            # Dead end: kill the arc into u so predecessors skip it.
            stack.pop()
            if path:
                cap_list[path.pop()] = 0.0
    return total, np.asarray(flows)


# ----------------------------------------------------------------------
# push-relabel (highest-label, bucket lists, gap heuristic)
# ----------------------------------------------------------------------
def solve_push_relabel(
    indptr: np.ndarray,
    arcs: np.ndarray,
    head: np.ndarray,
    cap_array: np.ndarray,
    n: int,
    source: int,
    sink: int,
) -> Tuple[float, int, int]:
    """Fused highest-label push-relabel; mutates ``cap_array`` in place.

    Returns ``(flow_value, relabels, pushes)``.  Bucket discipline is
    LIFO per height with stale entries refiled on pop (the gap heuristic
    moves nodes without touching their bucket), and discharge scans arcs
    in adjacency order.
    """
    cap = cap_array.tolist()
    head_list = head.tolist()
    arc_list = arcs.tolist()
    indptr_list = indptr.tolist()

    height = [0] * n
    excess = [0.0] * n
    count_at_height = [0] * (2 * n + 1)
    height[source] = n
    count_at_height[0] = n - 1
    count_at_height[n] += 1
    cursor = indptr_list[:n]
    buckets: List[List[int]] = [[] for _ in range(2 * n + 1)]
    in_queue = [False] * n
    highest = -1
    relabels = 0
    pushes = 0

    def activate(v: int) -> None:
        nonlocal highest
        if v != source and v != sink and not in_queue[v]:
            in_queue[v] = True
            buckets[height[v]].append(v)
            if height[v] > highest:
                highest = height[v]

    # Saturate every source arc (reverse twins start at zero capacity,
    # so the cap > eps filter keeps only real forward arcs).
    for position in range(indptr_list[source], indptr_list[source + 1]):
        a = arc_list[position]
        delta = cap[a]
        if delta > _EPS:
            v = head_list[a]
            cap[a] = 0.0
            cap[a ^ 1] += delta
            excess[v] += delta
            activate(v)

    def relabel(u: int) -> None:
        nonlocal relabels
        relabels += 1
        old_height = height[u]
        min_height = 2 * n
        for position in range(indptr_list[u], indptr_list[u + 1]):
            a = arc_list[position]
            if cap[a] > _EPS:
                h = height[head_list[a]]
                if h < min_height:
                    min_height = h
        if min_height >= 2 * n:
            # A node with excess always has a residual arc back toward
            # the source; hitting this means corrupted residual state.
            raise RuntimeError(f"relabel of node {u} found no residual arc")
        count_at_height[old_height] -= 1
        height[u] = min_height + 1
        count_at_height[min_height + 1] += 1
        cursor[u] = indptr_list[u]
        # Gap heuristic: an emptied level below n strands every node
        # above it (except s) — lift them past n in one sweep.
        if count_at_height[old_height] == 0 and old_height < n:
            for node in range(n):
                if node != source and old_height < height[node] <= n:
                    count_at_height[height[node]] -= 1
                    height[node] = n + 1
                    count_at_height[n + 1] += 1

    while highest >= 0:
        bucket = buckets[highest]
        if not bucket:
            highest -= 1
            continue
        u = bucket.pop()
        if height[u] != highest:
            # Stale entry (gap heuristic moved u): refile at its true
            # height so its excess still drains.
            buckets[height[u]].append(u)
            if height[u] > highest:
                highest = height[u]
            continue
        in_queue[u] = False
        # Discharge u completely.
        while excess[u] > _EPS:
            position = cursor[u]
            if position == indptr_list[u + 1]:
                relabel(u)
                continue
            a = arc_list[position]
            v = head_list[a]
            if cap[a] > _EPS and height[u] == height[v] + 1:
                delta = excess[u]
                if cap[a] < delta:
                    delta = cap[a]
                cap[a] -= delta
                cap[a ^ 1] += delta
                excess[u] -= delta
                excess[v] += delta
                pushes += 1
                activate(v)
            else:
                cursor[u] = position + 1

    cap_array[:] = cap
    return excess[sink], relabels, pushes


# ----------------------------------------------------------------------
# batched Brandes dependencies
# ----------------------------------------------------------------------
def _row_block(
    indptr: np.ndarray,
    indices: np.ndarray,
    rows: np.ndarray,
    seen: np.ndarray,
    slot: np.ndarray,
) -> Tuple[sp.csr_matrix, np.ndarray]:
    """The arcs of ``rows`` as a 0/1 ``rows x targets`` CSR block.

    ``targets`` are the distinct heads, ascending; a repeated arc stays
    a repeated entry, so products count it twice, as the flat form
    does.  ``seen`` (all False on entry and on exit) and ``slot`` are
    n-sized work arrays.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    row_ptr = np.zeros(rows.size + 1, dtype=slot.dtype)
    np.cumsum(counts, out=row_ptr[1:])
    heads = indices[take_ranges(starts, counts)]
    seen[heads] = True
    targets = np.flatnonzero(seen)
    seen[targets] = False
    slot[targets] = np.arange(targets.size, dtype=slot.dtype)
    block = sp.csr_matrix(
        (np.ones(heads.size), slot[heads], row_ptr),
        shape=(rows.size, targets.size),
    )
    return block, targets


def solve_brandes_batch(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    weights: np.ndarray,
    n: int,
) -> np.ndarray:
    """Weighted sum of dependency vectors over a block of BFS sources.

    All lanes run in lock-step over node-major state: node ``v`` of
    lane ``b`` is the key ``v * lanes + b``, so the lanes of one node
    are one contiguous row of the ``n x lanes`` dist/sigma/delta
    arrays.  Each BFS level, and its mirror in the dependency sweep,
    runs in one of two forms, picked from sizes the level already has:

    * **dense**, when the level's distinct rows x lanes x their arcs is
      at most ``_DENSE_WASTE`` times its (key, arc) pair count: one
      gather of the rows' arcs, compacted to the heads they reach, and
      one sparse x dense product over the ``rows x lanes`` block —
      ``block.T @ front`` forward, ``block @ coef`` backward (the
      multi-source BFS of Then et al., VLDB 2015).  The level keeps its
      frontier keys, their cells in the block and the block itself;
    * **flat**, otherwise: pair by pair, as one gather/scatter over the
      level's (key, arc) pairs, keeping its DAG arcs.

    No step of a level scans all ``n x lanes`` cells, and the search
    stops once every cell is reached.
    """
    lanes = len(sources)
    size = n * lanes
    dist = np.full(size, -1, dtype=np.int32)
    sigma = np.zeros(size)
    dist_rows = dist.reshape(n, lanes)
    sigma_rows = sigma.reshape(n, lanes)
    keys = np.asarray(sources, dtype=np.int64) * lanes + np.arange(lanes)
    dist[keys] = 0
    sigma[keys] = 1.0
    seen = np.zeros(n, dtype=bool)
    slot = np.empty(
        n, dtype=np.int32 if max(n, indices.size) < 2**31 else np.int64
    )
    frontier = np.sort(keys)
    reached = lanes
    levels: List[tuple] = []
    depth = 0
    while frontier.size and reached < size:
        nodes = frontier // lanes
        lane = frontier - nodes * lanes
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        pair_arcs = int(counts.sum())
        if pair_arcs == 0:
            break
        # Keys are sorted node-major, so a node's lanes sit together.
        new_row = np.empty(nodes.size, dtype=bool)
        new_row[0] = True
        np.not_equal(nodes[1:], nodes[:-1], out=new_row[1:])
        row_arcs = int(np.compress(new_row, counts).sum())
        if lanes * row_arcs <= _DENSE_WASTE * pair_arcs:
            rows = np.compress(new_row, nodes)
            cells = (np.cumsum(new_row) - 1) * lanes + lane
            front = np.zeros(rows.size * lanes)
            front[cells] = sigma[frontier]
            block, targets = _row_block(indptr, indices, rows, seen, slot)
            paths = block.T @ front.reshape(rows.size, lanes)
            # Every frontier sigma is positive, so a reached cell has a
            # positive path sum; it is new if still undiscovered.
            fresh = paths > 0
            fresh &= dist_rows[targets] < 0
            hits = np.flatnonzero(fresh)
            if hits.size == 0:
                break
            hit_rows = hits // lanes
            new = targets[hit_rows] * lanes + (hits - hit_rows * lanes)
            dist[new] = depth + 1
            sigma[new] = paths.ravel()[hits]
            levels.append((frontier, cells, block, targets))
            frontier = new
        else:
            positions = take_ranges(starts, counts)
            heads = indices[positions] * lanes + np.repeat(lane, counts)
            tails = np.repeat(frontier, counts)
            # Crossing arcs == arcs whose head was undiscovered at
            # gather time; one gather serves discovery and the sigma
            # scatter alike.
            crossing = dist[heads] < 0
            tails = np.compress(crossing, tails)
            heads = np.compress(crossing, heads)
            if heads.size == 0:
                break
            dist[heads] = depth + 1
            # Pair-sized scatter-add: no n x lanes bincount per level.
            np.add.at(sigma, heads, sigma[tails])
            levels.append((tails, heads, None, None))
            frontier = unique_int(heads)
        reached += frontier.size
        depth += 1
    delta = np.zeros(size)
    delta_rows = delta.reshape(n, lanes)
    for depth in range(len(levels) - 1, -1, -1):
        first, second, block, targets = levels[depth]
        if block is None:
            tails, heads = first, second
            contributions = sigma[tails] / sigma[heads] * (1.0 + delta[heads])
            np.add.at(delta, tails, contributions)
        else:
            frontier, cells = first, second
            # (1 + delta) / sigma on the block's cells one level deeper
            # (the DAG children), zero elsewhere; only those cells are
            # divided, since undiscovered ones have sigma 0.
            child = dist_rows[targets] == depth + 1
            coef = np.zeros(child.shape)
            np.divide(
                1.0 + delta_rows[targets],
                sigma_rows[targets],
                out=coef,
                where=child,
            )
            delta[frontier] = sigma[frontier] * (block @ coef).ravel()[cells]
    delta[keys] = 0.0
    return delta_rows @ weights
