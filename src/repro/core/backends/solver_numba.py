"""Numba implementations of the solver kernel family.

Each kernel fuses the per-frontier / per-phase Python loops of the
numpy reference (:mod:`repro.core.backends.solver_numpy`) into one
compiled pass.  Determinism is load-bearing, not incidental:

* BFS levels are unique, so any traversal order matches the reference.
* The blocking-flow DFS replays the reference's advance / fused
  augment-retreat / dead-end-kill decisions verbatim on arrays.
* Push-relabel emulates the reference's per-height LIFO bucket lists
  with ``bucket_head``/``bucket_next`` intrusive stacks (push-front /
  pop-front); a stack is a stack, so the pop sequence — and every
  push/relabel — is identical.
* The Brandes batch runs its sources sequentially (sigma counts are
  exact integers in float64; only the dependency sums re-associate,
  which the 1e-9 contract absorbs).

All kernels carry ``nogil=True`` so thread-fanned Brandes source
batches run concurrently; ``cache=True`` persists the JIT artifacts
across processes.  The module always imports — :func:`available` gates use,
mirroring :mod:`repro.core.backends.numba_backend`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["available"]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    _NUMBA_ERROR: Exception | None = None
except ImportError as exc:  # keep the module importable without numba
    njit = None
    _NUMBA_ERROR = exc

_EPS = 1e-12


def available() -> bool:
    """True when the numba toolchain imported cleanly."""
    return _NUMBA_ERROR is None


if available():  # pragma: no cover - exercised only where numba is installed

    @njit(cache=True, nogil=True)
    def solve_bfs_levels(indptr, arcs, head, cap, n, source, sink):
        level = np.full(n, -1, dtype=np.int64)
        level[source] = 0
        frontier = np.empty(n, dtype=np.int64)
        nxt = np.empty(n, dtype=np.int64)
        frontier[0] = source
        f_count = 1
        depth = 0
        while f_count > 0:
            n_count = 0
            for i in range(f_count):
                u = frontier[i]
                for p in range(indptr[u], indptr[u + 1]):
                    a = arcs[p]
                    if cap[a] > _EPS:
                        v = head[a]
                        if level[v] < 0:
                            level[v] = depth + 1
                            nxt[n_count] = v
                            n_count += 1
            if n_count == 0:
                break
            depth += 1
            if sink >= 0 and level[sink] == depth:
                break
            frontier, nxt = nxt, frontier
            f_count = n_count
        return level

    @njit(cache=True, nogil=True)
    def solve_blocking_flow(local_indptr, heads, caps, source, sink):
        n = local_indptr.shape[0] - 1
        m = heads.shape[0]
        flows = np.zeros(m, dtype=np.float64)
        cursor = local_indptr[:n].copy()
        stack = np.empty(n + 1, dtype=np.int64)
        path = np.empty(n + 1, dtype=np.int64)
        total = 0.0
        stack[0] = source
        sp = 1
        pp = 0
        while sp > 0:
            u = stack[sp - 1]
            if u == sink:
                bottleneck = caps[path[0]]
                for i in range(1, pp):
                    c = caps[path[i]]
                    if c < bottleneck:
                        bottleneck = c
                total += bottleneck
                cut = -1
                for i in range(pp):
                    a = path[i]
                    remaining = caps[a] - bottleneck
                    caps[a] = remaining
                    flows[a] += bottleneck
                    if cut < 0 and remaining <= _EPS:
                        cut = i
                sp = cut + 1
                pp = cut
                continue
            position = cursor[u]
            end = local_indptr[u + 1]
            while position < end and caps[position] <= _EPS:
                position += 1
            cursor[u] = position
            if position < end:
                stack[sp] = heads[position]
                sp += 1
                path[pp] = position
                pp += 1
            else:
                sp -= 1
                if pp > 0:
                    pp -= 1
                    caps[path[pp]] = 0.0
        return total, flows

    @njit(cache=True, nogil=True)
    def solve_push_relabel(indptr, arcs, head, cap, n, source, sink):
        height = np.zeros(n, dtype=np.int64)
        excess = np.zeros(n, dtype=np.float64)
        count_at_height = np.zeros(2 * n + 1, dtype=np.int64)
        height[source] = n
        count_at_height[0] = n - 1
        count_at_height[n] += 1
        cursor = indptr[:n].copy()
        bucket_head = np.full(2 * n + 1, -1, dtype=np.int64)
        bucket_next = np.full(n, -1, dtype=np.int64)
        in_queue = np.zeros(n, dtype=np.bool_)
        highest = -1
        relabels = 0
        pushes = 0

        for position in range(indptr[source], indptr[source + 1]):
            a = arcs[position]
            delta = cap[a]
            if delta > _EPS:
                v = head[a]
                cap[a] = 0.0
                cap[a ^ 1] += delta
                excess[v] += delta
                if v != source and v != sink and not in_queue[v]:
                    in_queue[v] = True
                    hv = height[v]
                    bucket_next[v] = bucket_head[hv]
                    bucket_head[hv] = v
                    if hv > highest:
                        highest = hv

        while highest >= 0:
            u = bucket_head[highest]
            if u < 0:
                highest -= 1
                continue
            bucket_head[highest] = bucket_next[u]
            if height[u] != highest:
                # Stale entry (gap heuristic moved u): refile.
                hu = height[u]
                bucket_next[u] = bucket_head[hu]
                bucket_head[hu] = u
                if hu > highest:
                    highest = hu
                continue
            in_queue[u] = False
            while excess[u] > _EPS:
                position = cursor[u]
                if position == indptr[u + 1]:
                    relabels += 1
                    old_height = height[u]
                    min_height = 2 * n
                    for p in range(indptr[u], indptr[u + 1]):
                        a = arcs[p]
                        if cap[a] > _EPS:
                            h = height[head[a]]
                            if h < min_height:
                                min_height = h
                    if min_height >= 2 * n:
                        raise RuntimeError(
                            "relabel found no residual arc"
                        )
                    count_at_height[old_height] -= 1
                    height[u] = min_height + 1
                    count_at_height[min_height + 1] += 1
                    cursor[u] = indptr[u]
                    if count_at_height[old_height] == 0 and old_height < n:
                        for node in range(n):
                            hn = height[node]
                            if node != source and old_height < hn and hn <= n:
                                count_at_height[hn] -= 1
                                height[node] = n + 1
                                count_at_height[n + 1] += 1
                    continue
                a = arcs[position]
                v = head[a]
                if cap[a] > _EPS and height[u] == height[v] + 1:
                    delta = excess[u]
                    if cap[a] < delta:
                        delta = cap[a]
                    cap[a] -= delta
                    cap[a ^ 1] += delta
                    excess[u] -= delta
                    excess[v] += delta
                    pushes += 1
                    if v != source and v != sink and not in_queue[v]:
                        in_queue[v] = True
                        hv = height[v]
                        bucket_next[v] = bucket_head[hv]
                        bucket_head[hv] = v
                        if hv > highest:
                            highest = hv
                else:
                    cursor[u] = position + 1

        return excess[sink], relabels, pushes

    @njit(cache=True, nogil=True)
    def solve_brandes_batch(indptr, indices, sources, weights, n):
        result = np.zeros(n, dtype=np.float64)
        dist = np.empty(n, dtype=np.int64)
        sigma = np.empty(n, dtype=np.float64)
        delta = np.empty(n, dtype=np.float64)
        order = np.empty(n, dtype=np.int64)
        for b in range(sources.shape[0]):
            s = sources[b]
            w_b = weights[b]
            for v in range(n):
                dist[v] = -1
                sigma[v] = 0.0
                delta[v] = 0.0
            dist[s] = 0
            sigma[s] = 1.0
            order[0] = s
            count = 1
            level_start = 0
            level_end = 1
            depth = 0
            while level_start < level_end:
                for i in range(level_start, level_end):
                    u = order[i]
                    su = sigma[u]
                    for p in range(indptr[u], indptr[u + 1]):
                        v = indices[p]
                        if dist[v] < 0:
                            dist[v] = depth + 1
                            sigma[v] = su
                            order[count] = v
                            count += 1
                        elif dist[v] == depth + 1:
                            sigma[v] += su
                level_start = level_end
                level_end = count
                depth += 1
            # Pred-free dependency pass: reverse discovery order
            # guarantees deeper nodes are final when read.
            for i in range(count - 1, 0, -1):
                u = order[i]
                du = dist[u]
                acc = 0.0
                for p in range(indptr[u], indptr[u + 1]):
                    w = indices[p]
                    if dist[w] == du + 1:
                        acc += sigma[u] / sigma[w] * (1.0 + delta[w])
                delta[u] = acc
                result[u] += w_b * acc
        return result
