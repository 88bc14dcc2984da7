"""Exact max-flow and min-cut on the flat arc store.

Both solvers operate on one :class:`~repro.solvers.arcstore.ArcStore`
and a residual capacity vector from ``store.residual()``:

* :func:`dinic` — the exact solver every reference uses: level BFS
  through the ``solve_bfs_levels`` kernel, then a blocking
  flow over the *compacted* level graph: the admissible arcs are
  extracted with one numpy mask over all arc ids, pruned to the
  sink-reaching core by a backward BFS, regrouped by tail, and the
  current-arc DFS runs through ``solve_blocking_flow`` on just those
  arcs (no per-arc level checks in the hot loop); augmentations are
  written back to the residual vector in one scatter per phase, and
  one/two-level phases (most of the arc volume on the stereo instances)
  solve in closed form with no DFS at all.
* :func:`push_relabel` — highest-label selection with per-height bucket
  stacks and the gap heuristic, fused into the ``solve_push_relabel``
  kernel.
* :func:`min_cut` — runs :func:`dinic`, then reads reachability
  straight off the final residual arrays (one more vectorized BFS) and
  collects the saturated forward arcs leaving the source side.

Each solver returns ``(value, cap)`` — the final residual vector is
the flow witness; :meth:`ArcStore.extract_flow_arrays` turns it into
per-arc flows.  The kernels live in :mod:`repro.solvers.kernels`.

Both solvers report their work counters to :mod:`repro.obs` in one add
at return — ``solvers.dinic.phases``, ``solvers.pr.relabels`` /
``solvers.pr.pushes`` — so profiled runs can attribute flow time to
algorithmic effort without any per-arc cost.  The kernels themselves
are pure; the counters they tally come back in their return values and
are recorded here, once per solve.
"""

from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np

from repro.obs import recorder as _obs
from repro.core.kernels import take_ranges
from repro.solvers.arcstore import ArcStore, bfs_levels
from repro.solvers.kernels import (
    solve_blocking_flow,
    solve_push_relabel,
    unique_int,
)

_EPS = 1e-12

__all__ = ["dinic", "push_relabel", "min_cut"]


# ----------------------------------------------------------------------
# Dinic
# ----------------------------------------------------------------------
def _sink_side_prune(
    store: ArcStore,
    selected: np.ndarray,
    sink: int,
) -> np.ndarray:
    """Drop admissible arcs that cannot reach the sink.

    One backward BFS from the sink over the reversed admissible arcs:
    the reverse of arc ``a`` is ``a ^ 1``, and ``store.arcs`` is already
    grouped by tail, so the reversed level graph needs no sort — just a
    mask swap on the paired ids.  Arcs whose head is cut off would only
    ever feed dead-end DFS branches; pruning them up front makes every
    DFS advance part of a real augmenting path (until saturation).
    """
    n = store.n
    # reversed_mask[r] <=> forward twin r ^ 1 is admissible.
    admissible = np.zeros(2 * store.n_forward, dtype=bool)
    admissible[selected] = True
    reversed_mask = admissible.reshape(-1, 2)[:, ::-1].reshape(-1)
    reversed_sel = store.arcs[reversed_mask[store.arcs]]
    reversed_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(store.tail[reversed_sel], minlength=n),
        out=reversed_indptr[1:],
    )
    reversed_heads = store.head[reversed_sel]
    reaches = np.zeros(n, dtype=bool)
    reaches[sink] = True
    frontier = np.array([sink], dtype=np.int64)
    while frontier.size:
        starts = reversed_indptr[frontier]
        counts = reversed_indptr[frontier + 1] - starts
        heads = reversed_heads[take_ranges(starts, counts)]
        heads = heads[~reaches[heads]]
        if heads.size == 0:
            break
        reaches[heads] = True
        frontier = unique_int(heads)
    return selected[reaches[store.head[selected]]]


def _shallow_blocking_flow(
    store: ArcStore,
    cap: np.ndarray,
    selected: np.ndarray,
    source: int,
    sink_level: int,
) -> float:
    """Closed-form blocking flow for one- and two-level phases.

    After sink-side pruning a depth-1 phase holds only direct ``s -> t``
    arcs (saturate them all) and a depth-2 phase pairs each middle node
    ``u`` with exactly one admissible ``s -> u`` and one ``u -> t`` arc
    (the adjacency stores unique arcs), so the blocking flow is
    ``min(cap(s, u), cap(u, t))`` per middle — one vectorized pass, no
    DFS.  These shallow phases carry most of the arc volume on networks
    whose terminals fan out to every node (the stereo instances).
    """
    if sink_level == 1:
        flows = cap[selected].copy()
    else:
        from_source = store.tail[selected] == source
        source_arcs = selected[from_source]
        exit_arcs = selected[~from_source]
        position = np.full(store.n, -1, dtype=np.int64)
        position[store.tail[exit_arcs]] = np.arange(len(exit_arcs))
        aligned_exit = exit_arcs[position[store.head[source_arcs]]]
        flows = np.minimum(cap[source_arcs], cap[aligned_exit])
        selected = np.concatenate([source_arcs, aligned_exit])
        flows = np.concatenate([flows, flows])
    cap[selected] -= flows
    cap[selected ^ 1] += flows
    return float(flows.sum()) / (1.0 if sink_level == 1 else 2.0)


def dinic(
    store: ArcStore,
    source: int,
    sink: int,
) -> Tuple[float, np.ndarray]:
    """Maximum s-t flow by Dinic's algorithm on the arc store."""
    cap = store.residual()
    tail, head, arcs = store.tail, store.head, store.arcs
    total = 0.0
    phases = 0
    while True:
        level = bfs_levels(store, cap, source, sink)
        sink_level = level[sink]
        if sink_level < 0:
            break
        phases += 1
        # Compacted level graph: admissible arcs in tail-grouped order
        # (masks computed directly on the grouped endpoint arrays),
        # pruned to the sink-reaching core.
        level_tail = level[store.tail_by_arc]
        level_head = level[store.head_by_arc]
        admissible = (
            (cap[arcs] > _EPS)
            & (level_tail >= 0)
            & (level_head == level_tail + 1)
            & ((level_head < sink_level) | (store.head_by_arc == sink))
        )
        selected = arcs[admissible]
        selected = _sink_side_prune(store, selected, sink)
        if selected.size == 0:
            break
        if sink_level <= 2:
            pushed = _shallow_blocking_flow(
                store, cap, selected, source, sink_level
            )
            if pushed <= _EPS:
                break
            total += pushed
            continue
        local_indptr = np.zeros(store.n + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(tail[selected], minlength=store.n),
            out=local_indptr[1:],
        )
        # The fancy-indexed caps slice is a fresh array the kernel may
        # consume; real pushes come back in the flows vector.
        pushed, flow_array = solve_blocking_flow(
            local_indptr,
            head[selected],
            cap[selected],
            int(source),
            int(sink),
        )
        if pushed <= _EPS:
            break
        positive = flow_array > 0
        changed = selected[positive]
        cap[changed] -= flow_array[positive]
        cap[changed ^ 1] += flow_array[positive]
        total += pushed
    _obs._active.count("solvers.dinic.phases", phases)
    return total, cap


# ----------------------------------------------------------------------
# push-relabel (highest-label, bucket stacks, gap heuristic)
# ----------------------------------------------------------------------
def push_relabel(
    store: ArcStore,
    source: int,
    sink: int,
) -> Tuple[float, np.ndarray]:
    """Maximum s-t flow by highest-label push-relabel on the arc store.

    The whole solver is one fused kernel call: bucket selection,
    discharge, relabel, and the gap heuristic all live in
    ``solve_push_relabel``, which mutates the residual vector in place
    and returns the work counters.
    """
    cap = store.residual()
    value, relabels, pushes = solve_push_relabel(
        store.indptr,
        store.arcs,
        store.head,
        cap,
        store.n,
        int(source),
        int(sink),
    )
    recorder = _obs._active
    recorder.count("solvers.pr.relabels", int(relabels))
    recorder.count("solvers.pr.pushes", int(pushes))
    return float(value), cap


# ----------------------------------------------------------------------
# min-cut
# ----------------------------------------------------------------------
def min_cut(
    store: ArcStore,
    source: int,
    sink: int,
) -> Tuple[float, Set[int], List[Tuple[int, int]], np.ndarray]:
    """Minimum s-t cut read off Dinic's final residual arrays.

    Returns ``(capacity, source_side, cut_arcs, cap)`` where ``cap`` is
    the final residual vector (the max-flow witness).
    """
    _, cap = dinic(store, source, sink)
    reachable = bfs_levels(store, cap, source) >= 0
    forward_tail = store.tail[0::2]
    forward_head = store.head[0::2]
    forward_cap0 = store.cap0[0::2]
    crossing = reachable[forward_tail] & ~reachable[forward_head]
    capacity = float(forward_cap0[crossing].sum())
    cut_arcs = [
        (int(u), int(v))
        for u, v in zip(forward_tail[crossing], forward_head[crossing])
    ]
    source_side = {int(node) for node in np.nonzero(reachable)[0]}
    return capacity, source_side, cut_arcs, cap
