"""The flat arc store: one contiguous residual representation for the
exact max-flow solvers.

``ArcStore`` encodes a flow network (or any weighted digraph) as paired
residual arcs in flat numpy arrays: original arc ``e`` gets id ``2e`` and
its zero-capacity residual twin id ``2e + 1``, so the reverse of any arc
is a single XOR away.  Per-arc attributes live in contiguous arrays
(``head``, ``tail``, ``cap0``), and a CSR-style index (``indptr`` +
``arcs``, arc ids grouped by tail node) provides O(1) slicing of a
node's incident arcs.  The store is built once from
``WeightedDiGraph.to_csr()`` — :func:`arc_store_for` memoizes it on the
graph's cached CSR snapshot, so repeated solves (max-flow, then min-cut,
then a parametric search) pay construction exactly once; graph mutations
invalidate the CSR cache and therefore the store.

On top of the arrays, this module provides the vectorized primitives the
solvers share:

* :func:`bfs_levels` — frontier-batched level BFS over residual arcs
  (the level graph of Dinic, reachability for min-cut);
* :meth:`ArcStore.residual` — a fresh residual capacity vector, the one
  place residual state is created;
* :meth:`ArcStore.extract_flow_arrays` — per-arc flows of the forward
  arcs as ``(tails, heads, flows)`` arrays, ``flow = cap0 - cap``.

The traversal runs on the numpy solver kernels
(:mod:`repro.solvers.kernels`): :func:`bfs_levels` is
``solve_bfs_levels`` over the store's arrays.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Tuple

import numpy as np
import scipy.sparse as sp

# unique_int is re-exported; its one definition is in solvers.kernels
from repro.solvers.kernels import solve_bfs_levels, unique_int  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graphs.digraph import WeightedDiGraph


class ArcStore:
    """Flat paired-arc residual representation of a weighted digraph.

    Forward arc ``2e`` carries the original capacity; its residual twin
    ``2e + 1`` starts at zero.  ``arcs[indptr[u]:indptr[u + 1]]`` lists
    every arc id (forward and reverse) whose tail is ``u`` — the
    residual adjacency all solvers traverse.
    """

    __slots__ = ("n", "n_forward", "head", "tail", "cap0", "indptr", "arcs",
                 "tail_by_arc", "head_by_arc", "__weakref__")

    def __init__(
        self,
        n: int,
        tails: np.ndarray,
        heads: np.ndarray,
        capacities: np.ndarray,
    ) -> None:
        m = len(capacities)
        self.n = int(n)
        self.n_forward = m
        head = np.empty(2 * m, dtype=np.int64)
        tail = np.empty(2 * m, dtype=np.int64)
        cap0 = np.zeros(2 * m, dtype=np.float64)
        head[0::2] = heads
        head[1::2] = tails
        tail[0::2] = tails
        tail[1::2] = heads
        cap0[0::2] = capacities
        self.head = head
        self.tail = tail
        self.cap0 = cap0
        # Arc ids grouped by tail: stable argsort keeps, within each
        # node, the original arc order (forward arcs before the reverse
        # twins of later arcs).
        self.arcs = np.argsort(tail, kind="stable")
        counts = np.bincount(tail, minlength=n)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])
        # Endpoints in tail-grouped (``arcs``) order: per-phase masks
        # over the adjacency then gather sequentially instead of
        # permuting a mask computed in arc-id order.
        self.tail_by_arc = tail[self.arcs]
        self.head_by_arc = head[self.arcs]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_csr(cls, matrix: sp.csr_matrix) -> "ArcStore":
        """Build from a square CSR adjacency of positive capacities."""
        matrix = sp.csr_matrix(matrix)
        n = matrix.shape[0]
        tails = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(matrix.indptr)
        )
        heads = matrix.indices.astype(np.int64)
        capacities = matrix.data.astype(np.float64)
        positive = capacities > 0
        if not positive.all():
            tails = tails[positive]
            heads = heads[positive]
            capacities = capacities[positive]
        return cls(n, tails, heads, capacities)

    # ------------------------------------------------------------------
    # residual state
    # ------------------------------------------------------------------
    def residual(self) -> np.ndarray:
        """A fresh residual capacity vector (one per solver run).

        This is the single construction point for residual state: every
        arcstore solver starts from ``store.residual()`` and mutates its
        own copy, so the store itself stays immutable and shareable.
        """
        return self.cap0.copy()

    # ------------------------------------------------------------------
    # flow extraction
    # ------------------------------------------------------------------
    def extract_flow_arrays(
        self, cap: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Forward-arc flows of a final residual state, as flat arrays.

        ``flow(e) = cap0(e) - cap(e)`` on forward arcs; the paired-arc
        invariant ``cap(2e) + cap(2e + 1) = cap0(2e)`` keeps it
        non-negative.  Only strictly positive flows are returned.
        """
        pushed = self.cap0[0::2] - cap[0::2]
        mask = pushed > 0
        return (
            self.tail[0::2][mask],
            self.head[0::2][mask],
            pushed[mask],
        )


#: one ArcStore per graph, validated against the graph's cached CSR
#: snapshot by identity: a mutation invalidates the CSR (a new object is
#: built on the next to_csr()), which lazily invalidates the store too —
#: no explicit invalidation hook needed
_STORE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def arc_store_for(graph: "WeightedDiGraph") -> ArcStore:
    """The (memoized) arc store of a graph's current CSR snapshot."""
    matrix = graph.to_csr()
    cached = _STORE_CACHE.get(graph)
    if cached is not None and cached[0] is matrix:
        return cached[1]
    store = ArcStore.from_csr(matrix)
    try:
        _STORE_CACHE[graph] = (matrix, store)
    except TypeError:  # pragma: no cover - unweakrefable graph type
        pass
    return store


# ----------------------------------------------------------------------
# vectorized traversal
# ----------------------------------------------------------------------
def bfs_levels(
    store: ArcStore,
    cap: np.ndarray,
    source: int,
    sink: int | None = None,
) -> np.ndarray:
    """Frontier-batched BFS levels of the residual graph.

    Unreached nodes get ``-1``.  With a ``sink``, expansion stops as
    soon as the sink's level is assigned (the whole level is finished
    first, so every shortest admissible arc survives — exactly what
    Dinic's level graph needs).
    """
    return solve_bfs_levels(
        store.indptr,
        store.arcs,
        store.head,
        cap,
        store.n,
        int(source),
        -1 if sink is None else int(sink),
    )
