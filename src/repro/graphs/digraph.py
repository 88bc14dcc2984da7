"""A weighted directed graph tailored to the coloring algorithms.

Design notes
------------
The coloring engine (``repro.core``) works on contiguous integer node ids
``0..n-1`` and a scipy CSR adjacency matrix.  :class:`WeightedDiGraph`
therefore keeps a dict-of-dicts adjacency for cheap construction and
mutation, plus lazily-built, cached CSR/CSC snapshots for the vectorized
kernels.  Mutations invalidate the cache.

Bulk construction goes the other way: :meth:`WeightedDiGraph.from_arrays`
builds the CSR snapshot directly from ``(src, dst, weight)`` arrays and
defers the dict-of-dicts (and, for default integer labels, the label
table) until a mutation or per-node query actually needs them.  The
vectorized pipeline — generators, coloring, solvers — runs entirely off
the CSR/CSC snapshots, so million-node graphs never pay per-edge dict
insertion.

Node labels may be arbitrary hashable objects; the label <-> index mapping
is maintained internally.  Undirected graphs are represented by storing both
edge directions and setting ``directed=False`` for bookkeeping (this makes
every algorithm in the package uniform over both cases, matching the paper's
treatment in Sec. 3).
"""

from __future__ import annotations

import math
import warnings
from typing import Any, Hashable, Iterable, Iterator, Mapping, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError

EdgeTriple = Tuple[Hashable, Hashable, float]


def coerce_index_array(values: Any, name: str) -> np.ndarray:
    """Coerce node-index input to a flat int64 array, loudly.

    A bare ``np.asarray(values, dtype=np.int64)`` silently wraps uint64
    values past ``2**63``, truncates fractional floats, and folds NaN to
    ``INT64_MIN`` — all of which used to surface much later as bogus
    "out of range" endpoints (or worse, as valid-looking wrong arcs).
    Instead, coerce explicitly and verify the round trip, naming the
    first offending arc in the error.
    """
    array = np.asarray(values)
    if array.dtype == np.int64:
        return array.ravel()
    if array.dtype == object or array.dtype.kind in "US":
        # Let numpy's own conversion errors surface for non-numeric
        # input; object arrays of ints coerce losslessly.
        return np.asarray(array, dtype=np.int64).ravel()
    flat = array.ravel()
    with warnings.catch_warnings():
        # NaN/inf casts warn before the round-trip check below catches
        # them with a better message.
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            coerced = flat.astype(np.int64)
        except (ValueError, OverflowError, TypeError) as exc:
            raise GraphError(
                f"{name} indices are not representable as int64: {exc}"
            ) from exc
    with np.errstate(invalid="ignore"):
        mismatch = coerced != flat
    if mismatch.any():
        arc = int(np.flatnonzero(mismatch)[0])
        offender = flat[arc]
        offender = offender.item() if hasattr(offender, "item") else offender
        raise GraphError(
            f"{name} indices are not representable as int64: arc {arc} "
            f"has {name} = {offender!r}"
        )
    return coerced


class WeightedDiGraph:
    """Weighted directed graph with contiguous internal indices.

    Parameters
    ----------
    directed:
        When ``False``, :meth:`add_edge` stores both directions so the
        adjacency matrix is symmetric.  Self-loops are stored once.
    """

    def __init__(self, directed: bool = True) -> None:
        self.directed = directed
        self._n = 0
        #: ``None`` on array-built graphs until a label is asked for —
        #: identity labels ``0..n-1`` are served without the table.
        self._labels: list[Hashable] | None = []
        self._index: dict[Hashable, int] | None = {}
        #: ``None`` on array-built graphs until a mutation or per-node
        #: query materializes the dicts from the CSR/CSC snapshots.
        self._succ: list[dict[int, float]] | None = []
        self._pred: list[dict[int, float]] | None = []
        #: stored arcs in ``_succ``, kept by every dict mutation
        self._arc_count = 0
        self._csr: sp.csr_matrix | None = None
        self._csc: sp.csc_matrix | None = None
        self._listeners: list[Any] = []

    # ------------------------------------------------------------------
    # lazy materialization (array-built graphs)
    # ------------------------------------------------------------------
    def _ensure_labels(self) -> None:
        if self._labels is None:
            self._labels = list(range(self._n))
            self._index = {i: i for i in range(self._n)}

    def _ensure_adjacency(self) -> None:
        if self._succ is not None:
            return
        csr = self.to_csr()
        csc = self.to_csc()
        self._succ = [
            dict(zip(
                csr.indices[a:b].tolist(), csr.data[a:b].tolist()
            ))
            for a, b in zip(csr.indptr[:-1], csr.indptr[1:])
        ]
        self._pred = [
            dict(zip(
                csc.indices[a:b].tolist(), csc.data[a:b].tolist()
            ))
            for a, b in zip(csc.indptr[:-1], csc.indptr[1:])
        ]
        self._arc_count = sum(len(adj) for adj in self._succ)

    # ------------------------------------------------------------------
    # mutation hooks
    # ------------------------------------------------------------------
    def add_listener(self, listener: Any) -> None:
        """Subscribe an observer to structural mutations.

        A listener is duck-typed: if it defines ``on_node_added(index)``
        it is told about every new node, and if it defines
        ``on_arc_changed(ui, vi, old_weight, new_weight)`` it is told
        about every stored-arc weight change (an undirected edge fires
        once per stored direction, so a symmetric view needs no special
        casing).  This is how :class:`repro.dynamic.DynamicColoring`
        maintains its degree matrices incrementally.  Listeners are not
        carried over by :meth:`copy`.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener: Any) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def _notify_node(self, index: int) -> None:
        for listener in self._listeners:
            hook = getattr(listener, "on_node_added", None)
            if hook is not None:
                hook(index)

    def _notify_arc(self, ui: int, vi: int, old: float, new: float) -> None:
        if old == new:
            return
        for listener in self._listeners:
            hook = getattr(listener, "on_arc_changed", None)
            if hook is not None:
                hook(ui, vi, old, new)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, label: Hashable | None = None) -> int:
        """Add a node (default label = its index); return its index."""
        self._ensure_labels()
        self._ensure_adjacency()
        if label is None:
            label = self._n
        index = self._index.get(label)
        if index is not None:
            return index
        index = self._n
        self._labels.append(label)
        self._index[label] = index
        self._succ.append({})
        self._pred.append({})
        self._n += 1
        self._invalidate()
        if self._listeners:
            self._notify_node(index)
        return index

    def add_nodes(self, labels: Iterable[Hashable]) -> list[int]:
        """Add several nodes; return their indices."""
        return [self.add_node(label) for label in labels]

    def add_edge(self, u: Hashable, v: Hashable, weight: float = 1.0) -> None:
        """Add (or overwrite) the edge ``u -> v`` with the given weight.

        For undirected graphs the reverse direction is stored as well.
        A weight of exactly zero means "no edge" (Sec. 3 convention), so
        adding a zero-weight edge removes any existing edge instead.  A
        NaN or infinite weight raises :class:`GraphError`, as in
        :meth:`from_arrays`.
        """
        weight = float(weight)
        if not math.isfinite(weight):
            raise GraphError(f"non-finite weight {weight} on edge {u!r} -> {v!r}")
        if weight == 0.0:
            self.remove_edge(u, v, missing_ok=True)
            return
        ui = self.add_node(u)
        vi = self.add_node(v)
        succ = self._succ[ui]
        old = succ.get(vi, 0.0)
        if old == 0.0:  # stored weights are never zero: a new arc
            self._arc_count += 1 if self.directed or ui == vi else 2
        succ[vi] = weight
        self._pred[vi][ui] = weight
        if not self.directed and ui != vi:
            self._succ[vi][ui] = weight
            self._pred[ui][vi] = weight
        self._invalidate()
        if self._listeners:
            self._notify_arc(ui, vi, old, weight)
            if not self.directed and ui != vi:
                self._notify_arc(vi, ui, old, weight)

    def add_weighted_edges(self, edges: Iterable[EdgeTriple]) -> None:
        for u, v, w in edges:
            self.add_edge(u, v, w)

    def add_edges(self, edges: Iterable[Tuple[Hashable, Hashable]]) -> None:
        for u, v in edges:
            self.add_edge(u, v, 1.0)

    def remove_edge(self, u: Hashable, v: Hashable, missing_ok: bool = False) -> None:
        """Remove the edge ``u -> v`` (both directions if undirected)."""
        self._ensure_labels()
        self._ensure_adjacency()
        try:
            ui, vi = self._index[u], self._index[v]
        except KeyError as exc:
            if missing_ok:
                return
            raise GraphError(f"unknown node in remove_edge({u!r}, {v!r})") from exc
        if vi not in self._succ[ui]:
            if missing_ok:
                return
            raise GraphError(f"no edge {u!r} -> {v!r}")
        old = self._succ[ui][vi]
        del self._succ[ui][vi]
        del self._pred[vi][ui]
        self._arc_count -= 1 if self.directed or ui == vi else 2
        if not self.directed and ui != vi:
            del self._succ[vi][ui]
            del self._pred[ui][vi]
        self._invalidate()
        if self._listeners:
            self._notify_arc(ui, vi, old, 0.0)
            if not self.directed and ui != vi:
                self._notify_arc(vi, ui, old, 0.0)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of stored directed arcs (undirected edges count once)."""
        if self._succ is None:
            csr = self.to_csr()
            if self.directed:
                return int(csr.nnz)
            loops = int(np.count_nonzero(csr.diagonal()))
            return (int(csr.nnz) - loops) // 2 + loops
        arcs = self._arc_count
        if self.directed:
            return arcs
        loops = sum(1 for i, adj in enumerate(self._succ) if i in adj)
        return (arcs - loops) // 2 + loops

    @property
    def n_arcs(self) -> int:
        """Number of stored directed arcs, regardless of directedness:
        ``O(1)``, a count every mutation keeps."""
        if self._succ is None:
            return int(self.to_csr().nnz)
        return self._arc_count

    def labels(self) -> list[Hashable]:
        """Return node labels ordered by internal index."""
        if self._labels is None:
            return list(range(self._n))
        return list(self._labels)

    def index_of(self, label: Hashable) -> int:
        if self._index is None:
            if isinstance(label, (int, np.integer)) and 0 <= label < self._n:
                return int(label)
            raise GraphError(f"unknown node {label!r}")
        try:
            return self._index[label]
        except KeyError as exc:
            raise GraphError(f"unknown node {label!r}") from exc

    def label_of(self, index: int) -> Hashable:
        if self._labels is None:
            if not 0 <= index < self._n:
                raise IndexError(f"node index {index} out of range")
            return index
        return self._labels[index]

    def has_node(self, label: Hashable) -> bool:
        if self._index is None:
            return isinstance(label, (int, np.integer)) and 0 <= label < self._n
        return label in self._index

    def _csr_weight(self, ui: int, vi: int) -> float:
        """Single-arc lookup off the cached CSR (lazy graphs only):
        binary search within the sorted row slice, no dict build."""
        csr = self.to_csr()
        lo, hi = int(csr.indptr[ui]), int(csr.indptr[ui + 1])
        position = lo + int(np.searchsorted(csr.indices[lo:hi], vi))
        if position < hi and csr.indices[position] == vi:
            return float(csr.data[position])
        return 0.0

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        if not self.has_node(u) or not self.has_node(v):
            return False
        if self._succ is None:
            return self._csr_weight(self.index_of(u), self.index_of(v)) != 0.0
        return self.index_of(v) in self._succ[self.index_of(u)]

    def weight(self, u: Hashable, v: Hashable) -> float:
        """Return the weight of ``u -> v`` (0.0 if absent, Sec. 3 convention)."""
        if not self.has_node(u) or not self.has_node(v):
            return 0.0
        if self._succ is None:
            return self._csr_weight(self.index_of(u), self.index_of(v))
        return self._succ[self.index_of(u)].get(self.index_of(v), 0.0)

    def successors(self, u: Hashable) -> Iterator[Hashable]:
        self._ensure_adjacency()
        for vi in self._succ[self.index_of(u)]:
            yield self.label_of(vi)

    def predecessors(self, u: Hashable) -> Iterator[Hashable]:
        self._ensure_adjacency()
        for vi in self._pred[self.index_of(u)]:
            yield self.label_of(vi)

    def out_items(self, index: int) -> Mapping[int, float]:
        """Successor index -> weight map for an internal node index."""
        self._ensure_adjacency()
        return self._succ[index]

    def in_items(self, index: int) -> Mapping[int, float]:
        """Predecessor index -> weight map for an internal node index."""
        self._ensure_adjacency()
        return self._pred[index]

    def out_degree(self, u: Hashable, weighted: bool = False) -> float:
        self._ensure_adjacency()
        adj = self._succ[self.index_of(u)]
        return sum(adj.values()) if weighted else float(len(adj))

    def in_degree(self, u: Hashable, weighted: bool = False) -> float:
        self._ensure_adjacency()
        adj = self._pred[self.index_of(u)]
        return sum(adj.values()) if weighted else float(len(adj))

    def edges(self) -> Iterator[EdgeTriple]:
        """Yield ``(u_label, v_label, weight)``.

        Undirected graphs yield each edge once, with ``u_index <= v_index``.
        """
        self._ensure_adjacency()
        for ui, adj in enumerate(self._succ):
            for vi, w in adj.items():
                if not self.directed and vi < ui:
                    continue
                yield self.label_of(ui), self.label_of(vi), w

    def total_weight(self) -> float:
        """Sum of arc weights (undirected edges counted once)."""
        return sum(w for _, _, w in self.edges())

    def __len__(self) -> int:
        return self.n_nodes

    def __contains__(self, label: Hashable) -> bool:
        return self.has_node(label)

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"<WeightedDiGraph {kind} n_nodes={self.n_nodes} "
            f"n_edges={self.n_edges}>"
        )

    # ------------------------------------------------------------------
    # matrix views
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        self._csr = None
        self._csc = None

    def to_csr(self) -> sp.csr_matrix:
        """Adjacency as a cached ``n x n`` CSR matrix of weights."""
        if self._csr is None:
            self._ensure_adjacency()
            n = self.n_nodes
            rows, cols, data = [], [], []
            for ui, adj in enumerate(self._succ):
                for vi, w in adj.items():
                    rows.append(ui)
                    cols.append(vi)
                    data.append(w)
            self._csr = sp.csr_matrix(
                (np.asarray(data, dtype=np.float64), (rows, cols)), shape=(n, n)
            )
        return self._csr

    def to_csc(self) -> sp.csc_matrix:
        if self._csc is None:
            self._csc = self.to_csr().tocsc()
        return self._csc

    def to_dense(self) -> np.ndarray:
        return self.to_csr().toarray()

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        weight: np.ndarray | None = None,
        *,
        n_nodes: int | None = None,
        directed: bool = True,
        labels: Sequence[Hashable] | None = None,
    ) -> "WeightedDiGraph":
        """Vectorized bulk construction from parallel edge arrays.

        Builds the CSR snapshot directly — no per-edge dict insertion.
        The dict-of-dicts adjacency (and, when ``labels`` is omitted,
        the label table) stays unmaterialized until a mutation or
        per-node query needs it, so array-built graphs feed the
        vectorized coloring/solver pipeline in ``O(m)`` time and memory.

        ``src``/``dst`` hold integer node indices; ``weight`` defaults
        to all ones and must be finite.  Duplicate ``(src, dst)`` pairs
        sum their weights (COO semantics); exact-zero weights are
        dropped (Sec. 3: zero means "no edge").  For ``directed=False``
        pass each undirected edge once, in either orientation.
        ``labels``, when given, must have one entry per node and assigns
        ``labels[i]`` to index ``i``.
        """
        src = coerce_index_array(src, "src")
        dst = coerce_index_array(dst, "dst")
        if src.shape != dst.shape:
            raise GraphError(
                f"src and dst must match, got {src.size} vs {dst.size}"
            )
        if weight is None:
            weight = np.ones(src.size, dtype=np.float64)
        else:
            weight = np.asarray(weight, dtype=np.float64).ravel()
            if weight.shape != src.shape:
                raise GraphError(
                    f"weight must match src/dst, got {weight.size} edges "
                    f"vs {src.size}"
                )
            finite = np.isfinite(weight)
            if not finite.all():
                arc = int(np.argmin(finite))
                raise GraphError(
                    f"non-finite weight {weight[arc]} on arc {arc}: "
                    f"{src[arc]} -> {dst[arc]}"
                )
        if n_nodes is None:
            n = int(max(src.max(), dst.max())) + 1 if src.size else 0
        else:
            n = int(n_nodes)
        if src.size and (
            src.min() < 0 or dst.min() < 0
            or src.max() >= n or dst.max() >= n
        ):
            bad = np.flatnonzero(
                (src < 0) | (dst < 0) | (src >= n) | (dst >= n)
            )
            arc = int(bad[0])
            raise GraphError(
                f"edge endpoints out of range [0, {n}): arc {arc}: "
                f"{src[arc]} -> {dst[arc]}"
            )
        if labels is not None and len(labels) != n:
            raise GraphError(
                f"labels must have one entry per node, got {len(labels)} "
                f"for {n} nodes"
            )
        nonzero = weight != 0.0
        if not nonzero.all():
            src, dst, weight = src[nonzero], dst[nonzero], weight[nonzero]
        if not directed and src.size:
            off_diagonal = src != dst
            src, dst, weight = (
                np.concatenate([src, dst[off_diagonal]]),
                np.concatenate([dst, src[off_diagonal]]),
                np.concatenate([weight, weight[off_diagonal]]),
            )
        graph = cls(directed=directed)
        graph._n = n
        if labels is not None:
            graph._labels = list(labels)
            graph._index = {
                label: i for i, label in enumerate(graph._labels)
            }
            if len(graph._index) != n:
                raise GraphError("duplicate node labels")
        else:
            graph._labels = None
            graph._index = None
        graph._succ = None
        graph._pred = None
        csr = sp.csr_matrix(
            (weight, (src, dst)), shape=(n, n), dtype=np.float64
        )
        # Duplicates were summed by the COO conversion; sums that cancel
        # to exactly zero must disappear entirely (Sec. 3: zero means
        # "no edge", matching add_edge's removal semantics).  Sorted
        # indices let single-edge probes binary-search the row slices.
        csr.eliminate_zeros()
        csr.sort_indices()
        graph._csr = csr
        return graph

    @classmethod
    def from_edgestore(
        cls, store: Any, *, mmap: bool = True
    ) -> "WeightedDiGraph":
        """Array-built graph over an on-disk edge store snapshot.

        ``store`` is an :class:`repro.graphs.edgestore.EdgeStore` or a
        path to one.  With ``mmap=True`` (the default) the cached
        CSR/CSC snapshots wrap the store's ``.npy`` files directly —
        read-only, file-backed, demand-paged — so the coloring kernels
        stream edge segments without the arrays ever being resident.
        ``mmap=False`` loads the same arrays into RAM (the resident
        reference path; colorings are bit-identical either way).

        The dict-of-dicts adjacency stays unmaterialized exactly as in
        :meth:`from_arrays`; a mutation or per-node query materializes
        it (in RAM) from the snapshots, after which the graph behaves
        like any other and the store file is no longer consulted.
        """
        from repro.graphs.edgestore import EdgeStore

        if not isinstance(store, EdgeStore):
            store = EdgeStore(store)
        graph = cls(directed=store.directed)
        graph._n = store.n_nodes
        graph._labels = None
        graph._index = None
        graph._succ = None
        graph._pred = None
        graph._csr = store.csr_matrix(mmap=mmap)
        graph._csc = store.csc_matrix(mmap=mmap)
        return graph

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Hashable, Hashable]],
        directed: bool = True,
        n_nodes: int | None = None,
    ) -> "WeightedDiGraph":
        """Build a unit-weight graph from ``(u, v)`` pairs.

        If ``n_nodes`` is given, nodes ``0..n_nodes-1`` are pre-created so
        isolated vertices survive the conversion.
        """
        graph = cls(directed=directed)
        if n_nodes is not None:
            for i in range(n_nodes):
                graph.add_node(i)
        graph.add_edges(edges)
        return graph

    @classmethod
    def from_weighted_edges(
        cls,
        edges: Iterable[EdgeTriple],
        directed: bool = True,
        n_nodes: int | None = None,
    ) -> "WeightedDiGraph":
        graph = cls(directed=directed)
        if n_nodes is not None:
            for i in range(n_nodes):
                graph.add_node(i)
        graph.add_weighted_edges(edges)
        return graph

    @classmethod
    def from_scipy(cls, matrix: sp.spmatrix, directed: bool = True) -> "WeightedDiGraph":
        """Build from a square sparse adjacency matrix."""
        coo = sp.coo_matrix(matrix)
        if coo.shape[0] != coo.shape[1]:
            raise GraphError(f"adjacency matrix must be square, got {coo.shape}")
        graph = cls(directed=directed)
        for i in range(coo.shape[0]):
            graph.add_node(i)
        for u, v, w in zip(coo.row, coo.col, coo.data):
            if w != 0.0:
                if not directed and v < u:
                    continue
                graph.add_edge(int(u), int(v), float(w))
        return graph

    @classmethod
    def from_networkx(cls, nx_graph: Any, weight: str = "weight") -> "WeightedDiGraph":
        """Convert a networkx (Di)Graph; missing weights default to 1.0."""
        directed = bool(nx_graph.is_directed())
        graph = cls(directed=directed)
        for node in nx_graph.nodes():
            graph.add_node(node)
        for u, v, data in nx_graph.edges(data=True):
            graph.add_edge(u, v, float(data.get(weight, 1.0)))
        return graph

    def to_networkx(self) -> Any:
        import networkx as nx

        nx_graph = nx.DiGraph() if self.directed else nx.Graph()
        nx_graph.add_nodes_from(self.labels())
        for u, v, w in self.edges():
            nx_graph.add_edge(u, v, weight=w)
        return nx_graph

    def _lazy_clone(self, csr: sp.csr_matrix) -> "WeightedDiGraph":
        """Array-built shell around an owned CSR snapshot: label state is
        carried over (copied if materialized), adjacency stays lazy."""
        clone = WeightedDiGraph(directed=self.directed)
        clone._n = self._n
        if self._labels is None:
            clone._labels = None
            clone._index = None
        else:
            clone._labels = list(self._labels)
            clone._index = dict(self._index)
        clone._succ = None
        clone._pred = None
        clone._csr = csr
        return clone

    def copy(self) -> "WeightedDiGraph":
        if self._succ is None:
            # Array-built and still lazy: clone the snapshot, keep the
            # laziness (the copy can diverge through its own mutations).
            return self._lazy_clone(self.to_csr().copy())
        self._ensure_labels()
        clone = WeightedDiGraph(directed=self.directed)
        for label in self._labels:
            clone.add_node(label)
        clone._succ = [dict(adj) for adj in self._succ]
        clone._pred = [dict(adj) for adj in self._pred]
        clone._arc_count = self._arc_count
        return clone

    def reverse(self) -> "WeightedDiGraph":
        """Return the graph with every arc reversed (no-op when undirected)."""
        if not self.directed:
            return self.copy()
        if self._succ is None:
            # CSC -> CSR layout conversion always allocates fresh
            # arrays, so the reversed snapshot owns its buffers (a bare
            # ``.T`` would alias this graph's cached data).
            return self._lazy_clone(self.to_csr().T.tocsr())
        rev = WeightedDiGraph(directed=True)
        for label in self.labels():
            rev.add_node(label)
        for u, v, w in self.edges():
            rev.add_edge(v, u, w)
        return rev

    def as_undirected(self) -> "WeightedDiGraph":
        """Symmetrized copy; antiparallel weights are summed."""
        if not self.directed:
            return self.copy()
        self._ensure_adjacency()
        und = WeightedDiGraph(directed=False)
        for label in self.labels():
            und.add_node(label)
        seen: dict[tuple[int, int], float] = {}
        for ui, adj in enumerate(self._succ):
            for vi, w in adj.items():
                key = (min(ui, vi), max(ui, vi))
                seen[key] = seen.get(key, 0.0) + w
        for (ui, vi), w in seen.items():
            und.add_edge(self.label_of(ui), self.label_of(vi), w)
        return und
