"""The Rothko algorithm (Sec. 5.2, Algorithm 1).

Rothko computes a quasi-stable coloring heuristically: starting from the
coarsest partition it repeatedly

1. builds the degree spread ("error") matrices ``U - L`` in both
   directions,
2. picks the *witness* — the color pair (and direction) with the largest
   size-weighted error ``Err ⊙ C``, where ``C[i, j] = |P_i|^alpha
   |P_j|^beta``,
3. splits the witnessing color at the arithmetic (or shifted geometric)
   mean of its members' degrees toward the other color,

until the requested number of colors is reached or the maximum q-error
drops below the tolerance.  The algorithm is *anytime*: `steps()` exposes
the loop as a generator so callers can consume intermediate colorings
(Table 6 measures exactly this responsiveness).

Implementation notes
--------------------
The engine is **memory-flat**: its persistent state is ``O(m + k^2)``,
never ``O(n k)``.  It keeps only

* the CSR/CSC adjacency snapshots (``O(m)``),
* the per-color member lists and the label array (``O(n)`` total),
* the two ``k x k`` error matrices ``Err_out`` and ``Err_in`` (one
  ``(2, capacity, capacity)`` float64 array) in natural orientation:
  row = the node's color, column = the color its degree points at,
  each entry the spread ``U - L`` (relative mode:
  ``relative_spread(U, L)``) of the row's members' degrees toward the
  column.  The bounds ``U``/``L`` themselves are never kept: every
  refresh recomputes both from its own gather;
* per natural row and direction the raw maximum, the weighted
  maximum of ``Err ⊙ C`` and its first argmax (``O(k)``) — for the
  in-direction, the *column* maxima of the full scan's score matrix,
* a ``4n`` float64 column accumulator (two colors, two directions) and
  its ``4n`` int32 slot map, reused by every split (48 bytes per node,
  allocated by the first split).  The size-weighted scores ``Err ⊙ C``
  are never stored: the maxima are patched from the entries a split
  changes.

The dense ``k x n`` degree matrices of the naive formulation are *never*
materialized.  A split of ``c`` into ``(c, t)`` touches only what its
arcs reach; with ``vol(P)`` the number of arcs at the members of ``c``:

* when ``vol(P)`` fits one edge-budget chunk the arcs of both
  directions are gathered once, in member order, and serve everything:
  the split-threshold degrees ``D[j, members(i)]`` are a bincount over
  the witness direction's arcs toward the target, and after the split
  each arc's half is its member's eject flag.  Larger splits gather in
  chunks, once for the threshold and once for the refresh;
* rows ``c`` and ``t`` are rewritten whole in both directions from the
  nonzero (member, color) degree sums — a group's max toward a color
  is the max of those sums, and its min is 0 unless a per-color touch
  count shows that every member touches that color — and rescanned;
* in the columns, only the colors ``g`` with a node adjacent to the
  split members can change: any other had degree 0 toward ``c`` and
  has 0 toward ``c`` and ``t``.  For each adjacent ``g`` the cells
  ``(g, c)`` and ``(g, t)`` come from the adjacent nodes alone,
  grouped by label with a per-group touch count, and ``g``'s maxima
  are patched from those two entries; ``g`` is rescanned only when its
  raw maximum or its weighted argmax sat at ``c`` and dropped;
* :meth:`Rothko._find_witness` is then an ``O(k)`` argmax over the
  maxima, with the full scan's tie-break (row-major first, out before
  in; for the in-direction, the smallest first-argmax among the rows
  attaining the maximum, then the first such row).

A split therefore costs ``O(vol(P))`` plus ``O(k)`` for the two rows it
rewrites.  Each refresh half has a dense and a sparse form, picked from
sizes the split can observe, never from an option: a chunk keeps the
dense ``2k x rows`` degree slice wherever its cells do not exceed the
arcs gathered (early splits of large colors with dense rows), and the
columns are rewritten whole, from a member-order ``reduceat`` over all
``n`` nodes, whenever the split's arcs reach ``n`` (or span chunks).
Peak memory stays the adjacency snapshots plus ``O(n)`` transients,
which is what lets ``bench_rothko_largescale`` color million-node
graphs.  Degree sums are direct sums in a fixed arc order (every form
gives the same bits: a column cell adds the arcs of one half's members
in member order, which the split color's member order preserves), so
entries are exactly zero iff every term is — the geometric/relative
thresholds need no residue special-casing.

The loop is the paper's greedy rule: one split per iteration, at the
single worst witness.  :meth:`Rothko.verify_state` checks the
maintained state against a from-scratch recompute, and the maxima and
the witness against a full scan; the invariant test suite drives it
after every split.

``RothkoStep.coloring`` is materialized lazily: the engine records each
split's parent color, so any intermediate snapshot can be reconstructed
on demand by remapping descendants back onto their ancestors — callers
that never inspect snapshots (``run()``, Table 6 timing) pay nothing.

Weights may be negative (the LP reduction colors constraint matrices);
the geometric-mean split requires non-negative degrees and raises
otherwise.

The loop is instrumented for :mod:`repro.obs`: every split opens a
span carrying the chosen witness and the pre-split q-error, and the
``rothko.splits`` counter plus the ``rothko.max_q_err`` gauge track
progress.  The counters ``rothko.witness_s``, ``rothko.threshold_s``
and ``rothko.refresh_s`` split the loop's time into witness selection
(just before the span opens), the gather and split threshold, and
committing the split plus the state refresh (together the whole span);
``kernels.bincount_cells`` (cells scattered and reduced),
``rothko.cells_patched`` (cells rewritten outside the two rewritten
rows) and ``rothko.rows_rescanned`` (natural rows whose maxima were
recomputed whole) count a split's work.  One add each per split, no
extra spans.
With no recorder installed (the default) these calls hit the null
recorder and cost nothing measurable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from repro.obs import recorder as _obs
from repro.obs import trace as _trace
from repro.core.kernels import (
    check_backend,
    color_degree_matrix_t,
    grouped_minmax_by_labels,
    grouped_minmax_ordered,
    members_order,
    relative_spread,
    select_degrees_toward,
    take_ranges,
)
from repro.core.partition import Coloring
from repro.exceptions import ColoringError
from repro.utils.stats import log_mean_threshold

SPLIT_MEANS = ("arithmetic", "geometric")
ERROR_MODES = ("absolute", "relative")

#: edge budget per refresh chunk: caps the gathered position/weight
#: arrays so a split of a huge color never holds O(nnz(color)) edge
#: temporaries at once (the budget scales with n because the column
#: accumulator is O(n) regardless)
_EDGE_CHUNK = 4096


def coerce_adjacency(graph) -> sp.csr_matrix:
    """Accept a WeightedDiGraph, networkx graph, or (sparse) matrix."""
    from repro.graphs.digraph import WeightedDiGraph

    if isinstance(graph, WeightedDiGraph):
        return graph.to_csr()
    if sp.issparse(graph):
        matrix = graph.tocsr().astype(np.float64, copy=False)
        if matrix is graph and matrix.data.flags.writeable:
            # Already-float64 CSR inputs come back as the same object;
            # snapshot them so caller-side mutation cannot corrupt the
            # engine's maintained state mid-run.  (Format or dtype
            # conversions above already allocated fresh arrays.)
            # Read-only inputs — memmapped edge-store snapshots — are
            # immutable by construction, and copying one would pull the
            # whole file resident, defeating the out-of-core path.
            matrix = matrix.copy()
    elif isinstance(graph, np.ndarray):
        matrix = sp.csr_matrix(graph, dtype=np.float64)
    else:
        # Duck-type networkx: it has `adj` and `nodes`.
        if hasattr(graph, "adj") and hasattr(graph, "nodes"):
            from repro.graphs.digraph import WeightedDiGraph as _G

            return _G.from_networkx(graph).to_csr()
        raise TypeError(f"cannot interpret {type(graph).__name__} as a graph")
    if matrix.shape[0] != matrix.shape[1]:
        raise ColoringError(f"adjacency must be square, got {matrix.shape}")
    if matrix.data.flags.writeable:
        # Read-only data is a memmapped edge-store snapshot, which ingest
        # already validated; scanning it would page the whole file in.
        if not matrix.has_canonical_format:
            # Duplicate or unsorted entries would sum in a different
            # order per direction; the canonical form keeps a degree
            # exactly equal however the refresh gathers it.
            matrix = matrix.copy()
            matrix.sum_duplicates()
        bad = np.flatnonzero(~np.isfinite(matrix.data))
        if bad.size:
            position = int(bad[0])
            row = np.searchsorted(matrix.indptr, position, side="right") - 1
            raise ColoringError(
                f"non-finite weight {matrix.data[position]} on arc "
                f"{int(row)} -> {int(matrix.indices[position])}"
            )
    return matrix


def coerce_adjacency_pair(graph) -> tuple[sp.csr_matrix, sp.csc_matrix]:
    """CSR *and* CSC snapshots for the engine's two scan directions.

    ``WeightedDiGraph`` inputs reuse the graph's own cached CSC — for
    edge-store graphs that view is memmap-backed, so deriving a resident
    CSC from the CSR here would silently re-materialize the whole edge
    list in RAM.  Every other input derives the CSC from the coerced CSR
    exactly as before (``to_csc`` caches the same conversion, so the
    two paths agree bit-for-bit).
    """
    from repro.graphs.digraph import WeightedDiGraph

    if isinstance(graph, WeightedDiGraph):
        return graph.to_csr(), graph.to_csc()
    csr = coerce_adjacency(graph)
    return csr, csr.tocsc()


def split_eject_mask(
    degrees: np.ndarray, split_mean: str, relative: bool = False
) -> np.ndarray:
    """Boolean mask of the members a split ejects into a fresh color.

    This is the threshold rule of Algorithm 1 lines 11-13, shared by the
    static :class:`Rothko` engine and the streaming
    :class:`repro.dynamic.DynamicColoring` repair loop.  ``degrees`` holds
    the witnessing block degrees of the color's members.  Raises
    :class:`ColoringError` when the degrees are constant (no proper split
    exists).
    """
    if relative and degrees.min() == 0.0 < degrees.max():
        # Zero is similar only to itself under the relative relation: the
        # only valid move is separating the zero-degree members.
        return degrees > 0.0
    if split_mean == "geometric" or relative:
        threshold = log_mean_threshold(degrees)
    else:
        threshold = float(degrees.mean())
    eject_mask = degrees > threshold
    if not eject_mask.any() or eject_mask.all():
        # Numerical edge case: fall back to a midpoint split, which is
        # proper whenever the degrees are not all equal.
        midpoint = (degrees.min() + degrees.max()) / 2.0
        eject_mask = degrees > midpoint
        if not eject_mask.any() or eject_mask.all():
            raise ColoringError(
                "witness has constant degrees; cannot split "
                "(q-error should have been 0)"
            )
    return eject_mask


class RothkoStep:
    """Snapshot emitted after every split of the anytime loop.

    The :attr:`coloring` is materialized lazily on first access (and
    cached): the engine's split history is a forest of parent pointers,
    so the labels at this step are recovered by mapping every color
    created later back onto its ancestor.  Snapshots therefore stay
    valid — and immutable — even after the loop has moved on, while
    callers that never look at them skip the ``O(n)`` copy entirely.
    The engine reference is dropped on first access; a snapshot that is
    retained but never read keeps the engine (and its adjacency
    snapshots) alive — touch ``.coloring`` before shelving a step
    long-term.
    """

    __slots__ = (
        "iteration",
        "n_colors",
        "q_err_before",
        "witness",
        "parent_color",
        "elapsed",
        "_engine",
        "_coloring",
    )

    def __init__(
        self,
        *,
        iteration: int,
        n_colors: int,
        q_err_before: float,
        witness: tuple[int, int, str],
        parent_color: int,
        elapsed: float,
        engine: "Rothko",
    ) -> None:
        #: split counter (1-based)
        self.iteration = iteration
        #: number of colors after this split
        self.n_colors = n_colors
        #: max unweighted q-error of the coloring *before* this split
        self.q_err_before = q_err_before
        #: (source_color, target_color, direction) that witnessed the split
        self.witness = witness
        #: engine color id that was split (the new color's parent)
        self.parent_color = parent_color
        #: seconds since the run started
        self.elapsed = elapsed
        self._engine = engine
        self._coloring: Coloring | None = None

    @property
    def new_color(self) -> int:
        """Engine color id created by this split (always the highest)."""
        return self.n_colors - 1

    @property
    def coloring(self) -> Coloring:
        """Coloring after this split (lazily materialized, cached)."""
        if self._coloring is None:
            self._coloring = self._engine.coloring_at(self.n_colors)
            # Once materialized the engine reference is dead weight —
            # drop it so a retained snapshot does not pin the engine's
            # adjacency snapshots and k x k state in memory.
            self._engine = None
        return self._coloring

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RothkoStep):
            return NotImplemented
        return (
            self.iteration == other.iteration
            and self.n_colors == other.n_colors
            and self.q_err_before == other.q_err_before
            and self.witness == other.witness
            and self.elapsed == other.elapsed
            and self.coloring == other.coloring
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.iteration,
                self.n_colors,
                self.q_err_before,
                self.witness,
                self.elapsed,
                self.coloring,
            )
        )

    def __repr__(self) -> str:
        return (
            f"RothkoStep(iteration={self.iteration}, "
            f"n_colors={self.n_colors}, q_err_before={self.q_err_before!r}, "
            f"witness={self.witness!r}, elapsed={self.elapsed!r})"
        )


@dataclass(frozen=True)
class RothkoResult:
    """Final output of :func:`q_color`."""

    coloring: Coloring
    max_q_err: float
    n_iterations: int
    elapsed: float

    @property
    def n_colors(self) -> int:
        return self.coloring.n_colors


class Rothko:
    """Incremental engine for Algorithm 1.

    Parameters
    ----------
    graph:
        Graph or square adjacency matrix.
    initial:
        Starting partition (default: the trivial one-color partition).
        Rothko only ever splits, so initial classes are never merged —
        this is how the LP and flow pipelines pin special nodes.
    alpha, beta:
        Witness weighting exponents (Algorithm 1 line 7).  The paper uses
        ``(0, 0)`` for max-flow, ``(1, 0)`` for LPs, ``(1, 1)`` for
        centrality.
    split_mean:
        ``"arithmetic"`` (default) or ``"geometric"`` — the split
        threshold (Sec. 5.2 recommends geometric for scale-free graphs
        with non-negative weights).
    frozen:
        Initial color ids that must never be split (e.g. source/sink).
    error_mode:
        ``"absolute"`` (default) targets the q-stable relation
        ``|u - v| <= q``; ``"relative"`` targets the eps-relative
        relation ``u e^-eps <= v <= u e^eps`` (Sec. 3.1).  In relative
        mode the per-pair error is ``log(max/min)`` of the block degrees
        (``inf`` when zero and nonzero degrees mix — zero is similar
        only to itself), weights must be non-negative, and the split
        threshold is always geometric.
    """

    def __init__(
        self,
        graph,
        initial: Coloring | None = None,
        alpha: float = 0.0,
        beta: float = 0.0,
        split_mean: str = "arithmetic",
        frozen: Iterable[int] = (),
        error_mode: str = "absolute",
    ) -> None:
        if split_mean not in SPLIT_MEANS:
            raise ValueError(
                f"split_mean must be one of {SPLIT_MEANS}, got {split_mean!r}"
            )
        if error_mode not in ERROR_MODES:
            raise ValueError(
                f"error_mode must be one of {ERROR_MODES}, got {error_mode!r}"
            )
        self._csr, self._csc = coerce_adjacency_pair(graph)
        self.n = self._csr.shape[0]
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.split_mean = split_mean
        self.frozen = frozenset(frozen)
        self.error_mode = error_mode
        if error_mode == "relative":
            if self._csr.nnz and self._csr.data.min() < 0:
                raise ColoringError(
                    "relative error mode requires non-negative weights"
                )
            # Relative splits happen in log space regardless of the
            # requested mean (an arithmetic threshold is meaningless
            # across orders of magnitude).
            self.split_mean = "geometric"

        if initial is None:
            initial = Coloring.trivial(self.n)
        if initial.n != self.n:
            raise ColoringError(
                f"initial coloring has {initial.n} nodes, graph has {self.n}"
            )
        bad_frozen = [
            c for c in self.frozen if not 0 <= c < initial.n_colors
        ]
        if bad_frozen:
            raise ColoringError(f"frozen color ids out of range: {bad_frozen}")

        self.labels = initial.labels.copy()
        self.k = initial.n_colors
        self._members: list[np.ndarray] = [
            members.copy() for members in initial.classes()
        ]
        #: split history: parent color of each color (-1 for initial ones)
        self._parent: list[int] = [-1] * self.k
        self._initial_colors = self.k
        self._frozen_ids = np.array(sorted(self.frozen), dtype=np.int64)
        #: capacity cap from the tightest color budget seen (see _grow)
        self._capacity_hint: int | None = None
        self._init_state()

    # ------------------------------------------------------------------
    # incremental state: Err (2 x k x k) and the natural-row maxima
    # ------------------------------------------------------------------
    def _init_state(self) -> None:
        """Build the error matrices and the row maxima once, memory-flat.

        Every initial color's rows come from one pass over its arcs (two
        colors per pass); the rows cover every entry, so no column is
        refreshed, and every row's maxima are scanned: ``O(m + k^2)``
        time, no ``k x n`` matrix ever exists.
        """
        capacity = max(16, 2 * self.k)
        k = self.k
        self._sizes = np.zeros(capacity, dtype=np.int64)
        # [0] |P_g|^alpha, [1] |P_g|^beta: the witness weight of a cell
        # in natural row g of direction d toward X is
        # _pow[d, g] * _pow[1 - d, X]
        self._pow = np.ones((2, capacity), dtype=np.float64)
        self._frozen = np.zeros(capacity, dtype=bool)
        self._frozen[self._frozen_ids] = True
        # Error matrices in natural orientation, [0] out and [1] in:
        # row = the node's color group, column = the color the degree
        # points at; U - L (relative mode: relative_spread(U, L)).
        self._err = np.zeros((2, capacity, capacity), dtype=np.float64)
        # Per natural row and direction: the raw maximum, the weighted
        # maximum and its first argmax — what a full O(k^2) scan would
        # find in each row, patched per split (see _patch_maxima).
        self._raw = np.zeros((2, capacity), dtype=np.float64)
        self._best = np.zeros((2, capacity), dtype=np.float64)
        self._best_at = np.zeros((2, capacity), dtype=np.int64)
        # Column refresh scratch over the (color, direction, node) cells
        # of a split: a zero accumulator and a slot map, allocated on
        # first use.
        self._column_sums: np.ndarray | None = None
        self._column_slots: np.ndarray | None = None
        if k == 0:
            return

        self._sizes[:k] = [m.size for m in self._members]
        sizes_f = self._sizes[:k].astype(np.float64)
        self._pow[0, :k] = np.power(sizes_f, self.alpha)
        self._pow[1, :k] = np.power(sizes_f, self.beta)

        cells = 0
        for begin in range(0, k, 2):
            colors = list(range(begin, min(begin + 2, k)))
            cells += self._refresh_rows(colors, self._gathers(colors))
        _obs._active.count("kernels.bincount_cells", cells)
        self._rescan(np.repeat([0, 1], k), np.arange(2 * k) % k)

    def _spread(self, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
        if self.error_mode == "absolute":
            return upper - lower
        return relative_spread(upper, lower)

    def _row_scores(
        self, directions, rows
    ) -> tuple[np.ndarray, np.ndarray]:
        """Raw errors and witness scores of natural rows, each
        ``(rows, k)``: ``directions`` and ``rows`` are matching index
        arrays, or one direction and a slice.

        The one score computation: ``Err ⊙ C`` with
        ``C[g, X] = _pow[d, g] * _pow[1 - d, X]`` — ``|P_i|^alpha
        |P_j|^beta`` of the full scan's ``(i, j)`` — and frozen rows
        (the split color) masked to ``-inf``.  Element-wise, so maxima
        patched cell by cell equal a full scan's bit for bit.
        """
        k = self.k
        raw = self._err[directions, rows, :k]
        if self.alpha == 0.0 and self.beta == 0.0:
            scores = raw.copy()
        else:
            weight = (
                self._pow[directions, rows][..., None]
                * self._pow[1 - directions, :k]
            )
            scores = raw * weight
        if self._frozen_ids.size:
            scores[self._frozen[rows]] = -np.inf
        return raw, scores

    def _grow(self) -> None:
        capacity = self._err.shape[1]
        if self.k < capacity:
            return
        new_capacity = max(2 * capacity, self.k + 1)
        if self._capacity_hint is not None and self.k < self._capacity_hint:
            # A known color budget caps the doubling rule so a budgeted
            # run never overshoots its final capacity — but growth still
            # tracks *realized* k, so a generous budget with an early
            # stop (q_tolerance, witness exhaustion) never over-allocates
            # (the k x k matrices are the engine's largest persistent
            # state besides the adjacency snapshots).  Once k passes a
            # stale hint (a follow-up run with a larger or absent
            # budget), plain doubling resumes — clamping there would
            # degrade growth to one reallocation per split.
            new_capacity = min(new_capacity, self._capacity_hint)
        self._grow_to(new_capacity)

    def _grow_to(self, new_capacity: int) -> None:
        capacity = self._err.shape[1]
        grown = np.zeros((2, new_capacity, new_capacity), dtype=np.float64)
        grown[:, :capacity, :capacity] = self._err
        self._err = grown
        for name, fill in (
            ("_sizes", 0), ("_pow", 1.0), ("_frozen", False), ("_raw", 0.0),
            ("_best", 0.0), ("_best_at", 0),
        ):
            old = getattr(self, name)
            grown = np.full(
                old.shape[:-1] + (new_capacity,), fill, dtype=old.dtype
            )
            grown[..., :capacity] = old
            setattr(self, name, grown)

    def _edge_budget(self) -> int:
        """Arcs per gather chunk: the edge budget, and at least ``n``
        (the column accumulator is ``O(n)`` regardless).  A split whose
        arcs fit it is gathered once."""
        return max(_EDGE_CHUNK, self.n)

    def _arc_ranges(self, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Start and count of each member's arcs, ``(2, |members|)`` each:
        row 0 its out-arcs (CSR), row 1 its in-arcs (CSC)."""
        csr, csc = self._csr, self._csc
        ends = members + 1
        starts = np.array([csr.indptr[members], csc.indptr[members]])
        counts = np.array([csr.indptr[ends], csc.indptr[ends]]) - starts
        return starts, counts

    def _gather(
        self, starts: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Both directions' arcs of the members whose
        :meth:`_arc_ranges` these are, member by member in member order:
        ``(local, node, weight, n_out)`` with the ``n_out`` out-arcs
        (CSR) first, then the in-arcs (CSC); ``local`` is the arc's
        member position."""
        csr, csc = self._csr, self._csc
        size = starts.shape[1]
        counts_flat = counts.ravel()
        positions = take_ranges(starts.ravel(), counts_flat)
        n_out = int(counts[0].sum())
        out_positions, in_positions = positions[:n_out], positions[n_out:]
        # intp node ids: every later gather by node skips the cast
        nodes = np.concatenate(
            [csr.indices[out_positions], csc.indices[in_positions]],
            dtype=np.intp,
        )
        weights = np.concatenate(
            [csr.data[out_positions], csc.data[in_positions]]
        )
        local = np.arange(size, dtype=np.int64)
        local = np.repeat(np.concatenate([local, local]), counts_flat)
        return local, nodes, weights, n_out

    def _gathers(self, colors):
        """The arcs of one or two colors' members, color after color, in
        edge-budget chunks: yields each chunk's :meth:`_gather` and its
        members' positions in ``colors``."""
        parts = [self._members[color] for color in colors]
        members = np.concatenate(parts) if len(parts) > 1 else parts[0]
        groups = np.repeat(np.arange(len(parts)), [part.size for part in parts])
        starts, counts = self._arc_ranges(members)
        for begin, end in self._edge_chunks(
            counts.sum(axis=0), self._edge_budget()
        ):
            yield (
                self._gather(starts[:, begin:end], counts[:, begin:end]),
                groups[begin:end],
            )

    def _refresh_rows(self, colors, chunks, accumulate: bool = False) -> int:
        """Rewrite the whole rows (both directions) of one or two colors
        from their members' arcs; returns the cells scattered.

        ``chunks`` yields ``(arcs, groups)``: a :meth:`_gather` and each
        member's position in ``colors`` (members need not be grouped).
        A color's max toward a color is the max of the nonzero (member,
        color) sums, and its min is the min of them only if every member
        touches the color (a per-color touch count), else 0.  With
        ``accumulate`` each chunk's column cells also add into the
        whole-column accumulator, in arc order.
        """
        k = self.k
        width = 2 * k
        upper = np.full(len(colors) * width, -np.inf)
        lower = np.full(len(colors) * width, np.inf)
        touch = np.zeros(len(colors) * width, dtype=np.int64)
        cells = 0
        for arcs, groups in chunks:
            local, nodes, weights, n_out = arcs
            far = self.labels[nodes]
            far[n_out:] += k
            if width * groups.size <= far.size:
                fold = self._fold_row_slice
            else:
                fold = self._fold_row_pairs
            cells += fold(local, far, weights, groups, (upper, lower, touch))
            if accumulate:
                # Unbuffered, in arc order: the same sums a single
                # bincount over the whole split would produce.
                np.add.at(
                    self._column_sums, self._column_keys(arcs, groups),
                    weights,
                )
        sizes = np.repeat(self._sizes[colors], width)
        self._close_extrema(upper, lower, touch, sizes)
        spread = self._spread(upper, lower).reshape(len(colors), 2, k)
        for group, color in enumerate(colors):
            self._err[:, color, :k] = spread[group]
        return cells

    def _fold_row_slice(self, local, far, weights, groups, accumulators) -> int:
        """Dense row form: one bincount into the ``2k x rows`` slice, so
        every member counts as touching every color (its zeros are
        explicit).  Kept wherever the slice has no more cells than the
        chunk has arcs: early splits of big colors, dense rows."""
        upper, lower, touch = accumulators
        width = 2 * self.k
        rows = groups.size
        # Cell [color, row] sums the row's arcs toward the color in arc
        # order; cells without an arc stay exactly zero.
        block = np.bincount(
            far * rows + local, weights=weights, minlength=width * rows
        ).reshape(width, rows)
        sizes = np.bincount(groups)
        for group in np.flatnonzero(sizes).tolist():
            span = slice(group * width, (group + 1) * width)
            run = block if sizes[group] == rows else block[:, groups == group]
            np.maximum(upper[span], run.max(axis=1), out=upper[span])
            np.minimum(lower[span], run.min(axis=1), out=lower[span])
            touch[span] += run.shape[1]
        return block.size

    def _fold_row_pairs(self, local, far, weights, groups, accumulators) -> int:
        """Sparse row form, ``O(arcs)`` instead of ``O(k rows)``: a stable
        radix sort by color makes each (member, color) pair contiguous,
        the pair sums are a bincount in arc order (the dense form's sums,
        bit for bit), and max/min/touch fold over the pairs alone."""
        upper, lower, touch = accumulators
        arcs = far.size
        if arcs == 0:
            return 0
        radix = far.astype(np.uint16) if 2 * self.k <= 1 << 16 else far
        order = np.argsort(radix, kind="stable")
        far = far[order]
        local = local[order]
        starts = np.empty(arcs, dtype=bool)
        starts[0] = True
        np.not_equal(far[1:], far[:-1], out=starts[1:])
        starts[1:] |= local[1:] != local[:-1]
        ids = np.cumsum(starts)
        pair = np.empty(arcs, dtype=np.int64)
        pair[order] = ids - 1
        sums = np.bincount(pair, weights=weights, minlength=int(ids[-1]))
        cell = groups[local[starts]] * (2 * self.k) + far[starts]
        np.maximum.at(upper, cell, sums)
        np.minimum.at(lower, cell, sums)
        touch += np.bincount(cell, minlength=touch.size)
        return sums.size

    @staticmethod
    def _close_extrema(
        upper: np.ndarray, lower: np.ndarray, touch: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        """Fold the implicit zeros in: where some member did not touch a
        color (``touch < size``), that member's degree 0 joins the max
        and the min — and untouched cells (``-inf``/``inf``) become 0."""
        partial = touch < sizes
        np.maximum(upper, 0.0, out=upper, where=partial)
        np.minimum(lower, 0.0, out=lower, where=partial)

    def _column_keys(self, arcs, groups: np.ndarray) -> np.ndarray:
        """Column cells ``(2 * group + direction) * n + node`` of gathered
        arcs: ``Err_in[:, color]`` collects the arcs out of the members
        (CSR side, direction 1), ``Err_out[:, color]`` the arcs *into*
        them (direction 0)."""
        local, nodes, _, n_out = arcs
        offsets = 2 * self.n * groups
        keys = np.add(nodes, offsets[local], dtype=np.int64)
        keys[:n_out] += self.n
        return keys

    def _whole_columns(self, arcs: int) -> bool:
        """Whether a split rewrites its two columns whole: once its arcs
        reach ``n``, one ``O(n)`` member-order ``reduceat`` beats
        per-node cells.  Below that, only the colors the arcs reach are
        patched, from the adjacent nodes alone."""
        return arcs >= self.n

    def _refresh_split(
        self, split_color: int, eject_mask: np.ndarray, arcs, volume: int
    ) -> tuple[int, int, int]:
        """Refresh the state after a split of ``split_color`` into itself
        and the new color ``t``; returns ``(bincount cells, cells
        patched, rows rescanned)``.

        ``arcs`` is the split's one gather, in the pre-split member
        order that ``eject_mask`` follows; ``None`` gathers the two
        colors again, in chunks.  Rows ``c`` and ``t`` are rewritten
        whole and rescanned.  In the columns, only the colors ``g`` with
        a node adjacent to the split members changed (any other had
        degree 0 toward ``c`` and has 0 toward ``c`` and ``t``): their
        cells ``(g, c)`` and ``(g, t)`` are rewritten and their maxima
        patched from those two entries.
        """
        n, k = self.n, self.k
        t = k - 1
        whole = arcs is None or self._whole_columns(volume)
        if self._column_sums is None:
            self._column_sums = np.zeros(4 * n, dtype=np.float64)
            self._column_slots = np.zeros(4 * n, dtype=np.int32)
        if arcs is None:
            chunks = self._gathers([split_color, t])
        else:
            groups = eject_mask.astype(np.int64)
            chunks = [(arcs, groups)]
        cells = self._refresh_rows([split_color, t], chunks, accumulate=whole)
        if whole:
            directions, rows, before, after, reduced = self._dense_columns(
                split_color
            )
        else:
            directions, rows, before, after, reduced = self._column_extrema(
                split_color, self._column_keys(arcs, groups), arcs[2]
            )
        others = (rows != split_color) & (rows != t)
        directions, rows = directions[others], rows[others]
        stale = self._patch_maxima(
            directions, rows, before[others], after[:, others], split_color
        )
        self._rescan(
            np.concatenate([[0, 0, 1, 1], directions[stale]]),
            np.concatenate([[split_color, t] * 2, rows[stale]]),
        )
        return cells + reduced, 2 * rows.size, 4 + int(stale.sum())

    def _dense_columns(self, split_color: int) -> tuple:
        """Dense column form: reduce the accumulated ``(4, n)`` column
        sums per group with the member-order ``reduceat``, re-zero the
        buffer and rewrite the split color's and the new color's columns
        whole.  Returns the rewritten ``(direction, row)`` pairs, their
        entries at the split color before, the ``(2, pairs)`` entries at
        the split color and the new color after, and the cells reduced.
        """
        n, k = self.n, self.k
        order, starts = members_order(self._members, self._sizes[:k])
        upper, lower = grouped_minmax_ordered(
            self._column_sums.reshape(4, n), order, starts
        )
        self._column_sums[:] = 0.0
        values = self._spread(upper, lower).reshape(2, 2, k)
        before = self._err[:, :k, split_color].flatten()
        self._err[:, :k, split_color] = values[0]
        self._err[:, :k, k - 1] = values[1]
        return (
            np.repeat([0, 1], k), np.arange(2 * k) % k, before,
            values.reshape(2, 2 * k), 4 * n,
        )

    def _column_extrema(
        self, split_color: int, keys: np.ndarray, weights: np.ndarray
    ) -> tuple:
        """Sparse column form: sum the arcs per column cell in the zero
        accumulator, keep one representative arc per cell (the last
        writer of the slot map), reduce those cells per group with a
        per-group touch count, and rewrite the cells of the
        ``(direction, color)`` pairs the arcs reach.  Returns what
        :meth:`_dense_columns` returns, for those pairs."""
        n, k = self.n, self.k
        np.add.at(self._column_sums, keys, weights)
        arcs = np.arange(keys.size, dtype=np.int32)
        self._column_slots[keys] = arcs
        cells = keys[self._column_slots[keys] == arcs]
        sums = self._column_sums[cells]
        self._column_sums[cells] = 0.0
        column, node = np.divmod(cells, n)
        group = column * k + self.labels[node]
        upper = np.full(4 * k, -np.inf)
        lower = np.full(4 * k, np.inf)
        np.maximum.at(upper, group, sums)
        np.minimum.at(lower, group, sums)
        touch = np.bincount(group, minlength=4 * k)
        # [half, direction, color]: pairs adjacent to either half
        upper, lower, touch = (
            array.reshape(2, 2, k) for array in (upper, lower, touch)
        )
        directions, rows = np.nonzero(touch[0] + touch[1])
        upper = upper[:, directions, rows]
        lower = lower[:, directions, rows]
        self._close_extrema(
            upper, lower, touch[:, directions, rows], self._sizes[rows]
        )
        values = self._spread(upper, lower)
        before = self._err[directions, rows, split_color]
        self._err[directions, rows, split_color] = values[0]
        self._err[directions, rows, k - 1] = values[1]
        return directions, rows, before, values, cells.size

    def _patch_maxima(
        self, directions: np.ndarray, rows: np.ndarray, old: np.ndarray,
        new: np.ndarray, split_color: int,
    ) -> np.ndarray:
        """Patch natural rows' maxima from their rewritten entries ``new``
        at the split color and the new color (``old`` is the entry at
        the split color before); returns which rows need a full rescan.

        ``np.argmax``'s tie-break holds (the first maximum wins; the new
        color is the last column, so it wins only a strict improvement).
        A row is rescanned when its raw maximum or its weighted argmax
        sat at the split color and dropped, or when an entry involved
        is NaN (overflowed sums), where the first NaN wins.
        """
        new_color = self.k - 1
        new_c, new_t = new
        # entries are >= 0 or NaN, so the sum is NaN iff one of them is
        stale = np.isnan(old + new_c + new_t)
        raw = self._raw[directions, rows]
        stale |= (old == raw) & (new_c < raw)
        self._raw[directions, rows] = np.maximum(
            np.maximum(raw, new_c), new_t
        )
        if self.alpha == 0.0 and self.beta == 0.0:
            score_c, score_t = new_c, new_t
        else:
            row_pow = self._pow[directions, rows]
            score_c = new_c * (row_pow * self._pow[1 - directions, split_color])
            score_t = new_t * (row_pow * self._pow[1 - directions, new_color])
            stale |= np.isnan(score_c + score_t)
        if self._frozen_ids.size:
            frozen = self._frozen[rows]
            score_c[frozen] = -np.inf
            score_t[frozen] = -np.inf
        best = self._best[directions, rows]
        best_at = self._best_at[directions, rows]
        at_c = best_at == split_color
        stale |= at_c & ~(score_c >= best)
        take = (
            at_c | (score_c > best)
            | ((score_c == best) & (split_color < best_at))
        )
        best = np.where(take, score_c, best)
        best_at = np.where(take, split_color, best_at)
        take = score_t > best
        self._best[directions, rows] = np.where(take, score_t, best)
        self._best_at[directions, rows] = np.where(take, new_color, best_at)
        return stale

    def _rescan(self, directions: np.ndarray, rows: np.ndarray) -> None:
        """Recompute the maxima of whole natural rows, in row blocks so
        the score block stays near the edge budget."""
        step = max(1, 4 * _EDGE_CHUNK // max(self.k, 1))
        for begin in range(0, rows.size, step):
            block = (directions[begin:begin + step], rows[begin:begin + step])
            raw, scores = self._row_scores(*block)
            # max() is the value at argmax(), NaN (the first NaN) included
            self._raw[block] = raw.max(axis=1)
            self._best[block] = scores.max(axis=1)
            self._best_at[block] = scores.argmax(axis=1)

    # ------------------------------------------------------------------
    # error matrices and witness selection
    # ------------------------------------------------------------------
    def error_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Current ``(out_err, in_err)`` in (source, target) orientation.

        Absolute mode: ``U - L`` (the q-error spread of Algorithm 1).
        Relative mode: ``log(U / L)`` with ``inf`` where zero and nonzero
        degrees mix, so the smallest eps for which the block is
        ``~eps``-regular is exactly this matrix entry.

        Copied from the maintained matrices in ``O(k^2)`` (fresh arrays
        are returned; mutating them does not disturb the engine).
        """
        k = self.k
        return self._err[0, :k, :k].copy(), self._err[1, :k, :k].T.copy()

    def _find_witness(self) -> tuple[float, float, int, int, str]:
        """Return (max_raw_err, max_weighted_err, i, j, direction).

        ``O(k)`` over the maintained maxima, with the full scan's
        answer (:meth:`_scan_witness`).  Out: the first row holding the
        global maximum, then that row's first argmax — the row-major
        first argmax of the score matrix.  In: the natural rows kept
        here are the score matrix's *columns*; its row-major first
        argmax is the smallest first-argmax among the rows that attain
        the maximum, then the first such row.  An out-witness wins ties
        with an in-witness.
        """
        k = self.k
        if k == 0:
            return 0.0, 0.0, 0, 0, "out"
        raw_max = float(self._raw[:, :k].max(initial=0.0))
        best = self._best[:, :k]
        row_out = int(np.argmax(best[0]))
        best_out = best[0, row_out]
        best_in = best[1, int(np.argmax(best[1]))]
        if best_out >= best_in:
            column = int(self._best_at[0, row_out])
            return raw_max, float(best_out), row_out, column, "out"
        attain = np.isnan(best[1]) if np.isnan(best_in) else best[1] == best_in
        targets = self._best_at[1, :k]
        i = int(targets[attain].min())
        j = int(np.flatnonzero(attain & (targets == i))[0])
        return raw_max, float(best_in), i, j, "in"

    def _scan_witness(self) -> tuple[float, float, int, int, str]:
        """The ``O(k^2)`` reference for :meth:`_find_witness`: argmax over
        the full score matrices in (source, target) orientation."""
        k = self.k
        if k == 0:
            return 0.0, 0.0, 0, 0, "out"
        raw_out, scores_out = self._row_scores(0, slice(0, k))
        raw_in, scores_in = self._row_scores(1, slice(0, k))
        scores_in = scores_in.T
        raw_max = float(
            np.maximum(raw_out.max(initial=0.0), raw_in.max(initial=0.0))
        )
        flat_out = int(np.argmax(scores_out))
        flat_in = int(np.argmax(scores_in))
        best_out = scores_out.flat[flat_out]
        best_in = scores_in.flat[flat_in]
        if best_out >= best_in:
            i, j = divmod(flat_out, k)
            return raw_max, float(best_out), i, j, "out"
        i, j = divmod(flat_in, k)
        return raw_max, float(best_in), i, j, "in"

    # ------------------------------------------------------------------
    # splitting
    # ------------------------------------------------------------------
    @staticmethod
    def _edge_chunks(counts: np.ndarray, budget: int) -> list[tuple[int, int]]:
        """Partition member rows into chunks of at most ``budget`` arcs
        (rows are atomic, so a single hub row may exceed it alone)."""
        r = counts.size
        if int(counts.sum()) <= budget:
            return [(0, r)]
        cum = np.cumsum(counts, dtype=np.int64)
        bounds: list[tuple[int, int]] = []
        start = 0
        while start < r:
            prev = int(cum[start - 1]) if start else 0
            end = int(np.searchsorted(cum, prev + budget, side="right"))
            end = max(min(end, r), start + 1)
            bounds.append((start, end))
            start = end
        return bounds

    def _threshold_degrees(
        self, members: np.ndarray, counts: np.ndarray,
        direction: str, target: int,
    ) -> np.ndarray:
        """Split-threshold degree vector ``D[target, members]``, gathered
        in edge-budget chunks so no O(nnz(members)) temporary is held."""
        compressed = self._csr if direction == "out" else self._csc
        degrees = np.empty(members.size, dtype=np.float64)
        # Single direction, fewer temporaries per edge than the refresh
        # pass — a doubled edge budget keeps the same transient bound.
        for begin, end in self._edge_chunks(
            counts, max(2 * _EDGE_CHUNK, self.n // 2)
        ):
            degrees[begin:end] = select_degrees_toward(
                compressed.indptr, compressed.indices, compressed.data,
                members[begin:end], self.labels, target,
            )
        return degrees

    def _split(self, i: int, j: int, direction: str) -> int:
        """Greedy split at one witness: threshold, commit, refresh.

        When the split color's arcs fit one edge-budget chunk they are
        gathered once, in member order, and serve the threshold (a
        bincount over the witness direction's arcs toward the target)
        and the refresh; larger splits gather in chunks, once for the
        threshold and once for the refresh.  Reports the threshold
        seconds (gather included), then the seconds to commit the split
        and refresh the state, to the ``rothko.threshold_s`` /
        ``rothko.refresh_s`` counters, and the refresh's work to
        ``kernels.bincount_cells``, ``rothko.cells_patched`` and
        ``rothko.rows_rescanned`` (one add each per split).
        """
        start = time.perf_counter()
        split_color, target = (i, j) if direction == "out" else (j, i)
        members = self._members[split_color]
        starts, counts = self._arc_ranges(members)
        volume = int(counts.sum())
        if volume <= self._edge_budget():
            arcs = self._gather(starts, counts)
            local, nodes, weights, n_out = arcs
            side = slice(0, n_out) if direction == "out" else slice(n_out, None)
            toward = self.labels[nodes[side]] == target
            degrees = np.bincount(
                local[side][toward], weights=weights[side][toward],
                minlength=members.size,
            )
        else:
            arcs = None
            degrees = self._threshold_degrees(
                members, counts[0 if direction == "out" else 1],
                direction, target,
            )
        eject_mask = split_eject_mask(
            degrees, self.split_mean, relative=self.error_mode == "relative"
        )
        decided = time.perf_counter()
        self._apply_split(
            split_color, members[~eject_mask], members[eject_mask]
        )
        cells, patched, rescanned = self._refresh_split(
            split_color, eject_mask, arcs, volume
        )
        recorder = _obs._active
        recorder.count("kernels.bincount_cells", cells)
        recorder.count("rothko.cells_patched", patched)
        recorder.count("rothko.rows_rescanned", rescanned)
        recorder.count("rothko.threshold_s", decided - start)
        recorder.count("rothko.refresh_s", time.perf_counter() - decided)
        return split_color

    def _apply_split(
        self, split_color: int, retain: np.ndarray, eject: np.ndarray
    ) -> None:
        """Commit one split's labels/members/sizes (no state refresh)."""
        self._grow()
        new_color = self.k
        self.k += 1
        self.labels[eject] = new_color
        self._members[split_color] = retain
        self._members.append(eject)
        self._parent.append(split_color)
        for color, members in ((split_color, retain), (new_color, eject)):
            self._sizes[color] = members.size
            size_f = np.float64(members.size)
            self._pow[0, color] = np.power(size_f, self.alpha)
            self._pow[1, color] = np.power(size_f, self.beta)

    # ------------------------------------------------------------------
    # the anytime loop
    # ------------------------------------------------------------------
    def coloring(self) -> Coloring:
        """Current partition as an immutable :class:`Coloring`."""
        return Coloring(self.labels)

    def members(self, color: int) -> np.ndarray:
        """Current member indices of an engine color (do not mutate).

        Engine color ids are *not* canonical :class:`Coloring` ids: new
        colors are appended in split order, while ``coloring()``
        renumbers by first occurrence; :meth:`coloring` and
        :meth:`coloring_at` translate at the boundary.
        """
        if not 0 <= color < self.k:
            raise ColoringError(f"color {color} out of range [0, {self.k})")
        return self._members[color]

    def max_q_err(self) -> float:
        """Max unweighted q-error of the current coloring.

        Served from the maintained row maxima in ``O(k)`` — no
        degree-matrix rebuild.  Equals ``RothkoResult.max_q_err`` of a
        fresh run stopped at this state.
        """
        return self._find_witness()[0]

    def coloring_at(self, n_colors: int) -> Coloring:
        """Reconstruct the coloring as of the split that reached
        ``n_colors`` colors, by replaying the parent pointers backwards.

        Rothko never merges, so no coloring with fewer colors than the
        initial partition ever existed: asking for one raises
        :class:`ColoringError`.
        """
        if n_colors >= self.k:
            return self.coloring()
        if n_colors < self._initial_colors:
            raise ColoringError(
                f"no coloring with {n_colors} colors: the run started "
                f"from {self._initial_colors} initial colors"
            )
        remap = np.arange(self.k, dtype=np.int64)
        for color in range(n_colors, self.k):
            # parent < color, so remap[parent] is already resolved to an
            # ancestor that existed at the requested step.
            remap[color] = remap[self._parent[color]]
        return Coloring(remap[self.labels])

    def steps(
        self,
        max_colors: int | None = None,
        q_tolerance: float = 0.0,
        max_iterations: int | None = None,
    ) -> Iterator[RothkoStep]:
        """Run Algorithm 1, yielding a snapshot after every split.

        Stops when ``max_colors`` is reached, the max q-error drops to
        ``q_tolerance``, no splittable witness remains, or
        ``max_iterations`` splits have been performed.
        """
        if max_colors is None and max_iterations is None and q_tolerance <= 0:
            # Without any bound the loop would refine to the discrete
            # partition, which is legal but rarely intended; allow it but
            # bound iterations by n for safety.
            max_iterations = self.n
        if max_colors is not None and max_colors > self.k:
            # Remember the budget so the doubling rule stops exactly at
            # it (no color count can exceed n, so clamp there too).
            hint = min(max_colors, max(self.n, 1))
            if self._capacity_hint is None or hint > self._capacity_hint:
                self._capacity_hint = hint
        start = time.perf_counter()
        iteration = 0
        while True:
            if max_colors is not None and self.k >= max_colors:
                return
            if max_iterations is not None and iteration >= max_iterations:
                return
            scan_start = time.perf_counter()
            raw_err, weighted_err, i, j, direction = self._find_witness()
            witness_s = time.perf_counter() - scan_start
            if raw_err <= q_tolerance:
                return
            if weighted_err <= 0 or np.isnan(weighted_err):
                # All remaining witnesses are frozen or weightless.  An
                # infinite witness (relative mode, mixed zero/nonzero
                # degrees) is valid and the split proceeds.
                return
            with _trace.span(
                "rothko.split",
                witness=(i, j, direction),
                q_err_before=raw_err,
                size=int(self._sizes[i if direction == "out" else j]),
            ):
                parent_color = self._split(i, j, direction)
            recorder = _obs._active
            recorder.count("rothko.witness_s", witness_s)
            recorder.count("rothko.splits")
            recorder.gauge("rothko.max_q_err", raw_err)
            iteration += 1
            yield RothkoStep(
                iteration=iteration,
                n_colors=self.k,
                q_err_before=raw_err,
                witness=(i, j, direction),
                parent_color=parent_color,
                elapsed=time.perf_counter() - start,
                engine=self,
            )

    def run(
        self,
        max_colors: int | None = None,
        q_tolerance: float = 0.0,
        max_iterations: int | None = None,
    ) -> RothkoResult:
        """Drive :meth:`steps` to completion and return the result."""
        start = time.perf_counter()
        iterations = 0
        with _trace.span(
            "rothko.run",
            n=self.n,
            max_colors=max_colors,
            q_tolerance=q_tolerance,
        ) as run_span:
            for step in self.steps(
                max_colors=max_colors,
                q_tolerance=q_tolerance,
                max_iterations=max_iterations,
            ):
                iterations = step.iteration
            raw_err, _, _, _, _ = self._find_witness()
            run_span.set(n_colors=self.k, max_q_err=raw_err)
        _obs._active.gauge("rothko.max_q_err", raw_err)
        return RothkoResult(
            coloring=self.coloring(),
            max_q_err=raw_err,
            n_iterations=iterations,
            elapsed=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def verify_state(self, atol: float = 1e-8, rtol: float = 1e-9) -> None:
        """Check every piece of maintained state against a from-scratch
        recompute; raises :class:`ColoringError` on divergence.

        The invariant test suite calls this after every split — it is the
        executable definition of what the incremental updates maintain.
        The reference recompute builds the dense ``k x n`` degree
        matrices the flat engine never keeps, so this is a diagnostic
        for test-scale graphs, not a production code path.
        """
        n, k = self.n, self.k
        if sorted(np.unique(self.labels).tolist()) != list(range(k)):
            raise ColoringError("color ids are not contiguous")
        for color, members in enumerate(self._members):
            if not np.array_equal(
                np.sort(members), np.flatnonzero(self.labels == color)
            ):
                raise ColoringError(f"member list of color {color} is stale")
        if not np.array_equal(
            self._sizes[:k], [m.size for m in self._members]
        ):
            raise ColoringError("maintained sizes are stale")
        d_out = color_degree_matrix_t(
            self._csr.indptr, self._csr.indices, self._csr.data,
            self.labels, k,
        )
        d_in = color_degree_matrix_t(
            self._csc.indptr, self._csc.indices, self._csc.data,
            self.labels, k,
        )
        u_out, l_out = grouped_minmax_by_labels(d_out.T, self.labels, k)
        u_in, l_in = grouped_minmax_by_labels(d_in.T, self.labels, k)
        checks = [
            ("Err_out", self._err[0, :k, :k], self._spread(u_out, l_out)),
            ("Err_in", self._err[1, :k, :k], self._spread(u_in, l_in)),
        ]
        for name, maintained, scratch in checks:
            # Maintained sums accumulate edge weights in a different
            # order than the scratch bincount, so rounding differences
            # are relative to the weight magnitude — and rtol contributes
            # nothing on exact-zero entries.  Scale atol by magnitude.
            finite = scratch[np.isfinite(scratch)]
            scale = (
                max(1.0, float(np.abs(finite).max())) if finite.size else 1.0
            )
            if not np.allclose(
                maintained, scratch, atol=atol * scale, rtol=rtol,
                equal_nan=True,
            ):
                raise ColoringError(
                    f"maintained {name} diverged from scratch recompute"
                )
        # The maxima are derived from the maintained matrices, so they
        # must match a full scan of them exactly, as must the witness.
        for direction, name in enumerate(("out", "in") if k else ()):
            raw, scores = self._row_scores(direction, slice(0, k))
            scans = (
                ("raw", self._raw, raw.max(axis=1)),
                ("weighted", self._best, scores.max(axis=1)),
                ("argmax", self._best_at, scores.argmax(axis=1)),
            )
            for track, maintained, scan in scans:
                if not np.array_equal(
                    maintained[direction, :k], scan, equal_nan=True
                ):
                    raise ColoringError(
                        f"maintained {track} {name} row maxima diverged "
                        f"from a full scan"
                    )
        fast, scan = self._find_witness(), self._scan_witness()
        if fast[2:] != scan[2:] or not np.array_equal(
            fast[:2], scan[:2], equal_nan=True
        ):
            raise ColoringError(
                f"witness {fast} diverged from the full scan's {scan}"
            )


def check_stopping_rule(
    n_colors: int | None, tolerance: float | None, name: str = "q"
) -> None:
    """Reject a color budget below 1 and a NaN or negative tolerance.

    ``tolerance = inf`` is legal: it stops at the initial partition.
    ``name`` is the tolerance's name in the error (``q`` or ``eps``).
    """
    if n_colors is not None and not n_colors >= 1:  # NaN fails too
        raise ValueError(f"n_colors must be positive, got {n_colors}")
    if tolerance is not None and not tolerance >= 0:
        raise ValueError(f"{name} must be non-negative, got {tolerance}")


def q_color(
    graph,
    n_colors: int | None = None,
    q: float | None = None,
    alpha: float = 0.0,
    beta: float = 0.0,
    split_mean: str = "arithmetic",
    initial: Coloring | None = None,
    frozen: Iterable[int] = (),
    max_iterations: int | None = None,
    backend: str | None = None,
) -> RothkoResult:
    """Compute a quasi-stable coloring with the Rothko heuristic.

    Exactly one stopping knob is required: a color budget ``n_colors``
    and/or a target maximum q-error ``q``.  ``backend`` accepts only
    ``None`` and ``"numpy"``, the one kernel implementation.

    Examples
    --------
    >>> from repro.graphs.generators import karate_club
    >>> result = q_color(karate_club(), n_colors=6)
    >>> result.n_colors
    6
    """
    if n_colors is None and q is None:
        raise ValueError("q_color needs n_colors and/or q")
    check_stopping_rule(n_colors, q)
    check_backend(backend)
    engine = Rothko(
        graph,
        initial=initial,
        alpha=alpha,
        beta=beta,
        split_mean=split_mean,
        frozen=frozen,
    )
    return engine.run(
        max_colors=n_colors,
        q_tolerance=q if q is not None else 0.0,
        max_iterations=max_iterations,
    )


def eps_color(
    graph,
    n_colors: int | None = None,
    eps: float | None = None,
    alpha: float = 0.0,
    beta: float = 0.0,
    initial: Coloring | None = None,
    frozen: Iterable[int] = (),
    max_iterations: int | None = None,
) -> RothkoResult:
    """Compute an eps-relative quasi-stable coloring (Sec. 3.1).

    The relative analogue of :func:`q_color`: two same-colored nodes may
    differ in block weight by at most a factor ``e^eps``; nodes with zero
    weight toward a color are separated from nodes with nonzero weight
    (zero is similar only to itself).  ``result.max_q_err`` holds the
    achieved *relative* error, i.e. the smallest valid ``eps``.
    """
    if n_colors is None and eps is None:
        raise ValueError("eps_color needs n_colors and/or eps")
    check_stopping_rule(n_colors, eps, name="eps")
    engine = Rothko(
        graph,
        initial=initial,
        alpha=alpha,
        beta=beta,
        frozen=frozen,
        error_mode="relative",
    )
    return engine.run(
        max_colors=n_colors,
        q_tolerance=eps if eps is not None else 0.0,
        max_iterations=max_iterations,
    )
