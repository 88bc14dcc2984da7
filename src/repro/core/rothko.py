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
* the ``k x k`` boundary matrices ``U`` / ``L`` — persistent across
  iterations, patched per split.  The error matrices ``Err`` and the
  size-weighted witness scores ``Err ⊙ C`` are derived from U/L on
  demand during each witness scan (frozen-color masking applied
  there), not maintained — every scan is ``O(k^2)`` regardless, so
  maintaining them would only pin more ``k x k`` state.

The dense ``k x n`` degree matrices of the naive formulation are *never*
materialized.  Instead, each split computes on demand exactly the two
degree **slices** it needs, straight off the CSR/CSC index arrays:

* the split-threshold degree vector ``D[j, members(i)]``
  (an edge-chunked masked bincount, ``O(nnz(members))``);
* after the split of ``c`` into ``(c, t)``, the dirty *columns*
  ``{c, t}`` of ``U``/``L`` from the two fresh degree columns
  (:func:`repro.core.kernels.scatter_select_sums` + one member-order
  gather and ``reduceat`` — no argsort) and the dirty *row-groups*
  ``{c, t}`` from ``k x |members|`` degree slices
  (:func:`repro.core.kernels.color_degree_slice`, reduced in bounded
  member chunks so transient memory stays ``O(k)`` per chunk row).

Witness selection stays a pair of ``O(k^2)`` argmax scans.  Per-split
work is
``O(n + nnz(touched rows/cols) + |c| k + k^2)`` — the same asymptotics
as the previous dense-state engine — while peak memory drops from the
two pinned ``k x n`` float64 matrices (16 GB at ``n`` = 1M, ``k`` =
1024) to the adjacency snapshots plus ``O(n)`` transients, which is
what lets ``bench_rothko_largescale`` color million-node graphs.
Degree slices are direct sums of the (in relative mode, non-negative)
weights, so entries are exactly zero iff every term is — the
geometric/relative thresholds need no residue special-casing.

``strategy="batched"`` (default ``"greedy"``) turns the loop into
rounds: the top-``B`` *non-conflicting* witnesses (pairwise-disjoint
color pairs) are selected with one ``O(k^2)`` scan, all ``B`` splits
are decided against the same pre-round state, and the ``2B`` dirtied
columns/row-groups are refreshed in fused kernel passes sharing one
member-order gather.  This amortizes the per-split ``O(n + k^2)``
overhead for large color budgets; the fidelity contract (tested) is
that batched reaches a max q-error within a constant factor of greedy
at equal ``k``, not the identical split sequence.  The default stays
the paper-exact greedy rule.  :meth:`Rothko.verify_state` checks the
maintained state against a from-scratch recompute; the invariant test
suite drives it after every split in both strategies.

The hot kernels dispatch through a resolved
:class:`~repro.core.backends.base.Backend` (``backend=`` argument, the
``REPRO_BACKEND`` environment variable, or auto-detection — numba when
importable, else the numpy reference; see :mod:`repro.core.backends`).
The engine holds the resolved instance and calls its methods directly,
so per-kernel dispatch is one attribute lookup.  All backends are
bit-identical (the parity sweep enforces it), so the choice affects
wall-clock only.  ``workers=`` (or ``REPRO_WORKERS``) opts batched rounds into
parallel execution: the round's color-disjoint witness masks — and the
post-round refresh of the dirtied columns/row-groups — fan across a
:class:`~repro.core.backends.executor.RoundExecutor`, threads where
the backend's kernels release the GIL (numba) and a
shared-memory process pool for the numpy backend.  Results are
collected in submission order, so a parallel round commits exactly the
serial round's splits — bit-for-bit identical colorings (tested).

``RothkoStep.coloring`` is materialized lazily: the engine records each
split's parent color, so any intermediate snapshot can be reconstructed
on demand by remapping descendants back onto their ancestors — callers
that never inspect snapshots (``run()``, Table 6 timing) pay nothing.

Weights may be negative (the LP reduction colors constraint matrices);
the geometric-mean split requires non-negative degrees and raises
otherwise.

The loop is instrumented for :mod:`repro.obs`: every split (greedy) or
round (batched) opens a span carrying the chosen witness and the
pre-split q-error, and the ``rothko.splits`` counter plus the
``rothko.max_q_err`` gauge track progress.  With no recorder installed
(the default) these calls hit the null recorder and cost nothing
measurable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from repro.obs import recorder as _obs
from repro.obs import trace as _trace
from repro.core.backends import RoundExecutor, resolve_backend, resolve_workers
from repro.core.kernels import (
    color_degree_matrix_t,
    grouped_minmax_by_labels,
    members_order,
    relative_spread,
)
from repro.core.partition import Coloring
from repro.exceptions import ColoringError
from repro.utils.stats import log_mean_threshold

SPLIT_MEANS = ("arithmetic", "geometric")
ERROR_MODES = ("absolute", "relative")
STRATEGIES = ("greedy", "batched")

#: colors per fused boundary-column pass (2 directions x chunk rows kept
#: live at once, so transient memory stays a few n-vectors)
_COLUMN_CHUNK = 2
#: cell budget (colors x member rows, both directions) per degree-slice
#: pass in the row-group refresh — bounds the transient block to ~0.5 MB
#: regardless of the split color's size
_SLICE_CELLS = 24576
#: edge budget per refresh chunk: caps the gathered position/weight
#: arrays so a split of a huge color never holds O(nnz(color)) edge
#: temporaries at once (the budget scales with n because O(n) column
#: transients exist regardless)
_EDGE_CHUNK = 4096
#: below this many column cells (4n) a multi-chunk split accumulates the
#: column scatter densely per chunk; above it, keys are collected for
#: one final bincount (dense per-chunk adds would thrash at large n,
#: holding the keys would spike transients at small n)
_COLUMN_ACCUM_CELLS = 1 << 20


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
    strategy:
        ``"greedy"`` (default) performs one split per iteration at the
        single best witness — the paper-exact Algorithm 1.
        ``"batched"`` splits at the top-``batch_size`` non-conflicting
        witnesses per round and fuses their state refreshes, amortizing
        per-split overhead at large color budgets.  Batched rounds obey
        the same stopping rules; the resulting coloring is not
        split-for-split identical to greedy but reaches a comparable
        q-error at equal ``k`` (the fidelity contract the test suite
        enforces).
    batch_size:
        Witnesses per batched round (default 8).  Ignored under the
        greedy strategy.
    backend:
        Kernel backend: a name (``"numpy"``, ``"numba"``, ``"auto"``), a
        resolved :class:`~repro.core.backends.base.Backend` instance, or
        ``None`` — which consults the ``REPRO_BACKEND`` environment
        variable and falls back to auto-detection.  All backends produce
        bit-identical colorings; this knob trades wall-clock only.
    workers:
        Worker fan-out for batched rounds (``None`` consults
        ``REPRO_WORKERS``, default 1 = serial).  With more than one
        worker, each round's color-disjoint eject masks and the fused
        refresh are mapped across threads (backends whose kernels
        release the GIL) or a shared-memory process pool (numpy).
        Parallel rounds commit bit-for-bit the serial rounds' splits.
        Ignored under the greedy strategy.
    parallel_mode:
        Override the executor mode (``"serial"``, ``"threads"``,
        ``"processes"``); ``None`` auto-selects from the backend's
        ``parallel_kernels`` flag.
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
        strategy: str = "greedy",
        batch_size: int | None = None,
        backend=None,
        workers: int | None = None,
        parallel_mode: str | None = None,
    ) -> None:
        if split_mean not in SPLIT_MEANS:
            raise ValueError(
                f"split_mean must be one of {SPLIT_MEANS}, got {split_mean!r}"
            )
        if error_mode not in ERROR_MODES:
            raise ValueError(
                f"error_mode must be one of {ERROR_MODES}, got {error_mode!r}"
            )
        if strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {strategy!r}"
            )
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.strategy = strategy
        self.batch_size = int(batch_size) if batch_size is not None else 8
        self._backend = resolve_backend(backend)
        self._workers = resolve_workers(workers)
        self._parallel_mode = parallel_mode
        self._executor: RoundExecutor | None = None
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
        bad_frozen = [c for c in self.frozen if c >= initial.n_colors]
        if bad_frozen:
            raise ColoringError(f"frozen color ids out of range: {bad_frozen}")

        self.labels = initial.labels.copy()
        self.k = initial.n_colors
        self._members: list[np.ndarray] = [
            members.copy() for members in initial.classes()
        ]
        #: split history: parent color of each color (-1 for initial ones)
        self._parent: list[int] = [-1] * self.k
        self._frozen_ids = np.array(sorted(self.frozen), dtype=np.int64)
        #: capacity cap from the tightest color budget seen (see _grow)
        self._capacity_hint: int | None = None
        self._init_state()

    @property
    def backend(self):
        """The resolved kernel :class:`~repro.core.backends.Backend`."""
        return self._backend

    @property
    def workers(self) -> int:
        """Worker count for the batched-round fan-out (1 = sequential)."""
        return self._workers

    # ------------------------------------------------------------------
    # incremental state: U/L, Err, weighted witness scores (all k x k)
    # ------------------------------------------------------------------
    def _init_state(self) -> None:
        """Build the boundary/error/witness state once, memory-flat.

        The ``U``/``L`` matrices are filled by the same chunked
        column-refresh pass the splits use — every color's degree column
        is computed on demand and reduced per group, so no ``k x n``
        matrix ever exists.  ``O(m + n k)`` time, ``O(n)`` transients.
        """
        capacity = max(16, 2 * self.k)
        k = self.k
        self._sizes = np.zeros(capacity, dtype=np.int64)
        self._alpha_pow = np.ones(capacity, dtype=np.float64)
        self._beta_pow = np.ones(capacity, dtype=np.float64)
        # Boundary matrices in "natural" orientation: row = the node's
        # color group, column = the color the degree points at.
        self._u_out = np.zeros((capacity, capacity), dtype=np.float64)
        self._l_out = np.zeros((capacity, capacity), dtype=np.float64)
        self._u_in = np.zeros((capacity, capacity), dtype=np.float64)
        self._l_in = np.zeros((capacity, capacity), dtype=np.float64)
        # The error matrices and the size-weighted witness scores are
        # *derived* from U/L on demand (`_error_matrices`,
        # `_weighted_scores`) — each witness scan is O(k^2) regardless,
        # so maintaining them would only pin more k x k state.
        if k == 0:
            return

        self._sizes[:k] = [m.size for m in self._members]
        sizes_f = self._sizes[:k].astype(np.float64)
        self._alpha_pow[:k] = np.power(sizes_f, self.alpha)
        self._beta_pow[:k] = np.power(sizes_f, self.beta)

        self._update_boundary_columns(range(k))

    def _spread(self, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
        if self.error_mode == "absolute":
            return upper - lower
        return relative_spread(upper, lower)

    def _error_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Fresh ``(out_err, in_err)`` in (source, target) orientation,
        derived from the maintained U/L in one ``O(k^2)`` pass."""
        k = self.k
        out_err = self._spread(self._u_out[:k, :k], self._l_out[:k, :k])
        in_err = self._spread(self._u_in[:k, :k], self._l_in[:k, :k]).T
        return out_err, in_err

    def _weighted_scores(
        self, err_out: np.ndarray, err_in: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Size-weighted witness scores ``Err ⊙ C``, frozen rows/columns
        masked to ``-inf`` (an out-witness splits the source color, an
        in-witness the target color).

        Derived from the given error matrices — one ``O(k^2)`` product
        per witness scan, the same order as the argmax itself, in
        exchange for no pinned score matrices and no per-split score
        patching.  May return the error matrices themselves (unweighted,
        unfrozen case); callers must not mutate the result.
        """
        k = self.k
        if self.alpha == 0.0 and self.beta == 0.0:
            # Unweighted witnesses (the paper's max-flow setting): the
            # scores ARE the error matrices; only freeze-masking forces
            # a copy.
            if not self._frozen_ids.size:
                return err_out, err_in
            weighted_out = err_out.copy()
            weighted_in = err_in.copy()
        else:
            weight = self._alpha_pow[:k, None] * self._beta_pow[None, :k]
            weighted_out = err_out * weight
            weighted_in = err_in * weight
        if self._frozen_ids.size:
            weighted_out[self._frozen_ids, :] = -np.inf
            weighted_in[:, self._frozen_ids] = -np.inf
        return weighted_out, weighted_in

    def _grow(self) -> None:
        capacity = self._u_out.shape[0]
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
        capacity = self._u_out.shape[0]
        for name in ("_u_out", "_l_out", "_u_in", "_l_in"):
            old = getattr(self, name)
            grown = np.zeros((new_capacity, new_capacity), dtype=np.float64)
            grown[:capacity, :capacity] = old
            setattr(self, name, grown)
        for name, fill in (
            ("_sizes", 0), ("_alpha_pow", 1.0), ("_beta_pow", 1.0)
        ):
            old = getattr(self, name)
            grown = np.full(new_capacity, fill, dtype=old.dtype)
            grown[:capacity] = old
            setattr(self, name, grown)

    def _update_boundary_columns(self, touched: Iterable[int]) -> None:
        """Recompute U/L columns for the dirtied colors over all groups.

        Each dirty color's two degree columns are rebuilt from the
        adjacency — ``D_out[:, c]`` off the CSC arrays, ``D_in[:, c]``
        off the CSR arrays, fused into one key-offset bincount per chunk
        (``O(nnz(columns) + n)``) — and reduced per group with the shared
        member-order gather + ``reduceat`` (no argsort).  Direct sums, so
        entries are exactly zero iff every term is (the property the
        geometric/relative thresholds need).  The member order is built
        once per call, so a batched round's ``2B`` dirty colors amortize
        it.  Chunks read shared pre-round state and write disjoint U/L
        columns, so the round executor may fan them across threads; the
        scattered cell count is accumulated locally and reported to the
        ``kernels.bincount_cells`` counter once per call, not per chunk.
        """
        k = self.k
        kernel = self._backend
        order, starts = members_order(self._members, self._sizes[:k])
        touched = list(touched)
        chunks = [
            touched[begin:begin + _COLUMN_CHUNK]
            for begin in range(0, len(touched), _COLUMN_CHUNK)
        ]
        csr_arrays = (self._csr.indptr, self._csr.indices, self._csr.data)
        csc_arrays = (self._csc.indptr, self._csc.indices, self._csc.data)
        # The gather inside ``scatter_select_sums`` is O(nnz(members)),
        # so a color covering most of a dense graph (the k=1 trivial
        # coloring, above all) would pull the whole edge list onto the
        # heap.  Accumulating over member sub-ranges bounds the transient
        # at O(n) regardless of m — the chunk cuts depend only on array
        # sizes, so mmap and resident snapshots take identical paths and
        # stay bit-identical.
        edge_budget = max(_EDGE_CHUNK, self.n)

        def refresh_chunk(chunk: list[int]) -> None:
            rows = len(chunk)
            fused = np.zeros((2 * rows, self.n), dtype=np.float64)
            for offset, color in enumerate(chunk):
                members = self._members[color]
                for arrays, row in (
                    (csc_arrays, offset), (csr_arrays, rows + offset)
                ):
                    indptr = arrays[0]
                    counts = indptr[members + 1] - indptr[members]
                    for begin, end in self._row_chunks(
                        counts, max(1, members.size), edge_budget
                    ):
                        fused[row] += kernel.scatter_select_sums(
                            *arrays, members[begin:end], self.n
                        )
            upper, lower = kernel.grouped_minmax_ordered(fused, order, starts)
            self._u_out[:k, chunk] = upper[:rows].T
            self._l_out[:k, chunk] = lower[:rows].T
            self._u_in[:k, chunk] = upper[rows:].T
            self._l_in[:k, chunk] = lower[rows:].T

        if self._workers > 1 and len(chunks) > 1:
            self._round_executor().map(refresh_chunk, chunks)
        else:
            for chunk in chunks:
                refresh_chunk(chunk)
        _obs._active.count(
            "kernels.bincount_cells", 2 * len(touched) * self.n
        )

    def _update_boundary_rowgroups(self, touched: Iterable[int]) -> None:
        """Recompute U/L rows for the dirtied groups over all colors.

        ``O(nnz(members) + |members| k)`` per group via on-demand
        ``(2, k, |members|)`` degree slices (both directions in one
        fused bincount), reduced in chunks bounded by both the slice-cell
        and the edge budget, so neither the block nor the gathered
        position/weight temporaries grow with the color's size or its
        hubs' degrees.  Groups read shared pre-round state and write
        disjoint U/L rows, so the round executor may fan them across
        threads; the per-chunk cell counts accumulate locally and reach
        the ``kernels.bincount_cells`` counter as one add per call.
        """
        k = self.k
        kernel = self._backend
        csr_arrays = (self._csr.indptr, self._csr.indices, self._csr.data)
        csc_arrays = (self._csc.indptr, self._csc.indices, self._csc.data)
        cap = max(16, _SLICE_CELLS // (2 * k))
        edge_budget = max(_EDGE_CHUNK, self.n // 2)
        touched = list(touched)

        def refresh_group(group: int) -> None:
            members = self._members[group]
            counts = (
                self._csr.indptr[members + 1] - self._csr.indptr[members]
                + self._csc.indptr[members + 1] - self._csc.indptr[members]
            )
            upper = lower = None
            for begin, end in self._row_chunks(counts, cap, edge_budget):
                block = kernel.color_degree_slice_pair(
                    csr_arrays, csc_arrays,
                    members[begin:end],
                    self.labels, k,
                )
                chunk_upper = block.max(axis=2)
                chunk_lower = block.min(axis=2)
                if upper is None:
                    upper, lower = chunk_upper, chunk_lower
                else:
                    np.maximum(upper, chunk_upper, out=upper)
                    np.minimum(lower, chunk_lower, out=lower)
            self._u_out[group, :k] = upper[0]
            self._l_out[group, :k] = lower[0]
            self._u_in[group, :k] = upper[1]
            self._l_in[group, :k] = lower[1]

        if self._workers > 1 and len(touched) > 1:
            self._round_executor().map(refresh_group, touched)
        else:
            for group in touched:
                refresh_group(group)
        total_rows = int(sum(self._members[group].size for group in touched))
        _obs._active.count("kernels.bincount_cells", 2 * k * total_rows)

    # ------------------------------------------------------------------
    # error matrices and witness selection
    # ------------------------------------------------------------------
    def error_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Current ``(out_err, in_err)`` in (source, target) orientation.

        Absolute mode: ``U - L`` (the q-error spread of Algorithm 1).
        Relative mode: ``log(U / L)`` with ``inf`` where zero and nonzero
        degrees mix, so the smallest eps for which the block is
        ``~eps``-regular is exactly this matrix entry.

        Derived from the maintained U/L in ``O(k^2)`` (fresh arrays are
        returned; mutating them does not disturb the engine).
        """
        return self._error_matrices()

    def _find_witness(self) -> tuple[float, float, int, int, str]:
        """Return (max_raw_err, max_weighted_err, i, j, direction).

        Pure ``O(k^2)`` spread + argmax scans over the maintained U/L —
        no degree-matrix sweep, no argsort.
        """
        k = self.k
        if k == 0:
            return 0.0, 0.0, 0, 0, "out"
        err_out, err_in = self._error_matrices()
        raw_max = float(max(err_out.max(initial=0.0), err_in.max(initial=0.0)))

        weighted_out, weighted_in = self._weighted_scores(err_out, err_in)
        flat_out = int(np.argmax(weighted_out))
        flat_in = int(np.argmax(weighted_in))
        best_out = weighted_out.flat[flat_out]
        best_in = weighted_in.flat[flat_in]
        if best_out >= best_in:
            i, j = divmod(flat_out, k)
            return raw_max, float(best_out), i, j, "out"
        i, j = divmod(flat_in, k)
        return raw_max, float(best_in), i, j, "in"

    # ------------------------------------------------------------------
    # splitting
    # ------------------------------------------------------------------
    def _witness_degrees(self, i: int, j: int, direction: str) -> np.ndarray:
        """The split-threshold degree vector ``D[j, members(i)]`` (out)
        or ``D[i, members(j)]`` (in), computed on demand off the index
        arrays in ``O(nnz(members))`` — chunk-bounded like every other
        degree gather."""
        if direction == "out":
            members, target = self._members[i], j
            indptr = self._csr.indptr
        else:
            members, target = self._members[j], i
            indptr = self._csc.indptr
        counts = indptr[members + 1] - indptr[members]
        return self._threshold_degrees(members, counts, direction, target)

    def _row_chunks(
        self, counts: np.ndarray, cap: int, edge_budget: int
    ) -> list[tuple[int, int]]:
        """Partition member rows into chunks bounded by a row cap and an
        edge budget (rows are atomic, so a single hub row may exceed the
        budget on its own)."""
        r = counts.size
        if r <= cap and int(counts.sum()) <= edge_budget:
            return [(0, r)]
        cum = np.cumsum(counts, dtype=np.int64)
        bounds: list[tuple[int, int]] = []
        start = 0
        while start < r:
            prev = int(cum[start - 1]) if start else 0
            end = int(np.searchsorted(cum, prev + edge_budget, side="right"))
            end = max(min(end, start + cap, r), start + 1)
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
        r = members.size
        degrees = np.empty(r, dtype=np.float64)
        # Single direction, fewer temporaries per edge than the refresh
        # pass — a doubled edge budget keeps the same transient bound.
        for begin, end in self._row_chunks(
            counts, r, max(2 * _EDGE_CHUNK, self.n // 2)
        ):
            degrees[begin:end] = self._backend.select_degrees_toward(
                compressed.indptr, compressed.indices, compressed.data,
                members[begin:end], self.labels, target,
            )
        return degrees

    def _split(self, i: int, j: int, direction: str) -> int:
        """Greedy split with a fused, chunk-bounded state refresh.

        The threshold degree vector, both row-group slices, and both
        fresh boundary columns are key-offset bincounts over the split
        color's edges, gathered in edge-budget chunks — one fused
        kernel pass per chunk instead of a kernel call per piece of
        state, and never more than a chunk of edge temporaries live.
        """
        split_color = i if direction == "out" else j
        members = self._members[split_color]
        csr, csc = self._csr, self._csc
        counts_out = csr.indptr[members + 1] - csr.indptr[members]
        counts_in = csc.indptr[members + 1] - csc.indptr[members]
        if direction == "out":
            degrees = self._threshold_degrees(members, counts_out, "out", j)
        else:
            degrees = self._threshold_degrees(members, counts_in, "in", i)
        eject_mask = split_eject_mask(
            degrees, self.split_mean, relative=self.error_mode == "relative"
        )
        self._apply_split(
            split_color, members[~eject_mask], members[eject_mask]
        )
        self._refresh_split(
            split_color, members, eject_mask, counts_out, counts_in
        )
        return split_color

    def _refresh_split(
        self,
        split_color: int,
        pre_members: np.ndarray,
        eject_mask: np.ndarray,
        counts_out: np.ndarray,
        counts_in: np.ndarray,
    ) -> None:
        """Patch U/L after a greedy split in fused chunk passes.

        Iterates the *pre-split* member list (``retain ∪ eject`` in the
        original order) in chunks bounded by the slice-cell and edge
        budgets.  Per chunk, one bincount scatters both row-group slice
        layers *and* both dirty boundary columns: the labels are already
        post-split, so slice entries toward the sibling color come out
        exact (direct sums, no residues), and the eject mask routes
        every edge to its post-split column.  The chunk's slice block is
        reduced into the ``c``/``t`` row-groups immediately; single-chunk
        splits scatter the column cells in the same bincount, multi-chunk
        splits collect column keys into an O(n)-bounded buffer scattered
        on fill, so the ``4n`` column range is touched once per ~``4n``
        edges rather than once per chunk — and never O(nnz(color)) keys.
        """
        c, t = split_color, self.k - 1
        k, n = self.k, self.n
        csr, csc = self._csr, self._csc
        kernel = self._backend
        labels = self.labels
        r = pre_members.size
        cap = max(16, _SLICE_CELLS // (2 * k))
        bounds = self._row_chunks(
            counts_out + counts_in, cap, max(_EDGE_CHUNK, n // 2)
        )
        single = len(bounds) == 1
        accumulate = not single and 4 * n <= _COLUMN_ACCUM_CELLS
        collect = not single and not accumulate
        if collect:
            # Large-n multi-chunk splits: collect column keys into a
            # buffer bounded at O(n) and scatter-accumulate whenever it
            # fills, so the dense 4n add amortizes to one per ~4n edges
            # while a whole-graph color never holds O(nnz(color)) keys.
            # A buffer covering the full edge total keeps the historical
            # single-scatter behavior bit for bit.
            total_edges = int(counts_out.sum() + counts_in.sum())
            buffer_cap = min(
                total_edges, max(4 * n, _COLUMN_ACCUM_CELLS)
            )
            key_buffer = np.empty(buffer_cap, dtype=np.int64)
            weight_buffer = np.empty(buffer_cap, dtype=np.float64)
            filled = 0

        # The member lists are a color-sorted node order and the sizes
        # are maintained, so node -> rank within that order is one
        # scatter, and the column scatter below lands directly in
        # reduceat layout — no post-hoc (4, n) gather.
        order, starts = members_order(self._members, self._sizes[:k])
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n, dtype=np.int64)

        # Single-chunk splits (the common case) scatter the column cells
        # in the same bincount as the slice; multi-chunk splits either
        # accumulate dense column contributions (small n) or fill the
        # preallocated buffers (large n), so the 4n column range is
        # zeroed once per split, not once per chunk.
        fused: np.ndarray | None = None
        upper = lower = None
        for begin, end in bounds:
            rows = pre_members[begin:end]
            rc = end - begin
            chunk_out = counts_out[begin:end]
            chunk_in = counts_in[begin:end]
            positions = kernel.take_ranges(csr.indptr[rows], chunk_out)
            nodes_o = csr.indices[positions]
            w_o = csr.data[positions]
            positions = kernel.take_ranges(csc.indptr[rows], chunk_in)
            nodes_i = csc.indices[positions]
            w_i = csc.data[positions]
            del positions
            mask = eject_mask[begin:end]
            # Remap local row ids retained-first so the slice block's
            # last axis is [retain | eject] and the group reductions are
            # plain views, not boolean-mask copies.
            retained = int(rc - mask.sum())
            remap = np.empty(rc, dtype=np.int64)
            remap[~mask] = np.arange(retained, dtype=np.int64)
            remap[mask] = np.arange(retained, rc, dtype=np.int64)
            local_o = np.repeat(remap, chunk_out)
            local_i = np.repeat(remap, chunk_in)
            cells = 2 * k * rc
            # Column keys: D_out[:, c|t] sums edges *into* the members
            # (CSC positions, rows 0-1), D_in[:, c|t] edges out of them
            # (CSR positions, rows 2-3); the remapped local id picks c
            # vs t, and the rank mapping puts nodes in reduceat order.
            keys_cols_i = (local_i >= retained) * n + rank[nodes_i]
            keys_cols_o = (2 + (local_o >= retained)) * n + rank[nodes_o]
            keys_slice = [
                labels[nodes_o] * rc + local_o,
                (k + labels[nodes_i]) * rc + local_i,
            ]
            if single:
                combined = kernel.bincount(
                    np.concatenate(
                        keys_slice
                        + [cells + keys_cols_i, cells + keys_cols_o]
                    ),
                    np.concatenate([w_o, w_i, w_i, w_o]),
                    cells + 4 * n,
                )
                block = combined[:cells].reshape(2, k, rc)
                fused = combined[cells:].reshape(4, n)
                for group, lo, hi in ((c, 0, retained), (t, retained, rc)):
                    sub = block[:, :, lo:hi]
                    self._u_out[group, :k] = sub[0].max(axis=1)
                    self._l_out[group, :k] = sub[0].min(axis=1)
                    self._u_in[group, :k] = sub[1].max(axis=1)
                    self._l_in[group, :k] = sub[1].min(axis=1)
            else:
                block = kernel.bincount(
                    np.concatenate(keys_slice),
                    np.concatenate([w_o, w_i]),
                    cells,
                ).reshape(2, k, rc)
                if accumulate:
                    part = kernel.bincount(
                        np.concatenate([keys_cols_i, keys_cols_o]),
                        np.concatenate([w_i, w_o]),
                        4 * n,
                    )
                    if fused is None:
                        fused = part.reshape(4, n)
                    else:
                        fused += part.reshape(4, n)
                else:
                    for keys, weights in (
                        (keys_cols_i, w_i), (keys_cols_o, w_o)
                    ):
                        if filled + keys.size > buffer_cap:
                            # Flush: row incidences are <= 2n per atomic
                            # hub row and the cap is >= 4n, so a drained
                            # buffer always fits the incoming chunk.
                            part = kernel.bincount(
                                key_buffer[:filled],
                                weight_buffer[:filled],
                                4 * n,
                            )
                            if fused is None:
                                fused = part.reshape(4, n)
                            else:
                                fused += part.reshape(4, n)
                            filled = 0
                        key_buffer[filled:filled + keys.size] = keys
                        weight_buffer[filled:filled + keys.size] = weights
                        filled += keys.size
                if upper is None:
                    # [group (c, t), direction, color]
                    upper = np.full((2, 2, k), -np.inf)
                    lower = np.full((2, 2, k), np.inf)
                for group_index, lo, hi in ((0, 0, retained), (1, retained, rc)):
                    if lo < hi:
                        sub = block[:, :, lo:hi]
                        np.maximum(
                            upper[group_index], sub.max(axis=2),
                            out=upper[group_index],
                        )
                        np.minimum(
                            lower[group_index], sub.min(axis=2),
                            out=lower[group_index],
                        )
        if not single:
            for group_index, group in ((0, c), (1, t)):
                self._u_out[group, :k] = upper[group_index, 0]
                self._l_out[group, :k] = lower[group_index, 0]
                self._u_in[group, :k] = upper[group_index, 1]
                self._l_in[group, :k] = lower[group_index, 1]
            if collect:
                part = kernel.bincount(
                    key_buffer[:filled],
                    weight_buffer[:filled],
                    4 * n,
                )
                if fused is None:
                    fused = part.reshape(4, n)
                else:
                    fused += part.reshape(4, n)

        _obs._active.count("kernels.bincount_cells", 2 * k * r + 4 * n)
        col_upper = np.maximum.reduceat(fused, starts, axis=1)
        col_lower = np.minimum.reduceat(fused, starts, axis=1)
        cols = [c, t]
        self._u_out[:k, cols] = col_upper[:2].T
        self._l_out[:k, cols] = col_lower[:2].T
        self._u_in[:k, cols] = col_upper[2:].T
        self._l_in[:k, cols] = col_lower[2:].T

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
            self._alpha_pow[color] = np.power(size_f, self.alpha)
            self._beta_pow[color] = np.power(size_f, self.beta)

    # ------------------------------------------------------------------
    # batched split rounds
    # ------------------------------------------------------------------
    def _round_executor(self) -> RoundExecutor:
        """The engine's round executor, created lazily on first use.

        Mode auto-selection follows the backend's ``parallel_kernels``
        flag (threads for GIL-releasing kernels, the shared-memory
        process pool for numpy); ``workers == 1`` yields the serial
        executor, which costs nothing.
        """
        if self._executor is None:
            self._executor = RoundExecutor.resolve(
                self._workers,
                self._parallel_mode,
                self._backend.parallel_kernels,
            )
        return self._executor

    def release(self) -> None:
        """Shut down the round executor's pools and shared memory.

        Idempotent; called automatically when a batched ``steps()``
        generator finishes.  Only needed explicitly by callers that
        abandon an engine mid-run with ``workers > 1``.
        """
        if self._executor is not None:
            self._executor.release()
            self._executor = None

    def _eject_job_mask(self, job: tuple) -> np.ndarray | None:
        """In-process eject mask for one witness job (the serial and
        thread-mode body of the round fan-out; the process mode runs
        :func:`repro.core.backends.executor._eject_mask_task` against
        the shared-memory mirror instead).  ``None`` drops the witness
        for this round (constant degrees)."""
        direction, members, target, split_mean, relative = job
        indptr = (self._csr if direction == "out" else self._csc).indptr
        counts = indptr[members + 1] - indptr[members]
        degrees = self._threshold_degrees(members, counts, direction, target)
        try:
            return split_eject_mask(degrees, split_mean, relative=relative)
        except ColoringError:
            # Pure floating-point guard: a positive per-direction score
            # implies non-constant degrees, so this can only trip on
            # sub-ulp ties; dropping the witness for one round is safe.
            return None

    def _find_witness_batch(
        self, limit: int, q_tolerance: float = 0.0
    ) -> tuple[float, list[tuple[int, int, str]]]:
        """Current max raw error and the top-``limit`` non-conflicting
        witnesses, best first.

        One ``O(k^2)`` scan serves both the round's stopping check (the
        returned raw maximum) and the batch selection: the positive
        weighted scores of both directions are partially sorted, then
        greedily filtered so the chosen witnesses' color pairs are
        pairwise disjoint — every chosen split is decided against the
        same pre-round state *and* no chosen witness's degree vector or
        membership is invalidated by another split in the round.  Pairs
        already within ``q_tolerance`` are excluded: a round never
        spends budget on splits the stopping rule no longer requires
        (greedy re-checks the tolerance after every single split; rounds
        re-check between rounds and filter members here).
        """
        k = self.k
        if k == 0 or limit <= 0:
            return 0.0, []
        err_out, err_in = self._error_matrices()
        raw = np.concatenate([err_out.ravel(), err_in.ravel()])
        raw_max = float(raw.max(initial=0.0))
        weighted_out, weighted_in = self._weighted_scores(err_out, err_in)
        scores = np.concatenate([weighted_out.ravel(), weighted_in.ravel()])
        # NaN scores (inf error x zero size weight) stop greedy; exclude
        # them outright so argpartition cannot surface them first.
        eligible = np.flatnonzero(
            (np.nan_to_num(scores, nan=-np.inf) > 0) & (raw > q_tolerance)
        )
        if eligible.size == 0:
            return raw_max, []
        oversample = min(eligible.size, 4 * limit)
        top = eligible[
            np.argpartition(scores[eligible], -oversample)[-oversample:]
        ]
        top = top[np.argsort(scores[top], kind="stable")[::-1]]
        used: set[int] = set()
        picked: list[tuple[int, int, str]] = []
        for flat in top.tolist():
            direction = "out" if flat < k * k else "in"
            i, j = divmod(flat % (k * k), k)
            if i in used or j in used:
                continue
            used.update((i, j))
            picked.append((i, j, direction))
            if len(picked) == limit:
                break
        return raw_max, picked

    def _apply_batch(
        self, picked: list[tuple[int, int, str]]
    ) -> list[tuple[tuple[int, int, str], int]]:
        """Split at every chosen witness, then refresh state once.

        All eject masks are decided against the pre-round state (the
        witnesses are color-disjoint, so each degree vector is still
        exact when its split commits), then the ``2B`` dirtied colors'
        columns, row-groups, and error entries are refreshed in fused
        passes sharing one member-order gather.

        With ``workers > 1`` the masks fan across the round executor —
        read-only work against the pre-round snapshot, collected in
        witness order, so the parallel round commits exactly the serial
        round's splits.
        """
        relative = self.error_mode == "relative"
        jobs: list[tuple] = []
        for i, j, direction in picked:
            split_color = i if direction == "out" else j
            target = j if direction == "out" else i
            jobs.append((
                direction, self._members[split_color], target,
                self.split_mean, relative,
            ))
        executor = self._round_executor()
        if executor.mode == "processes":
            executor.attach_graph(
                (self._csr.indptr, self._csr.indices, self._csr.data),
                (self._csc.indptr, self._csc.indices, self._csc.data),
                self.labels,
            )
        masks = executor.eject_masks(jobs, self.labels, self._eject_job_mask)
        pending: list[tuple[tuple[int, int, str], int, np.ndarray]] = []
        for witness, eject_mask in zip(picked, masks):
            if eject_mask is None:
                continue
            i, j, direction = witness
            split_color = i if direction == "out" else j
            pending.append((witness, split_color, eject_mask))
        splits: list[tuple[tuple[int, int, str], int]] = []
        dirty: list[int] = []
        for witness, split_color, eject_mask in pending:
            members = self._members[split_color]
            self._apply_split(
                split_color, members[~eject_mask], members[eject_mask]
            )
            dirty.extend((split_color, self.k - 1))
            splits.append((witness, split_color))
        if dirty:
            self._update_boundary_columns(dirty)
            self._update_boundary_rowgroups(dirty)
        return splits

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
        renumbers by first occurrence.  Callers tracking engine state
        (e.g. the pipeline's block-weight tracker) work in engine-id
        space and translate at the boundary.
        """
        if not 0 <= color < self.k:
            raise ColoringError(f"color {color} out of range [0, {self.k})")
        return self._members[color]

    def max_q_err(self) -> float:
        """Max unweighted q-error of the current coloring.

        Served from the maintained error matrices in ``O(k^2)`` — no
        degree-matrix rebuild.  Equals ``RothkoResult.max_q_err`` of a
        fresh run stopped at this state.
        """
        return self._find_witness()[0]

    def coloring_at(self, n_colors: int) -> Coloring:
        """Reconstruct the coloring as of the split that reached
        ``n_colors`` colors, by replaying the parent pointers backwards."""
        if n_colors >= self.k:
            return self.coloring()
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

        Under ``strategy="batched"`` the loop advances a whole round of
        non-conflicting splits at a time; one step is still yielded per
        split (snapshots replay exactly as in greedy mode), with
        ``q_err_before`` reporting the error of the *pre-round* state
        for every split of that round.
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
        if self.strategy == "batched":
            yield from self._steps_batched(
                max_colors, q_tolerance, max_iterations, start
            )
            return
        iteration = 0
        while True:
            if max_colors is not None and self.k >= max_colors:
                return
            if max_iterations is not None and iteration >= max_iterations:
                return
            raw_err, weighted_err, i, j, direction = self._find_witness()
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

    def _steps_batched(
        self,
        max_colors: int | None,
        q_tolerance: float,
        max_iterations: int | None,
        start: float,
    ) -> Iterator[RothkoStep]:
        """Round-based variant of the anytime loop (``strategy="batched"``)."""
        try:
            yield from self._rounds_batched(
                max_colors, q_tolerance, max_iterations, start
            )
        finally:
            # Pools and shared memory are per-run transients; the engine
            # itself stays usable (a follow-up run re-creates them).
            self.release()

    def _rounds_batched(
        self,
        max_colors: int | None,
        q_tolerance: float,
        max_iterations: int | None,
        start: float,
    ) -> Iterator[RothkoStep]:
        iteration = 0
        while True:
            limit = self.batch_size
            if max_colors is not None:
                limit = min(limit, max_colors - self.k)
            if max_iterations is not None:
                limit = min(limit, max_iterations - iteration)
            if limit <= 0:
                return
            raw_err, picked = self._find_witness_batch(limit, q_tolerance)
            if raw_err <= q_tolerance or not picked:
                return
            k_before = self.k
            with _trace.span(
                "rothko.round", witnesses=len(picked), q_err_before=raw_err
            ) as round_span:
                splits = self._apply_batch(picked)
                round_span.set(splits=len(splits))
            recorder = _obs._active
            recorder.count("rothko.rounds")
            recorder.count("rothko.splits", len(splits))
            recorder.gauge("rothko.max_q_err", raw_err)
            if not splits:
                return
            for offset, (witness, parent_color) in enumerate(splits):
                iteration += 1
                yield RothkoStep(
                    iteration=iteration,
                    n_colors=k_before + offset + 1,
                    q_err_before=raw_err,
                    witness=witness,
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
            strategy=self.strategy,
            backend=self._backend.name,
            workers=self._workers,
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
            ("U_out", self._u_out[:k, :k], u_out),
            ("L_out", self._l_out[:k, :k], l_out),
            ("U_in", self._u_in[:k, :k], u_in),
            ("L_in", self._l_in[:k, :k], l_in),
        ]
        derived_err_out, derived_err_in = self._error_matrices()
        checks += [
            ("Err_out", derived_err_out, self._spread(u_out, l_out)),
            ("Err_in", derived_err_in, self._spread(u_in, l_in).T),
        ]
        weight = self._alpha_pow[:k, None] * self._beta_pow[None, :k]
        w_out = self._spread(u_out, l_out) * weight
        w_in = self._spread(u_in, l_in).T * weight
        if self._frozen_ids.size:
            w_out[self._frozen_ids, :] = -np.inf
            w_in[:, self._frozen_ids] = -np.inf
        derived_out, derived_in = self._weighted_scores(
            derived_err_out, derived_err_in
        )
        checks += [
            ("weighted_out", derived_out, w_out),
            ("weighted_in", derived_in, w_in),
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
    strategy: str = "greedy",
    batch_size: int | None = None,
    backend=None,
    workers: int | None = None,
) -> RothkoResult:
    """Compute a quasi-stable coloring with the Rothko heuristic.

    Exactly one stopping knob is required: a color budget ``n_colors``
    and/or a target maximum q-error ``q``.  ``strategy="batched"``
    enables the fused multi-witness split rounds, with ``batch_size``
    witnesses per round (see :class:`Rothko`).

    Examples
    --------
    >>> from repro.graphs.generators import karate_club
    >>> result = q_color(karate_club(), n_colors=6)
    >>> result.n_colors
    6
    """
    if n_colors is None and q is None:
        raise ValueError("q_color needs n_colors and/or q")
    if n_colors is not None and n_colors < 1:
        raise ValueError(f"n_colors must be positive, got {n_colors}")
    if q is not None and q < 0:
        raise ValueError(f"q must be non-negative, got {q}")
    engine = Rothko(
        graph,
        initial=initial,
        alpha=alpha,
        beta=beta,
        split_mean=split_mean,
        frozen=frozen,
        strategy=strategy,
        batch_size=batch_size,
        backend=backend,
        workers=workers,
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
    strategy: str = "greedy",
    batch_size: int | None = None,
    backend=None,
    workers: int | None = None,
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
    if n_colors is not None and n_colors < 1:
        raise ValueError(f"n_colors must be positive, got {n_colors}")
    if eps is not None and eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    engine = Rothko(
        graph,
        initial=initial,
        alpha=alpha,
        beta=beta,
        frozen=frozen,
        error_mode="relative",
        strategy=strategy,
        batch_size=batch_size,
        backend=backend,
        workers=workers,
    )
    return engine.run(
        max_colors=n_colors,
        q_tolerance=eps if eps is not None else 0.0,
        max_iterations=max_iterations,
    )
