"""Incremental maintenance of quasi-stable colorings under updates.

The paper's robustness results (Fig. 2) show that quasi-stable colorings
degrade *gracefully* under edge noise — a few extra colors absorb a few
extra edges.  :class:`DynamicColoring` exploits exactly that slack to
keep a coloring valid while the graph changes, without recoloring from
scratch:

1. **Patch** — an arc change ``u -> v`` with weight delta ``d`` only
   moves ``D_out[u, color(v)]`` and ``D_in[v, color(u)]``; both degree
   matrices are maintained incrementally in ``O(1)`` per arc event.
2. **Re-check** — only the touched color pair ``(color(u), color(v))``
   can newly violate the tolerance; untouched pairs keep their old block
   degrees, so the maintained invariant (max q-error <= tolerance) needs
   re-verification on a handful of pairs, not ``k^2``.
3. **Repair** — a violated pair re-enters the Rothko split rule
   (:func:`repro.core.rothko.split_eject_mask`) locally: the witnessing
   color is split, the two affected degree columns are rebuilt from the
   graph in ``O(nnz(column))``, and every pair involving a changed color
   is re-queued until the invariant holds again.
4. **Coarsen** — deletions can make colors mergeable again; repair ends
   with a bounded pass that merges color pairs whose join keeps every
   affected block within tolerance (the lattice direction Rothko never
   takes).  The screen reads ``k x k`` upper/lower block bounds, the
   per-class max/min of both degree matrices.  Toward every color ``c``
   other than ``a`` and ``b`` the joined class's spread is exactly
   ``max(U[a, c], U[b, c]) - min(L[a, c], L[b, c])``, so one array
   operation screens all of a candidate's partners in ``O(k)`` each;
   only survivors pay an ``O(n)`` pass over the merged column.  The
   bounds are engine state, kept across updates: an arc event marks
   its two cells stale, a split, merge or new node marks whole colors,
   and just before a screen only those are re-reduced from the same
   degree entries — exact, so every decision equals a full rebuild's.
   The ``O(n k)`` full build runs only after the seed and each rebuild.
5. **Rebuild** — when accumulated churn or color drift exceeds a
   configurable budget, fall back to a full Rothko recoloring and adopt
   its state wholesale; local repair resumes from there.

The engine plugs into :class:`~repro.graphs.digraph.WeightedDiGraph`
mutation hooks (``add_listener``), so graphs mutated directly — not just
through :meth:`DynamicColoring.apply` — stay covered; repair is deferred
until the next :meth:`repair`, :meth:`apply`, or :meth:`snapshot`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from repro.core.kernels import (
    check_backend,
    color_degree_matrices,
    grouped_minmax_ordered,
    members_order,
    relative_spread,
    scatter_add,
)
from repro.core.partition import Coloring
from repro.core.rothko import Rothko, split_eject_mask
from repro.dynamic.updates import EdgeUpdate
from repro.exceptions import ColoringError
from repro.obs import recorder as _obs
from repro.graphs.digraph import WeightedDiGraph

#: float slack for tolerance comparisons on incrementally-patched sums
_EPS = 1e-9


@dataclass
class DynamicStats:
    """Counters describing how much work maintenance did.

    ``splits + merges`` against ``rebuilds`` is the repair-vs-rebuild
    story the benchmarks report; ``repair_seconds`` excludes the seed
    coloring but includes budget-triggered rebuilds.
    """

    updates: int = 0  #: EdgeUpdates applied through apply()/apply_batch()
    arcs_changed: int = 0  #: arc-weight events seen (incl. direct mutations)
    nodes_added: int = 0
    repair_passes: int = 0
    pairs_checked: int = 0
    splits: int = 0
    merges: int = 0
    merge_tests: int = 0
    #: merge tests that passed the O(k) block-bound screen and ran the
    #: O(n) merged-column check
    merge_gathers: int = 0
    rebuilds: int = 0
    columns_refreshed: int = 0
    repair_seconds: float = 0.0
    rebuild_seconds: float = 0.0

    def as_row(self) -> dict:
        return {
            "updates": self.updates,
            "arcs": self.arcs_changed,
            "splits": self.splits,
            "merges": self.merges,
            "rebuilds": self.rebuilds,
            "pairs_checked": self.pairs_checked,
            "merge_tests": self.merge_tests,
            "merge_gathers": self.merge_gathers,
            "repair_s": self.repair_seconds,
            "rebuild_s": self.rebuild_seconds,
        }


@dataclass
class _PinState:
    """Never-split/never-merge classes (e.g. max-flow source and sink)."""

    labels: np.ndarray  # per-node pin group id, -1 = unpinned
    n_groups: int = 0
    anchors: list = field(default_factory=list)  # one member per group


class _BlockBounds(NamedTuple):
    """Member order plus the ``k x k`` block bounds in both directions.

    ``upper[0, a, c]`` / ``lower[0, a, c]`` are the max / min of
    ``w(x, P_c)`` over ``x`` in ``P_a``; index 1 holds the in-direction
    ``w(P_c, x)``.  ``order``/``starts`` come from
    :func:`repro.core.kernels.members_order`.
    """

    order: np.ndarray
    starts: np.ndarray
    upper: np.ndarray
    lower: np.ndarray


class DynamicColoring:
    """Maintain a quasi-stable coloring of a mutating graph.

    Parameters
    ----------
    graph:
        A :class:`WeightedDiGraph` (sparse/dense adjacency is converted;
        converted graphs use integer labels ``0..n-1``).
    q_tolerance:
        The invariant to maintain: max q-error (absolute mode) or max
        relative error (relative mode) of the coloring stays at or below
        this value, exactly as the seed Rothko run achieves it.
    coloring:
        Optional starting partition.  The seed coloring is produced by a
        Rothko run *from* this partition (zero splits if it is already
        within tolerance), so special classes survive.
    frozen:
        Color ids of ``coloring`` that must never be split or merged.
        Requires ``coloring``.
    max_colors:
        Optional cap passed to every (re)coloring run; local repair also
        falls back to a rebuild when it would exceed the cap.  With a cap
        the tolerance is best-effort, exactly as in static Rothko.
    drift_budget:
        Fraction controlling the fallback to full recoloring: rebuild
        when arc churn since the last rebuild exceeds ``drift_budget *
        n_arcs``, or when repair has grown the color count more than
        ``drift_budget`` (relative) above the last rebuild's count.
    merge_attempts:
        Cap on coarsening tests per repair pass.  Each test costs ``O(k)``
        against the kept block bounds, which a pass brings up to date
        before its first test and after each merge by re-reducing the
        stale colors (``O(|P| k + n)`` each) and cells (``O(|P|)``); a
        test that passes that screen adds ``O(n)``.
    attach:
        Subscribe to the graph's mutation hooks so direct ``add_edge`` /
        ``remove_edge`` calls are tracked too.  Use :meth:`detach` (or a
        ``with`` block) to unsubscribe.
    backend:
        Accepts only ``None`` and ``"numpy"``, the one kernel
        implementation; it changes nothing.
    """

    def __init__(
        self,
        graph,
        q_tolerance: float,
        coloring: Coloring | None = None,
        *,
        error_mode: str = "absolute",
        split_mean: str = "arithmetic",
        max_colors: int | None = None,
        drift_budget: float = 0.25,
        merge_attempts: int = 64,
        frozen: Iterable[int] = (),
        attach: bool = True,
        backend: str | None = None,
    ) -> None:
        check_backend(backend)
        if not q_tolerance >= 0:  # NaN fails every comparison
            raise ValueError(f"q_tolerance must be non-negative, got {q_tolerance}")
        if not (drift_budget > 0 and math.isfinite(drift_budget)):
            raise ValueError(
                f"drift_budget must be positive and finite, got {drift_budget}"
            )
        if merge_attempts < 0:
            raise ValueError(
                f"merge_attempts must be non-negative, got {merge_attempts}"
            )
        if not isinstance(graph, WeightedDiGraph):
            graph = WeightedDiGraph.from_scipy(
                sp.csr_matrix(graph, dtype=np.float64), directed=True
            )
        frozen = tuple(frozen)
        if frozen and coloring is None:
            raise ColoringError("frozen color ids require an explicit coloring")
        self.graph = graph
        self.q_tolerance = float(q_tolerance)
        self.error_mode = error_mode
        self.split_mean = "geometric" if error_mode == "relative" else split_mean
        self.max_colors = max_colors
        self.drift_budget = float(drift_budget)
        self.merge_attempts = int(merge_attempts)
        self.stats = DynamicStats()

        self.n = graph.n_nodes
        self._pins = self._build_pins(coloring, frozen)
        self._dirty: set[tuple[int, int]] = set()
        self._merge_candidates: set[int] = set()
        #: colors whose bound row and column, and ``(direction, row,
        #: column)`` cells whose bound, changed since the last refresh
        self._stale_colors: set[int] = set()
        self._stale_cells: set[tuple[int, int, int]] = set()
        self._pending = False
        self._churn = 0
        self._attached = False

        self._seed(coloring, frozen)
        if attach:
            self.attach()

    # ------------------------------------------------------------------
    # seeding, rebuilding, state adoption
    # ------------------------------------------------------------------
    def _build_pins(self, coloring: Coloring | None, frozen: tuple) -> _PinState:
        pin_labels = np.full(self.n, -1, dtype=np.int64)
        pins = _PinState(labels=pin_labels)
        if not frozen:
            return pins
        assert coloring is not None
        bad = [c for c in frozen if not 0 <= c < coloring.n_colors]
        if bad:
            raise ColoringError(f"frozen color ids out of range: {bad}")
        for pin_id, color in enumerate(sorted(set(frozen))):
            members = coloring.members(color)
            pin_labels[members] = pin_id
            pins.anchors.append(int(members[0]))
            pins.n_groups += 1
        return pins

    def _pin_initial(self) -> tuple[Coloring | None, tuple[int, ...]]:
        """Rebuild starting point: pinned groups as classes, rest lumped."""
        if self._pins.n_groups == 0:
            return None, ()
        raw = np.where(
            self._pins.labels[: self.n] < 0,
            self._pins.n_groups,
            self._pins.labels[: self.n],
        )
        initial = Coloring(raw)
        frozen_ids = tuple(
            initial.color_of(anchor) for anchor in self._pins.anchors
        )
        return initial, frozen_ids

    def _seed(self, coloring: Coloring | None, frozen: tuple) -> None:
        if coloring is not None and coloring.n != self.n:
            raise ColoringError(
                f"coloring has {coloring.n} nodes, graph has {self.n}"
            )
        self._adopt(self._run_rothko(coloring, frozen))

    def _run_rothko(
        self, initial: Coloring | None, frozen: tuple[int, ...]
    ) -> Rothko:
        engine = Rothko(
            self.graph,
            initial=initial,
            split_mean=self.split_mean,
            frozen=frozen,
            error_mode=self.error_mode,
        )
        engine.run(max_colors=self.max_colors, q_tolerance=self.q_tolerance)
        return engine

    def _adopt(self, engine: Rothko) -> None:
        """Take over a static engine's labels and members, then build the
        dense degree matrices from the graph.

        The memory-flat static engine keeps no degree matrices at all;
        this engine patches per-node entries on every arc event, so it
        rebuilds its own node-major ``n x k`` storage with one ``O(m)``
        bincount pass over the CSR/CSC snapshots.
        """
        self.k = engine.k
        self._labels_buf = engine.labels.copy()
        self._members: list[np.ndarray] = [m.copy() for m in engine._members]
        capacity = max(16, 2 * self.k)
        self._d_out = np.zeros((engine.n, capacity), dtype=np.float64)
        self._d_in = np.zeros((engine.n, capacity), dtype=np.float64)
        d_out, d_in = color_degree_matrices(
            self.graph.to_csr(), self._labels_buf, self.k
        )
        self._d_out[:, : self.k] = d_out
        self._d_in[:, : self.k] = d_in
        self._row_capacity = engine.n
        self._color_pin = [
            int(self._pins.labels[int(members[0])]) if members.size else -1
            for members in self._members
        ]
        self._baseline_k = self.k
        self._churn = 0
        self._dirty.clear()
        self._merge_candidates.clear()
        self._pending = False
        # Block bounds and the member order are built on first use.
        self._upper: np.ndarray | None = None
        self._lower: np.ndarray | None = None
        self._order: tuple[np.ndarray, np.ndarray] | None = None
        self._stale_colors.clear()
        self._stale_cells.clear()

    def _rebuild(self) -> None:
        start = time.perf_counter()
        initial, frozen_ids = self._pin_initial()
        self._adopt(self._run_rothko(initial, frozen_ids))
        self.stats.rebuilds += 1
        _obs._active.count("dynamic.updates.rebuild")
        self.stats.rebuild_seconds += time.perf_counter() - start

    # ------------------------------------------------------------------
    # hook plumbing
    # ------------------------------------------------------------------
    def attach(self) -> None:
        if not self._attached:
            self.graph.add_listener(self)
            self._attached = True

    def detach(self) -> None:
        if self._attached:
            self.graph.remove_listener(self)
            self._attached = False

    def __enter__(self) -> "DynamicColoring":
        return self

    def __exit__(self, *exc_info) -> None:
        self.detach()

    @property
    def labels(self) -> np.ndarray:
        """Current (non-canonical) label array, one entry per node."""
        return self._labels_buf[: self.n]

    def on_node_added(self, index: int) -> None:
        """Hook: a new node starts as its own singleton color."""
        if index < self.n:
            return
        self._grow_rows(index + 1)
        self.n = index + 1
        color = self._new_color(np.array([index], dtype=np.int64), pin=-1)
        self._labels_buf[index] = color
        self._pins.labels[index] = -1
        # A fresh node has no edges: its row and column are all zero, so
        # the invariant still holds; just offer the color for coarsening.
        self._merge_candidates.add(color)
        self.stats.nodes_added += 1
        self._pending = True

    def on_arc_changed(self, ui: int, vi: int, old: float, new: float) -> None:
        """Hook: patch the degree matrices and mark the touched pair and
        its two block-bound cells."""
        delta = new - old
        cu = int(self._labels_buf[ui])
        cv = int(self._labels_buf[vi])
        self._d_out[ui, cv] += delta
        self._d_in[vi, cu] += delta
        self._dirty.add((cu, cv))
        self._stale_cells.update(((0, cu, cv), (1, cv, cu)))
        if delta < 0:
            # Deletions create coarsening opportunities.
            self._merge_candidates.update((cu, cv))
        self._churn += 1
        self.stats.arcs_changed += 1
        self._pending = True

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def apply(self, update: EdgeUpdate) -> DynamicStats:
        """Apply one update to the graph and repair immediately."""
        self._apply_mutation(update)
        self.stats.updates += 1
        self.repair()
        return self.stats

    def apply_batch(self, updates: Iterable[EdgeUpdate]) -> DynamicStats:
        """Apply a batch of updates, then repair once."""
        count = 0
        for update in updates:
            self._apply_mutation(update)
            count += 1
        self.stats.updates += count
        self.repair()
        return self.stats

    def _apply_mutation(self, update: EdgeUpdate) -> None:
        if self._attached:
            update.apply_to(self.graph)
            return
        # Detached engines still track updates routed through apply().
        self.graph.add_listener(self)
        try:
            update.apply_to(self.graph)
        finally:
            self.graph.remove_listener(self)

    def snapshot(self) -> Coloring:
        """Repair if needed, then return an immutable canonical coloring."""
        self.repair()
        return Coloring(self.labels.copy())

    def max_q_err(self) -> float:
        """Current max (absolute or relative) error from the kept block
        bounds — ``O(k^2)`` plus re-reducing the stale entries, no graph
        traversal."""
        if self.k == 0 or self.n == 0:
            return 0.0
        bounds = self._fresh_bounds()
        return float(self._spread(bounds.upper, bounds.lower).max())

    def repair(self) -> DynamicStats:
        """Restore the tolerance invariant after pending mutations."""
        if not self._pending:
            return self.stats
        start = time.perf_counter()
        self.stats.repair_passes += 1
        if self._churn > self.drift_budget * max(self.graph.n_arcs, 16):
            self._rebuild()
        else:
            hit_cap = self._local_repair()
            self._coarsen()
            drift = self.k - self._baseline_k
            if hit_cap or drift > max(1.0, self.drift_budget * self._baseline_k):
                self._rebuild()
        self._pending = False
        self._dirty.clear()
        self.stats.repair_seconds += time.perf_counter() - start
        return self.stats

    # ------------------------------------------------------------------
    # local repair: split loop over dirty pairs
    # ------------------------------------------------------------------
    def _spread(self, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
        if self.error_mode == "absolute":
            return upper - lower
        return relative_spread(upper, lower)

    def _pair_spread(self, values: np.ndarray) -> float:
        if values.size == 0:
            return 0.0
        upper = float(values.max())
        lower = float(values.min())
        return float(
            self._spread(np.array([upper]), np.array([lower]))[0]
        )

    def _local_repair(self) -> bool:
        """Drain the dirty-pair worklist; returns True when the color cap
        stopped repair before the invariant was restored."""
        worklist = list(self._dirty)
        queued = set(self._dirty)
        self._dirty.clear()
        cap = self.max_colors if self.max_colors is not None else self.n
        tolerance = self.q_tolerance + _EPS
        while worklist:
            pair = worklist.pop()
            queued.discard(pair)
            i, j = pair
            self.stats.pairs_checked += 1
            # Outgoing direction: spread of w(x, P_j) over x in P_i.
            out_values = self._d_out[self._members[i], j]
            if self._pair_spread(out_values) > tolerance:
                if self.k >= cap:
                    return True
                # A pinned color refuses the split (best-effort there);
                # the in-direction below may still be repairable.
                self._split_color(i, out_values, worklist, queued)
            # Membership of i may have changed; derive the in-direction
            # values from the updated members.
            in_values = self._d_in[self._members[j], i]
            if self._pair_spread(in_values) > tolerance:
                if self.k >= cap:
                    return True
                self._split_color(j, in_values, worklist, queued)
        return False

    def _split_color(
        self,
        color: int,
        degrees: np.ndarray,
        worklist: list,
        queued: set,
    ) -> bool:
        """Split ``color`` at the Rothko threshold; False when pinned."""
        if self._color_pin[color] >= 0:
            return False  # frozen: tolerance is best-effort here
        members = self._members[color]
        eject_mask = split_eject_mask(
            degrees, self.split_mean, relative=self.error_mode == "relative"
        )
        retain = members[~eject_mask]
        eject = members[eject_mask]
        new_color = self._new_color(eject, pin=self._color_pin[color])
        self._members[color] = retain
        self._mark_stale(color)
        self._labels_buf[eject] = new_color
        self._refresh_color(new_color)
        # Old column = old contributions minus what the ejected members
        # took with them; cheaper than re-scanning the retained members.
        n = self.n
        self._d_out[:n, color] -= self._d_out[:n, new_color]
        self._d_in[:n, color] -= self._d_in[:n, new_color]
        self.stats.splits += 1
        _obs._active.count("dynamic.updates.split")
        self._mark_color_pairs((color, new_color), worklist, queued)
        return True

    def _mark_color_pairs(
        self, colors: Sequence[int], worklist: list, queued: set
    ) -> None:
        """Queue every ordered pair involving the given colors."""
        for s in colors:
            for c in range(self.k):
                for pair in ((s, c), (c, s)):
                    if pair not in queued:
                        queued.add(pair)
                        worklist.append(pair)

    def _new_color(self, members: np.ndarray, pin: int) -> int:
        color = self.k
        self._grow_cols(color + 1)
        self.k += 1
        self._members.append(members)
        self._color_pin.append(pin)
        n = self.n
        self._d_out[:n, color] = 0.0
        self._d_in[:n, color] = 0.0
        self._mark_stale(color)
        return color

    def _mark_stale(self, color: int) -> None:
        """``color``'s members or degree columns changed: its bound row
        and column need re-reducing, and the member order is out of date."""
        self._stale_colors.add(color)
        self._order = None

    def _refresh_color(self, color: int) -> None:
        """Rebuild both degree columns for one color from the live graph.

        The members' neighborhoods are gathered into flat index/weight
        arrays and accumulated with the shared
        :func:`repro.core.kernels.scatter_add` bincount kernel —
        ``O(nnz(members))`` with no per-edge Python arithmetic.
        """
        n = self.n
        members = self._members[color]
        self._d_out[:n, color] = self._gathered_column(
            members, self.graph.in_items
        )
        self._d_in[:n, color] = self._gathered_column(
            members, self.graph.out_items
        )
        self.stats.columns_refreshed += 2

    def _gathered_column(self, members: np.ndarray, neighbors_of) -> np.ndarray:
        """One degree-matrix column: total weight between each node and
        the member set, accumulated via the shared bincount kernel."""
        index_chunks: list[np.ndarray] = []
        weight_chunks: list[np.ndarray] = []
        for v in members.tolist():
            items = neighbors_of(v)
            if items:
                index_chunks.append(
                    np.fromiter(items.keys(), dtype=np.int64, count=len(items))
                )
                weight_chunks.append(
                    np.fromiter(
                        items.values(), dtype=np.float64, count=len(items)
                    )
                )
        if not index_chunks:
            return np.zeros(self.n, dtype=np.float64)
        return scatter_add(
            np.concatenate(index_chunks),
            np.concatenate(weight_chunks),
            self.n,
        )

    # ------------------------------------------------------------------
    # coarsening: bounded merge pass over the lattice
    # ------------------------------------------------------------------
    def _coarsen(self) -> None:
        """Merge candidate colors with the first unpinned partner whose
        join stays within tolerance, up to ``merge_attempts`` tests.

        The block bounds are brought up to date only once a candidate
        has partners to test, and again only after a merge changes the
        partition.
        """
        attempts = gathers = 0
        bounds = None
        merged_any = True
        while merged_any and attempts < self.merge_attempts:
            merged_any = False
            for a in sorted(self._merge_candidates):
                if a >= self.k or self._color_pin[a] >= 0:
                    self._merge_candidates.discard(a)
                    continue
                partners = np.array(
                    [
                        b for b in range(self.k)
                        if b != a and self._color_pin[b] < 0
                    ][: self.merge_attempts - attempts],
                    dtype=np.int64,
                )
                if partners.size:
                    if bounds is None:
                        bounds = self._fresh_bounds()
                    index, gathered = self._first_partner(bounds, a, partners)
                    gathers += gathered
                    if index is None:
                        attempts += partners.size
                    else:
                        attempts += index + 1
                        b = int(partners[index])
                        self._merge(min(a, b), max(a, b))
                        self.stats.merges += 1
                        _obs._active.count("dynamic.updates.merge")
                        bounds = None
                        merged_any = True
                if merged_any or attempts >= self.merge_attempts:
                    break
        self._merge_candidates.clear()
        self.stats.merge_tests += attempts
        self.stats.merge_gathers += gathers
        if attempts:
            _obs._active.count("dynamic.merge_tests", attempts)
            _obs._active.count("dynamic.merge_gathers", gathers)

    def _block_bounds(self) -> _BlockBounds:
        """Reduce both degree matrices per color in member order —
        ``O(n k)``, no argsort.  The from-scratch build: the first
        refresh after a seed or rebuild, and the oracle of
        :meth:`verify_consistency`."""
        n, k = self.n, self.k
        order, starts = members_order(self._members)
        upper_out, lower_out = grouped_minmax_ordered(
            self._d_out[:n, :k].T, order, starts
        )
        upper_in, lower_in = grouped_minmax_ordered(
            self._d_in[:n, :k].T, order, starts
        )
        return _BlockBounds(
            order,
            starts,
            np.stack([upper_out.T, upper_in.T]),
            np.stack([lower_out.T, lower_in.T]),
        )

    def _fresh_bounds(self) -> _BlockBounds:
        """The kept block bounds, brought up to date.

        Without kept bounds (after the seed or a rebuild) this is one
        full :meth:`_block_bounds` build.  Otherwise only what changed
        since the last refresh is re-reduced, from the same degree
        entries, so the result equals a full build exactly: a stale
        color's row over its members (``O(|P| k)``) and its column over
        every class (``O(n)``), and a stale cell over its row class's
        members (``O(|P|)``).
        """
        if self._upper is None:
            bounds = self._block_bounds()
            self._upper, self._lower = bounds.upper, bounds.lower
            self._order = bounds.order, bounds.starts
            _obs._active.count("dynamic.bounds_builds")
        else:
            if self._order is None:
                self._order = members_order(self._members)
            _obs._active.count("dynamic.bounds_patched", self._patch_bounds())
        self._stale_colors.clear()
        self._stale_cells.clear()
        return _BlockBounds(*self._order, self._upper, self._lower)

    def _patch_bounds(self) -> int:
        """Re-reduce the stale colors and cells in place; returns how many
        were re-reduced (cells inside a stale row or column are not)."""
        n, k = self.n, self.k
        if self._upper.shape[1] != k:
            # Ids below both sizes keep their entries (an id whose color
            # changed is stale); ids past the old size are new colors.
            kept = min(self._upper.shape[1], k)
            upper = np.zeros((2, k, k))
            lower = np.zeros((2, k, k))
            upper[:, :kept, :kept] = self._upper[:, :kept, :kept]
            lower[:, :kept, :kept] = self._lower[:, :kept, :kept]
            self._upper, self._lower = upper, lower
        degrees = (self._d_out, self._d_in)
        stale = [c for c in self._stale_colors if c < k]
        if stale:
            # Rows from the stale members' degree rows alone; columns
            # over every class, both directions in one call.
            rows, starts = members_order([self._members[c] for c in stale])
            upper_col, lower_col = grouped_minmax_ordered(
                np.concatenate([matrix[:n, stale].T for matrix in degrees]),
                *self._order,
            )
            s = len(stale)
            for direction, matrix in enumerate(degrees):
                gathered = matrix[rows, :k]
                self._upper[direction, stale] = np.maximum.reduceat(
                    gathered, starts, axis=0
                )
                self._lower[direction, stale] = np.minimum.reduceat(
                    gathered, starts, axis=0
                )
                part = slice(direction * s, (direction + 1) * s)
                self._upper[direction][:, stale] = upper_col[part].T
                self._lower[direction][:, stale] = lower_col[part].T
        # The remaining cells, all of one direction in one gather: each
        # cell's row-class members against its column, however many
        # cells a batch left stale.
        cells: tuple[list, list] = ([], [])
        for direction, i, j in self._stale_cells:
            if (i < k and j < k and i not in self._stale_colors
                    and j not in self._stale_colors):
                cells[direction].append((i, j))
        for matrix, upper, lower, picked in zip(
            degrees, self._upper, self._lower, cells
        ):
            if picked:
                members = [self._members[i] for i, _ in picked]
                sizes = np.array([m.size for m in members])
                rows, starts = members_order(members, sizes)
                i, j = np.array(picked).T
                values = matrix[rows, np.repeat(j, sizes)]
                upper[i, j] = np.maximum.reduceat(values, starts)
                lower[i, j] = np.minimum.reduceat(values, starts)
        return len(stale) + len(cells[0]) + len(cells[1])

    def _first_partner(
        self, bounds: _BlockBounds, a: int, partners: np.ndarray
    ) -> tuple[int | None, int]:
        """Index of the first partner whose join with ``a`` stays within
        tolerance (``None`` when none does), and how many partners passed
        the block-bound screen into the ``O(n)`` check."""
        tolerance = self.q_tolerance + _EPS
        screened = self._merge_screen(bounds, a, partners) <= tolerance
        gathers = 0
        for index in np.flatnonzero(screened).tolist():
            gathers += 1
            if self._merge_error(bounds, a, int(partners[index])) <= tolerance:
                return index, gathers
        return None, gathers

    def _merge_screen(
        self, bounds: _BlockBounds, a: int, partners: np.ndarray
    ) -> np.ndarray:
        """Each partner ``b``'s exact merged spread toward every color
        other than ``a`` and ``b``, in both directions — ``O(k)`` each.

        A merge leaves those colors' columns alone, so the joined class's
        block toward ``c`` spans ``[min(L[a, c], L[b, c]), max(U[a, c],
        U[b, c])]``.  Spreads are never negative, so zeroing the ``a``
        and ``b`` columns drops them from the max.
        """
        upper = np.maximum(bounds.upper[:, partners], bounds.upper[:, a, None])
        lower = np.minimum(bounds.lower[:, partners], bounds.lower[:, a, None])
        spread = self._spread(upper, lower)
        spread[:, :, a] = 0.0
        spread[:, np.arange(partners.size), partners] = 0.0
        return spread.max(axis=(0, 2))

    def _merge_error(self, bounds: _BlockBounds, a: int, b: int) -> float:
        """Max error in the merged column's direction, both ways: every
        class's spread of ``w(x, P_a + P_b)`` (and of ``w(P_a + P_b, x)``)
        plus the joined class's own — ``O(n)`` over the cached order.

        Classes ``a`` and ``b`` alone are subsets of the joined class, so
        their spreads never exceed its own.  With :meth:`_merge_screen`
        this covers every pair a merge affects; all other pairs keep
        their exact block degrees, so the merged coloring is within
        tolerance iff both values are.
        """
        n = self.n
        merged = np.empty((2, n), dtype=np.float64)
        np.add(self._d_out[:n, a], self._d_out[:n, b], out=merged[0])
        np.add(self._d_in[:n, a], self._d_in[:n, b], out=merged[1])
        upper, lower = grouped_minmax_ordered(merged, bounds.order, bounds.starts)
        joined = self._spread(
            np.maximum(upper[:, a], upper[:, b]),
            np.minimum(lower[:, a], lower[:, b]),
        )
        return float(max(self._spread(upper, lower).max(), joined.max()))

    def _merge(self, a: int, b: int) -> None:
        """Merge color ``b`` into ``a`` (the lattice join of the pairing)."""
        n = self.n
        self._labels_buf[self._members[b]] = a
        self._members[a] = np.concatenate([self._members[a], self._members[b]])
        self._d_out[:n, a] += self._d_out[:n, b]
        self._d_in[:n, a] += self._d_in[:n, b]
        self._mark_stale(a)
        self._swap_remove(b)

    def _swap_remove(self, color: int) -> None:
        """Drop ``color`` keeping ids contiguous (move the last id down)."""
        last = self.k - 1
        n = self.n
        if color != last:
            self._labels_buf[self._members[last]] = color
            self._members[color] = self._members[last]
            self._d_out[:n, color] = self._d_out[:n, last]
            self._d_in[:n, color] = self._d_in[:n, last]
            self._color_pin[color] = self._color_pin[last]
            self._mark_stale(color)
            if last in self._merge_candidates:
                self._merge_candidates.discard(last)
                self._merge_candidates.add(color)
            else:
                self._merge_candidates.discard(color)
        else:
            self._merge_candidates.discard(color)
        self._members.pop()
        self._color_pin.pop()
        self._d_out[:n, last] = 0.0
        self._d_in[:n, last] = 0.0
        self.k -= 1

    # ------------------------------------------------------------------
    # capacity management
    # ------------------------------------------------------------------
    def _grow_cols(self, needed: int) -> None:
        capacity = self._d_out.shape[1]
        if needed <= capacity:
            return
        new_capacity = max(2 * capacity, needed)
        for name in ("_d_out", "_d_in"):
            old = getattr(self, name)
            grown = np.zeros((self._row_capacity, new_capacity), dtype=np.float64)
            grown[:, :capacity] = old
            setattr(self, name, grown)

    def _grow_rows(self, needed: int) -> None:
        if needed <= self._row_capacity:
            # Label/pin buffers are exact-size; extend them regardless.
            self._extend_label_buffers(needed)
            return
        new_capacity = max(2 * self._row_capacity, needed)
        cols = self._d_out.shape[1]
        for name in ("_d_out", "_d_in"):
            old = getattr(self, name)
            grown = np.zeros((new_capacity, cols), dtype=np.float64)
            grown[: self._row_capacity] = old
            setattr(self, name, grown)
        self._row_capacity = new_capacity
        self._extend_label_buffers(needed)

    def _extend_label_buffers(self, needed: int) -> None:
        if self._labels_buf.size < needed:
            extra = needed - self._labels_buf.size
            self._labels_buf = np.concatenate(
                [self._labels_buf, np.zeros(extra, dtype=np.int64)]
            )
        if self._pins.labels.size < needed:
            extra = needed - self._pins.labels.size
            self._pins.labels = np.concatenate(
                [self._pins.labels, np.full(extra, -1, dtype=np.int64)]
            )

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def verify_consistency(self, atol: float = 1e-6) -> None:
        """Recompute the degree matrices from the graph and compare, and
        check the kept block bounds against a full build.

        Raises :class:`ColoringError` on divergence — used by tests to
        certify the incremental patches against ground truth.  Nothing
        is refreshed, so a check never changes what the next repair does.
        """
        n, k = self.n, self.k
        labels = self.labels
        if sorted(np.unique(labels).tolist()) != list(range(k)):
            raise ColoringError("color ids are not contiguous")
        for color, members in enumerate(self._members):
            if not np.array_equal(np.sort(members), np.flatnonzero(labels == color)):
                raise ColoringError(f"member list of color {color} is stale")
        csr = self.graph.to_csr()
        d_out, d_in = color_degree_matrices(csr, labels, k)
        if not np.allclose(self._d_out[:n, :k], d_out, atol=atol):
            raise ColoringError("maintained D_out diverged from the graph")
        if not np.allclose(self._d_in[:n, :k], d_in, atol=atol):
            raise ColoringError("maintained D_in diverged from the graph")
        if self._upper is not None and k:
            self._verify_bounds()

    def _verify_bounds(self) -> None:
        """Every kept bound cell outside the stale sets equals a full
        :meth:`_block_bounds` build bit for bit, and so does a kept
        member order."""
        k = self.k
        scratch = self._block_bounds()
        if self._order is not None and not all(
            np.array_equal(kept, built)
            for kept, built in zip(self._order, (scratch.order, scratch.starts))
        ):
            raise ColoringError("kept member order is stale")
        fresh = np.ones((2, k, k), dtype=bool)
        stale = [c for c in self._stale_colors if c < k]
        fresh[:, stale] = False
        fresh[:, :, stale] = False
        for direction, i, j in self._stale_cells:
            if i < k and j < k:
                fresh[direction, i, j] = False
        size = min(k, self._upper.shape[1])
        if fresh[:, size:].any() or fresh[:, :, size:].any():
            raise ColoringError("a new color's block bounds are not stale")
        fresh = fresh[:, :size, :size]
        for kept, built in ((self._upper, scratch.upper),
                            (self._lower, scratch.lower)):
            if (kept[:, :size, :size][fresh].tobytes()
                    != built[:, :size, :size][fresh].tobytes()):
                raise ColoringError("kept block bounds diverged from a full build")

    def __repr__(self) -> str:
        return (
            f"<DynamicColoring n={self.n} k={self.k} "
            f"tol={self.q_tolerance:g} splits={self.stats.splits} "
            f"merges={self.stats.merges} rebuilds={self.stats.rebuilds}>"
        )
