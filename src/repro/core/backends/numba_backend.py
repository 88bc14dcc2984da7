"""Numba backend: prange-threaded, ``@njit(cache=True)`` fused kernels.

The bincount/reduceat fusions the flat engine leans on compile to tight
C loops here, with the gather step (``take_ranges`` + fancy indexing)
folded *into* the loop — no position/weight temporaries at all.  Kernels
whose output cells are written by exactly one ``prange`` iteration (the
threshold degrees: one entry per selected row; the ordered min/max: one
feature row per iteration) run multi-threaded; scatter-shaped kernels
whose cells mix contributions across rows stay single-threaded inside
``njit`` so the accumulation order — and therefore the floating-point
result — is *bit-identical* to the numpy reference.  The solver
kernels release the GIL, so the Brandes source batches that
:func:`~repro.solvers.betweenness_centrality_csr` maps over a thread
pool run concurrently on this backend.

Import failure degrades gracefully: the module always imports, but
:func:`available` reports False and instantiating :class:`NumbaBackend`
raises — the ``auto`` resolution path skips it, and asking for it by
name produces a clear error instead of an ImportError mid-run.

First use of each kernel pays a one-off JIT compile (cached on disk via
``cache=True``, so repeat processes skip it).
"""

from __future__ import annotations

import numpy as np

from repro.core.backends import solver_numba
from repro.core.backends.numpy_backend import NumpyBackend

__all__ = ["NumbaBackend", "available"]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit, prange

    _NUMBA_ERROR: Exception | None = None
except ImportError as exc:  # keep the module importable without numba
    njit = prange = None
    _NUMBA_ERROR = exc


def available() -> bool:
    """True when the numba toolchain imported cleanly."""
    return _NUMBA_ERROR is None


if available():  # pragma: no cover - exercised only where numba is installed

    @njit(cache=True)
    def _take_ranges(starts, counts):
        total = 0
        for i in range(counts.shape[0]):
            total += counts[i]
        out = np.empty(total, dtype=np.int64)
        pos = 0
        for i in range(starts.shape[0]):
            start = starts[i]
            for step in range(counts[i]):
                out[pos] = start + step
                pos += 1
        return out

    @njit(cache=True)
    def _scatter_add(indices, weights, size):
        out = np.zeros(size, dtype=np.float64)
        for p in range(indices.shape[0]):
            out[indices[p]] += weights[p]
        return out

    @njit(cache=True)
    def _scatter_select_sums(indptr, indices, data, select, size):
        out = np.zeros(size, dtype=np.float64)
        for s in range(select.shape[0]):
            node = select[s]
            for p in range(indptr[node], indptr[node + 1]):
                out[indices[p]] += data[p]
        return out

    @njit(cache=True, parallel=True)
    def _select_degrees_toward_scalar(
        indptr, indices, data, rows, labels, target
    ):
        r = rows.shape[0]
        out = np.zeros(r, dtype=np.float64)
        for t in prange(r):
            node = rows[t]
            total = 0.0
            for p in range(indptr[node], indptr[node + 1]):
                if labels[indices[p]] == target:
                    total += data[p]
            out[t] = total
        return out

    @njit(cache=True, parallel=True)
    def _select_degrees_toward_array(
        indptr, indices, data, rows, labels, targets
    ):
        r = rows.shape[0]
        out = np.zeros(r, dtype=np.float64)
        for t in prange(r):
            node = rows[t]
            target = targets[t]
            total = 0.0
            for p in range(indptr[node], indptr[node + 1]):
                if labels[indices[p]] == target:
                    total += data[p]
            out[t] = total
        return out

    @njit(cache=True, parallel=True)
    def _grouped_minmax_ordered(values, order, starts):
        r = values.shape[0]
        total = order.shape[0]
        k = starts.shape[0]
        upper = np.empty((r, k), dtype=np.float64)
        lower = np.empty((r, k), dtype=np.float64)
        for f in prange(r):  # each iteration owns rows f of both outputs
            for g in range(k):
                begin = starts[g]
                end = starts[g + 1] if g + 1 < k else total
                hi = values[f, order[begin]]
                lo = hi
                for p in range(begin + 1, end):
                    v = values[f, order[p]]
                    if v > hi:
                        hi = v
                    if v < lo:
                        lo = v
                upper[f, g] = hi
                lower[f, g] = lo
        return upper, lower


def _contig(array) -> np.ndarray:
    """Numba specializes per dtype/layout signature, so arrays pass
    through unchanged (scipy's int32 CSR indices included) — no per-call
    O(m) dtype copies.  CSR arrays are already contiguous, making this a
    no-op on the hot path."""
    return np.ascontiguousarray(array)


class NumbaBackend(NumpyBackend):
    """Threaded compiled backend (see module docstring)."""

    name = "numba"

    def __init__(self) -> None:
        if not available():
            raise ImportError(
                "the numba backend needs the 'numba' package "
                f"(import failed: {_NUMBA_ERROR})"
            )

    # -- scatter-shaped kernels: serial njit, bit-identical to numpy --
    def scatter_add(self, indices, weights, size):
        if len(indices) == 0:
            return np.zeros(size, dtype=np.float64)
        return _scatter_add(
            _contig(indices),
            _contig(weights),
            size,
        )

    def bincount(self, keys, weights, minlength):
        if keys.size == 0:
            return np.zeros(minlength, dtype=np.float64)
        return _scatter_add(
            _contig(keys),
            _contig(weights),
            minlength,
        )

    def take_ranges(self, starts, counts):
        return _take_ranges(
            _contig(starts),
            _contig(counts),
        )

    def scatter_select_sums(self, indptr, indices, data, select, size):
        return _scatter_select_sums(
            _contig(indptr),
            _contig(indices),
            _contig(data),
            _contig(select),
            size,
        )

    # -- row-owned kernels: prange over independent output cells --
    def select_degrees_toward(self, indptr, indices, data, rows, labels, targets):
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return np.zeros(0, dtype=np.float64)
        args = (
            _contig(indptr),
            _contig(indices),
            _contig(data),
            _contig(rows),
            _contig(labels),
        )
        if np.ndim(targets) == 0:
            return _select_degrees_toward_scalar(*args, int(targets))
        return _select_degrees_toward_array(
            *args, _contig(targets)
        )

    def grouped_minmax_ordered(self, values, order, starts):
        if starts.size == 0:
            empty = np.empty((values.shape[0], 0), dtype=values.dtype)
            return empty, empty.copy()
        return _grouped_minmax_ordered(
            _contig(values),
            _contig(order),
            _contig(starts),
        )

    # -- solver kernels: fused sequential njit(nogil) loops ------------
    # (see solver_numba for the determinism argument per kernel)
    def solve_bfs_levels(self, indptr, arcs, head, cap, n, source, sink):
        return solver_numba.solve_bfs_levels(
            _contig(indptr), _contig(arcs), _contig(head), _contig(cap),
            n, source, sink,
        )

    def solve_blocking_flow(self, local_indptr, heads, caps, source, sink):
        return solver_numba.solve_blocking_flow(
            _contig(local_indptr), _contig(heads), _contig(caps),
            source, sink,
        )

    def solve_push_relabel(self, indptr, arcs, head, cap, n, source, sink):
        return solver_numba.solve_push_relabel(
            _contig(indptr), _contig(arcs), _contig(head), _contig(cap),
            n, source, sink,
        )

    def solve_brandes_batch(self, indptr, indices, sources, weights, n):
        return solver_numba.solve_brandes_batch(
            _contig(indptr), _contig(indices), _contig(sources),
            _contig(weights), n,
        )
