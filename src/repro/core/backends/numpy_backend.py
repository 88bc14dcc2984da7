"""The numpy reference backend — the semantics every backend must match.

These are the flat-array kernels the engines were originally written
against (moved here from :mod:`repro.core.kernels`, which now fronts
the active backend): each is one or two ``np.bincount`` / ``reduceat``
passes over CSR/CSC index arrays, no Python-level loops.  They are
**pure** — no observability calls — so the dispatch layer and the
engine's chunk loops can do their counter accounting once per logical
kernel call instead of once per chunk.

Other backends subclass :class:`NumpyBackend` and override only the
kernels they accelerate; anything untouched falls back to these
reference implementations, which keeps partial backends correct by
construction.
"""

from __future__ import annotations

import numpy as np

from repro.core.backends import solver_numpy

__all__ = ["NumpyBackend"]


def scatter_add(
    indices: np.ndarray, weights: np.ndarray, size: int
) -> np.ndarray:
    """Dense ``out[i] = sum of weights where indices == i`` (length ``size``).

    ``np.bincount`` compiles to a single C loop and beats both
    ``np.add.at`` and per-element Python accumulation by a wide margin.
    """
    if len(indices) == 0:
        return np.zeros(size, dtype=np.float64)
    return np.bincount(indices, weights=weights, minlength=size)


def bincount(
    keys: np.ndarray, weights: np.ndarray, minlength: int
) -> np.ndarray:
    """Weighted bincount over flat keys (fused-scatter primitive)."""
    if keys.size == 0:
        return np.zeros(minlength, dtype=np.float64)
    return np.bincount(keys, weights=weights, minlength=minlength)


def take_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + count)`` for each pair.

    One ``arange`` over the total, plus each range's offset (its start
    minus where it begins in the output) repeated over the range.
    Empty ranges repeat zero times, so they need no filtering.
    """
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    return np.arange(total) + np.repeat(starts - (ends - counts), counts)


def scatter_select_sums(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    select: np.ndarray,
    size: int,
) -> np.ndarray:
    """Sum of the selected CSR rows (or CSC columns), scattered by index.

    For a CSC adjacency and ``select = members(P_j)`` this is exactly the
    degree-matrix column ``D_out[:, j] = w(v, P_j)``; on the CSR arrays it
    yields ``D_in[:, j] = w(P_j, v)``.  Runs in ``O(nnz(select))`` — no
    fancy-indexed sparse slicing, no intermediate sparse matrix.
    """
    select = np.asarray(select, dtype=np.int64)
    starts = indptr[select]
    counts = indptr[select + 1] - starts
    positions = take_ranges(starts, counts)
    return scatter_add(indices[positions], data[positions], size)


def scatter_select_color_sums(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    select: np.ndarray,
    labels: np.ndarray,
    n_colors: int,
) -> np.ndarray:
    """Total weight of the selected CSR rows (CSC columns), per *color*.

    On the CSR arrays with ``select = members(P_i)`` this is one row of
    the block-weight matrix: ``W[i, j] = w(P_i, P_j)`` for every ``j``;
    on the CSC arrays it yields the column ``W[:, i] = w(P_j, P_i)``.
    """
    select = np.asarray(select, dtype=np.int64)
    starts = indptr[select]
    counts = indptr[select + 1] - starts
    positions = take_ranges(starts, counts)
    return scatter_add(labels[indices[positions]], data[positions], n_colors)


def select_degrees_toward(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    rows: np.ndarray,
    labels: np.ndarray,
    targets: int | np.ndarray,
) -> np.ndarray:
    """Per selected row, the total weight toward a target color.

    ``targets`` is either one color id or an array of one target per
    row.  Sums are taken directly over the matching entries, so a row
    with no edges toward its target is exactly ``0.0``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    r = rows.size
    if r == 0:
        return np.zeros(0, dtype=np.float64)
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    positions = take_ranges(starts, counts)
    edge_colors = labels[indices[positions]]
    if np.ndim(targets) == 0:
        mask = edge_colors == int(targets)
    else:
        per_edge = np.repeat(np.asarray(targets, dtype=np.int64), counts)
        mask = edge_colors == per_edge
    local = np.repeat(np.arange(r, dtype=np.int64), counts)
    return np.bincount(local[mask], weights=data[positions][mask], minlength=r)


def grouped_minmax_by_labels(
    values: np.ndarray, labels: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-label max/min of a row-per-node array (1-D or 2-D).

    Labels must be contiguous ``0..k-1`` with no empty classes
    (``reduceat`` over duplicated start offsets would silently read the
    wrong element otherwise).
    """
    if k == 0:
        shape = (0,) if values.ndim == 1 else (0, values.shape[1])
        return (
            np.empty(shape, dtype=values.dtype),
            np.empty(shape, dtype=values.dtype),
        )
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=k)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    sorted_values = values[order]
    if values.ndim == 1:
        upper = np.maximum.reduceat(sorted_values, starts)
        lower = np.minimum.reduceat(sorted_values, starts)
    else:
        upper = np.maximum.reduceat(sorted_values, starts, axis=0)
        lower = np.minimum.reduceat(sorted_values, starts, axis=0)
    return upper, lower


def grouped_minmax_ordered(
    values: np.ndarray, order: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-color max/min over the columns of a feature-major array, given
    a precomputed members order.  ``values`` is ``(r, n)``; the result
    pair is ``(r, k)`` — one ``O(r n)`` gather + ``reduceat``.
    """
    if starts.size == 0:
        empty = np.empty((values.shape[0], 0), dtype=values.dtype)
        return empty, empty.copy()
    sorted_values = values[:, order]
    upper = np.maximum.reduceat(sorted_values, starts, axis=1)
    lower = np.minimum.reduceat(sorted_values, starts, axis=1)
    return upper, lower


class NumpyBackend:
    """Reference backend: the module-level kernels above, verbatim.

    Always available; the parity baseline every other backend is tested
    against.  Its large-array kernels spend most of their time inside
    numpy calls that release the GIL, so the Brandes source batches
    scale over threads on this backend too.
    """

    name = "numpy"

    scatter_add = staticmethod(scatter_add)
    bincount = staticmethod(bincount)
    take_ranges = staticmethod(take_ranges)
    scatter_select_sums = staticmethod(scatter_select_sums)
    scatter_select_color_sums = staticmethod(scatter_select_color_sums)
    select_degrees_toward = staticmethod(select_degrees_toward)
    grouped_minmax_by_labels = staticmethod(grouped_minmax_by_labels)
    grouped_minmax_ordered = staticmethod(grouped_minmax_ordered)

    # solver kernel family (reference semantics in solver_numpy)
    solve_bfs_levels = staticmethod(solver_numpy.solve_bfs_levels)
    solve_bfs_parents = staticmethod(solver_numpy.solve_bfs_parents)
    solve_blocking_flow = staticmethod(solver_numpy.solve_blocking_flow)
    solve_push_relabel = staticmethod(solver_numpy.solve_push_relabel)
    solve_edmonds_karp = staticmethod(solver_numpy.solve_edmonds_karp)
    solve_brandes_batch = staticmethod(solver_numpy.solve_brandes_batch)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
