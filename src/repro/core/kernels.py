"""Shared vectorized kernels for degree-matrix maintenance.

The coloring engines (static :class:`~repro.core.rothko.Rothko`, streaming
:class:`~repro.dynamic.DynamicColoring`), the q-error metrics, and the
arc-store solvers all reduce to the same handful of primitives over
CSR/CSC index arrays:

* :func:`scatter_add` — accumulate weighted contributions into a dense
  vector (one ``np.bincount``, no Python-level loop);
* :func:`take_ranges` — concatenate ``arange(start, start + count)``
  slices, the gather step for selecting a subset of CSR rows / CSC
  columns directly out of ``indptr``/``indices``/``data``;
* :func:`select_degrees_toward` — per-selected-row total weight toward
  one target color (the split-threshold degree vector
  ``D[j, members(i)]``) in ``O(nnz(rows))``;
* :func:`color_degree_matrix` — the full dense ``n x k`` degree matrix in
  one ``O(m)`` bincount over flattened ``(node, color)`` keys;
* :func:`grouped_minmax_by_labels` — per-color max/min (the ``U``/``L``
  boundary matrices of Algorithm 1) via argsort + ``reduceat``;
* :func:`grouped_minmax_by_members` / :func:`members_order` /
  :func:`grouped_minmax_ordered` — the member-list variants that skip
  the argsort.

Each kernel is one or two ``np.bincount`` / ``reduceat`` passes over
CSR/CSC index arrays, with no Python-level loop, and everything operates
on plain numpy arrays so the kernels compose with both scipy sparse
matrices and the dict-of-dicts mutable graph.

The kernels are pure of observability: the chunked Rothko refresh
loops report the cells they scatter to the ``kernels.bincount_cells``
counter (:mod:`repro.obs`), once per logical kernel call.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "as_csr_square",
    "scatter_add",
    "take_ranges",
    "select_degrees_toward",
    "color_degree_matrix",
    "color_degree_matrix_t",
    "color_degree_matrices",
    "grouped_minmax_by_labels",
    "grouped_minmax_by_members",
    "members_order",
    "grouped_minmax_ordered",
    "relative_spread",
]


def as_csr_square(adjacency: sp.spmatrix | np.ndarray) -> sp.csr_matrix:
    """Coerce to a square float64 CSR matrix (shared input validation)."""
    matrix = sp.csr_matrix(adjacency, dtype=np.float64)
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"adjacency must be square, got {matrix.shape}")
    return matrix


def check_backend(backend: str | None) -> None:
    """Accept the ``backend=`` keyword of the benchmarked entry points.

    numpy is the only kernel implementation, so ``None`` and
    ``"numpy"`` are the only values; any other raises a
    :class:`ValueError` naming it.
    """
    if backend is not None and backend != "numpy":
        raise ValueError(
            f"unknown backend {backend!r}: numpy is the only kernel backend"
        )


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


def select_degrees_toward(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    rows: np.ndarray,
    labels: np.ndarray,
    targets: int | np.ndarray,
) -> np.ndarray:
    """Per selected row, the total weight toward a target color.

    ``targets`` is either one color id (every row measured toward the
    same color) or an array of one target per row (fusing several
    selections into a single ``O(nnz(rows))`` pass).  Sums are taken
    directly over the matching entries, so a row with no edges toward
    its target is exactly ``0.0``.
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


def color_degree_matrix(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    labels: np.ndarray,
    n_colors: int,
) -> np.ndarray:
    """Dense ``n x k`` degree matrix from compressed-sparse arrays.

    On CSR arrays of ``A`` this is ``D_out[v, c] = w(v, P_c)``; on the CSC
    arrays (where the "row" ranges are columns of ``A``) it is
    ``D_in[v, c] = w(P_c, v)``.  One ``O(m)`` bincount over flattened
    ``(node, color)`` keys — considerably faster than ``A @ S`` with a
    sparse indicator followed by densification.
    """
    n = indptr.size - 1
    if n_colors == 0 or n == 0:
        return np.zeros((n, n_colors), dtype=np.float64)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    flat = rows * n_colors + labels[indices]
    return scatter_add(flat, data, n * n_colors).reshape(n, n_colors)


def color_degree_matrix_t(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    labels: np.ndarray,
    n_colors: int,
) -> np.ndarray:
    """Transposed variant of :func:`color_degree_matrix`: dense ``k x n``.

    Color-major storage keeps each degree *column* contiguous, which is
    the access pattern of the incremental Rothko engine (splits refresh,
    gather, and difference whole columns).
    """
    n = indptr.size - 1
    if n_colors == 0 or n == 0:
        return np.zeros((n_colors, n), dtype=np.float64)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    flat = labels[indices] * n + rows
    return scatter_add(flat, data, n_colors * n).reshape(n_colors, n)


def color_degree_matrices(
    matrix: sp.csr_matrix, labels: np.ndarray, n_colors: int
) -> tuple[np.ndarray, np.ndarray]:
    """Both dense degree matrices ``(D_out, D_in)`` of a CSR adjacency."""
    csc = matrix.tocsc()
    d_out = color_degree_matrix(
        matrix.indptr, matrix.indices, matrix.data, labels, n_colors
    )
    d_in = color_degree_matrix(
        csc.indptr, csc.indices, csc.data, labels, n_colors
    )
    return d_out, d_in


def grouped_minmax_by_labels(
    values: np.ndarray, labels: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-label max/min of a row-per-node array (1-D or 2-D).

    The ``argsort`` + ``reduceat`` kernel shared by the static engine and
    :class:`repro.dynamic.DynamicColoring`.  Labels must be contiguous
    ``0..k-1`` with no empty classes (``reduceat`` over duplicated start
    offsets would silently read the wrong element otherwise).
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


def members_order(
    members: list[np.ndarray], sizes: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Color-sorted node order and ``reduceat`` starts of member lists.

    The concatenated member lists *are* a color-sorted node order, so
    per-color reductions need no argsort.  Build this once per refresh
    and feed it to :func:`grouped_minmax_ordered` for every value chunk.
    Member lists must be non-empty.  Callers that already maintain the
    per-color sizes (the Rothko engine) pass them via ``sizes`` to skip
    the per-list size scan.
    """
    if not members:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if sizes is None:
        sizes = np.array([m.size for m in members], dtype=np.int64)
    order = np.concatenate(members)
    starts = np.empty(len(members), dtype=np.int64)
    starts[0] = 0
    np.cumsum(sizes[:-1], out=starts[1:])
    return order, starts


def grouped_minmax_ordered(
    values: np.ndarray, order: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-color max/min over the columns of a feature-major array, given
    a precomputed :func:`members_order` pair.  ``values`` is ``(r, n)``;
    the result pair is ``(r, k)`` — one ``O(r n)`` gather + reduction.
    """
    if starts.size == 0:
        empty = np.empty((values.shape[0], 0), dtype=values.dtype)
        return empty, empty.copy()
    sorted_values = values[:, order]
    upper = np.maximum.reduceat(sorted_values, starts, axis=1)
    lower = np.minimum.reduceat(sorted_values, starts, axis=1)
    return upper, lower


def grouped_minmax_by_members(
    values: np.ndarray, members: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-color max/min over the *columns* of a feature-major array.

    ``values`` is ``(r, n)`` — one row per tracked feature, one column
    per node (matching the color-major degree-matrix storage); the result
    pair is ``(r, k)``.  Skips the ``O(n log n)`` argsort of
    :func:`grouped_minmax_by_labels` via :func:`members_order`.  Member
    lists must be non-empty.
    """
    order, starts = members_order(members)
    return grouped_minmax_ordered(values, order, starts)


def relative_spread(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Per-block relative error ``log(max / min)`` with the Sec. 3.1 zero
    convention: blocks mixing zero and nonzero degrees get ``inf``."""
    spread = np.zeros_like(upper)
    mixed = (lower <= 0.0) & (upper > 0.0)
    positive = lower > 0.0
    spread[mixed] = np.inf
    spread[positive] = np.log(upper[positive] / lower[positive])
    return spread
