"""The :class:`Backend` protocol: the kernel surface a backend implements.

Every kernel the engines and the solvers dispatch through a backend is
listed here — ``KERNEL_NAMES`` for the coloring engines,
``SOLVER_KERNEL_NAMES`` for the exact tier — and nothing else is (the
Rothko split refresh is plain numpy on top of ``take_ranges`` and
``grouped_minmax_ordered``, so every backend runs it).  The contract
mirrors the numpy reference implementation in
:mod:`repro.core.backends.numpy_backend` exactly: plain
``numpy.ndarray`` in, plain ``numpy.ndarray`` out (C layout,
float64/int64), bit-identical results.  A backend is free to compute
however it likes (vectorized numpy, compiled CPU loops) as long as what
crosses the boundary is a numpy array with the same values; the parity
test sweep (``tests/core/test_backends.py``) holds every registered
backend to that, and ``test_protocol_surface`` holds every backend
class to exactly these kernels.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["Backend", "KERNEL_NAMES", "SOLVER_KERNEL_NAMES"]

#: every method a Backend must provide (the parity sweep iterates this)
KERNEL_NAMES = (
    "scatter_add",
    "bincount",
    "take_ranges",
    "scatter_select_sums",
    "select_degrees_toward",
    "grouped_minmax_by_labels",
    "grouped_minmax_ordered",
)

#: the solver kernel family the exact tier dispatches through (the
#: residual level BFS and blocking flow of Dinic, fused push-relabel,
#: and the batched Brandes dependency pass) — semantics are defined by
#: the numpy reference in :mod:`repro.core.backends.solver_numpy`
SOLVER_KERNEL_NAMES = (
    "solve_bfs_levels",
    "solve_blocking_flow",
    "solve_push_relabel",
    "solve_brandes_batch",
)


@runtime_checkable
class Backend(Protocol):
    """Kernel dispatch surface (see module docstring for the contract)."""

    #: registry name ("numpy", "numba")
    name: str

    def scatter_add(
        self, indices: np.ndarray, weights: np.ndarray, size: int
    ) -> np.ndarray:
        """Dense ``out[i] = sum of weights where indices == i``."""

    def bincount(
        self, keys: np.ndarray, weights: np.ndarray, minlength: int
    ) -> np.ndarray:
        """Weighted bincount over precomputed flat keys (the scatter
        primitive behind the dense degree matrices)."""

    def take_ranges(
        self, starts: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Concatenated ``arange(start, start + count)`` per pair."""

    def scatter_select_sums(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        select: np.ndarray,
        size: int,
    ) -> np.ndarray:
        """Sum of the selected CSR rows/CSC columns, scattered by index."""

    def select_degrees_toward(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        rows: np.ndarray,
        labels: np.ndarray,
        targets: int | np.ndarray,
    ) -> np.ndarray:
        """Per selected row, total weight toward a target color."""

    def grouped_minmax_by_labels(
        self, values: np.ndarray, labels: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-label max/min of a row-per-node array (1-D or 2-D)."""

    def grouped_minmax_ordered(
        self, values: np.ndarray, order: np.ndarray, starts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-color max/min over columns, given a members order."""

    # -- solver kernel family (SOLVER_KERNEL_NAMES) --------------------

    def solve_bfs_levels(
        self,
        indptr: np.ndarray,
        arcs: np.ndarray,
        head: np.ndarray,
        cap: np.ndarray,
        n: int,
        source: int,
        sink: int,
    ) -> np.ndarray:
        """Residual BFS levels (-1 unreached); ``sink < 0`` means full
        BFS, otherwise expansion stops after the sink's level."""

    def solve_blocking_flow(
        self,
        local_indptr: np.ndarray,
        heads: np.ndarray,
        caps: np.ndarray,
        source: int,
        sink: int,
    ) -> tuple[float, np.ndarray]:
        """One Dinic phase's blocking flow over a compacted level
        graph; consumes ``caps`` and returns ``(total, arc flows)``."""

    def solve_push_relabel(
        self,
        indptr: np.ndarray,
        arcs: np.ndarray,
        head: np.ndarray,
        cap: np.ndarray,
        n: int,
        source: int,
        sink: int,
    ) -> tuple[float, int, int]:
        """Fused highest-label push-relabel; mutates ``cap`` into the
        final residual and returns ``(value, relabels, pushes)``."""

    def solve_brandes_batch(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        sources: np.ndarray,
        weights: np.ndarray,
        n: int,
    ) -> np.ndarray:
        """Weighted dependency-vector sum over a block of sources
        (equal to the reference within 1e-9; sums may re-associate)."""
