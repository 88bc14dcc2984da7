"""Linear programs in the paper's canonical form (Sec. 4.1, Eq. 2):

    maximize  c^T x   subject to   A x <= b,  x >= 0

with ``A`` an ``m x n`` sparse matrix.  The *extended matrix* **A** of
Eq. (3) appends ``b`` as a last column and ``c^T`` as a last row; its
corner entry is infinity in the paper but only ever appears inside the two
pinned singleton colors, so we store it as 0 and pin instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.exceptions import LPError


@dataclass
class LinearProgram:
    """``maximize c^T x  s.t.  A x <= b, x >= 0``.

    Construction coerces ``A`` to float64 CSR and ``b``/``c`` to flat
    float64 vectors, and raises :class:`LPError` on a shape mismatch or
    on the first non-finite entry of ``A``, ``b`` or ``c`` (named, e.g.
    ``b[3] = nan``).
    """

    a_matrix: sp.csr_matrix
    b: np.ndarray
    c: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        self.a_matrix = sp.csr_matrix(self.a_matrix, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64).ravel()
        self.c = np.asarray(self.c, dtype=np.float64).ravel()
        m, n = self.a_matrix.shape
        if self.b.shape != (m,):
            raise LPError(f"b has shape {self.b.shape}, expected ({m},)")
        if self.c.shape != (n,):
            raise LPError(f"c has shape {self.c.shape}, expected ({n},)")
        # One O(nnz + m + n) pass, so NaN/inf fails here, named in the
        # LP's own terms, not later inside a coloring or a solver.
        data = self.a_matrix.data
        bad = ~np.isfinite(data)
        if bad.any():
            k = int(np.argmax(bad))
            i = int(np.searchsorted(self.a_matrix.indptr, k, side="right")) - 1
            raise LPError(
                f"A[{i}, {self.a_matrix.indices[k]}] = {data[k]}: "
                "LP data must be finite"
            )
        for name, vector in (("b", self.b), ("c", self.c)):
            bad = ~np.isfinite(vector)
            if bad.any():
                k = int(np.argmax(bad))
                raise LPError(
                    f"{name}[{k}] = {vector[k]}: LP data must be finite"
                )

    @property
    def n_rows(self) -> int:
        return self.a_matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.a_matrix.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.a_matrix.nnz)

    def objective(self, x: np.ndarray) -> float:
        return float(self.c @ x)

    def is_feasible(self, x: np.ndarray, tol: float = 1e-7) -> bool:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise LPError(f"x has shape {x.shape}, expected ({self.n_cols},)")
        if np.any(x < -tol):
            return False
        residual = self.a_matrix @ x - self.b
        scale = 1.0 + np.abs(self.b)
        return bool(np.all(residual <= tol * scale))

    def extended_matrix(self) -> sp.csr_matrix:
        """The ``(m+1) x (n+1)`` extended matrix **A** of Eq. (3).

        Layout: ``[[A, b], [c^T, 0]]`` — the infinity corner is stored as
        zero; callers must pin the last row and last column to singleton
        colors (the LP reduction does this automatically).
        """
        m, n = self.a_matrix.shape
        top = sp.hstack([self.a_matrix, sp.csr_matrix(self.b.reshape(-1, 1))])
        bottom = sp.hstack(
            [sp.csr_matrix(self.c.reshape(1, -1)), sp.csr_matrix((1, 1))]
        )
        return sp.vstack([top, bottom]).tocsr()

    def bipartite_adjacency(self) -> sp.csr_matrix:
        """The square ``(m+n+2)`` adjacency of the extended matrix's
        bipartite graph: rows first, then columns; arcs row -> column."""
        extended = self.extended_matrix().tocoo()
        m1, n1 = extended.shape
        size = m1 + n1
        return sp.csr_matrix(
            (extended.data, (extended.row, extended.col + m1)),
            shape=(size, size),
        )

    def scale(self, factor: float) -> "LinearProgram":
        """A copy with all data multiplied by ``factor > 0`` (same argmax)."""
        if factor <= 0:
            raise LPError(f"scale factor must be positive, got {factor}")
        return LinearProgram(
            self.a_matrix * factor,
            self.b * factor,
            self.c * factor,
            name=self.name,
        )

    def __repr__(self) -> str:
        return (
            f"<LinearProgram {self.name or 'unnamed'} "
            f"{self.n_rows}x{self.n_cols} nnz={self.nnz}>"
        )
