"""Quasi-stable LP reduction (Sec. 4.1, Eqs. 3-6).

The constraint matrix, right-hand side and objective are packed into the
extended matrix **A** (Eq. 3), viewed as a weighted bipartite graph between
the ``m+1`` rows and ``n+1`` columns.  Rothko colors this graph with the
last row (the objective) and last column (the RHS) pinned to singleton
colors; the color classes then define the reduced LP (Eq. 6):

    A_hat(r, s) = A(P_r, Q_s) / sqrt(|P_r| |Q_s|)
    b_hat(r)    = b(P_r) / sqrt(|P_r|)
    c_hat(s)    = c(Q_s) / sqrt(|Q_s|)

Theorem 2: for a well-behaved LP there are ``q0, Delta`` such that any
q-quasi-stable coloring with ``q <= q0`` satisfies
``|OPT - OPT_hat| <= q * Delta``; for a stable coloring (q = 0) the
optima agree exactly — the Grohe et al. result, recovered by the
``mode="grohe"`` variant ``A(P_r, Q_s) / |Q_s|`` (Sec. 4.1 discussion).

Solutions lift back by ``x = V^T x_hat`` (Eq. 10): each original column
gets its color's reduced value scaled by ``1/sqrt(|Q_s|)`` (sqrt mode) or
copied (grohe mode).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.partition import Coloring, first_occurrence_values
from repro.core.rothko import Rothko, RothkoResult
from repro.exceptions import LPError
from repro.lp.model import LinearProgram
from repro.lp.solve import LPSolution, solve_lp
from repro.utils.timing import StageTimings

MODES = ("sqrt", "grohe")


@dataclass(frozen=True)
class LPReduction:
    """A colored, reduced LP plus everything needed to lift solutions."""

    original: LinearProgram
    reduced: LinearProgram
    row_coloring: Coloring  # over the m+1 extended rows
    col_coloring: Coloring  # over the n+1 extended columns
    mode: str
    max_q_err: float

    @property
    def n_colors(self) -> int:
        """Total colors over rows and columns (incl. the two pinned)."""
        return self.row_coloring.n_colors + self.col_coloring.n_colors

    @property
    def compression_ratio(self) -> float:
        original_size = self.original.n_rows * self.original.n_cols
        reduced_size = max(self.reduced.n_rows * self.reduced.n_cols, 1)
        return original_size / reduced_size

    def lift(self, x_hat: np.ndarray) -> np.ndarray:
        """Lift a reduced solution to the original variable space.

        For a stable coloring the lift is exactly feasible and preserves
        the objective: ``x_j = x_hat_s / sqrt(|Q_s|)`` in sqrt mode and
        ``x_j = x_hat_s / |Q_s|`` in grohe mode (spreading the class value
        evenly over its members).
        """
        x_hat = np.asarray(x_hat, dtype=np.float64)
        if x_hat.shape != (self.reduced.n_cols,):
            raise LPError(
                f"x_hat has shape {x_hat.shape}, expected "
                f"({self.reduced.n_cols},)"
            )
        n = self.original.n_cols
        coloring = self.col_coloring
        # Reduced column r is the r-th column color other than the
        # pinned RHS color, whose slot stays 0.
        values = np.zeros(coloring.n_colors)
        values[np.arange(coloring.n_colors) != coloring.color_of(n)] = x_hat
        sizes = coloring.sizes
        scale = np.sqrt(sizes) if self.mode == "sqrt" else sizes
        return (values / scale)[coloring.labels[:n]]


def initial_bipartite_coloring(
    m: int, n: int
) -> tuple[Coloring, tuple[int, int]]:
    """Initial partition {rows} {obj row} {columns} {RHS column}.

    Returns the coloring plus the (canonical) color ids of the two pinned
    singletons — Coloring relabels by first occurrence, so callers must
    not assume the ids they assigned survive construction.
    """
    labels = np.empty(m + n + 2, dtype=np.int64)
    labels[:m] = 0
    labels[m] = 2
    labels[m + 1 : m + 1 + n] = 1
    labels[m + 1 + n] = 3
    coloring = Coloring(labels)
    frozen = (coloring.color_of(m), coloring.color_of(m + 1 + n))
    return coloring, frozen


def color_lp(
    lp: LinearProgram,
    n_colors: int | None = None,
    q: float | None = None,
    alpha: float = 1.0,
    beta: float = 0.0,
) -> RothkoResult:
    """Color the extended matrix's bipartite graph with Rothko.

    ``alpha=1, beta=0`` is the paper's LP weighting ("prioritizes colors
    with more rows", Sec. 5.2).  The split threshold is arithmetic because
    LP matrices may carry negative weights.
    """
    adjacency = lp.bipartite_adjacency()
    initial, frozen = initial_bipartite_coloring(lp.n_rows, lp.n_cols)
    engine = Rothko(
        adjacency,
        initial=initial,
        alpha=alpha,
        beta=beta,
        split_mean="arithmetic",
        frozen=frozen,
    )
    return engine.run(
        max_colors=n_colors, q_tolerance=q if q is not None else 0.0
    )


def _coerce_colorings(
    lp: LinearProgram, coloring
) -> tuple[Coloring, Coloring, np.ndarray | None, np.ndarray | None]:
    """Normalize the ``coloring`` argument of :func:`reduce_lp`.

    Accepts a bipartite :class:`Coloring` over the extended matrix's
    ``m+n+2`` nodes or an explicit ``(row_coloring, col_coloring)``
    pair.  Returns the split colorings plus — for the bipartite form —
    the maps from canonical row/column color ids back to bipartite ids
    (needed to index a precomputed block-weight matrix).
    """
    if isinstance(coloring, Coloring):
        expected = lp.n_rows + lp.n_cols + 2
        if coloring.n != expected:
            raise LPError(
                f"bipartite coloring covers {coloring.n} nodes, expected "
                f"{expected} (extended matrix rows + columns)"
            )
        m1 = lp.n_rows + 1
        row_labels = coloring.labels[:m1]
        col_labels = coloring.labels[m1:]
        return (
            Coloring(row_labels),
            Coloring(col_labels),
            first_occurrence_values(row_labels),
            first_occurrence_values(col_labels),
        )
    try:
        row_coloring, col_coloring = coloring
    except (TypeError, ValueError) as exc:
        raise LPError(
            "coloring must be a bipartite Coloring or a "
            "(row_coloring, col_coloring) pair"
        ) from exc
    return row_coloring, col_coloring, None, None


def reduce_lp(
    lp: LinearProgram,
    n_colors: int | None = None,
    q: float | None = None,
    mode: str = "sqrt",
    alpha: float = 1.0,
    beta: float = 0.0,
    coloring=None,
    block_weights: np.ndarray | None = None,
    max_q_err: float | None = None,
) -> LPReduction:
    """Build the reduced LP (Eq. 6), coloring with Rothko if needed.

    The single entry point for the LP reduction:

    * with ``coloring=None`` Rothko colors the extended matrix's
      bipartite graph first (``n_colors`` counts *total* colors over
      rows and columns, including the two pinned singletons);
    * ``coloring`` accepts a precomputed coloring — either a bipartite
      :class:`Coloring` over the ``m+n+2`` extended nodes or an explicit
      ``(row_coloring, col_coloring)`` pair — and skips Rothko
      (``n_colors``/``q``/``alpha``/``beta`` are then ignored).

    ``block_weights`` (bipartite form only) supplies the extended
    matrix's block sums ``W = S^T A S`` in the bipartite coloring's
    canonical id order, as the pipeline runner passes it from
    :meth:`~repro.pipeline.cache.ProgressiveRun.weights`.
    ``max_q_err`` short-circuits the from-scratch q-error evaluation
    when the caller already knows it.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if coloring is None:
        rothko = color_lp(lp, n_colors=n_colors, q=q, alpha=alpha, beta=beta)
        coloring = rothko.coloring
    row_coloring, col_coloring, row_ids, col_ids = _coerce_colorings(
        lp, coloring
    )
    if block_weights is not None and row_ids is None:
        raise LPError(
            "block_weights requires the bipartite coloring form (the "
            "id maps of a (row, col) pair are unknown)"
        )

    m, n = lp.n_rows, lp.n_cols
    if row_coloring.n != m + 1:
        raise LPError(
            f"row coloring covers {row_coloring.n} rows, expected {m + 1}"
        )
    if col_coloring.n != n + 1:
        raise LPError(
            f"column coloring covers {col_coloring.n} cols, expected {n + 1}"
        )
    obj_color = row_coloring.color_of(m)
    rhs_color = col_coloring.color_of(n)
    if row_coloring.sizes[obj_color] != 1:
        raise LPError("objective row must be a singleton color")
    if col_coloring.sizes[rhs_color] != 1:
        raise LPError("RHS column must be a singleton color")

    # Colors of the real rows/columns, in a stable order excluding pins.
    row_colors = [
        color for color in range(row_coloring.n_colors) if color != obj_color
    ]
    col_colors = [
        color for color in range(col_coloring.n_colors) if color != rhs_color
    ]

    if block_weights is not None:
        # The maintained W already holds every extended-matrix block sum
        # (rows x columns, including the b column and c row): slice it
        # instead of re-aggregating.
        block_full = np.asarray(block_weights)[np.ix_(row_ids, col_ids)]
        sub = block_full[np.ix_(row_colors, col_colors)]
        b_sub = block_full[row_colors, rhs_color]
        c_sub = block_full[obj_color, col_colors]
    else:
        # Aggregate A over blocks: S_rows^T A S_cols, real colors only.
        row_indicator = sp.csr_matrix(
            (
                np.ones(m),
                (row_coloring.labels[:m], np.arange(m)),
            ),
            shape=(row_coloring.n_colors, m),
        )
        col_indicator = sp.csr_matrix(
            (
                np.ones(n),
                (np.arange(n), col_coloring.labels[:n]),
            ),
            shape=(n, col_coloring.n_colors),
        )
        block = (row_indicator @ lp.a_matrix @ col_indicator).toarray()
        b_block = row_indicator @ lp.b
        c_block = lp.c @ col_indicator
        sub = block[np.ix_(row_colors, col_colors)]
        b_sub = b_block[row_colors]
        c_sub = np.asarray(c_block).ravel()[col_colors]

    row_sizes = row_coloring.sizes[row_colors].astype(np.float64)
    col_sizes = col_coloring.sizes[col_colors].astype(np.float64)

    if mode == "sqrt":
        a_hat = sub / np.sqrt(np.outer(row_sizes, col_sizes))
        b_hat = b_sub / np.sqrt(row_sizes)
        c_hat = c_sub / np.sqrt(col_sizes)
    else:  # grohe
        a_hat = sub / col_sizes[None, :]
        b_hat = b_sub
        c_hat = c_sub / col_sizes

    reduced = LinearProgram(
        sp.csr_matrix(a_hat),
        b_hat,
        c_hat,
        name=f"{lp.name or 'lp'}-reduced-{len(row_colors)}x{len(col_colors)}",
    )
    if max_q_err is None:
        from repro.core.qerror import max_q_err as _max_q_err

        # q-error of the bipartite coloring on the extended matrix.
        labels = np.concatenate(
            [
                row_coloring.labels,
                col_coloring.labels + row_coloring.n_colors,
            ]
        )
        max_q_err = _max_q_err(lp.bipartite_adjacency(), Coloring(labels))
    return LPReduction(
        original=lp,
        reduced=reduced,
        row_coloring=row_coloring,
        col_coloring=col_coloring,
        mode=mode,
        max_q_err=max_q_err,
    )


@dataclass(frozen=True)
class ApproxLPResult:
    """End-to-end output of :func:`approx_lp_opt`."""

    value: float
    reduction: LPReduction
    solution: LPSolution
    x_lifted: np.ndarray
    timings: StageTimings


def approx_lp_opt(
    lp: LinearProgram,
    n_colors: int | None = None,
    q: float | None = None,
    mode: str = "sqrt",
    method: str = "scipy",
    alpha: float = 1.0,
    beta: float = 0.0,
) -> ApproxLPResult:
    """The paper's LP pipeline: color -> reduce -> solve the reduced LP,
    driven through the shared :mod:`repro.pipeline` runner.

    The returned ``value`` approximates ``OPT(A, b, c)``; Theorem 2 bounds
    the error by ``q * Delta``.
    """
    if n_colors is None and q is None:
        raise ValueError("approx_lp_opt needs n_colors and/or q")
    from repro.pipeline import LPTask, run_task

    task = LPTask(lp, mode=mode, method=method, alpha=alpha, beta=beta)
    result = run_task(task, n_colors=n_colors, q=q)
    return ApproxLPResult(
        value=result.value,
        reduction=result.reduced,
        solution=result.solution,
        x_lifted=result.lifted,
        timings=result.timings,
    )
