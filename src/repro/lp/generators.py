"""Structured LP generators (the Table 3 stand-ins and Fig. 3's example).

The paper evaluates on Mittelmann benchmark LPs (qap15, nug08-3rd,
supportcase10, ex10), which are not redistributable here.  Coloring
compresses an LP exactly when many rows (and columns) have near-identical
block sums, so the stand-ins are built around that mechanism:

* :func:`planted_block_lp` — rows and columns are secretly grouped;
  every (row-group, column-group) block is a near-biregular random
  pattern whose values share a base level plus noise.  The planted
  grouping is an (approximately) equitable partition, so Rothko can
  rediscover it; the ``noise`` knob controls the achievable q.
* :func:`qap_like` / :func:`nug_like` — assignment-polytope LPs with a
  quadratic-coupling flavor: the constraint matrix of the QAP
  linearization family (these are the benchmarks' actual origin).
* :func:`supportcase_like` (wide) and :func:`ex10_like` (tall) match the
  aspect ratios of the remaining two instances.
* :func:`fig3_example` — the exact 5x3 LP of Fig. 3 (OPT 128.157...).
* :func:`transportation` — classic transportation LPs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import LPError
from repro.lp.model import LinearProgram
from repro.utils.rng import SeedLike, ensure_rng


def fig3_example() -> LinearProgram:
    """The worked example of Fig. 3; optimal value 128.157 (3 d.p.)."""
    a_matrix = np.array(
        [
            [4.0, 8.0, 2.0],
            [6.0, 5.0, 1.0],
            [7.0, 4.0, 2.0],
            [3.0, 1.0, 22.0],
            [2.0, 3.0, 21.0],
        ]
    )
    b = np.array([20.0, 20.0, 21.0, 50.0, 51.0])
    c = np.array([9.0, 10.0, 50.0])
    return LinearProgram(sp.csr_matrix(a_matrix), b, c, name="fig3")


def planted_block_lp(
    n_rows: int,
    n_cols: int,
    row_groups: int,
    col_groups: int,
    density: float = 0.4,
    noise: float = 0.05,
    seed: SeedLike = 0,
    name: str = "planted",
) -> LinearProgram:
    """LP whose matrix hides an (approximately) equitable block structure.

    Every block either is empty or has per-row nonzero count
    ``round(density * block_width)``, wired round-robin so row sums within
    a block agree up to rounding; values are the block's base level times
    ``1 + noise * U(-1, 1)``.  With ``noise = 0`` the planted grouping is
    an exactly stable coloring of the extended matrix, so the reduced LP
    is exact (the Grohe et al. regime); increasing ``noise`` degrades it
    gracefully into the quasi-stable regime.

    The matrix is built from index arrays: each active block, in
    row-group-major order, draws its jitter with one ``rng.uniform``
    call.  Raises :class:`LPError` unless ``0 < density <= 1``,
    ``1 <= row_groups <= n_rows`` and ``1 <= col_groups <= n_cols``.
    """
    if not 0 < density <= 1:
        raise LPError(f"density must be in (0, 1], got {density}")
    if not 1 <= row_groups <= n_rows:
        raise LPError(
            f"row_groups must be in [1, n_rows={n_rows}], got {row_groups}"
        )
    if not 1 <= col_groups <= n_cols:
        raise LPError(
            f"col_groups must be in [1, n_cols={n_cols}], got {col_groups}"
        )
    rng = ensure_rng(seed)
    row_membership = np.sort(rng.integers(0, row_groups, size=n_rows))
    col_membership = np.sort(rng.integers(0, col_groups, size=n_cols))
    # Guarantee every group is non-empty by seeding one member each.
    row_membership[:row_groups] = np.arange(row_groups)
    col_membership[:col_groups] = np.arange(col_groups)
    row_membership = np.sort(row_membership)
    col_membership = np.sort(col_membership)

    base = rng.uniform(1.0, 9.0, size=(row_groups, col_groups))
    active = rng.random((row_groups, col_groups)) < 0.7
    # Keep at least one active block per row group and per column group so
    # no variable is free (unbounded) and no constraint is vacuous.
    for g in range(row_groups):
        if not active[g].any():
            active[g, rng.integers(0, col_groups)] = True
    for g in range(col_groups):
        if not active[:, g].any():
            active[rng.integers(0, row_groups), g] = True

    cols_of_group = [
        np.nonzero(col_membership == g)[0] for g in range(col_groups)
    ]
    rows_of_group = [
        np.nonzero(row_membership == g)[0] for g in range(row_groups)
    ]
    rows, cols, values = [], [], []
    for row_group, col_group in zip(*np.nonzero(active)):
        group_rows = rows_of_group[row_group]
        group_cols = cols_of_group[col_group]
        width = len(group_cols)
        # Per-row nonzero count, rounded to a multiple of
        # width / gcd(|rows|, width) so the consecutive round-robin
        # covers every column the same number of times — this makes
        # the noiseless instance *exactly* biregular per block.
        step = width // np.gcd(len(group_rows), width)
        per_row = min(max(1, round(density * width / step)) * step, width)
        # Row of rank r takes the per_row columns after r * per_row,
        # cyclically.
        rank = np.arange(len(group_rows))[:, None]
        rows.append(np.repeat(group_rows, per_row))
        cols.append(
            group_cols[(rank * per_row + np.arange(per_row)) % width].ravel()
        )
        jitter = 1.0 + noise * rng.uniform(-1.0, 1.0, size=rows[-1].size)
        values.append(base[row_group, col_group] * jitter)
    a_matrix = sp.csr_matrix(
        (
            np.concatenate(values),
            (np.concatenate(rows), np.concatenate(cols)),
        ),
        shape=(n_rows, n_cols),
    )
    row_level = rng.uniform(20.0, 60.0, size=row_groups)
    col_level = rng.uniform(2.0, 12.0, size=col_groups)
    b = row_level[row_membership] * (
        1.0 + noise * rng.uniform(-1.0, 1.0, size=n_rows)
    )
    c = col_level[col_membership] * (
        1.0 + noise * rng.uniform(-1.0, 1.0, size=n_cols)
    )
    return LinearProgram(a_matrix, b, c, name=name)


def qap_like(size: int = 8, seed: SeedLike = 0, name: str = "qap") -> LinearProgram:
    """Assignment-polytope LP with QAP-flavored objective coupling.

    Variables ``x[i, j]`` (facility i at location j), relaxed assignment
    constraints ``sum_j x[i, j] <= 1`` and ``sum_i x[i, j] <= 1``, plus
    aggregated linearized-interaction rows that couple pairs of
    facilities through a low-rank flow/distance structure — the mechanism
    that makes real qap/nug matrices so compressible.
    """
    rng = ensure_rng(seed)
    n_vars = size * size

    def var(i: int, j: int) -> int:
        return i * size + j

    rows, cols, values = [], [], []
    row_id = 0
    # Row constraints: each facility assigned at most once.
    for i in range(size):
        for j in range(size):
            rows.append(row_id)
            cols.append(var(i, j))
            values.append(1.0)
        row_id += 1
    # Column constraints: each location used at most once.
    for j in range(size):
        for i in range(size):
            rows.append(row_id)
            cols.append(var(i, j))
            values.append(1.0)
        row_id += 1
    # Interaction rows: for each facility pair (i, k), flow f[i, k] limits
    # the co-assignment weighted by a coarse distance profile.
    flow_levels = rng.integers(1, 4, size=(size, size))
    for i in range(size):
        for k in range(i + 1, size):
            level = float(flow_levels[i, k])
            for j in range(size):
                rows.append(row_id)
                cols.append(var(i, j))
                values.append(level)
                rows.append(row_id)
                cols.append(var(k, j))
                values.append(level)
            row_id += 1
    a_matrix = sp.csr_matrix(
        (values, (rows, cols)), shape=(row_id, n_vars)
    )
    b = np.concatenate(
        [
            np.ones(2 * size),
            rng.integers(2, 5, size=row_id - 2 * size).astype(float),
        ]
    )
    # Benefit of assignment: distance-band levels (few distinct values).
    benefit_levels = rng.integers(1, 6, size=(size, size)).astype(float)
    c = benefit_levels.ravel()
    return LinearProgram(a_matrix, b, c, name=name)


def nug_like(size: int = 6, seed: SeedLike = 1) -> LinearProgram:
    """Same family as :func:`qap_like` with a different seed/shape (the
    nug08-3rd instance is a QAP linearization too)."""
    return qap_like(size=size, seed=seed, name="nug")


def supportcase_like(
    n_rows: int = 120,
    n_cols: int = 4000,
    seed: SeedLike = 2,
) -> LinearProgram:
    """Wide LP (columns >> rows), the supportcase10 aspect ratio."""
    return planted_block_lp(
        n_rows,
        n_cols,
        row_groups=max(4, n_rows // 20),
        col_groups=max(8, n_cols // 250),
        density=0.3,
        noise=0.08,
        seed=seed,
        name="supportcase",
    )


def ex10_like(
    n_rows: int = 3000,
    n_cols: int = 700,
    seed: SeedLike = 3,
) -> LinearProgram:
    """Tall LP (rows >> columns), the ex10 aspect ratio."""
    return planted_block_lp(
        n_rows,
        n_cols,
        row_groups=max(10, n_rows // 150),
        col_groups=max(5, n_cols // 100),
        density=0.35,
        noise=0.06,
        seed=seed,
        name="ex10",
    )


def transportation(
    n_sources: int,
    n_sinks: int,
    seed: SeedLike = 0,
) -> LinearProgram:
    """Transportation LP: ship from sources to sinks maximizing profit.

    Variables ``x[i, j] >= 0``; supply rows ``sum_j x[i, j] <= supply_i``;
    demand rows ``sum_i x[i, j] <= demand_j``.  Supplies/demands/profits
    are drawn from a few levels, so the LP compresses well.
    """
    rng = ensure_rng(seed)
    n_vars = n_sources * n_sinks
    rows, cols, values = [], [], []
    for i in range(n_sources):
        for j in range(n_sinks):
            rows.append(i)
            cols.append(i * n_sinks + j)
            values.append(1.0)
    for j in range(n_sinks):
        for i in range(n_sources):
            rows.append(n_sources + j)
            cols.append(i * n_sinks + j)
            values.append(1.0)
    a_matrix = sp.csr_matrix(
        (values, (rows, cols)), shape=(n_sources + n_sinks, n_vars)
    )
    supply = rng.choice([30.0, 40.0, 50.0], size=n_sources)
    demand = rng.choice([20.0, 25.0], size=n_sinks)
    b = np.concatenate([supply, demand])
    profit = rng.choice([3.0, 4.0, 5.0], size=n_vars)
    return LinearProgram(a_matrix, b, profit, name="transportation")
