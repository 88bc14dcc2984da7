#!/usr/bin/env python
"""Compressing linear programs with quasi-stable coloring (Sec. 4.1).

Part 1 walks through the paper's worked example (Fig. 3): a 5x3 LP whose
extended matrix admits a q = 1 block coloring; the reduced 2x2 LP's
optimum (130.199) approximates the true optimum (128.157).

Part 2 runs the pipeline on a QAP-style instance (the family behind the
paper's qap15/nug08 benchmarks) and prints a Table 5-style compression
report.

Run:  python examples/lp_compression.py
"""

from repro.core.partition import Coloring
from repro.lp.generators import fig3_example, qap_like
from repro.lp.reduction import approx_lp_opt, reduce_lp
from repro.lp.solve import solve_lp
from repro.utils.stats import ratio_error
from repro.utils.tables import format_table


def part1_worked_example() -> None:
    lp = fig3_example()
    exact = solve_lp(lp).objective
    print(f"Fig. 3 LP ({lp.n_rows}x{lp.n_cols}): exact OPT = {exact:.3f}")

    # The paper's manual block partition: rows {1,2,3} {4,5}, cols {1,2} {3},
    # with the objective row and RHS column pinned as singletons.
    row_coloring = Coloring([0, 0, 0, 1, 1, 2])
    col_coloring = Coloring([0, 0, 1, 2])
    reduction = reduce_lp(lp, coloring=(row_coloring, col_coloring))
    reduced_opt = solve_lp(reduction.reduced).objective
    print(
        f"Reduced {reduction.reduced.n_rows}x{reduction.reduced.n_cols} LP "
        f"(q = {reduction.max_q_err:.0f} coloring): OPT = {reduced_opt:.3f} "
        f"(paper: 130.199)\n"
    )
    print("Reduced constraint matrix A_hat (Eq. 6):")
    print(reduction.reduced.a_matrix.toarray().round(3), "\n")


def part2_qap_pipeline() -> None:
    lp = qap_like(size=10, seed=4)
    exact = solve_lp(lp)
    print(
        f"QAP-style LP: {lp.n_rows} rows x {lp.n_cols} cols, "
        f"{lp.nnz} nonzeros; exact OPT = {exact.objective:.2f} "
        f"({exact.elapsed:.2f}s)\n"
    )
    rows = []
    for budget in (8, 16, 32, 64):
        result = approx_lp_opt(lp, n_colors=budget)
        reduced = result.reduction.reduced
        rows.append(
            [
                budget,
                f"{reduced.n_rows}x{reduced.n_cols}",
                reduced.nnz,
                f"{lp.nnz / max(reduced.nnz, 1):.0f}x",
                round(result.value, 2),
                round(ratio_error(exact.objective, result.value), 3),
                f"{result.timings.total:.3f}s",
            ]
        )
    print(format_table(
        ["colors", "reduced size", "nnz", "compression", "approx OPT",
         "ratio error", "time"],
        rows,
        title="Table 5-style compression report (qap-like instance)",
    ))

    # Lifted solutions: a reduced optimum pulled back to original space.
    result = approx_lp_opt(lp, n_colors=64)
    lifted = result.x_lifted
    print(
        f"\nLifted solution: objective {lp.objective(lifted):.2f}, "
        f"feasible = {lp.is_feasible(lifted, tol=1e-6)} "
        "(feasibility is exact when the coloring is stable; approximate "
        "otherwise — Theorem 2)"
    )


if __name__ == "__main__":
    part1_worked_example()
    part2_qap_pipeline()
