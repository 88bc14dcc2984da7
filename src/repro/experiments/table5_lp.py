"""Table 5: characteristics of the compressed constraint matrices.

For each LP and color budget: the reduced matrix's rows, columns and
nonzeros, the nnz compression ratio, and the relative (ratio) error of
the reduced optimum — the paper reports 10^2-10^3 compression at a
geometric-mean error around 1.2, with tiny budgets (5-10 colors) showing
huge errors that collapse as colors are added.

All budgets of one LP come off a single progressive coloring run
(:func:`repro.pipeline.progressive_sweep`): the engine refines once to
the largest budget and the reduced LP at each checkpoint is built from
that checkpoint's block weights.
"""

from __future__ import annotations

from repro.datasets.registry import load_lp
from repro.lp.solve import solve_lp
from repro.pipeline import ColoringCache, LPTask, progressive_sweep
from repro.utils.stats import ratio_error

DEFAULT_DATASETS = ("qap15", "nug08-3rd", "supportcase10", "ex10")
DEFAULT_BUDGETS = (10, 50, 100)


def lp_compression_rows(
    datasets: tuple[str, ...] = DEFAULT_DATASETS,
    scale: float = 0.05,
    color_budgets: tuple[int, ...] = DEFAULT_BUDGETS,
    method: str = "scipy",
    cache: ColoringCache | None = None,
) -> list[dict]:
    """Rows of Table 5 at the given scale."""
    cache = cache if cache is not None else ColoringCache()
    rows = []
    for name in datasets:
        lp = load_lp(name, scale=scale)
        exact = solve_lp(lp, method=method)
        results = progressive_sweep(
            LPTask(lp, method=method), color_budgets, cache=cache
        )
        for budget, result in zip(color_budgets, results):
            reduced = result.reduced.reduced
            rows.append(
                {
                    "dataset": name,
                    "colors": budget,
                    "rows": reduced.n_rows,
                    "cols": reduced.n_cols,
                    "nnz": reduced.nnz,
                    "compression": lp.nnz / max(reduced.nnz, 1),
                    "rel_error": ratio_error(exact.objective, result.value),
                }
            )
    return rows
