"""Drivers for :class:`~repro.pipeline.task.CompressionTask`.

``run_task`` executes one compress–solve–lift pass; ``progressive_sweep``
evaluates a whole schedule of color budgets off a *single* Rothko run.
Both route the coloring through a :class:`~repro.pipeline.cache.
ColoringCache`, so passing the same cache to many calls shares engines
across tasks, weight modes, and checkpoints.

The progressive sweep is the Fig. 7/8 access pattern: instead of
re-coloring from scratch for every budget ``k`` (the naive loop the
experiments used to run), the cached engine refines once toward the
largest budget, pausing at every checkpoint to reduce–solve–lift with
that checkpoint's block weights (one sparse product ``S^T A S``).
Rothko's determinism makes the two strategies *equivalent*: every
checkpoint reproduces exactly the coloring, q-error, and solution of a
fresh per-k run (``tests/pipeline/test_progressive.py`` asserts this;
``benchmarks/bench_pipeline_progressive.py`` measures the speedup).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.rothko import check_stopping_rule
from repro.obs import recorder as _obs
from repro.obs import trace as _trace
from repro.pipeline.cache import ColoringCache, ReducedSolveCache
from repro.pipeline.task import CompressionTask, TaskResult
from repro.utils.timing import StageTimer

__all__ = ["run_task", "progressive_sweep"]


def run_task(
    task: CompressionTask,
    n_colors: int | None = None,
    q: float | None = None,
    cache: ColoringCache | None = None,
    solve_cache: ReducedSolveCache | None = None,
) -> TaskResult:
    """One color → reduce → solve → lift pass for ``task``.

    Exactly one stopping knob is required: a color budget ``n_colors``
    (at least 1) and/or a target maximum q-error ``q`` (non-negative;
    ``inf`` stops at the initial partition).  With a shared ``cache`` the
    coloring work is incremental across calls; the reported
    ``timings.coloring`` covers only the refinement this call caused.
    A shared ``solve_cache`` additionally skips the reduce/solve/lift
    stages whenever this (spec, task configuration, checkpoint) triple
    has been solved before — stopping knobs are consulted *after*
    checkpoint resolution, so distinct budgets resolving to one state
    (e.g. a q-target met early) pay for exactly one solve.
    """
    if n_colors is None and q is None:
        raise ValueError(f"{task.name} pipeline needs n_colors and/or q")
    check_stopping_rule(n_colors, q)
    if cache is None:
        cache = ColoringCache()
    with _trace.span(
        "pipeline.task", task=task.name, n_colors=n_colors, q=q
    ) as task_span:
        run = cache.run_for(task.coloring_spec())
        timer = StageTimer()
        with timer.stage("coloring"):
            checkpoint = run.resolve(
                max_colors=n_colors,
                q_tolerance=q if q is not None else 0.0,
            )
            coloring = run.coloring(checkpoint)
            q_err = run.q_err(checkpoint)
        solve_key = None
        entry = None
        if solve_cache is not None:
            task_key = task.solve_key()
            if task_key is not None:
                solve_key = (run.spec.cache_key(), task_key, checkpoint)
                entry = solve_cache.get(solve_key)
        if entry is not None:
            reduced, solution, lifted, value = entry
        else:
            with timer.stage("reduce"):
                weights = (
                    run.weights(checkpoint)
                    if task.uses_block_weights
                    else None
                )
                reduced = task.reduce(
                    task.problem, coloring, block_weights=weights,
                    max_q_err=q_err,
                )
            with timer.stage("solve"):
                solution = task.solve(reduced)
            with timer.stage("lift"):
                lifted = task.lift(coloring, reduced, solution)
            value = task.value(reduced, solution, lifted)
            if solve_key is not None:
                solve_cache.put(
                    solve_key, (reduced, solution, lifted, value)
                )
        task_span.set(
            checkpoint=checkpoint,
            max_q_err=q_err,
            solve_cache_hit=entry is not None,
        )
    timings = timer.freeze()
    _obs._active.observe("pipeline.checkpoint_s", timings.total)
    return TaskResult(
        task=task.name,
        coloring=coloring,
        max_q_err=q_err,
        reduced=reduced,
        solution=solution,
        lifted=lifted,
        value=value,
        timings=timings,
    )


def progressive_sweep(
    task: CompressionTask,
    checkpoints: Iterable[int],
    q: float | None = None,
    cache: ColoringCache | None = None,
    solve_cache: ReducedSolveCache | None = None,
) -> list[TaskResult]:
    """Solve ``task`` at every color budget in ``checkpoints``.

    Budgets are visited in the given order; an ascending schedule (the
    normal case) performs one Rothko run total.  Descending or repeated
    budgets still work — they are served from the run's recorded
    history.  An optional ``q`` caps every checkpoint exactly
    as it would a standalone run: refinement stops early once the
    q-error target is met, so later budgets all resolve to that state —
    and, through the sweep-local :class:`ReducedSolveCache` (pass
    ``solve_cache`` to share one across sweeps), are *solved* exactly
    once rather than once per budget.
    """
    if cache is None:
        cache = ColoringCache()
    if solve_cache is None:
        solve_cache = ReducedSolveCache()
    budgets = list(checkpoints)
    with _trace.span(
        "pipeline.sweep", task=task.name, checkpoints=len(budgets), q=q
    ):
        return [
            run_task(
                task,
                n_colors=budget,
                q=q,
                cache=cache,
                solve_cache=solve_cache,
            )
            for budget in budgets
        ]
