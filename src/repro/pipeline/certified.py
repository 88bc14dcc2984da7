"""Certified-ε mode: compress until the *measured* error meets a dial.

The paper's experiments (Sec. 6) fix a color budget and report whatever
error comes out.  The ROADMAP's "approximate with a dial" asks for the
inverse: the caller names the error they can tolerate, and the pipeline
finds a compression that *provably* (by direct measurement against an
exact solve of the original problem, not by a bound) achieves it.

:func:`run_certified` drives a doubling color-budget schedule off a
single shared coloring run — the same prefix property
:func:`~repro.pipeline.runner.progressive_sweep` exploits, so the whole
certification loop costs one Rothko refinement plus one cheap
reduced solve per round plus one exact solve of the original problem
(the arcstore solver cores make that reference affordable even at full
size).  Each round's measured relative error comes from the task's
:meth:`~repro.pipeline.task.CompressionTask.certified_error` — the
paper's Sec. 6.1 ratio error for max-flow and LP objectives, a
normalized L1 score distance for centrality.

The loop ends in one of three ways, all recorded on the returned
:class:`CertifiedResult`: the error meets ``eps`` (``certified=True``);
the budget reaches ``max_colors`` without meeting it; or the coloring
saturates (no witness left to split — the compressed answer will never
get closer).  Callers get the achieved (ε, compression ratio) pair
either way, so an unreachable dial degrades into an informed decision
rather than an exception.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.rothko import check_stopping_rule
from repro.obs import recorder as _obs
from repro.obs import trace as _trace
from repro.pipeline.cache import ColoringCache, ReducedSolveCache
from repro.pipeline.runner import run_task
from repro.pipeline.task import CompressionTask, TaskResult

__all__ = ["CertifiedResult", "CertifiedRound", "run_certified"]


@dataclass(frozen=True)
class CertifiedRound:
    """One certification attempt at one color budget."""

    n_colors: int
    value: float
    error: float
    compression_ratio: float
    seconds: float


@dataclass(frozen=True)
class CertifiedResult:
    """Outcome of a certified-ε run (see module docstring)."""

    task: str
    eps: float
    certified: bool
    achieved_error: float
    exact_value: Any
    result: TaskResult
    rounds: list[CertifiedRound] = field(default_factory=list)

    @property
    def n_colors(self) -> int:
        return self.result.n_colors

    @property
    def compression_ratio(self) -> float:
        return self.rounds[-1].compression_ratio if self.rounds else 1.0


def run_certified(
    task: CompressionTask,
    eps: float,
    *,
    start_colors: int = 8,
    max_colors: int | None = None,
    growth: float = 2.0,
    cache: ColoringCache | None = None,
    solve_cache: ReducedSolveCache | None = None,
) -> CertifiedResult:
    """Compress–solve–validate until measured error ≤ ``eps``.

    Budgets grow geometrically from ``start_colors`` by ``growth``
    (doubling by default), capped at ``max_colors`` (default: the
    problem size — i.e. no compression — which always certifies
    because a coloring with every node its own color is exact).
    Passing a smaller ``max_colors`` bounds the work instead: the
    result then reports ``certified=False`` with the best achieved
    error when the dial is unreachable within the cap.
    """
    check_stopping_rule(None, eps, name="eps")
    if start_colors < 1:
        raise ValueError(f"start_colors must be >= 1, got {start_colors}")
    if max_colors is not None and max_colors < 1:
        raise ValueError(f"max_colors must be >= 1, got {max_colors}")
    if growth <= 1.0:
        raise ValueError(f"growth must be > 1, got {growth}")
    n = int(task.coloring_spec().adjacency.shape[0])
    if max_colors is None:
        max_colors = n
    max_colors = min(int(max_colors), n)
    if cache is None:
        cache = ColoringCache()
    if solve_cache is None:
        solve_cache = ReducedSolveCache()

    with _trace.span(
        "pipeline.certified", task=task.name, eps=eps, max_colors=max_colors
    ) as span:
        exact = task.exact_reference()
        rounds: list[CertifiedRound] = []
        result: TaskResult | None = None
        error = float("inf")
        budget = min(start_colors, max_colors)
        while True:
            start = time.perf_counter()
            attempt = run_task(
                task, n_colors=budget, cache=cache, solve_cache=solve_cache
            )
            attempt_error = task.certified_error(exact, attempt)
            _obs._active.count("pipeline.certified.rounds")
            # Saturated = a bigger budget produced the same coloring
            # *without using the headroom*: no witness left to split.
            # (Equal counts at a fully-used budget just mean the next
            # doubling is needed.)
            saturated = (
                result is not None
                and attempt.n_colors == result.n_colors
                and attempt.n_colors < budget
            )
            result, error = attempt, attempt_error
            rounds.append(
                CertifiedRound(
                    n_colors=attempt.n_colors,
                    value=attempt.value,
                    error=attempt_error,
                    compression_ratio=n / max(1, attempt.n_colors),
                    seconds=time.perf_counter() - start,
                )
            )
            if error <= eps:
                break
            if saturated or budget >= max_colors:
                # No finer coloring is coming (saturated) or allowed
                # (budget cap): report the best we achieved.
                break
            budget = min(max(budget + 1, int(budget * growth)), max_colors)
        certified = error <= eps
        span.set(
            certified=certified,
            achieved_error=error,
            n_colors=result.n_colors,
            rounds=len(rounds),
        )
    _obs._active.gauge("pipeline.certified.achieved_error", error)
    return CertifiedResult(
        task=task.name,
        eps=float(eps),
        certified=certified,
        achieved_error=float(error),
        exact_value=exact,
        result=result,
        rounds=rounds,
    )
