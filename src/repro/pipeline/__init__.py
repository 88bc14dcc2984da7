"""Unified compress–solve–lift pipeline (Secs. 4.1–4.3 as one pattern).

The paper's three applications all color a graph, reduce the problem
onto the color classes, solve the reduced problem, and lift the
solution.  This package factors that pattern out of the per-application
modules:

* :class:`CompressionTask` / :class:`ColoringSpec` / :class:`TaskResult`
  — the protocol (:mod:`repro.pipeline.task`);
* :class:`MaxFlowTask`, :class:`LPTask`, :class:`CentralityTask` — the
  application adapters (:mod:`repro.pipeline.adapters`);
* :func:`run_task` / :func:`progressive_sweep` — the drivers
  (:mod:`repro.pipeline.runner`);
* :func:`run_certified` / :class:`CertifiedResult` — the error-dial
  driver: compress until the measured error meets ``eps``, validated
  against an exact solve of the original problem
  (:mod:`repro.pipeline.certified`);
* :class:`ColoringCache` / :class:`ProgressiveRun` — one Rothko run
  shared across tasks, weight modes, and checkpoints, and
  :class:`ReducedSolveCache` — reduce/solve/lift outputs keyed per
  checkpoint so unchanged reduced problems are never re-solved
  (:mod:`repro.pipeline.cache`).
"""

from repro.pipeline.adapters import (
    CentralityTask,
    LPTask,
    MaxFlowTask,
    task_for,
)
from repro.pipeline.cache import (
    ColoringCache,
    ProgressiveRun,
    ReducedSolveCache,
)
from repro.pipeline.certified import (
    CertifiedResult,
    CertifiedRound,
    run_certified,
)
from repro.pipeline.runner import progressive_sweep, run_task
from repro.pipeline.task import ColoringSpec, CompressionTask, TaskResult

__all__ = [
    "CentralityTask",
    "LPTask",
    "MaxFlowTask",
    "task_for",
    "ColoringCache",
    "ProgressiveRun",
    "ReducedSolveCache",
    "CertifiedResult",
    "CertifiedRound",
    "progressive_sweep",
    "run_certified",
    "run_task",
    "ColoringSpec",
    "CompressionTask",
    "TaskResult",
]
