"""Quasi-stable coloring for graph compression (VLDB 2022 reproduction).

A from-scratch Python implementation of Kayali & Suciu, "Quasi-stable
Coloring for Graph Compression: Approximating Max-Flow, Linear Programs,
and Centrality" (PVLDB 16(4), 2022; arXiv:2211.11912).

Public API overview
-------------------
Core coloring:
    :func:`q_color` — the Rothko heuristic (Algorithm 1);
    :func:`stable_coloring` — exact color refinement (1-WL fixpoint);
    :class:`Coloring` — partitions with lattice structure;
    :func:`max_q_err` / :func:`mean_q_err` — coloring quality metrics.

Applications:
    :func:`repro.lp.approx_lp_opt` — reduced linear programs (Sec. 4.1);
    :func:`repro.flow.approx_max_flow` — reduced max-flow (Sec. 4.2);
    :func:`repro.centrality.approx_betweenness` — color-pivot betweenness
    (Sec. 4.3).

Pipeline:
    :mod:`repro.pipeline` — the unified compress–solve–lift layer the
    three applications run on: :class:`~repro.pipeline.CompressionTask`
    adapters, :func:`~repro.pipeline.run_task`, the progressive multi-k
    runner :func:`~repro.pipeline.progressive_sweep` (one Rothko run
    serving every color budget), and the keyed
    :class:`~repro.pipeline.ColoringCache` sharing colorings across
    tasks, weight modes, and checkpoints.

Streaming:
    :class:`repro.dynamic.DynamicColoring` — incremental maintenance of a
    quasi-stable coloring under edge insertions, deletions, and weight
    changes (local repair with a drift-budget fallback to recoloring).

Substrates live in :mod:`repro.graphs`, :mod:`repro.lp`, :mod:`repro.flow`,
:mod:`repro.centrality`; dataset stand-ins and churn scenarios in
:mod:`repro.datasets`; the paper's tables and figures in
:mod:`repro.experiments` and ``benchmarks/``.
"""

from repro.core.partition import Coloring
from repro.core.qerror import max_q_err, mean_q_err, q_error_report
from repro.core.refinement import congruence_coloring, stable_coloring
from repro.core.reduced import reduced_adjacency, reduced_graph
from repro.core.rothko import Rothko, RothkoResult, RothkoStep, eps_color, q_color
from repro.core.similarity import (
    Bisimulation,
    CappedCongruence,
    Equality,
    EpsRelative,
    QAbsolute,
)
from repro.dynamic import DynamicColoring, EdgeUpdate
from repro.graphs.digraph import WeightedDiGraph

__version__ = "1.0.0"

__all__ = [
    "Coloring",
    "max_q_err",
    "mean_q_err",
    "q_error_report",
    "congruence_coloring",
    "stable_coloring",
    "reduced_adjacency",
    "reduced_graph",
    "Rothko",
    "RothkoResult",
    "RothkoStep",
    "q_color",
    "eps_color",
    "Bisimulation",
    "CappedCongruence",
    "Equality",
    "EpsRelative",
    "QAbsolute",
    "DynamicColoring",
    "EdgeUpdate",
    "WeightedDiGraph",
    "__version__",
]
