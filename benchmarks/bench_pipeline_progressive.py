"""Progressive multi-k sweep vs the per-k re-color loop (acceptance
benchmark of the unified pipeline).

Both strategies evaluate the max-flow approximation at a Fig. 8-style
color schedule (16 checkpoints).  The per-k loop — what the tradeoff
experiments used to run — re-colors from scratch and rebuilds the block
weights at every budget; the progressive sweep performs one Rothko run,
pausing at every checkpoint to build ``W = S^T A S`` with one sparse
product and reduce, solve and lift.  Rothko's determinism makes the
outputs identical, so the entire difference is wall-clock: the sweep
drops the re-coloring work (>= 3x here; the gap widens with instance
size and schedule density).

``test_sweep`` records both strategies' medians in
``benchmarks/results/bench_pipeline_progressive.json`` (via
``run_benchmarks.py --json``); ``test_progressive_speedup_and_equality``
asserts the contract — identical values/q-errors, one engine, >= 3x.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.datasets.registry import load_flow
from repro.flow.approx import approx_max_flow
from repro.pipeline import ColoringCache, MaxFlowTask, progressive_sweep

from _bench_utils import run_once, scale_factor, write_report

#: Fig. 8's fine budget grid plus intermediate points — 16 checkpoints,
#: >= 8 per the acceptance bar
SCHEDULE = (4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64, 80, 100, 120, 150)


def _network():
    return load_flow("tsukuba0", scale=scale_factor(0.2))


def percolor_sweep(network, schedule=SCHEDULE):
    """The naive loop: one full color-reduce-solve pipeline per budget."""
    return [
        approx_max_flow(network, n_colors=budget) for budget in schedule
    ]


def progressive(network, schedule=SCHEDULE):
    """One coloring run serving every checkpoint."""
    return progressive_sweep(
        MaxFlowTask(network), schedule, cache=ColoringCache()
    )


@pytest.mark.parametrize(
    "strategy", [progressive, percolor_sweep], ids=["progressive", "percolor"]
)
def test_sweep(benchmark, strategy):
    network = _network()
    results = run_once(benchmark, strategy, network)
    assert len(results) == len(SCHEDULE)


def _timed_best_of(fn, network, repeats=2):
    """Best-of-N wall clock (guards the ratio against scheduler noise)."""
    best_seconds, results = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        results = fn(network)
        best_seconds = min(best_seconds, time.perf_counter() - start)
    return results, best_seconds


def test_progressive_speedup_and_equality():
    network = _network()
    # Warm the allocator and caches on a tiny run before timing.
    percolor_sweep(network, schedule=(4,))
    progressive(network, schedule=(4,))

    naive, naive_seconds = _timed_best_of(percolor_sweep, network)
    swept, progressive_seconds = _timed_best_of(progressive, network)

    rows = []
    for budget, base, prog in zip(SCHEDULE, naive, swept):
        # Identical q-errors and objectives at every checkpoint.
        assert prog.coloring == base.coloring, budget
        assert np.isclose(prog.value, base.value, rtol=1e-9), budget
        rows.append(
            {
                "budget": budget,
                "colors": prog.n_colors,
                "max_q": prog.max_q_err,
                "value": prog.value,
                "percolor_s": base.timings.total,
                "progressive_s": prog.timings.total,
            }
        )
    speedup = naive_seconds / progressive_seconds
    rows.append(
        {
            "budget": "total",
            "colors": "",
            "max_q": "",
            "value": "",
            "percolor_s": naive_seconds,
            "progressive_s": progressive_seconds,
        }
    )
    write_report(
        "pipeline_progressive",
        rows,
        f"Progressive sweep vs per-k re-coloring "
        f"({len(SCHEDULE)} checkpoints): {speedup:.1f}x",
    )
    assert speedup >= 3.0, (
        f"progressive sweep only {speedup:.2f}x faster than the per-k loop"
    )
