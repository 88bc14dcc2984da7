"""Exact solver timings: numpy Dinic and Brandes, and parallel Brandes.

Two mid-size workloads, each solved by the arcstore engine:

* exact Dinic max-flow on the ``tsukuba0`` stereo instance — deep BFS
  levels, so the per-frontier gathers dominate;
* exact Brandes betweenness on the ``deezer`` social graph — the lane
  batches (node-major lock-step BFS, each level a row-block x lanes
  product or pair by pair).

``test_dinic_time`` / ``test_brandes_time`` record their medians in
``benchmarks/results/bench_solver_backends.json`` (via
``run_benchmarks.py --json``); ``test_brandes_parallel_speedup`` pins
the thread fan-out — results identical to serial within 1e-9, and a
>= 2x speedup of Brandes source batches fanned over threads (asserted
at >= 4 cores, reported otherwise).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.centrality.brandes import betweenness_centrality
from repro.datasets.registry import load_flow, load_graph
from repro.flow.network import max_flow

from _bench_utils import run_once, scale_factor, write_report

FLOW_SCALE = 0.2
CENTRALITY_SCALE = 0.06
#: the parallel test needs multiple source batches (batch size is
#: ``4M / n`` lanes), so it runs deezer at a larger cut than the
#: timing tests do
PARALLEL_SCALE = 0.15
PARALLEL_SPEEDUP_TARGET = 2.0
PARALLEL_ASSERT_CORES = 4


def _flow_network():
    return load_flow("tsukuba0", scale=scale_factor(FLOW_SCALE))


def _graph():
    return load_graph("deezer", scale=scale_factor(CENTRALITY_SCALE))


def _solve_dinic(network):
    return max_flow(network, algorithm="dinic")


def _solve_brandes(graph, workers=None):
    return betweenness_centrality(graph, workers=workers)


def test_dinic_time(benchmark):
    network = _flow_network()
    _solve_dinic(network)  # warm the loaders and the arc-store cache
    result = run_once(benchmark, _solve_dinic, network)
    assert result.value > 0


def test_brandes_time(benchmark):
    graph = _graph()
    _solve_brandes(graph)  # warm caches
    result = run_once(benchmark, _solve_brandes, graph)
    assert result.max() > 0


def _timed_best_of(fn, *args, repeats=3, **kwargs):
    """Best-of-N wall clock (guards the ratio against scheduler noise)."""
    best_seconds, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        best_seconds = min(best_seconds, time.perf_counter() - start)
    return result, best_seconds


def test_brandes_parallel_speedup():
    """Brandes source batches over ``min(cores, 8)`` threads: identical
    to serial within 1e-9 always; >= 2x over serial asserted at >= 4
    cores."""
    graph = load_graph("deezer", scale=scale_factor(PARALLEL_SCALE))
    cores = os.cpu_count() or 1
    workers = min(cores, 8)
    serial = _solve_brandes(graph, workers=1)  # warm caches

    serial, serial_s = _timed_best_of(_solve_brandes, graph, workers=1)
    parallel, parallel_s = _timed_best_of(
        _solve_brandes, graph, workers=workers
    )

    # Batch boundaries and the submission-order reduce are worker-count
    # independent, so parallel results are bit-identical to serial;
    # 1e-9 is the contract the sweep asserts.
    assert np.allclose(parallel, serial, atol=1e-9)

    speedup = serial_s / parallel_s
    write_report(
        "solver_brandes_parallel",
        [
            {
                "workload": (
                    f"brandes deezer@{scale_factor(PARALLEL_SCALE)}"
                ),
                "cores": cores,
                "workers": workers,
                "serial_s": serial_s,
                "parallel_s": parallel_s,
                "speedup": speedup,
            }
        ],
        f"Source-batched parallel Brandes ({speedup:.2f}x at "
        f"{workers} workers on {cores} cores)",
    )
    if cores >= PARALLEL_ASSERT_CORES:
        assert speedup >= PARALLEL_SPEEDUP_TARGET, (
            f"parallel Brandes only {speedup:.2f}x over serial "
            f"({workers} workers, {cores} cores)"
        )
