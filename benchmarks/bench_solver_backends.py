"""Solver-tier backend dispatch: numba kernels and parallel Brandes
(acceptance benchmark of the solver kernel family).

Two mid-size workloads, each solved through the dispatched arcstore
engine under every available backend:

* exact Dinic max-flow on the ``tsukuba0`` stereo instance — deep BFS
  levels, so the per-frontier work the numba kernels fuse dominates;
* exact Brandes betweenness on the ``deezer`` social graph — the
  per-source sequential numba pass vs the numpy lane batches (node-major
  lock-step BFS, each level a row-block x lanes product or pair by pair).

``test_dinic_backend`` / ``test_brandes_backend`` record per-backend
medians in ``benchmarks/results/bench_solver_backends.json`` (via
``run_benchmarks.py --json``); the assertion tests pin the contract —
results identical to the numpy/serial reference within 1e-9, a >= 3x
numba speedup on both workloads (skipped cleanly on numpy-only boxes),
and a >= 2x speedup of Brandes source batches fanned over threads
(asserted at >= 4 cores, reported otherwise).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.centrality.brandes import betweenness_centrality
from repro.core.backends import solver_numba
from repro.datasets.registry import load_flow, load_graph
from repro.flow.network import max_flow

from _bench_utils import run_once, scale_factor, write_report

FLOW_SCALE = 0.2
CENTRALITY_SCALE = 0.06
#: the parallel test needs multiple source batches (batch size is
#: ``4M / n`` lanes), so it runs deezer at a larger cut than the
#: backend comparison does
PARALLEL_SCALE = 0.15
NUMBA_SPEEDUP_TARGET = 3.0
PARALLEL_SPEEDUP_TARGET = 2.0
PARALLEL_ASSERT_CORES = 4

BACKENDS = ["numpy", "numba"]


def _require(backend: str) -> None:
    if backend == "numba" and not solver_numba.available():
        pytest.skip("numba not installed")


def _flow_network():
    return load_flow("tsukuba0", scale=scale_factor(FLOW_SCALE))


def _graph():
    return load_graph("deezer", scale=scale_factor(CENTRALITY_SCALE))


def _solve_dinic(network, backend):
    return max_flow(network, algorithm="dinic", backend=backend)


def _solve_brandes(graph, backend, workers=None):
    return betweenness_centrality(graph, backend=backend, workers=workers)


@pytest.mark.parametrize("backend", BACKENDS)
def test_dinic_backend(benchmark, backend):
    _require(backend)
    network = _flow_network()
    _solve_dinic(network, backend)  # warm caches + jit compilation
    result = run_once(benchmark, _solve_dinic, network, backend)
    assert result.value > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_brandes_backend(benchmark, backend):
    _require(backend)
    graph = _graph()
    _solve_brandes(graph, backend)  # warm caches + jit compilation
    result = run_once(benchmark, _solve_brandes, graph, backend)
    assert result.max() > 0


def _timed_best_of(fn, *args, repeats=3, **kwargs):
    """Best-of-N wall clock (guards the ratio against scheduler noise)."""
    best_seconds, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        best_seconds = min(best_seconds, time.perf_counter() - start)
    return result, best_seconds


def test_solver_backend_speedup_and_equality():
    """numba kernels: >= 3x over numpy on Dinic and Brandes, results
    within 1e-9 of the numpy reference."""
    _require("numba")
    network = _flow_network()
    graph = _graph()
    # Warm the loaders, the arc-store cache, and the jit compilations.
    _solve_dinic(network, "numba")
    _solve_brandes(graph, "numba")

    np_flow, np_flow_s = _timed_best_of(_solve_dinic, network, "numpy")
    nb_flow, nb_flow_s = _timed_best_of(_solve_dinic, network, "numba")
    np_btw, np_btw_s = _timed_best_of(_solve_brandes, graph, "numpy")
    nb_btw, nb_btw_s = _timed_best_of(_solve_brandes, graph, "numba")

    assert np.isclose(nb_flow.value, np_flow.value, atol=1e-9)
    assert np.allclose(nb_btw, np_btw, atol=1e-9)

    flow_speedup = np_flow_s / nb_flow_s
    btw_speedup = np_btw_s / nb_btw_s
    rows = [
        {
            "workload": f"dinic tsukuba0@{scale_factor(FLOW_SCALE)}",
            "n": network.graph.n_nodes,
            "arcs": network.graph.n_arcs,
            "numpy_s": np_flow_s,
            "numba_s": nb_flow_s,
            "speedup": flow_speedup,
        },
        {
            "workload": f"brandes deezer@{scale_factor(CENTRALITY_SCALE)}",
            "n": graph.n_nodes,
            "arcs": graph.n_arcs,
            "numpy_s": np_btw_s,
            "numba_s": nb_btw_s,
            "speedup": btw_speedup,
        },
    ]
    write_report(
        "solver_backends",
        rows,
        f"Solver kernels, numba vs numpy "
        f"(dinic {flow_speedup:.1f}x, brandes {btw_speedup:.1f}x)",
    )
    assert flow_speedup >= NUMBA_SPEEDUP_TARGET, (
        f"numba Dinic only {flow_speedup:.2f}x faster than numpy"
    )
    assert btw_speedup >= NUMBA_SPEEDUP_TARGET, (
        f"numba Brandes only {btw_speedup:.2f}x faster than numpy"
    )


def test_brandes_parallel_speedup():
    """Brandes source batches over ``min(cores, 8)`` threads: identical
    to serial within 1e-9 always; >= 2x over serial asserted at >= 4
    cores."""
    graph = load_graph("deezer", scale=scale_factor(PARALLEL_SCALE))
    cores = os.cpu_count() or 1
    workers = min(cores, 8)
    serial = _solve_brandes(graph, None, workers=1)  # warm caches

    serial, serial_s = _timed_best_of(
        _solve_brandes, graph, None, workers=1
    )
    parallel, parallel_s = _timed_best_of(
        _solve_brandes, graph, None, workers=workers
    )

    # Batch boundaries and the submission-order reduce are worker-count
    # independent, so parallel results are bit-identical to serial on a
    # given backend; 1e-9 is the contract the sweep asserts.
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
