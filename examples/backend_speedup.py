#!/usr/bin/env python
"""Kernel backend dispatch: time every installed backend on one workload.

The coloring engine's hot kernels dispatch through
``repro.core.backends``: numpy is the always-available reference, and
the numba backend is picked up automatically when installed (or
explicitly via ``Rothko(backend=...)`` / ``REPRO_BACKEND``).  Backends
are bit-identical, so switching one in changes wall-clock and nothing
else.

This example colors a mid-size random digraph once per available
backend and prints the timing table with speedups over the numpy
reference.  The solver tier rides the same dispatch, so a second leg
times Dinic max-flow and batched Brandes betweenness per backend (plus
a run with the Brandes source batches fanned over ``workers=cores``
threads), asserting along the way that every backend reproduces the
numpy/serial reference.  On a machine without numba it degrades to the
numpy rows alone.

Run:  python examples/backend_speedup.py
"""

import os
import time

import numpy as np

from repro.centrality.brandes import betweenness_centrality
from repro.core.backends import available_backends, resolve_backend
from repro.core.rothko import Rothko
from repro.flow.network import FlowNetwork, max_flow
from repro.graphs.generators import uniform_random_digraph
from repro.utils.tables import format_table

N_NODES = 50_000
OUT_DEGREE = 4
BUDGET = 64
# Solver-leg workloads: sized so full Dinic / all-sources Brandes stay
# example-friendly while the Brandes source lanes still span several
# batches (the unit of the parallel fan-out).
FLOW_NODES = 20_000
BRANDES_NODES = 2_500


def timed_run(adjacency, **kwargs):
    engine = Rothko(adjacency, **kwargs)
    start = time.perf_counter()
    result = engine.run(max_colors=BUDGET)
    return result, time.perf_counter() - start


def main() -> None:
    adjacency = uniform_random_digraph(
        N_NODES, OUT_DEGREE, seed=7
    ).to_csr()
    cores = os.cpu_count() or 1
    backends = available_backends()
    print(
        f"Graph: {N_NODES} nodes, {adjacency.nnz} arcs; budget {BUDGET} "
        f"colors; {cores} core(s); installed backends: "
        f"{', '.join(backends)}\n"
    )

    reference, numpy_seconds = timed_run(adjacency, backend="numpy")
    rows = [["numpy", f"{numpy_seconds:.2f}s", "1.00x"]]

    for name in backends:
        if name == "numpy":
            continue
        backend = resolve_backend(name)
        # One throwaway run first: numba JIT-compiles on first call.
        timed_run(adjacency, backend=backend)
        result, seconds = timed_run(adjacency, backend=backend)
        assert np.array_equal(
            result.coloring.labels, reference.coloring.labels
        ), f"{name} diverged from the numpy reference"
        rows.append([
            name, f"{seconds:.2f}s", f"{numpy_seconds / seconds:.2f}x",
        ])

    print(format_table(
        ["backend", "time", "vs numpy"],
        rows,
        title="One coloring, identical labels, different engines",
    ))
    print(
        "\nEvery row produced the same coloring — backends change "
        "wall-clock only.  Install numba to see the accelerated rows "
        "pull ahead.\n"
    )
    solver_leg(cores, backends)


def solver_leg(cores: int, backends: list[str]) -> None:
    """Time Dinic and Brandes through the same dispatch layer."""
    network = FlowNetwork(
        uniform_random_digraph(FLOW_NODES, OUT_DEGREE, seed=11),
        0,
        FLOW_NODES - 1,
    )
    graph = uniform_random_digraph(BRANDES_NODES, OUT_DEGREE, seed=13)
    print(
        f"Solver leg: Dinic on {FLOW_NODES} nodes, Brandes on "
        f"{BRANDES_NODES} nodes\n"
    )

    start = time.perf_counter()
    flow_reference = max_flow(network, algorithm="dinic", backend="numpy")
    flow_seconds = time.perf_counter() - start
    start = time.perf_counter()
    brandes_reference = betweenness_centrality(
        graph, backend="numpy", workers=1
    )
    brandes_seconds = time.perf_counter() - start
    rows = [
        ["dinic", "numpy", 1, f"{flow_seconds:.2f}s", "1.00x"],
        ["brandes", "numpy", 1, f"{brandes_seconds:.2f}s", "1.00x"],
    ]

    for name in backends:
        if name == "numpy":
            continue
        # Warm-up first: numba JIT-compiles each kernel on first call.
        max_flow(network, algorithm="dinic", backend=name)
        start = time.perf_counter()
        result = max_flow(network, algorithm="dinic", backend=name)
        seconds = time.perf_counter() - start
        assert np.isclose(
            result.value, flow_reference.value, atol=1e-9
        ), f"{name} dinic diverged from the numpy reference"
        rows.append([
            "dinic", name, 1, f"{seconds:.2f}s",
            f"{flow_seconds / seconds:.2f}x",
        ])

        betweenness_centrality(graph, backend=name, workers=1)
        start = time.perf_counter()
        scores = betweenness_centrality(graph, backend=name, workers=1)
        seconds = time.perf_counter() - start
        assert np.allclose(
            scores, brandes_reference, atol=1e-9
        ), f"{name} brandes diverged from the numpy reference"
        rows.append([
            "brandes", name, 1, f"{seconds:.2f}s",
            f"{brandes_seconds / seconds:.2f}x",
        ])

    # Brandes source batches over threads on the best backend: batches
    # are sized from the graph (never the worker count) and added in
    # submission order, so the fan-out is bit-identical to serial.
    best = resolve_backend("auto")
    serial = betweenness_centrality(graph, backend=best, workers=1)
    start = time.perf_counter()
    parallel = betweenness_centrality(graph, backend=best, workers=cores)
    seconds = time.perf_counter() - start
    assert np.array_equal(
        parallel, serial
    ), "parallel Brandes diverged from serial"
    rows.append([
        "brandes", best.name, cores, f"{seconds:.2f}s",
        f"{brandes_seconds / seconds:.2f}x",
    ])

    print(format_table(
        ["task", "backend", "workers", "time", "vs numpy serial"],
        rows,
        title="Same flows and centralities, different solver kernels",
    ))
    print(
        "\nThe solver tier dispatches through the identical backend "
        "layer: flow values, cuts, and betweenness vectors match the "
        "numpy/serial reference to 1e-9 on every backend and worker "
        "count."
    )


if __name__ == "__main__":
    main()
