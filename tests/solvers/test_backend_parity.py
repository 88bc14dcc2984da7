"""Solver-tier backend/parallelism parity sweep.

The contract that makes ``--backend``/``--workers`` safe to flip on the
exact tier: every solver kernel backend must reproduce the numpy/serial
reference within 1e-9 — flow values for all three max-flow algorithms,
the (unique, Dinic-determined) min-cut source side and crossing arcs,
and betweenness vectors serial and over threads.  Optional backends
skip cleanly where the package is absent, so the dependency-free CI
matrix runs the numpy × serial/threads cells and the py3.12+numba job
runs the full sweep.
"""

import sys

import numpy as np
import pytest

import repro.solvers.betweenness as betweenness_mod
from repro.centrality.brandes import betweenness_centrality
from repro.core.backends import numba_backend
from repro.flow.mincut import min_cut
from repro.flow.network import FlowNetwork, max_flow, validate_flow
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.edgestore import ingest_arrays
from repro.obs import recording
from tests.conftest import is_file_backed

ALGORITHMS = ("dinic", "push_relabel")
BACKENDS = ("numpy", "numba")
MODES = ("serial", "threads")


def solver_backend(name):
    """The backend spec, or a clean skip when it is not installed."""
    if name == "numba" and not numba_backend.available():
        pytest.skip("numba not installed")
    return name


def random_flow_network(seed: int, n: int = 16, out_degree: int = 4):
    generator = np.random.default_rng(seed)
    graph = WeightedDiGraph(directed=True)
    for i in range(n):
        graph.add_node(i)
    for u in range(n):
        targets = generator.choice(n, size=out_degree, replace=False)
        for v in targets:
            if int(v) != u:
                graph.add_edge(u, int(v), float(generator.integers(1, 10)))
    return FlowNetwork(graph, 0, n - 1)


def random_graph(seed: int, n: int = 20, directed: bool = False):
    generator = np.random.default_rng(seed)
    graph = WeightedDiGraph(directed=directed)
    for i in range(n):
        graph.add_node(i)
    for u in range(n):
        for v in generator.choice(n, size=3, replace=False):
            if int(v) != u:
                graph.add_edge(u, int(v), float(generator.integers(1, 7)))
    return graph


class TestFlowParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("seed", range(6))
    def test_flow_values_match_reference(self, backend, algorithm, seed):
        network = random_flow_network(seed)
        reference = max_flow(
            network, algorithm=algorithm, backend="numpy"
        )
        result = max_flow(
            network, algorithm=algorithm, backend=solver_backend(backend)
        )
        assert result.value == pytest.approx(reference.value, abs=1e-9)
        validate_flow(network, result)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_min_cut_sets_unique(self, backend, seed):
        """Dinic's residual is deterministic per backend contract, so
        every backend finds the *same* cut, not just the same value."""
        network = random_flow_network(seed)
        ref_value, ref_side, ref_arcs = min_cut(network, backend="numpy")
        value, side, arcs = min_cut(
            network, backend=solver_backend(backend)
        )
        assert value == pytest.approx(ref_value, abs=1e-9)
        assert side == ref_side
        assert sorted(arcs) == sorted(ref_arcs)


class TestBetweennessParity:
    @pytest.fixture(autouse=True)
    def _small_batches(self, monkeypatch):
        # Force multiple source batches on test-sized graphs so the
        # batched fan-out (and its submission-order reduce) is actually
        # exercised; batch boundaries stay worker-count independent.
        monkeypatch.setattr(betweenness_mod, "_BATCH_CELLS", 64)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("directed", (False, True))
    def test_betweenness_matches_reference(self, backend, mode, directed):
        graph = random_graph(3, directed=directed)
        reference = betweenness_centrality(
            graph, backend="numpy", workers=1
        )
        scores = betweenness_centrality(
            graph,
            backend=solver_backend(backend),
            workers=1 if mode == "serial" else 3,
        )
        assert np.allclose(scores, reference, atol=1e-9)

    @pytest.mark.parametrize("mode", MODES)
    def test_parallel_is_bit_identical_to_serial(self, mode):
        """Same backend, any worker count: *bit*-identical results
        (submission-order reduce), which implies the 1e-9 contract."""
        graph = random_graph(7)
        serial = betweenness_centrality(graph, backend="numpy", workers=1)
        parallel = betweenness_centrality(
            graph,
            backend="numpy",
            workers=1 if mode == "serial" else 4,
        )
        assert np.array_equal(serial, parallel)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_memmapped_store_threads_bit_identical(self, backend, tmp_path):
        """A graph memmapped from an edge store, its source batches
        fanned over three threads that switch every microsecond:
        bit-identical to one worker."""
        spec = solver_backend(backend)
        rng = np.random.default_rng(13)
        n, m = 60, 360
        store = ingest_arrays(
            tmp_path / "store",
            rng.integers(0, n, size=m),
            rng.integers(0, n, size=m),
            rng.integers(1, 5, size=m).astype(np.float64),
            n_nodes=n,
        )
        graph = WeightedDiGraph.from_edgestore(store, mmap=True)
        assert is_file_backed(graph.to_csr().indices)
        serial = betweenness_centrality(graph, backend=spec, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with recording() as rec:
                threaded = betweenness_centrality(
                    graph, backend=spec, workers=3
                )
        finally:
            sys.setswitchinterval(interval)
        assert rec.snapshot()["counters"]["solvers.brandes.batches"] > 3
        assert np.array_equal(serial, threaded)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_restricted_sources_match_reference(self, backend):
        """The pivot hook (sources + weights) under the full sweep."""
        graph = random_graph(11)
        sources = list(range(0, graph.n_nodes, 2))
        weights = [1.0 + 0.25 * i for i in range(len(sources))]
        reference = betweenness_centrality(
            graph, sources=sources, source_weights=weights,
            backend="numpy", workers=1,
        )
        scores = betweenness_centrality(
            graph, sources=sources, source_weights=weights,
            backend=solver_backend(backend), workers=2,
        )
        assert np.allclose(scores, reference, atol=1e-9)
