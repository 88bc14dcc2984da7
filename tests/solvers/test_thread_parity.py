"""Serial vs threaded Brandes: the contract that makes ``--workers`` safe.

Brandes maps source batches over threads and adds the partial vectors
in submission order, and batch boundaries never depend on the worker
count, so a threaded run is *bit*-identical to a serial one: on plain
graphs, with restricted and weighted sources, and on a memmapped edge
store under a 1 µs thread switch interval.  :func:`resolve_workers` is
the one worker-count rule behind ``workers=`` and ``REPRO_WORKERS``.
"""

import sys

import numpy as np
import pytest

import repro.solvers.betweenness as betweenness_mod
from repro.centrality.brandes import betweenness_centrality
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.edgestore import ingest_arrays
from repro.obs import recording
from repro.solvers.betweenness import resolve_workers
from tests.conftest import is_file_backed


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


class TestBetweennessParity:
    @pytest.fixture(autouse=True)
    def _small_batches(self, monkeypatch):
        # Force multiple source batches on test-sized graphs so the
        # batched fan-out (and its submission-order reduce) is actually
        # exercised; batch boundaries stay worker-count independent.
        monkeypatch.setattr(betweenness_mod, "_BATCH_CELLS", 64)

    @pytest.mark.parametrize("directed", (False, True))
    def test_betweenness_matches_reference(self, directed):
        graph = random_graph(3, directed=directed)
        serial = betweenness_centrality(graph, workers=1)
        threaded = betweenness_centrality(graph, workers=3)
        assert np.array_equal(threaded, serial)

    def test_parallel_is_bit_identical_to_serial(self):
        graph = random_graph(7)
        serial = betweenness_centrality(graph, workers=1)
        parallel = betweenness_centrality(graph, workers=4)
        assert np.array_equal(serial, parallel)

    def test_memmapped_store_threads_bit_identical(self, tmp_path):
        """A graph memmapped from an edge store, its source batches
        fanned over three threads that switch every microsecond:
        bit-identical to one worker."""
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
        serial = betweenness_centrality(graph, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with recording() as rec:
                threaded = betweenness_centrality(graph, workers=3)
        finally:
            sys.setswitchinterval(interval)
        assert rec.snapshot()["counters"]["solvers.brandes.batches"] > 3
        assert np.array_equal(serial, threaded)

    def test_restricted_sources_match_reference(self):
        """The pivot hook (sources + weights), serial vs two threads."""
        graph = random_graph(11)
        sources = list(range(0, graph.n_nodes, 2))
        weights = [1.0 + 0.25 * i for i in range(len(sources))]
        serial = betweenness_centrality(
            graph, sources=sources, source_weights=weights, workers=1
        )
        threaded = betweenness_centrality(
            graph, sources=sources, source_weights=weights, workers=2
        )
        assert np.array_equal(threaded, serial)


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(4) == 4
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert resolve_workers(None) == 3
    with pytest.raises(ValueError):
        resolve_workers(0)
    for value in ("two", "0"):
        monkeypatch.setenv("REPRO_WORKERS", value)
        with pytest.raises(ValueError, match=f"REPRO_WORKERS.*'{value}'"):
            resolve_workers(None)
