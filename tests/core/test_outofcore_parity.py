"""Memmapped edge-store colorings are bit-identical to resident runs.

The out-of-core path swaps the engine's CSR/CSC snapshots for read-only
file-backed memmaps — an I/O strategy, not an approximation — so it
must produce exactly the labels the resident graph produces.
Integer-valued weights keep the float sums exact, so "bit-identical" is
a plain array comparison, no tolerance.
"""

import numpy as np
import pytest

from repro.core.rothko import Rothko
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.edgestore import ingest_arrays
from tests.conftest import is_file_backed


@pytest.fixture(scope="module")
def store_and_resident(tmp_path_factory):
    rng = np.random.default_rng(42)
    n, m = 600, 6_000
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    weight = rng.integers(1, 8, size=m).astype(np.float64)
    store = ingest_arrays(
        tmp_path_factory.mktemp("outofcore") / "store",
        src, dst, weight, n_nodes=n,
    )
    resident = WeightedDiGraph.from_arrays(src, dst, weight, n_nodes=n)
    return store, resident


def test_mmap_matches_resident(store_and_resident):
    store, resident = store_and_resident
    mmap_graph = WeightedDiGraph.from_edgestore(store, mmap=True)
    expected = Rothko(resident).run(max_colors=24)
    got = Rothko(mmap_graph).run(max_colors=24)

    assert np.array_equal(
        got.coloring.labels, expected.coloring.labels
    )
    assert got.n_colors == expected.n_colors
    assert got.max_q_err == expected.max_q_err


def test_engine_snapshots_stay_memmapped(store_and_resident):
    """The engine must color straight off the store's files: its CSR
    and CSC snapshots stay views of the store's memmaps (no resident
    copy)."""
    store, _ = store_and_resident
    graph = WeightedDiGraph.from_edgestore(store, mmap=True)
    engine = Rothko(graph)
    for array in (
        engine._csr.indptr, engine._csr.indices, engine._csr.data,
        engine._csc.indptr, engine._csc.indices, engine._csc.data,
    ):
        assert is_file_backed(array)
    result = engine.run(max_colors=16)
    assert result.n_colors == 16
