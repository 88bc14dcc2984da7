"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings

from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.edgestore import EdgeStore, ingest_arrays
from repro.graphs.generators import karate_club
from repro.lp.model import LinearProgram

#: the longer property sweep CI runs with ``--hypothesis-profile=ci``
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def karate() -> WeightedDiGraph:
    return karate_club()


@pytest.fixture
def small_directed() -> WeightedDiGraph:
    """A fixed 6-node weighted digraph used across unit tests."""
    graph = WeightedDiGraph(directed=True)
    edges = [
        (0, 1, 2.0),
        (0, 2, 1.0),
        (1, 2, 3.0),
        (1, 3, 1.0),
        (2, 3, 2.0),
        (3, 4, 4.0),
        (4, 5, 1.0),
        (2, 5, 0.5),
    ]
    graph.add_weighted_edges(edges)
    return graph


def random_adjacency(
    n: int, density: float, seed: int, weighted: bool = True
) -> sp.csr_matrix:
    """Random square sparse adjacency with integer-ish weights."""
    generator = np.random.default_rng(seed)
    mask = generator.random((n, n)) < density
    np.fill_diagonal(mask, False)
    weights = (
        generator.integers(1, 5, size=(n, n)).astype(float)
        if weighted
        else np.ones((n, n))
    )
    return sp.csr_matrix(np.where(mask, weights, 0.0))


def random_feasible_lp(seed: int, m: int = 6, n: int = 5) -> LinearProgram:
    """Random LP with A >= 0, b > 0 (so x = 0 is feasible and the LP is
    bounded whenever every column has a positive entry)."""
    generator = np.random.default_rng(seed)
    a_dense = generator.integers(0, 4, size=(m, n)).astype(float)
    # Ensure bounded: give every column at least one positive entry.
    for j in range(n):
        if a_dense[:, j].sum() == 0:
            a_dense[generator.integers(0, m), j] = 1.0
    b = generator.integers(5, 20, size=m).astype(float)
    c = generator.integers(1, 9, size=n).astype(float)
    return LinearProgram(sp.csr_matrix(a_dense), b, c)


def store_with_weights(
    path, src, dst, weight, directed: bool = True
) -> EdgeStore:
    """An edge store carrying ``weight`` as given, NaN and inf included.

    The store writer refuses non-finite weights, so the arcs are written
    with their ids as weights (1, 2, ...) and each id is then swapped on
    disk for its arc's weight: the state of a store edited after ingest.
    The arcs must be distinct (the writer sums a duplicate's ids).
    """
    weight = np.asarray(weight, dtype=np.float64)
    store = ingest_arrays(
        path, src, dst, np.arange(1.0, weight.size + 1), directed=directed
    )
    for stem in ("weight", "csc_data"):
        file = store.path / f"{stem}.npy"
        np.save(file, weight[np.load(file).astype(np.int64) - 1])
    return store


def is_file_backed(array: np.ndarray) -> bool:
    """True when ``array`` is a view onto a file-backed ``np.memmap``:
    walks the ``.base`` chain to a memmap that names its file."""
    base = array
    while base is not None:
        if isinstance(base, np.memmap) and base.filename is not None:
            return True
        base = getattr(base, "base", None)
    return False
