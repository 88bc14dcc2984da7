"""Large-scale Rothko: million-node colorings under a flat memory budget.

The memory-flat engine keeps only the CSR/CSC snapshots, member lists,
and ``k x k`` state — the dense formulation's two ``k x n`` float64
degree matrices (2 GB at n=1M, k=128; 16 GB at k=1024) are never
allocated, which is what makes these runs possible at all.  Each case
records its tracemalloc peak (and the dense-equivalent state bytes it
avoided) in ``extra_info``, so ``run_benchmarks.py --json`` persists
peak memory alongside time in ``benchmarks/results/*.json``.

Two guards:

* the n >= 1M coloring completes with peak memory under a hard ceiling
  an order of magnitude below the dense-equivalent state;
* the colors[128]-class case (the ``bench_rothko_scaling`` workload)
  stays >= 5x below a measured dense-state reconstruction.
"""

import tracemalloc

import numpy as np
import pytest

from _bench_utils import run_once
from repro.core.kernels import color_degree_matrix_t
from repro.core.rothko import Rothko
from repro.graphs.generators import barabasi_albert, uniform_random_digraph

#: n -> (out_degree, color budget, peak ceiling in MB)
CASES = {
    250_000: (4, 64, 150.0),
    1_000_000: (4, 64, 550.0),
}


def _traced_coloring(adjacency, max_colors, **kwargs):
    """Run one coloring under tracemalloc; return (result, peak_bytes)."""
    tracemalloc.start()
    try:
        result = Rothko(adjacency, **kwargs).run(max_colors=max_colors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _dense_state_peak(adjacency, labels, k):
    """Measured footprint of the dense formulation's maintained state.

    Reconstructs exactly what the pre-flat engine pinned for the whole
    run: its CSR snapshot and CSC view of the adjacency (the flat
    engine's measured peak includes the same pair), the two color-major
    ``capacity x n`` degree matrices, and the eight
    ``capacity x capacity`` boundary/error/witness matrices, at the
    capacity the doubling rule reaches for ``k`` colors.
    """
    n = labels.size
    capacity = 16
    while capacity < k:
        capacity *= 2
    tracemalloc.start()
    try:
        snapshot = adjacency.copy()
        csc = snapshot.tocsc()
        d_out = np.zeros((capacity, n), dtype=np.float64)
        d_in = np.zeros((capacity, n), dtype=np.float64)
        d_out[:k] = color_degree_matrix_t(
            snapshot.indptr, snapshot.indices, snapshot.data, labels, k
        )
        d_in[:k] = color_degree_matrix_t(
            csc.indptr, csc.indices, csc.data, labels, k
        )
        square = [
            np.zeros((capacity, capacity), dtype=np.float64)
            for _ in range(8)
        ]
        _, peak = tracemalloc.get_traced_memory()
        del snapshot, csc, d_out, d_in, square
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("n", sorted(CASES))
def test_largescale_coloring(benchmark, n):
    degree, budget, ceiling_mb = CASES[n]
    n_nodes = n
    graph = uniform_random_digraph(n_nodes, degree, seed=7)
    adjacency = graph.to_csr()

    result = run_once(
        benchmark, lambda: Rothko(adjacency).run(max_colors=budget)
    )
    assert result.n_colors == budget

    traced, peak = _traced_coloring(adjacency, budget)
    assert traced.coloring == result.coloring
    dense_equivalent = 2 * budget * n_nodes * 8
    benchmark.extra_info["n"] = n_nodes
    benchmark.extra_info["arcs"] = int(adjacency.nnz)
    benchmark.extra_info["traced_peak_mb"] = round(peak / 1e6, 2)
    benchmark.extra_info["dense_equivalent_mb"] = round(
        dense_equivalent / 1e6, 2
    )
    benchmark.extra_info["reduction"] = round(dense_equivalent / peak, 2)
    # Memory ceiling: the flat engine must stay well under the dense
    # state it replaced (and under an absolute budget CI can afford).
    assert peak <= ceiling_mb * 1e6, (
        f"peak {peak / 1e6:.1f} MB exceeds the {ceiling_mb} MB ceiling"
    )
    assert 2 * peak <= dense_equivalent


def test_colors128_memory_reduction(benchmark):
    """The bench_rothko_scaling colors[128] case: >= 5x lower peak than
    the measured dense-state reconstruction."""
    graph = barabasi_albert(4000, 4, seed=2)
    adjacency = graph.to_csr()

    result = run_once(
        benchmark, lambda: Rothko(adjacency).run(max_colors=128)
    )
    flat, flat_peak = _traced_coloring(adjacency, 128)
    dense_peak = _dense_state_peak(
        adjacency, flat.coloring.labels, result.n_colors
    )
    benchmark.extra_info["traced_peak_mb"] = round(flat_peak / 1e6, 3)
    benchmark.extra_info["dense_state_peak_mb"] = round(dense_peak / 1e6, 3)
    benchmark.extra_info["reduction"] = round(dense_peak / flat_peak, 2)
    assert 5 * flat_peak <= dense_peak, (
        f"flat peak {flat_peak / 1e6:.2f} MB is not 5x below the dense "
        f"state's {dense_peak / 1e6:.2f} MB"
    )

