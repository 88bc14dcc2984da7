"""Backend dispatch: numpy reference vs the best installed backend.

Every hot kernel of the coloring engine dispatches through
:mod:`repro.core.backends`, so one flag swaps the numpy reference
implementation for the numba (prange-threaded) backend.  This
suite times full greedy colorings at the large-scale sizes under the
numpy backend and under whatever ``resolve_backend("auto")`` picks, and
records the pairing — backend name, core count, speedup — in
``extra_info`` so ``run_benchmarks.py --json`` persists the comparison
in ``benchmarks/results/bench_backends.json``.

Two invariants are asserted regardless of which backend auto-detect
finds:

* **parity** — backends are bit-identical, so the accelerated
  coloring must equal the numpy coloring label-for-label;
* **dispatch overhead** — when auto-detect falls back to numpy (no
  optional backend installed), the dispatch layer itself must be free:
  the "best" run then *is* a numpy run and may not be materially slower
  than the directly-requested numpy run.

Speedup is reported, not asserted: it depends on which accelerator the
machine has.  The one parallel guard, Brandes source batches over
threads (>= 2x on >= 4 cores), lives in ``bench_solver_backends.py``.
"""

import os
import time

import numpy as np
import pytest

from _bench_utils import run_once
from repro.core.backends import available_backends, resolve_backend
from repro.core.rothko import Rothko
from repro.graphs.generators import uniform_random_digraph

#: n -> (out_degree, color budget)
CASES = {
    250_000: (4, 64),
    1_000_000: (4, 64),
}

BEST = resolve_backend("auto")


def _graph(n):
    degree, _ = CASES[n]
    return uniform_random_digraph(n, degree, seed=7).to_csr()


@pytest.mark.parametrize("n", sorted(CASES))
def test_backend_coloring(benchmark, n):
    """Greedy coloring under the auto-detected backend, with the numpy
    reference timed alongside for the speedup column."""
    _, budget = CASES[n]
    adjacency = _graph(n)

    start = time.perf_counter()
    reference = Rothko(adjacency, backend="numpy").run(max_colors=budget)
    numpy_seconds = time.perf_counter() - start

    engine = Rothko(adjacency, backend=BEST)
    result = run_once(benchmark, lambda: engine.run(max_colors=budget))

    # Backends are bit-identical.
    assert np.array_equal(result.coloring.labels, reference.coloring.labels)
    assert result.n_colors == reference.n_colors == budget

    median = benchmark.stats.stats.median
    benchmark.extra_info["n"] = n
    benchmark.extra_info["arcs"] = int(adjacency.nnz)
    benchmark.extra_info["backend"] = engine.backend.name
    benchmark.extra_info["available"] = ",".join(available_backends())
    benchmark.extra_info["cores"] = os.cpu_count() or 1
    benchmark.extra_info["numpy_seconds"] = round(numpy_seconds, 3)
    benchmark.extra_info["speedup_vs_numpy"] = round(
        numpy_seconds / median, 2
    )
    if engine.backend.name == "numpy":
        # Same kernels either way: dispatch must cost nothing.  The 1.35
        # margin absorbs one-shot timing noise between the two runs.
        assert median <= 1.35 * numpy_seconds + 0.05
