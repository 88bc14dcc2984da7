"""The reduced-solve cache: one solve per (task, checkpoint), served
results identical to cache-off runs.

:class:`ReducedSolveCache` keys reduce/solve/lift outputs on
``(coloring spec, task solve key, resolved checkpoint)``.  The
acceptance contract: a progressive sweep whose budgets resolve to the
same checkpoint (a q-target met early) performs exactly one solve with
the rest served as obs-counted hits; repeated budgets never re-solve;
and every served :class:`TaskResult` is identical, field for field, to
what a cache-off run produces.
"""

import numpy as np
import pytest

from repro.graphs.digraph import WeightedDiGraph
from repro.flow.network import FlowNetwork
from repro.obs import recording
from repro.pipeline import (
    CentralityTask,
    ColoringCache,
    MaxFlowTask,
    ReducedSolveCache,
    progressive_sweep,
    run_task,
)
from tests.conftest import random_adjacency


def random_network(seed: int, n: int = 14) -> FlowNetwork:
    adjacency = random_adjacency(n, 0.35, seed)
    graph = WeightedDiGraph.from_scipy(adjacency, directed=True)
    return FlowNetwork(graph, 0, n - 1)


class CountingMaxFlowTask(MaxFlowTask):
    """MaxFlowTask that counts its solve-stage invocations."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.solve_calls = 0

    def solve(self, reduced):
        self.solve_calls += 1
        return super().solve(reduced)


class UncacheableMaxFlowTask(CountingMaxFlowTask):
    def solve_key(self):
        return None


class TestSweepSolveCounts:
    def test_q_target_met_early_solves_once(self):
        """Three budgets resolving to one checkpoint: 1 solve, 2 hits."""
        task = CountingMaxFlowTask(random_network(0))
        with recording() as rec:
            results = progressive_sweep(task, [4, 6, 8], q=1e6)
        # The huge q-target is met by the initial coloring, so every
        # budget resolves to the same state.
        assert len({r.n_colors for r in results}) == 1
        assert task.solve_calls == 1
        counters = rec.snapshot()["counters"]
        assert counters["pipeline.solve_cache.miss"] == 1
        assert counters["pipeline.solve_cache.hit"] == 2
        for other in results[1:]:
            assert other.value == results[0].value
            assert other.reduced is results[0].reduced
            assert other.solution is results[0].solution

    def test_one_solve_per_distinct_checkpoint(self):
        """Repeated budgets are hits; distinct budgets each solve once."""
        task = CountingMaxFlowTask(random_network(1))
        with recording() as rec:
            results = progressive_sweep(task, [4, 8, 4, 8])
        assert task.solve_calls == 2
        counters = rec.snapshot()["counters"]
        assert counters["pipeline.solve_cache.miss"] == 2
        assert counters["pipeline.solve_cache.hit"] == 2
        assert results[0].value == results[2].value
        assert results[1].value == results[3].value

    def test_uncacheable_task_always_solves(self):
        task = UncacheableMaxFlowTask(random_network(2))
        with recording() as rec:
            progressive_sweep(task, [4, 6], q=1e6)
        assert task.solve_calls == 2
        counters = rec.snapshot()["counters"]
        assert "pipeline.solve_cache.miss" not in counters
        assert "pipeline.solve_cache.hit" not in counters

    def test_run_task_without_solve_cache_never_consults(self):
        task = CountingMaxFlowTask(random_network(3))
        cache = ColoringCache()
        with recording() as rec:
            run_task(task, n_colors=6, cache=cache)
            run_task(task, n_colors=6, cache=cache)
        assert task.solve_calls == 2
        assert "pipeline.solve_cache.miss" not in rec.snapshot()["counters"]


class TestCacheOnOffEquality:
    def _field_equal(self, served, fresh):
        assert served.task == fresh.task
        assert np.array_equal(
            served.coloring.labels, fresh.coloring.labels
        )
        assert served.max_q_err == fresh.max_q_err
        assert served.value == fresh.value

    def test_maxflow_results_identical(self):
        network = random_network(4)
        budgets = [4, 6, 8]
        on = progressive_sweep(
            MaxFlowTask(network), budgets, q=1e6,
            solve_cache=ReducedSolveCache(),
        )
        off = [
            run_task(MaxFlowTask(network), n_colors=budget, q=1e6)
            for budget in budgets
        ]
        for served, fresh in zip(on, off):
            self._field_equal(served, fresh)
            # FlowResult equality covers (value, per-arc flows).
            assert served.solution == fresh.solution
            assert served.lifted == fresh.lifted

    def test_centrality_results_identical(self):
        adjacency = random_adjacency(16, 0.3, 5)
        graph = WeightedDiGraph.from_scipy(adjacency, directed=True)
        budgets = [4, 6]
        on = progressive_sweep(
            CentralityTask(graph, seed=7), budgets, q=1e6,
            solve_cache=ReducedSolveCache(),
        )
        off = [
            run_task(CentralityTask(graph, seed=7), n_colors=b, q=1e6)
            for b in budgets
        ]
        for served, fresh in zip(on, off):
            self._field_equal(served, fresh)
            assert np.array_equal(served.lifted, fresh.lifted)


class TestReducedSolveCacheLRU:
    def test_counters_mirrored_to_obs(self):
        cache = ReducedSolveCache()
        with recording() as rec:
            cache.get(("missing",))
            cache.put(("k",), (0, 0, 0, 0.0))
            cache.get(("k",))
        counters = rec.snapshot()["counters"]
        assert counters["pipeline.solve_cache.miss"] == 1
        assert counters["pipeline.solve_cache.hit"] == 1
