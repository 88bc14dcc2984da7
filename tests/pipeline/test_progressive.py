"""The progressive multi-k runner: equivalence, W invariant, caching.

The acceptance contract of the pipeline subsystem:

* a progressive sweep over a schedule of color budgets produces results
  *identical* to re-coloring from scratch at every budget, while
  constructing exactly one Rothko engine;
* the runner's block-weight matrix ``W = S^T A S`` equals a
  from-scratch ``block_weights`` after every checkpoint (checked
  against Eq. 1 itself in ``test_block_weights.py``);
* one coloring run is shared across tasks, weight modes, and
  checkpoints through the keyed cache.
"""

import numpy as np
import pytest

from repro.core.partition import Coloring
from repro.core.reduced import block_weights
from repro.centrality.approx import approx_betweenness
from repro.flow.approx import approx_max_flow
from repro.flow.network import FlowNetwork
from repro.graphs.digraph import WeightedDiGraph
from repro.lp.generators import planted_block_lp
from repro.lp.reduction import approx_lp_opt
from repro.pipeline import (
    CentralityTask,
    ColoringCache,
    ColoringSpec,
    LPTask,
    MaxFlowTask,
    progressive_sweep,
    run_certified,
    run_task,
)
from tests.conftest import random_adjacency

SCHEDULE = (4, 5, 6, 8, 10, 12, 14, 16)  # >= 8 checkpoints (Fig. 7 style)


def flow_network(seed: int = 3, n: int = 40) -> FlowNetwork:
    adjacency = random_adjacency(n, 0.2, seed)
    graph = WeightedDiGraph.from_scipy(adjacency, directed=True)
    return FlowNetwork(graph, 0, n - 1)


class TestProgressiveEqualsPerColor:
    def test_maxflow_sweep_matches_percolor_loop(self):
        network = flow_network()
        cache = ColoringCache()
        results = progressive_sweep(
            MaxFlowTask(network), SCHEDULE, cache=cache
        )
        assert len(cache) == 1  # at most one full Rothko run
        for budget, result in zip(SCHEDULE, results):
            fresh = approx_max_flow(network, n_colors=budget)
            assert result.coloring == fresh.coloring
            assert result.value == pytest.approx(fresh.value, rel=1e-9)

    def test_lp_sweep_matches_percolor_loop(self):
        lp = planted_block_lp(
            40, 30, row_groups=5, col_groups=4, noise=0.2, seed=7
        )
        cache = ColoringCache()
        schedule = (6, 8, 10, 12, 14, 16, 20, 24)
        results = progressive_sweep(LPTask(lp), schedule, cache=cache)
        assert len(cache) == 1
        for budget, result in zip(schedule, results):
            fresh = approx_lp_opt(lp, n_colors=budget)
            assert result.value == pytest.approx(fresh.value, rel=1e-7)
            assert result.max_q_err == pytest.approx(
                fresh.reduction.max_q_err, rel=1e-9, abs=1e-12
            )

    def test_centrality_sweep_matches_percolor_loop(self):
        adjacency = random_adjacency(40, 0.15, 11)
        graph = WeightedDiGraph.from_scipy(adjacency, directed=True)
        cache = ColoringCache()
        results = progressive_sweep(
            CentralityTask(graph, seed=0), SCHEDULE, cache=cache
        )
        assert len(cache) == 1
        for budget, result in zip(SCHEDULE, results):
            fresh = approx_betweenness(graph, n_colors=budget, seed=0)
            assert result.coloring == fresh.coloring
            np.testing.assert_allclose(result.lifted, fresh.scores)

    def test_q_target_on_advanced_run_matches_fresh(self):
        """A q-target served from a run already refined further must
        stop exactly where a fresh q-target run stops."""
        network = flow_network(seed=5)
        cache = ColoringCache()
        progressive_sweep(MaxFlowTask(network), SCHEDULE, cache=cache)
        served = run_task(MaxFlowTask(network), q=4.0, cache=cache)
        fresh = approx_max_flow(network, q=4.0)
        assert len(cache) == 1
        assert served.coloring == fresh.coloring
        assert served.value == pytest.approx(fresh.value, rel=1e-9)

    def test_descending_schedule_served_from_history(self):
        network = flow_network(seed=6)
        cache = ColoringCache()
        ascending = progressive_sweep(
            MaxFlowTask(network), SCHEDULE, cache=cache
        )
        descending = progressive_sweep(
            MaxFlowTask(network), tuple(reversed(SCHEDULE)), cache=cache
        )
        assert len(cache) == 1
        for up, down in zip(ascending, reversed(descending)):
            assert up.coloring == down.coloring
            assert up.value == pytest.approx(down.value, rel=1e-9)


class TestBlockWeightInvariant:
    """The runner's W == block_weights from scratch after every checkpoint."""

    @pytest.mark.parametrize("seed", range(3))
    def test_flow_sweep_weights(self, seed):
        network = flow_network(seed=seed)
        cache = ColoringCache()
        task = MaxFlowTask(network)
        results = progressive_sweep(task, SCHEDULE, cache=cache)
        run = cache.run_for(task.coloring_spec())
        adjacency = network.graph.to_csr()
        for result in results:
            maintained = run.weights(result.n_colors)
            scratch = block_weights(adjacency, result.coloring).toarray()
            np.testing.assert_allclose(
                maintained, scratch, rtol=1e-9, atol=1e-12
            )

    def test_lp_bipartite_sweep_weights(self):
        lp = planted_block_lp(
            30, 24, row_groups=4, col_groups=3, noise=0.3, seed=9
        )
        cache = ColoringCache()
        task = LPTask(lp)
        results = progressive_sweep(
            task, (6, 8, 10, 12, 14, 16), cache=cache
        )
        run = cache.run_for(task.coloring_spec())
        adjacency = lp.bipartite_adjacency()
        for result in results:
            # The LP task colors the bipartite extended matrix; the
            # runner's W must match the scratch product on that graph.
            coloring = Coloring(
                np.concatenate(
                    [
                        result.reduced.row_coloring.labels,
                        result.reduced.col_coloring.labels
                        + result.reduced.row_coloring.n_colors,
                    ]
                )
            )
            maintained = run.weights(coloring.n_colors)
            scratch = block_weights(adjacency, coloring).toarray()
            np.testing.assert_allclose(
                maintained, scratch, rtol=1e-9, atol=1e-12
            )

class TestColoringCache:
    def test_shared_across_weight_modes(self):
        lp = planted_block_lp(
            24, 18, row_groups=3, col_groups=3, noise=0.2, seed=3
        )
        cache = ColoringCache()
        sqrt_result = run_task(LPTask(lp, mode="sqrt"), n_colors=10,
                               cache=cache)
        grohe_result = run_task(LPTask(lp, mode="grohe"), n_colors=10,
                                cache=cache)
        assert len(cache) == 1
        assert cache.hits == 1 and cache.misses == 1
        assert sqrt_result.coloring == grohe_result.coloring

    def test_distinct_specs_do_not_collide(self):
        cache = ColoringCache()
        a = random_adjacency(15, 0.3, 1)
        b = random_adjacency(15, 0.3, 2)
        run_a = cache.run_for(ColoringSpec(a))
        run_b = cache.run_for(ColoringSpec(b))
        assert run_a is not run_b
        assert len(cache) == 2
        # Equal content maps back to the same run.
        assert cache.run_for(ColoringSpec(a.copy())) is run_a


class TestTimings:
    def test_stage_timings_recorded(self):
        network = flow_network(seed=4, n=20)
        result = run_task(MaxFlowTask(network), n_colors=8)
        timings = result.timings
        assert timings.coloring > 0
        assert timings.reduce > 0
        assert timings.solve > 0
        assert timings.total == pytest.approx(
            timings.coloring + timings.reduce + timings.solve + timings.lift
        )

    def test_cache_hit_colors_for_free(self):
        network = flow_network(seed=4, n=20)
        cache = ColoringCache()
        first = run_task(MaxFlowTask(network), n_colors=8, cache=cache)
        second = run_task(MaxFlowTask(network), n_colors=8, cache=cache)
        assert second.timings.coloring <= first.timings.coloring
        assert second.coloring == first.coloring


class TestStoppingRules:
    """A color budget below 1 or a NaN or negative q target fails with
    the value named, on every pipeline front; ``q = inf`` is legal."""

    @pytest.mark.parametrize(
        "knobs, named",
        [({"n_colors": -3}, "got -3"), ({"n_colors": 0}, "got 0"),
         ({"q": float("nan")}, "got nan"), ({"q": -1.0}, "got -1.0"),
         ({"n_colors": 4, "q": float("nan")}, "got nan")],
    )
    def test_run_task_rejects(self, knobs, named):
        with pytest.raises(ValueError, match=named):
            run_task(MaxFlowTask(flow_network(n=12)), **knobs)

    def test_sweep_rejects_a_bad_budget(self):
        with pytest.raises(ValueError, match="n_colors must be positive"):
            progressive_sweep(MaxFlowTask(flow_network(n=12)), (4, 0))

    @pytest.mark.parametrize(
        "knobs, named",
        [({"eps": float("nan")}, "eps must be non-negative, got nan"),
         ({"eps": -1.0}, "eps must be non-negative, got -1.0"),
         ({"eps": 0.1, "max_colors": 0}, "max_colors must be >= 1, got 0")],
    )
    def test_certified_rejects(self, knobs, named):
        with pytest.raises(ValueError, match=named):
            run_certified(MaxFlowTask(flow_network(n=12)), **knobs)

    def test_infinite_q_stops_at_the_initial_partition(self):
        network = flow_network(n=12)
        result = run_task(MaxFlowTask(network), q=float("inf"))
        # s and t are pinned singletons; everything else is one color.
        assert result.n_colors == 3
