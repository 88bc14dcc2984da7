"""End-to-end instrumentation: the engines report what they did, and
reporting it changes nothing about what they compute."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rothko import q_color
from repro.dynamic import DynamicColoring, EdgeUpdate
from repro.flow.network import FlowNetwork, max_flow
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.generators import barabasi_albert, karate_club
from repro.obs import recording
from repro.pipeline import (
    ColoringCache,
    MaxFlowTask,
    progressive_sweep,
    run_task,
)
from repro.utils.timing import StageTimer
from tests.conftest import random_adjacency


def flow_network(seed: int = 3, n: int = 40) -> FlowNetwork:
    adjacency = random_adjacency(n, 0.2, seed)
    graph = WeightedDiGraph.from_scipy(adjacency, directed=True)
    return FlowNetwork(graph, 0, n - 1)


class TestRothkoInstrumentation:
    def test_split_count_matches_color_growth(self):
        graph = karate_club()
        with recording() as rec:
            result = q_color(graph, n_colors=8)
        counters = rec.snapshot()["counters"]
        # Karate starts from one color, so reaching k takes k - 1 splits.
        assert counters["rothko.splits"] == result.n_colors - 1
        assert counters["kernels.bincount_cells"] > 0
        assert rec.snapshot()["gauges"]["rothko.max_q_err"] == (
            pytest.approx(result.max_q_err)
        )

    def test_run_span_wraps_split_spans(self):
        with recording() as rec:
            q_color(karate_club(), n_colors=6)
        runs = [r for r in rec.spans if r.name == "rothko.run"]
        splits = [r for r in rec.spans if r.name == "rothko.split"]
        assert len(runs) == 1
        assert len(splits) == 5
        assert all(s.parent_id == runs[0].span_id for s in splits)
        assert runs[0].attrs["n_colors"] == 6
        for split in splits:
            assert "witness" in split.attrs
            assert split.attrs["q_err_before"] >= 0.0

    def test_split_timers_cover_split_spans(self):
        """The sub-split counters explain a split's time: the threshold
        and refresh timers, which run inside the ``rothko.split`` spans,
        cover >= 95% of them on their own.  The witness scan runs just
        before each span opens, so its timer adds on top."""
        graph = barabasi_albert(400, 3, seed=1)
        with recording() as rec:
            q_color(graph, n_colors=40)
        counters = rec.snapshot()["counters"]
        inside = counters["rothko.threshold_s"] + counters["rothko.refresh_s"]
        spans = sum(
            r.wall_seconds for r in rec.spans if r.name == "rothko.split"
        )
        assert spans > 0
        assert counters["rothko.witness_s"] > 0
        assert spans >= inside >= 0.95 * spans


    def test_patch_counters_follow_the_arcs(self):
        """A split that patches its columns rewrites two cells, ``(g, c)``
        and ``(g, t)``, for every (direction, color) pair adjacent to the
        split color outside its own two rows: ``rothko.cells_patched``
        is twice that count, taken here from the CSR/CSC on their own.
        ``rothko.rows_rescanned`` counts the two rewritten rows in both
        directions plus the patched rows whose maximum dropped."""
        from repro.core.partition import Coloring
        from repro.core.rothko import Rothko

        n = 300
        adjacency = random_adjacency(n, 0.01, 7)
        csr, csc = adjacency.tocsr(), adjacency.tocsc()
        # eight initial colors: every split's arcs stay below n, so
        # every split patches instead of rewriting whole columns
        engine = Rothko(adjacency, initial=Coloring(np.arange(n) % 8))
        splits = 0
        with recording() as rec:
            before = dict(rec.snapshot()["counters"])
            for step in engine.steps(max_colors=40):
                after = rec.snapshot()["counters"]
                c, t = step.parent_color, step.new_color
                members = np.concatenate(
                    [engine.members(c), engine.members(t)]
                )
                assert csr[members].nnz + csc[:, members].nnz < n
                into = engine.labels[csc[:, members].indices]
                out_of = engine.labels[csr[members].indices]
                pairs = sum(
                    len(set(colors.tolist()) - {c, t})
                    for colors in (into, out_of)
                )
                patched = after["rothko.cells_patched"] - before.get(
                    "rothko.cells_patched", 0
                )
                rescanned = after["rothko.rows_rescanned"] - before.get(
                    "rothko.rows_rescanned", 0
                )
                assert patched == 2 * pairs
                assert 4 <= rescanned <= 4 + pairs
                before = dict(after)
                splits += 1
        assert splits == 32


class TestSolverInstrumentation:
    def test_arcstore_engines_report_work(self):
        network = flow_network()
        for algorithm, counter in (
            ("dinic", "solvers.dinic.phases"),
            ("push_relabel", "solvers.pr.relabels"),
        ):
            with recording() as rec:
                max_flow(network, algorithm=algorithm)
            assert rec.snapshot()["counters"][counter] > 0, algorithm


class TestPipelineInstrumentation:
    def test_three_checkpoint_sweep_is_one_miss_two_hits(self):
        """The cache regression guard: a progressive sweep over one
        cache colors once (one miss) and serves later budgets from the
        same run (one hit per extra checkpoint)."""
        network = flow_network()
        cache = ColoringCache()
        with recording() as rec:
            progressive_sweep(MaxFlowTask(network), (4, 8, 12), cache=cache)
        counters = rec.snapshot()["counters"]
        assert counters["pipeline.cache.miss"] == 1
        assert counters["pipeline.cache.hit"] >= 2
        assert cache.misses == 1
        assert cache.hits >= 2

    def test_task_spans_cover_stages(self):
        network = flow_network()
        with recording() as rec:
            run_task(MaxFlowTask(network), n_colors=6)
        names = [r.name for r in rec.spans]
        task_span = next(r for r in rec.spans if r.name == "pipeline.task")
        for stage in ("coloring", "reduce", "solve", "lift"):
            assert f"pipeline.{stage}" in names
        assert task_span.attrs["task"] == "maxflow"
        assert task_span.attrs["checkpoint"] == 6
        histograms = rec.snapshot()["histograms"]
        assert histograms["pipeline.checkpoint_s"]["count"] == 1

    def test_stage_timer_opens_pipeline_span(self):
        timer = StageTimer()
        with recording() as rec:
            with timer.stage("solve"):
                pass
        (record,) = rec.spans
        assert record.name == "pipeline.solve"
        assert timer.freeze().solve >= 0.0


class TestDynamicInstrumentation:
    def test_update_outcomes_match_stats(self):
        graph = barabasi_albert(120, 3, seed=5)
        dynamic = DynamicColoring(graph, q_tolerance=1.0)
        generator = np.random.default_rng(9)
        updates = [
            EdgeUpdate.insert(
                int(generator.integers(0, 120)),
                int(generator.integers(0, 120)),
                float(generator.integers(1, 5)),
            )
            for _ in range(60)
        ]
        with recording() as rec:
            dynamic.apply_batch(updates)
        dynamic.detach()
        counters = rec.snapshot()["counters"]
        stats = dynamic.stats
        assert counters.get("dynamic.updates.split", 0) == stats.splits
        assert counters.get("dynamic.updates.merge", 0) == stats.merges
        assert counters.get("dynamic.updates.rebuild", 0) == stats.rebuilds
        # The batch must have done *something* for this test to bite.
        assert stats.splits + stats.merges + stats.rebuilds > 0

    def test_merge_counters_follow_the_cost_model(self, karate):
        """Every merge test costs O(k); only those passing the block-bound
        screen add the O(n) gather, and the counters say how many."""
        dynamic = DynamicColoring(karate, q_tolerance=2.0)
        generator = np.random.default_rng(4)
        edges = sorted((u, v) for u, v, _ in karate.edges())
        picks = generator.choice(len(edges), size=30, replace=False)
        with recording() as rec:
            for pick in picks:
                dynamic.apply(EdgeUpdate.delete(*edges[int(pick)]))
        dynamic.detach()
        counters = rec.snapshot()["counters"]
        stats = dynamic.stats
        assert counters.get("dynamic.merge_tests", 0) == stats.merge_tests
        assert counters.get("dynamic.merge_gathers", 0) == stats.merge_gathers
        assert 0 < stats.merge_gathers <= stats.merge_tests
        row = stats.as_row()
        assert (row["merge_tests"], row["merge_gathers"]) == (
            stats.merge_tests, stats.merge_gathers
        )

    def test_bounds_are_built_once_per_seed_or_rebuild(self, karate):
        """The O(nk) block-bound build runs once for the seed coloring
        and once after each rebuild; every other refresh patches."""
        dynamic = DynamicColoring(karate, q_tolerance=2.0)
        generator = np.random.default_rng(4)
        edges = sorted((u, v) for u, v, _ in karate.edges())
        picks = generator.choice(len(edges), size=30, replace=False)
        with recording() as rec:
            for pick in picks:
                dynamic.apply(EdgeUpdate.delete(*edges[int(pick)]))
        dynamic.detach()
        counters = rec.snapshot()["counters"]
        stats = dynamic.stats
        assert stats.rebuilds > 0 and stats.merges > 0
        assert counters["dynamic.bounds_builds"] == stats.rebuilds + 1
        assert counters["dynamic.bounds_patched"] > 0


class TestTracingChangesNothing:
    """NullRecorder vs Recorder: bit-identical outputs either way."""

    def test_coloring_identical_off_vs_on(self):
        graph = barabasi_albert(300, 3, seed=2)
        off = q_color(graph, n_colors=24)
        with recording():
            on = q_color(graph, n_colors=24)
        assert np.array_equal(
            off.coloring.labels, on.coloring.labels
        )
        assert off.max_q_err == on.max_q_err

    def test_solver_outputs_identical_off_vs_on(self):
        network = flow_network(seed=7)
        for algorithm in ("dinic", "push_relabel"):
            off = max_flow(network, algorithm=algorithm)
            with recording():
                on = max_flow(network, algorithm=algorithm)
            assert off == on, algorithm

    def test_pipeline_result_identical_off_vs_on(self):
        network = flow_network(seed=11)
        off = run_task(MaxFlowTask(network), n_colors=8)
        with recording():
            on = run_task(MaxFlowTask(network), n_colors=8)
        assert off.value == on.value
        assert off.max_q_err == on.max_q_err
        assert off.coloring == on.coloring
