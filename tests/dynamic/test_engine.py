"""Tests for DynamicColoring: incremental maintenance under updates."""

import numpy as np
import pytest

from repro.core.partition import Coloring
from repro.core.qerror import max_q_err
from repro.core.rothko import q_color
from repro.dynamic import DynamicColoring, EdgeUpdate
from repro.exceptions import ColoringError
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.generators import karate_club, lifted_biregular
from tests.conftest import random_adjacency

TOL_SLACK = 1e-9


def _random_updates(graph, n_updates, seed, weights=(1.0, 2.0, 3.0)):
    """Mixed insert/delete/reweight stream valid for sequential replay."""
    rng = np.random.default_rng(seed)
    labels = graph.labels()
    edges = {(u, v): w for u, v, w in graph.edges()}
    n = len(labels)
    updates = []
    while len(updates) < n_updates:
        roll = rng.random()
        if roll < 0.4 and edges:
            keys = sorted(edges)
            u, v = keys[int(rng.integers(0, len(keys)))]
            if roll < 0.2:
                del edges[(u, v)]
                updates.append(EdgeUpdate.delete(u, v))
            else:
                w = float(weights[int(rng.integers(0, len(weights)))])
                edges[(u, v)] = w
                updates.append(EdgeUpdate.reweight(u, v, w))
            continue
        u, v = (labels[int(x)] for x in rng.integers(0, n, size=2))
        if u == v or (u, v) in edges:
            continue
        w = float(weights[int(rng.integers(0, len(weights)))])
        edges[(u, v)] = w
        updates.append(EdgeUpdate.insert(u, v, w))
    return updates


class TestSeeding:
    def test_seed_matches_rothko(self, karate):
        dynamic = DynamicColoring(karate, q_tolerance=3.0, attach=False)
        assert dynamic.max_q_err() <= 3.0 + TOL_SLACK
        assert max_q_err(karate.to_csr(), dynamic.snapshot()) <= 3.0 + TOL_SLACK

    def test_accepts_adjacency_matrix(self):
        adjacency = random_adjacency(20, 0.3, 0)
        dynamic = DynamicColoring(adjacency, q_tolerance=2.0)
        assert dynamic.n == 20
        dynamic.verify_consistency()

    def test_explicit_coloring_respected(self, karate):
        seeded = q_color(karate, q=3.0)
        dynamic = DynamicColoring(
            karate, q_tolerance=3.0, coloring=seeded.coloring, attach=False
        )
        assert dynamic.snapshot() == seeded.coloring

    def test_bad_params(self, karate):
        with pytest.raises(ValueError):
            DynamicColoring(karate, q_tolerance=-1.0)
        with pytest.raises(ValueError):
            DynamicColoring(karate, q_tolerance=1.0, drift_budget=0.0)
        with pytest.raises(ColoringError):
            DynamicColoring(karate, q_tolerance=1.0, frozen=(0,))
        # NaN fails every tolerance comparison, so it would silently turn
        # repair off; an infinite budget would never trigger a rebuild.
        with pytest.raises(ValueError, match="q_tolerance .* got nan"):
            DynamicColoring(karate, q_tolerance=float("nan"))
        for budget in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"drift_budget .* got {budget}"):
                DynamicColoring(karate, q_tolerance=1.0, drift_budget=budget)
        with pytest.raises(ValueError, match="merge_attempts .* got -1"):
            DynamicColoring(karate, q_tolerance=1.0, merge_attempts=-1)


class TestInvariantUnderChurn:
    @pytest.mark.parametrize("seed", range(4))
    def test_directed_random_churn(self, seed):
        adjacency = random_adjacency(25, 0.2, seed)
        dynamic = DynamicColoring(adjacency, q_tolerance=2.0)
        graph = dynamic.graph
        for update in _random_updates(graph, 30, seed=seed + 100):
            dynamic.apply(update)
            assert dynamic.max_q_err() <= 2.0 + TOL_SLACK
        dynamic.verify_consistency()
        # The maintained error equals the ground-truth recomputation.
        snapshot = dynamic.snapshot()
        assert max_q_err(graph.to_csr(), snapshot) <= 2.0 + TOL_SLACK

    def test_undirected_graph(self, karate):
        dynamic = DynamicColoring(karate, q_tolerance=2.0)
        for update in _random_updates(karate, 25, seed=5, weights=(1.0,)):
            dynamic.apply(update)
        dynamic.verify_consistency()
        assert max_q_err(karate.to_csr(), dynamic.snapshot()) <= 2.0 + TOL_SLACK

    def test_batch_equals_sequential_invariant(self, karate):
        updates = _random_updates(karate, 20, seed=9, weights=(1.0,))
        dynamic = DynamicColoring(karate, q_tolerance=2.0)
        dynamic.apply_batch(updates)
        dynamic.verify_consistency()
        assert dynamic.max_q_err() <= 2.0 + TOL_SLACK
        assert dynamic.stats.updates == 20


class TestLocalRepairEconomy:
    def test_single_update_is_local(self):
        """One edge insertion repairs without a rebuild and touches only
        a bounded number of color pairs."""
        graph, _ = lifted_biregular(
            n_groups=20, group_size=5, template_edges=60, lift_degree=2, seed=3
        )
        dynamic = DynamicColoring(graph, q_tolerance=4.0)
        labels = graph.labels()
        dynamic.apply(EdgeUpdate.insert(labels[0], labels[50], 1.0))
        assert dynamic.stats.rebuilds == 0
        assert dynamic.max_q_err() <= 4.0 + TOL_SLACK

    def test_noop_reweight_costs_nothing(self, karate):
        dynamic = DynamicColoring(karate, q_tolerance=3.0)
        before = dynamic.stats.pairs_checked
        u, v, w = next(iter(karate.edges()))
        dynamic.apply(EdgeUpdate.reweight(u, v, w))  # same weight
        assert dynamic.stats.pairs_checked == before
        assert dynamic.stats.splits == 0


class TestCoarsening:
    def test_delete_merges_back(self, karate):
        """Inserting then deleting an edge lets the merge pass coarsen the
        coloring back to (at most) its original size."""
        dynamic = DynamicColoring(karate, q_tolerance=3.0)
        base_colors = dynamic.snapshot().n_colors
        labels = karate.labels()
        u, v = labels[0], labels[20]
        assert not karate.has_edge(u, v)
        dynamic.apply(EdgeUpdate.insert(u, v, 5.0))
        dynamic.apply(EdgeUpdate.delete(u, v))
        assert dynamic.snapshot().n_colors <= base_colors
        assert dynamic.max_q_err() <= 3.0 + TOL_SLACK
        dynamic.verify_consistency()

    def test_merges_counted(self, karate):
        dynamic = DynamicColoring(karate, q_tolerance=3.0)
        labels = karate.labels()
        dynamic.apply(EdgeUpdate.insert(labels[0], labels[20], 5.0))
        splits = dynamic.stats.splits
        dynamic.apply(EdgeUpdate.delete(labels[0], labels[20]))
        if dynamic.stats.merges:
            assert dynamic.stats.merges <= splits + 1


class TestDriftBudget:
    def test_churn_budget_triggers_rebuild(self, karate):
        dynamic = DynamicColoring(karate, q_tolerance=3.0, drift_budget=0.05)
        updates = _random_updates(karate, 40, seed=2, weights=(1.0,))
        dynamic.apply_batch(updates)
        assert dynamic.stats.rebuilds >= 1
        assert dynamic.max_q_err() <= 3.0 + TOL_SLACK
        dynamic.verify_consistency()

    def test_rebuild_resets_baseline(self, karate):
        dynamic = DynamicColoring(karate, q_tolerance=3.0, drift_budget=0.05)
        dynamic.apply_batch(_random_updates(karate, 40, seed=2, weights=(1.0,)))
        assert dynamic._churn == 0 or dynamic.stats.rebuilds == 0


class TestMutationHooks:
    def test_direct_mutation_tracked(self, karate):
        dynamic = DynamicColoring(karate, q_tolerance=3.0)
        labels = karate.labels()
        found = False
        for i in range(karate.n_nodes):
            for j in range(i + 1, karate.n_nodes):
                if not karate.has_edge(labels[i], labels[j]):
                    karate.add_edge(labels[i], labels[j], 2.0)
                    found = True
                    break
            if found:
                break
        assert found
        # snapshot() repairs the deferred mutation.
        snapshot = dynamic.snapshot()
        assert max_q_err(karate.to_csr(), snapshot) <= 3.0 + TOL_SLACK
        dynamic.verify_consistency()

    def test_new_node_via_edge(self, karate):
        dynamic = DynamicColoring(karate, q_tolerance=3.0)
        n_before = dynamic.n
        karate.add_edge("newcomer", karate.labels()[0], 1.0)
        dynamic.repair()
        assert dynamic.n == n_before + 1
        assert dynamic.stats.nodes_added == 1
        dynamic.verify_consistency()
        assert dynamic.max_q_err() <= 3.0 + TOL_SLACK

    def test_empty_graph_grows_consistently(self):
        """An engine seeded on no nodes holds no colors, and its first
        nodes arrive as proper singleton colors."""
        dynamic = DynamicColoring(WeightedDiGraph(directed=True), q_tolerance=0.0)
        assert dynamic.k == 0 and dynamic._members == []
        dynamic.verify_consistency()
        dynamic.apply(EdgeUpdate.insert(0, 1, 2.0))
        assert dynamic.n == 2
        assert len(dynamic._members) == dynamic.k == 2
        dynamic.verify_consistency()
        assert dynamic.max_q_err() == 0.0
        assert max_q_err(dynamic.graph.to_csr(), dynamic.snapshot()) == 0.0

    def test_detach_stops_tracking(self, karate):
        dynamic = DynamicColoring(karate, q_tolerance=3.0)
        dynamic.detach()
        labels = karate.labels()
        karate.add_edge(labels[0], labels[20], 7.0)
        # The engine no longer sees graph mutations...
        assert dynamic.stats.arcs_changed == 0
        # ...but apply() still works on a detached engine.
        dynamic.apply(EdgeUpdate.delete(labels[0], labels[20]))
        dynamic.verify_consistency()

    def test_context_manager_detaches(self, karate):
        with DynamicColoring(karate, q_tolerance=3.0) as dynamic:
            assert dynamic._attached
        assert not dynamic._attached

    def test_copy_does_not_carry_listeners(self, karate):
        dynamic = DynamicColoring(karate, q_tolerance=3.0)
        clone = karate.copy()
        labels = clone.labels()
        clone.add_edge(labels[0], labels[20], 3.0)
        assert dynamic.stats.arcs_changed == 0
        dynamic.detach()


class TestFrozenColors:
    def test_pinned_out_witness_still_repairs_in_direction(self):
        """A violated pair whose out-direction witness is frozen must
        still get its (unpinned) in-direction color split.

        The frozen class keeps a best-effort residual — its members'
        out-totals genuinely diverge and only a frozen split could fix
        that — but every repair that does not require splitting a frozen
        color must still happen."""
        graph = WeightedDiGraph(directed=True)
        for node in range(4):  # pin internal indices to labels
            graph.add_node(node)
        graph.add_edge(0, 2, 1.0)
        graph.add_edge(1, 3, 1.0)
        initial = Coloring([0, 0, 1, 1])
        dynamic = DynamicColoring(
            graph, q_tolerance=1.0, coloring=initial, frozen=(0,)
        )
        assert dynamic.k == 2  # seed is within tolerance
        dynamic.apply(EdgeUpdate.reweight(0, 2, 11.0))
        # Frozen {0,1} cannot split, but the in-direction witness over
        # {2, 3} (incoming 11 vs 1 from the frozen class) can and must.
        assert dynamic.stats.splits == 1
        assert dynamic.stats.rebuilds == 0
        snapshot = dynamic.snapshot()
        assert snapshot.labels[0] == snapshot.labels[1]  # frozen intact
        assert snapshot.labels[2] != snapshot.labels[3]  # repaired
        # Every residual violation involves splitting the frozen color;
        # all in-direction spreads are repaired.
        for i in range(dynamic.k):
            for j in range(dynamic.k):
                in_values = dynamic._d_in[dynamic._members[j], i]
                assert in_values.max() - in_values.min() <= 1.0 + TOL_SLACK
                if dynamic._color_pin[i] < 0:
                    out_values = dynamic._d_out[dynamic._members[i], j]
                    assert (
                        out_values.max() - out_values.min() <= 1.0 + TOL_SLACK
                    )

    def test_frozen_class_survives_churn(self):
        adjacency = random_adjacency(20, 0.3, 4)
        initial = Coloring([0] * 2 + [1] * 18)
        dynamic = DynamicColoring(
            adjacency,
            q_tolerance=2.0,
            coloring=initial,
            frozen=(0,),
        )
        graph = dynamic.graph
        for update in _random_updates(graph, 25, seed=6):
            dynamic.apply(update)
        snapshot = dynamic.snapshot()
        # Nodes 0 and 1 still share one color, untouched by churn.
        assert snapshot.labels[0] == snapshot.labels[1]
        dynamic.verify_consistency()


class TestRelativeMode:
    def test_relative_invariant(self, karate):
        dynamic = DynamicColoring(karate, q_tolerance=0.7, error_mode="relative")
        for update in _random_updates(karate, 15, seed=8, weights=(1.0, 2.0)):
            dynamic.apply(update)
        assert dynamic.max_q_err() <= 0.7 + TOL_SLACK
        dynamic.verify_consistency()


class TestStats:
    def test_stats_row_keys(self, karate):
        dynamic = DynamicColoring(karate, q_tolerance=3.0)
        row = dynamic.stats.as_row()
        assert {"updates", "splits", "merges", "rebuilds"} <= set(row)

    def test_repr(self, karate):
        dynamic = DynamicColoring(karate, q_tolerance=3.0)
        assert "DynamicColoring" in repr(dynamic)
