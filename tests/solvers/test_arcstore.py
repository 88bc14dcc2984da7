"""Unit tests for the flat arc store and its vectorized primitives."""

import numpy as np
import pytest

from repro.flow.network import FlowNetwork
from repro.graphs.digraph import WeightedDiGraph
from repro.solvers import (
    ArcStore,
    arc_store_for,
    bfs_levels,
)
from repro.solvers.arcstore import unique_int


@pytest.fixture
def diamond_graph():
    """s -> {a, b} -> t with capacities 3/2/2/3 (indices 0..3)."""
    graph = WeightedDiGraph(directed=True)
    graph.add_edge("s", "a", 3.0)
    graph.add_edge("s", "b", 2.0)
    graph.add_edge("a", "t", 2.0)
    graph.add_edge("b", "t", 3.0)
    return graph


class TestConstruction:
    def test_paired_arcs(self, diamond_graph):
        store = arc_store_for(diamond_graph)
        assert store.n == 4
        assert store.n_forward == 4
        # Every even arc is a forward arc; its twin reverses it.
        for arc in range(0, 2 * store.n_forward, 2):
            assert store.head[arc] == store.tail[arc ^ 1]
            assert store.tail[arc] == store.head[arc ^ 1]
            assert store.cap0[arc] > 0
            assert store.cap0[arc ^ 1] == 0.0

    def test_adjacency_groups_by_tail(self, diamond_graph):
        store = arc_store_for(diamond_graph)
        for node in range(store.n):
            incident = store.arcs[store.indptr[node] : store.indptr[node + 1]]
            assert (store.tail[incident] == node).all()
        # Every arc id appears exactly once.
        assert sorted(store.arcs.tolist()) == list(
            range(2 * store.n_forward)
        )

    def test_total_capacity_matches_graph(self, diamond_graph):
        store = arc_store_for(diamond_graph)
        assert store.cap0.sum() == pytest.approx(
            diamond_graph.total_weight()
        )

    def test_from_csr_drops_nonpositive(self):
        import scipy.sparse as sp

        matrix = sp.csr_matrix(
            np.array([[0.0, 2.0], [0.0, 0.0]])
        )
        store = ArcStore.from_csr(matrix)
        assert store.n_forward == 1

    def test_store_is_cached_per_csr_snapshot(self, diamond_graph):
        first = arc_store_for(diamond_graph)
        assert arc_store_for(diamond_graph) is first
        # A mutation invalidates the CSR cache and therefore the store.
        diamond_graph.add_edge("a", "b", 1.0)
        rebuilt = arc_store_for(diamond_graph)
        assert rebuilt is not first
        assert rebuilt.n_forward == first.n_forward + 1


class TestResidual:
    def test_residual_is_fresh_copy(self, diamond_graph):
        store = arc_store_for(diamond_graph)
        cap = store.residual()
        cap[0] -= 1.0
        assert store.cap0[0] == store.residual()[0] != cap[0]

    def test_extract_flow_empty(self, diamond_graph):
        store = arc_store_for(diamond_graph)
        tails, heads, flows = store.extract_flow_arrays(store.residual())
        assert tails.size == heads.size == flows.size == 0

    def test_extract_flow_after_push(self, diamond_graph):
        store = arc_store_for(diamond_graph)
        cap = store.residual()
        cap[0] -= 1.0
        cap[1] += 1.0
        tails, heads, flows = store.extract_flow_arrays(cap)
        assert flows.tolist() == [1.0]
        assert (tails[0], heads[0]) == (store.tail[0], store.head[0])


class TestTraversals:
    def test_bfs_levels(self, diamond_graph):
        store = arc_store_for(diamond_graph)
        level = bfs_levels(store, store.residual(), 0)
        s = diamond_graph.index_of("s")
        t = diamond_graph.index_of("t")
        assert level[s] == 0
        assert level[t] == 2

    def test_bfs_levels_respects_capacity(self, diamond_graph):
        store = arc_store_for(diamond_graph)
        cap = store.residual()
        cap[0::2] = 0.0  # saturate every forward arc
        level = bfs_levels(store, cap, 0)
        assert (level[1:] == -1).all()


class TestHelpers:
    @pytest.mark.parametrize("seed", range(3))
    def test_unique_int_matches_numpy(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 50, size=300).astype(np.int64)
        assert np.array_equal(unique_int(values), np.unique(values))

    def test_unique_int_empty_and_single(self):
        assert unique_int(np.empty(0, dtype=np.int64)).size == 0
        assert unique_int(np.array([7], dtype=np.int64)).tolist() == [7]


class TestFlowNetworkIntegration:
    def test_store_shared_across_solves(self, diamond_graph):
        """max_flow and min_cut on the same graph reuse one store."""
        from repro.flow.mincut import min_cut
        from repro.flow.network import max_flow

        network = FlowNetwork(diamond_graph, "s", "t")
        first = arc_store_for(network.graph)
        max_flow(network)
        min_cut(network)
        assert arc_store_for(network.graph) is first
