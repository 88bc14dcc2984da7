"""Tests for repro.graphs.digraph."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.graphs.digraph import WeightedDiGraph


class TestConstruction:
    def test_add_node_default_labels(self):
        graph = WeightedDiGraph()
        assert graph.add_node() == 0
        assert graph.add_node() == 1
        assert graph.labels() == [0, 1]

    def test_add_node_idempotent(self):
        graph = WeightedDiGraph()
        assert graph.add_node("a") == graph.add_node("a") == 0

    def test_add_edge_creates_nodes(self):
        graph = WeightedDiGraph()
        graph.add_edge("x", "y", 2.5)
        assert graph.has_node("x") and graph.has_node("y")
        assert graph.weight("x", "y") == 2.5

    def test_zero_weight_means_no_edge(self):
        graph = WeightedDiGraph()
        graph.add_edge(0, 1, 3.0)
        graph.add_edge(0, 1, 0.0)
        assert not graph.has_edge(0, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        graph = WeightedDiGraph()
        graph.add_edge(0, 1, 1.0)
        with pytest.raises(GraphError, match="non-finite weight .* 0 -> 2"):
            graph.add_edge(0, 2, bad)
        with pytest.raises(GraphError, match="non-finite weight"):
            graph.add_edge(0, 1, bad)
        # nothing changed: no node added, the old weight kept
        assert graph.n_nodes == 2
        assert graph.weight(0, 1) == 1.0

    def test_overwrite_weight(self):
        graph = WeightedDiGraph()
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(0, 1, 9.0)
        assert graph.weight(0, 1) == 9.0
        assert graph.n_edges == 1


class TestDirectedness:
    def test_directed_one_way(self):
        graph = WeightedDiGraph(directed=True)
        graph.add_edge(0, 1)
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)

    def test_undirected_both_ways(self):
        graph = WeightedDiGraph(directed=False)
        graph.add_edge(0, 1, 2.0)
        assert graph.weight(1, 0) == 2.0
        assert graph.n_edges == 1
        assert graph.n_arcs == 2

    def test_undirected_edges_iter_once(self):
        graph = WeightedDiGraph(directed=False)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        assert len(list(graph.edges())) == 2

    def test_self_loop(self):
        graph = WeightedDiGraph(directed=False)
        graph.add_edge(0, 0, 5.0)
        assert graph.n_edges == 1
        assert graph.weight(0, 0) == 5.0


class TestRemoval:
    def test_remove_edge(self):
        graph = WeightedDiGraph()
        graph.add_edge(0, 1)
        graph.remove_edge(0, 1)
        assert not graph.has_edge(0, 1)

    def test_remove_missing_raises(self):
        graph = WeightedDiGraph()
        graph.add_node(0)
        graph.add_node(1)
        with pytest.raises(GraphError):
            graph.remove_edge(0, 1)

    def test_remove_missing_ok(self):
        graph = WeightedDiGraph()
        graph.remove_edge("a", "b", missing_ok=True)

    def test_remove_undirected_removes_both(self):
        graph = WeightedDiGraph(directed=False)
        graph.add_edge(0, 1)
        graph.remove_edge(1, 0)
        assert graph.n_arcs == 0


class TestQueries:
    def test_degrees(self, small_directed):
        assert small_directed.out_degree(0) == 2
        assert small_directed.out_degree(0, weighted=True) == 3.0
        assert small_directed.in_degree(3) == 2
        assert small_directed.in_degree(3, weighted=True) == 3.0

    def test_successors_predecessors(self, small_directed):
        assert set(small_directed.successors(0)) == {1, 2}
        assert set(small_directed.predecessors(5)) == {4, 2}

    def test_unknown_node_raises(self):
        graph = WeightedDiGraph()
        with pytest.raises(GraphError):
            graph.index_of("nope")

    def test_total_weight(self, small_directed):
        assert small_directed.total_weight() == pytest.approx(14.5)

    def test_contains_and_len(self, small_directed):
        assert 0 in small_directed
        assert "?" not in small_directed
        assert len(small_directed) == 6


class TestMatrixViews:
    def test_csr_matches_weights(self, small_directed):
        matrix = small_directed.to_csr()
        assert matrix[0, 1] == 2.0
        assert matrix[1, 0] == 0.0
        assert matrix.shape == (6, 6)

    def test_csr_cache_invalidation(self):
        graph = WeightedDiGraph()
        graph.add_edge(0, 1, 1.0)
        first = graph.to_csr()
        graph.add_edge(1, 0, 2.0)
        second = graph.to_csr()
        assert first.nnz == 1 and second.nnz == 2

    def test_undirected_symmetric(self):
        graph = WeightedDiGraph(directed=False)
        graph.add_edge(0, 1, 3.0)
        graph.add_edge(1, 2, 1.0)
        dense = graph.to_dense()
        assert np.allclose(dense, dense.T)


class TestConversions:
    def test_from_scipy_roundtrip(self):
        matrix = sp.csr_matrix(
            np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 1.0], [3.0, 0.0, 0.0]])
        )
        graph = WeightedDiGraph.from_scipy(matrix)
        assert np.allclose(graph.to_dense(), matrix.toarray())

    def test_from_scipy_nonsquare_raises(self):
        with pytest.raises(GraphError):
            WeightedDiGraph.from_scipy(sp.csr_matrix((2, 3)))

    def test_networkx_roundtrip(self, karate):
        back = WeightedDiGraph.from_networkx(karate.to_networkx())
        assert back.n_nodes == karate.n_nodes
        assert back.n_edges == karate.n_edges
        assert back.directed == karate.directed

    def test_from_edges_with_isolated(self):
        graph = WeightedDiGraph.from_edges([(0, 1)], n_nodes=4)
        assert graph.n_nodes == 4
        assert graph.out_degree(3) == 0

    def test_copy_independent(self, small_directed):
        clone = small_directed.copy()
        clone.add_edge(5, 0, 1.0)
        assert not small_directed.has_edge(5, 0)

    def test_reverse(self, small_directed):
        rev = small_directed.reverse()
        assert rev.has_edge(1, 0)
        assert not rev.has_edge(0, 1)
        assert rev.weight(3, 1) == 1.0

    def test_as_undirected_sums_antiparallel(self):
        graph = WeightedDiGraph(directed=True)
        graph.add_edge(0, 1, 2.0)
        graph.add_edge(1, 0, 3.0)
        und = graph.as_undirected()
        assert und.weight(0, 1) == 5.0
        assert und.weight(1, 0) == 5.0

    def test_as_undirected_of_undirected_is_copy(self):
        graph = WeightedDiGraph(directed=False)
        graph.add_edge(0, 1, 2.0)
        und = graph.as_undirected()
        assert und.weight(0, 1) == 2.0


class TestFromArrays:
    def test_directed_equals_from_edges(self):
        edges = [(0, 1), (1, 2), (2, 0), (0, 3)]
        src = np.array([u for u, _ in edges])
        dst = np.array([v for _, v in edges])
        bulk = WeightedDiGraph.from_arrays(src, dst, n_nodes=4)
        slow = WeightedDiGraph.from_edges(edges, n_nodes=4)
        assert np.allclose(bulk.to_csr().toarray(), slow.to_csr().toarray())
        assert bulk.n_nodes == 4 and bulk.n_edges == 4

    def test_undirected_symmetrizes(self):
        bulk = WeightedDiGraph.from_arrays(
            np.array([0, 1]), np.array([1, 2]),
            np.array([2.0, 3.0]), n_nodes=3, directed=False,
        )
        dense = bulk.to_csr().toarray()
        assert np.allclose(dense, dense.T)
        assert bulk.weight(1, 0) == 2.0
        assert bulk.n_edges == 2

    def test_self_loop_stored_once_undirected(self):
        bulk = WeightedDiGraph.from_arrays(
            np.array([0, 0]), np.array([0, 1]), n_nodes=2, directed=False
        )
        assert bulk.to_csr()[0, 0] == 1.0
        assert bulk.n_edges == 2  # loop + edge

    def test_duplicates_sum(self):
        bulk = WeightedDiGraph.from_arrays(
            np.array([0, 0]), np.array([1, 1]), np.array([1.5, 2.5]),
            n_nodes=2,
        )
        assert bulk.weight(0, 1) == 4.0

    def test_zero_weights_dropped(self):
        bulk = WeightedDiGraph.from_arrays(
            np.array([0, 1]), np.array([1, 2]), np.array([0.0, 2.0]),
            n_nodes=3,
        )
        assert not bulk.has_edge(0, 1)
        assert bulk.n_edges == 1

    def test_labels_assigned(self):
        bulk = WeightedDiGraph.from_arrays(
            np.array([0]), np.array([1]), n_nodes=2, labels=["a", "b"]
        )
        assert bulk.index_of("b") == 1
        assert bulk.label_of(0) == "a"
        assert bulk.has_edge("a", "b")

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            WeightedDiGraph.from_arrays(
                np.array([0]), np.array([5]), n_nodes=3
            )
        with pytest.raises(GraphError):
            WeightedDiGraph.from_arrays(np.array([-1]), np.array([0]),
                                        n_nodes=2)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(GraphError):
            WeightedDiGraph.from_arrays(np.array([0, 1]), np.array([1]))
        with pytest.raises(GraphError):
            WeightedDiGraph.from_arrays(
                np.array([0]), np.array([1]), np.array([1.0, 2.0])
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_names_the_arc(self, bad):
        with pytest.raises(GraphError, match="arc 1: 1 -> 2"):
            WeightedDiGraph.from_arrays(
                np.array([0, 1]), np.array([1, 2]), np.array([1.0, bad])
            )

    def test_inferred_node_count(self):
        bulk = WeightedDiGraph.from_arrays(np.array([0, 4]), np.array([2, 1]))
        assert bulk.n_nodes == 5

    def test_empty(self):
        bulk = WeightedDiGraph.from_arrays(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            n_nodes=3,
        )
        assert bulk.n_nodes == 3
        assert bulk.n_edges == 0


class TestFromArraysLaziness:
    """Array-built graphs defer dicts/labels until actually needed."""

    def _bulk(self):
        return WeightedDiGraph.from_arrays(
            np.array([0, 1, 2]), np.array([1, 2, 0]), n_nodes=3
        )

    def test_csr_path_stays_lazy(self):
        graph = self._bulk()
        graph.to_csr()
        graph.to_csc()
        assert graph.n_nodes == 3
        assert graph.n_arcs == 3
        assert graph.n_edges == 3
        assert graph.has_node(2) and not graph.has_node(7)
        assert 1 in graph and "x" not in graph
        assert graph.index_of(1) == 1
        assert graph.label_of(2) == 2
        assert graph.labels() == [0, 1, 2]
        # None of the above touched the dict-of-dicts or label table.
        assert graph._succ is None and graph._labels is None

    def test_mutation_materializes(self):
        graph = self._bulk()
        graph.add_edge(0, 2, 5.0)
        assert graph.weight(0, 2) == 5.0
        assert graph.weight(0, 1) == 1.0  # original arcs survived
        assert graph.n_arcs == 4

    def test_removal_materializes(self):
        graph = self._bulk()
        graph.remove_edge(1, 2)
        assert not graph.has_edge(1, 2)
        assert graph.n_arcs == 2

    def test_neighbor_queries_materialize(self):
        graph = self._bulk()
        assert list(graph.successors(0)) == [1]
        assert list(graph.predecessors(0)) == [2]
        assert graph.out_degree(0) == 1.0
        assert sorted(graph.edges()) == [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]

    def test_copy_preserves_laziness_and_independence(self):
        graph = self._bulk()
        clone = graph.copy()
        assert clone._succ is None
        clone.add_edge(0, 2, 9.0)
        assert not graph.has_edge(0, 2)
        assert clone.weight(0, 2) == 9.0

    def test_reverse_lazy(self):
        graph = self._bulk()
        rev = graph.reverse()
        assert rev.has_edge(1, 0)
        assert not rev.has_edge(0, 1)
        assert np.allclose(
            rev.to_csr().toarray(), graph.to_csr().toarray().T
        )

    def test_add_node_after_bulk(self):
        graph = self._bulk()
        index = graph.add_node("extra")
        assert index == 3
        assert graph.n_nodes == 4
        graph.add_edge("extra", 0, 2.0)
        assert graph.weight("extra", 0) == 2.0

    def test_coloring_consumes_lazy_graph(self):
        from repro.core.rothko import q_color

        graph = WeightedDiGraph.from_arrays(
            np.array([0, 0, 1, 2, 3]), np.array([1, 2, 3, 3, 0]),
            n_nodes=4,
        )
        result = q_color(graph, n_colors=3)
        assert result.n_colors <= 3
        assert graph._succ is None  # the engine only needed the CSR

    def test_reverse_owns_its_buffers(self):
        """The lazy reverse must not alias the source graph's cached
        CSR/CSC data (a shared transpose view would let writes leak)."""
        graph = self._bulk()
        rev = graph.reverse()
        rev.to_csr().data[0] = 99.0
        assert graph.to_csr().data.max() == 1.0
        assert graph.to_csc().data.max() == 1.0

    def test_zero_sum_duplicates_removed(self):
        """Duplicate weights that cancel to zero must vanish entirely
        (Sec. 3: zero means "no edge", matching add_edge semantics)."""
        graph = WeightedDiGraph.from_arrays(
            np.array([0, 0, 1]), np.array([1, 1, 2]),
            np.array([1.0, -1.0, 2.0]), n_nodes=3,
        )
        assert not graph.has_edge(0, 1)
        assert graph.weight(0, 1) == 0.0
        assert graph.n_edges == 1
        assert graph.to_csr().nnz == 1

    def test_single_edge_probes_stay_lazy(self):
        """weight()/has_edge() answer off the CSR without building the
        dict-of-dicts adjacency."""
        graph = self._bulk()
        assert graph.weight(0, 1) == 1.0
        assert graph.weight(1, 0) == 0.0
        assert graph.has_edge(2, 0)
        assert not graph.has_edge(0, 2)
        assert graph._succ is None

    def test_labeled_lazy_copy_and_reverse(self):
        """Label tables don't force the dict-of-dicts build on copy()
        or reverse(): the CSR snapshot is cloned instead."""
        graph = WeightedDiGraph.from_arrays(
            np.array([0, 1]), np.array([1, 2]), n_nodes=3,
            labels=["a", "b", "c"],
        )
        clone = graph.copy()
        assert clone._succ is None
        assert clone.label_of(2) == "c"
        clone.add_edge("a", "c", 4.0)
        assert not graph.has_edge("a", "c")
        rev = graph.reverse()
        assert rev._succ is None
        assert rev.has_edge("b", "a") and not rev.has_edge("a", "b")


class TestIndexCoercion:
    """from_arrays accepts any integer-representable dtype and names
    the offending arc when coercion to int64 is lossy."""

    def test_float_whole_numbers_coerce(self):
        graph = WeightedDiGraph.from_arrays(
            np.array([0.0, 1.0]), np.array([1.0, 2.0]), n_nodes=3
        )
        assert graph.has_edge(0, 1) and graph.has_edge(1, 2)

    def test_small_unsigned_and_int32_coerce(self):
        graph = WeightedDiGraph.from_arrays(
            np.array([0, 1], dtype=np.uint16),
            np.array([1, 0], dtype=np.int32),
            n_nodes=2,
        )
        assert graph.n_edges == 2

    def test_fractional_float_names_arc(self):
        with pytest.raises(GraphError, match=r"arc 1 has src = 2.5"):
            WeightedDiGraph.from_arrays(
                np.array([0.0, 2.5]), np.array([1.0, 1.0]), n_nodes=3
            )

    def test_nan_rejected(self):
        with pytest.raises(GraphError, match="not representable"):
            WeightedDiGraph.from_arrays(
                np.array([0.0, np.nan]), np.array([1.0, 1.0]), n_nodes=3
            )

    def test_uint64_overflow_names_arc(self):
        big = np.iinfo(np.uint64).max
        with pytest.raises(GraphError, match="dst"):
            WeightedDiGraph.from_arrays(
                np.array([0, 0], dtype=np.uint64),
                np.array([1, big], dtype=np.uint64),
                n_nodes=2,
            )

    def test_out_of_range_names_arc(self):
        with pytest.raises(
            GraphError, match=r"out of range \[0, 3\): arc 1: 1 -> 7"
        ):
            WeightedDiGraph.from_arrays(
                np.array([0, 1]), np.array([1, 7]), n_nodes=3
            )

    def test_negative_endpoint_names_arc(self):
        with pytest.raises(GraphError, match=r"arc 0: -1 -> 1"):
            WeightedDiGraph.from_arrays(
                np.array([-1]), np.array([1]), n_nodes=2
            )
