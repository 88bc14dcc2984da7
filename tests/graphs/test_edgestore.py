"""Edge store: streaming ingestion, external-sort dedup, memmap loads."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.edgestore import (
    EdgeStore,
    EdgeStoreWriter,
    NpyAppender,
    ingest_arrays,
    ingest_edgelist,
    ingest_uniform_random,
)
from tests.conftest import is_file_backed


def _random_arcs(n, m, seed=0, integer_weights=True):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    if integer_weights:
        weight = rng.integers(1, 10, size=m).astype(np.float64)
    else:
        weight = rng.uniform(0.5, 2.0, size=m)
    return src, dst, weight


class TestNpyAppender:
    def test_appended_chunks_round_trip(self, tmp_path):
        path = tmp_path / "values.npy"
        appender = NpyAppender(path, np.int64)
        appender.append(np.arange(5, dtype=np.int64))
        appender.append(np.arange(5, 10, dtype=np.int64))
        appender.close()
        assert np.array_equal(np.load(path), np.arange(10))

    def test_empty_file_is_valid_npy(self, tmp_path):
        path = tmp_path / "empty.npy"
        NpyAppender(path, np.float64).close()
        loaded = np.load(path)
        assert loaded.size == 0 and loaded.dtype == np.float64

    def test_memmap_load(self, tmp_path):
        path = tmp_path / "values.npy"
        appender = NpyAppender(path, np.int32)
        appender.append(np.arange(1000, dtype=np.int32))
        appender.close()
        mapped = np.load(path, mmap_mode="r")
        assert isinstance(mapped, np.memmap)
        assert np.array_equal(mapped, np.arange(1000))


class TestWriterDedup:
    def test_round_trip_matches_from_arrays(self, tmp_path):
        n, m = 200, 5_000
        src, dst, weight = _random_arcs(n, m, seed=1)
        store = ingest_arrays(
            tmp_path / "store", src, dst, weight, n_nodes=n
        )
        graph = WeightedDiGraph.from_arrays(
            src, dst, weight, n_nodes=n
        )
        expected = graph.to_csr()
        indptr, indices, data = store.csr_arrays(mmap=True)
        assert np.array_equal(indptr, expected.indptr)
        assert np.array_equal(indices, expected.indices)
        assert np.array_equal(data, expected.data)
        csc = graph.to_csc()
        cptr, cind, cdat = store.csc_arrays(mmap=True)
        assert np.array_equal(cptr, csc.indptr)
        assert np.array_equal(cind, csc.indices)
        assert np.array_equal(cdat, csc.data)
        assert store.n_arcs == expected.nnz

    def test_multi_run_merge_parity(self, tmp_path):
        """A chunk budget forcing many spill runs changes nothing."""
        n, m = 100, 4_000
        src, dst, weight = _random_arcs(n, m, seed=2)
        small = ingest_arrays(
            tmp_path / "small", src, dst, weight, n_nodes=n,
            chunk_arcs=257,
        )
        big = ingest_arrays(
            tmp_path / "big", src, dst, weight, n_nodes=n
        )
        for mmap in (False, True):
            for part in zip(
                small.csr_arrays(mmap=mmap), big.csr_arrays(mmap=mmap)
            ):
                assert np.array_equal(*part)

    def test_duplicate_arcs_sum(self, tmp_path):
        src = np.zeros(5_000, dtype=np.int64)
        dst = np.ones(5_000, dtype=np.int64)
        weight = np.ones(5_000)
        store = ingest_arrays(
            tmp_path / "store", src, dst, weight, n_nodes=2,
            chunk_arcs=300,
        )
        assert store.n_arcs == 1
        _, indices, data = store.csr_arrays()
        assert indices.tolist() == [1]
        assert data.tolist() == [5000.0]

    def test_zero_sum_arcs_are_dropped(self, tmp_path):
        src = np.array([0, 0, 1])
        dst = np.array([1, 1, 2])
        weight = np.array([3.0, -3.0, 2.0])
        store = ingest_arrays(
            tmp_path / "store", src, dst, weight, n_nodes=3
        )
        assert store.n_arcs == 1
        matrix = store.csr_matrix()
        assert matrix[1, 2] == 2.0 and matrix[0, 1] == 0.0

    def test_undirected_mirrors_arcs(self, tmp_path):
        src = np.array([0, 1, 2])
        dst = np.array([1, 2, 2])  # includes a self-loop
        weight = np.array([1.0, 2.0, 5.0])
        store = ingest_arrays(
            tmp_path / "store", src, dst, weight, n_nodes=3,
            directed=False,
        )
        graph = WeightedDiGraph.from_arrays(
            src, dst, weight, n_nodes=3, directed=False
        )
        expected = graph.to_csr()
        indptr, indices, data = store.csr_arrays()
        assert np.array_equal(indptr, expected.indptr)
        assert np.array_equal(indices, expected.indices)
        assert np.array_equal(data, expected.data)

    def test_empty_store(self, tmp_path):
        with EdgeStoreWriter(tmp_path / "store", n_nodes=4) as writer:
            pass
        store = EdgeStore(tmp_path / "store")
        assert store.n_arcs == 0 and store.n_nodes == 4
        assert store.csr_matrix().nnz == 0

    def test_out_of_range_arc_names_offender(self, tmp_path):
        writer = EdgeStoreWriter(tmp_path / "store", n_nodes=3)
        writer.append(np.array([0]), np.array([1]), np.array([1.0]))
        with pytest.raises(GraphError, match=r"arc 1: 2 -> 7"):
            writer.append(
                np.array([2]), np.array([7]), np.array([1.0])
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_names_offender(self, tmp_path, bad):
        writer = EdgeStoreWriter(tmp_path / "store", n_nodes=3)
        writer.append(np.array([0]), np.array([1]), np.array([1.0]))
        with pytest.raises(
            GraphError, match=rf"non-finite weight {bad}: arc 2: 1 -> 2$"
        ):
            writer.append(
                np.array([2, 1]), np.array([0, 2]), np.array([1.0, bad])
            )
        # The refused chunk was neither buffered nor counted.
        store = writer.finalize()
        assert store.n_arcs == 1
        assert store.csr_matrix()[0, 1] == 1.0

    def test_infers_n_nodes_when_unset(self, tmp_path):
        store = ingest_arrays(
            tmp_path / "store",
            np.array([0, 5]), np.array([3, 2]), np.array([1.0, 1.0]),
        )
        assert store.n_nodes == 6

    def test_overwrite_semantics(self, tmp_path):
        path = tmp_path / "store"
        ingest_arrays(path, np.array([0]), np.array([1]),
                      np.array([1.0]), n_nodes=2)
        with pytest.raises(GraphError, match="already exists"):
            EdgeStoreWriter(path, n_nodes=2)
        store = ingest_arrays(
            path, np.array([1]), np.array([0]), np.array([2.0]),
            n_nodes=2, overwrite=True,
        )
        assert store.csr_matrix()[1, 0] == 2.0


class TestEdgeStoreOpen:
    def test_missing_store_errors(self, tmp_path):
        with pytest.raises(GraphError, match="no edge store"):
            EdgeStore(tmp_path / "nope")

    def test_corrupt_meta_errors(self, tmp_path):
        path = tmp_path / "store"
        path.mkdir()
        (path / "meta.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(GraphError, match="is not a repro-edgestore"):
            EdgeStore(path)

    def test_scipy_matrices_share_memmap_pages(self, tmp_path):
        """Zero-copy contract: the scipy wrappers must reference the
        store's files, not resident copies."""
        n, m = 500, 20_000
        src, dst, weight = _random_arcs(n, m, seed=3)
        store = ingest_arrays(
            tmp_path / "store", src, dst, weight, n_nodes=n
        )
        csr = store.csr_matrix(mmap=True)
        csc = store.csc_matrix(mmap=True)
        for array in (csr.indptr, csr.indices, csr.data,
                      csc.indptr, csc.indices, csc.data):
            assert is_file_backed(array)
        assert isinstance(csr, sp.csr_matrix)
        assert isinstance(csc, sp.csc_matrix)

    def test_array_nbytes_counts_all_arrays(self, tmp_path):
        store = ingest_arrays(
            tmp_path / "store",
            np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0]),
            n_nodes=3,
        )
        total = sum(
            part.nbytes
            for group in (store.csr_arrays(), store.csc_arrays())
            for part in group
        ) + store.arc_arrays()[0].nbytes
        assert store.array_nbytes() == total


class TestIngestEdgelist:
    def test_text_round_trip(self, tmp_path):
        text = tmp_path / "arcs.txt"
        text.write_text(
            "# comment\n"
            "0 1 2.5\n"
            "1 2\n"
            "\n"
            "0 1 0.5\n"
        )
        store = ingest_edgelist(tmp_path / "store", text)
        matrix = store.csr_matrix()
        assert matrix[0, 1] == 3.0  # duplicates merged
        assert matrix[1, 2] == 1.0  # default weight

    def test_bad_line_names_location(self, tmp_path):
        text = tmp_path / "arcs.txt"
        text.write_text("0 1\nnot-an-arc\n")
        with pytest.raises(GraphError, match=r"arcs\.txt:2"):
            ingest_edgelist(tmp_path / "store", text)

    @pytest.mark.parametrize(
        "weight, reason", [("nan", "not finite"), ("3.0x", "not a number")]
    )
    def test_bad_weight_names_location(self, tmp_path, weight, reason):
        text = tmp_path / "arcs.txt"
        text.write_text(f"0 1 1.0\n1 2 {weight}\n")
        with pytest.raises(GraphError, match=rf"arcs\.txt:2: .*{reason}"):
            ingest_edgelist(tmp_path / "store", text)

    def test_missing_file_leaves_no_work_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ingest_edgelist(tmp_path / "store", tmp_path / "missing.txt")
        assert not any(tmp_path.iterdir())

    def test_chunked_streaming_parity(self, tmp_path):
        lines = [f"{i % 17} {(i * 7) % 17} {1 + i % 3}" for i in range(500)]
        text = tmp_path / "arcs.txt"
        text.write_text("\n".join(lines) + "\n")
        small = ingest_edgelist(
            tmp_path / "small", text, chunk_lines=37
        )
        big = ingest_edgelist(tmp_path / "big", text)
        for part in zip(small.csr_arrays(), big.csr_arrays()):
            assert np.array_equal(*part)


class TestIngestUniformRandom:
    def test_shape_and_determinism(self, tmp_path):
        a = ingest_uniform_random(tmp_path / "a", 1000, 4, seed=5)
        b = ingest_uniform_random(tmp_path / "b", 1000, 4, seed=5)
        assert a.n_nodes == 1000
        # sampling with replacement merges a few duplicates
        assert 0.98 * 4000 <= a.n_arcs <= 4000
        for part in zip(a.csr_arrays(), b.csr_arrays()):
            assert np.array_equal(*part)

    def test_negative_out_degree_rejected(self, tmp_path):
        with pytest.raises(GraphError, match="out_degree must be >= 0"):
            ingest_uniform_random(tmp_path / "store", 100, -1)
        assert not any(tmp_path.iterdir())

    def test_no_self_loops(self, tmp_path):
        store = ingest_uniform_random(tmp_path / "s", 50, 3, seed=1)
        indptr, indices, _ = store.csr_arrays()
        src = np.repeat(np.arange(50), np.diff(indptr))
        assert not np.any(src == indices)


class TestFromEdgestore:
    def test_graph_matches_resident_build(self, tmp_path):
        n, m = 300, 3_000
        src, dst, weight = _random_arcs(n, m, seed=4)
        store = ingest_arrays(
            tmp_path / "store", src, dst, weight, n_nodes=n
        )
        mmap_graph = WeightedDiGraph.from_edgestore(store, mmap=True)
        resident = WeightedDiGraph.from_arrays(
            src, dst, weight, n_nodes=n
        )
        assert mmap_graph.n_nodes == resident.n_nodes
        assert mmap_graph.n_arcs == resident.n_arcs
        csr, expected = mmap_graph.to_csr(), resident.to_csr()
        assert np.array_equal(csr.indptr, expected.indptr)
        assert np.array_equal(csr.indices, expected.indices)
        assert np.array_equal(csr.data, expected.data)

    def test_accepts_path_and_stays_memmapped(self, tmp_path):
        src, dst, weight = _random_arcs(20, 100, seed=6)
        ingest_arrays(tmp_path / "store", src, dst, weight, n_nodes=20)
        graph = WeightedDiGraph.from_edgestore(tmp_path / "store")
        assert is_file_backed(graph.to_csr().data)
        assert is_file_backed(graph.to_csc().data)

    def test_graph_operations_work(self, tmp_path):
        src = np.array([0, 0, 1])
        dst = np.array([1, 2, 2])
        weight = np.array([1.0, 2.0, 3.0])
        store = ingest_arrays(
            tmp_path / "store", src, dst, weight, n_nodes=3
        )
        graph = WeightedDiGraph.from_edgestore(store)
        assert graph.out_degree(0) == 2
        assert sorted(graph.successors(0)) == [1, 2]
        assert graph.weight(1, 2) == 3.0
