"""Tests for the streaming-update vocabulary and trace I/O."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dynamic.updates import (
    EdgeUpdate,
    parse_update,
    read_updates,
    write_updates,
)
from repro.exceptions import GraphError
from repro.graphs.digraph import WeightedDiGraph


class TestEdgeUpdate:
    def test_constructors(self):
        insert = EdgeUpdate.insert(1, 2, 3.0)
        assert (insert.kind, insert.u, insert.v, insert.weight) == (
            "insert", 1, 2, 3.0,
        )
        delete = EdgeUpdate.delete("a", "b")
        assert delete.kind == "delete"
        reweight = EdgeUpdate.reweight(1, 2, 0.5)
        assert reweight.weight == 0.5

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            EdgeUpdate("upsert", 1, 2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(GraphError, match="non-finite weight"):
            EdgeUpdate.insert(0, 1, bad)
        with pytest.raises(GraphError, match="non-finite weight"):
            EdgeUpdate.reweight(0, 1, bad)

    def test_apply_insert_delete_reweight(self):
        graph = WeightedDiGraph(directed=True)
        EdgeUpdate.insert(0, 1, 2.0).apply_to(graph)
        assert graph.weight(0, 1) == 2.0
        EdgeUpdate.reweight(0, 1, 5.0).apply_to(graph)
        assert graph.weight(0, 1) == 5.0
        EdgeUpdate.delete(0, 1).apply_to(graph)
        assert not graph.has_edge(0, 1)
        # Deleting a missing edge is a no-op, not an error.
        EdgeUpdate.delete(0, 1).apply_to(graph)

    def test_reweight_to_zero_deletes(self):
        graph = WeightedDiGraph(directed=True)
        graph.add_edge(0, 1, 1.0)
        EdgeUpdate.reweight(0, 1, 0.0).apply_to(graph)
        assert not graph.has_edge(0, 1)


class TestTraceFormat:
    def test_round_trip(self):
        updates = [
            EdgeUpdate.insert(0, 1, 2.5),
            EdgeUpdate.delete(1, 2),
            EdgeUpdate.reweight(2, 3, 0.25),
            EdgeUpdate.insert(3, 4),
        ]
        buffer = io.StringIO()
        write_updates(updates, buffer)
        buffer.seek(0)
        assert list(read_updates(buffer)) == updates

    @given(
        weight=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([5e-324, 2.2250738585072014e-308, -0.0,
                             1.7976931348623157e308, 1.23456789,
                             123456789.0]),
        ),
        kind=st.sampled_from(["insert", "reweight"]),
    )
    def test_weights_round_trip_exactly(self, weight, kind):
        """Every finite weight — tiny, huge, -0.0, many digits — reads
        back as the same float, bit for bit."""
        update = getattr(EdgeUpdate, kind)(3, 4, weight)
        buffer = io.StringIO()
        write_updates([update], buffer)
        buffer.seek(0)
        (back,) = read_updates(buffer)
        assert back == update
        assert back.weight.hex() == update.weight.hex()

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.txt")
        updates = [EdgeUpdate.insert(5, 6, 1.5), EdgeUpdate.delete(6, 5)]
        write_updates(updates, path)
        assert list(read_updates(path)) == updates

    def test_comments_and_blanks_ignored(self):
        assert parse_update("# comment") is None
        assert parse_update("   ") is None

    def test_string_labels(self):
        update = parse_update("+ alice bob 2")
        assert (update.u, update.v, update.weight) == ("alice", "bob", 2.0)

    def test_integer_labels_parsed_as_ints(self):
        update = parse_update("- 3 4")
        assert update.u == 3 and isinstance(update.u, int)

    def test_malformed_lines_rejected(self):
        for line in ("? 1 2", "+ 1", "- 1 2 3", "~ 1 2"):
            with pytest.raises(GraphError):
                parse_update(line)

    @pytest.mark.parametrize(
        "line", ["+ 0 1 nan", "~ 0 1 inf", "+ 0 1 -inf", "+ 0 1 abc", "~ 0 1 1,5"]
    )
    def test_bad_weights_name_the_line(self, line):
        with pytest.raises(GraphError, match="not a finite number") as info:
            parse_update(line)
        assert repr(line) in str(info.value)


class TestUndirectedTraceValidity:
    def test_no_reverse_orientation_inserts(self):
        """On undirected graphs, the churn shadow set must treat (u, v)
        and (v, u) as the same edge, so inserts never silently overwrite
        an existing edge."""
        from repro.datasets.churn import random_churn
        from repro.graphs.generators import karate_club

        graph = karate_club()
        assert not graph.directed
        updates = random_churn(graph, 200, seed=0)
        for update in updates:
            if update.kind == "insert":
                assert not graph.has_edge(update.u, update.v), update
                assert not graph.has_edge(update.v, update.u), update
            update.apply_to(graph)
