"""Tests for repro.graphs.io (edge lists and DIMACS flow files)."""

import pytest

from repro.exceptions import GraphError
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.io import (
    read_dimacs_flow,
    read_edgelist,
    write_dimacs_flow,
    write_edgelist,
)


@pytest.fixture
def weighted_graph():
    graph = WeightedDiGraph(directed=True)
    graph.add_edge("a", "b", 2.5)
    graph.add_edge("b", "c", 1.0)
    graph.add_edge("a", "c", 4.0)
    return graph


class TestEdgelist:
    def test_roundtrip(self, tmp_path, weighted_graph):
        path = tmp_path / "graph.edges"
        write_edgelist(weighted_graph, path)
        back = read_edgelist(path)
        assert back.directed
        assert back.weight("a", "b") == 2.5
        assert back.n_edges == 3

    def test_directedness_header(self, tmp_path):
        graph = WeightedDiGraph(directed=False)
        graph.add_edge("x", "y", 1.0)
        path = tmp_path / "und.edges"
        write_edgelist(graph, path)
        back = read_edgelist(path, directed=True)  # header wins
        assert not back.directed

    def test_unweighted_lines(self, tmp_path):
        path = tmp_path / "plain.edges"
        path.write_text("a b\nb c\n")
        graph = read_edgelist(path)
        assert graph.weight("a", "b") == 1.0

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("a b c d e\n")
        with pytest.raises(GraphError):
            read_edgelist(path)

    @pytest.mark.parametrize(
        "weight, reason",
        [("nan", "not finite"), ("-inf", "not finite"),
         ("1e400", "not finite"), ("heavy", "not a number")],
    )
    def test_bad_weight_names_the_line(self, tmp_path, weight, reason):
        path = tmp_path / "bad.edges"
        path.write_text(f"a b 1.0\nb c {weight}\n")
        with pytest.raises(GraphError, match=f"^{path}:2: .*{reason}"):
            read_edgelist(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.edges"
        path.write_text("")
        assert read_edgelist(path).n_nodes == 0

    def test_numeric_labels_parsed_as_ints(self, tmp_path):
        """Int-looking labels become ints so update traces (which use
        the same coercion) resolve against file graphs."""
        path = tmp_path / "nums.edges"
        path.write_text("0 1 2.0\n1 2\n")
        graph = read_edgelist(path)
        assert graph.has_node(0) and not graph.has_node("0")
        assert graph.weight(0, 1) == 2.0

    def test_mixed_labels(self, tmp_path):
        path = tmp_path / "mixed.edges"
        path.write_text("hub 1 3.0\n")
        graph = read_edgelist(path)
        assert graph.weight("hub", 1) == 3.0


class TestDimacs:
    def test_roundtrip(self, tmp_path):
        graph = WeightedDiGraph(directed=True)
        for i in range(4):
            graph.add_node(i)
        graph.add_edge(0, 1, 3.0)
        graph.add_edge(1, 3, 2.0)
        graph.add_edge(0, 2, 1.0)
        graph.add_edge(2, 3, 4.0)
        path = tmp_path / "net.max"
        write_dimacs_flow(graph, 0, 3, path)
        back, source, sink = read_dimacs_flow(path)
        assert (source, sink) == (0, 3)
        assert back.weight(0, 1) == 3.0
        assert back.n_nodes == 4

    def test_parallel_arcs_summed(self, tmp_path):
        path = tmp_path / "par.max"
        path.write_text(
            "p max 2 2\nn 1 s\nn 2 t\na 1 2 3\na 1 2 4\n"
        )
        graph, source, sink = read_dimacs_flow(path)
        assert graph.weight(0, 1) == 7.0

    def test_missing_terminals(self, tmp_path):
        path = tmp_path / "bad.max"
        path.write_text("p max 2 1\na 1 2 3\n")
        with pytest.raises(GraphError):
            read_dimacs_flow(path)

    @pytest.mark.parametrize(
        "capacity, reason",
        [("nan", "not finite"), ("inf", "not finite"),
         ("lots", "not a number")],
    )
    def test_bad_capacity_names_the_line(self, tmp_path, capacity, reason):
        path = tmp_path / "bad.max"
        path.write_text(f"p max 2 1\nn 1 s\nn 2 t\na 1 2 {capacity}\n")
        with pytest.raises(GraphError, match=f"^{path}:4: .*{reason}"):
            read_dimacs_flow(path)

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            ("p max 3 2\nn 1 s\nn 3 t\na 1 2 5\na 2 7 5\n", 5,
             "node id 7 outside 1..3"),
            ("p max 3 1\nn 1 s\nn 3 t\na 0 3 5\n", 4,
             "node id 0 outside 1..3"),
            ("p max 3 1\nn 1 s\nn 4 t\na 1 3 5\n", 3,
             "node id 4 outside 1..3"),
            ("p max 3 1\nn 1 s\nn 3 t\na 2 3\n", 4,
             "expected 'a U V CAP'"),
            ("p max 3 1\nn 1 s\nn 3 t\na 1 3 5 7\n", 4,
             "expected 'a U V CAP'"),
            ("p max 3 1\nn 1\nn 3 t\na 1 3 5\n", 2,
             "expected 'n ID s|t'"),
            ("p max 3 1\nn 1 x\nn 3 t\na 1 3 5\n", 2,
             "expected 'n ID s|t'"),
            ("p max x 2\nn 1 s\nn 2 t\na 1 2 5\n", 1,
             "node count 'x' is not an integer"),
            ("p max 2 y\nn 1 s\nn 2 t\na 1 2 5\n", 1,
             "arc count 'y' is not an integer"),
            ("p max -2 1\nn 1 s\nn 2 t\na 1 2 5\n", 1,
             "negative node count"),
            ("p max 3 1\nn 1 s\nn 3 t\na 1 b 5\n", 4,
             "node id 'b' is not an integer"),
            ("n 1 s\np max 2 1\nn 2 t\na 1 2 5\n", 1,
             "'n 1 s' comes before the 'p max N M' line"),
            ("c header\na 1 2 5\np max 2 1\nn 1 s\nn 2 t\n", 2,
             "'a 1 2 5' comes before the 'p max N M' line"),
            ("p max 2 1\nn 1 s\nn 2 t\np max 3 1\na 1 2 5\n", 4,
             "second problem line"),
        ],
    )
    def test_malformed_line_names_it(self, tmp_path, text, line, reason):
        path = tmp_path / "bad.max"
        path.write_text(text)
        with pytest.raises(GraphError) as error:
            read_dimacs_flow(path)
        assert str(error.value).startswith(f"{path}:{line}: {reason}")

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.max"
        path.write_text(
            "c comment\np max 2 1\nn 1 s\nn 2 t\na 1 2 5\n"
        )
        graph, _, _ = read_dimacs_flow(path)
        assert graph.weight(0, 1) == 5.0
