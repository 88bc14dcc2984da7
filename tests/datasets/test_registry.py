"""Tests for the dataset registry and the stand-in loaders."""

import pytest

from repro.datasets.registry import (
    DATASETS,
    get_dataset,
    load_flow,
    load_graph,
    load_lp,
    table2_rows,
    table3_rows,
)
from repro.exceptions import DatasetError
from repro.flow.network import FlowNetwork
from repro.graphs.digraph import WeightedDiGraph
from repro.lp.model import LinearProgram


class TestRegistry:
    def test_twenty_datasets(self):
        """The paper evaluates on 20 datasets (Tables 2 and 3)."""
        assert len(DATASETS) == 20

    def test_kinds_partition(self):
        kinds = {d.kind for d in DATASETS.values()}
        assert kinds == {"graph", "flow", "lp"}
        assert sum(d.kind == "lp" for d in DATASETS.values()) == 4
        assert sum(d.kind == "flow" for d in DATASETS.values()) == 8

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError):
            get_dataset("imaginary")

    def test_kind_mismatch(self):
        with pytest.raises(DatasetError):
            load_lp("karate")
        with pytest.raises(DatasetError):
            load_graph("qap15")

    @pytest.mark.parametrize(
        "loader, name", [(load_graph, "karate"), (load_flow, "tsukuba0"),
                         (load_lp, "qap15")],
    )
    @pytest.mark.parametrize("scale", [float("nan"), -1.0, 0.0, float("inf")])
    def test_bad_scale_named(self, loader, name, scale):
        with pytest.raises(DatasetError, match=f"scale .* got {scale}"):
            loader(name, scale=scale)


class TestLoaders:
    @pytest.mark.parametrize(
        "name",
        [d.name for d in DATASETS.values() if d.kind == "graph"],
    )
    def test_graphs_load_tiny(self, name):
        graph = load_graph(name, scale=0.002)
        assert isinstance(graph, WeightedDiGraph)
        assert graph.n_nodes >= 30

    @pytest.mark.parametrize(
        "name",
        [d.name for d in DATASETS.values() if d.kind == "flow"],
    )
    def test_flows_load_tiny(self, name):
        network = load_flow(name, scale=0.002)
        assert isinstance(network, FlowNetwork)
        assert network.graph.n_nodes > 10

    @pytest.mark.parametrize(
        "name",
        [d.name for d in DATASETS.values() if d.kind == "lp"],
    )
    def test_lps_load_tiny(self, name):
        lp = load_lp(name, scale=0.02)
        assert isinstance(lp, LinearProgram)
        assert lp.nnz > 0

    def test_karate_is_exact(self):
        graph = load_graph("karate")
        assert graph.n_nodes == 34
        assert graph.n_edges == 78

    def test_loaders_deterministic(self):
        a = load_graph("deezer", scale=0.005)
        b = load_graph("deezer", scale=0.005)
        assert set(a.edges()) == set(b.edges())


class TestFlowInstanceStructure:
    def test_vision_grid_has_terminals(self):
        network = load_flow("tsukuba0", scale=0.002)
        graph = network.graph
        assert graph.out_degree(network.source) > 0
        assert graph.in_degree(network.sink) > 0

    def test_positive_flow_exists(self):
        from repro.flow.network import max_flow

        network = load_flow("venus0", scale=0.001)
        assert max_flow(network, algorithm="dinic").value > 0


class TestTables:
    def test_table2_row_count(self):
        assert len(table2_rows()) == 16

    def test_table3_row_count(self):
        rows = table3_rows()
        assert len(rows) == 4
        assert {row["name"] for row in rows} == {
            "qap15", "nug08-3rd", "supportcase10", "ex10",
        }

    def test_table2_paper_sizes(self):
        by_name = {row["name"]: row for row in table2_rows()}
        assert by_name["karate"]["vertices"] == 34
        assert by_name["epinions"]["edges"] == 508_837
