"""Tests for repro.flow.network (network checks, flow validation)."""

import numpy as np
import pytest

from repro.exceptions import FlowError
from repro.flow.network import FlowNetwork, FlowResult, validate_flow
from repro.graphs.digraph import WeightedDiGraph
from tests.conftest import store_with_weights


def flow_result(value: float, flow: dict) -> FlowResult:
    """A FlowResult from a ``(u, v) -> flow`` dict of node indices."""
    arcs = list(flow)
    return FlowResult(
        value,
        [u for u, _ in arcs],
        [v for _, v in arcs],
        [flow[arc] for arc in arcs],
    )


@pytest.fixture
def diamond():
    """s -> {a, b} -> t with capacities 3/2/2/3."""
    graph = WeightedDiGraph(directed=True)
    graph.add_edge("s", "a", 3.0)
    graph.add_edge("s", "b", 2.0)
    graph.add_edge("a", "t", 2.0)
    graph.add_edge("b", "t", 3.0)
    return FlowNetwork(graph, "s", "t")


class TestFlowNetwork:
    def test_valid(self, diamond):
        assert diamond.n_nodes == 4
        assert diamond.source_index == 0

    def test_missing_source(self):
        graph = WeightedDiGraph(directed=True)
        graph.add_edge(0, 1, 1.0)
        with pytest.raises(FlowError):
            FlowNetwork(graph, 99, 1)

    def test_same_source_sink(self):
        graph = WeightedDiGraph(directed=True)
        graph.add_edge(0, 1, 1.0)
        with pytest.raises(FlowError):
            FlowNetwork(graph, 0, 0)

    def test_negative_capacity(self):
        graph = WeightedDiGraph(directed=True)
        graph.add_edge(0, 1, -2.0)
        with pytest.raises(FlowError):
            FlowNetwork(graph, 0, 1)

    def test_nan_capacity_names_the_arc(self, tmp_path):
        # add_edge and the store writer refuse a NaN weight; a store
        # edited on disk carries one.
        store = store_with_weights(
            tmp_path / "store", [0, 1], [1, 2], [1.0, float("nan")]
        )
        graph = WeightedDiGraph.from_edgestore(store)
        with pytest.raises(FlowError, match="capacity nan on arc 1 -> 2"):
            FlowNetwork(graph, 0, 2)

    def test_array_built_graph_stays_lazy(self):
        graph = WeightedDiGraph.from_arrays(
            np.array([0, 1]), np.array([1, 2]), np.array([2.0, 3.0])
        )
        FlowNetwork(graph, 0, 2)
        assert graph._succ is None


class TestFlowResult:
    def test_value_equality(self):
        flow = {(0, 1): 2.0, (1, 3): 2.0}
        assert flow_result(2.0, flow) == flow_result(2.0, flow)
        assert flow_result(2.0, flow) != flow_result(3.0, flow)
        assert flow_result(2.0, flow) != flow_result(2.0, {(0, 1): 2.0})


class TestValidateFlow:
    def test_valid_flow_accepted(self, diamond):
        flow = {
            (0, 1): 2.0,  # s->a
            (0, 2): 2.0,  # s->b
            (1, 3): 2.0,  # a->t
            (2, 3): 2.0,  # b->t
        }
        validate_flow(diamond, flow_result(4.0, flow))

    def test_capacity_violation(self, diamond):
        flow = {(0, 1): 5.0, (1, 3): 5.0}
        with pytest.raises(FlowError, match="exceeds capacity"):
            validate_flow(diamond, flow_result(5.0, flow))

    def test_conservation_violation(self, diamond):
        flow = {(0, 1): 1.0}
        with pytest.raises(FlowError, match="conservation"):
            validate_flow(diamond, flow_result(1.0, flow))

    def test_phantom_arc(self, diamond):
        flow = {(1, 2): 1.0}
        with pytest.raises(FlowError, match="non-existent"):
            validate_flow(diamond, flow_result(0.0, flow))

    def test_out_of_range_arc(self, diamond):
        # Endpoints beyond n must not collide with real arcs through
        # the vectorized validator's flat key encoding.
        flow = {(1, 7): 1.0}
        with pytest.raises(FlowError, match="non-existent"):
            validate_flow(diamond, flow_result(0.0, flow))

    def test_wrong_value(self, diamond):
        flow = {(0, 1): 1.0, (1, 3): 1.0}
        with pytest.raises(FlowError, match="claimed value"):
            validate_flow(diamond, flow_result(7.0, flow))

    def test_negative_flow(self, diamond):
        flow = {(0, 1): -1.0, (1, 3): -1.0}
        with pytest.raises(FlowError, match="negative flow"):
            validate_flow(diamond, flow_result(-1.0, flow))
