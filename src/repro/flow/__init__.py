"""Max-flow substrate and the quasi-stable flow approximation (Sec. 4.2).

Exact solving is a thin view over the CSR-native arc-store core
(:mod:`repro.solvers`).
"""

from repro.flow.approx import (
    FlowBracket,
    approx_max_flow,
    color_flow_network,
    flow_bracket,
    flow_initial_coloring,
    reduced_network,
)
from repro.flow.mincut import min_cut
from repro.flow.network import FlowNetwork, FlowResult, max_flow

__all__ = [
    "FlowBracket",
    "approx_max_flow",
    "color_flow_network",
    "flow_bracket",
    "flow_initial_coloring",
    "reduced_network",
    "min_cut",
    "FlowNetwork",
    "FlowResult",
    "max_flow",
]
