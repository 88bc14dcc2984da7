"""Max-flow substrate and the quasi-stable flow approximation (Sec. 4.2).

Exact solving is a thin view over the CSR-native arc-store core
(:mod:`repro.solvers`).
"""

from repro.flow.approx import (
    approx_max_flow,
    color_flow_network,
    flow_initial_coloring,
    lift_flow,
    reduced_network,
)
from repro.flow.mincut import min_cut
from repro.flow.network import FlowNetwork, FlowResult, max_flow
from repro.flow.uniform import max_uniform_flow, max_uniform_flow_assignment

__all__ = [
    "approx_max_flow",
    "color_flow_network",
    "flow_initial_coloring",
    "lift_flow",
    "reduced_network",
    "min_cut",
    "FlowNetwork",
    "FlowResult",
    "max_flow",
    "max_uniform_flow",
    "max_uniform_flow_assignment",
]
