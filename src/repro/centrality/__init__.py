"""Betweenness centrality: exact, color-pivot approximate, and sampling.

Exact Brandes (and the per-sample BFS of the Riondato–Kornaropoulos
sampler) run on the CSR-native arc-store core (:mod:`repro.solvers`).
"""

from repro.centrality.approx import ApproxCentralityResult, approx_betweenness
from repro.centrality.brandes import betweenness_centrality
from repro.centrality.metrics import centrality_accuracy
from repro.centrality.sampling import riondato_kornaropoulos_betweenness

__all__ = [
    "ApproxCentralityResult",
    "approx_betweenness",
    "betweenness_centrality",
    "centrality_accuracy",
    "riondato_kornaropoulos_betweenness",
]
