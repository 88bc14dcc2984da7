"""Graph substrate: weighted digraphs, generators, and IO."""

from repro.graphs.digraph import WeightedDiGraph, coerce_index_array
from repro.graphs.edgestore import (
    EdgeStore,
    EdgeStoreWriter,
    ingest_arrays,
    ingest_edgelist,
    ingest_uniform_random,
)
from repro.graphs.generators import (
    barabasi_albert,
    biregular_bipartite,
    centrality_counterexample,
    cycle_graph,
    erdos_renyi,
    grid_2d,
    grid_3d,
    karate_club,
    lifted_biregular,
    pathological_flow_network,
    path_graph,
    powerlaw_cluster,
    star_graph,
    stochastic_block,
    two_maximal_colorings_graph,
)
from repro.graphs.ops import (
    degree_vector,
    induced_subgraph,
    perturb_add_random_edges,
)

__all__ = [
    "EdgeStore",
    "EdgeStoreWriter",
    "WeightedDiGraph",
    "coerce_index_array",
    "ingest_arrays",
    "ingest_edgelist",
    "ingest_uniform_random",
    "barabasi_albert",
    "biregular_bipartite",
    "centrality_counterexample",
    "cycle_graph",
    "erdos_renyi",
    "grid_2d",
    "grid_3d",
    "karate_club",
    "lifted_biregular",
    "pathological_flow_network",
    "path_graph",
    "powerlaw_cluster",
    "star_graph",
    "stochastic_block",
    "two_maximal_colorings_graph",
    "degree_vector",
    "induced_subgraph",
    "perturb_add_random_edges",
]
