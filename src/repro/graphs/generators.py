"""Graph generators: classic random models plus the paper's special graphs.

Every generator is deterministic given a ``seed`` and returns a
:class:`~repro.graphs.digraph.WeightedDiGraph`.  The module covers:

* classic models used as dataset stand-ins (Erdős–Rényi, Barabási–Albert,
  powerlaw-cluster, stochastic block);
* the paper's figures: Zachary's karate club (Fig. 1), the lifted biregular
  graph with a planted stable coloring (Fig. 2), the pathological flow
  network (Fig. 4 / Example 7), the centrality counterexample (Fig. 5),
  and the graph with two maximal q-colorings (Fig. 6);
* grid graphs, the substrate for vision-style max-flow instances.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.digraph import WeightedDiGraph
from repro.utils.rng import SeedLike, ensure_rng

# ----------------------------------------------------------------------
# Zachary's karate club (Fig. 1).  The canonical 34-node, 78-edge graph
# from Zachary (1977); hardcoded so the generator works offline and does
# not depend on networkx data files.  1-based node ids as in the paper.
# ----------------------------------------------------------------------
_KARATE_EDGES = [
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9),
    (1, 11), (1, 12), (1, 13), (1, 14), (1, 18), (1, 20), (1, 22),
    (1, 32), (2, 3), (2, 4), (2, 8), (2, 14), (2, 18), (2, 20), (2, 22),
    (2, 31), (3, 4), (3, 8), (3, 9), (3, 10), (3, 14), (3, 28), (3, 29),
    (3, 33), (4, 8), (4, 13), (4, 14), (5, 7), (5, 11), (6, 7), (6, 11),
    (6, 17), (7, 17), (9, 31), (9, 33), (9, 34), (10, 34), (14, 34),
    (15, 33), (15, 34), (16, 33), (16, 34), (19, 33), (19, 34), (20, 34),
    (21, 33), (21, 34), (23, 33), (23, 34), (24, 26), (24, 28), (24, 30),
    (24, 33), (24, 34), (25, 26), (25, 28), (25, 32), (26, 32), (27, 30),
    (27, 34), (28, 34), (29, 32), (29, 34), (30, 33), (30, 34), (31, 33),
    (31, 34), (32, 33), (32, 34), (33, 34),
]


def karate_club() -> WeightedDiGraph:
    """Zachary's karate club graph: 34 nodes, 78 edges, undirected.

    The running example of Fig. 1: its stable coloring has 27 colors while
    a q=3 quasi-stable coloring needs only 6.
    """
    edges = np.asarray(_KARATE_EDGES, dtype=np.int64) - 1
    return WeightedDiGraph.from_arrays(
        edges[:, 0], edges[:, 1], n_nodes=34, directed=False,
        labels=list(range(1, 35)),
    )


# ----------------------------------------------------------------------
# classic random models
# ----------------------------------------------------------------------
def erdos_renyi(n: int, p: float, seed: SeedLike = None) -> WeightedDiGraph:
    """G(n, p) undirected random graph (vectorized upper-triangle draw)."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    rng = ensure_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    return WeightedDiGraph.from_arrays(
        iu[mask], ju[mask], n_nodes=n, directed=False
    )


def barabasi_albert(n: int, m: int, seed: SeedLike = None) -> WeightedDiGraph:
    """Barabási–Albert preferential attachment graph.

    Starts from a star on ``m + 1`` nodes, then attaches each new node to
    ``m`` existing nodes chosen proportionally to degree (sampling from the
    repeated-endpoints urn, the standard O(m) trick).
    """
    if m < 1 or m >= n:
        raise GraphError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = ensure_rng(seed)
    # Urn of endpoints; each edge contributes both ends.  Edges are
    # collected into flat lists and materialized once at the end — the
    # urn process is inherently sequential, but the graph build is not.
    src: list[int] = []
    dst: list[int] = []
    urn: list[int] = []
    for i in range(1, m + 1):
        src.append(0)
        dst.append(i)
        urn.extend((0, i))
    for new in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(urn[rng.integers(0, len(urn))])
        for target in targets:
            src.append(new)
            dst.append(target)
            urn.extend((new, target))
    return WeightedDiGraph.from_arrays(
        np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64),
        n_nodes=n, directed=False,
    )


def powerlaw_cluster(
    n: int, m: int, p: float, seed: SeedLike = None
) -> WeightedDiGraph:
    """Holme–Kim powerlaw cluster graph (BA plus triangle-closing steps).

    Stand-in for social graphs with heavy-tailed degrees *and* clustering
    (facebook/deezer-like structure).
    """
    if m < 1 or m >= n:
        raise GraphError(f"need 1 <= m < n, got m={m}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"triangle probability must be in [0, 1], got {p}")
    rng = ensure_rng(seed)
    src: list[int] = []
    dst: list[int] = []
    urn: list[int] = []
    for i in range(1, m + 1):
        src.append(0)
        dst.append(i)
        urn.extend((0, i))
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for i in range(1, m + 1):
        adjacency[0].add(i)
        adjacency[i].add(0)
    for new in range(m + 1, n):
        added: set[int] = set()
        target = urn[rng.integers(0, len(urn))]
        while len(added) < m:
            if target not in added:
                added.add(target)
            # Triangle step: connect to a neighbor of the previous target.
            if len(added) < m and rng.random() < p and adjacency[target]:
                neighbors = [v for v in adjacency[target] if v not in added and v != new]
                if neighbors:
                    added.add(neighbors[rng.integers(0, len(neighbors))])
            target = urn[rng.integers(0, len(urn))]
        for t in added:
            src.append(new)
            dst.append(t)
            adjacency[new].add(t)
            adjacency[t].add(new)
            urn.extend((new, t))
    return WeightedDiGraph.from_arrays(
        np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64),
        n_nodes=n, directed=False,
    )


def stochastic_block(
    sizes: list[int],
    p_matrix: np.ndarray | list[list[float]],
    seed: SeedLike = None,
) -> WeightedDiGraph:
    """Stochastic block model: community ``i``-``j`` pairs joined w.p. ``p[i][j]``.

    Stand-in for community-structured graphs (dblp-like).
    """
    probs = np.asarray(p_matrix, dtype=float)
    k = len(sizes)
    if probs.shape != (k, k):
        raise GraphError(f"p_matrix must be {k}x{k}, got {probs.shape}")
    rng = ensure_rng(seed)
    total = sum(sizes)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    membership = np.empty(total, dtype=int)
    for block, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        membership[lo:hi] = block
    iu, ju = np.triu_indices(total, k=1)
    thresholds = probs[membership[iu], membership[ju]]
    mask = rng.random(iu.size) < thresholds
    return WeightedDiGraph.from_arrays(
        iu[mask], ju[mask], n_nodes=total, directed=False
    )


# ----------------------------------------------------------------------
# simple deterministic families
# ----------------------------------------------------------------------
def path_graph(n: int) -> WeightedDiGraph:
    steps = np.arange(n - 1, dtype=np.int64)
    return WeightedDiGraph.from_arrays(
        steps, steps + 1, n_nodes=n, directed=False
    )


def cycle_graph(n: int) -> WeightedDiGraph:
    if n < 3:
        raise GraphError(f"cycle needs at least 3 nodes, got {n}")
    steps = np.arange(n, dtype=np.int64)
    return WeightedDiGraph.from_arrays(
        steps, (steps + 1) % n, n_nodes=n, directed=False
    )


def star_graph(n_leaves: int) -> WeightedDiGraph:
    """Hub node 0 connected to ``n_leaves`` leaves."""
    leaves = np.arange(1, n_leaves + 1, dtype=np.int64)
    return WeightedDiGraph.from_arrays(
        np.zeros(n_leaves, dtype=np.int64), leaves,
        n_nodes=n_leaves + 1, directed=False,
    )


def grid_2d(width: int, height: int) -> WeightedDiGraph:
    """4-connected ``width x height`` grid; node label = ``(x, y)``."""
    ids = np.arange(width * height, dtype=np.int64)
    x = ids % width
    y = ids // width
    right = ids[x + 1 < width]
    down = ids[y + 1 < height]
    src = np.concatenate([right, down])
    dst = np.concatenate([right + 1, down + width])
    labels = list(zip(x.tolist(), y.tolist()))
    return WeightedDiGraph.from_arrays(
        src, dst, n_nodes=width * height, directed=False, labels=labels
    )


def grid_3d(nx: int, ny: int, nz: int) -> WeightedDiGraph:
    """6-connected 3-D grid; node label = ``(x, y, z)``."""
    ids = np.arange(nx * ny * nz, dtype=np.int64)
    x = ids % nx
    y = (ids // nx) % ny
    z = ids // (nx * ny)
    right = ids[x + 1 < nx]
    down = ids[y + 1 < ny]
    deep = ids[z + 1 < nz]
    src = np.concatenate([right, down, deep])
    dst = np.concatenate([right + 1, down + nx, deep + nx * ny])
    labels = list(zip(x.tolist(), y.tolist(), z.tolist()))
    return WeightedDiGraph.from_arrays(
        src, dst, n_nodes=nx * ny * nz, directed=False, labels=labels
    )


def biregular_bipartite(
    n_left: int, n_right: int, out_degree: int
) -> WeightedDiGraph:
    """Unit-weight (a, b)-biregular bipartite graph as a directed graph.

    Left nodes are labeled ``("L", i)``, right nodes ``("R", j)``; all arcs
    go left -> right.  Left node ``i`` feeds ``out_degree`` consecutive
    right nodes starting at ``i * out_degree (mod n_right)``.
    """
    if out_degree > n_right:
        # Round-robin targets would collide, silently degenerating the
        # graph.
        raise GraphError(
            f"out_degree {out_degree} exceeds right side size {n_right}"
        )
    if (n_left * out_degree) % n_right != 0:
        raise GraphError(
            "biregular graph needs n_left * out_degree divisible by n_right"
        )
    edge_ids = np.arange(n_left * out_degree, dtype=np.int64)
    src = edge_ids // out_degree
    dst = n_left + edge_ids % n_right
    labels = [("L", i) for i in range(n_left)]
    labels += [("R", j) for j in range(n_right)]
    return WeightedDiGraph.from_arrays(
        src, dst, n_nodes=n_left + n_right, directed=True, labels=labels
    )


def uniform_random_digraph(
    n: int, out_degree: int, seed: SeedLike = None
) -> WeightedDiGraph:
    """Directed random graph: every node draws ``out_degree`` targets
    uniformly at random (self-loops dropped, parallel draws sum weight).

    Fully vectorized — two array draws and one
    :meth:`WeightedDiGraph.from_arrays` call — so it scales to
    million-node instances in ``O(m)``; the large-scale Rothko benchmark
    uses it as its synthetic workload.
    """
    if n < 1 or out_degree < 1:
        raise GraphError(
            f"need n >= 1 and out_degree >= 1, got n={n}, d={out_degree}"
        )
    rng = ensure_rng(seed)
    src = np.repeat(np.arange(n, dtype=np.int64), out_degree)
    dst = rng.integers(0, n, size=n * out_degree, dtype=np.int64)
    keep = src != dst
    return WeightedDiGraph.from_arrays(
        src[keep], dst[keep], n_nodes=n, directed=True
    )


# ----------------------------------------------------------------------
# paper-specific constructions
# ----------------------------------------------------------------------
def lifted_biregular(
    n_groups: int = 100,
    group_size: int = 10,
    template_edges: int = 1080,
    lift_degree: int = 2,
    seed: SeedLike = 0,
) -> tuple[WeightedDiGraph, np.ndarray]:
    """Graph with a planted ``n_groups``-color equitable partition (Fig. 2).

    A uniform random template graph with ``template_edges`` edges is drawn
    on ``n_groups`` supernodes; each template edge ``(i, j)`` is lifted to
    a ``lift_degree``-biregular bipartite graph between group ``i`` and
    group ``j``.  The groups form an equitable partition, so the stable
    coloring has at most ``n_groups`` colors; the template's heterogeneous
    degrees keep the supernodes 1-WL-distinguishable, so generically it
    has exactly ``n_groups`` (a regular template would collapse the stable
    coloring to a single color instead).

    With the defaults, ``|V| = 1000`` and ``|E| = template_edges *
    group_size * lift_degree = 21 600`` — the paper's robustness graph.

    Returns the graph and the planted group-membership array.
    """
    if not 1 <= lift_degree <= group_size:
        raise GraphError(
            f"need 1 <= lift_degree <= group_size, got {lift_degree}"
        )
    max_edges = n_groups * (n_groups - 1) // 2
    if not 1 <= template_edges <= max_edges:
        raise GraphError(
            f"need 1 <= template_edges <= {max_edges}, got {template_edges}"
        )
    rng = ensure_rng(seed)
    n = n_groups * group_size
    membership = np.repeat(np.arange(n_groups), group_size)

    iu, ju = np.triu_indices(n_groups, k=1)
    chosen = rng.choice(iu.size, size=template_edges, replace=False)
    block_a = np.repeat(np.arange(group_size, dtype=np.int64), lift_degree)
    block_d = np.tile(np.arange(lift_degree, dtype=np.int64), group_size)
    src_blocks: list[np.ndarray] = []
    dst_blocks: list[np.ndarray] = []
    for gi, gj in zip(iu[chosen].tolist(), ju[chosen].tolist()):
        # Lift (gi, gj) to a lift_degree-biregular bipartite block using a
        # rotated round-robin so different template edges use different
        # wirings (keeps the template nodes distinguishable).
        rotation = int(rng.integers(0, group_size))
        src_blocks.append(gi * group_size + block_a)
        dst_blocks.append(
            gj * group_size + (block_a + rotation + block_d) % group_size
        )
    graph = WeightedDiGraph.from_arrays(
        np.concatenate(src_blocks), np.concatenate(dst_blocks),
        n_nodes=n, directed=False,
    )
    return graph, membership


def pathological_flow_network(n: int) -> tuple[WeightedDiGraph, str, str]:
    """The layered network of Fig. 4 / Example 7 (shift-matching variant).

    Middle layers ``L1 .. L_{n-1}`` of ``n`` nodes each; ``s`` feeds every
    node of ``L1``; every node of ``L_{n-1}`` feeds ``t``; between
    consecutive layers node ``j`` connects only to node ``j + 1``.  All
    capacities are 1.

    Properties (verified in the test suite):

    * the layer coloring ``{s}, L1, ..., L_{n-1}, {t}`` is q-stable for q=1;
    * ``maxFlow = 2`` (only the two left-most staircases reach ``t``);
    * the block-capacity upper bound ``c_hat_2`` of Theorem 6 is ``n - 1``
      — the paper's cautionary example — while the proportionally lifted
      flow of :func:`~repro.flow.approx.flow_bracket` still proves
      ``2 / n``.

    Returns ``(graph, source_label, sink_label)``.
    """
    if n < 3:
        raise GraphError(f"need n >= 3, got {n}")
    graph = WeightedDiGraph(directed=True)
    graph.add_node("s")
    graph.add_node("t")
    layers = n - 1
    for layer in range(1, layers + 1):
        for j in range(1, n + 1):
            graph.add_node((layer, j))
    for j in range(1, n + 1):
        graph.add_edge("s", (1, j), 1.0)
        graph.add_edge((layers, j), "t", 1.0)
    for layer in range(1, layers):
        for j in range(1, n):
            graph.add_edge((layer, j), (layer + 1, j + 1), 1.0)
    return graph, "s", "t"


def pathological_layer_coloring(n: int) -> np.ndarray:
    """The q=1 layer coloring that accompanies :func:`pathological_flow_network`.

    Colors: 0 for ``s``, 1..n-1 for the layers, n for ``t`` — aligned with
    the node insertion order of the generator.
    """
    layers = n - 1
    labels = [0, layers + 1]  # s, t
    for layer in range(1, layers + 1):
        labels.extend([layer] * n)
    return np.asarray(labels, dtype=np.int64)


def centrality_counterexample() -> tuple[WeightedDiGraph, int, int]:
    """A stable-colored graph where same-color nodes differ in centrality.

    Fig. 5's exact wiring is not fully recoverable from the paper, so we use
    the classic behaviorally-equivalent example: the disjoint union of a
    6-cycle and two triangles.  Every node has degree 2, hence the stable
    coloring (1-WL) is the single-color partition; but a 6-cycle node has
    strictly positive betweenness while a triangle node has betweenness 0.

    Returns ``(graph, u, v)`` where ``u`` (on the 6-cycle) and ``v`` (on a
    triangle) share a stable color yet ``g(u) != g(v)``.
    """
    graph = WeightedDiGraph(directed=False)
    for i in range(12):
        graph.add_node(i)
    # 6-cycle on 0..5
    for i in range(6):
        graph.add_edge(i, (i + 1) % 6)
    # two triangles on 6..8 and 9..11
    for base in (6, 9):
        graph.add_edge(base, base + 1)
        graph.add_edge(base + 1, base + 2)
        graph.add_edge(base + 2, base)
    return graph, 0, 6


def two_maximal_colorings_graph(n: int) -> tuple[WeightedDiGraph, list[int]]:
    """Fig. 6: a graph with two distinct maximal 1-stable colorings.

    Three bottom nodes feed disjoint fans of ``n``, ``n+1`` and ``n+2``
    top nodes.  Every top node has exactly one incoming edge, so all top
    nodes share a color; the bottom nodes have out-degrees ``n, n+1, n+2``
    and can be grouped either ``{1,2},{3}`` or ``{1},{2,3}`` — both maximal
    for q=1, so no maximum q-coloring exists (Theorem 12 context).

    Returns ``(graph, bottom_labels)``.
    """
    if n < 1:
        raise GraphError(f"need n >= 1, got {n}")
    graph = WeightedDiGraph(directed=True)
    bottoms = ["b1", "b2", "b3"]
    for b in bottoms:
        graph.add_node(b)
    top = 0
    for b, fan in zip(bottoms, (n, n + 1, n + 2)):
        for _ in range(fan):
            graph.add_edge(b, ("top", top), 1.0)
            top += 1
    return graph, bottoms
