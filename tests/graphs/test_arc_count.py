"""The O(1) stored-arc count of WeightedDiGraph against two oracles.

``n_arcs`` is a counter kept by ``add_edge``, ``remove_edge``, ``copy``
and the lazy dict build.  Hypothesis drives directed and undirected
graphs, built empty or from arrays (and mutated later), through inserts,
overwrites, self-loops, new nodes, zero-weight and plain removals and
``copy()``; after every step the count must equal both the dict oracle
``sum(len(adj) for adj in graph._succ)`` and ``to_csr().nnz``.  CI reruns
it with the longer ``ci`` profile (``--hypothesis-profile=ci``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.digraph import WeightedDiGraph

#: zero removes the arc (Sec. 3); negatives are stored like any weight
WEIGHTS = (0.0, 1.0, 2.5, -1.0)


def assert_arc_count(graph):
    nnz = graph.to_csr().nnz
    if graph._succ is not None:
        assert graph.n_arcs == sum(len(adj) for adj in graph._succ) == nnz
    else:
        assert graph.n_arcs == nnz
    assert graph.n_edges == len(list(graph.edges()))


@st.composite
def start_graphs(draw):
    """An empty-built or array-built graph of up to 6 nodes."""
    n = draw(st.integers(1, 6))
    directed = draw(st.booleans())
    nodes = st.integers(0, n - 1)
    arcs = draw(st.lists(
        st.tuples(nodes, nodes, st.sampled_from(WEIGHTS)), max_size=12
    ))
    if draw(st.booleans()):
        return WeightedDiGraph.from_arrays(
            np.array([a[0] for a in arcs], dtype=np.int64),
            np.array([a[1] for a in arcs], dtype=np.int64),
            np.array([a[2] for a in arcs], dtype=np.float64),
            n_nodes=n, directed=directed,
        )
    graph = WeightedDiGraph(directed=directed)
    for node in range(n):
        graph.add_node(node)
    for u, v, w in arcs:
        graph.add_edge(u, v, w)
    return graph


# Ops: ("add", u, v, w) where u or v may name a new node, ("remove", u,
# v) for any pair (missing ones are a no-op), and ("copy",) to carry on
# mutating a copy while the original must keep its own count.
operations = st.one_of(
    st.tuples(
        st.just("add"), st.integers(0, 8), st.integers(0, 8),
        st.sampled_from(WEIGHTS),
    ),
    st.tuples(st.just("remove"), st.integers(0, 8), st.integers(0, 8)),
    st.tuples(st.just("copy")),
)


@settings(deadline=None)
@given(graph=start_graphs(), script=st.lists(operations, max_size=25))
def test_arc_count_tracks_every_mutation(graph, script):
    assert_arc_count(graph)
    history = [graph]
    for op in script:
        if op[0] == "add":
            graph.add_edge(op[1], op[2], op[3])
        elif op[0] == "remove":
            graph.remove_edge(op[1], op[2], missing_ok=True)
        else:
            graph = graph.copy()
            history.append(graph)
        for seen in history:
            assert_arc_count(seen)
