"""Maximum uniform flows in bipartite graphs (Definition 5, Lemma 8).

A flow in a bipartite graph ``(X, Y, c)`` is *uniform* when every source
node carries the same outgoing flow and every target node the same
incoming flow.  ``maxUFlow`` defines the lower-bound capacities
``c_hat_1`` of Theorem 6.  Three methods are provided:

* ``"biregular"`` fast path — in an (a, b)-biregular graph Lemma 8 gives
  ``maxUFlow = min(a |X|, b |Y|) = c(X, Y)`` outright;
* ``"parametric"`` — binary search over the target value ``F``: extend the
  graph with a super-source (arcs of capacity ``F/|X|``) and super-sink
  (``F/|Y|``); ``F`` is feasible iff the extended max-flow equals ``F``
  (exactly the construction in Lemma 8's proof);
* ``"lp"`` — the exact LP: maximize ``|X| * phi`` subject to per-edge
  capacities, row sums equal ``phi``, column sums equal ``psi``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.kernels import scatter_select_sums
from repro.exceptions import FlowError
from repro.flow.network import FlowNetwork, max_flow
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.digraph import WeightedDiGraph

_METHODS = ("auto", "biregular", "parametric", "lp")


def lemma8_condition_holds(graph: BipartiteGraph, a: float, b: float) -> bool:
    """Check Eq. (8): ``c(S, T) + F >= a |S| + b |T|`` for all
    ``S subseteq X, T subseteq Y`` with ``F = min(a |X|, b |Y|)``.

    Enumerates the left subsets only: for a fixed ``S`` the worst right
    subset is available in closed form.  With
    ``w_S(y) = c(S, {y})`` (the row/column reductions, computed on the
    sparse CSR arrays — no dense materialization),

    ``min_T [c(S, T) - b |T|] = sum_y min(0, w_S(y) - b)``

    because each right node contributes independently and only nodes with
    ``w_S(y) < b`` make the left side smaller.  That reduces the check
    from ``O(4^n)`` subset pairs to ``O(2^|X|)`` sparse reductions, so
    the guard is on the left side only (still exponential; tests).
    """
    from itertools import combinations

    n_left, n_right = graph.n_left, graph.n_right
    if n_left > 20:
        raise ValueError(
            "brute-force Lemma 8 check limited to 20 left nodes"
        )
    target = min(a * n_left, b * n_right)
    matrix = graph.matrix
    left_all = range(n_left)
    for ls in range(n_left + 1):
        for subset_left in combinations(left_all, ls):
            if subset_left:
                col_sums = scatter_select_sums(
                    matrix.indptr, matrix.indices, matrix.data,
                    np.asarray(subset_left, dtype=np.int64), n_right,
                )
                worst = float(np.minimum(col_sums - b, 0.0).sum())
            else:
                worst = n_right * min(-b, 0.0)
            if worst + target < a * ls - 1e-9:
                return False
    return True


def _uniform_flow_lp(
    graph: BipartiteGraph, return_flow: bool = False
):
    """Exact maxUFlow via linear programming (scipy HiGHS).

    Variables: one flow per edge, plus the per-source rate ``phi`` and
    per-target rate ``psi``.  Maximize ``|X| phi``.  With
    ``return_flow=True`` returns ``(value, edge_flow_matrix)`` where the
    matrix is a sparse |X| x |Y| uniform flow achieving the value.
    ``scipy.optimize`` is imported here, so only this method pays for it.
    """
    import scipy.optimize

    coo = graph.matrix.tocoo()
    n_edges = coo.nnz
    n_left, n_right = graph.n_left, graph.n_right
    if n_edges == 0:
        if return_flow:
            return 0.0, sp.csr_matrix((n_left, n_right))
        return 0.0
    # Columns: [edge flows..., phi, psi]
    n_vars = n_edges + 2
    rows, cols, vals = [], [], []
    rhs = []
    row_id = 0
    # Row sums: sum of edges out of x - phi = 0
    for x in range(n_left):
        mask = coo.row == x
        for edge_index in np.nonzero(mask)[0]:
            rows.append(row_id)
            cols.append(int(edge_index))
            vals.append(1.0)
        rows.append(row_id)
        cols.append(n_edges)
        vals.append(-1.0)
        rhs.append(0.0)
        row_id += 1
    # Column sums: sum of edges into y - psi = 0
    for y in range(n_right):
        mask = coo.col == y
        for edge_index in np.nonzero(mask)[0]:
            rows.append(row_id)
            cols.append(int(edge_index))
            vals.append(1.0)
        rows.append(row_id)
        cols.append(n_edges + 1)
        vals.append(-1.0)
        rhs.append(0.0)
        row_id += 1
    a_eq = sp.csr_matrix((vals, (rows, cols)), shape=(row_id, n_vars))
    bounds = [(0.0, float(c)) for c in coo.data] + [(0.0, None), (0.0, None)]
    objective = np.zeros(n_vars)
    objective[n_edges] = -float(n_left)  # linprog minimizes
    solution = scipy.optimize.linprog(
        objective, A_eq=a_eq, b_eq=rhs, bounds=bounds, method="highs"
    )
    if not solution.success:
        raise FlowError(f"uniform-flow LP failed: {solution.message}")
    value = float(-solution.fun)
    if not return_flow:
        return value
    flow = sp.csr_matrix(
        (solution.x[:n_edges], (coo.row, coo.col)),
        shape=(n_left, n_right),
    )
    return value, flow


def _uniform_flow_feasible(graph: BipartiteGraph, target: float) -> bool:
    """Is there a uniform flow of value ``target``? (Lemma 8 construction.)"""
    n_left, n_right = graph.n_left, graph.n_right
    network_graph = WeightedDiGraph(directed=True)
    network_graph.add_node("s")
    network_graph.add_node("t")
    for x in range(n_left):
        network_graph.add_edge("s", ("x", x), target / n_left)
    for y in range(n_right):
        network_graph.add_edge(("y", y), "t", target / n_right)
    coo = graph.matrix.tocoo()
    for x, y, c in zip(coo.row, coo.col, coo.data):
        network_graph.add_edge(("x", int(x)), ("y", int(y)), float(c))
    result = max_flow(FlowNetwork(network_graph, "s", "t"))
    return result.value >= target * (1 - 1e-9)


def max_uniform_flow(
    graph: BipartiteGraph,
    method: str = "auto",
    tol: float = 1e-6,
) -> float:
    """``maxUFlow(X, Y, c)`` — the maximum uniform flow value (Def. 5).

    ``"auto"`` uses the biregular closed form when it applies, else the LP.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if graph.n_left == 0 or graph.n_right == 0 or graph.n_edges == 0:
        return 0.0
    row_sums = graph.row_sums()
    col_sums = graph.col_sums()

    if method in ("auto", "biregular") and graph.is_biregular():
        # Lemma 8 / Corollary 9: F = min(a |X|, b |Y|) = c(X, Y).
        return float(
            min(row_sums[0] * graph.n_left, col_sums[0] * graph.n_right)
        )
    if method == "biregular":
        raise FlowError("graph is not biregular; no closed form")
    if method in ("auto", "lp"):
        return _uniform_flow_lp(graph)

    # Parametric binary search.  maxUFlow is at most min over the
    # bottleneck rates implied by the smallest row/column sums.
    upper = min(
        float(row_sums.min()) * graph.n_left,
        float(col_sums.min()) * graph.n_right,
    )
    if upper <= tol:
        return 0.0
    low, high = 0.0, upper
    if _uniform_flow_feasible(graph, high):
        return high
    while high - low > tol * max(1.0, upper):
        mid = (low + high) / 2.0
        if _uniform_flow_feasible(graph, mid):
            low = mid
        else:
            high = mid
    return low


def max_uniform_flow_assignment(
    graph: BipartiteGraph,
) -> tuple[float, sp.csr_matrix]:
    """``maxUFlow`` together with an achieving flow assignment.

    Used by the Theorem 6 lifting: the reduced flow between two colors is
    spread over the block by scaling this uniform flow.
    """
    if graph.n_left == 0 or graph.n_right == 0 or graph.n_edges == 0:
        return 0.0, sp.csr_matrix((graph.n_left, graph.n_right))
    return _uniform_flow_lp(graph, return_flow=True)
