"""Trace fuzzing of DynamicColoring, with a differential merge oracle.

Hypothesis draws a small weighted graph (up to 12 nodes, self-loops
allowed, directed or not) and a trace of inserts, deletes, reweights and
inserts that create new nodes, then replays it under absolute and
relative error, each with and without a frozen class:

* after every ``apply`` (and every ``apply_batch`` of a second engine)
  the maintained degree matrices match the graph, color ids are
  contiguous and the frozen class keeps exactly its members; without a
  frozen class the error recomputed from scratch stays within tolerance;
* every merge pass is checked pair by pair against the full-gather merge
  test below, which slices the dense degree matrices and sorts every
  label for each pair.  The engine's first accepted partner must be the
  first one the reference accepts, so every rejection (by the block-bound
  screen or by the merged-column check) and every acceptance agree;
* a third engine whose coarsening loop is the reference's own loop walks
  the same trace to the same labels and the same merge-test count.

CI reruns this with the longer ``ci`` profile
(``--hypothesis-profile=ci``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import grouped_minmax_by_labels, relative_spread
from repro.core.partition import Coloring
from repro.core.qerror import color_degree_matrices, grouped_minmax, max_q_err
from repro.dynamic import DynamicColoring, EdgeUpdate
from repro.dynamic.engine import _EPS
from repro.graphs.digraph import WeightedDiGraph
from repro.graphs.generators import karate_club

WEIGHTS = (0.5, 1.0, 2.0, 3.0)
TOLERANCES = {
    "absolute": (0.0, 0.5, 1.0, 2.0),
    "relative": (0.0, 0.25, 0.7, 1.5),
}
TOL_SLACK = 1e-9


def reference_merge_error(engine, a, b):
    """Max error among the pairs a merge of ``a`` and ``b`` affects,
    from a full gather of the merged rows and an argsort of every label.
    """
    n, k = engine.n, engine.k
    rows = np.concatenate([engine._members[a], engine._members[b]])
    merged_out = engine._d_out[:n, a] + engine._d_out[:n, b]
    merged_in = engine._d_in[:n, a] + engine._d_in[:n, b]
    # Row blocks: the merged class against every color (merged column
    # substituted in place of a, column b dropped).
    out_block = engine._d_out[rows][:, :k]
    in_block = engine._d_in[rows][:, :k]
    out_block[:, a] = merged_out[rows]
    in_block[:, a] = merged_in[rows]
    keep = np.arange(k) != b
    out_block = out_block[:, keep]
    in_block = in_block[:, keep]
    row_err = max(
        float(engine._spread(out_block.max(axis=0), out_block.min(axis=0)).max()),
        float(engine._spread(in_block.max(axis=0), in_block.min(axis=0)).max()),
    )
    # Column direction: every class's spread over the merged column.
    upper_out, lower_out = grouped_minmax_by_labels(merged_out, engine.labels, k)
    upper_in, lower_in = grouped_minmax_by_labels(merged_in, engine.labels, k)
    col_err = max(
        float(engine._spread(upper_out, lower_out).max()),
        float(engine._spread(upper_in, lower_in).max()),
    )
    return max(row_err, col_err)


class ReferenceCoarsening(DynamicColoring):
    """The engine with the reference merge loop: every eligible pair in
    turn, each through :func:`reference_merge_error`."""

    def _coarsen(self):
        attempts = 0
        merged_any = True
        while merged_any and attempts < self.merge_attempts:
            merged_any = False
            for a in sorted(self._merge_candidates):
                if a >= self.k or self._color_pin[a] >= 0:
                    self._merge_candidates.discard(a)
                    continue
                for b in range(self.k):
                    if b == a or self._color_pin[b] >= 0:
                        continue
                    attempts += 1
                    self.stats.merge_tests += 1
                    lo, hi = (a, b) if a < b else (b, a)
                    error = reference_merge_error(self, lo, hi)
                    if error <= self.q_tolerance + _EPS:
                        self._merge(lo, hi)
                        self.stats.merges += 1
                        merged_any = True
                        break
                    if attempts >= self.merge_attempts:
                        break
                if merged_any or attempts >= self.merge_attempts:
                    break
        self._merge_candidates.clear()


def check_merge_decisions(engine, decisions):
    """Wrap ``engine._first_partner`` so each call's answer is compared
    with the reference test of every partner it was offered."""
    first_partner = engine._first_partner

    def checked(bounds, a, partners):
        tolerance = engine.q_tolerance + _EPS
        accepts = [
            reference_merge_error(engine, min(a, b), max(a, b)) <= tolerance
            for b in partners.tolist()
        ]
        index, gathers = first_partner(bounds, a, partners)
        expected = accepts.index(True) if True in accepts else None
        assert index == expected, (a, partners.tolist(), accepts, index)
        decisions.append(accepts[: len(accepts) if index is None else index + 1])
        return index, gathers

    engine._first_partner = checked


def scratch_error(graph, coloring, error_mode):
    """Max error of ``coloring`` recomputed from the graph alone."""
    csr = graph.to_csr()
    if error_mode == "absolute":
        return max_q_err(csr, coloring)
    spreads = [
        relative_spread(*grouped_minmax(degrees, coloring))
        for degrees in color_degree_matrices(csr, coloring)
    ]
    return max(float(spread.max(initial=0.0)) for spread in spreads)


def check_invariants(engine, frozen_nodes):
    engine.verify_consistency()
    labels = engine.labels
    assert np.array_equal(np.unique(labels), np.arange(engine.k))
    if frozen_nodes:
        color = labels[frozen_nodes[0]]
        assert np.array_equal(np.flatnonzero(labels == color), frozen_nodes)
    else:
        error = scratch_error(engine.graph, engine.snapshot(), engine.error_mode)
        assert error <= engine.q_tolerance + TOL_SLACK


@st.composite
def scenarios(draw):
    """A graph, a replayable trace over it, and the engine settings."""
    n = draw(st.integers(1, 12))
    nodes = st.integers(0, n - 1)
    graph = WeightedDiGraph(directed=draw(st.booleans()))
    for node in range(n):  # labels equal internal indices
        graph.add_node(node)
    for u, v, w in draw(st.lists(
        st.tuples(nodes, nodes, st.sampled_from(WEIGHTS)), max_size=30
    )):
        graph.add_edge(u, v, w)
    # Replay on a scratch copy so deletes and reweights hit live edges;
    # an insert endpoint equal to the node count is a new node.
    replay = graph.copy()
    trace = []
    for op, x, y, w in draw(st.lists(
        st.tuples(
            st.sampled_from("+-~"), st.integers(0, 40), st.integers(0, 40),
            st.sampled_from(WEIGHTS),
        ),
        min_size=1, max_size=12,
    )):
        edges = sorted((u, v) for u, v, _ in replay.edges())
        if op == "+" or not edges:
            count = replay.n_nodes
            update = EdgeUpdate.insert(x % (count + 1), y % (count + 1), w)
        elif op == "-":
            update = EdgeUpdate.delete(*edges[x % len(edges)])
        else:
            update = EdgeUpdate.reweight(*edges[x % len(edges)], w)
        update.apply_to(replay)
        trace.append(update)
    # Small merge budgets cut passes short; large drift budgets keep
    # repair local instead of falling back to a rebuild.
    options = dict(
        drift_budget=draw(st.sampled_from((0.25, 1.0, 10.0))),
        merge_attempts=draw(st.sampled_from((1, 3, 64))),
    )
    frozen_size = draw(st.integers(1, min(3, n)))
    batch = draw(st.integers(1, len(trace)))
    return graph, trace, options, frozen_size, batch


@pytest.mark.parametrize("error_mode", ["absolute", "relative"])
@pytest.mark.parametrize("frozen", [False, True], ids=["free", "frozen"])
@settings(deadline=None)
@given(scenario=scenarios(), data=st.data())
def test_trace_keeps_invariants_and_merge_decisions(
    error_mode, frozen, scenario, data
):
    graph, trace, options, frozen_size, batch = scenario
    options["q_tolerance"] = data.draw(
        st.sampled_from(TOLERANCES[error_mode]), label="q_tolerance"
    )
    options["error_mode"] = error_mode
    frozen_nodes = []
    if frozen:
        frozen_nodes = list(range(frozen_size))
        raw = [0] * frozen_size + [1] * (graph.n_nodes - frozen_size)
        options.update(coloring=Coloring(raw), frozen=(0,))
    engine = DynamicColoring(graph.copy(), **options)
    reference = ReferenceCoarsening(graph.copy(), **options)
    batched = DynamicColoring(graph.copy(), **options)
    decisions = []
    check_merge_decisions(engine, decisions)
    for update in trace:
        engine.apply(update)
        reference.apply(update)
        check_invariants(engine, frozen_nodes)
        assert np.array_equal(engine.labels, reference.labels)
        assert engine.stats.merge_tests == reference.stats.merge_tests
        assert engine.stats.merges == reference.stats.merges
    assert engine.stats.merge_gathers <= engine.stats.merge_tests
    assert sum(map(len, decisions)) == engine.stats.merge_tests
    for start in range(0, len(trace), batch):
        batched.apply_batch(trace[start:start + batch])
        check_invariants(batched, frozen_nodes)


def test_oracle_sees_rejections_and_merges():
    """The differential check bites on a fixed trace: the pass tests
    pairs the screen rejects, pairs it passes, and pairs that merge."""
    graph = karate_club()
    engine = DynamicColoring(graph, q_tolerance=2.0, drift_budget=10.0)
    decisions = []
    check_merge_decisions(engine, decisions)
    edges = sorted((u, v) for u, v, _ in graph.edges())
    picks = np.random.default_rng(2).choice(len(edges), 25, replace=False)
    for pick in picks:
        engine.apply(EdgeUpdate.delete(*edges[int(pick)]))
    stats = engine.stats
    assert stats.merges > 0
    assert 0 < stats.merge_gathers < stats.merge_tests
    assert sum(map(len, decisions)) == stats.merge_tests
    assert sum(map(sum, decisions)) == stats.merges
