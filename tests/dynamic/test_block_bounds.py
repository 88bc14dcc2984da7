"""The churn engine's kept block bounds against a full build.

``DynamicColoring`` keeps its ``k x k`` U/L block bounds across updates:
an arc event marks two cells stale, a split, merge or new node marks
whole colors, and a refresh re-reduces only those before a merge pass
screens a candidate (or ``max_q_err()`` reads them).  Max and min over
the same degree entries are exact, so after any update the refreshed
bounds must equal a from-scratch ``_block_bounds()`` build bit for bit,
and the kept member order must equal a fresh one.

Hypothesis replays traces of inserts (some adding nodes), deletes and
reweights in absolute and relative mode, with and without a frozen
class, and with ``merge_attempts`` 1, 3 and 64, one update at a time or
in drawn batches.  ``verify_consistency`` checks the kept cells outside
the stale sets after every update or batch without refreshing; the full
refresh runs every few of them (a drawn stride), so stale marks pile up
across splits, merges, new nodes and arc events.

CI reruns this with the longer ``ci`` profile
(``--hypothesis-profile=ci``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import Coloring
from repro.dynamic import DynamicColoring, EdgeUpdate
from repro.graphs.generators import karate_club
from repro.obs import recording
from tests.dynamic.test_trace_fuzz import TOLERANCES, scenarios


def assert_refresh_is_exact(engine):
    """Refresh the kept bounds and compare them with a full build."""
    bounds = engine._fresh_bounds()
    assert not engine._stale_colors and not engine._stale_cells
    built = engine._block_bounds()
    for name in built._fields:
        kept, scratch = getattr(bounds, name), getattr(built, name)
        assert kept.shape == scratch.shape, name
        assert kept.dtype == scratch.dtype, name
        assert kept.tobytes() == scratch.tobytes(), name


@pytest.mark.parametrize("merge_attempts", [1, 3, 64])
@settings(deadline=None)
@given(
    scenario=scenarios(),
    error_mode=st.sampled_from(["absolute", "relative"]),
    frozen=st.booleans(),
    data=st.data(),
)
def test_refreshed_bounds_equal_a_full_build(
    merge_attempts, scenario, error_mode, frozen, data
):
    graph, trace, options, frozen_size, batch = scenario
    options.update(
        error_mode=error_mode,
        merge_attempts=merge_attempts,
        q_tolerance=data.draw(
            st.sampled_from(TOLERANCES[error_mode]), label="q_tolerance"
        ),
    )
    if frozen:
        raw = [0] * frozen_size + [1] * (graph.n_nodes - frozen_size)
        options.update(coloring=Coloring(raw), frozen=(0,))
    stride = data.draw(st.integers(1, 4), label="refresh stride")
    if not data.draw(st.booleans(), label="batched"):
        batch = 1
    engine = DynamicColoring(graph, **options)
    assert_refresh_is_exact(engine)
    for step, start in enumerate(range(0, len(trace), batch), start=1):
        engine.apply_batch(trace[start:start + batch])
        engine.verify_consistency()
        if step % stride == 0:
            assert_refresh_is_exact(engine)
    assert_refresh_is_exact(engine)


def test_karate_deletions_patch_instead_of_rebuilding():
    """On a fixed trace the pass builds the bounds once and then only
    patches them, and every refresh still equals a full build."""
    graph = karate_club()
    engine = DynamicColoring(graph, q_tolerance=2.0, drift_budget=10.0)
    edges = sorted((u, v) for u, v, _ in graph.edges())
    picks = np.random.default_rng(2).choice(len(edges), 25, replace=False)
    with recording() as recorder:
        for pick in picks:
            engine.apply(EdgeUpdate.delete(*edges[int(pick)]))
            engine.verify_consistency()
            assert_refresh_is_exact(engine)
    counters = recorder.snapshot()["counters"]
    assert engine.stats.merges > 0 and engine.stats.rebuilds == 0
    assert counters["dynamic.bounds_builds"] == 1
    assert counters["dynamic.bounds_patched"] > 0
