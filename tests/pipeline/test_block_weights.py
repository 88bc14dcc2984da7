"""The pipeline's block weights against the paper's definition.

Every reduction starts from ``W = S^T A S`` with
``W[i, j] = w(P_i, P_j)`` (Sec. 3.2, Eq. 1).  This property sweep checks
:meth:`~repro.pipeline.cache.ProgressiveRun.weights` against
:func:`~repro.core.reference.block_weight_reference`, which sums the
dense adjacency over each pair of classes directly, at every checkpoint
of a sweep:

* over small digraphs with self-loops, stored zero weights, negative
  weights (the LP extended matrix has them) and isolated nodes;
* with and without a pinned initial partition and frozen colors;
* on schedules visited in ascending, descending or repeated order, and
  a checkpoint gives the same matrix whatever order its schedule
  visits it in.

CI reruns it with the longer ``ci`` hypothesis profile
(``--hypothesis-profile=ci``).
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import Coloring
from repro.core.reference import block_weight_reference
from repro.pipeline import ColoringSpec, ProgressiveRun

#: arc weights the sweep draws from: zeros and negatives included
WEIGHTS = (0.0, 1.0, 2.0, 0.5, 3.0, -1.0, -2.5, 0.1)
ORDERS = ("ascending", "descending", "repeated")


@st.composite
def coloring_specs(draw):
    """A spec over a digraph of up to 12 nodes and 40 arcs.

    Arcs are drawn with replacement, heads may equal tails (self-loops),
    zero weights stay stored entries, and nodes need not appear in any
    arc (isolated).  Half the specs pin an initial partition of up to
    three colors, some of them frozen.
    """
    n = draw(st.integers(1, 12))
    nodes = st.integers(0, n - 1)
    arcs = draw(
        st.lists(st.tuples(nodes, nodes, st.sampled_from(WEIGHTS)),
                 max_size=40)
    )
    tails, heads, weights = (
        np.array([arc[part] for arc in arcs], dtype=dtype)
        for part, dtype in ((0, np.int64), (1, np.int64), (2, np.float64))
    )
    adjacency = sp.csr_matrix((weights, (tails, heads)), shape=(n, n))
    if not draw(st.booleans()):
        return ColoringSpec(adjacency)
    initial = Coloring(
        np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    )
    frozen = draw(st.sets(st.integers(0, initial.n_colors - 1)))
    return ColoringSpec(adjacency, initial=initial, frozen=tuple(frozen))


@st.composite
def schedules(draw, n_max: int = 13):
    """Color budgets in ascending, descending or repeated order."""
    budgets = draw(st.lists(st.integers(1, n_max), min_size=1, max_size=5))
    order = draw(st.sampled_from(ORDERS))
    if order == "ascending":
        return sorted(budgets)
    if order == "descending":
        return sorted(budgets, reverse=True)
    return budgets + budgets


def sweep(spec: ColoringSpec, schedule: list[int]) -> dict[int, tuple]:
    """``budget -> (checkpoint, W)`` off one progressive run, each W
    checked against Eq. 1 as it is served."""
    dense = spec.adjacency.toarray()
    run = ProgressiveRun(spec)
    served = {}
    for budget in schedule:
        checkpoint = run.resolve(max_colors=budget)
        weights = run.weights(checkpoint)
        classes = run.coloring(checkpoint).classes()
        expected = np.array(
            [
                [block_weight_reference(dense, left, right)
                 for right in classes]
                for left in classes
            ]
        )
        np.testing.assert_allclose(weights, expected, rtol=1e-12, atol=1e-12)
        if budget in served:  # a repeated visit serves the same matrix
            assert served[budget][0] == checkpoint
            np.testing.assert_array_equal(served[budget][1], weights)
        served[budget] = (checkpoint, weights)
    return served


class TestBlockWeightsMatchEq1:
    @given(spec=coloring_specs(), schedule=schedules())
    @settings(deadline=None)
    def test_every_checkpoint_in_any_order(self, spec, schedule):
        served = sweep(spec, schedule)
        # A fresh run visiting the schedule backwards reaches the same
        # checkpoints and serves the same matrices.
        for budget, (checkpoint, weights) in sweep(
            spec, schedule[::-1]
        ).items():
            assert served[budget][0] == checkpoint
            np.testing.assert_array_equal(served[budget][1], weights)
