"""Every split form walks the same splits.

A Rothko split refreshes its state in one of three forms, picked from
sizes the split observes:

* **patch** — the split color's arcs fit one edge-budget chunk and do
  not reach ``n``: one gather serves the threshold and the refresh,
  and only the cells ``(g, c)``/``(g, t)`` of the colors the arcs reach
  are rewritten (``Rothko._column_extrema``);
* **whole columns** — one gather whose arcs reach ``n``: both columns
  are rewritten whole from the member-order ``reduceat``
  (``Rothko._dense_columns``);
* **chunked** — the arcs exceed the edge budget: one chunked pass for
  the threshold, another for the refresh, whole columns.

The sweep runs the same small adversarial digraphs (the strategy of
``test_witness_state``) with each form forced on every split — patch
(edge budget unbounded, ``_whole_columns`` never), whole columns
(budget unbounded, ``_whole_columns`` always) and chunked (a gather
budget of zero arcs, so every member is its own chunk, and
``_EDGE_CHUNK`` = 1) — under absolute and relative error, witness
exponents and a frozen color.  Witness tuples, ``q_err_before`` and
labels must be identical across the forms, and after every split
``_find_witness()`` must equal the ``O(k^2)`` scan ``_scan_witness()``.
CI reruns it with the ``ci`` hypothesis profile.
"""

from collections import Counter
from contextlib import ExitStack
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import rothko as rothko_module
from repro.core.partition import Coloring
from repro.core.rothko import Rothko
from tests.core.test_witness_state import EXPONENTS, small_digraphs

FORMS = ("patch", "whole", "chunked")


def _force(form: str, stack: ExitStack) -> Counter:
    """Force ``form`` on every split; returns what each split reached."""
    reached = Counter()
    if form == "chunked":
        # no split fits the gather budget, every member is its own
        # chunk, and the threshold's chunks shrink to their floor too
        stack.enter_context(mock.patch.object(rothko_module, "_EDGE_CHUNK", 1))
        stack.enter_context(
            mock.patch.object(Rothko, "_edge_budget", lambda self: 0)
        )
    else:
        stack.enter_context(
            mock.patch.object(rothko_module, "_EDGE_CHUNK", 10**9)
        )
        stack.enter_context(mock.patch.object(
            Rothko, "_whole_columns", lambda self, arcs: form == "whole"
        ))
    for name in ("_column_extrema", "_dense_columns", "_threshold_degrees"):
        method = getattr(Rothko, name)

        def spy(*args, _method=method, _name=name, **kwargs):
            reached[_name] += 1
            return _method(*args, **kwargs)

        stack.enter_context(mock.patch.object(Rothko, name, spy))
    return reached


def _walk(adjacency, initial, mode, exponents, frozen, form):
    """Every split's (witness, q_err_before, labels) with ``form``
    forced, checking the maintained witness against the full scan."""
    alpha, beta = exponents
    with ExitStack() as stack:
        reached = _force(form, stack)
        engine = Rothko(
            adjacency, initial=initial, alpha=alpha, beta=beta,
            frozen=(0,) if frozen else (), error_mode=mode,
        )
        walk = []
        for step in engine.steps(max_colors=adjacency.shape[0]):
            fast, scan = engine._find_witness(), engine._scan_witness()
            assert fast[2:] == scan[2:]
            assert np.array_equal(fast[:2], scan[:2], equal_nan=True)
            walk.append((step.witness, step.q_err_before, engine.labels.copy()))
    splits = len(walk)
    if form == "patch":
        assert reached["_column_extrema"] == splits
        assert not reached["_dense_columns"]
    elif form == "whole":
        assert reached["_dense_columns"] == splits
        assert not reached["_column_extrema"]
    else:
        assert reached["_dense_columns"] == splits
        assert reached["_threshold_degrees"] == splits
    return walk


class TestSplitForms:
    @given(
        adjacency=small_digraphs(),
        exponents=st.sampled_from(EXPONENTS),
        initial_labels=st.lists(st.integers(0, 2), min_size=10, max_size=10),
        frozen=st.booleans(),
        mode=st.sampled_from(("absolute", "relative")),
    )
    @settings(deadline=None)
    def test_forms_walk_the_same_splits(
        self, adjacency, exponents, initial_labels, frozen, mode
    ):
        if mode == "relative":
            adjacency = abs(adjacency)
        initial = Coloring(np.array(initial_labels[:adjacency.shape[0]]))
        walks = [
            _walk(adjacency, initial, mode, exponents, frozen, form)
            for form in FORMS
        ]
        reference = walks[0]
        for walk in walks[1:]:
            assert len(walk) == len(reference)
            for got, want in zip(walk, reference):
                assert got[0] == want[0]
                assert np.array_equal(got[1], want[1], equal_nan=True)
                assert np.array_equal(got[2], want[2])
