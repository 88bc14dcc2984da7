"""The maintained witness state and the split sequence it drives.

Rothko keeps, next to its two ``k×k`` error matrices, each row's
maximum and first argmax of the weighted and raw out/in errors, and
picks every witness from those row maxima in ``O(k)``.  Two guards pin
that down:

* a property sweep over small adversarial digraphs (self-loops, zero
  and negative weights, duplicate arcs, isolated nodes), where after
  every split ``_find_witness()`` must equal the ``O(k^2)`` full scan
  ``_scan_witness()`` and ``verify_state`` must hold — under absolute
  and relative error, witness exponents and frozen colors.
  ``_EDGE_CHUNK`` is shrunk to one arc, so the edge budget is ``n``:
  rows rescan at most four at a time, and a split with more than ``n``
  arcs is gathered in chunks, while one with at most ``n`` arcs is
  still gathered once (``tests/core/test_split_forms.py`` forces each
  split form on every split).  CI reruns it with the longer ``ci``
  hypothesis profile (``--hypothesis-profile=ci``);
* a recorded split sequence: the witness tuples of the first 300
  greedy splits on three registry stand-ins at small scales, recorded
  with the earlier engine (dense degree slices and a full witness scan
  per split).  The same inputs must still walk the same splits.
"""

import json
import pathlib
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import rothko as rothko_module
from repro.core.partition import Coloring
from repro.core.rothko import Rothko

FIXTURE = (
    pathlib.Path(__file__).parent / "fixtures" / "rothko_split_sequences.json"
)

#: arc weights the sweep draws from: zeros and negatives included
WEIGHTS = (0.0, 1.0, 2.0, 0.5, 3.0, -1.0, -2.5)
#: witness exponents (alpha, beta): the paper's max-flow, LP and
#: centrality settings plus an uneven pair
EXPONENTS = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.5, 2.0))


@st.composite
def small_digraphs(draw):
    """A CSR adjacency of up to 10 nodes and 30 arcs.

    Arcs are drawn with replacement (duplicates), heads may equal tails
    (self-loops), and nodes need not appear in any arc (isolated).  Half
    the graphs keep their duplicates as separate, unsorted CSR entries.
    """
    n = draw(st.integers(1, 10))
    nodes = st.integers(0, n - 1)
    arc = st.tuples(nodes, nodes, st.sampled_from(WEIGHTS))
    arcs = draw(st.lists(arc, max_size=30))
    tails = np.array([a[0] for a in arcs], dtype=np.int64)
    heads = np.array([a[1] for a in arcs], dtype=np.int64)
    weights = np.array([a[2] for a in arcs], dtype=np.float64)
    if draw(st.booleans()):
        return sp.csr_matrix((weights, (tails, heads)), shape=(n, n))
    order = np.argsort(tails, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(tails, minlength=n))])
    return sp.csr_matrix(
        (weights[order], heads[order], indptr), shape=(n, n)
    )


def _same_witness(fast, scan):
    """Witness tuples equal, NaN scores included."""
    return fast[2:] == scan[2:] and np.array_equal(
        fast[:2], scan[:2], equal_nan=True
    )


class TestWitnessMatchesFullScan:
    @given(
        adjacency=small_digraphs(),
        exponents=st.sampled_from(EXPONENTS),
        initial_labels=st.lists(st.integers(0, 2), min_size=10, max_size=10),
        frozen=st.booleans(),
    )
    @settings(deadline=None)
    def test_after_every_split(
        self, adjacency, exponents, initial_labels, frozen
    ):
        with mock.patch.object(rothko_module, "_EDGE_CHUNK", 1):
            self._sweep(adjacency, exponents, initial_labels, frozen)

    @staticmethod
    def _sweep(adjacency, exponents, initial_labels, frozen):
        n = adjacency.shape[0]
        alpha, beta = exponents
        initial = Coloring(np.array(initial_labels[:n]))
        for mode in ("absolute", "relative"):
            graph = adjacency if mode == "absolute" else abs(adjacency)
            engine = Rothko(
                graph,
                initial=initial,
                frozen=(0,) if frozen else (),
                alpha=alpha,
                beta=beta,
                error_mode=mode,
            )
            assert _same_witness(
                engine._find_witness(), engine._scan_witness()
            )
            for _ in engine.steps(max_colors=n):
                assert _same_witness(
                    engine._find_witness(), engine._scan_witness()
                )
                engine.verify_state()


def _coloring_spec(dataset: str, task: str, scale: float):
    from repro.datasets.registry import load_flow, load_graph, load_lp
    from repro.pipeline import CentralityTask, LPTask, MaxFlowTask

    if task == "maxflow":
        return MaxFlowTask(load_flow(dataset, scale=scale)).coloring_spec()
    if task == "lp":
        return LPTask(load_lp(dataset, scale=scale)).coloring_spec()
    return CentralityTask(load_graph(dataset, scale=scale)).coloring_spec()


class TestRecordedSplitSequence:
    @pytest.mark.parametrize(
        "dataset", ["tsukuba0", "supportcase10", "astroph"]
    )
    def test_reproduces_recorded_witnesses(self, dataset):
        record = json.loads(FIXTURE.read_text())[dataset]
        engine = _coloring_spec(
            dataset, record["task"], record["scale"]
        ).build_engine()
        splits = len(record["witnesses"])
        witnesses = [
            list(step.witness) for step in engine.steps(max_iterations=splits)
        ]
        assert witnesses == record["witnesses"]
