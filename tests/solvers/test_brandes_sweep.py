"""Differential sweep: the node-major Brandes batch against the flat one.

``solve_brandes_batch`` in :mod:`repro.core.backends.solver_numpy`
runs each BFS level in a dense form (a row block of the adjacency
times a ``rows x lanes`` block) or a flat form (pair by pair), picked
per level.  The reference below is the earlier lane-major kernel, kept
here verbatim with its helpers: every level runs pair by pair, node
``v`` of lane ``b`` is the key ``b * n + v``.

Hypothesis draws CSR graphs of up to 60 nodes, directed or symmetric,
with self-loops, isolated nodes and repeated column indices in a row,
and 1-40 sources with repeats and weights that include 0 and negative
values.  Each case runs three times: with ``_DENSE_WASTE`` 0 (every
level flat), huge (every level dense) and at its default, and must
match the reference at ``rtol=atol=1e-12``.  Warnings are errors: the
dense backward sweep divides by path counts only where they are
defined.

CI reruns this with the longer ``ci`` profile
(``--hypothesis-profile=ci``).
"""

from typing import List, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backends import solver_numpy

#: every level flat, every level dense, and the shipped rule
DENSE_WASTES = (0, 10**9, solver_numpy._DENSE_WASTE)


def reference_take_ranges(
    starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Concatenated ``arange(start, start + count)`` (cumsum trick)."""
    nonempty = counts > 0
    starts = starts[nonempty]
    counts = counts[nonempty]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    result = np.ones(total, dtype=np.int64)
    ends = np.cumsum(counts)
    result[0] = starts[0]
    result[ends[:-1]] = starts[1:] - starts[:-1] - counts[:-1] + 1
    return np.cumsum(result)


def reference_unique_int(values: np.ndarray) -> np.ndarray:
    """Sorted unique of an int array (sort + diff mask)."""
    if values.size <= 1:
        return values
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def reference_brandes_batch(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    weights: np.ndarray,
    n: int,
) -> np.ndarray:
    """Weighted sum of dependency vectors, all lanes in lock-step flat
    BFS (node ``v`` of lane ``b`` is the flat key ``b * n + v``)."""
    lanes = len(sources)
    size = lanes * n
    dist = np.full(size, -1, dtype=np.int32)
    sigma = np.zeros(size)
    keys = np.arange(lanes, dtype=np.int64) * n + sources
    dist[keys] = 0
    sigma[keys] = 1.0
    frontier = keys
    levels: List[Tuple[np.ndarray, np.ndarray]] = []
    depth = 0
    while frontier.size:
        nodes = frontier % n
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        positions = reference_take_ranges(starts, counts)
        heads = (
            np.repeat(frontier - nodes, counts) + indices[positions]
        )
        tails = np.repeat(frontier, counts)
        crossing = dist[heads] < 0
        tails, heads = tails[crossing], heads[crossing]
        if tails.size == 0:
            break
        dist[heads] = depth + 1
        sigma += np.bincount(heads, weights=sigma[tails], minlength=size)
        levels.append((tails, heads))
        frontier = reference_unique_int(heads)
        depth += 1
    delta = np.zeros(size)
    for tails, heads in reversed(levels):
        contributions = sigma[tails] / sigma[heads] * (1.0 + delta[heads])
        delta += np.bincount(tails, weights=contributions, minlength=size)
    delta[keys] = 0.0
    return weights @ delta.reshape(lanes, n)


@st.composite
def csr_graphs(draw):
    """``(indptr, indices, n)``: a CSR adjacency whose rows keep their
    arcs in draw order, repeats included (not canonical)."""
    n = draw(st.integers(1, 60))
    node = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(node, node), max_size=4 * n))
    if draw(st.booleans()):
        # A spanning path: made symmetric below, every source reaches
        # every node, so the all-cells-reached stop is exercised too.
        arcs += [(v, v + 1) for v in range(n - 1)]
    if arcs:
        arcs += draw(st.lists(st.sampled_from(arcs), max_size=n))
    if draw(st.booleans()):
        arcs += [(head, tail) for tail, head in arcs]
    tails = np.array([tail for tail, _ in arcs], dtype=np.int64)
    heads = np.array([head for _, head in arcs], dtype=np.int64)
    order = np.argsort(tails, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    return indptr, heads[order], n


@st.composite
def batches(draw):
    indptr, indices, n = draw(csr_graphs())
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40))
    weight = st.one_of(
        st.sampled_from([0.0, 1.0, -1.0]),
        st.floats(-4.0, 4.0, allow_nan=False),
    )
    weights = draw(st.lists(weight, min_size=len(sources),
                            max_size=len(sources)))
    return (
        indptr,
        indices,
        np.array(sources, dtype=np.int64),
        np.array(weights),
        n,
    )


@pytest.mark.filterwarnings("error")
@settings(deadline=None)
@given(batches())
def test_matches_flat_reference(batch):
    expected = reference_brandes_batch(*batch)
    for waste in DENSE_WASTES:
        with mock.patch.object(solver_numpy, "_DENSE_WASTE", waste):
            got = solver_numpy.solve_brandes_batch(*batch)
        np.testing.assert_allclose(
            got, expected, rtol=1e-12, atol=1e-12,
            err_msg=f"_DENSE_WASTE={waste}",
        )


@pytest.mark.parametrize("waste", DENSE_WASTES)
def test_last_cell_reached_alone(waste):
    """One source at the end of a path: every level reaches one new
    cell, and the search must not stop before the last one."""
    indptr = np.array([0, 1, 3, 5, 6], dtype=np.int64)
    indices = np.array([1, 0, 2, 1, 3, 2], dtype=np.int64)
    batch = (indptr, indices, np.array([0]), np.array([1.0]), 4)
    with mock.patch.object(solver_numpy, "_DENSE_WASTE", waste):
        got = solver_numpy.solve_brandes_batch(*batch)
    assert got.tolist() == [0.0, 2.0, 1.0, 0.0]


@pytest.mark.parametrize("waste", DENSE_WASTES)
def test_fixed_graph_in_every_form(waste):
    """A fixed case that reaches both forms at the default rule: lanes
    crowd into a star's hub (dense levels), then one lane walks a long
    path alone (flat levels)."""
    arcs = [(0, v) for v in range(1, 9)] + [(0, 3)]
    arcs += [(v, v + 1) for v in range(9, 20)] + [(20, 20)]
    arcs += [(head, tail) for tail, head in arcs]
    tails = np.array([tail for tail, _ in arcs])
    heads = np.array([head for _, head in arcs])
    order = np.argsort(tails, kind="stable")
    indptr = np.zeros(22, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=21), out=indptr[1:])
    batch = (
        indptr,
        heads[order].astype(np.int64),
        np.array([1, 2, 3, 3, 4, 5, 6, 7, 9], dtype=np.int64),
        np.array([1.0, 2.0, 0.0, -1.0, 1.0, 1.0, 0.5, 1.0, 1.0]),
        21,
    )
    with mock.patch.object(solver_numpy, "_DENSE_WASTE", waste):
        got = solver_numpy.solve_brandes_batch(*batch)
    np.testing.assert_allclose(
        got, reference_brandes_batch(*batch), rtol=1e-12, atol=1e-12
    )
