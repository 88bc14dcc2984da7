"""The incremental-maintenance invariant of the Rothko engine.

The memory-flat engine keeps the two error matrices as persistent
``k x k`` state, patched after every split from the split color's
gathered arcs (no dense degree matrices exist), plus the per-row
witness maxima derived from them.  These tests
certify that after *every* split — across directed/undirected,
weighted/unweighted, frozen, and relative-mode graphs — the maintained
state is exactly what a from-scratch recompute
(:func:`repro.core.qerror.error_matrices`) produces.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.partition import Coloring
from repro.core.qerror import color_degree_matrices, error_matrices
from repro.core.rothko import Rothko
from repro.graphs.generators import barabasi_albert
from tests.conftest import random_adjacency


def _random_weighted(n, density, seed, negative=False):
    generator = np.random.default_rng(seed)
    dense = generator.random((n, n)) * (generator.random((n, n)) < density)
    if negative:
        dense *= np.sign(generator.standard_normal((n, n)))
    np.fill_diagonal(dense, 0.0)
    return sp.csr_matrix(dense)


def _canonical_permutation(engine):
    """Map engine color ids onto the canonical ids of ``Coloring(labels)``."""
    canonical = Coloring(engine.labels)
    return np.array(
        [canonical.color_of(int(members[0])) for members in engine._members],
        dtype=np.int64,
    )


def _assert_matches_scratch(engine, adjacency):
    """Maintained error state == qerror recomputed from scratch."""
    out_err, in_err = engine.error_matrices()
    coloring = Coloring(engine.labels)
    if engine.error_mode == "absolute":
        scratch_out, scratch_in = error_matrices(adjacency, coloring)
    else:
        # qerror's error_matrices is absolute-mode; derive the relative
        # spread from the same scratch degree matrices instead.
        from repro.core.kernels import grouped_minmax_by_labels, relative_spread

        d_out, d_in = color_degree_matrices(adjacency, coloring)
        upper, lower = grouped_minmax_by_labels(
            d_out, coloring.labels, coloring.n_colors
        )
        scratch_out = relative_spread(upper, lower)
        upper, lower = grouped_minmax_by_labels(
            d_in, coloring.labels, coloring.n_colors
        )
        scratch_in = relative_spread(upper, lower).T
    # Engine labels and canonical labels may permute color ids.
    perm = _canonical_permutation(engine)
    _assert_allclose_scaled(out_err, scratch_out[np.ix_(perm, perm)])
    _assert_allclose_scaled(in_err, scratch_in[np.ix_(perm, perm)])


def _assert_allclose_scaled(actual, desired):
    """allclose with atol scaled by magnitude: subtraction residues on
    exact-zero entries are relative to the weight scale, and rtol
    contributes nothing where the reference is zero."""
    finite = desired[np.isfinite(desired)]
    scale = max(1.0, float(np.abs(finite).max())) if finite.size else 1.0
    np.testing.assert_allclose(
        actual, desired, atol=1e-8 * scale, rtol=1e-9
    )


def _drive_and_check(engine, adjacency, max_colors):
    splits = 0
    for _ in engine.steps(max_colors=max_colors):
        engine.verify_state()
        _assert_matches_scratch(engine, adjacency)
        splits += 1
    assert splits > 0, "case never split; invariant untested"


class TestIncrementalMatchesScratch:
    """After every split, U/L/Err state == scratch recompute."""

    @pytest.mark.parametrize("seed", range(5))
    def test_directed_unweighted(self, seed):
        adjacency = random_adjacency(30, 0.25, seed)
        _drive_and_check(Rothko(adjacency), adjacency, max_colors=12)

    @pytest.mark.parametrize("seed", range(5))
    def test_directed_weighted(self, seed):
        adjacency = _random_weighted(28, 0.3, seed)
        _drive_and_check(Rothko(adjacency), adjacency, max_colors=12)

    @pytest.mark.parametrize("seed", range(3))
    def test_negative_weights(self, seed):
        adjacency = _random_weighted(24, 0.3, seed, negative=True)
        _drive_and_check(Rothko(adjacency), adjacency, max_colors=10)

    @pytest.mark.parametrize("seed", range(3))
    def test_undirected_scale_free(self, seed):
        adjacency = barabasi_albert(60, 3, seed=seed).to_csr()
        _drive_and_check(Rothko(adjacency), adjacency, max_colors=14)

    @pytest.mark.parametrize("seed", range(3))
    def test_weighted_witness_exponents(self, seed):
        adjacency = _random_weighted(26, 0.35, seed + 10)
        engine = Rothko(adjacency, alpha=1.0, beta=0.5)
        _drive_and_check(engine, adjacency, max_colors=10)

    @pytest.mark.parametrize("seed", range(3))
    def test_geometric_split(self, seed):
        adjacency = barabasi_albert(50, 3, seed=seed + 5).to_csr()
        engine = Rothko(adjacency, split_mean="geometric")
        _drive_and_check(engine, adjacency, max_colors=12)

    @pytest.mark.parametrize("seed", range(3))
    def test_large_weights(self, seed):
        """Weights spanning 1e6-1e9: verify_state's tolerance must scale
        with magnitude (subtraction residues are relative, not absolute)."""
        generator = np.random.default_rng(seed + 50)
        dense = generator.uniform(1e6, 1e9, (40, 40)) * (
            generator.random((40, 40)) < 0.15
        )
        np.fill_diagonal(dense, 0.0)
        adjacency = sp.csr_matrix(dense)
        _drive_and_check(Rothko(adjacency), adjacency, max_colors=15)

    @pytest.mark.parametrize("seed", range(5))
    def test_geometric_split_weighted_sparse(self, seed):
        """Float weights on a sparse graph: the geometric threshold needs
        exactly-zero maintained degrees (no subtraction residues)."""
        adjacency = _random_weighted(120, 0.05, seed + 40)
        engine = Rothko(adjacency, split_mean="geometric")
        _drive_and_check(engine, adjacency, max_colors=30)

    @pytest.mark.parametrize("seed", range(4))
    def test_frozen_colors(self, seed):
        adjacency = _random_weighted(30, 0.3, seed + 20)
        generator = np.random.default_rng(seed)
        initial = Coloring(generator.integers(0, 3, size=30))
        engine = Rothko(adjacency, initial=initial, frozen=(0,))
        _drive_and_check(engine, adjacency, max_colors=12)
        # The frozen class must have survived intact.
        frozen_members = initial.members(0)
        assert np.unique(engine.labels[frozen_members]).size == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_relative_mode(self, seed):
        adjacency = _random_weighted(26, 0.35, seed + 30)
        engine = Rothko(adjacency, error_mode="relative")
        _drive_and_check(engine, adjacency, max_colors=10)

    @pytest.mark.parametrize("seed", range(2))
    def test_relative_mode_with_initial(self, seed):
        adjacency = barabasi_albert(40, 2, seed=seed).to_csr()
        generator = np.random.default_rng(seed + 7)
        initial = Coloring(generator.integers(0, 2, size=40))
        engine = Rothko(adjacency, initial=initial, error_mode="relative")
        _drive_and_check(engine, adjacency, max_colors=10)


class TestMaintainedDegreeColumns:
    """The maintained U/L state stays numerically tight even across
    long split chains (accumulated drift would show up here first)."""

    def test_long_split_chain_weighted(self):
        adjacency = _random_weighted(120, 0.2, 99)
        engine = Rothko(adjacency)
        for _ in engine.steps(max_colors=60):
            pass
        engine.verify_state()

    def test_long_split_chain_relative(self):
        adjacency = barabasi_albert(150, 4, seed=3).to_csr()
        engine = Rothko(adjacency, error_mode="relative")
        for _ in engine.steps(max_colors=40):
            pass
        engine.verify_state()


class TestLazySnapshots:
    """RothkoStep.coloring is materialized on demand yet remains a
    faithful, immutable snapshot even after the loop advances."""

    def test_snapshots_reconstructed_after_run(self):
        adjacency = random_adjacency(30, 0.3, 1)
        engine = Rothko(adjacency)
        steps = list(engine.steps(max_colors=10))
        # Replay against a second engine driven step by step.
        shadow = Rothko(adjacency)
        expected = []
        for step in shadow.steps(max_colors=10):
            expected.append(step.coloring)  # materialized while current
        for step, want in zip(steps, expected):
            assert step.coloring == want

    def test_snapshot_cached(self, karate):
        engine = Rothko(karate)
        step = next(engine.steps(max_colors=5))
        assert step.coloring is step.coloring

    def test_snapshot_immutable(self, karate):
        engine = Rothko(karate)
        for step in engine.steps(max_colors=5):
            assert not step.coloring.labels.flags.writeable


class TestChunkedRefreshPaths:
    """Certify the multi-chunk refresh and both forms of each refresh
    half, not just the single-chunk common case.

    The production edge budget (``_EDGE_CHUNK``) is far larger than any
    test graph, so these cases shrink it alone: every color whose arcs
    exceed ``max(_EDGE_CHUNK, n)`` then refreshes in several chunks.
    The dense and sparse forms are picked from sizes, and spies record
    which ones each case reached — the dense ``2k x rows`` slice vs the
    sorted (member, color) pairs for row-groups, the accumulated
    member-order ``reduceat`` vs the adjacent-node cells for columns —
    while ``verify_state`` runs after every split.
    """

    FORMS = (
        "_fold_row_slice", "_fold_row_pairs",
        "_dense_columns", "_column_extrema",
    )

    def _shrink(self, monkeypatch):
        from collections import Counter

        from repro.core import rothko as rothko_module

        monkeypatch.setattr(rothko_module, "_EDGE_CHUNK", 16)
        reached = Counter()

        def spy(name):
            method = getattr(Rothko, name)

            def wrapped(*args, **kwargs):
                reached[name] += 1
                return method(*args, **kwargs)

            return wrapped

        for name in self.FORMS:
            monkeypatch.setattr(Rothko, name, spy(name))
        chunks = Rothko._edge_chunks

        def counting_chunks(counts, budget):
            bounds = chunks(counts, budget)
            reached["multi_chunk"] += len(bounds) > 1
            return bounds

        monkeypatch.setattr(
            Rothko, "_edge_chunks", staticmethod(counting_chunks)
        )
        return reached

    @pytest.mark.parametrize("seed", range(3))
    def test_accumulate_path(self, monkeypatch, seed):
        """Multi-chunk splits whose columns accumulate in arc order and
        reduce densely, next to dense row-group slices."""
        reached = self._shrink(monkeypatch)
        adjacency = _random_weighted(60, 0.2, seed)
        _drive_and_check(Rothko(adjacency), adjacency, max_colors=16)
        assert reached["multi_chunk"] and reached["_dense_columns"]
        assert reached["_fold_row_slice"]

    @pytest.mark.parametrize("seed", range(3))
    def test_collect_path(self, monkeypatch, seed):
        """Splits whose columns are collected from the adjacent nodes'
        cells, next to sparse (member, color) row-group pairs."""
        reached = self._shrink(monkeypatch)
        adjacency = _random_weighted(60, 0.06, seed + 5)
        _drive_and_check(Rothko(adjacency), adjacency, max_colors=24)
        assert reached["multi_chunk"] and reached["_column_extrema"]
        assert reached["_fold_row_pairs"]

    @pytest.mark.parametrize("seed", range(2))
    def test_collect_path_geometric(self, monkeypatch, seed):
        """Exact-zero degree entries must survive the chunked and sparse
        forms (the geometric threshold crashes on residues)."""
        reached = self._shrink(monkeypatch)
        adjacency = _random_weighted(80, 0.08, seed + 20)
        engine = Rothko(adjacency, split_mean="geometric")
        _drive_and_check(engine, adjacency, max_colors=20)
        assert all(reached[name] for name in self.FORMS)

    @pytest.mark.parametrize("seed", range(2))
    def test_relative_mode_chunked(self, monkeypatch, seed):
        reached = self._shrink(monkeypatch)
        adjacency = _random_weighted(50, 0.25, seed + 9)
        engine = Rothko(adjacency, error_mode="relative")
        _drive_and_check(engine, adjacency, max_colors=14)
        assert reached["multi_chunk"]

    @pytest.mark.parametrize("seed", range(2))
    def test_initial_many_colors_chunked(self, monkeypatch, seed):
        """The initial build is the one refresh of more than two colors:
        every color of a many-color ``initial`` partition goes through
        the chunked refresh, two per pass (an odd count leaves a
        one-color pass)."""
        reached = self._shrink(monkeypatch)
        adjacency = _random_weighted(50, 0.25, seed + 13)
        labels = np.random.default_rng(seed).integers(0, 9, size=50)
        engine = Rothko(adjacency, initial=Coloring(labels))
        assert engine.k == 9
        assert reached["multi_chunk"]
        engine.verify_state()
        _assert_matches_scratch(engine, adjacency)
        _drive_and_check(engine, adjacency, max_colors=20)
