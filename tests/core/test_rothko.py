"""Tests for the Rothko algorithm (Algorithm 1)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.partition import Coloring
from repro.core.qerror import max_q_err
from repro.core.reference import rothko_step_reference
from repro.core.rothko import Rothko, coerce_adjacency, eps_color, q_color
from repro.exceptions import ColoringError
from repro.graphs.generators import barabasi_albert, karate_club
from tests.conftest import random_adjacency


class TestCoerceAdjacency:
    def test_weighted_digraph(self, small_directed):
        matrix = coerce_adjacency(small_directed)
        assert matrix.shape == (6, 6)

    def test_scipy_passthrough(self):
        matrix = sp.csr_matrix(np.eye(3))
        assert coerce_adjacency(matrix).shape == (3, 3)

    def test_numpy(self):
        assert coerce_adjacency(np.zeros((2, 2))).shape == (2, 2)

    def test_networkx(self, karate):
        matrix = coerce_adjacency(karate.to_networkx())
        assert matrix.shape == (34, 34)

    def test_nonsquare_rejected(self):
        with pytest.raises(ColoringError):
            coerce_adjacency(np.zeros((2, 3)))

    def test_garbage_rejected(self):
        with pytest.raises(TypeError):
            coerce_adjacency("not a graph")

    def test_duplicate_and_unsorted_entries_canonicalized(self):
        """Every degree sum must come out the same whichever side of
        the adjacency gathers it, so raw CSR input is canonicalized
        (duplicates summed, indices sorted) — on a copy."""
        data = np.array([0.3, 0.1, 0.2, 0.7])
        indices = np.array([2, 1, 1, 0])
        indptr = np.array([0, 3, 3, 4])
        matrix = sp.csr_matrix((data, indices, indptr), shape=(3, 3))
        coerced = coerce_adjacency(matrix)
        assert coerced.has_canonical_format
        np.testing.assert_array_equal(coerced.toarray(), matrix.toarray())
        np.testing.assert_array_equal(matrix.indices, indices)  # untouched


class TestNonFiniteWeights:
    """Raw-matrix input with a NaN or infinite weight fails loudly,
    naming the first bad arc, instead of coloring into ``nan``."""

    @staticmethod
    def _dense(bad):
        dense = np.zeros((4, 4))
        dense[0, 1] = dense[1, 2] = dense[3, 0] = 1.0
        dense[2, 3] = bad
        return dense

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("color", [q_color, eps_color])
    @pytest.mark.parametrize("form", ["csr", "ndarray"])
    def test_rejected_naming_the_arc(self, bad, color, form):
        dense = self._dense(bad)
        graph = sp.csr_matrix(dense) if form == "csr" else dense
        with pytest.raises(ColoringError, match=r"2 -> 3"):
            color(graph, n_colors=4)

    def test_readonly_snapshot_passes_through(self):
        """Read-only data (a memmapped edge-store snapshot, validated at
        ingest) is neither copied nor rescanned."""
        matrix = sp.csr_matrix(self._dense(1.0))
        matrix.data.flags.writeable = False
        assert coerce_adjacency(matrix) is matrix


class TestQColorKarate:
    """The paper's headline example (Fig. 1)."""

    def test_six_colors_reach_q3(self, karate):
        result = q_color(karate, n_colors=6)
        assert result.n_colors == 6
        assert result.max_q_err <= 3.0

    def test_q3_needs_few_colors(self, karate):
        result = q_color(karate, q=3.0)
        assert result.n_colors <= 6
        assert max_q_err(karate.to_csr(), result.coloring) <= 3.0


class TestStoppingConditions:
    def test_color_budget_respected(self):
        adjacency = random_adjacency(30, 0.3, 1)
        result = q_color(adjacency, n_colors=7)
        assert result.n_colors <= 7

    def test_q_tolerance_respected(self):
        adjacency = random_adjacency(25, 0.3, 2)
        result = q_color(adjacency, q=2.0)
        assert max_q_err(adjacency, result.coloring) <= 2.0

    def test_q_zero_reaches_stability(self):
        """Running Rothko to q = 0 yields a stable (not necessarily
        maximum) coloring."""
        adjacency = random_adjacency(12, 0.4, 3)
        result = q_color(adjacency, q=0.0, n_colors=12)
        assert max_q_err(adjacency, result.coloring) == 0.0

    def test_needs_some_stopping_rule(self):
        with pytest.raises(ValueError):
            q_color(np.zeros((3, 3)))

    def test_bad_params(self):
        with pytest.raises(ValueError):
            q_color(np.zeros((3, 3)), n_colors=0)
        with pytest.raises(ValueError, match="got -3"):
            q_color(np.zeros((3, 3)), n_colors=-3)
        with pytest.raises(ValueError):
            q_color(np.zeros((3, 3)), q=-1.0)
        with pytest.raises(ValueError, match="q must be non-negative, got nan"):
            q_color(np.zeros((3, 3)), q=float("nan"))
        with pytest.raises(ValueError, match="eps must be non-negative, got nan"):
            eps_color(np.zeros((3, 3)), eps=float("nan"))
        with pytest.raises(ValueError):
            Rothko(np.zeros((3, 3)), split_mean="median")

    def test_infinite_q_stops_at_the_initial_partition(self):
        adjacency = random_adjacency(20, 0.4, 4)
        result = q_color(adjacency, q=float("inf"))
        assert result.n_colors == 1
        assert result.n_iterations == 0

    def test_max_iterations(self):
        adjacency = random_adjacency(20, 0.4, 4)
        result = q_color(adjacency, n_colors=20, max_iterations=3)
        assert result.n_iterations <= 3


class TestValidity:
    @pytest.mark.parametrize("seed", range(6))
    def test_always_a_valid_partition(self, seed):
        adjacency = random_adjacency(20, 0.35, seed)
        result = q_color(adjacency, n_colors=8)
        result.coloring.validate()
        assert result.coloring.n == 20

    @pytest.mark.parametrize("seed", range(6))
    def test_reported_q_err_is_exact(self, seed):
        adjacency = random_adjacency(18, 0.35, seed)
        result = q_color(adjacency, n_colors=6)
        assert result.max_q_err == pytest.approx(
            max_q_err(adjacency, result.coloring)
        )

    def test_monotone_refinement(self):
        """Each step refines the previous coloring by exactly one split."""
        adjacency = random_adjacency(15, 0.4, 7)
        engine = Rothko(adjacency)
        previous = engine.coloring()
        for step in engine.steps(max_colors=8):
            assert step.coloring.refines(previous) is False or True
            assert step.coloring.n_colors == previous.n_colors + 1
            assert step.coloring.refines(previous)
            previous = step.coloring


class TestWitnessAgainstReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_first_witness_error_matches(self, seed):
        """The engine's first weighted witness error equals the
        brute-force reference's (tie-free inputs give identical pairs)."""
        generator = np.random.default_rng(seed)
        n = int(generator.integers(4, 10))
        adjacency = random_adjacency(n, 0.5, seed)
        initial = Coloring(generator.integers(0, 3, size=n))
        engine = Rothko(adjacency, initial=initial, alpha=1.0, beta=0.5)
        raw, weighted, i, j, direction = engine._find_witness()
        expected_weighted, _ = rothko_step_reference(
            adjacency.toarray(), engine.coloring(), alpha=1.0, beta=0.5
        )
        assert weighted == pytest.approx(expected_weighted)

    def test_in_witness_tie_takes_the_row_major_first(self):
        """Two in-direction errors tie at 15: ``Err_in[1, 0]`` (color 1's
        members receive 15 and 0 from color 0) and ``Err_in[0, 1]``.
        The full scan's row-major first argmax over (target, split) is
        target 0, split 1 — not the first natural row holding the
        maximum (row 0, target 1)."""
        dense = np.zeros((5, 5))
        dense[[0, 1, 2], 3] = 5.0
        dense[3, 0] = dense[4, 2] = 15.0
        engine = Rothko(
            sp.csr_matrix(dense), initial=Coloring([0, 0, 0, 1, 1])
        )
        assert engine._scan_witness() == (15.0, 15.0, 0, 1, "in")
        assert engine._find_witness() == engine._scan_witness()


class TestInitialAndFrozen:
    def test_initial_partition_respected(self):
        adjacency = random_adjacency(10, 0.5, 0)
        initial = Coloring([0] * 5 + [1] * 5)
        result = Rothko(adjacency, initial=initial).run(max_colors=4)
        assert result.coloring.refines(initial)

    def test_frozen_color_never_split(self):
        adjacency = random_adjacency(12, 0.5, 1)
        initial = Coloring([0] * 6 + [1] * 6)
        engine = Rothko(adjacency, initial=initial, frozen=(0,))
        engine.run(max_colors=8)
        # Color 0's members must still share one color.
        final_labels = engine.labels[:6]
        assert len(set(final_labels.tolist())) == 1

    def test_frozen_out_of_range(self):
        with pytest.raises(ColoringError):
            Rothko(np.zeros((3, 3)), frozen=(5,))
        # A negative id would mask whichever color is currently last.
        initial = Coloring([0, 0, 1])
        with pytest.raises(ColoringError, match="out of range"):
            Rothko(np.zeros((3, 3)), initial=initial, frozen=(-1,))

    def test_initial_size_mismatch(self):
        with pytest.raises(ColoringError):
            Rothko(np.zeros((3, 3)), initial=Coloring([0, 1]))

    def test_coloring_at_below_initial_partition_raises(self, karate):
        """Rothko never merges, so no state below the initial partition
        ever existed: asking for one names the request and the initial
        count instead of merging initial colors."""
        initial = Coloring(np.arange(34) % 3)
        engine = Rothko(karate, initial=initial)
        steps = list(engine.steps(max_iterations=3))
        assert engine.k == 6
        assert engine.coloring_at(3) == initial
        for n_colors in (0, 1, 2):
            with pytest.raises(ColoringError, match=rf"{n_colors} colors.*3"):
                engine.coloring_at(n_colors)
        assert [step.coloring.n_colors for step in steps] == [4, 5, 6]


class TestSplitMeans:
    def test_geometric_on_scale_free(self):
        graph = barabasi_albert(200, 3, seed=0)
        arithmetic = q_color(graph, n_colors=10, split_mean="arithmetic")
        geometric = q_color(graph, n_colors=10, split_mean="geometric")
        # Geometric splits should be less unbalanced: its largest color
        # should not dominate as much (Sec. 5.2 discussion).  Just check
        # both produce valid 10-colorings and geometric's error is finite.
        assert arithmetic.n_colors == geometric.n_colors == 10
        assert geometric.max_q_err < np.inf

    def test_geometric_rejects_negative_weights(self):
        dense = np.array([[0.0, -1.0, 2.0]] * 3)
        np.fill_diagonal(dense, 0.0)
        engine = Rothko(sp.csr_matrix(dense), split_mean="geometric")
        with pytest.raises(ValueError):
            engine.run(max_colors=3)


class TestAnytimeInterface:
    def test_steps_yield_snapshots(self, karate):
        engine = Rothko(karate)
        steps = list(engine.steps(max_colors=5))
        assert len(steps) == 4  # 1 -> 5 colors
        assert [s.n_colors for s in steps] == [2, 3, 4, 5]
        assert all(s.elapsed >= 0 for s in steps)
        # q error before each split is non-increasing overall trend is not
        # guaranteed, but it must be positive (otherwise no split).
        assert all(s.q_err_before > 0 for s in steps)

    def test_interruptible(self, karate):
        engine = Rothko(karate)
        iterator = engine.steps(max_colors=30)
        first = next(iterator)
        assert first.n_colors == 2
        # Abandoning the generator leaves a valid coloring behind.
        engine.coloring().validate()

    def test_singleton_graph(self):
        result = q_color(np.zeros((1, 1)), n_colors=5)
        assert result.n_colors == 1
        assert result.max_q_err == 0.0

    def test_empty_adjacency(self):
        result = q_color(np.zeros((4, 4)), n_colors=3)
        assert result.n_colors == 1  # nothing to split on


class TestAnytimeGenerator:
    """The Table-6 contract of ``Rothko.steps()``: intermediate colorings
    monotonically refine, the loop is resumable after interruption, and
    the final snapshot equals a one-shot run."""

    @pytest.mark.parametrize("seed", range(4))
    def test_monotone_refinement_chain(self, seed):
        adjacency = random_adjacency(24, 0.3, seed)
        engine = Rothko(adjacency)
        snapshots = [engine.coloring()]
        for step in engine.steps(max_colors=10):
            snapshots.append(step.coloring)
        # Every snapshot refines every earlier one (total refinement
        # chain), not just its immediate predecessor.
        for later_index in range(1, len(snapshots)):
            for earlier_index in range(later_index):
                assert snapshots[later_index].refines(snapshots[earlier_index])

    @pytest.mark.parametrize("seed", range(4))
    def test_snapshots_are_independent(self, seed):
        """Yielded colorings are immutable value objects: driving the
        loop further must not mutate snapshots already handed out."""
        adjacency = random_adjacency(20, 0.35, seed)
        engine = Rothko(adjacency)
        steps = list(engine.steps(max_colors=8))
        labels_seen = [step.coloring.labels.copy() for step in steps]
        for step, expected in zip(steps, labels_seen):
            assert np.array_equal(step.coloring.labels, expected)
            assert not step.coloring.labels.flags.writeable

    @pytest.mark.parametrize("seed", range(4))
    def test_resume_equals_one_shot(self, seed):
        """Interrupting the generator and re-entering continues exactly
        where it stopped: the final coloring matches an uninterrupted
        run on an identical engine."""
        adjacency = random_adjacency(26, 0.3, seed)
        resumed = Rothko(adjacency)
        iterator = resumed.steps(max_colors=12)
        for _ in range(3):  # consume a prefix, then abandon the iterator
            next(iterator)
        assert resumed.k == 4
        for _ in resumed.steps(max_colors=12):  # fresh generator resumes
            pass
        one_shot = Rothko(adjacency).run(max_colors=12)
        assert resumed.coloring() == one_shot.coloring

    @pytest.mark.parametrize("seed", range(4))
    def test_steps_final_equals_run(self, seed):
        """Consuming steps() to exhaustion reproduces run() exactly,
        including the reported q-error."""
        adjacency = random_adjacency(22, 0.35, seed)
        stepped = Rothko(adjacency)
        last = None
        for step in stepped.steps(max_colors=9, q_tolerance=1.0):
            last = step
        result = Rothko(adjacency).run(max_colors=9, q_tolerance=1.0)
        assert last is not None
        assert last.coloring == result.coloring
        assert max_q_err(adjacency, last.coloring) == pytest.approx(
            result.max_q_err
        )

    def test_iteration_counter_contiguous(self, karate):
        engine = Rothko(karate)
        iterations = [step.iteration for step in engine.steps(max_colors=7)]
        assert iterations == list(range(1, len(iterations) + 1))


class TestCapacityGrowth:
    def test_generous_budget_early_stop_stays_small(self):
        """Capacity tracks realized k under the budget cap: a huge
        max_colors with an early q-tolerance stop must not preallocate
        budget-sized k x k state."""
        adjacency = random_adjacency(50, 0.3, 1)
        engine = Rothko(adjacency)
        engine.run(max_colors=40000, q_tolerance=5.0)
        assert engine._err.shape[1] <= 2 * engine.k + 16

    def test_budget_caps_doubling_exactly(self):
        """A run that exhausts its budget lands on capacity == budget,
        not the next power of two."""
        adjacency = random_adjacency(80, 0.4, 2)
        engine = Rothko(adjacency)
        engine.run(max_colors=48)
        assert engine.k == 48
        # two capacity x capacity error matrices, out and in
        assert engine._err.shape == (2, 48, 48)

    def test_stale_hint_resumes_doubling(self):
        """A follow-up run past an earlier budget must not degrade to
        one capacity reallocation per split."""
        adjacency = random_adjacency(200, 0.2, 3)
        engine = Rothko(adjacency)
        engine.run(max_colors=20)
        grows = []
        original = engine._grow_to

        def counting(new_capacity):
            grows.append(new_capacity)
            return original(new_capacity)

        engine._grow_to = counting
        engine.run(q_tolerance=0.5, max_colors=None, max_iterations=160)
        # Doubling from 20: a handful of growths, not one per split.
        assert len(grows) <= 5, grows
        engine.verify_state()
