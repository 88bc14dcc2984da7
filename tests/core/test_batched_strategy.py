"""The batched split scheduler (``strategy="batched"``).

Two contracts are enforced.  **State**: after every yielded step the
maintained flat state equals a from-scratch recompute, exactly as for
greedy (the invariant sweep re-runs `verify_state` plus the qerror
cross-check across directed/weighted/frozen/relative graphs).
**Fidelity**: at an equal color count, the batched coloring's max
q-error stays within a constant factor of greedy's — batched trades the
paper-exact split sequence for rounds of color-disjoint splits, not
for quality.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.partition import Coloring
from repro.core.rothko import Rothko, q_color
from tests.conftest import random_adjacency
from tests.core.test_incremental_invariant import (
    _assert_matches_scratch,
    _random_weighted,
)

#: fidelity contract: batched max q-error <= this factor of greedy's at
#: equal k (plus an absolute epsilon for near-zero errors)
FIDELITY_FACTOR = 2.0
FIDELITY_EPS = 1e-9


def _drive_batched_and_check(engine, adjacency, max_colors):
    splits = 0
    for _ in engine.steps(max_colors=max_colors):
        engine.verify_state()
        _assert_matches_scratch(engine, adjacency)
        splits += 1
    assert splits > 0, "case never split; invariant untested"


def _fidelity_case(adjacency, max_colors, **kwargs):
    greedy = Rothko(adjacency, **kwargs)
    greedy.run(max_colors=max_colors)
    batched = Rothko(adjacency, strategy="batched", batch_size=4, **kwargs)
    batched.run(max_colors=max_colors)
    assert batched.k == greedy.k
    greedy_err = greedy.max_q_err()
    batched_err = batched.max_q_err()
    if np.isinf(greedy_err):
        # Relative-mode colorings can sit at an inf witness (mixed
        # zero/nonzero block) at equal k for both strategies.
        assert np.isinf(batched_err) or batched_err >= 0
        return
    assert batched_err <= FIDELITY_FACTOR * greedy_err + FIDELITY_EPS


class TestBatchedInvariant:
    """Maintained state == scratch recompute after every batched step."""

    @pytest.mark.parametrize("seed", range(4))
    def test_directed_unweighted(self, seed):
        adjacency = random_adjacency(30, 0.25, seed)
        engine = Rothko(adjacency, strategy="batched", batch_size=4)
        _drive_batched_and_check(engine, adjacency, max_colors=13)

    @pytest.mark.parametrize("seed", range(4))
    def test_directed_weighted(self, seed):
        adjacency = _random_weighted(28, 0.3, seed)
        engine = Rothko(
            adjacency, strategy="batched", batch_size=3, alpha=1.0, beta=0.5
        )
        _drive_batched_and_check(engine, adjacency, max_colors=12)

    @pytest.mark.parametrize("seed", range(3))
    def test_negative_weights(self, seed):
        adjacency = _random_weighted(24, 0.3, seed, negative=True)
        engine = Rothko(adjacency, strategy="batched", batch_size=4)
        _drive_batched_and_check(engine, adjacency, max_colors=10)

    @pytest.mark.parametrize("seed", range(3))
    def test_geometric_split(self, seed):
        adjacency = _random_weighted(30, 0.3, seed + 10)
        engine = Rothko(
            adjacency, strategy="batched", batch_size=4,
            split_mean="geometric",
        )
        _drive_batched_and_check(engine, adjacency, max_colors=12)

    @pytest.mark.parametrize("seed", range(3))
    def test_relative_mode(self, seed):
        adjacency = _random_weighted(26, 0.35, seed + 30)
        engine = Rothko(
            adjacency, strategy="batched", batch_size=4,
            error_mode="relative",
        )
        _drive_batched_and_check(engine, adjacency, max_colors=10)

    @pytest.mark.parametrize("seed", range(3))
    def test_frozen_colors(self, seed):
        adjacency = _random_weighted(30, 0.3, seed + 20)
        generator = np.random.default_rng(seed)
        initial = Coloring(generator.integers(0, 3, size=30))
        engine = Rothko(
            adjacency, initial=initial, frozen=(0,),
            strategy="batched", batch_size=4,
        )
        _drive_batched_and_check(engine, adjacency, max_colors=12)
        frozen_members = initial.members(0)
        assert np.unique(engine.labels[frozen_members]).size == 1


class TestBatchedFidelity:
    """Batched reaches a q-error comparable to greedy at equal k."""

    @pytest.mark.parametrize("seed", range(5))
    def test_directed(self, seed):
        _fidelity_case(random_adjacency(32, 0.25, seed), max_colors=14)

    @pytest.mark.parametrize("seed", range(3))
    def test_weighted_exponents(self, seed):
        _fidelity_case(
            _random_weighted(30, 0.3, seed), max_colors=12,
            alpha=1.0, beta=0.5,
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_geometric(self, seed):
        _fidelity_case(
            _random_weighted(30, 0.3, seed + 5), max_colors=12,
            split_mean="geometric",
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_relative(self, seed):
        _fidelity_case(
            _random_weighted(28, 0.35, seed + 8), max_colors=12,
            error_mode="relative",
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_frozen(self, seed):
        generator = np.random.default_rng(seed + 40)
        adjacency = _random_weighted(30, 0.3, seed + 40)
        initial = Coloring(generator.integers(0, 3, size=30))
        _fidelity_case(
            adjacency, max_colors=12, initial=initial, frozen=(0,)
        )


class TestBatchedSemantics:
    def test_rejects_bad_strategy(self):
        with pytest.raises(ValueError):
            Rothko(np.zeros((3, 3)), strategy="eager")

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            Rothko(np.zeros((3, 3)), strategy="batched", batch_size=0)

    def test_color_budget_respected(self):
        adjacency = random_adjacency(40, 0.3, 0)
        result = q_color(adjacency, n_colors=11, strategy="batched")
        assert result.n_colors == 11

    def test_q_tolerance_respected(self):
        adjacency = random_adjacency(25, 0.3, 2)
        result = q_color(adjacency, q=2.0, strategy="batched")
        assert result.max_q_err <= 2.0 + 1e-9

    def test_steps_yield_one_per_split(self):
        adjacency = random_adjacency(30, 0.3, 3)
        engine = Rothko(adjacency, strategy="batched", batch_size=4)
        steps = list(engine.steps(max_colors=12))
        assert [s.iteration for s in steps] == list(range(1, len(steps) + 1))
        assert [s.n_colors for s in steps] == list(range(2, engine.k + 1))

    def test_snapshots_replay(self):
        """Lazy coloring snapshots reconstruct mid-round states."""
        adjacency = random_adjacency(28, 0.35, 4)
        engine = Rothko(adjacency, strategy="batched", batch_size=4)
        steps = list(engine.steps(max_colors=10))
        previous = Coloring.trivial(28)
        for step in steps:
            assert step.coloring.n_colors == step.n_colors
            assert step.coloring.refines(previous)
            previous = step.coloring

    def test_max_iterations_respected(self):
        adjacency = random_adjacency(30, 0.4, 5)
        result = q_color(
            adjacency, n_colors=20, max_iterations=5, strategy="batched"
        )
        assert result.n_iterations <= 5
        assert result.n_colors <= 6

    def test_run_matches_steps(self):
        adjacency = random_adjacency(26, 0.3, 6)
        stepped = Rothko(adjacency, strategy="batched")
        for _ in stepped.steps(max_colors=9):
            pass
        ran = Rothko(adjacency, strategy="batched").run(max_colors=9)
        assert stepped.coloring() == ran.coloring


class TestBatchedTolerance:
    @pytest.mark.parametrize("seed", range(4))
    def test_no_overshoot_past_tolerance(self, seed):
        """A round never includes pairs already within tolerance, so a
        q-target run does not burn batch_size-1 needless colors."""
        adjacency = random_adjacency(36, 0.3, seed)
        greedy = Rothko(adjacency).run(q_tolerance=2.0, max_colors=36)
        batched = Rothko(adjacency, strategy="batched", batch_size=8).run(
            q_tolerance=2.0, max_colors=36
        )
        assert batched.max_q_err <= 2.0 + 1e-9
        # At most one round of color overshoot relative to greedy: every
        # committed split addressed a pair above tolerance.
        assert batched.n_colors <= greedy.n_colors + 7


def test_batch_size_passthrough():
    """q_color/eps_color expose the documented batch_size knob."""
    adjacency = random_adjacency(30, 0.3, 0)
    result = q_color(
        adjacency, n_colors=9, strategy="batched", batch_size=2
    )
    assert result.n_colors == 9
    from repro.core.rothko import eps_color

    weighted = sp.csr_matrix(np.abs(adjacency.toarray()))
    relative = eps_color(
        weighted, n_colors=6, strategy="batched", batch_size=2
    )
    assert relative.n_colors == 6
