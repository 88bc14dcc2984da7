"""Tests for the color-pivot betweenness approximation."""

import numpy as np
import pytest

from repro.centrality.approx import approx_betweenness, pivot_betweenness
from repro.centrality.brandes import betweenness_centrality
from repro.core.partition import Coloring
from repro.graphs.generators import barabasi_albert, erdos_renyi
from repro.utils.stats import spearman_rho


class TestPivotBetweenness:
    def test_discrete_coloring_is_exact(self):
        """One pivot per singleton color = plain Brandes."""
        graph = erdos_renyi(20, 0.3, seed=0)
        exact = betweenness_centrality(graph)
        scores, reps = pivot_betweenness(
            graph, Coloring.discrete(20), seed=1
        )
        assert np.allclose(scores, exact)
        assert sorted(reps.tolist()) == list(range(20))

    def test_stable_like_coloring_weights_by_size(self):
        """With k colors, exactly k dependency passes are performed and
        scaled by class size — scores stay in the exact scale."""
        graph = barabasi_albert(60, 2, seed=1)
        coloring = Coloring(np.arange(60) % 5)
        scores, reps = pivot_betweenness(graph, coloring, seed=2)
        assert len(reps) == 5
        assert scores.shape == (60,)
        assert np.all(scores >= 0)

    def test_multiple_pivots(self):
        graph = barabasi_albert(40, 2, seed=2)
        coloring = Coloring(np.arange(40) % 4)
        _, reps = pivot_betweenness(
            graph, coloring, seed=3, pivots_per_color=3
        )
        assert len(reps) == 12


class TestApproxBetweenness:
    def test_correlation_improves_with_colors(self):
        graph = barabasi_albert(300, 3, seed=4)
        exact = betweenness_centrality(graph)
        rho_small = spearman_rho(
            exact, approx_betweenness(graph, n_colors=5, seed=0).scores
        )
        rho_large = spearman_rho(
            exact, approx_betweenness(graph, n_colors=80, seed=0).scores
        )
        assert rho_large > rho_small
        assert rho_large > 0.9

    def test_result_fields(self):
        graph = barabasi_albert(100, 2, seed=5)
        result = approx_betweenness(graph, n_colors=10, seed=0)
        assert result.n_colors <= 10
        assert result.timings.total > 0
        assert result.scores.shape == (100,)

    def test_needs_stopping_rule(self):
        graph = barabasi_albert(30, 2, seed=6)
        with pytest.raises(ValueError):
            approx_betweenness(graph)

    def test_deterministic_given_seed(self):
        graph = barabasi_albert(80, 2, seed=7)
        a = approx_betweenness(graph, n_colors=8, seed=42).scores
        b = approx_betweenness(graph, n_colors=8, seed=42).scores
        assert np.allclose(a, b)
