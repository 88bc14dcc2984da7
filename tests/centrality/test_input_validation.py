"""Brandes input is validated once, at its boundary.

Out-of-range sources, non-finite source weights and a pivot count
below one raise a ``ValueError`` that names the first bad value —
instead of a ``nan`` score vector, an empty answer or a numpy error
from deep inside a kernel.
"""

import numpy as np
import pytest

from repro.centrality.approx import pivot_betweenness
from repro.centrality.brandes import betweenness_centrality
from repro.core.partition import Coloring
from repro.graphs.generators import karate_club


@pytest.fixture
def karate():
    return karate_club()


class TestSources:
    @pytest.mark.parametrize("bad", [-1, 34, 10**9])
    def test_out_of_range_source_rejected(self, karate, bad):
        with pytest.raises(ValueError, match=rf"source {bad} is not a node"):
            betweenness_centrality(karate, sources=[0, bad])

    def test_first_bad_source_named(self, karate):
        with pytest.raises(ValueError, match="source 34 "):
            betweenness_centrality(karate, sources=[5, 34, -1])

    def test_weighted_variant_checks_too(self, karate):
        with pytest.raises(ValueError, match="source 34 "):
            betweenness_centrality(karate, sources=[34], weighted=True)


class TestSourceWeights:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, karate, bad):
        with pytest.raises(ValueError, match=f"source weight {bad} "):
            betweenness_centrality(
                karate, sources=[0, 1], source_weights=[1.0, bad]
            )

    def test_negative_finite_weight_is_a_signed_combination(self, karate):
        unit = betweenness_centrality(karate, sources=[0, 7])
        first = betweenness_centrality(karate, sources=[0])
        signed = betweenness_centrality(
            karate, sources=[0, 7], source_weights=[-2.0, 1.0]
        )
        assert np.allclose(signed, unit - 3.0 * first)


class TestPivotsPerColor:
    @pytest.mark.parametrize("bad", [0, -1])
    def test_below_one_rejected(self, karate, bad):
        coloring = Coloring(np.arange(34) % 4)
        with pytest.raises(
            ValueError, match=f"pivots_per_color must be >= 1, got {bad}"
        ):
            pivot_betweenness(karate, coloring, pivots_per_color=bad)
