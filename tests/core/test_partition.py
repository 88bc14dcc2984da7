"""Tests for repro.core.partition."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.partition import Coloring, canonicalize_labels
from repro.exceptions import ColoringError

labels_strategy = st.lists(
    st.integers(0, 6), min_size=1, max_size=40
).map(np.array)


class TestCanonicalization:
    def test_first_occurrence_order(self):
        assert canonicalize_labels(np.array([5, 2, 5, 7])).tolist() == [
            0, 1, 0, 2,
        ]

    def test_idempotent(self):
        labels = np.array([3, 1, 3, 0, 1])
        once = canonicalize_labels(labels)
        assert np.array_equal(once, canonicalize_labels(once))

    @given(labels_strategy)
    def test_same_partition(self, labels):
        canonical = canonicalize_labels(labels)
        # Two nodes share a color before iff they share one after.
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                assert (labels[i] == labels[j]) == (
                    canonical[i] == canonical[j]
                )


class TestConstruction:
    def test_trivial(self):
        coloring = Coloring.trivial(5)
        assert coloring.n_colors == 1
        assert coloring.is_trivial()

    def test_discrete(self):
        coloring = Coloring.discrete(4)
        assert coloring.n_colors == 4
        assert coloring.is_discrete()

    def test_from_classes(self):
        coloring = Coloring.from_classes([[0, 2], [1, 3]])
        assert coloring.labels.tolist() == [0, 1, 0, 1]

    def test_from_classes_overlap(self):
        with pytest.raises(ColoringError):
            Coloring.from_classes([[0, 1], [1, 2]])

    def test_from_classes_missing_node(self):
        with pytest.raises(ColoringError):
            Coloring.from_classes([[0, 2]], n=3)

    def test_from_classes_out_of_range(self):
        with pytest.raises(ColoringError):
            Coloring.from_classes([[0, 5]], n=3)

    def test_2d_labels_rejected(self):
        with pytest.raises(ColoringError):
            Coloring(np.zeros((2, 2)))

    def test_labels_readonly(self):
        coloring = Coloring([0, 0, 1])
        with pytest.raises(ValueError):
            coloring.labels[0] = 5


class TestQueries:
    def test_sizes_and_classes(self):
        coloring = Coloring([0, 1, 0, 2, 1])
        assert coloring.sizes.tolist() == [2, 2, 1]
        assert [c.tolist() for c in coloring.classes()] == [
            [0, 2], [1, 4], [3],
        ]

    @pytest.mark.parametrize("labels", [[], [0], [0, 1, 0, 2, 1]])
    def test_one_class_per_color(self, labels):
        coloring = Coloring(labels)
        assert len(coloring.classes()) == coloring.n_colors

    def test_members(self):
        coloring = Coloring([0, 1, 0])
        assert coloring.members(0).tolist() == [0, 2]
        with pytest.raises(ColoringError):
            coloring.members(5)

    def test_color_of(self):
        coloring = Coloring([0, 1, 0])
        assert coloring.color_of(1) == 1

    def test_compression_ratio(self):
        assert Coloring([0, 0, 0, 1]).compression_ratio() == 2.0

    def test_indicator(self):
        coloring = Coloring([0, 1, 0])
        indicator = coloring.indicator().toarray()
        assert indicator.tolist() == [[1, 0], [0, 1], [1, 0]]


class TestRefinement:
    def test_discrete_refines_everything(self):
        fine = Coloring.discrete(6)
        coarse = Coloring([0, 0, 0, 1, 1, 1])
        assert fine.refines(coarse)
        assert not coarse.refines(fine)

    def test_refines_self(self):
        coloring = Coloring([0, 1, 1, 2])
        assert coloring.refines(coloring)

    def test_size_mismatch(self):
        with pytest.raises(ColoringError):
            Coloring([0]).refines(Coloring([0, 1]))

    @given(labels_strategy)
    def test_everything_refines_trivial(self, labels):
        coloring = Coloring(labels)
        assert coloring.refines(Coloring.trivial(coloring.n))
        assert Coloring.discrete(coloring.n).refines(coloring)


class TestSplit:
    def test_split_moves_nodes(self):
        coloring = Coloring([0, 0, 0, 1])
        split = coloring.split(0, [1, 2])
        # Canonical labels renumber by first occurrence.
        assert split == Coloring([0, 1, 1, 2])
        assert split.n_colors == 3
        assert split.refines(coloring)

    def test_split_empty_raises(self):
        with pytest.raises(ColoringError):
            Coloring([0, 0]).split(0, [])

    def test_split_all_raises(self):
        with pytest.raises(ColoringError):
            Coloring([0, 0]).split(0, [0, 1])

    def test_split_wrong_color_raises(self):
        with pytest.raises(ColoringError):
            Coloring([0, 1]).split(0, [1])


class TestDunder:
    def test_equality_and_hash(self):
        a = Coloring([5, 5, 7])
        b = Coloring([0, 0, 1])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        assert Coloring([0, 0, 1]) != Coloring([0, 1, 1])

    def test_len_is_color_count(self):
        assert len(Coloring([0, 1, 1])) == 2

    def test_restrict(self):
        coloring = Coloring([0, 1, 0, 2])
        restricted = coloring.restrict([1, 3])
        assert restricted.labels.tolist() == [0, 1]

    def test_validate_passes(self):
        Coloring([0, 1, 0]).validate()
