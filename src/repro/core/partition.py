"""Colorings (partitions) of node sets ``0..n-1`` (Sec. 2).

A coloring is stored as a dense integer label array in canonical form:
color ids are ``0..k-1``, numbered by first occurrence.  Canonical form
makes equality, hashing-free comparison, and refinement checks cheap and
deterministic.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ColoringError


def canonicalize_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel colors as ``0..k-1`` in order of first occurrence."""
    labels = np.asarray(labels)
    _, first_index, inverse = np.unique(
        labels, return_index=True, return_inverse=True
    )
    # np.unique orders classes by value; reorder them by first occurrence.
    order = np.argsort(np.argsort(first_index))
    return order[inverse].astype(np.int64)


def first_occurrence_values(labels: np.ndarray) -> np.ndarray:
    """Original label values in canonical (first occurrence) order.

    The inverse view of :func:`canonicalize_labels`:
    ``first_occurrence_values(labels)[c]`` is the value that canonical
    color ``c`` had in ``labels``.  Consumers that keep state keyed by
    raw label values (the LP reduction's bipartite slicing) use it to
    realign with the canonical :class:`Coloring` ids.
    """
    labels = np.asarray(labels)
    values, first_index = np.unique(labels, return_index=True)
    return values[np.argsort(first_index)]


class Coloring:
    """A partition of ``{0, ..., n-1}`` into ``k`` color classes.

    Instances are immutable: mutating operations return new colorings.
    """

    __slots__ = ("labels", "_sizes", "_classes")

    def __init__(self, labels: Sequence[int] | np.ndarray) -> None:
        array = np.asarray(labels, dtype=np.int64)
        if array.ndim != 1:
            raise ColoringError(f"labels must be 1-D, got shape {array.shape}")
        self.labels = canonicalize_labels(array)
        self.labels.flags.writeable = False
        self._sizes: np.ndarray | None = None
        self._classes: list[np.ndarray] | None = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def trivial(cls, n: int) -> "Coloring":
        """The single-color partition ``{V}`` (Rothko's starting point)."""
        return cls(np.zeros(n, dtype=np.int64))

    @classmethod
    def discrete(cls, n: int) -> "Coloring":
        """The partition ``P_bot`` with every node in its own color."""
        return cls(np.arange(n, dtype=np.int64))

    @classmethod
    def from_classes(
        cls, classes: Iterable[Iterable[int]], n: int | None = None
    ) -> "Coloring":
        """Build from explicit classes; they must partition ``0..n-1``."""
        class_lists = [list(c) for c in classes]
        members = [i for c in class_lists for i in c]
        size = n if n is not None else (max(members) + 1 if members else 0)
        labels = np.full(size, -1, dtype=np.int64)
        for color, members_of_class in enumerate(class_lists):
            for node in members_of_class:
                if not 0 <= node < size:
                    raise ColoringError(f"node {node} out of range [0, {size})")
                if labels[node] != -1:
                    raise ColoringError(f"node {node} appears in two classes")
                labels[node] = color
        if np.any(labels == -1):
            missing = np.nonzero(labels == -1)[0][:5].tolist()
            raise ColoringError(f"nodes not covered by any class: {missing}...")
        return cls(labels)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return int(self.labels.size)

    @property
    def n_colors(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    @property
    def sizes(self) -> np.ndarray:
        """Class sizes indexed by color id."""
        if self._sizes is None:
            self._sizes = np.bincount(self.labels, minlength=self.n_colors)
        return self._sizes

    def classes(self) -> list[np.ndarray]:
        """List of member-index arrays, indexed by color id: exactly one
        per color, so none for the empty partition."""
        if self._classes is None:
            order = np.argsort(self.labels, kind="stable")
            boundaries = np.flatnonzero(np.diff(self.labels[order])) + 1
            self._classes = np.split(order, boundaries) if self.n else []
        return self._classes

    def members(self, color: int) -> np.ndarray:
        if not 0 <= color < self.n_colors:
            raise ColoringError(f"color {color} out of range [0, {self.n_colors})")
        return self.classes()[color]

    def color_of(self, node: int) -> int:
        return int(self.labels[node])

    def compression_ratio(self) -> float:
        """``n / k``: how many original nodes one reduced node stands for."""
        if self.n_colors == 0:
            return 1.0
        return self.n / self.n_colors

    def indicator(self) -> sp.csr_matrix:
        """The ``n x k`` 0/1 color-membership matrix ``S``."""
        n, k = self.n, self.n_colors
        return sp.csr_matrix(
            (np.ones(n), (np.arange(n), self.labels)), shape=(n, k)
        )

    # ------------------------------------------------------------------
    # order structure
    # ------------------------------------------------------------------
    def refines(self, other: "Coloring") -> bool:
        """``self <= other`` in the refinement order: every class of
        ``self`` is contained in some class of ``other``."""
        if self.n != other.n:
            raise ColoringError(
                f"colorings on different node sets: {self.n} vs {other.n}"
            )
        # self refines other iff other's label is a function of self's label.
        seen: dict[int, int] = {}
        for mine, theirs in zip(self.labels.tolist(), other.labels.tolist()):
            if mine in seen:
                if seen[mine] != theirs:
                    return False
            else:
                seen[mine] = theirs
        return True

    def is_discrete(self) -> bool:
        return self.n_colors == self.n

    def is_trivial(self) -> bool:
        return self.n_colors <= 1

    # ------------------------------------------------------------------
    # manipulation
    # ------------------------------------------------------------------
    def split(self, color: int, eject: Sequence[int]) -> "Coloring":
        """Return a new coloring with ``eject`` moved out of ``color``.

        The ejected nodes receive a fresh color id.  This is the primitive
        operation Rothko performs (Algorithm 1, lines 11-13).
        """
        eject_array = np.asarray(list(eject), dtype=np.int64)
        if eject_array.size == 0:
            raise ColoringError("cannot split off an empty set")
        if np.any(self.labels[eject_array] != color):
            raise ColoringError(f"eject set is not contained in color {color}")
        if eject_array.size == self.sizes[color]:
            raise ColoringError(f"cannot eject all of color {color}")
        labels = self.labels.copy()
        labels[eject_array] = self.n_colors
        return Coloring(labels)

    def restrict(self, nodes: Sequence[int]) -> "Coloring":
        """Coloring induced on a subset of nodes (reindexed ``0..len-1``)."""
        index = np.asarray(list(nodes), dtype=np.int64)
        return Coloring(self.labels[index])

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.labels, other.labels))

    def __hash__(self) -> int:
        return hash(self.labels.tobytes())

    def __len__(self) -> int:
        return self.n_colors

    def __repr__(self) -> str:
        return f"<Coloring n={self.n} n_colors={self.n_colors}>"

    def validate(self) -> None:
        """Check internal invariants; raises :class:`ColoringError`."""
        if self.labels.size == 0:
            return
        if self.labels.min() < 0:
            raise ColoringError("negative color label")
        k = self.n_colors
        present = np.unique(self.labels)
        if present.size != k:
            raise ColoringError("color ids are not contiguous")
        if int(self.sizes.sum()) != self.n:
            raise ColoringError("class sizes do not sum to n")
