"""Streaming graph updates: the vocabulary of the dynamic subsystem.

An :class:`EdgeUpdate` is one mutation of a :class:`WeightedDiGraph` —
an insertion, a deletion, or a weight change — expressed in node
*labels* so traces survive serialization and can be replayed against a
fresh copy of the graph.  Traces are plain text, one update per line::

    + u v [weight]     insert (default weight 1.0)
    - u v              delete
    ~ u v weight       reweight (set the weight; 0 deletes)

Lines starting with ``#`` and blank lines are ignored.  Node labels are
parsed as ints when possible so traces round-trip against graphs with
integer labels (every registry dataset).  A weight that does not parse,
or is NaN or infinite, raises :class:`~repro.exceptions.GraphError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, TextIO

from repro.exceptions import GraphError
from repro.graphs.digraph import WeightedDiGraph
from repro.utils.labels import coerce_label

INSERT = "insert"
DELETE = "delete"
REWEIGHT = "reweight"

_KIND_TO_OP = {INSERT: "+", DELETE: "-", REWEIGHT: "~"}
_OP_TO_KIND = {op: kind for kind, op in _KIND_TO_OP.items()}


@dataclass(frozen=True)
class EdgeUpdate:
    """One streaming mutation of an edge ``u -> v``."""

    kind: str
    u: Hashable
    v: Hashable
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KIND_TO_OP:
            raise ValueError(
                f"kind must be one of {sorted(_KIND_TO_OP)}, got {self.kind!r}"
            )
        if not math.isfinite(self.weight):
            raise GraphError(
                f"non-finite weight {self.weight} on edge "
                f"{self.u!r} -> {self.v!r}"
            )

    # -- constructors ---------------------------------------------------
    @classmethod
    def insert(cls, u: Hashable, v: Hashable, weight: float = 1.0) -> "EdgeUpdate":
        return cls(INSERT, u, v, float(weight))

    @classmethod
    def delete(cls, u: Hashable, v: Hashable) -> "EdgeUpdate":
        return cls(DELETE, u, v, 0.0)

    @classmethod
    def reweight(cls, u: Hashable, v: Hashable, weight: float) -> "EdgeUpdate":
        return cls(REWEIGHT, u, v, float(weight))

    # -- application ----------------------------------------------------
    def apply_to(self, graph: WeightedDiGraph) -> None:
        """Mutate ``graph`` in place (listeners fire as usual)."""
        if self.kind == DELETE:
            graph.remove_edge(self.u, self.v, missing_ok=True)
        else:
            # add_edge overwrites; weight 0 deletes (Sec. 3 convention).
            graph.add_edge(self.u, self.v, self.weight)

    # -- serialization --------------------------------------------------
    def to_line(self) -> str:
        """The trace line; the weight is written with ``repr``, the
        shortest text that reads back as the same float."""
        op = _KIND_TO_OP[self.kind]
        if self.kind == DELETE:
            return f"{op} {self.u} {self.v}"
        return f"{op} {self.u} {self.v} {float(self.weight)!r}"


def parse_update(line: str) -> EdgeUpdate | None:
    """Parse one trace line; returns ``None`` for blanks and comments."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parts = stripped.split()
    op = parts[0]
    if op not in _OP_TO_KIND:
        raise GraphError(f"unknown update op {op!r} in line {line!r}")
    kind = _OP_TO_KIND[op]
    if kind == DELETE:
        if len(parts) != 3:
            raise GraphError(f"delete needs 'u v': {line!r}")
        return EdgeUpdate.delete(coerce_label(parts[1]), coerce_label(parts[2]))
    if kind == REWEIGHT:
        if len(parts) != 4:
            raise GraphError(f"reweight needs 'u v weight': {line!r}")
    elif len(parts) not in (3, 4):
        raise GraphError(f"insert needs 'u v [weight]': {line!r}")
    try:
        weight = float(parts[3]) if len(parts) == 4 else 1.0
    except ValueError:
        weight = math.nan  # reported with the token below
    if not math.isfinite(weight):
        raise GraphError(f"weight {parts[3]!r} is not a finite number: {line!r}")
    return EdgeUpdate(kind, coerce_label(parts[1]), coerce_label(parts[2]), weight)


def read_updates(source: str | TextIO) -> Iterator[EdgeUpdate]:
    """Yield updates from a trace file path or an open text stream."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            yield from read_updates(handle)
        return
    for line in source:
        update = parse_update(line)
        if update is not None:
            yield update


def write_updates(updates: Iterable[EdgeUpdate], target: str | TextIO) -> None:
    """Write a trace file (one line per update)."""
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            write_updates(updates, handle)
        return
    for update in updates:
        target.write(update.to_line() + "\n")
