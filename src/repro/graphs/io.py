"""Graph readers/writers: weighted edge lists and DIMACS max-flow files.

The DIMACS format is the lingua franca of the min-cut/max-flow benchmark
suites the paper evaluates on [1, 19]; supporting it means real instances
can be dropped in whenever they are available locally.
"""

from __future__ import annotations

import math
import os
from typing import Tuple

from repro.exceptions import GraphError
from repro.graphs.digraph import WeightedDiGraph
from repro.utils.labels import coerce_label


def parse_weight(text: str, path, line_number: int) -> float:
    """One edge weight or capacity from a text file, checked.

    A non-numeric or non-finite (``nan``/``inf``) weight raises
    :class:`GraphError` naming ``<path>:<line_number>``.  Every text
    reader (edge lists, DIMACS, edge-store ingest) parses through here.
    """
    try:
        weight = float(text)
    except ValueError:
        raise GraphError(
            f"{path}:{line_number}: weight {text!r} is not a number"
        ) from None
    if not math.isfinite(weight):
        raise GraphError(
            f"{path}:{line_number}: weight {text!r} is not finite"
        )
    return weight


def write_edgelist(graph: WeightedDiGraph, path: str | os.PathLike) -> None:
    """Write ``u v weight`` lines (labels rendered with ``str``)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# directed={graph.directed}\n")
        for u, v, w in graph.edges():
            handle.write(f"{u} {v} {w}\n")


def read_edgelist(
    path: str | os.PathLike, directed: bool = True
) -> WeightedDiGraph:
    """Read ``u v [weight]`` lines; ``#`` comments are skipped.

    Integer-looking node labels are parsed as ints, others kept as
    strings; the ``# directed=...`` header written by
    :func:`write_edgelist` overrides the ``directed`` argument.
    """
    graph: WeightedDiGraph | None = None
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "directed=" in line and graph is None:
                    directed = line.split("directed=")[1].strip() == "True"
                continue
            if graph is None:
                graph = WeightedDiGraph(directed=directed)
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphError(
                    f"{path}:{line_number}: expected 'u v [w]', got {line!r}"
                )
            weight = (
                parse_weight(parts[2], path, line_number)
                if len(parts) == 3 else 1.0
            )
            graph.add_edge(coerce_label(parts[0]), coerce_label(parts[1]), weight)
    if graph is None:
        graph = WeightedDiGraph(directed=directed)
    return graph


def write_dimacs_flow(
    graph: WeightedDiGraph,
    source,
    sink,
    path: str | os.PathLike,
) -> None:
    """Write a DIMACS ``max`` problem file (1-based node numbering)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"p max {graph.n_nodes} {graph.n_arcs}\n")
        handle.write(f"n {graph.index_of(source) + 1} s\n")
        handle.write(f"n {graph.index_of(sink) + 1} t\n")
        for ui in range(graph.n_nodes):
            for vi, w in graph.out_items(ui).items():
                handle.write(f"a {ui + 1} {vi + 1} {w:g}\n")


#: the form of each DIMACS max-flow line kind
_DIMACS_LINES = {"p": "p max N M", "n": "n ID s|t", "a": "a U V CAP"}


def _dimacs_int(text: str, what: str, path, line_number: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise GraphError(
            f"{path}:{line_number}: {what} {text!r} is not an integer"
        ) from None


def read_dimacs_flow(
    path: str | os.PathLike,
) -> Tuple[WeightedDiGraph, int, int]:
    """Read a DIMACS max-flow file; returns ``(graph, source, sink)``.

    Node labels are the 0-based integers; parallel arcs have their
    capacities summed (the standard DIMACS interpretation).  A malformed
    line — wrong field count, a non-integer count or node id, a node id
    outside ``1..N`` of the ``p max N M`` line, an ``n``/``a`` line
    before that line or a second one — raises :class:`GraphError`
    naming ``<path>:<line>``.
    """
    graph = WeightedDiGraph(directed=True)
    source: int | None = None
    sink: int | None = None
    declared_nodes: int | None = None

    def node_id(text: str, line_number: int) -> int:
        node = _dimacs_int(text, "node id", path, line_number)
        if not 1 <= node <= declared_nodes:
            raise GraphError(
                f"{path}:{line_number}: node id {node} outside "
                f"1..{declared_nodes}"
            )
        return node - 1

    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            kind = parts[0]
            form = _DIMACS_LINES.get(kind)
            if form is None:
                raise GraphError(f"{path}:{line_number}: unknown line {line!r}")
            if (
                len(parts) != len(form.split())
                or (kind == "p" and parts[1] != "max")
                or (kind == "n" and parts[2] not in ("s", "t"))
            ):
                raise GraphError(
                    f"{path}:{line_number}: expected '{form}', got {line!r}"
                )
            if kind == "p":
                if declared_nodes is not None:
                    raise GraphError(
                        f"{path}:{line_number}: second problem line {line!r}"
                    )
                declared_nodes = _dimacs_int(
                    parts[2], "node count", path, line_number
                )
                _dimacs_int(parts[3], "arc count", path, line_number)
                if declared_nodes < 0:
                    raise GraphError(
                        f"{path}:{line_number}: negative node count "
                        f"{declared_nodes}"
                    )
                for i in range(declared_nodes):
                    graph.add_node(i)
            elif declared_nodes is None:
                raise GraphError(
                    f"{path}:{line_number}: {line!r} comes before the "
                    "'p max N M' line"
                )
            elif kind == "n":
                node = node_id(parts[1], line_number)
                if parts[2] == "s":
                    source = node
                else:
                    sink = node
            else:
                u = node_id(parts[1], line_number)
                v = node_id(parts[2], line_number)
                cap = parse_weight(parts[3], path, line_number)
                existing = graph.weight(u, v)
                graph.add_edge(u, v, existing + cap)
    if source is None or sink is None:
        raise GraphError(f"{path}: missing source/sink declaration")
    return graph, source, sink
