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


def read_dimacs_flow(
    path: str | os.PathLike,
) -> Tuple[WeightedDiGraph, int, int]:
    """Read a DIMACS max-flow file; returns ``(graph, source, sink)``.

    Node labels are the 0-based integers; parallel arcs have their
    capacities summed (the standard DIMACS interpretation).
    """
    graph = WeightedDiGraph(directed=True)
    source: int | None = None
    sink: int | None = None
    declared_nodes = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            kind = parts[0]
            if kind == "p":
                if len(parts) != 4 or parts[1] != "max":
                    raise GraphError(
                        f"{path}:{line_number}: expected 'p max N M', got {line!r}"
                    )
                declared_nodes = int(parts[2])
                for i in range(declared_nodes):
                    graph.add_node(i)
            elif kind == "n":
                node = int(parts[1]) - 1
                if parts[2] == "s":
                    source = node
                elif parts[2] == "t":
                    sink = node
                else:
                    raise GraphError(
                        f"{path}:{line_number}: node designator must be s/t"
                    )
            elif kind == "a":
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
                cap = parse_weight(parts[3], path, line_number)
                existing = graph.weight(u, v)
                graph.add_edge(u, v, existing + cap)
            else:
                raise GraphError(f"{path}:{line_number}: unknown line {line!r}")
    if source is None or sink is None:
        raise GraphError(f"{path}: missing source/sink declaration")
    return graph, source, sink
