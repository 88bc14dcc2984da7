"""The dataset registry powering Tables 2 and 3.

Every entry records the paper-reported size, whether the paper's dataset
was real or simulated, the original source, and the loader that builds
our stand-in at a requested ``scale`` (1.0 = paper size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.datasets import flows as _flows
from repro.datasets import graphs as _graphs
from repro.datasets import lps as _lps
from repro.exceptions import DatasetError


@dataclass(frozen=True)
class Dataset:
    """Metadata + loader for one dataset stand-in."""

    name: str
    kind: str  # "graph" | "flow" | "lp"
    group: str  # paper table grouping
    paper_rows: int  # |V| for graphs, LP rows for LPs
    paper_cols: int  # |E| for graphs, LP cols for LPs
    real: bool  # was the paper's dataset real data?
    source: str
    loader: Callable[..., Any]

    def load(self, scale: float = 1.0, **kwargs: Any) -> Any:
        return self.loader(scale=scale, **kwargs)


DATASETS: dict[str, Dataset] = {
    dataset.name: dataset
    for dataset in [
        # --- general evaluation graphs (Table 2 top) -------------------
        Dataset("karate", "graph", "general", 34, 78, True,
                "Zachary 1977", _graphs.load_karate),
        Dataset("openflights", "graph", "general", 3_425, 38_513, True,
                "openflights.org", _graphs.load_openflights),
        Dataset("dblp", "graph", "general", 317_080, 1_049_866, True,
                "dblp.uni-trier.de", _graphs.load_dblp),
        # --- centrality graphs -----------------------------------------
        Dataset("astroph", "graph", "centrality", 18_772, 198_110, True,
                "SNAP ca-AstroPh", _graphs.load_astroph),
        Dataset("facebook", "graph", "centrality", 22_470, 171_002, True,
                "SNAP facebook", _graphs.load_facebook),
        Dataset("deezer", "graph", "centrality", 28_281, 92_752, True,
                "SNAP deezer-europe", _graphs.load_deezer),
        Dataset("enron", "graph", "centrality", 36_692, 183_831, True,
                "SNAP email-Enron", _graphs.load_enron),
        Dataset("epinions", "graph", "centrality", 75_879, 508_837, True,
                "SNAP soc-Epinions1", _graphs.load_epinions),
        # --- max-flow instances -----------------------------------------
        Dataset("tsukuba0", "flow", "maxflow", 110_594, 506_546, True,
                "Middlebury stereo", _flows.load_tsukuba0),
        Dataset("tsukuba2", "flow", "maxflow", 110_594, 500_544, True,
                "Middlebury stereo", _flows.load_tsukuba2),
        Dataset("venus0", "flow", "maxflow", 166_224, 787_946, True,
                "Middlebury stereo", _flows.load_venus0),
        Dataset("venus1", "flow", "maxflow", 166_224, 787_716, True,
                "Middlebury stereo", _flows.load_venus1),
        Dataset("sawtooth0", "flow", "maxflow", 164_922, 790_296, True,
                "Middlebury stereo", _flows.load_sawtooth0),
        Dataset("sawtooth1", "flow", "maxflow", 164_922, 789_014, True,
                "Middlebury stereo", _flows.load_sawtooth1),
        Dataset("simcells", "flow", "maxflow", 903_962, 6_738_294, False,
                "Jensen et al. 2020", _flows.load_simcells),
        Dataset("cells", "flow", "maxflow", 3_582_102, 31_537_228, True,
                "Jensen et al. 2020", _flows.load_cells),
        # --- linear programs (Table 3) ----------------------------------
        Dataset("qap15", "lp", "lp", 6_331, 22_275, True,
                "Mittelmann LP benchmark", _lps.load_qap15),
        Dataset("nug08-3rd", "lp", "lp", 19_728, 20_448, True,
                "Mittelmann LP benchmark", _lps.load_nug08),
        Dataset("supportcase10", "lp", "lp", 10_713, 1_429_098, True,
                "Mittelmann LP benchmark", _lps.load_supportcase10),
        Dataset("ex10", "lp", "lp", 69_609, 17_680, True,
                "Mittelmann LP benchmark", _lps.load_ex10),
    ]
}


def get_dataset(name: str) -> Dataset:
    try:
        return DATASETS[name]
    except KeyError as exc:
        raise DatasetError(
            f"unknown dataset {name!r}; available: {sorted(DATASETS)}"
        ) from exc


def _load_kind(name: str, kind: str, scale: float, **kwargs: Any) -> Any:
    dataset = get_dataset(name)
    if dataset.kind != kind:
        raise DatasetError(f"{name} is a {dataset.kind} dataset, not {kind}")
    if not (math.isfinite(scale) and scale > 0):
        raise DatasetError(f"scale must be finite and > 0, got {scale}")
    return dataset.load(scale=scale, **kwargs)


def load_graph(name: str, scale: float = 1.0, **kwargs: Any):
    """Load a graph dataset stand-in at the given scale."""
    return _load_kind(name, "graph", scale, **kwargs)


def load_flow(name: str, scale: float = 1.0, **kwargs: Any):
    """Load a max-flow instance stand-in at the given scale."""
    return _load_kind(name, "flow", scale, **kwargs)


def load_lp(name: str, scale: float = 1.0, **kwargs: Any):
    """Load an LP stand-in at the given scale."""
    return _load_kind(name, "lp", scale, **kwargs)


def table2_rows() -> list[dict]:
    """Rows of Table 2 (graph datasets: paper sizes and provenance)."""
    rows = []
    for dataset in DATASETS.values():
        if dataset.kind == "lp":
            continue
        rows.append(
            {
                "name": dataset.name,
                "group": dataset.group,
                "vertices": dataset.paper_rows,
                "edges": dataset.paper_cols,
                "real": "R" if dataset.real else "S",
                "source": dataset.source,
            }
        )
    return rows


def table3_rows() -> list[dict]:
    """Rows of Table 3 (LP datasets)."""
    rows = []
    for dataset in DATASETS.values():
        if dataset.kind != "lp":
            continue
        rows.append(
            {
                "name": dataset.name,
                "rows": dataset.paper_rows,
                "cols": dataset.paper_cols,
                "source": dataset.source,
            }
        )
    return rows
