"""The ledger's workloads (no ``repro`` import here).

Every workload is a closed loop driven from one process with one
worker thread: the next checkpoint (or edge update) is issued only
after the previous one has been answered.  Why each workload exists is
recorded next to its name in ``BENCHMARK.json``.

Datasets are the registry's stand-ins at their registry seeds, fixed
like the real datasets they stand in for: between generator seeds the
stand-ins' cost moves by more than a regression bound (tsukuba0's
first answer 1.0-1.9 s, openflights' seed coloring q 8-10).  The
workload seed drives the random draws of the work itself: the
centrality pivots and the churn trace.  Max-flow and LP draw nothing,
so their inputs are the same for every seed.  The default seed is the
dataset's registry seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    #: "maxflow" | "lp" | "centrality" | "churn"
    kind: str
    dataset: str
    scale: float
    #: registry seed of the dataset stand-in (and the default run seed)
    dataset_seed: int
    #: wall time of one pass on a 2-vCPU x86-64 VM; only turns a run's
    #: ``--seconds`` into a fixed pass count, so that a slow first pass
    #: never changes how many passes a run takes
    pass_s: float
    #: fewest timed passes per run (a single LP pass swings by +-15%)
    min_passes: int
    #: extra interpreters per run that stop after the first checkpoint
    #: (pipelines) or after set-up (churn): more set-up/answer samples
    probes: int
    #: ascending color budgets of one progressive pass (pipelines only)
    budgets: tuple[int, ...] = ()


#: churn workload: seed coloring budget and trace length
CHURN_SEED_COLORS = 64
CHURN_UPDATES = 1000

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in [
        Workload("maxflow-tsukuba0", "maxflow", "tsukuba0", 1.0, 20,
                 pass_s=28.0, min_passes=1, probes=2, budgets=(64, 256, 1024)),
        Workload("centrality-astroph", "centrality", "astroph", 1.0, 12,
                 pass_s=4.5, min_passes=1, probes=3, budgets=(64, 256)),
        Workload("lp-supportcase10", "lp", "supportcase10", 0.5, 32,
                 pass_s=8.0, min_passes=3, probes=3, budgets=(64, 256, 1024)),
        Workload("churn-openflights", "churn", "openflights", 1.0, 10,
                 pass_s=15.0, min_passes=1, probes=2),
    ]
}
