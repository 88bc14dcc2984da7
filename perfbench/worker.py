"""One fresh-interpreter sample of a ledger workload.

``run.py`` starts this file once per sample::

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \\
        --spawned WALL [--trace 0|1] [--exact FILE]

``--mode setup`` stops once the inputs are in memory, ``--mode run``
then times one closed-loop pass (traced with ``--trace 1``), ``--mode
first`` only a pipeline pass's first checkpoint, and
``--mode exact`` solves the original problem and writes the reference
answer to ``--exact``.  ``--spawned`` is the parent's wall clock just
before it started this process, so set-up time covers interpreter
start and imports.  The record is printed as the last stdout line.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.core.qerror import max_q_err  # noqa: E402
from repro.core.rothko import q_color  # noqa: E402
from repro.datasets.churn import hub_churn  # noqa: E402
from repro.datasets.registry import load_flow, load_graph, load_lp  # noqa: E402
from repro.dynamic import DynamicColoring  # noqa: E402
from repro.exceptions import ColoringError  # noqa: E402
from repro.obs import Recorder, recording  # noqa: E402
from repro.pipeline import (  # noqa: E402
    CentralityTask,
    ColoringCache,
    LPTask,
    MaxFlowTask,
    ProgressiveRun,
    ReducedSolveCache,
    run_task,
)

from workloads import (  # noqa: E402
    CHURN_SEED_COLORS,
    CHURN_UPDATES,
    WORKLOADS,
    Workload,
)

if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
    raise ImportError(f"repro imported from {repro.__file__}, not {ROOT}/src")

BACKEND = "numpy"
WORKERS = 1
#: pipeline task kind -> per-layer metric prefix of its reduce/solve/lift
STAGE_LAYER = {"maxflow": "flow", "lp": "lp", "centrality": "centrality"}
#: slack on the churn tolerance check (float drift of patched sums)
TOLERANCE_SLACK = 1e-6


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Inputs:
    """Everything a pass needs, built the way a library user would."""

    def __init__(
        self, workload: Workload, seed: int, scale: float | None = None
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.task = None
        self.graph = None
        self.dynamic = None
        self.updates = None
        dataset = dict(
            scale=workload.scale if scale is None else scale,
            seed=workload.dataset_seed,
        )
        start = time.perf_counter()
        if workload.kind == "maxflow":
            network = load_flow(workload.dataset, **dataset)
            self.load_s = time.perf_counter() - start
            self.task = MaxFlowTask(
                network, bound="upper", algorithm="push_relabel",
                backend=BACKEND, workers=WORKERS,
            )
        elif workload.kind == "lp":
            lp = load_lp(workload.dataset, **dataset)
            self.load_s = time.perf_counter() - start
            self.task = LPTask(
                lp, mode="sqrt", method="scipy",
                backend=BACKEND, workers=WORKERS,
            )
        elif workload.kind == "centrality":
            graph = load_graph(workload.dataset, **dataset)
            self.load_s = time.perf_counter() - start
            self.task = CentralityTask(
                graph, seed=seed, backend=BACKEND, workers=WORKERS
            )
        else:
            self.graph = load_graph(workload.dataset, **dataset)
            self.load_s = time.perf_counter() - start
            seeded = q_color(
                self.graph, n_colors=CHURN_SEED_COLORS, backend=BACKEND
            )
            self.dynamic = DynamicColoring(
                self.graph,
                q_tolerance=seeded.max_q_err,
                coloring=seeded.coloring,
                backend=BACKEND,
            )

    def make_trace(self) -> None:
        """The churn trace: benchmark work, kept out of set-up time."""
        if self.workload.kind == "churn":
            self.updates = hub_churn(self.graph, CHURN_UPDATES, seed=self.seed)


class LayerClock:
    """Times every call into a layer's public functions.

    Wrappers go on the classes, so the pass itself runs the unmodified
    ``run_task`` / ``DynamicColoring.apply`` code path.  ``close``
    restores the originals.
    """

    def __init__(self) -> None:
        self.calls: dict[str, list[float]] = defaultdict(list)
        #: growth of the peak RSS during calls wrapped with ``rss=True``
        self.rss_mb = 0.0
        self._originals: list[tuple[type, str, object]] = []

    def wrap(
        self, owner: type, attr: str, metric: str, rss: bool = False
    ) -> None:
        original = owner.__dict__[attr]
        calls = self.calls[metric]

        def timed(*args, **kwargs):
            before = peak_rss_mb() if rss else 0.0
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                calls.append(time.perf_counter() - start)
                if rss:
                    self.rss_mb += peak_rss_mb() - before

        self._originals.append((owner, attr, original))
        setattr(owner, attr, timed)

    def seconds(self, metric: str) -> float:
        return float(sum(self.calls.get(metric, ())))

    def total_seconds(self) -> float:
        return float(sum(sum(calls) for calls in self.calls.values()))

    def close(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()


def install_clock(inputs: Inputs) -> LayerClock:
    clock = LayerClock()
    if inputs.task is None:
        clock.wrap(DynamicColoring, "apply", "dynamic.apply_s")
        return clock
    task_cls = type(inputs.task)
    layer = STAGE_LAYER[inputs.workload.kind]
    clock.wrap(task_cls, "coloring_spec", "core.rothko.build_s", rss=True)
    clock.wrap(ColoringCache, "run_for", "core.rothko.build_s", rss=True)
    clock.wrap(ProgressiveRun, "resolve", "core.rothko.advance_s", rss=True)
    clock.wrap(
        ProgressiveRun, "coloring", "core.rothko.coloring_at_s", rss=True
    )
    clock.wrap(ProgressiveRun, "weights", "pipeline.weights_s")
    for stage in ("reduce", "solve", "lift"):
        clock.wrap(task_cls, stage, f"{layer}.{stage}_s")
    return clock


def pipeline_pass(inputs: Inputs, first_only: bool = False) -> dict:
    """``run_task`` per budget with one shared coloring and solve cache,
    the same loop as ``progressive_sweep`` (only the first budget with
    ``first_only``)."""
    task = inputs.task
    budgets = inputs.workload.budgets
    cache, solve_cache = ColoringCache(), ReducedSolveCache()
    results, marks = [], []
    start = time.perf_counter()
    for budget in budgets[:1] if first_only else budgets:
        results.append(
            run_task(
                task, n_colors=budget, cache=cache, solve_cache=solve_cache
            )
        )
        marks.append(time.perf_counter() - start)
    return {
        "run_s": marks[-1],
        "first_answer_s": marks[0],
        "results": results,
        "marks": marks,
    }


def churn_pass(inputs: Inputs) -> dict:
    """Replay the trace one update at a time, timing each answer."""
    dynamic = inputs.dynamic
    latencies = []
    start = time.perf_counter()
    for update in inputs.updates:
        begin = time.perf_counter()
        dynamic.apply(update)
        latencies.append(time.perf_counter() - begin)
    run_s = time.perf_counter() - start
    return {
        "run_s": run_s,
        "first_answer_s": float(np.median(latencies)),
        "latencies": latencies,
    }


def _check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def _finite(value) -> bool:
    if hasattr(value, "value"):  # FlowResult
        value = value.value
    return bool(np.all(np.isfinite(np.asarray(value, dtype=float))))


def pipeline_quality(inputs: Inputs, outcome: dict, exact) -> tuple:
    """Per-checkpoint trajectory and output checks (untimed)."""
    task, kind = inputs.task, inputs.workload.kind
    trajectory, checks = [], []
    if exact is not None and kind != "centrality":
        _check(checks, "exact finite", math.isfinite(exact), f"{exact}")
    for budget, result, mark in zip(
        inputs.workload.budgets, outcome["results"], outcome["marks"]
    ):
        where = f"k={budget}"
        rel_error = (
            None if exact is None else float(task.certified_error(exact, result))
        )
        trajectory.append({
            "budget": budget,
            "colors": result.n_colors,
            "max_q_err": float(result.max_q_err),
            "value": float(result.value),
            "rel_error": rel_error,
            "completed_s": mark,
        })
        _check(checks, f"{where} value finite", math.isfinite(result.value),
               f"{result.value}")
        _check(checks, f"{where} answer finite", _finite(result.lifted))
        _check(checks, f"{where} q-error finite",
               math.isfinite(result.max_q_err), f"{result.max_q_err}")
        _check(checks, f"{where} colors within budget",
               result.n_colors <= budget, f"{result.n_colors}")
        if kind == "maxflow" and exact is not None:
            # Theorem 6: the block-capacity network over-approximates.
            _check(
                checks, f"{where} upper bound >= exact max-flow",
                result.value >= exact - 1e-9 * max(1.0, abs(exact)),
                f"{result.value} vs {exact}",
            )
    return trajectory, checks


def churn_quality(inputs: Inputs, outcome: dict) -> tuple:
    dynamic = inputs.dynamic
    checks: list = []
    final = dynamic.snapshot()
    scratch_q = float(max_q_err(inputs.graph.to_csr(), final))
    _check(checks, "latencies finite", _finite(outcome["latencies"]))
    _check(
        checks, "final max q-error within tolerance",
        scratch_q <= dynamic.q_tolerance + TOLERANCE_SLACK,
        f"{scratch_q} vs {dynamic.q_tolerance}",
    )
    try:
        dynamic.verify_consistency()
        consistent, detail = True, ""
    except ColoringError as exc:
        consistent, detail = False, str(exc)
    _check(checks, "verify_consistency", consistent, detail)
    row = dynamic.stats.as_row()
    row.update(
        colors=final.n_colors,
        max_q_err=scratch_q,
        tolerance=dynamic.q_tolerance,
    )
    return row, checks


def layer_metrics(
    inputs: Inputs, clock: LayerClock, counters: dict, outcome: dict,
    stats_before: dict | None,
) -> dict:
    """The per-layer numbers of one traced pass (see BENCHMARK.json)."""
    layers: dict[str, float] = {}
    for name, calls in clock.calls.items():
        layers[name] = float(sum(calls))
    advance = clock.calls.get("core.rothko.advance_s", [])
    splits = int(counters.get("rothko.splits", 0))
    layers["core.rothko.advance_last_s"] = float(advance[-1]) if advance else 0.0
    layers["core.rothko.splits"] = splits
    layers["core.rothko.split_ms"] = (
        1e3 * float(sum(advance)) / splits if splits else 0.0
    )
    layers["rss.color_mb"] = clock.rss_mb
    layers["core.kernels.bincount_cells"] = int(
        counters.get("kernels.bincount_cells", 0)
    )
    layers["solvers.pr.pushes"] = int(counters.get("solvers.pr.pushes", 0))
    sources = int(counters.get("solvers.brandes.sources", 0))
    layers["solvers.brandes.sources"] = sources
    solve_s = clock.seconds("centrality.solve_s")
    layers["centrality.sources_per_s"] = sources / solve_s if solve_s else 0.0
    applies = clock.calls.get("dynamic.apply_s", [])
    if applies:
        layers["dynamic.apply_p50_ms"] = 1e3 * float(np.percentile(applies, 50))
        layers["dynamic.apply_p99_ms"] = 1e3 * float(np.percentile(applies, 99))
    if stats_before is not None:
        after = inputs.dynamic.stats.as_row()
        for key in ("splits", "merges", "rebuilds", "pairs_checked"):
            layers[f"dynamic.{key}"] = after[key] - stats_before[key]
        useful = layers["dynamic.splits"] + layers["dynamic.merges"]
        checked = layers["dynamic.pairs_checked"]
        layers["dynamic.useful_ratio"] = useful / checked if checked else 0.0
    layers["trace.coverage"] = clock.total_seconds() / outcome["run_s"]
    return layers


def run_pass(
    inputs: Inputs, traced: bool = False, first_only: bool = False
) -> tuple[dict, dict | None]:
    """One timed pass; with ``traced`` also the per-layer numbers."""
    inputs.make_trace()
    if inputs.task is not None:
        run = functools.partial(pipeline_pass, inputs, first_only)
    else:
        run = functools.partial(churn_pass, inputs)
    if not traced:
        return run(), None
    stats_before = (
        inputs.dynamic.stats.as_row() if inputs.dynamic is not None else None
    )
    clock = install_clock(inputs)
    try:
        with recording(Recorder()) as recorder:
            outcome = run()
    finally:
        clock.close()
    counters = recorder.snapshot()["counters"]
    return outcome, layer_metrics(
        inputs, clock, counters, outcome, stats_before
    )


def load_exact(path: Path | None, kind: str):
    if path is None or not path.exists():
        return None
    if kind == "centrality":
        return np.load(path)
    return float(json.loads(path.read_text())["value"])


def write_exact(path: Path, inputs: Inputs) -> None:
    exact = inputs.task.exact_reference()
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    if inputs.workload.kind == "centrality":
        with open(tmp, "wb") as handle:
            np.save(handle, exact)
    else:
        tmp.write_text(json.dumps({"value": float(exact)}))
    os.replace(tmp, path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "first", "run", "exact"))
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--exact", type=Path, default=None)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    imported = time.time()
    rss_imports = peak_rss_mb()
    inputs = Inputs(workload, args.seed)
    ready = time.time()
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "mode": args.mode,
        "trace": args.trace,
        "setup_s": ready - args.spawned,
        "import_s": imported - args.spawned,
        "load_s": inputs.load_s,
        "rss_load_mb": peak_rss_mb() - rss_imports,
    }
    if args.mode == "exact":
        write_exact(args.exact, inputs)
    elif args.mode in ("first", "run"):
        outcome, layers = run_pass(
            inputs, traced=bool(args.trace), first_only=args.mode == "first"
        )
        record["peak_rss_mb"] = peak_rss_mb()
        record["run_s"] = outcome["run_s"]
        record["first_answer_s"] = outcome["first_answer_s"]
        if inputs.task is not None:
            exact = load_exact(args.exact, workload.kind)
            record["trajectory"], record["checks"] = pipeline_quality(
                inputs, outcome, exact
            )
            record["max_q_err"] = record["trajectory"][-1]["max_q_err"]
        else:
            latencies = np.asarray(outcome["latencies"])
            record["update_p50_ms"] = 1e3 * float(np.percentile(latencies, 50))
            record["update_p99_ms"] = 1e3 * float(np.percentile(latencies, 99))
            record["dynamic_stats"], record["checks"] = churn_quality(
                inputs, outcome
            )
            record["max_q_err"] = record["dynamic_stats"]["max_q_err"]
        if layers is not None:
            record["layers"] = layers
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
