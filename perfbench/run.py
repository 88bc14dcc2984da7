"""Paper-task ledger: compress -> solve -> lift and churn, timed end to end
and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --exact-only
    python3 perfbench/run.py --compare RESULTS_A RESULTS_B

Every sample is a fresh interpreter running ``perfbench/worker.py``
against ``src/`` with ``REPRO_BACKEND=numpy``, ``REPRO_WORKERS=1``, one
BLAS/OpenMP thread and glibc malloc told to keep freed memory (see
``PINNED_ENV``).  Metric names, units and bounds live in
``BENCHMARK.json``.

With ``--trace 0`` the end-to-end metrics are

* ``setup_s``: fresh interpreter start until the inputs are in memory
  (imports, registry load; for churn also the seed coloring and the
  ``DynamicColoring`` build), median over every interpreter of the run;
* ``run_s``: wall time of one timed pass, median over passes.  A
  pipeline pass is ``run_task`` per color budget with one shared
  coloring and solve cache; a churn pass replays the update trace.
  A run makes about ``--seconds`` worth of passes, at least the
  workload's ``min_passes``, each in its own interpreter;
* ``first_answer_s``: time from an input to its first usable answer:
  the first checkpoint's lifted answer for the pipelines (paper Table
  6), median over every interpreter of the run, including probes that
  stop there; the median ``DynamicColoring.apply`` latency for churn;
* ``peak_rss_mb``: peak resident memory of a pass's interpreter;
* ``max_q_err``: max q-error of the answer's coloring at the last
  checkpoint, or recomputed from scratch at the end of the churn trace.

Failed output checks are reported as ``failed`` out of ``attempted``.

``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics: the traced pass wraps each layer's public functions
from the benchmark's own code and installs a ``repro.obs`` recorder to
read the program's counters.  Exact references (max-flow, LP) are
solved once per workload dataset (see ``workloads.py`` for what the
seed varies) in their own interpreter and cached under
``perfbench/.cache``; the full-Brandes centrality reference takes
minutes and is only built by ``--exact-only``.  Every run writes its
whole record (config, samples, checks, quality trajectory) to
``perfbench/results`` and prints one JSON summary as its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

CACHE_DIR = HERE / ".cache"
RESULTS_DIR = HERE / "results"
#: a run must finish well inside the 180 s a caller allows
RUN_LIMIT_S = 170.0
PINNED_ENV = {
    "REPRO_BACKEND": "numpy",
    "REPRO_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    # Keep freed heap memory instead of returning it to the kernel.  The
    # coloring engine's large temporaries otherwise fault in fresh pages
    # on every split (1.7M faults, 4 s of a 10 s LP pass on a 2-vCPU VM),
    # and the price of a fault swings with the host by +-30%.
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(4 << 30),
}
#: compare mode ignores per-layer timings smaller than this on both sides
COMPARE_FLOOR_S = 0.005


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def spawn(args: list[str], deadline: Deadline) -> dict:
    """Run one worker interpreter to completion; its last line is JSON."""
    command = [
        sys.executable, str(HERE / "worker.py"), *args,
        "--spawned", repr(time.time()),
    ]
    completed = subprocess.run(
        command,
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline.left()),
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"worker {' '.join(args)} exited with {completed.returncode}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def exact_path(workload) -> Path:
    """The exact answer depends on the dataset only (the run seed draws
    centrality pivots, which the exact scores do not use)."""
    suffix = "npy" if workload.kind == "centrality" else "json"
    return CACHE_DIR / (
        f"exact-{workload.name}-data{workload.dataset_seed}.{suffix}"
    )


def ensure_exact(workload, deadline: Deadline, build: bool) -> Path:
    path = exact_path(workload)
    if build and not path.exists():
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        spawn(
            ["--workload", workload.name, "--seed", str(workload.dataset_seed),
             "--mode", "exact", "--exact", str(path)],
            deadline,
        )
    return path


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(workload, seed: int, seconds: float, deadline: Deadline,
               exact: Path) -> tuple[dict, list[dict]]:
    base = ["--workload", workload.name, "--seed", str(seed),
            "--exact", str(exact)]
    probe = "setup" if workload.kind == "churn" else "first"
    samples = [
        spawn(base + ["--mode", probe], deadline)
        for _ in range(workload.probes)
    ]
    n_passes = max(workload.min_passes, round(seconds / workload.pass_s))
    passes = [
        spawn(base + ["--mode", "run"], deadline) for _ in range(n_passes)
    ]
    samples += passes
    answered = [s for s in samples if "first_answer_s" in s]
    metrics = {
        "run_s": median([p["run_s"] for p in passes]),
        "first_answer_s": median([s["first_answer_s"] for s in answered]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        "max_q_err": median([p["max_q_err"] for p in passes]),
        "setup_s": median([s["setup_s"] for s in samples]),
    }
    return metrics, samples


def per_layer(workload, seed: int, deadline: Deadline, exact: Path,
              names: list[str]) -> tuple[dict, list[dict]]:
    base = ["--workload", workload.name, "--seed", str(seed),
            "--mode", "run", "--exact", str(exact)]
    plain = spawn(base, deadline)
    traced = spawn(base + ["--trace", "1"], deadline)
    layers = dict(traced["layers"])
    layers["repro.import_s"] = traced["import_s"]
    layers["datasets.load_s"] = traced["load_s"]
    layers["rss.load_mb"] = traced["rss_load_mb"]
    layers["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    metrics = {name: float(layers.get(name, 0.0)) for name in names}
    return metrics, [plain, traced]


def git_commit() -> str | None:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def src_digest() -> str:
    """Content hash of the program under test (the checkout may not be a
    git repository)."""
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_config() -> dict:
    def version(name: str) -> str | None:
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "env": PINNED_ENV,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(),
        "src_sha1": src_digest(),
    }


def write_record(record: dict) -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = RESULTS_DIR / (
        f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
        f"-{stamp}-{os.getpid()}.json"
    )
    path.write_text(json.dumps(record, indent=1))
    return path


def print_quality(samples: list[dict]) -> None:
    sample = next((s for s in samples if s["mode"] == "run"), None)
    if sample is None:
        return
    for point in sample.get("trajectory", []):
        rel = point["rel_error"]
        print(
            f"  k={point['budget']:<5d} colors={point['colors']:<5d} "
            f"max_q_err={point['max_q_err']:.4g} value={point['value']:.8g} "
            f"rel_error={'n/a' if rel is None else f'{rel:.3g}'} "
            f"at {point['completed_s']:.3f}s"
        )
    if "dynamic_stats" in sample:
        print(f"  dynamic: {json.dumps(sample['dynamic_stats'])}")
        print(
            f"  update p50={sample['update_p50_ms']:.3f} ms "
            f"p99={sample['update_p99_ms']:.3f} ms"
        )


def measure(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    workload = WORKLOADS[args.workload]
    seed = workload.dataset_seed if args.seed is None else args.seed
    if args.exact_only:
        if workload.kind == "churn":
            print("churn has no exact reference", file=sys.stderr)
            return 2
        path = ensure_exact(workload, Deadline(3600.0), build=True)
        print(f"exact reference: {path}")
        return 0
    deadline = Deadline(RUN_LIMIT_S)
    exact = ensure_exact(
        workload, deadline, build=workload.kind in ("maxflow", "lp")
    )
    if args.trace:
        names = [metric["name"] for metric in bench["per_layer"]]
        metrics, samples = per_layer(workload, seed, deadline, exact, names)
    else:
        measured, samples = end_to_end(
            workload, seed, args.seconds, deadline, exact
        )
        metrics = {m["name"]: measured[m["name"]] for m in bench["end_to_end"]}
    checks = [check for sample in samples for check in sample.get("checks", [])]
    checks += [
        {"name": f"{name} finite", "ok": math.isfinite(value), "detail": ""}
        for name, value in metrics.items()
    ]
    failed = sum(not check["ok"] for check in checks)
    units = {
        metric["name"]: metric["unit"]
        for metric in bench["end_to_end"] + bench["per_layer"]
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": run_config(),
        "metrics": metrics,
        "units": units,
        "attempted": len(checks),
        "failed": failed,
        "failed_checks": [check for check in checks if not check["ok"]],
        "samples": samples,
    }
    path = write_record(record)
    print(f"{workload.name} seed={seed} trace={args.trace} -> {path}")
    print(f"  config: {json.dumps(record['config'])}")
    print_quality(samples)
    for name, value in metrics.items():
        print(f"  {name:<30s} {value:.6g} {units[name]}")
    for check in record["failed_checks"]:
        print(f"  FAILED {check['name']}: {check['detail']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


# -- compare mode -------------------------------------------------------


def load_records(location: Path) -> list[dict]:
    paths = sorted(location.rglob("*.json")) if location.is_dir() else [location]
    records = []
    for path in paths:
        record = json.loads(path.read_text())
        if "metrics" in record and "workload" in record:
            records.append(record)
    return records


def metric_values(records: list[dict], workload: str, trace: int) -> dict:
    values: dict[str, list[float]] = {}
    for record in records:
        if record["workload"] == workload and record["trace"] == trace:
            for name, value in record["metrics"].items():
                values.setdefault(name, []).append(float(value))
    return values


def most_moved_layer(before: dict, after: dict, units: dict) -> tuple | None:
    """The per-layer timing whose median moved most, as a ratio.

    Only timings count (counts move with the work, not its speed), the
    tracer's own metrics are skipped, and so are timings under
    ``COMPARE_FLOOR_S`` on both sides, whose ratios are noise.
    """
    best = None
    for name in sorted(set(before) & set(after)):
        unit = units.get(name)
        if unit not in ("s", "ms") or name.startswith("trace."):
            continue
        floor = COMPARE_FLOOR_S * (1e3 if unit == "ms" else 1.0)
        a, b = median(before[name]), median(after[name])
        if max(a, b) < floor or min(a, b) <= 0.0:
            continue
        moved = abs(math.log(b / a))
        if best is None or moved > best[1]:
            best = (name, moved, a, b)
    return best


def compare(records_a: list[dict], records_b: list[dict], bench: dict) -> dict:
    """Per workload: end-to-end medians and quartiles on both sides and
    the per-layer timing that moved most.  Returns the report as data and
    prints it."""
    units = {
        metric["name"]: metric["unit"]
        for metric in bench["end_to_end"] + bench["per_layer"]
    }
    report = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        a0 = metric_values(records_a, workload, 0)
        b0 = metric_values(records_b, workload, 0)
        a1 = metric_values(records_a, workload, 1)
        b1 = metric_values(records_b, workload, 1)
        if not (a0 or a1) or not (b0 or b1):
            continue
        print(f"== {workload}")
        rows = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            if name not in a0 or name not in b0:
                continue
            (qa1, qa3), (qb1, qb3) = quartiles(a0[name]), quartiles(b0[name])
            ma, mb = median(a0[name]), median(b0[name])
            change = (mb - ma) / ma if ma else float("nan")
            rows[name] = {"a": ma, "b": mb, "change": change}
            print(
                f"  {name:<16s} A {ma:.4g} [{qa1:.4g}, {qa3:.4g}] n={len(a0[name])}"
                f"  B {mb:.4g} [{qb1:.4g}, {qb3:.4g}] n={len(b0[name])}"
                f"  {change:+.1%} (bound {metric['bound']:.0%})"
            )
        moved = most_moved_layer(a1, b1, units)
        if moved is not None:
            name, _, ma, mb = moved
            print(f"  per-layer moved most: {name} {ma:.4g} -> {mb:.4g} "
                  f"({mb / ma - 1.0:+.1%})")
        report[workload] = {
            "end_to_end": rows,
            "moved_most": None if moved is None else moved[0],
        }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Paper-task ledger benchmark (see module docstring)."
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--exact-only", action="store_true")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("RESULTS_A", "RESULTS_B"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*(load_records(p) for p in args.compare), load_benchmark())
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    # A terminated run still stops and waits for its worker (subprocess.run
    # kills the child when an exception unwinds through it).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
