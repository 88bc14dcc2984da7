#!/usr/bin/env python
"""Run the pytest-benchmark suites and persist machine-readable results.

Each selected ``bench_*.py`` file is executed under pytest with
``--benchmark-json``; the raw output is condensed to one JSON document per
suite under ``benchmarks/results/<suite>.json``::

    {
      "suite": "bench_rothko_scaling",
      "smoke": false,
      "max_rss_mb": 189.3,
      "metrics": {"counters": {"rothko.splits": 1270, ...},
                  "gauges": {...}, "histograms": {...}},
      "spans": {"rothko.split": {"count": 1270, "total_s": ...}, ...},
      "results": [
        {"name": "test_rothko_scaling_colors[128]", "median": 0.053,
         "mean": 0.054, "stddev": 0.001, "rounds": 9},
        ...
      ]
    }

Each suite runs pytest in a child interpreter with an observability
recorder installed, so the condensed document carries the suite's
metrics snapshot (``metrics``) and per-span-name aggregates (``spans``)
alongside the timings.  The child also reports its own peak RSS
(``resource.getrusage`` — KiB on Linux, bytes on macOS; ``None`` on
platforms without the ``resource`` module), persisted as ``max_rss_mb``;
benchmarks that attach ``extra_info`` (e.g. the large-scale Rothko
suite's traced peak memory) carry it through to the condensed results.

Usage::

    python benchmarks/run_benchmarks.py --json                      # all suites
    python benchmarks/run_benchmarks.py --json --select rothko_scaling
    python benchmarks/run_benchmarks.py --json --smoke --select rothko_scaling

``--smoke`` runs a single round of the smallest parametrization (per the
registry below) — fast enough for CI, still exercising the real perf
path end to end.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

#: ``-k`` filters selecting the smallest parametrization for smoke mode
SMOKE_FILTERS = {
    "bench_rothko_scaling": (
        "test_rothko_scaling_nodes[500] or test_rothko_scaling_colors[8]"
    ),
    # Quarter-million-node coloring with the memory-ceiling assertion,
    # plus the colors[128] 5x peak-memory-reduction guard; the full
    # million-node case stays out of smoke.
    "bench_rothko_largescale": (
        "test_largescale_coloring[250000] or colors128"
    ),
    "bench_core_micro": "test_q_error_evaluation or dinic",
    # Quarter-million-node mmap-vs-resident parity; the million-node
    # parity case and the 100M-arc ingest+color run stay out of smoke.
    "bench_outofcore_scale": "test_outofcore_parity[250000]",
    # bench_dynamic_updates needs no filter: its single test covers all
    # scenarios in one ~1 s pass (a stale "random" filter used to
    # deselect it entirely).
    # Time both sweep strategies once each; the strict >= 3x assertion
    # test stays out of smoke mode (CI runners are too noisy for it).
    "bench_pipeline_progressive": "test_sweep",
    # Time Dinic and Brandes once each; the parallel-Brandes assertion
    # test stays out of smoke.
    "bench_solver_backends": "test_dinic_time or test_brandes_time",
}


def discover(selects: list[str]) -> list[pathlib.Path]:
    suites = sorted(BENCH_DIR.glob("bench_*.py"))
    if not selects:
        return suites
    return [
        path
        for path in suites
        if any(want in path.stem for want in selects)
    ]


#: in-process pytest driver: the child interpreter's own peak RSS covers
#: the whole suite (getrusage on the parent would only see itself, and
#: RUSAGE_CHILDREN is a running maximum across unrelated suites); the
#: same child installs an obs recorder so the suite's counters and span
#: aggregates ride along in the payload
_PYTEST_WRAPPER = """\
import json, sys
import pytest

from repro.obs import Recorder, recording
from repro.obs.export import aggregate_spans

recorder = Recorder()
with recording(recorder):
    code = pytest.main(sys.argv[2:])

max_rss_kb = None
try:
    import resource
except ImportError:  # non-POSIX platform: degrade, don't crash
    pass
else:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes there, KiB on Linux
        rss //= 1024
    max_rss_kb = int(rss)

payload = {
    "max_rss_kb": max_rss_kb,
    "metrics": recorder.snapshot(),
    "spans": aggregate_spans(recorder.spans),
}
with open(sys.argv[1], "w") as handle:
    json.dump(payload, handle, default=str)
sys.exit(code)
"""


def run_suite(
    path: pathlib.Path, smoke: bool, extra_args: list[str]
) -> dict | None:
    """Run one bench file under pytest-benchmark; return condensed results."""
    with tempfile.NamedTemporaryFile(
        suffix=".json", delete=False, mode="w"
    ) as handle:
        raw_path = pathlib.Path(handle.name)
    with tempfile.NamedTemporaryFile(
        suffix=".json", delete=False, mode="w"
    ) as handle:
        rss_path = pathlib.Path(handle.name)
    try:
        cmd = [
            sys.executable,
            "-c",
            _PYTEST_WRAPPER,
            str(rss_path),
            str(path),
            "-q",
            f"--benchmark-json={raw_path}",
        ]
        if smoke:
            cmd += [
                "--benchmark-min-rounds=1",
                "--benchmark-warmup=off",
                "--benchmark-max-time=0",
            ]
            smoke_filter = SMOKE_FILTERS.get(path.stem)
            if smoke_filter:
                cmd += ["-k", smoke_filter]
        cmd += extra_args
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src
        )
        completed = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
        if completed.returncode != 0:
            print(f"!! {path.stem}: pytest exited {completed.returncode}")
            return None
        raw = json.loads(raw_path.read_text())
        try:
            payload = json.loads(rss_path.read_text())
        except (OSError, ValueError):
            payload = {}
        max_rss_kb = payload.get("max_rss_kb")
        metrics = payload.get("metrics") or {
            "counters": {}, "gauges": {}, "histograms": {}
        }
        span_summary = payload.get("spans") or {}
    finally:
        raw_path.unlink(missing_ok=True)
        rss_path.unlink(missing_ok=True)

    results = []
    for entry in raw.get("benchmarks", []):
        row = {
            "name": entry["name"],
            "median": entry["stats"]["median"],
            "mean": entry["stats"]["mean"],
            "stddev": entry["stats"]["stddev"],
            "rounds": entry["stats"]["rounds"],
        }
        if entry.get("extra_info"):
            row["extra_info"] = entry["extra_info"]
        results.append(row)
    return {
        "suite": path.stem,
        "smoke": smoke,
        "python": raw.get("machine_info", {}).get("python_version"),
        "datetime": raw.get("datetime"),
        "max_rss_mb": (
            round(max_rss_kb / 1024.0, 1) if max_rss_kb else None
        ),
        "metrics": metrics,
        "spans": span_summary,
        "results": results,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        action="store_true",
        help="persist condensed results to benchmarks/results/<suite>.json",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="SUBSTR",
        help="only run suites whose file name contains SUBSTR (repeatable)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="1 round of the smallest parametrization (CI guard mode)",
    )
    parser.add_argument(
        "pytest_args",
        nargs="*",
        help="extra arguments forwarded to pytest",
    )
    args = parser.parse_args(argv)

    suites = discover(args.select)
    if not suites:
        print(f"no benchmark suites match {args.select}")
        return 2

    failures = 0
    for path in suites:
        print(f"== {path.stem} ==")
        condensed = run_suite(path, args.smoke, args.pytest_args)
        if condensed is None:
            failures += 1
            continue
        for row in condensed["results"]:
            print(
                f"  {row['name']}: median {row['median'] * 1000:.2f} ms "
                f"({row['rounds']} rounds)"
            )
        if condensed.get("max_rss_mb"):
            print(f"  peak RSS: {condensed['max_rss_mb']} MB")
        counters = condensed.get("metrics", {}).get("counters", {})
        if counters:
            top = sorted(counters.items(), key=lambda item: -item[1])[:4]
            print(
                "  counters: "
                + ", ".join(f"{name}={value:g}" for name, value in top)
            )
        if args.json:
            RESULTS_DIR.mkdir(exist_ok=True)
            out_path = RESULTS_DIR / f"{path.stem}.json"
            out_path.write_text(json.dumps(condensed, indent=2) + "\n")
            print(f"  -> {out_path.relative_to(REPO_ROOT)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
