"""Self-test of compare mode: a 2x slowdown in one layer gets named.

    python3 perfbench/selftest.py

Runs the max-flow workload at a small scale in this interpreter: traced
passes as they are, alternating with traced passes in which
``MaxFlowTask.reduce`` is wrapped, here and not in ``src/``, to take
twice its time.  Compare mode must then name ``flow.reduce_s`` as the
per-layer metric that moved most, although the reduce stage is only a
few percent of a pass.  Exits 0 on success, 1 otherwise.
"""

from __future__ import annotations

import os
import sys
import time

import run

os.environ.update(run.PINNED_ENV)

import worker  # noqa: E402  (the pinned environment must precede numpy)
from repro.pipeline import MaxFlowTask  # noqa: E402

WORKLOAD = worker.WORKLOADS["maxflow-tsukuba0"]
SCALE = 0.1
ROUNDS = 5
EXPECTED = "flow.reduce_s"


def twice_as_slow(original):
    """``original`` followed by a busy wait as long as the call took."""

    def slowed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            until = 2.0 * time.perf_counter() - start
            while time.perf_counter() < until:
                pass

    return slowed


def traced_record(inputs: worker.Inputs) -> dict:
    _, layers = worker.run_pass(inputs, traced=True)
    return {"workload": WORKLOAD.name, "trace": 1, "metrics": layers}


def main() -> int:
    inputs = worker.Inputs(WORKLOAD, WORKLOAD.dataset_seed, SCALE)
    worker.run_pass(inputs)  # warm-up: lazy set-up and memoized snapshots
    original = MaxFlowTask.__dict__["reduce"]
    baseline, slowed = [], []
    for _ in range(ROUNDS):
        baseline.append(traced_record(inputs))
        MaxFlowTask.reduce = twice_as_slow(original)
        try:
            slowed.append(traced_record(inputs))
        finally:
            MaxFlowTask.reduce = original
    report = run.compare(baseline, slowed, run.load_benchmark())
    named = report[WORKLOAD.name]["moved_most"]
    if named != EXPECTED:
        print(f"selftest FAILED: compare named {named!r}, not {EXPECTED!r}")
        return 1
    print(f"selftest ok: compare named {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
