#!/usr/bin/env python
"""Profile a compress–solve–lift max-flow run with the obs subsystem.

The worked ``repro profile`` example: run the max-flow pipeline under a
recorder, print the per-span summary (where did the time go — coloring,
reduce, solve, lift?), inspect the engine counters, and dump the whole
trace as JSONL.  The same profile is available from the command line:

    python -m repro profile solve --task maxflow --dataset tsukuba0 \\
        --scale 0.002 --colors 32 --trace-out trace.jsonl

Run:  python examples/profile_maxflow.py
"""

import io
import json

from repro import obs
from repro.datasets.registry import load_flow
from repro.pipeline import MaxFlowTask, progressive_sweep


def main() -> None:
    network = load_flow("tsukuba0", scale=0.002)
    print(f"Flow network: {network}\n")

    # Everything inside the recording() scope is traced; outside it the
    # same instrumentation routes to a null recorder and costs nothing.
    with obs.recording() as recorder:
        with obs.trace.span("example.profile_maxflow"):
            results = progressive_sweep(MaxFlowTask(network), (8, 16, 32))

    for result in results:
        print(
            f"  k={result.n_colors:>3}  max_q={result.max_q_err:8.3f}  "
            f"flow={result.value:10.1f}  total={result.timings.total:.3f}s"
        )
    print()

    # Per-span-name aggregates: count / total wall / p50 / p99 / CPU.
    print(obs.render_summary(recorder, title="max-flow pipeline profile"))
    print()

    # The counters answer "what did the engines actually do".
    counters = recorder.snapshot()["counters"]
    for name in (
        "rothko.splits",
        "rothko.witness_s",
        "rothko.threshold_s",
        "rothko.refresh_s",
        "kernels.bincount_cells",
        "solvers.pr.relabels",
        "pipeline.cache.miss",
        "pipeline.cache.hit",
    ):
        print(f"  {name:24} = {counters.get(name, 0):g}")
    print()

    # The JSONL dump is what --trace-out writes; every line is one JSON
    # object (a meta header, then spans and metrics).
    buffer = io.StringIO()
    lines = obs.write_jsonl(recorder, buffer)
    first_span = next(
        json.loads(line)
        for line in buffer.getvalue().splitlines()
        if json.loads(line)["type"] == "span"
    )
    print(f"JSONL trace: {lines} lines; first span record:")
    print(f"  {json.dumps(first_span)[:120]}...")

    # The root span accounts for (essentially) the whole run.
    root_wall, coverage = obs.root_coverage(recorder.spans)
    print(
        f"root span wall {root_wall:.3f}s, {coverage:.0%} covered by "
        f"direct children"
    )
    assert coverage > 0.9


if __name__ == "__main__":
    main()
