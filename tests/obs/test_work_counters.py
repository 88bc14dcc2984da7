"""Work-counter gate: four small paper runs replayed against a fixture.

Each run is one of the ledger's four tasks at a small fixed scale, in
process, with every task at its defaults:

* max-flow on tsukuba0@0.05 at k = 16/64/256;
* LP on supportcase10@0.1 at k = 16/64/256;
* centrality on astroph@0.1 at k = 16/64;
* churn: ``q_color(n_colors=64)`` on openflights@1.0, then 200 hub
  updates applied one at a time.

The obs counters of a run count work (splits, scattered cells, patched
cells, Dinic phases, Brandes sources, merge tests), not time, so they
are deterministic: every counter except the ``*_s`` timers must equal
the fixture exactly, and each checkpoint's colors, max q-error and
value must match to a relative 1e-9.  A change that does more or less
work fails here and names the workload and the counter.

A change that alters the work on purpose rewrites the fixture with::

    python tests/obs/test_work_counters.py --regenerate

and says why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

if __name__ == "__main__":  # run as a script: import repro from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import pytest

from repro.core.qerror import max_q_err
from repro.core.rothko import q_color
from repro.datasets.churn import hub_churn
from repro.datasets.registry import load_flow, load_graph, load_lp
from repro.dynamic import DynamicColoring
from repro.obs import Recorder, recording
from repro.pipeline import (
    CentralityTask,
    LPTask,
    MaxFlowTask,
    progressive_sweep,
)

FIXTURE = Path(__file__).with_name("fixtures") / "work_counters.json"

#: relative tolerance on the quality trajectory (colors are exact)
RTOL = 1e-9


def _sweep(task, budgets) -> list[dict]:
    return [
        {
            "budget": budget,
            "colors": result.n_colors,
            "max_q_err": float(result.max_q_err),
            "value": float(result.value),
        }
        for budget, result in zip(budgets, progressive_sweep(task, budgets))
    ]


def _maxflow() -> tuple[list[dict], dict]:
    network = load_flow("tsukuba0", scale=0.05, seed=20)
    return _sweep(MaxFlowTask(network), [16, 64, 256]), {}


def _lp() -> tuple[list[dict], dict]:
    lp = load_lp("supportcase10", scale=0.1, seed=32)
    return _sweep(LPTask(lp), [16, 64, 256]), {}


def _centrality() -> tuple[list[dict], dict]:
    graph = load_graph("astroph", scale=0.1, seed=12)
    return _sweep(CentralityTask(graph, seed=12), [16, 64]), {}


def _churn() -> tuple[list[dict], dict]:
    graph = load_graph("openflights", scale=1.0, seed=10)
    seeded = q_color(graph, n_colors=64)
    dynamic = DynamicColoring(
        graph, q_tolerance=seeded.max_q_err, coloring=seeded.coloring
    )
    for update in hub_churn(graph, 200, seed=10):
        dynamic.apply(update)
    final = dynamic.snapshot()
    trajectory = [
        {"checkpoint": "seed", "colors": seeded.n_colors,
         "max_q_err": float(seeded.max_q_err)},
        {"checkpoint": "final", "colors": final.n_colors,
         "max_q_err": float(max_q_err(graph.to_csr(), final))},
    ]
    stats = {
        name: value
        for name, value in vars(dynamic.stats).items()
        if isinstance(value, int)
    }
    return trajectory, stats


WORKLOADS = {
    "maxflow": _maxflow,
    "lp": _lp,
    "centrality": _centrality,
    "churn": _churn,
}


def measure(name: str) -> dict:
    """One workload's work counters, trajectory and engine stats."""
    with recording(Recorder()) as recorder:
        trajectory, stats = WORKLOADS[name]()
    counters = {
        counter: value
        for counter, value in sorted(recorder.snapshot()["counters"].items())
        if not counter.endswith("_s")
    }
    record = {"counters": counters, "trajectory": trajectory}
    if stats:
        record["stats"] = stats
    return record


def _close(expected: float, actual: float) -> bool:
    if math.isinf(expected) or math.isinf(actual):
        return expected == actual
    return math.isclose(expected, actual, rel_tol=RTOL, abs_tol=0.0)


def mismatches(name: str, expected: dict, actual: dict) -> list[str]:
    """Every difference between two records, one line each."""
    lines = []
    for section in ("counters", "stats"):
        want, got = expected.get(section, {}), actual.get(section, {})
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                lines.append(
                    f"{name}: {section[:-1]} {key}: expected "
                    f"{want.get(key)}, got {got.get(key)}"
                )
    want, got = expected["trajectory"], actual["trajectory"]
    if len(want) != len(got):
        lines.append(
            f"{name}: {len(want)} checkpoints expected, got {len(got)}"
        )
    for before, after in zip(want, got):
        where = before.get("budget", before.get("checkpoint"))
        for key, value in before.items():
            if isinstance(value, str) or key == "budget":
                continue
            exact = key == "colors"
            if (after[key] != value) if exact else not _close(value, after[key]):
                lines.append(
                    f"{name}: checkpoint {where} {key}: expected {value!r}, "
                    f"got {after[key]!r}"
                )
    return lines


@pytest.fixture(scope="module")
def fixture() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_work_counters(name, fixture):
    problems = mismatches(name, fixture[name], measure(name))
    assert not problems, "work changed:\n" + "\n".join(problems)


def test_fixture_covers_every_workload(fixture):
    assert sorted(fixture) == sorted(WORKLOADS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--regenerate", action="store_true",
        help=f"rewrite {FIXTURE.name} from this checkout's runs",
    )
    args = parser.parse_args(argv)
    records = {name: measure(name) for name in WORKLOADS}
    if args.regenerate:
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(json.dumps(records, indent=2) + "\n")
        print(f"wrote {FIXTURE}")
        return 0
    expected = json.loads(FIXTURE.read_text())
    problems = [
        line
        for name in WORKLOADS
        for line in mismatches(name, expected[name], records[name])
    ]
    print("\n".join(problems) or "work counters match")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
