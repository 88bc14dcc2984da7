#!/usr/bin/env python
"""Perf-regression guard over consolidated ``BENCH_<date>.json`` files.

Compares a freshly produced consolidated results file (from
``run_benchmarks.py --json``) against the committed baseline, suite by
suite and benchmark by benchmark, and fails when any shared
benchmark's median regressed beyond the threshold (default 1.5x).

Smoke runs time one round of the smallest parametrization — far too
noisy to gate on — so the median comparison is only *enforced* when
neither side is a smoke run.  A smoke run also selects a handful of
suites, so a baseline suite missing from a smoke run is a note, not a
failure (``run_benchmarks.py`` already exits 1 when a selected suite
fails); a non-smoke run must cover every baseline suite.  Benchmarks
present on only one side are reported but never fail the run: suites
grow.

Usage::

    python benchmarks/check_regressions.py \\
        --baseline BENCH_2026-08-08.json --current BENCH_2026-09-01.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

DEFAULT_THRESHOLD = 1.5

#: medians below this are timer noise, not signal — never gate on them
MIN_GATED_SECONDS = 1e-3


def _load(path: str, role: str) -> dict:
    """Read and schema-check one consolidated BENCH json.

    A corrupt, empty, or wrong-shaped file fails with a message naming
    the file and the problem — a baseline that silently parses to the
    wrong shape would otherwise crash deep inside ``compare`` (or,
    worse, gate nothing at all).
    """
    try:
        text = pathlib.Path(path).read_text()
    except OSError as exc:
        raise SystemExit(f"cannot read {role} {path}: {exc}") from exc
    if not text.strip():
        raise SystemExit(f"{role} {path} is empty")
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise SystemExit(f"{role} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SystemExit(
            f"{role} {path}: expected a JSON object, "
            f"got {type(data).__name__}"
        )
    suites = data.get("suites")
    if not isinstance(suites, dict):
        raise SystemExit(
            f"{role} {path}: missing or malformed 'suites' mapping "
            f"(is this a consolidated BENCH json from run_benchmarks.py?)"
        )
    for suite, body in suites.items():
        if not isinstance(body, dict) or not isinstance(
            body.get("medians", {}), dict
        ):
            raise SystemExit(
                f"{role} {path}: suite {suite!r} is malformed "
                f"(expected an object with a 'medians' mapping)"
            )
    return data


def compare(
    baseline: dict, current: dict, threshold: float
) -> tuple[list[str], list[str]]:
    """Return ``(failures, notes)`` for current vs baseline medians."""
    failures: list[str] = []
    notes: list[str] = []
    enforce = not (baseline.get("smoke") or current.get("smoke"))
    if not enforce:
        notes.append(
            "smoke-mode medians on at least one side: "
            "coverage checked, timings not enforced"
        )
    base_suites = baseline.get("suites", {})
    cur_suites = current.get("suites", {})
    for suite, base in sorted(base_suites.items()):
        cur = cur_suites.get(suite)
        if cur is None:
            if current.get("smoke"):
                notes.append(f"{suite}: not selected by this smoke run")
            else:
                failures.append(f"{suite}: suite missing from current run")
            continue
        base_medians = base.get("medians", {})
        cur_medians = cur.get("medians", {})
        for name, base_median in sorted(base_medians.items()):
            cur_median = cur_medians.get(name)
            if cur_median is None:
                # Skipped parametrizations (optional backends, core
                # gates) are legitimate — report, don't fail.
                notes.append(f"{suite}::{name}: not in current run")
                continue
            if not enforce:
                continue
            if base_median < MIN_GATED_SECONDS:
                notes.append(
                    f"{suite}::{name}: baseline {base_median * 1e3:.3f} ms "
                    f"below gating floor"
                )
                continue
            ratio = cur_median / base_median
            line = (
                f"{suite}::{name}: {base_median * 1e3:.1f} ms -> "
                f"{cur_median * 1e3:.1f} ms ({ratio:.2f}x)"
            )
            if ratio > threshold:
                failures.append(line)
            elif ratio > 1.0:
                notes.append(line)
        for name in sorted(set(cur_medians) - set(base_medians)):
            notes.append(f"{suite}::{name}: new benchmark (no baseline)")
    for suite in sorted(set(cur_suites) - set(base_suites)):
        notes.append(f"{suite}: new suite (no baseline)")
    return failures, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed consolidated BENCH json")
    parser.add_argument("--current", required=True,
                        help="freshly produced consolidated BENCH json")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="failure ratio for median regressions "
                             "(default %(default)s)")
    args = parser.parse_args(argv)

    baseline = _load(args.baseline, "baseline")
    current = _load(args.current, "current run")
    failures, notes = compare(baseline, current, args.threshold)
    for note in notes:
        print(f"note: {note}")
    for failure in failures:
        print(f"REGRESSION: {failure}")
    if failures:
        print(
            f"{len(failures)} regression(s) beyond {args.threshold}x "
            f"against {args.baseline}"
        )
        return 1
    print(
        f"no regressions beyond {args.threshold}x against {args.baseline}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
