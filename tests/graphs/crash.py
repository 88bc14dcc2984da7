"""Crash one real ingest step at a chosen visit.

``arm_crash(patch, "step@n", crash)`` wraps a step of
:mod:`repro.graphs.edgestore` so that its ``n``-th visit calls
``crash()`` before the step does any work:

``spill``    ``EdgeStoreWriter._flush_run`` (a sorted run spills);
``journal``  ``EdgeStoreWriter._write_journal`` (a spill is journaled);
``merge``    each block emitted by the first ``_merge_runs`` call (CSR);
``csc``      each block emitted by the second ``_merge_runs`` call (CSC);
``commit``   ``EdgeStoreWriter._commit_stage`` (the staged swap).

``patch(target, name, value)`` installs the wrapper: pytest's
``monkeypatch.setattr`` in process, plain ``setattr`` in a child that
``crash`` kills.  Visits keep counting after the crash, so a resume
under the same patch runs through.
"""

from __future__ import annotations

from itertools import count

from repro.graphs import edgestore

_METHODS = {
    "spill": "_flush_run",
    "journal": "_write_journal",
    "commit": "_commit_stage",
}
_MERGE_CALLS = {"merge": 1, "csc": 2}


class Crash(Exception):
    """The in-process stand-in for a crash."""


def raise_crash() -> None:
    raise Crash("crashed by arm_crash")


def arm_crash(patch, site: str, crash) -> None:
    step, _, visit = site.partition("@")
    visits = count(1)

    def visited() -> None:
        if next(visits) == int(visit):
            crash()

    if step in _METHODS:
        step_method = getattr(edgestore.EdgeStoreWriter, _METHODS[step])

        def crashing_step(self, *args, **kwargs):
            visited()
            return step_method(self, *args, **kwargs)

        patch(edgestore.EdgeStoreWriter, _METHODS[step], crashing_step)
        return
    merge_runs, calls = edgestore._merge_runs, count(1)

    def crashing_merge(run_files, n, emit, *args, **kwargs):
        def crashing_emit(keys, payload):
            visited()
            emit(keys, payload)

        if next(calls) == _MERGE_CALLS[step]:
            return merge_runs(run_files, n, crashing_emit, *args, **kwargs)
        return merge_runs(run_files, n, emit, *args, **kwargs)

    patch(edgestore, "_merge_runs", crashing_merge)
