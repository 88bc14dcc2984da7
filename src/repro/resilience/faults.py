"""Deterministic, seedable fault injection behind a no-op default.

Failure handling that is never exercised is failure handling that does
not work.  This module compiles *named injection points* into the
stack's long-running machinery — edge-store ingest spills and merge
chunks, the CSC build, the staged store commit — the same way
:mod:`repro.obs` compiles spans into the hot paths: the call is always
there, but with no plan installed it is one module-global load and a
``None`` check, so production runs pay nothing measurable.

A :class:`FaultPlan` arms rules against those sites::

    plan = FaultPlan().on("edgestore.merge.chunk", occurrence=2)
    with injecting(plan):
        ingest_arrays(path, src, dst)        # raises FaultInjected on
                                             # the merge's second chunk

Rules are deterministic: each fires on an exact occurrence count per
site (per process), and probabilistic rules draw from a plan-seeded
generator, so a failing schedule replays bit-identically.  Actions:

``"raise"``
    raise :class:`~repro.exceptions.FaultInjected` (the default);
``"kill"``
    ``SIGKILL`` the calling process — the crash-safety tests' hammer
    (no ``atexit``, no ``finally``, exactly like the OOM killer);
``"sleep"``
    block for ``seconds`` — simulates a stalled step (a slow disk, a
    hung dependency);
any callable
    invoked with the site's context dict (escape hatch for bespoke
    corruption).

Subprocesses opt in through the ``REPRO_FAULTS`` environment variable
(see :func:`FaultPlan.from_spec`), which the CLI arms at startup — that
is how CI kills a real ``repro ingest`` mid-merge and then resumes it.
"""

from __future__ import annotations

import fnmatch
import os
import signal
import threading
import time
from typing import Any, Callable

import numpy as np

from repro.exceptions import FaultInjected, ReproError
from repro.obs import recorder as _obs

__all__ = [
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "inject",
    "injecting",
    "install_from_env",
    "install_plan",
    "uninstall_plan",
]

#: environment variable carrying a ``FaultPlan.from_spec`` string
ENV_VAR = "REPRO_FAULTS"

ACTIONS = ("raise", "kill", "sleep")

#: the installed plan; ``None`` is the production no-op fast path
_PLAN: "FaultPlan | None" = None


class FaultRule:
    """One armed failure: a site pattern plus when and how to fire."""

    def __init__(
        self,
        site: str,
        *,
        action: "str | Callable[[dict], None]" = "raise",
        occurrence: int = 1,
        times: int | None = 1,
        probability: float = 1.0,
        seconds: float = 3600.0,
        match: dict | None = None,
    ) -> None:
        if not callable(action) and action not in ACTIONS:
            raise ValueError(
                f"action must be callable or one of {ACTIONS}, got {action!r}"
            )
        if occurrence < 1:
            raise ValueError(f"occurrence must be >= 1, got {occurrence}")
        if times is not None and times < 1:
            raise ValueError(f"times must be None or >= 1, got {times}")
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self.site = site
        self.action = action
        self.occurrence = int(occurrence)
        self.times = times
        self.probability = float(probability)
        self.seconds = float(seconds)
        self.match = dict(match) if match else None
        self.seen = 0  # matching visits (per process)
        self.fired = 0

    def matches(self, site: str, context: dict) -> bool:
        if not fnmatch.fnmatchcase(site, self.site):
            return False
        if self.match:
            return all(context.get(k) == v for k, v in self.match.items())
        return True

    def __repr__(self) -> str:
        action = self.action if isinstance(self.action, str) else "callable"
        return (
            f"<FaultRule {self.site}@{self.occurrence} action={action} "
            f"seen={self.seen} fired={self.fired}>"
        )


class FaultPlan:
    """A deterministic schedule of failures over named injection points.

    Occurrence counters and the probability stream are plan-local and
    advance only on matching visits, so two plans built the same way
    fire identically — and a plan forked into a child process carries
    its own counters (each process replays the schedule from its own
    visit stream).
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.rules: list[FaultRule] = []
        self._rng = np.random.default_rng(self.seed)
        self._lock = threading.Lock()
        #: ``(site, occurrence)`` pairs of every fired rule, in order
        self.fired: list[tuple[str, int]] = []
        self._hits: dict[str, int] = {}

    # -- construction ----------------------------------------------------
    def on(self, site: str, **kwargs: Any) -> "FaultPlan":
        """Arm a rule (chainable); see :class:`FaultRule` for knobs."""
        self.rules.append(FaultRule(site, **kwargs))
        return self

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse ``"site[@occurrence][=action][;...]"`` into a plan.

        Examples: ``"edgestore.merge.chunk@2=kill"`` kills the process
        on the merge's second emitted chunk; ``"edgestore.commit"``
        raises on the first commit.  The format is what the
        ``REPRO_FAULTS`` environment variable carries into
        subprocesses.
        """
        plan = cls(seed=seed)
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            site, _, action = part.partition("=")
            site, _, occurrence = site.partition("@")
            site = site.strip()
            if not site:
                raise ReproError(f"bad fault spec {part!r}: empty site")
            try:
                occ = int(occurrence) if occurrence else 1
            except ValueError as exc:
                raise ReproError(
                    f"bad fault spec {part!r}: occurrence must be an "
                    f"integer, got {occurrence!r}"
                ) from exc
            try:
                plan.on(
                    site, occurrence=occ, action=action.strip() or "raise"
                )
            except ValueError as exc:
                raise ReproError(f"bad fault spec {part!r}: {exc}") from exc
        if not plan.rules:
            raise ReproError(f"fault spec {spec!r} contains no rules")
        return plan

    # -- runtime ---------------------------------------------------------
    def hits(self, site: str) -> int:
        """How many times ``site`` has been visited under this plan."""
        return self._hits.get(site, 0)

    def reset(self) -> None:
        """Zero all counters and re-seed the probability stream."""
        with self._lock:
            self._rng = np.random.default_rng(self.seed)
            self.fired.clear()
            self._hits.clear()
            for rule in self.rules:
                rule.seen = 0
                rule.fired = 0

    def visit(self, site: str, context: dict) -> None:
        """Record one pass over ``site``; fire any due rule."""
        due: FaultRule | None = None
        with self._lock:
            self._hits[site] = self._hits.get(site, 0) + 1
            for rule in self.rules:
                if not rule.matches(site, context):
                    continue
                rule.seen += 1
                if rule.seen < rule.occurrence:
                    continue
                if rule.times is not None and rule.fired >= rule.times:
                    continue
                if rule.probability < 1.0:
                    # Drawn per eligible visit from the plan-seeded
                    # stream: the fire pattern is a pure function of the
                    # plan construction and the visit sequence.
                    if self._rng.random() >= rule.probability:
                        continue
                rule.fired += 1
                self.fired.append((site, rule.seen))
                due = rule
                break
        if due is None:
            return
        _obs._active.count("resilience.faults.fired")
        _obs._active.count(f"resilience.faults.{site}")
        if callable(due.action):
            due.action(dict(context, site=site))
            return
        if due.action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if due.action == "sleep":
            time.sleep(due.seconds)
            return
        raise FaultInjected(
            f"injected fault at {site} (occurrence {due.seen})"
        )


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
def inject(site: str, **context: Any) -> None:
    """The injection point: a no-op unless a plan is installed.

    Compiled into ingest chunks and the staged commit; with no plan the
    cost is one global load and a ``None`` check (guarded below 1% of
    any instrumented workload by ``tests/resilience/test_overhead.py``).
    """
    plan = _PLAN
    if plan is not None:
        plan.visit(site, context)


def install_plan(plan: "FaultPlan | None") -> "FaultPlan | None":
    """Install ``plan`` process-wide; returns the previous plan."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    return previous


def uninstall_plan() -> None:
    """Remove any installed plan (back to the no-op fast path)."""
    install_plan(None)


def active_plan() -> "FaultPlan | None":
    """The currently installed plan (``None`` in production)."""
    return _PLAN


class injecting:
    """Scoped installation: ``with injecting(plan): ...``."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._previous: FaultPlan | None = None

    def __enter__(self) -> FaultPlan:
        self._previous = install_plan(self.plan)
        return self.plan

    def __exit__(self, *exc: Any) -> None:
        install_plan(self._previous)


def install_from_env(environ=os.environ) -> "FaultPlan | None":
    """Arm the plan named by ``REPRO_FAULTS``, if any (CLI startup).

    Returns the installed plan (or ``None``).  The variable is read
    once; an empty value is a no-op, a malformed one raises — a typo'd
    fault spec silently not firing would defeat the test.
    """
    spec = environ.get(ENV_VAR, "").strip()
    if not spec:
        return None
    plan = FaultPlan.from_spec(spec)
    install_plan(plan)
    return plan
