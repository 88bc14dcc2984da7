"""Wall-clock timing helpers used by the experiment harness and the
compress–solve–lift pipeline.

:meth:`StageTimer.stage` is re-homed on the observability tracer: each
stage opens a ``pipeline.<name>`` span on the active recorder (a no-op
when tracing is disabled), so pipeline stage timings show up in trace
exports without any caller changes.  The accumulated
:class:`StageTimings` dataclass API is unchanged.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Tuple

from repro.obs import trace as _trace


class Stopwatch:
    """A restartable wall-clock stopwatch with lap support.

    Used by the responsiveness experiment (Table 6) to record the
    time-to-first-result and the inter-update latency of the anytime
    Rothko loop.
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self.laps: list[float] = []

    def start(self) -> "Stopwatch":
        """Start (or restart) the stopwatch and clear recorded laps."""
        self._start = time.perf_counter()
        self.laps = []
        return self

    def lap(self) -> float:
        """Record and return the elapsed time since :meth:`start`."""
        if self._start is None:
            raise RuntimeError("Stopwatch.lap() called before start()")
        elapsed = time.perf_counter() - self._start
        self.laps.append(elapsed)
        return elapsed

    def elapsed(self) -> float:
        """Return elapsed seconds since :meth:`start` without recording."""
        if self._start is None:
            raise RuntimeError("Stopwatch.elapsed() called before start()")
        return time.perf_counter() - self._start


def time_call(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Any, float]:
    """Call ``fn(*args, **kwargs)`` and return ``(result, seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


@dataclass(frozen=True)
class StageTimings:
    """Per-stage wall-clock seconds of one compress–solve–lift run.

    The shared timing record of the pipeline: every task result and
    every per-application ``Approx*Result`` dataclass carries exactly
    one of these as its ``timings`` field.

    ``coloring`` covers the (incremental) Rothko work attributable to
    the run, ``reduce`` the reduced-problem construction, ``solve`` the
    reduced solve, and ``lift`` mapping the solution back to the
    original problem.  Stages that do not apply stay ``0.0``.
    """

    coloring: float = 0.0
    reduce: float = 0.0
    solve: float = 0.0
    lift: float = 0.0

    @property
    def total(self) -> float:
        return self.coloring + self.reduce + self.solve + self.lift


class StageTimer:
    """Accumulates :class:`StageTimings` stages via a context manager.

    >>> timer = StageTimer()
    >>> with timer.stage("solve"):
    ...     pass
    >>> timer.freeze().solve >= 0.0
    True
    """

    def __init__(self) -> None:
        self._seconds: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            with _trace.span(f"pipeline.{name}"):
                yield
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        if name not in StageTimings.__dataclass_fields__:
            raise ValueError(f"unknown pipeline stage {name!r}")
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds

    def freeze(self) -> StageTimings:
        return StageTimings(**self._seconds)


@dataclass
class Timings:
    """Accumulates named wall-clock measurements for an experiment row."""

    entries: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, seconds: float) -> None:
        self.entries[name] = self.entries.get(name, 0.0) + seconds

    def total(self) -> float:
        return sum(self.entries.values())
