"""Keyed coloring cache: one Rothko run serving many consumers.

Rothko's split sequence is fully determined by its
:class:`~repro.pipeline.task.ColoringSpec` — the stopping knobs only
pick a prefix.  :class:`ProgressiveRun` exploits that: it drives a
single engine monotonically forward, records the q-error trajectory,
and can answer "the coloring a fresh run with *these* stopping knobs
would have produced" for any knobs whose stopping point it has already
passed, without recoloring.  :class:`ColoringCache` keys such runs by
spec fingerprint so one coloring is shared across tasks (LP ``sqrt``
and ``grohe`` modes), weight modes, and every checkpoint of a multi-k
sweep.

:class:`ReducedSolveCache` plays the same role one tier up: it keys the
*outputs* of a task's reduce–solve–lift stages on ``(coloring spec,
task solve key, checkpoint)``, so progressive sweeps and the
compression harness never re-solve a reduced problem the coloring
hasn't changed — e.g. a q-target met early makes every later budget
resolve to the same checkpoint, and only the first pays for a solve.
"""

from __future__ import annotations

import numpy as np

from repro.core.partition import Coloring
from repro.core.reduced import block_weights
from repro.obs import recorder as _obs
from repro.obs import trace as _trace
from repro.pipeline.task import ColoringSpec

__all__ = ["ColoringCache", "ProgressiveRun", "ReducedSolveCache"]


class ProgressiveRun:
    """One Rothko engine advanced monotonically across consumers.

    The engine only moves forward; earlier checkpoints stay serveable
    through the recorded ``(n_colors, q_err)`` history and
    parent-pointer coloring replay.  Block weights are one sparse
    product ``S^T A S`` per checkpoint, whichever order a sweep visits
    the checkpoints in.
    """

    def __init__(self, spec: ColoringSpec) -> None:
        self.spec = spec
        self.engine = spec.build_engine()
        #: color counts reached, in refinement order
        self._reached: list[int] = [self.engine.k]
        #: q-error of each reached state
        self._q_err: dict[int, float] = {
            self.engine.k: self.engine.max_q_err()
        }
        self._colorings: dict[int, Coloring] = {}

    @property
    def n_colors(self) -> int:
        return self.engine.k

    def advance(
        self, max_colors: int | None = None, q_tolerance: float = 0.0
    ) -> None:
        """Refine until the given stopping rule holds (or no witness
        remains), recording the q-error of every state passed.

        Each split's ``q_err_before`` is the error of the *previous*
        state, so the history costs nothing extra per split; only the
        final state needs one ``O(k^2)`` scan.
        """
        engine = self.engine
        advanced = False
        with _trace.span(
            "pipeline.advance",
            from_colors=engine.k,
            max_colors=max_colors,
            q_tolerance=q_tolerance,
        ) as advance_span:
            for step in engine.steps(
                max_colors=max_colors, q_tolerance=q_tolerance
            ):
                advanced = True
                self._q_err[step.n_colors - 1] = step.q_err_before
                self._reached.append(step.n_colors)
            if advanced:
                self._q_err[engine.k] = engine.max_q_err()
            advance_span.set(to_colors=engine.k)

    def resolve(
        self, max_colors: int | None = None, q_tolerance: float = 0.0
    ) -> int:
        """Color count where a fresh run with these knobs would stop.

        Scans the recorded trajectory for the first state satisfying
        the stopping rule; advances the engine if no recorded state
        does.  This is what makes cache hits *exact*: the returned
        checkpoint matches ``Rothko.run(max_colors, q_tolerance)`` on a
        fresh engine, state for state.
        """
        for n_colors in self._reached:
            if max_colors is not None and n_colors >= max_colors:
                return n_colors
            if self._q_err[n_colors] <= q_tolerance:
                return n_colors
        self.advance(max_colors=max_colors, q_tolerance=q_tolerance)
        return self.engine.k

    def coloring(self, n_colors: int) -> Coloring:
        """Canonical coloring at a reached checkpoint (memoized)."""
        if n_colors not in self._colorings:
            self._colorings[n_colors] = self.engine.coloring_at(n_colors)
        return self._colorings[n_colors]

    def q_err(self, n_colors: int) -> float:
        return self._q_err[n_colors]

    def weights(self, n_colors: int) -> np.ndarray:
        """Dense block weights ``W = S^T A S`` at a reached checkpoint,
        in canonical color-id order (aligned with :meth:`coloring`)."""
        return block_weights(
            self.spec.adjacency, self.coloring(n_colors)
        ).toarray()


class ColoringCache:
    """Spec-keyed registry of :class:`ProgressiveRun` instances.

    A cached run pins its Rothko engine — the memory-flat ``O(m + k^2)``
    state: CSR/CSC adjacency snapshots, member lists, the two ``k x k``
    error matrices and their witness maxima — plus its memoized checkpoint
    colorings for the cache's lifetime, so scope a cache to one sweep or
    experiment call (every driver here creates its own by default) and
    :meth:`clear` it when reuse is over.

    Every lookup is mirrored to the active observability recorder as a
    ``pipeline.cache.hit`` / ``pipeline.cache.miss`` counter.
    """

    def __init__(self) -> None:
        self._runs: dict[tuple, ProgressiveRun] = {}
        self.hits = 0
        self.misses = 0

    def run_for(self, spec: ColoringSpec) -> ProgressiveRun:
        key = spec.cache_key()
        run = self._runs.get(key)
        if run is None:
            self.misses += 1
            _obs._active.count("pipeline.cache.miss")
            run = self._runs[key] = ProgressiveRun(spec)
        else:
            self.hits += 1
            _obs._active.count("pipeline.cache.hit")
        return run

    def clear(self) -> None:
        """Drop every cached run (and the engine memory each pins)."""
        self._runs.clear()

    def __len__(self) -> int:
        return len(self._runs)


class ReducedSolveCache:
    """Cache of reduce–solve–lift outputs, keyed per checkpoint.

    Keys are ``(spec.cache_key(), task.solve_key(), checkpoint)`` —
    everything that determines the reduced problem and its solution:
    the split sequence (spec), where along it we stopped (checkpoint),
    and every task knob shaping the three stages (solve key).  Tasks
    whose :meth:`~repro.pipeline.task.CompressionTask.solve_key`
    returns ``None`` are never cached; the runner consults this cache
    only after checkpoint *resolution*, so a hit skips the reduce,
    solve, and lift stages entirely while the coloring itself still
    comes from the (cheap, memoized) progressive run.

    Entries are ``(reduced, solution, lifted, value)`` tuples stored by
    reference — the same objects a cache-off run would have built, so
    served results are identical field for field.  Lookups mirror to
    the active observability recorder as ``pipeline.solve_cache.hit`` /
    ``.miss`` counters.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> tuple | None:
        """The cached ``(reduced, solution, lifted, value)`` for ``key``,
        or ``None`` — every call counts as one hit or miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            _obs._active.count("pipeline.solve_cache.miss")
            return None
        self.hits += 1
        _obs._active.count("pipeline.solve_cache.hit")
        return entry

    def put(self, key: tuple, entry: tuple) -> None:
        self._entries[key] = entry

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
