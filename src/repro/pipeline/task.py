"""The compress–solve–lift task protocol (the pipeline's contract).

All three of the paper's applications — max-flow (Sec. 4.2), LPs
(Sec. 4.1), betweenness centrality (Sec. 4.3) — are instances of one
pattern: *color* the problem's graph, *reduce* the problem onto the
color classes, *solve* the reduced problem, and *lift* the solution
back.  :class:`CompressionTask` captures that pattern so the runner in
:mod:`repro.pipeline.runner` can drive any application, share colorings
between them, and sweep color budgets progressively off a single Rothko
run.

A task contributes two things:

* a :class:`ColoringSpec` — the graph Rothko colors plus every knob
  that changes the split sequence (``alpha``/``beta``, split mean,
  pinned initial partition, frozen colors).  Specs are the cache key:
  two tasks with equal specs share one coloring run;
* the three stages ``reduce(problem, coloring)`` → ``solve(reduced)``
  → ``lift(coloring, reduced, solution)``.  ``reduce`` may accept the
  block-weight matrix ``W = S^T A S`` that the runner builds once per
  checkpoint.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.core.partition import Coloring
from repro.core.rothko import Rothko
from repro.utils.timing import StageTimings

__all__ = ["ColoringSpec", "CompressionTask", "TaskResult"]


def adjacency_fingerprint(matrix: sp.csr_matrix) -> str:
    """Content hash of a CSR matrix (the coloring-cache key component)."""
    digest = hashlib.sha1()
    digest.update(repr(matrix.shape).encode())
    digest.update(np.ascontiguousarray(matrix.indptr).tobytes())
    digest.update(np.ascontiguousarray(matrix.indices).tobytes())
    digest.update(np.ascontiguousarray(matrix.data).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True, eq=False)
class ColoringSpec:
    """Everything that determines a Rothko run, minus the stopping rule.

    Two runs with the same spec walk the *same* split sequence — the
    stopping knobs (color budget, q tolerance) only decide where along
    that sequence they stop.  That prefix property is what lets the
    coloring cache serve one engine to many tasks and checkpoints.
    """

    adjacency: sp.csr_matrix
    alpha: float = 0.0
    beta: float = 0.0
    split_mean: str = "arithmetic"
    initial: Coloring | None = None
    frozen: tuple[int, ...] = ()
    error_mode: str = "absolute"

    def build_engine(self) -> Rothko:
        return Rothko(
            self.adjacency,
            initial=self.initial,
            alpha=self.alpha,
            beta=self.beta,
            split_mean=self.split_mean,
            frozen=self.frozen,
            error_mode=self.error_mode,
        )

    def cache_key(self) -> tuple:
        """Hashable fingerprint identifying the split sequence.

        Memoized on the (frozen, immutable) spec: the adjacency hash is
        an ``O(nnz)`` pass, and tasks reuse one spec object across every
        checkpoint of a sweep.
        """
        key = getattr(self, "_cache_key", None)
        if key is None:
            initial_key = (
                None
                if self.initial is None
                else hashlib.sha1(self.initial.labels.tobytes()).hexdigest()
            )
            key = (
                adjacency_fingerprint(self.adjacency),
                self.alpha,
                self.beta,
                self.split_mean,
                initial_key,
                tuple(sorted(self.frozen)),
                self.error_mode,
            )
            object.__setattr__(self, "_cache_key", key)
        return key


class CompressionTask(ABC):
    """One application expressed as compress–solve–lift stages.

    Subclasses hold the problem instance (flow network, LP, graph) plus
    task configuration (bound, weight mode, solver, seed) and implement
    the stages.  Stages must be *stateless across calls*: the
    progressive runner invokes them once per checkpoint of a single
    coloring run.
    """

    #: short task identifier used in result rows and the CLI
    name: str = "task"
    #: whether ``reduce`` consumes the block-weight matrix ``W = S^T A S``
    #: (the runner builds W only for tasks that use it)
    uses_block_weights: bool = True

    #: the problem instance handed to ``reduce``
    problem: Any

    @abstractmethod
    def coloring_spec(self) -> ColoringSpec:
        """The coloring problem this task needs solved."""

    @abstractmethod
    def reduce(
        self,
        problem: Any,
        coloring: Coloring,
        *,
        block_weights: np.ndarray | None = None,
        max_q_err: float | None = None,
    ) -> Any:
        """Build the reduced problem for one coloring.

        ``block_weights`` (dense ``k x k``, canonical color ids) and
        ``max_q_err`` are passed by the runner, which already has them;
        implementations must recompute them when ``None``.
        """

    @abstractmethod
    def solve(self, reduced: Any) -> Any:
        """Solve the reduced problem."""

    @abstractmethod
    def lift(self, coloring: Coloring, reduced: Any, solution: Any) -> Any:
        """Map a reduced solution back to the original problem space."""

    @abstractmethod
    def value(self, reduced: Any, solution: Any, lifted: Any) -> float:
        """Scalar summary of the solution (objective / flow value /
        score checksum) used by experiments and equality tests."""

    def exact_reference(self) -> Any:
        """Solve the *original* problem exactly (the certification
        oracle for :func:`repro.pipeline.certified.run_certified`).

        Tasks that cannot produce an exact answer keep the default and
        are rejected by certified mode with a clear error.
        """
        raise NotImplementedError(
            f"task {self.name!r} does not support certified mode "
            f"(no exact reference)"
        )

    def certified_error(self, exact: Any, result: "TaskResult") -> float:
        """Measured relative error of a compressed solve vs ``exact``.

        Must return a value comparable against the certified-mode
        ``eps`` — 0.0 means the compressed answer matches the exact one.
        """
        raise NotImplementedError(
            f"task {self.name!r} does not support certified mode "
            f"(no error measure)"
        )

    def solve_key(self) -> tuple | None:
        """Hashable fingerprint of everything that shapes reduce/solve/
        lift *besides* the coloring — the
        :class:`~repro.pipeline.cache.ReducedSolveCache` key component.

        ``None`` (the default) marks the task as not cacheable: the
        runner will always re-solve.  Adapters whose stages are pure
        functions of (problem, configuration, coloring) override this;
        anything influencing the solution must be in the key, and the
        problem data itself must be covered when the coloring spec's
        adjacency hash doesn't already pin it (the LP adapter hashes its
        ``b``/``c`` vectors for exactly that reason).
        """
        return None


@dataclass(frozen=True)
class TaskResult:
    """Output of one pipeline run (one task at one coloring checkpoint)."""

    task: str
    coloring: Coloring
    max_q_err: float
    reduced: Any
    solution: Any
    lifted: Any
    value: float
    timings: StageTimings = field(default_factory=StageTimings)

    @property
    def n_colors(self) -> int:
        return self.coloring.n_colors
