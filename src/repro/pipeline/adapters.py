"""The three paper applications as :class:`CompressionTask` adapters.

Each adapter wires an existing application substrate — the reduced flow
network (Sec. 4.2), the LP reduction (Sec. 4.1), color-pivot Brandes
(Sec. 4.3) — into the shared compress–solve–lift protocol.  The
``approx_*`` convenience functions in ``repro.flow.approx``,
``repro.lp.reduction`` and ``repro.centrality.approx`` are thin wrappers
over these adapters plus :func:`repro.pipeline.runner.run_task`.

Every adapter takes ``backend=``, which accepts only ``None`` and
``"numpy"`` (the one kernel implementation) and changes nothing.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

from repro.centrality.approx import pivot_betweenness
from repro.centrality.brandes import betweenness_centrality
from repro.core.kernels import check_backend
from repro.core.partition import Coloring
from repro.flow.approx import flow_initial_coloring, reduced_network
from repro.flow.network import FlowNetwork, FlowResult, max_flow
from repro.lp.model import LinearProgram
from repro.lp.reduction import initial_bipartite_coloring, reduce_lp
from repro.lp.solve import solve_lp
from repro.graphs.digraph import WeightedDiGraph
from repro.pipeline.task import ColoringSpec, CompressionTask
from repro.utils.rng import SeedLike
from repro.utils.stats import ratio_error

__all__ = ["MaxFlowTask", "LPTask", "CentralityTask", "task_for"]


class MaxFlowTask(CompressionTask):
    """Reduced max-flow (Theorem 6): color with ``s``/``t`` pinned,
    reduce to the block capacity sums ``c_hat_2`` (exactly the block
    weights the runner passes to ``reduce``), solve on the reduced
    network.  The value over-approximates ``maxFlow(G)``;
    :func:`~repro.flow.approx.flow_bracket` bounds it from both sides
    on request.

    ``bound`` accepts only ``"upper"``, the one reduced network.
    ``algorithm`` solves the reduced network (``"dinic"`` or
    ``"push_relabel"``); the exact reference is always Dinic.  The
    lift returns the reduced solution.  ``workers`` is accepted like on
    every task and unused: max-flow's stages run sequentially.
    """

    name = "maxflow"

    def __init__(
        self,
        network: FlowNetwork,
        bound: str = "upper",
        algorithm: str = "dinic",
        split_mean: str = "arithmetic",
        backend: str | None = None,
        workers: int | None = None,
    ) -> None:
        check_backend(backend)
        if bound != "upper":
            raise ValueError(
                f"unknown bound {bound!r}: the block-capacity network "
                "('upper') is the only reduced network"
            )
        self.problem = network
        self.algorithm = algorithm
        self.split_mean = split_mean
        self._spec: ColoringSpec | None = None

    def coloring_spec(self) -> ColoringSpec:
        if self._spec is None:
            initial, frozen = flow_initial_coloring(self.problem)
            self._spec = ColoringSpec(
                self.problem.graph.to_csr(),
                alpha=0.0,
                beta=0.0,
                split_mean=self.split_mean,
                initial=initial,
                frozen=frozen,
            )
        return self._spec

    def solve_key(self) -> tuple:
        # The coloring spec's adjacency hash pins the network (graph and
        # capacities); source/sink are pinned by the spec's initial
        # coloring.  Everything else shaping reduce/solve/lift is here.
        return (self.name, self.algorithm)

    def reduce(
        self,
        problem: FlowNetwork,
        coloring: Coloring,
        *,
        block_weights: np.ndarray | None = None,
        max_q_err: float | None = None,
    ) -> FlowNetwork:
        return reduced_network(problem, coloring, block_weights=block_weights)

    def solve(self, reduced: FlowNetwork) -> FlowResult:
        return max_flow(reduced, algorithm=self.algorithm)

    def lift(
        self, coloring: Coloring, reduced: FlowNetwork, solution: FlowResult
    ) -> FlowResult:
        return solution

    def value(
        self, reduced: FlowNetwork, solution: FlowResult, lifted: FlowResult
    ) -> float:
        return solution.value

    def exact_reference(self) -> float:
        """Exact max-flow value on the original network, by Dinic
        whatever ``algorithm`` solves the reduced one."""
        return max_flow(self.problem).value

    def certified_error(self, exact: float, result) -> float:
        """Paper Sec. 6.1 ratio error, shifted so 0.0 is exact."""
        return ratio_error(exact, result.value) - 1.0


class LPTask(CompressionTask):
    """Reduced linear programs (Eq. 6): color the extended matrix's
    bipartite graph, scale the block sums by class sizes, solve the
    reduced LP, and lift ``x = V^T x_hat`` (Eq. 10).  ``workers`` is
    accepted like on every task and unused: the LP stages run
    sequentially.  ``method="scipy"`` loads HiGHS (``scipy.optimize``)
    when the task is built, so set-up pays for that import rather than
    the first checkpoint."""

    name = "lp"

    def __init__(
        self,
        lp: LinearProgram,
        mode: str = "sqrt",
        method: str = "scipy",
        alpha: float = 1.0,
        beta: float = 0.0,
        backend: str | None = None,
        workers: int | None = None,
    ) -> None:
        check_backend(backend)
        self.problem = lp
        self.mode = mode
        self.method = method
        self.alpha = alpha
        self.beta = beta
        self._spec: ColoringSpec | None = None
        if method == "scipy":
            import repro.lp.scipy_backend  # noqa: F401

    def coloring_spec(self) -> ColoringSpec:
        if self._spec is None:
            initial, frozen = initial_bipartite_coloring(
                self.problem.n_rows, self.problem.n_cols
            )
            self._spec = ColoringSpec(
                self.problem.bipartite_adjacency(),
                alpha=self.alpha,
                beta=self.beta,
                split_mean="arithmetic",
                initial=initial,
                frozen=frozen,
            )
        return self._spec

    def solve_key(self) -> tuple:
        # The spec's adjacency hash covers the extended matrix's sparsity
        # pattern and stored values, but b/c entries that happen to be
        # zero leave no stored trace there — hash them outright so two
        # LPs differing only in unstored coefficients never alias.
        digest = hashlib.sha1()
        digest.update(np.ascontiguousarray(self.problem.b).tobytes())
        digest.update(np.ascontiguousarray(self.problem.c).tobytes())
        return (self.name, self.mode, self.method, digest.hexdigest())

    def reduce(
        self,
        problem: LinearProgram,
        coloring: Coloring,
        *,
        block_weights: np.ndarray | None = None,
        max_q_err: float | None = None,
    ):
        return reduce_lp(
            problem,
            mode=self.mode,
            coloring=coloring,
            block_weights=block_weights,
            max_q_err=max_q_err,
        )

    def solve(self, reduced):
        return solve_lp(reduced.reduced, method=self.method)

    def lift(self, coloring: Coloring, reduced, solution) -> np.ndarray:
        return reduced.lift(solution.x)

    def value(self, reduced, solution, lifted) -> float:
        return solution.objective

    def exact_reference(self) -> float:
        """Exact optimal objective of the original LP."""
        return solve_lp(self.problem, method=self.method).objective

    def certified_error(self, exact: float, result) -> float:
        """Paper Sec. 6.1 ratio error, shifted so 0.0 is exact."""
        return ratio_error(exact, result.value) - 1.0


class CentralityTask(CompressionTask):
    """Color-pivot betweenness (Sec. 4.3): ``alpha = beta = 1``
    coloring, one weighted Brandes pass per color representative.

    The reduce stage is the coloring itself (the pivot set *is* the
    compression), solving runs the weighted dependency accumulation,
    and the scores already live in node space, so lifting selects them.
    Each solve draws representatives from a fresh ``seed``-keyed
    generator, so results at a given checkpoint are reproducible and
    independent of sweep order.  ``workers`` fans the Brandes source
    batches out over threads.
    """

    name = "centrality"
    uses_block_weights = False

    def __init__(
        self,
        graph: WeightedDiGraph,
        seed: SeedLike = 0,
        pivots_per_color: int = 1,
        split_mean: str = "geometric",
        backend: str | None = None,
        workers: int | None = None,
    ) -> None:
        check_backend(backend)
        self.problem = graph
        self.seed = seed
        self.pivots_per_color = pivots_per_color
        self.split_mean = split_mean
        self.workers = workers
        self._spec: ColoringSpec | None = None

    def coloring_spec(self) -> ColoringSpec:
        if self._spec is None:
            self._spec = ColoringSpec(
                self.problem.to_csr(),
                alpha=1.0,
                beta=1.0,
                split_mean=self.split_mean,
            )
        return self._spec

    def solve_key(self) -> tuple | None:
        # Representative draws come from a fresh ``seed``-keyed generator
        # per solve, so results at a checkpoint are a pure function of
        # (coloring, seed, pivots) — cacheable only for a fixed integer
        # seed.  ``None`` (fresh entropy) and live Generator seeds draw
        # different pivots each call, so those tasks stay uncacheable.
        if not isinstance(self.seed, (int, np.integer)):
            return None
        return (self.name, int(self.seed), self.pivots_per_color)

    def reduce(
        self,
        problem: WeightedDiGraph,
        coloring: Coloring,
        *,
        block_weights: np.ndarray | None = None,
        max_q_err: float | None = None,
    ) -> Coloring:
        return coloring

    def solve(self, reduced: Coloring) -> tuple[np.ndarray, np.ndarray]:
        return pivot_betweenness(
            self.problem,
            reduced,
            seed=self.seed,
            pivots_per_color=self.pivots_per_color,
            workers=self.workers,
        )

    def lift(self, coloring: Coloring, reduced: Coloring, solution) -> np.ndarray:
        scores, _ = solution
        return scores

    def value(self, reduced, solution, lifted: np.ndarray) -> float:
        # No single objective exists for centrality; the score total is
        # a deterministic checksum used by equality tests and the CLI.
        return float(lifted.sum())

    def exact_reference(self) -> np.ndarray:
        """Exact (unnormalized) betweenness scores, all sources."""
        return betweenness_centrality(self.problem, workers=self.workers)

    def certified_error(self, exact: np.ndarray, result) -> float:
        """Normalized L1 distance between score vectors.

        Centrality has no single objective for the ratio error, so the
        certified dial is total absolute score deviation relative to
        total exact score mass (0.0 = every node's score exact).
        """
        total = float(np.abs(exact).sum())
        deviation = float(np.abs(exact - result.lifted).sum())
        if total == 0.0:
            return 0.0 if deviation == 0.0 else float("inf")
        return deviation / total


def task_for(kind: str, problem: Any, **options: Any) -> CompressionTask:
    """Build the adapter for a task kind (the CLI entry point)."""
    adapters = {
        "maxflow": MaxFlowTask,
        "lp": LPTask,
        "centrality": CentralityTask,
    }
    if kind not in adapters:
        raise ValueError(
            f"task must be one of {sorted(adapters)}, got {kind!r}"
        )
    return adapters[kind](problem, **options)
