"""Exception hierarchy for the ``repro`` package.

All library-raised errors derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause while still being
able to distinguish the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class GraphError(ReproError):
    """Raised for malformed graph operations (unknown node, bad weight...)."""


class StoreError(GraphError):
    """An on-disk edge store or ingest journal is missing, corrupt, or
    fails verification, or a resume does not match its journal (other
    parameters, or re-fed input that differs from the journaled ingest).

    Subclasses :class:`GraphError` so existing edge-store handlers keep
    working; the narrower type lets callers distinguish "bad store on
    disk" (retry after re-ingest / resume) from in-memory graph misuse.
    """


class ColoringError(ReproError):
    """Raised when a partition/coloring violates its invariants."""


class LPError(ReproError):
    """Base class for linear-programming errors."""


class LPInfeasibleError(LPError):
    """The linear program has no feasible point."""


class LPUnboundedError(LPError):
    """The linear program's objective is unbounded above."""


class SolverError(ReproError):
    """A numerical solver failed to converge or was misconfigured."""


class FlowError(ReproError):
    """Raised for malformed flow networks (missing source/sink, bad capacity)."""


class DatasetError(ReproError):
    """Raised when a dataset cannot be constructed or is unknown."""
