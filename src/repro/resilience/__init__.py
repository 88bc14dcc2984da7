"""Resilience layer: fault injection, kernel fallback, degradation.

Three pieces, one goal — the stack survives the failures its scale
invites:

:mod:`repro.resilience.faults`
    deterministic fault injection behind a no-op default, so every
    recovery path below is exercised in CI rather than trusted;
:mod:`repro.resilience.fallback`
    :class:`ResilientBackend`, which demotes a crashing numba
    kernel to the numpy reference instead of crashing the run;
the hardened hosts
    crash-safe resumable ingest lives in ``graphs/edgestore.py``
    (journal + staged atomic commit + ``verify_store``), and the
    certified-ε loop in ``pipeline/certified.py``.

Counters under ``resilience.*`` (``faults.fired``, ``fallback.kernel``)
record every recovery so a silently limping run is still visible in
metrics.
"""

from repro.resilience.fallback import ResilienceWarning, ResilientBackend
from repro.resilience.faults import (
    FaultPlan,
    FaultRule,
    active_plan,
    inject,
    injecting,
    install_from_env,
    install_plan,
    uninstall_plan,
)

__all__ = [
    "FaultPlan",
    "FaultRule",
    "ResilienceWarning",
    "ResilientBackend",
    "active_plan",
    "inject",
    "injecting",
    "install_from_env",
    "install_plan",
    "uninstall_plan",
]
