"""Multi-backend kernel dispatch for the flat-array engines.

The coloring engine, the q-error metrics, and the arc-store solvers
all reduce to the small kernel surface defined by
:class:`~repro.core.backends.base.Backend`.  This package resolves
which implementation runs them:

* ``numpy`` — the always-available reference
  (:mod:`~repro.core.backends.numpy_backend`);
* ``numba`` — prange-threaded ``@njit(cache=True)`` fusions
  (:mod:`~repro.core.backends.numba_backend`), used automatically when
  importable.

Both run on the CPU.

Resolution happens **once per run**: explicit argument
(``Rothko(backend=...)``, ``--backend`` on the CLI) beats the
``REPRO_BACKEND`` environment variable beats auto-detection
(numba if importable, else numpy).  An optional backend that fails to
import degrades silently under ``auto`` and raises a clear
:class:`ImportError` when named explicitly.  Resolved instances are
cached per name, so repeated resolution is an attribute lookup, and the
resolved ``name`` is what the observability spans, the coloring-cache
key, and the benchmark results JSON record.

:func:`resolve_workers` is the one worker-count rule (``workers=``
argument, else ``REPRO_WORKERS``, else 1).  Its only consumer is
centrality's Brandes pass, which maps source batches over that many
threads (:func:`repro.solvers.betweenness_centrality_csr`).
"""

from __future__ import annotations

import os

from repro.core.backends.base import Backend, KERNEL_NAMES, SOLVER_KERNEL_NAMES
from repro.core.backends.numpy_backend import NumpyBackend
from repro.core.backends import numba_backend as _numba

__all__ = [
    "Backend",
    "KERNEL_NAMES",
    "SOLVER_KERNEL_NAMES",
    "available_backends",
    "default_backend",
    "resolve_backend",
    "resolve_workers",
    "set_default_backend",
]

#: registered backend names, in auto-detection preference order
BACKEND_NAMES = ("numba", "numpy")

#: resolved instances, keyed by name
_INSTANCES: dict[str, Backend] = {}

#: the process-default backend (what the kernels-module wrappers use)
_DEFAULT: Backend | None = None


def available_backends() -> list[str]:
    """Names of the backends that can actually be instantiated here."""
    names = ["numpy"]
    if _numba.available():
        names.insert(0, "numba")
    return names


def _instantiate(name: str) -> Backend:
    backend = _INSTANCES.get(name)
    if backend is None:
        if name == "numpy":
            backend = NumpyBackend()
        elif name == "numba":
            backend = _numba.NumbaBackend()
        else:
            raise ValueError(
                f"unknown backend {name!r}; expected one of "
                f"{('auto',) + BACKEND_NAMES}"
            )
        _INSTANCES[name] = backend
    return backend


def _auto_backend() -> Backend:
    return _instantiate("numba" if _numba.available() else "numpy")


def resolve_backend(spec: "str | Backend | None" = None) -> Backend:
    """Resolve a backend request to an instance.

    ``spec`` may be an instance (returned as-is), a name (``"numpy"``,
    ``"numba"``, ``"auto"``), or ``None`` — which consults
    ``REPRO_BACKEND`` and falls back to auto-detection.
    """
    if spec is None:
        spec = os.environ.get("REPRO_BACKEND", "").strip() or "auto"
    if not isinstance(spec, str):
        return spec
    if spec == "auto":
        return _auto_backend()
    return _instantiate(spec)


def default_backend() -> Backend:
    """The process-default backend (resolved lazily, once)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = resolve_backend()
    return _DEFAULT


def set_default_backend(spec: "str | Backend | None") -> Backend:
    """Replace the process default (``None`` re-enables lazy env/auto
    resolution); returns the newly active backend.  The CLI's
    ``--backend`` flag and tests are the intended callers."""
    global _DEFAULT
    _DEFAULT = None if spec is None else resolve_backend(spec)
    return default_backend()


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument > ``REPRO_WORKERS`` env > 1.

    Fan-out is opt-in: the default of 1 keeps a run single-threaded
    unless the caller or the environment asks for more.  A bad
    environment value raises a :class:`ValueError` naming the variable
    and the value.
    """
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return workers
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(
            f"REPRO_WORKERS must be a positive integer, got {env!r}"
        )
    return workers
