"""Runtime kernel fallback: demote a crashing accelerator kernel to numpy.

An optional backend that imports cleanly can still fail mid-run — a
numba kernel hitting a typing corner on an input shape the parity sweep
never produced.  Without a net, one kernel call late in a 128-color
run crashes the whole solve.

:class:`ResilientBackend` wraps an accelerator backend and, per kernel,
catches the *first* failure, emits a single :class:`ResilienceWarning`
plus ``resilience.fallback.kernel`` counters, replays the call on the
numpy reference, and permanently routes that kernel to numpy for the
rest of the process.  Every other kernel keeps running accelerated.
The numpy reference defines the bit-exact semantics (see
``backends/base.py``), so the demoted call returns exactly what a
numpy-only run would have — results stay deterministic, only the
timing changes.

``KeyboardInterrupt``/``SystemExit`` and :class:`MemoryError` pass
through: the first two are user intent, and retrying an OOM on the
same arrays in the same process is how one crash becomes two.
"""

from __future__ import annotations

import warnings

from repro.core.backends.base import KERNEL_NAMES, SOLVER_KERNEL_NAMES
from repro.obs import recorder as _obs

__all__ = ["ResilienceWarning", "ResilientBackend"]


class ResilienceWarning(UserWarning):
    """A component failed and a degraded substitute took over."""


def _make_proxy(kernel: str):
    def proxy(self, *args, **kwargs):
        if kernel in self._demoted:
            return getattr(self._reference, kernel)(*args, **kwargs)
        try:
            return getattr(self._inner, kernel)(*args, **kwargs)
        except (MemoryError, KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            self._demote(kernel, exc)
            return getattr(self._reference, kernel)(*args, **kwargs)

    proxy.__name__ = kernel
    proxy.__qualname__ = f"ResilientBackend.{kernel}"
    proxy.__doc__ = f"Fallback-guarded dispatch of ``{kernel}``."
    return proxy


class ResilientBackend:
    """Proxy a backend's kernel surface with per-kernel numpy fallback.

    Mirrors the :class:`~repro.core.backends.base.Backend` protocol:
    ``name`` comes from the wrapped backend, every kernel method
    dispatches through the guard above.  Demotions are per instance —
    and backend instances are cached per name in ``backends/__init__``,
    so one demotion covers the process, as intended.
    """

    def __init__(self, inner, reference=None) -> None:
        if reference is None:
            # Deferred import: backends/__init__ imports this module.
            from repro.core.backends.numpy_backend import NumpyBackend

            reference = NumpyBackend()
        self._inner = inner
        self._reference = reference
        self._demoted: dict[str, str] = {}

    # protocol attributes delegate to the wrapped backend
    @property
    def name(self) -> str:
        return self._inner.name

    @property
    def demoted_kernels(self) -> dict:
        """Kernel -> first-failure message, for tests and diagnostics."""
        return dict(self._demoted)

    def _demote(self, kernel: str, exc: Exception) -> None:
        self._demoted[kernel] = f"{type(exc).__name__}: {exc}"
        _obs._active.count("resilience.fallback.kernel")
        _obs._active.count(f"resilience.fallback.{self._inner.name}.{kernel}")
        warnings.warn(
            f"backend {self._inner.name!r} kernel {kernel!r} raised "
            f"{type(exc).__name__} ({exc}); demoting this kernel to the "
            f"numpy reference for the rest of the process",
            ResilienceWarning,
            stacklevel=3,
        )

    def __repr__(self) -> str:
        demoted = sorted(self._demoted) or "none"
        return f"<ResilientBackend {self._inner!r} demoted={demoted}>"


for _kernel in KERNEL_NAMES + SOLVER_KERNEL_NAMES:
    setattr(ResilientBackend, _kernel, _make_proxy(_kernel))
del _kernel
