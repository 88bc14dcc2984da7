"""Round executor: fan color-disjoint witness work across workers.

The batched strategy's rounds are embarrassingly parallel by
construction — the top-``B`` witnesses are pairwise color-disjoint, so
their threshold-degree gathers and eject masks read disjoint member
sets against the same pre-round snapshot.  The executor turns that
structural independence into wall-clock (the post-round state refresh
is ``O(vol + k)`` per dirty color and stays in the calling thread):

``serial``
    plain in-order loop (the default, and the reference the
    determinism test compares against);
``threads``
    a shared :class:`~concurrent.futures.ThreadPoolExecutor` — the
    right mode for backends whose kernels release the GIL (numba's
    compiled loops);
``processes``
    a fork/spawn worker pool over a **shared-memory mirror** of the
    engine's CSR/CSC snapshots and label array
    (:mod:`multiprocessing.shared_memory`), for the numpy backend whose
    bincount paths hold the GIL.  The big arrays are written once —
    or, when the snapshots are file-backed memmaps (edge-store graphs),
    not written anywhere: workers reopen the store files read-only and
    share the parent's page-cache pages.  Labels are refreshed in place
    before each round (children attached the same physical pages, so
    the O(n) copy is the entire synchronization cost), and only the
    per-witness member lists and returned masks cross the pickle
    boundary.

Every mode returns results **in submission order**, so a parallel round
commits exactly the splits, in exactly the order, that the serial round
would — bit-for-bit identical colorings (tested).

Process mode is **self-healing**: jobs are submitted individually and
polled, so a worker that dies (OOM killer, segfault) or hangs is
detected — the pool is rebuilt with exponential backoff and the round
retried, and past :data:`_MAX_POOL_RETRIES` the executor permanently
degrades ``processes -> threads`` (and on thread-pool failure,
``-> serial``), re-running the round in the surviving mode.  A worker
task that *raises* is cheaper: the parent recomputes just that job
serially.  Every recovery preserves the submission-order contract —
the job bodies are pure functions of the snapshot, so a recomputed or
degraded round commits bit-identical results — and is counted under
``resilience.fallback.*``.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.obs import recorder as _obs
from repro.resilience.faults import inject

__all__ = ["RoundExecutor", "resolve_workers"]

MODES = ("serial", "threads", "processes")

#: seconds of zero round progress before the pool is declared hung
#: (override per executor or with ``REPRO_TASK_TIMEOUT``)
DEFAULT_TASK_TIMEOUT = 300.0
#: pool rebuild attempts before degrading processes -> threads
_MAX_POOL_RETRIES = 2
#: base of the exponential backoff between pool rebuilds, seconds
_BACKOFF_BASE = 0.1
#: poll interval while waiting on in-flight process jobs, seconds
_POLL_INTERVAL = 0.01

#: module-global worker state: shared-memory attachments, set once per
#: worker by :func:`_attach_worker` (each worker process has its own copy)
_WORKER_STATE: dict = {}


class _PoolFailure(RuntimeError):
    """Internal: the process pool died or stalled mid-round."""


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument > ``REPRO_WORKERS`` env > 1.

    Parallel rounds are opt-in — the default of 1 keeps the engine's
    single-threaded profile (and its exact numpy-path performance)
    unless the caller or the environment asks for fan-out.
    """
    if workers is None:
        env = os.environ.get("REPRO_WORKERS", "").strip()
        workers = int(env) if env else 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _attach_worker(blocks: list[tuple[str, str, tuple]]) -> None:
    """Pool initializer: attach the parent's shared or memmapped arrays.

    ``"shm"`` blocks attach a shared-memory segment by name; ``"file"``
    blocks reopen a read-only memmap over the parent's backing file —
    the kernel page cache makes that the same physical pages the parent
    streams, so file-backed snapshots cost no per-worker copy at all.
    """
    from multiprocessing import shared_memory

    from repro.graphs.edgestore import open_descriptor

    handles = []
    for key, kind, spec in blocks:
        if kind == "file":
            _WORKER_STATE[key] = open_descriptor(spec)
            continue
        name, dtype, shape = spec
        shm = shared_memory.SharedMemory(name=name)
        handles.append(shm)  # keep alive for the worker's lifetime
        _WORKER_STATE[key] = np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=shm.buf
        )
    _WORKER_STATE["_handles"] = handles


def _run_worker_job(payload: tuple):
    """Worker-side choke point for every process-pool job.

    The injection site lets tests kill, hang, or fail a real pool
    worker mid-round; with no plan installed (production) the wrapper
    is one function call.  Only the process path routes through here —
    the thread/serial recovery paths call ``compute_serial`` directly,
    which is what terminates a fork-inherited kill schedule once the
    executor degrades.
    """
    worker_fn, job = payload
    inject("executor.task")
    return worker_fn(job)


def _eject_mask_task(job: tuple) -> np.ndarray | None:
    """Worker body: threshold degrees + eject mask for one witness.

    Runs against the shared-memory CSR/CSC/label arrays; ``None`` marks
    the constant-degree guard (the caller drops that witness for the
    round, exactly as the serial path does).
    """
    from repro.core.backends.numpy_backend import select_degrees_toward
    from repro.core.rothko import split_eject_mask
    from repro.exceptions import ColoringError

    direction, members, target, split_mean, relative = job
    prefix = "csr" if direction == "out" else "csc"
    degrees = select_degrees_toward(
        _WORKER_STATE[f"{prefix}_indptr"],
        _WORKER_STATE[f"{prefix}_indices"],
        _WORKER_STATE[f"{prefix}_data"],
        members,
        _WORKER_STATE["labels"],
        target,
    )
    try:
        return split_eject_mask(degrees, split_mean, relative=relative)
    except ColoringError:
        return None


class _SharedGraphMirror:
    """Worker-visible views of the CSR/CSC arrays plus a live label slot.

    Arrays that are already file-backed memmaps (edge-store snapshots)
    are published as picklable file descriptors — workers reopen the
    same file read-only and share its page-cache pages, so the graph is
    never copied per worker *or* into shared memory.  Everything else
    (resident snapshots, and always the ``live`` keys, which must stay
    writable for per-round updates) is mirrored into POSIX shared
    memory as before.
    """

    def __init__(
        self, arrays: dict[str, np.ndarray], live: frozenset = frozenset()
    ) -> None:
        from multiprocessing import shared_memory

        from repro.graphs.edgestore import memmap_descriptor

        self._shms = []
        self._views: dict[str, np.ndarray] = {}
        self.blocks: list[tuple[str, str, tuple]] = []
        for key, array in arrays.items():
            if key not in live:
                descriptor = memmap_descriptor(array)
                if descriptor is not None:
                    self.blocks.append((key, "file", descriptor))
                    continue
            array = np.ascontiguousarray(array)
            shm = shared_memory.SharedMemory(
                create=True, size=max(1, array.nbytes)
            )
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
            view[...] = array
            self._shms.append(shm)
            self._views[key] = view
            self.blocks.append(
                (key, "shm", (shm.name, array.dtype.str, array.shape))
            )

    def update(self, key: str, array: np.ndarray) -> None:
        self._views[key][...] = array

    def close(self) -> None:
        for shm in self._shms:
            try:
                shm.close()
                shm.unlink()
            except (FileNotFoundError, OSError):  # already torn down
                pass
        self._shms.clear()
        self._views.clear()


class RoundExecutor:
    """Maps round work across workers; see module docstring for modes."""

    def __init__(
        self,
        mode: str,
        workers: int,
        task_timeout: float | None = None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.mode = mode if workers > 1 else "serial"
        self.workers = workers if self.mode != "serial" else 1
        if task_timeout is None:
            env = os.environ.get("REPRO_TASK_TIMEOUT", "").strip()
            task_timeout = float(env) if env else DEFAULT_TASK_TIMEOUT
        self.task_timeout = float(task_timeout)
        self._thread_pool: ThreadPoolExecutor | None = None
        self._process_pool = None
        self._pool_pids: tuple[int, ...] = ()
        self._mirror: _SharedGraphMirror | None = None

    @classmethod
    def resolve(
        cls,
        workers: int | None = None,
        mode: str | None = None,
        parallel_kernels: bool = False,
    ) -> "RoundExecutor":
        """Pick the executor for a backend.

        ``mode=None`` auto-selects: threads when the backend's kernels
        release the GIL, the shared-memory process path otherwise.
        """
        workers = resolve_workers(workers)
        if mode is None:
            mode = "threads" if parallel_kernels else "processes"
        return cls(mode, workers)

    # -- thread pool -----------------------------------------------------
    def _threads(self) -> ThreadPoolExecutor:
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-round",
            )
        return self._thread_pool

    # -- shared-memory process mapping ----------------------------------
    def attach_arrays(
        self, arrays: dict[str, np.ndarray], live: frozenset = frozenset()
    ) -> None:
        """Mirror named arrays into worker-visible storage, start the pool.

        The generic process-mode attachment: workers read the arrays
        back from the module-global ``_WORKER_STATE`` under the given
        names (file-backed memmaps are reopened via the page cache,
        everything else lands in POSIX shared memory; ``live`` keys
        always get shared memory so :meth:`_SharedGraphMirror.update`
        can refresh them between rounds).  Idempotent — the first
        caller wins; a no-op outside process mode.
        """
        if self.mode != "processes" or self._process_pool is not None:
            return
        self._mirror = _SharedGraphMirror(arrays, live=live)
        self._start_pool()

    def _start_pool(self) -> None:
        """(Re)build the worker pool over the existing mirror."""
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork: spawn still works,
            context = multiprocessing.get_context()  # attach is by name
        self._process_pool = context.Pool(
            processes=self.workers,
            initializer=_attach_worker,
            initargs=(self._mirror.blocks,),
        )
        self._pool_pids = tuple(
            proc.pid for proc in self._process_pool._pool
        )

    def _stop_pool(self) -> None:
        if self._process_pool is not None:
            self._process_pool.terminate()
            self._process_pool.join()
            self._process_pool = None
            self._pool_pids = ()

    def _degrade(self, new_mode: str, reason: str) -> None:
        """Permanently drop to a weaker mode after repeated failures."""
        from repro.resilience.fallback import ResilienceWarning

        _obs._active.count("resilience.fallback.degrade")
        warnings.warn(
            f"round executor degrading {self.mode!r} -> {new_mode!r}: "
            f"{reason}; results stay bit-identical, only throughput "
            f"changes",
            ResilienceWarning,
            stacklevel=4,
        )
        self._stop_pool()
        if self._mirror is not None and new_mode != "processes":
            self._mirror.close()
            self._mirror = None
        self.mode = new_mode

    def attach_graph(
        self,
        csr_arrays: tuple[np.ndarray, np.ndarray, np.ndarray],
        csc_arrays: tuple[np.ndarray, np.ndarray, np.ndarray],
        labels: np.ndarray,
    ) -> None:
        """Mirror the engine's snapshots into shared memory.

        Idempotent; called lazily before the first process-mode round.
        """
        names = ("indptr", "indices", "data")
        arrays = {f"csr_{n}": a for n, a in zip(names, csr_arrays)}
        arrays.update({f"csc_{n}": a for n, a in zip(names, csc_arrays)})
        arrays["labels"] = labels
        self.attach_arrays(arrays, live=frozenset({"labels"}))

    def run_jobs(self, worker_fn, jobs: list, compute_serial) -> list:
        """Generic fan-out of picklable jobs, results in submission order.

        ``worker_fn`` must be a module-level function that reads any
        bulk arrays from ``_WORKER_STATE`` (populated by
        :meth:`attach_arrays`); ``compute_serial(job)`` is the
        in-process body used for serial and thread modes.  Submission
        order is the determinism contract: callers reduce the results
        left-to-right and get the serial answer bit-for-bit whenever
        the per-job computation is exact (and within re-association
        tolerance otherwise).
        """
        if self.mode == "processes" and len(jobs) > 1:
            for attempt in range(_MAX_POOL_RETRIES + 1):
                try:
                    return self._collect_process_jobs(
                        worker_fn, jobs, compute_serial
                    )
                except _PoolFailure as exc:
                    self._stop_pool()
                    if attempt == _MAX_POOL_RETRIES:
                        self._degrade(
                            "threads",
                            f"pool failed {attempt + 1} times ({exc})",
                        )
                        break
                    _obs._active.count("resilience.fallback.pool_restart")
                    time.sleep(_BACKOFF_BASE * 2**attempt)
                    self._start_pool()
        if self.mode == "threads" and len(jobs) > 1:
            try:
                futures = [
                    self._threads().submit(compute_serial, job)
                    for job in jobs
                ]
            except RuntimeError as exc:  # pool unusable (shutdown, limits)
                self._degrade("serial", f"thread pool failed ({exc})")
            else:
                results = []
                for job, future in zip(jobs, futures):
                    try:
                        results.append(future.result())
                    except Exception:
                        # A failed thread job is retried in-process; the
                        # job body is pure, so the answer is identical.
                        _obs._active.count("resilience.fallback.task")
                        results.append(compute_serial(job))
                return results
        return [compute_serial(job) for job in jobs]

    def _collect_process_jobs(
        self, worker_fn, jobs: list, compute_serial
    ) -> list:
        """One attempt at a process-mode round, polled not blocked.

        ``pool.map`` would block forever on a killed worker (its task is
        simply lost); individual ``apply_async`` handles plus a poll
        loop let the parent notice both death (the pool's pid set
        changed — ``Pool`` respawns workers, but the in-flight task died
        with the old one) and hangs (no task completed for
        ``task_timeout`` seconds).  A task that merely *raises* is
        recomputed serially in the parent — same snapshot, same bits.
        """
        pool = self._process_pool
        pending = [
            pool.apply_async(_run_worker_job, ((worker_fn, job),))
            for job in jobs
        ]
        results: list = [None] * len(jobs)
        done = [False] * len(jobs)
        last_progress = time.monotonic()
        while not all(done):
            progressed = False
            for index, handle in enumerate(pending):
                if done[index] or not handle.ready():
                    continue
                try:
                    results[index] = handle.get()
                except Exception:
                    _obs._active.count("resilience.fallback.task")
                    results[index] = compute_serial(jobs[index])
                done[index] = True
                progressed = True
            if all(done):
                break
            if progressed:
                last_progress = time.monotonic()
                continue
            current = tuple(proc.pid for proc in pool._pool)
            if current != self._pool_pids:
                raise _PoolFailure("a pool worker died mid-round")
            if time.monotonic() - last_progress > self.task_timeout:
                raise _PoolFailure(
                    f"no task progress for {self.task_timeout:.0f}s"
                )
            time.sleep(_POLL_INTERVAL)
        return results

    def eject_masks(
        self, jobs: list[tuple], labels: np.ndarray, compute_serial
    ) -> list[np.ndarray | None]:
        """All eject masks for one round, in witness order.

        ``jobs`` are ``(direction, members, target, split_mean,
        relative)`` tuples; ``compute_serial(job)`` is the engine's
        in-process fallback (also used for thread mode, where the
        backend kernels release the GIL).  Process mode publishes the
        current labels once, then ships only members/masks.
        """
        if self.mode == "processes" and len(jobs) > 1:
            self._mirror.update("labels", labels)
        return self.run_jobs(_eject_mask_task, jobs, compute_serial)

    # -- lifecycle -------------------------------------------------------
    def release(self) -> None:
        """Shut down pools and unlink shared memory (idempotent)."""
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None
        self._stop_pool()
        if self._mirror is not None:
            self._mirror.close()
            self._mirror = None

    def __del__(self) -> None:  # belt and braces; release() is the API
        try:
            self.release()
        except Exception:  # pragma: no cover - interpreter teardown
            pass
