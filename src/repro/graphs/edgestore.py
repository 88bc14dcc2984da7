"""Out-of-core edge stores: ``.npy``-backed, memmap-ready graph snapshots.

A store is a directory of seven files::

    meta.json          format name/version, n_nodes, n_arcs, directed,
                       index_dtype ("<i4" or "<i8")
    src.npy            arc tails,   CSR order (sorted by (src, dst))
    dst.npy            arc heads    — doubles as the CSR ``indices``
    weight.npy         float64      — doubles as the CSR ``data``
    csr_indptr.npy     n+1 row offsets
    csc_indices.npy    arc tails in CSC order (sorted by (dst, src))
    csc_data.npy       float64 weights in CSC order
    csc_indptr.npy     n+1 column offsets

Arcs are deduplicated (duplicate ``(src, dst)`` pairs sum their
weights, in input order) and exact-zero sums are dropped — the same COO
semantics as :meth:`WeightedDiGraph.from_arrays` and the paper's Sec. 3
"zero weight means no edge" convention.  Undirected stores hold both
directions of every off-diagonal edge, mirroring ``from_arrays``.

Index arrays are written in the dtype scipy itself would pick for the
matrix (int32 whenever ``max(n, nnz)`` fits, int64 beyond), which is
what lets ``sp.csr_matrix((data, indices, indptr))`` wrap the memmaps
**zero-copy**: the resulting matrix's ``data``/``indices``/``indptr``
share pages with the files, so a coloring run touches only the edge
segments its chunked kernels actually stream.

Ingestion is out-of-core too: :class:`EdgeStoreWriter` buffers appended
arc chunks up to ``chunk_arcs``, spills each as a lexsorted run, and
finalization performs a vectorized k-way external merge (block-at-a-time
``searchsorted`` cuts, ``np.add.reduceat`` group sums) — the full edge
list is never resident, and the dict-of-dicts adjacency never exists.

Ingestion is also **crash-safe**: spilled runs are recorded in a
journal (``<path>.ingest/journal.json``, written atomically after each
spill), the final arrays are staged in a sibling ``<path>.staging``
directory and committed with a single ``os.replace``, and ``meta.json``
carries a crc32 per array so :func:`verify_store` can prove a store
intact before a long coloring run trusts it.  A ``SIGKILL`` at any
point leaves either the previous store or a resumable work directory —
never a half-written store — and re-running the same ingest with
``resume=True`` skips already-journaled input chunks and produces a
store bit-identical to an uninterrupted run.  The journal also holds a
fingerprint of the input (``input_crc32``, a crc32 chained over every
appended chunk's ``src``, ``dst`` and ``weight``); a resume recomputes
it over the re-fed chunks and refuses to continue when the two differ
at the journaled frontier, so changed input never yields a mixed store.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import zlib
from pathlib import Path
from typing import Any, Iterable

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError, StoreError
from repro.graphs.digraph import coerce_index_array
from repro.graphs.io import parse_weight

__all__ = [
    "EdgeStore",
    "EdgeStoreWriter",
    "NpyAppender",
    "ingest_arrays",
    "ingest_edgelist",
    "ingest_uniform_random",
    "verify_store",
]

FORMAT_NAME = "repro-edgestore"
FORMAT_VERSION = 1
META_FILE = "meta.json"
JOURNAL_FILE = "journal.json"
#: suffixes of the writer's sibling work/staging directories
INGEST_SUFFIX = ".ingest"
STAGING_SUFFIX = ".staging"

#: appended arcs buffered in RAM before a sorted run spills to disk
DEFAULT_CHUNK_ARCS = 8_000_000
#: arcs loaded per run per merge refill (doubled on demand when a single
#: duplicate key group outgrows it)
_MERGE_BLOCK = 1 << 20

_MAGIC = b"\x93NUMPY\x01\x00"
_INT32_MAX = np.iinfo(np.int32).max
#: packed (a, b) merge keys are ``a * n + b`` in int64, so n is bounded
#: by sqrt(2**63) — comfortably past every graph this package targets
_MAX_NODES = int(np.sqrt(2.0**63)) - 1


# ----------------------------------------------------------------------
# streaming .npy output
# ----------------------------------------------------------------------
class NpyAppender:
    """Streaming one-dimensional ``.npy`` writer.

    The header's shape field is written with fixed width, so the final
    element count can be patched in place on :meth:`close` — appended
    chunks stream straight to disk, nothing is buffered.
    """

    def __init__(self, path: Any, dtype: Any) -> None:
        self.path = Path(path)
        self.dtype = np.dtype(dtype)
        self.count = 0
        self._handle = open(self.path, "wb")
        self._handle.write(self._header(0))

    def _header(self, count: int) -> bytes:
        descr = np.lib.format.dtype_to_descr(self.dtype)
        # %-20d left-justifies the count with trailing spaces inside the
        # tuple (valid to literal_eval), keeping the header length
        # independent of the count so close() can overwrite in place.
        body = (
            "{'descr': %r, 'fortran_order': False, "
            "'shape': (%-20d,), }" % (descr, count)
        )
        unpadded = len(_MAGIC) + 2 + len(body) + 1
        body += " " * ((-unpadded) % 64)
        header = (body + "\n").encode("latin1")
        return _MAGIC + struct.pack("<H", len(header)) + header

    def append(self, values: np.ndarray) -> None:
        array = np.ascontiguousarray(values, dtype=self.dtype)
        array.tofile(self._handle)
        self.count += int(array.size)

    def close(self) -> None:
        if self._handle.closed:
            return
        self._handle.flush()
        self._handle.seek(0)
        self._handle.write(self._header(self.count))
        self._handle.close()

    def __enter__(self) -> "NpyAppender":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _is_count(value: Any) -> bool:
    """A non-negative JSON integer (``bool`` is an ``int`` subclass)."""
    return (
        isinstance(value, int) and not isinstance(value, bool) and value >= 0
    )


def _crc32_file(path: Path, block: int = 1 << 20) -> str:
    """Streaming crc32 of a file, as ``"crc32:xxxxxxxx"``.

    crc32 is not cryptographic — the threat model is torn writes, bad
    disks, and truncation, not adversaries — and zlib's implementation
    streams at memory bandwidth, so checksumming never dominates ingest.
    """
    crc = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(block)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
    return f"crc32:{crc & 0xFFFFFFFF:08x}"


# ----------------------------------------------------------------------
# external merge
# ----------------------------------------------------------------------
class _RunReader:
    """Buffered block reader over one spilled (k1, k2, payload) run."""

    def __init__(self, k1_path: Path, k2_path: Path, w_path: Path, n: int):
        self._k1 = np.load(k1_path, mmap_mode="r")
        self._k2 = np.load(k2_path, mmap_mode="r")
        self._w = np.load(w_path, mmap_mode="r")
        self._n = n
        self._pos = 0
        self.keys = np.empty(0, dtype=np.int64)
        self.payload = np.empty(0, dtype=np.float64)

    @property
    def file_remaining(self) -> int:
        return int(self._k1.size) - self._pos

    def refill(self, block: int) -> None:
        while self.keys.size < block and self.file_remaining:
            take = min(block, self.file_remaining)
            stop = self._pos + take
            packed = (
                self._k1[self._pos:stop].astype(np.int64) * self._n
                + self._k2[self._pos:stop]
            )
            self.keys = np.concatenate([self.keys, packed])
            self.payload = np.concatenate(
                [self.payload, np.asarray(self._w[self._pos:stop])]
            )
            self._pos = stop

    def cut(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        head = (self.keys[:count], self.payload[:count])
        self.keys = self.keys[count:]
        self.payload = self.payload[count:]
        return head


def _merge_runs(run_files: list, n: int, emit, block: int = _MERGE_BLOCK):
    """K-way merge of lexsorted runs, vectorized block at a time.

    ``emit(keys, payload)`` receives globally sorted blocks whose key
    groups are complete (no group spans two emits), with input order
    preserved among equal keys — the invariant the dedup summer needs.
    """
    readers = [_RunReader(*paths, n) for paths in run_files]
    while True:
        for reader in readers:
            reader.refill(block)
        if not any(reader.keys.size for reader in readers):
            break
        # Keys strictly below every unread datum are globally complete;
        # a run read to EOF no longer bounds anything.
        safe = None
        for reader in readers:
            if reader.file_remaining:
                last = int(reader.keys[-1])
                safe = last if safe is None else min(safe, last)
        if safe is None:
            cuts = [reader.keys.size for reader in readers]
        else:
            cuts = [
                int(np.searchsorted(reader.keys, safe, side="left"))
                for reader in readers
            ]
        if not sum(cuts):
            # One duplicate-key group outgrew the block: widen and retry.
            block *= 2
            continue
        parts = [
            reader.cut(count)
            for reader, count in zip(readers, cuts)
            if count
        ]
        keys = np.concatenate([part[0] for part in parts])
        payload = np.concatenate([part[1] for part in parts])
        order = np.argsort(keys, kind="stable")
        emit(keys[order], payload[order])


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------
class EdgeStoreWriter:
    """Chunked, external-sort ingestion into an on-disk edge store.

    Feed arc chunks with :meth:`append`; each buffered ``chunk_arcs``
    spills as a lexsorted run, and :meth:`finalize` merges the runs into
    deduplicated CSR-ordered arrays plus the CSC companion sort.  Peak
    memory is O(chunk_arcs + n), independent of the total arc count.

    All intermediate state lives in sibling directories — runs and the
    ingest journal in ``<path>.ingest``, the final arrays in
    ``<path>.staging`` — and the target path is only ever touched by
    the atomic commit at the end of :meth:`finalize`.  With
    ``resume=True`` a writer re-attaches to an interrupted ingest's
    journal: the caller replays the *same* input chunk sequence, and
    :meth:`append` skips every chunk the journal proves is already in
    a spilled run, so only unspilled input is re-processed and the
    final store is bit-identical to an uninterrupted ingest.
    """

    def __init__(
        self,
        path: Any,
        *,
        directed: bool = True,
        n_nodes: int | None = None,
        chunk_arcs: int = DEFAULT_CHUNK_ARCS,
        overwrite: bool = False,
        resume: bool = False,
    ) -> None:
        self.path = Path(path)
        self.directed = bool(directed)
        self.declared_n = None if n_nodes is None else int(n_nodes)
        if self.declared_n is not None and self.declared_n < 0:
            raise GraphError(f"n_nodes must be >= 0, got {n_nodes}")
        self.chunk_arcs = int(chunk_arcs)
        if self.chunk_arcs < 2:
            raise GraphError(
                f"chunk_arcs must be >= 2, got {chunk_arcs}"
            )
        self._work = self.path.with_name(self.path.name + INGEST_SUFFIX)
        self._stage = self.path.with_name(self.path.name + STAGING_SUFFIX)
        self._journal_path = self._work / JOURNAL_FILE
        if resume:
            if not self._journal_path.exists():
                raise StoreError(
                    f"nothing to resume at {self.path}: no ingest journal "
                    f"in {self._work}"
                )
        elif (self.path / META_FILE).exists() and not overwrite:
            raise GraphError(
                f"edge store already exists at {self.path} "
                "(pass overwrite=True to replace it)"
            )
        self._buffer: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._buffered = 0
        self._runs: list[tuple[Path, Path, Path]] = []
        self._appended = 0  # caller-facing arc count (pre-mirror)
        self._stored = 0  # arcs written to runs (post-mirror)
        self._max_node = -1
        self._closed = False
        #: appended arcs still to be skipped during a resume replay
        self._replay_remaining = 0
        #: crc32 chained over every appended chunk, and its journaled value
        self._input_crc = 0
        self._journaled_crc = None
        if resume:
            self._load_journal()
        else:
            if self._work.exists():
                shutil.rmtree(self._work)
            self._work.mkdir(parents=True)

    # -- journal ---------------------------------------------------------
    def _journal_state(self) -> dict:
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "directed": self.directed,
            "n_nodes": self.declared_n,
            "chunk_arcs": self.chunk_arcs,
            "appended": self._appended,
            "stored": self._stored,
            "max_node": self._max_node,
            "input_crc32": self._input_crc,
            "runs": [paths[0].name[:-len(".k1.npy")]
                     for paths in self._runs],
        }

    def _write_journal(self) -> None:
        # Atomic: a crash mid-write leaves the previous journal, whose
        # run list still matches files on disk (extra run files are
        # discarded as orphans on resume).
        temp = self._journal_path.with_suffix(".json.tmp")
        temp.write_text(json.dumps(self._journal_state(), indent=2) + "\n")
        os.replace(temp, self._journal_path)

    def _load_journal(self) -> None:
        try:
            journal = json.loads(self._journal_path.read_text())
        except ValueError as exc:
            raise StoreError(
                f"corrupt ingest journal {self._journal_path}: {exc}"
            ) from exc
        for key, mine in (
            ("directed", self.directed),
            ("n_nodes", self.declared_n),
            ("chunk_arcs", self.chunk_arcs),
        ):
            theirs = journal.get(key)
            if theirs != mine:
                raise StoreError(
                    f"cannot resume {self.path}: journaled {key}="
                    f"{theirs!r} does not match requested {mine!r}"
                )
        run_tags = list(journal.get("runs", []))
        for tag in run_tags:
            paths = tuple(
                self._work / f"{tag}.{stem}.npy"
                for stem in ("k1", "k2", "w")
            )
            missing = [p.name for p in paths if not p.exists()]
            if missing:
                raise StoreError(
                    f"cannot resume {self.path}: journaled run files "
                    f"missing from {self._work}: {missing}"
                )
            self._runs.append(paths)
        # Orphans: run/csc spills newer than the journal (the crash
        # landed between a spill and its journal record, or mid-merge).
        # The replay regenerates them deterministically.
        keep = {p.name for paths in self._runs for p in paths}
        keep.add(JOURNAL_FILE)
        for entry in self._work.iterdir():
            if entry.name not in keep:
                entry.unlink()
        self._appended = int(journal["appended"])
        self._stored = int(journal["stored"])
        self._max_node = int(journal["max_node"])
        self._journaled_crc = journal.get("input_crc32")
        self._replay_remaining = self._appended

    # -- input ----------------------------------------------------------
    def append(
        self,
        src: Any,
        dst: Any,
        weight: Any | None = None,
    ) -> None:
        """Append parallel arc arrays (chunk of the edge list)."""
        if self._closed:
            raise GraphError("edge store writer is already finalized")
        src = coerce_index_array(src, "src")
        dst = coerce_index_array(dst, "dst")
        if src.size != dst.size:
            raise GraphError(
                f"src and dst must match, got {src.size} vs {dst.size}"
            )
        if weight is None:
            weight = np.ones(src.size, dtype=np.float64)
        else:
            weight = np.asarray(weight, dtype=np.float64).ravel()
            if weight.size != src.size:
                raise GraphError(
                    f"weight must match src/dst, got {weight.size} arcs "
                    f"vs {src.size}"
                )
        if not src.size:
            return
        for array in (src, dst, weight):
            self._input_crc = zlib.crc32(
                np.ascontiguousarray(array), self._input_crc
            )
        if self._replay_remaining:
            # Resume replay: this chunk is already inside a journaled
            # run.  Skipping relies on the caller re-feeding the exact
            # same chunk sequence — a chunk straddling the journaled
            # frontier, or a fingerprint that differs at it, means the
            # input changed, which would silently corrupt the store, so
            # refuse instead.
            if src.size > self._replay_remaining:
                raise StoreError(
                    f"resume replay mismatch at {self.path}: chunk of "
                    f"{src.size} arcs straddles the journaled frontier "
                    f"({self._replay_remaining} arcs short); re-feed the "
                    f"identical input chunks or start over"
                )
            self._replay_remaining -= src.size
            if (
                not self._replay_remaining
                and self._input_crc != self._journaled_crc
            ):
                raise StoreError(
                    f"cannot resume {self.path}: the re-fed input differs "
                    f"from the journaled ingest (its input_crc32 does not "
                    f"match); re-feed the identical input or start over"
                )
            return
        self._validate(src, dst, weight)
        self._appended += src.size
        if not self.directed:
            off = src != dst
            src, dst, weight = (
                np.concatenate([src, dst[off]]),
                np.concatenate([dst, src[off]]),
                np.concatenate([weight, weight[off]]),
            )
        self._max_node = max(
            self._max_node, int(src.max()), int(dst.max())
        )
        self._buffer.append((src, dst, weight))
        self._buffered += src.size
        self._stored += src.size
        if self._buffered >= self.chunk_arcs:
            self._flush_run()

    def _validate(
        self, src: np.ndarray, dst: np.ndarray, weight: np.ndarray
    ) -> None:
        """Refuse the first arc with an endpoint out of range or a NaN
        or infinite weight, named by its index in the whole input."""
        n = self.declared_n
        low = min(int(src.min()), int(dst.min()))
        high = max(int(src.max()), int(dst.max()))
        if low < 0 or (n is not None and high >= n):
            bad = (src < 0) | (dst < 0)
            if n is not None:
                bad |= (src >= n) | (dst >= n)
            arc = int(np.flatnonzero(bad)[0])
            bound = "inf" if n is None else n
            raise GraphError(
                f"edge endpoints out of range [0, {bound}): "
                f"arc {self._appended + arc}: {src[arc]} -> {dst[arc]}"
            )
        finite = np.isfinite(weight)
        if not finite.all():
            arc = int(np.argmin(finite))
            raise GraphError(
                f"non-finite weight {weight[arc]}: "
                f"arc {self._appended + arc}: {src[arc]} -> {dst[arc]}"
            )

    def _flush_run(self) -> None:
        if not self._buffered:
            return
        src = np.concatenate([part[0] for part in self._buffer])
        dst = np.concatenate([part[1] for part in self._buffer])
        weight = np.concatenate([part[2] for part in self._buffer])
        self._buffer.clear()
        self._buffered = 0
        order = np.lexsort((dst, src))  # stable: input order on ties
        tag = f"run_{len(self._runs):05d}"
        paths = tuple(
            self._work / f"{tag}.{stem}.npy"
            for stem in ("k1", "k2", "w")
        )
        np.save(paths[0], src[order])
        np.save(paths[1], dst[order])
        np.save(paths[2], weight[order])
        self._runs.append(paths)
        self._write_journal()

    # -- output ---------------------------------------------------------
    def finalize(self) -> "EdgeStore":
        """Merge the spilled runs into the final store; return it open.

        Everything is built in the staging directory and lands at the
        target through :meth:`_commit_stage`'s single ``os.replace`` —
        readers either see the previous store or the complete new one.
        """
        if self._closed:
            raise GraphError("edge store writer is already finalized")
        if self._replay_remaining:
            raise StoreError(
                f"resume replay incomplete at {self.path}: "
                f"{self._replay_remaining} journaled arcs were never "
                f"re-fed; the input is shorter than the journaled ingest"
            )
        self._flush_run()
        n = (
            self.declared_n
            if self.declared_n is not None
            else self._max_node + 1
        )
        if n > _MAX_NODES:
            raise GraphError(
                f"edge store supports at most {_MAX_NODES} nodes, got {n}"
            )
        if self._stage.exists():
            # Stale stage from an interrupted finalize: the merge is a
            # deterministic function of the journaled runs, so rebuild.
            shutil.rmtree(self._stage)
        self._stage.mkdir(parents=True)
        # Upper bound for the index dtype: dedup only shrinks nnz.  The
        # rare overshoot (int64 picked, deduped nnz fits int32) is fixed
        # by a downcast pass below so the store always matches scipy's
        # preferred dtype — the zero-copy wrap condition.
        index_dtype = (
            np.dtype(np.int32)
            if max(n, self._stored) <= _INT32_MAX
            else np.dtype(np.int64)
        )
        src_counts = np.zeros(n, dtype=np.int64)
        dst_counts = np.zeros(n, dtype=np.int64)
        src_out = NpyAppender(self._stage / "src.npy", index_dtype)
        dst_out = NpyAppender(self._stage / "dst.npy", index_dtype)
        weight_out = NpyAppender(self._stage / "weight.npy", np.float64)

        def emit_dedup(keys: np.ndarray, weights: np.ndarray) -> None:
            starts = np.flatnonzero(
                np.concatenate(([True], keys[1:] != keys[:-1]))
            )
            sums = np.add.reduceat(weights, starts)
            unique = keys[starts]
            keep = sums != 0.0
            unique, sums = unique[keep], sums[keep]
            src = unique // n
            dst = unique - src * n
            src_out.append(src)
            dst_out.append(dst)
            weight_out.append(sums)
            src_counts[:] += np.bincount(src, minlength=n)
            dst_counts[:] += np.bincount(dst, minlength=n)

        if n and self._runs:
            _merge_runs(self._runs, n, emit_dedup)
        src_out.close()
        dst_out.close()
        weight_out.close()
        nnz = src_out.count
        if (
            index_dtype == np.int64
            and max(n, nnz) <= _INT32_MAX
        ):
            index_dtype = np.dtype(np.int32)
            for stem in ("src", "dst"):
                self._downcast(self._stage / f"{stem}.npy", index_dtype)
        indptr = np.zeros(n + 1, dtype=index_dtype)
        np.cumsum(src_counts, out=indptr[1:])
        np.save(self._stage / "csr_indptr.npy", indptr)

        self._build_csc(n, nnz, index_dtype, dst_counts)

        meta = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "n_nodes": int(n),
            "n_arcs": int(nnz),
            "directed": self.directed,
            "index_dtype": index_dtype.str,
            "checksums": {
                f"{stem}.npy": _crc32_file(self._stage / f"{stem}.npy")
                for stem in EdgeStore._STEMS
            },
        }
        (self._stage / META_FILE).write_text(
            json.dumps(meta, indent=2) + "\n"
        )
        self._commit_stage()
        shutil.rmtree(self._work, ignore_errors=True)
        self._closed = True
        return EdgeStore(self.path)

    def _commit_stage(self) -> None:
        """Atomically swap the staged directory into the target path.

        ``os.replace`` cannot overwrite a non-empty directory, so a
        pre-existing store is renamed aside first.  Every intermediate
        state is recoverable: before the final replace the journal and
        runs still exist (resume rebuilds the stage), and a leftover
        ``.old`` directory is swept by the next commit.
        """
        old = self.path.with_name(self.path.name + ".old")
        if old.exists():
            shutil.rmtree(old)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            os.replace(self.path, old)
        os.replace(self._stage, self.path)
        shutil.rmtree(old, ignore_errors=True)

    def _downcast(self, path: Path, dtype: np.dtype) -> None:
        wide = np.load(path, mmap_mode="r")
        temp = path.with_suffix(".tmp.npy")
        with NpyAppender(temp, dtype) as out:
            for start in range(0, wide.size, self.chunk_arcs):
                out.append(wide[start:start + self.chunk_arcs])
        del wide
        temp.replace(path)

    def _build_csc(
        self,
        n: int,
        nnz: int,
        index_dtype: np.dtype,
        dst_counts: np.ndarray,
    ) -> None:
        """Second external sort of the final arcs, by (dst, src)."""
        runs: list[tuple[Path, Path, Path]] = []
        if nnz:
            src = np.load(self._stage / "src.npy", mmap_mode="r")
            dst = np.load(self._stage / "dst.npy", mmap_mode="r")
            weight = np.load(self._stage / "weight.npy", mmap_mode="r")
            for index, start in enumerate(
                range(0, nnz, self.chunk_arcs)
            ):
                stop = min(start + self.chunk_arcs, nnz)
                chunk_src = np.asarray(src[start:stop])
                chunk_dst = np.asarray(dst[start:stop])
                chunk_w = np.asarray(weight[start:stop])
                order = np.lexsort((chunk_src, chunk_dst))
                tag = f"csc_{index:05d}"
                paths = tuple(
                    self._work / f"{tag}.{stem}.npy"
                    for stem in ("k1", "k2", "w")
                )
                np.save(paths[0], chunk_dst[order])
                np.save(paths[1], chunk_src[order])
                np.save(paths[2], chunk_w[order])
                runs.append(paths)
            del src, dst, weight
        indices_out = NpyAppender(
            self._stage / "csc_indices.npy", index_dtype
        )
        data_out = NpyAppender(self._stage / "csc_data.npy", np.float64)

        def emit_csc(keys: np.ndarray, weights: np.ndarray) -> None:
            indices_out.append(keys % n)  # key = dst * n + src
            data_out.append(weights)

        if n and runs:
            _merge_runs(runs, n, emit_csc)
        indices_out.close()
        data_out.close()
        indptr = np.zeros(n + 1, dtype=index_dtype)
        np.cumsum(dst_counts, out=indptr[1:])
        np.save(self._stage / "csc_indptr.npy", indptr)

    def __enter__(self) -> "EdgeStoreWriter":
        return self

    def __exit__(self, exc_type: Any, *exc: Any) -> None:
        if exc_type is None and not self._closed:
            self.finalize()


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------
class EdgeStore:
    """An on-disk edge store, ready for memmapped or resident loading."""

    _STEMS = (
        "src", "dst", "weight",
        "csr_indptr", "csc_indptr", "csc_indices", "csc_data",
    )

    def __init__(self, path: Any) -> None:
        self.path = Path(path)
        meta_path = self.path / META_FILE
        if not meta_path.exists():
            raise GraphError(f"no edge store at {self.path}")
        try:
            meta = json.loads(meta_path.read_text())
        except ValueError as exc:
            raise GraphError(
                f"corrupt edge store metadata at {meta_path}: {exc}"
            ) from exc
        if not isinstance(meta, dict):
            raise GraphError(
                f"corrupt edge store metadata at {meta_path}: expected a "
                f"JSON object, got {type(meta).__name__}"
            )
        if meta.get("format") != FORMAT_NAME:
            raise GraphError(
                f"{meta_path} is not a {FORMAT_NAME} store"
            )
        if meta.get("version") != FORMAT_VERSION:
            raise GraphError(
                f"unsupported edge store version {meta.get('version')!r} "
                f"(expected {FORMAT_VERSION})"
            )
        for key, valid, expected in (
            ("n_nodes", _is_count, "a non-negative integer"),
            ("n_arcs", _is_count, "a non-negative integer"),
            ("directed", lambda value: isinstance(value, bool), "a bool"),
            ("index_dtype", lambda value: value in ("<i4", "<i8"),
             '"<i4" or "<i8"'),
        ):
            if not valid(meta.get(key)):
                raise GraphError(
                    f"corrupt edge store metadata at {meta_path}: {key} "
                    f"must be {expected}, got {meta.get(key)!r}"
                )
        self.meta = meta
        self.n_nodes = meta["n_nodes"]
        self.n_arcs = meta["n_arcs"]
        self.directed = meta["directed"]
        self.index_dtype = np.dtype(meta["index_dtype"])

    def _load(self, stem: str, mmap: bool) -> np.ndarray:
        return np.load(
            self.path / f"{stem}.npy", mmap_mode="r" if mmap else None
        )

    def arc_arrays(
        self, mmap: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, weight)`` in CSR order."""
        return (
            self._load("src", mmap),
            self._load("dst", mmap),
            self._load("weight", mmap),
        )

    def csr_arrays(
        self, mmap: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, data)`` — dst/weight double as the CSR."""
        return (
            self._load("csr_indptr", mmap),
            self._load("dst", mmap),
            self._load("weight", mmap),
        )

    def csc_arrays(
        self, mmap: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            self._load("csc_indptr", mmap),
            self._load("csc_indices", mmap),
            self._load("csc_data", mmap),
        )

    def csr_matrix(self, mmap: bool = True) -> sp.csr_matrix:
        """The adjacency as CSR; zero-copy over the files when ``mmap``."""
        indptr, indices, data = self.csr_arrays(mmap)
        shape = (self.n_nodes, self.n_nodes)
        matrix = sp.csr_matrix((data, indices, indptr), shape=shape)
        matrix.has_sorted_indices = True  # sorted by construction
        return matrix

    def csc_matrix(self, mmap: bool = True) -> sp.csc_matrix:
        indptr, indices, data = self.csc_arrays(mmap)
        shape = (self.n_nodes, self.n_nodes)
        matrix = sp.csc_matrix((data, indices, indptr), shape=shape)
        matrix.has_sorted_indices = True
        return matrix

    def array_nbytes(self) -> int:
        """Bytes the seven arrays would occupy resident (file payloads)."""
        total = 0
        for stem in self._STEMS:
            array = np.load(self.path / f"{stem}.npy", mmap_mode="r")
            total += int(array.nbytes)
        return total

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"<EdgeStore {kind} n_nodes={self.n_nodes} "
            f"n_arcs={self.n_arcs} at {self.path}>"
        )


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------
def verify_store(path: Any) -> dict:
    """Prove an on-disk store intact; raise :class:`StoreError` if not.

    Checks, cheapest first: the metadata parses and names this format;
    all seven arrays are present, load as ``.npy``, and have the
    lengths the metadata implies; both indptr arrays are monotone with
    the right endpoints; and every file's crc32 matches the checksum
    recorded at ingest.  Returns a report dict (``path``, ``n_nodes``,
    ``n_arcs``, ``checked`` file names, ``checksums_verified``) on
    success.  Stores written before checksums existed verify
    structurally, with ``checksums_verified=False``.
    """
    store_path = Path(path)
    problems: list[str] = []
    # EdgeStore's constructor is the metadata gate; re-raise its
    # complaints under the narrower StoreError for CLI mapping.
    try:
        store = EdgeStore(store_path)
    except GraphError as exc:
        raise StoreError(str(exc)) from exc
    expected_sizes = {
        "src": store.n_arcs,
        "dst": store.n_arcs,
        "weight": store.n_arcs,
        "csr_indptr": store.n_nodes + 1,
        "csc_indptr": store.n_nodes + 1,
        "csc_indices": store.n_arcs,
        "csc_data": store.n_arcs,
    }
    arrays: dict[str, np.ndarray] = {}
    for stem, expected in expected_sizes.items():
        file = store_path / f"{stem}.npy"
        if not file.exists():
            problems.append(f"{file.name}: missing")
            continue
        try:
            array = np.load(file, mmap_mode="r")
        except ValueError as exc:
            problems.append(f"{file.name}: unreadable ({exc})")
            continue
        if array.ndim != 1:
            problems.append(
                f"{file.name}: expected 1-D array, got shape {array.shape}"
            )
        elif array.size != expected:
            problems.append(
                f"{file.name}: expected {expected} entries, "
                f"found {array.size}"
            )
        else:
            arrays[stem] = array
    for stem in ("csr_indptr", "csc_indptr"):
        indptr = arrays.get(stem)
        if indptr is None or not indptr.size:
            continue
        if int(indptr[0]) != 0 or int(indptr[-1]) != store.n_arcs:
            problems.append(
                f"{stem}.npy: endpoints ({indptr[0]}, {indptr[-1]}) "
                f"!= (0, {store.n_arcs})"
            )
        elif indptr.size > 1 and bool(np.any(np.diff(indptr) < 0)):
            problems.append(f"{stem}.npy: offsets are not monotone")
    arrays.clear()
    checksums = store.meta.get("checksums") or {}
    for name, recorded in sorted(checksums.items()):
        file = store_path / name
        if not file.exists():
            continue  # already reported as missing above
        actual = _crc32_file(file)
        if actual != recorded:
            problems.append(
                f"{name}: checksum mismatch (recorded {recorded}, "
                f"actual {actual})"
            )
    if problems:
        raise StoreError(
            f"edge store at {store_path} failed verification: "
            + "; ".join(problems)
        )
    return {
        "path": str(store_path),
        "n_nodes": store.n_nodes,
        "n_arcs": store.n_arcs,
        "directed": store.directed,
        "checked": sorted(f"{stem}.npy" for stem in expected_sizes),
        "checksums_verified": bool(checksums),
    }


# ----------------------------------------------------------------------
# ingestion fronts
# ----------------------------------------------------------------------
def ingest_arrays(
    path: Any,
    src: Any,
    dst: Any,
    weight: Any | None = None,
    *,
    n_nodes: int | None = None,
    directed: bool = True,
    chunk_arcs: int = DEFAULT_CHUNK_ARCS,
    overwrite: bool = False,
    resume: bool = False,
) -> EdgeStore:
    """One-shot ingestion of parallel arc arrays (chunked internally)."""
    src = coerce_index_array(src, "src")
    dst = coerce_index_array(dst, "dst")
    writer = EdgeStoreWriter(
        path,
        directed=directed,
        n_nodes=n_nodes,
        chunk_arcs=chunk_arcs,
        overwrite=overwrite,
        resume=resume,
    )
    weights = (
        None if weight is None
        else np.asarray(weight, dtype=np.float64).ravel()
    )
    for start in range(0, max(src.size, 1), max(chunk_arcs, 1)):
        stop = start + chunk_arcs
        writer.append(
            src[start:stop],
            dst[start:stop],
            None if weights is None else weights[start:stop],
        )
    return writer.finalize()


def ingest_edgelist(
    path: Any,
    edgelist: Any,
    *,
    directed: bool = True,
    n_nodes: int | None = None,
    comments: str = "#",
    chunk_lines: int = 1_000_000,
    chunk_arcs: int = DEFAULT_CHUNK_ARCS,
    overwrite: bool = False,
    resume: bool = False,
) -> EdgeStore:
    """Stream a whitespace-separated ``src dst [weight]`` text file.

    Node ids must be integers (the store is index-addressed); lines
    starting with ``comments`` and blank lines are skipped.  The file is
    parsed in ``chunk_lines`` batches, so arbitrarily large edge lists
    ingest in bounded memory.  With ``resume=True`` an interrupted
    ingest of the *same file with the same options* picks up from its
    journal instead of re-sorting everything (parsing is redone — the
    journal records sorted runs, not text offsets).
    """
    src: list[int] = []
    dst: list[int] = []
    weight: list[float] = []

    def flush() -> None:
        if src:
            writer.append(
                np.asarray(src, dtype=np.int64),
                np.asarray(dst, dtype=np.int64),
                np.asarray(weight, dtype=np.float64),
            )
            src.clear()
            dst.clear()
            weight.clear()

    # Open the input before the writer creates its work directory, so a
    # missing file leaves nothing behind.
    with open(edgelist, "r", encoding="utf-8") as handle:
        writer = EdgeStoreWriter(
            path,
            directed=directed,
            n_nodes=n_nodes,
            chunk_arcs=chunk_arcs,
            overwrite=overwrite,
            resume=resume,
        )
        for line_no, line in enumerate(handle, 1):
            text = line.strip()
            if not text or text.startswith(comments):
                continue
            parts = text.split()
            if len(parts) not in (2, 3):
                raise GraphError(
                    f"{edgelist}:{line_no}: expected 'src dst [weight]', "
                    f"got {text!r}"
                )
            try:
                src.append(int(parts[0]))
                dst.append(int(parts[1]))
            except ValueError as exc:
                raise GraphError(
                    f"{edgelist}:{line_no}: {exc}"
                ) from exc
            weight.append(
                parse_weight(parts[2], edgelist, line_no)
                if len(parts) == 3 else 1.0
            )
            if len(src) >= chunk_lines:
                flush()
    flush()
    return writer.finalize()


def ingest_uniform_random(
    path: Any,
    n_nodes: int,
    out_degree: int,
    *,
    seed: int = 0,
    chunk_nodes: int = 500_000,
    chunk_arcs: int = DEFAULT_CHUNK_ARCS,
    overwrite: bool = False,
    resume: bool = False,
) -> EdgeStore:
    """Stream-ingest the ``uniform_random_digraph`` family at any scale.

    Same arc model as :func:`repro.graphs.generators.uniform_random_digraph`
    — ``out_degree`` draws per node, uniform heads, self-loops dropped,
    unit weights (duplicate draws sum) — but generated chunk by chunk,
    so a 100M-arc graph is ingested without ever holding its edge list.
    """
    if out_degree < 0:
        raise GraphError(f"out_degree must be >= 0, got {out_degree}")
    rng = np.random.default_rng(seed)
    writer = EdgeStoreWriter(
        path,
        directed=True,
        n_nodes=n_nodes,
        chunk_arcs=chunk_arcs,
        overwrite=overwrite,
        resume=resume,
    )
    for start in range(0, n_nodes, chunk_nodes):
        stop = min(start + chunk_nodes, n_nodes)
        src = np.repeat(
            np.arange(start, stop, dtype=np.int64), out_degree
        )
        dst = rng.integers(0, n_nodes, size=src.size, dtype=np.int64)
        keep = src != dst
        writer.append(src[keep], dst[keep])
    return writer.finalize()
