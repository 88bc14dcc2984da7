"""Crash-safe ingest: kill/resume bit-identity, journal guards, verify.

The in-process half crashes the real ingest steps by raising from them
(see ``tests/graphs/crash.py``), on each ingest front.  The subprocess
half is the real thing: a child ``ingest`` is ``SIGKILL``\\ ed
mid-flight from inside the same steps — no ``finally``, no ``atexit`` —
and a second child resumes it; the resulting store must be byte-for-byte
identical to an uninterrupted ingest.
"""

from __future__ import annotations

import filecmp
import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import StoreError
from repro.graphs.edgestore import (
    INGEST_SUFFIX,
    STAGING_SUFFIX,
    EdgeStoreWriter,
    ingest_arrays,
    ingest_edgelist,
    ingest_uniform_random,
    verify_store,
)
from tests.graphs.crash import Crash, arm_crash, raise_crash

N_NODES = 400
N_ARCS = 5_000
CHUNK_ARCS = 1_000

#: every crash site on the ingest path, armed at a visit the workload
#: above actually reaches (5 runs, multi-block merges, one commit)
KILL_SITES = ["spill@3", "journal@2", "merge@1", "csc@1", "commit@1"]


def _arcs(seed: int = 42):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, N_NODES, size=N_ARCS)
    dst = rng.integers(0, N_NODES, size=N_ARCS)
    weight = rng.integers(1, 9, size=N_ARCS).astype(np.float64)
    return src, dst, weight


def _ingest(path, resume: bool = False):
    src, dst, weight = _arcs()
    return ingest_arrays(
        path, src, dst, weight,
        n_nodes=N_NODES, chunk_arcs=CHUNK_ARCS, resume=resume,
    )


def _ingest_edgelist(path, resume: bool = False):
    text = path.with_name("arcs.txt")
    text.write_text(
        "".join(f"{s} {d} {w}\n" for s, d, w in zip(*_arcs()))
    )
    return ingest_edgelist(
        path, text, n_nodes=N_NODES, chunk_lines=CHUNK_ARCS,
        chunk_arcs=CHUNK_ARCS, resume=resume,
    )


def _ingest_uniform(path, resume: bool = False):
    # 4 generator chunks of ~1,200 arcs: each one spills its own run
    return ingest_uniform_random(
        path, N_NODES, 12, seed=42, chunk_nodes=100,
        chunk_arcs=CHUNK_ARCS, resume=resume,
    )


FRONTS = {
    "arrays": _ingest,
    "edgelist": _ingest_edgelist,
    "uniform": _ingest_uniform,
}


def assert_stores_identical(a: Path, b: Path) -> None:
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert not mismatch and not errors, (mismatch, errors)


@pytest.fixture(scope="module")
def baselines(tmp_path_factory) -> dict:
    """One uninterrupted ingest per front."""
    root = tmp_path_factory.mktemp("baselines")
    return {
        front: ingest(root / front).path
        for front, ingest in FRONTS.items()
    }


@pytest.fixture(scope="module")
def baseline(baselines) -> Path:
    return baselines["arrays"]


class TestInProcessFaults:
    @pytest.mark.parametrize(
        "front, site",
        [pytest.param("arrays", site, id=site) for site in KILL_SITES]
        + [
            pytest.param(front, site, id=f"{front}-{site}")
            for front in ("edgelist", "uniform")
            for site in ("spill@3", "merge@1", "commit@1")
        ],
    )
    def test_raise_then_resume_is_bit_identical(
        self, front, site, tmp_path, baselines, monkeypatch
    ):
        path = tmp_path / "store"
        ingest = FRONTS[front]
        arm_crash(monkeypatch.setattr, site, raise_crash)
        with pytest.raises(Crash):
            ingest(path)
        # the interrupted attempt left work state, never a final store
        assert not path.exists()
        assert path.with_name(path.name + INGEST_SUFFIX).exists()
        store = ingest(path, resume=True)
        assert store.n_arcs > 0
        assert_stores_identical(path, baselines[front])
        # resume cleaned its scratch space behind it
        assert not path.with_name(path.name + INGEST_SUFFIX).exists()
        assert not path.with_name(path.name + STAGING_SUFFIX).exists()

    def test_two_consecutive_faults_then_resume(
        self, tmp_path, baseline, monkeypatch
    ):
        path = tmp_path / "store"
        for site in ("spill@2", "merge@1"):
            arm_crash(monkeypatch.setattr, site, raise_crash)
            with pytest.raises(Crash):
                _ingest(path, resume=path.with_name(
                    path.name + INGEST_SUFFIX).exists())
        assert_stores_identical(
            _ingest(path, resume=True).path, baseline
        )


class TestJournalGuards:
    def test_resume_without_journal_is_an_error(self, tmp_path):
        with pytest.raises(StoreError, match="nothing to resume"):
            _ingest(tmp_path / "fresh", resume=True)

    def test_resume_with_mismatched_parameters(self, tmp_path, monkeypatch):
        path = tmp_path / "store"
        arm_crash(monkeypatch.setattr, "spill@2", raise_crash)
        with pytest.raises(Crash):
            _ingest(path)
        src, dst, weight = _arcs()
        with pytest.raises(StoreError, match="journal"):
            ingest_arrays(
                path, src, dst, weight,
                n_nodes=N_NODES, chunk_arcs=CHUNK_ARCS // 2, resume=True,
            )

    @pytest.mark.parametrize("site", ["spill@3", "merge@1"])
    def test_resume_with_different_input_is_refused(
        self, site, tmp_path, monkeypatch
    ):
        path = tmp_path / "store"
        arm_crash(monkeypatch.setattr, site, raise_crash)
        with pytest.raises(Crash):
            _ingest(path)
        src, dst, weight = _arcs()
        weight[0] += 1.0  # same chunk sizes, one journaled arc changed
        with pytest.raises(StoreError, match="re-fed input differs"):
            ingest_arrays(
                path, src, dst, weight,
                n_nodes=N_NODES, chunk_arcs=CHUNK_ARCS, resume=True,
            )
        assert not path.exists()

    def test_replay_chunk_straddling_frontier(self, tmp_path):
        path = tmp_path / "store"
        src, dst, weight = _arcs()
        writer = EdgeStoreWriter(
            path, n_nodes=N_NODES, chunk_arcs=500
        )
        writer.append(src[:500], dst[:500], weight[:500])
        writer.append(src[500:1000], dst[500:1000], weight[500:1000])
        # abandon the writer: 1000 arcs are journaled
        resumed = EdgeStoreWriter(
            path, n_nodes=N_NODES, chunk_arcs=500, resume=True
        )
        resumed.append(src[:700], dst[:700], weight[:700])
        with pytest.raises(StoreError, match="straddles"):
            resumed.append(src[700:1400], dst[700:1400], weight[700:1400])

    def test_finalize_with_replay_incomplete(self, tmp_path, monkeypatch):
        path = tmp_path / "store"
        arm_crash(monkeypatch.setattr, "merge@1", raise_crash)
        with pytest.raises(Crash):
            _ingest(path)
        resumed = EdgeStoreWriter(
            path, n_nodes=N_NODES, chunk_arcs=CHUNK_ARCS, resume=True
        )
        with pytest.raises(StoreError, match="replay incomplete"):
            resumed.finalize()


#: ways to corrupt ``meta.json``, and the key each error must name
CORRUPT_META = [
    pytest.param(
        lambda meta: {k: v for k, v in meta.items() if k != "n_nodes"},
        "n_nodes", id="no-n_nodes",
    ),
    pytest.param(
        lambda meta: {**meta, "n_arcs": -1}, "n_arcs", id="negative-n_arcs"
    ),
    pytest.param(
        lambda meta: {**meta, "directed": "yes"}, "directed",
        id="string-directed",
    ),
    pytest.param(
        lambda meta: {**meta, "index_dtype": "bogus"}, "index_dtype",
        id="bogus-index_dtype",
    ),
    pytest.param(lambda meta: [meta], "JSON object", id="json-list"),
]


def corrupt_meta(store: Path, edit) -> None:
    meta_path = store / "meta.json"
    meta_path.write_text(json.dumps(edit(json.loads(meta_path.read_text()))))


class TestVerifyStore:
    def test_intact_store_report(self, baseline):
        report = verify_store(baseline)
        assert report["n_nodes"] == N_NODES
        assert report["checksums_verified"] is True
        assert len(report["checked"]) == 7

    def test_missing_store_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            verify_store(tmp_path / "nope")

    def test_bitflip_detected_by_checksum(self, tmp_path):
        path = tmp_path / "store"
        _ingest(path)
        target = path / "weight.npy"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF  # flip data bits, leave the npy header alone
        target.write_bytes(bytes(blob))
        with pytest.raises(StoreError, match="checksum mismatch"):
            verify_store(path)

    def test_truncation_detected_structurally(self, tmp_path):
        path = tmp_path / "store"
        _ingest(path)
        np.save(path / "dst.npy", np.asarray([0, 1], dtype=np.int32))
        with pytest.raises(StoreError, match="entries"):
            verify_store(path)

    @pytest.mark.parametrize("edit, named", CORRUPT_META)
    def test_corrupt_metadata_named(self, tmp_path, edit, named):
        path = tmp_path / "store"
        _ingest(path)
        corrupt_meta(path, edit)
        with pytest.raises(StoreError, match=named):
            verify_store(path)


# ----------------------------------------------------------------------
# the real thing: SIGKILL a child ingest, resume in a second child
# ----------------------------------------------------------------------
CHILD_SCRIPT = textwrap.dedent(
    """
    import os
    import signal
    import sys

    import numpy as np

    from repro.graphs.edgestore import ingest_arrays
    from tests.graphs.crash import arm_crash

    path, site = sys.argv[1], sys.argv[2]
    if site != "resume":
        arm_crash(
            setattr, site, lambda: os.kill(os.getpid(), signal.SIGKILL)
        )
    rng = np.random.default_rng(42)
    src = rng.integers(0, {n}, size={m})
    dst = rng.integers(0, {n}, size={m})
    weight = rng.integers(1, 9, size={m}).astype(np.float64)
    ingest_arrays(
        path, src, dst, weight,
        n_nodes={n}, chunk_arcs={chunk}, resume=site == "resume",
    )
    """
).format(n=N_NODES, m=N_ARCS, chunk=CHUNK_ARCS)


def _run_child(path: Path, site: str):
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, str(path), site],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("site", ["spill@3", "merge@1", "commit@1"])
def test_sigkill_then_resume_is_bit_identical(site, tmp_path, baseline):
    path = tmp_path / "store"
    killed = _run_child(path, site)
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    assert not path.exists()

    resumed = _run_child(path, "resume")
    assert resumed.returncode == 0, resumed.stderr

    assert_stores_identical(path, baseline)
    verify_store(path)
