"""Byte-blob storage backends for snapshots and journals.

The codec layers above (:mod:`repro.persistence.snapshot`,
:mod:`repro.persistence.journal`) work on opaque byte strings; this
module supplies the two places those bytes can live:

* :class:`DFSStorage` — a file inside the simulated DFS, mirroring the
  paper's deployment where the repository metadata is just another
  replicated file on the cluster it indexes;
* :class:`LocalStorage` — a real file on the local filesystem, so the
  CLI can carry repository state across separate ``python -m repro``
  process invocations.

Both expose the same small surface: ``exists``/``size``/``read`` for
recovery, ``write`` for snapshot rotation (full replace), ``append``
for journal records, and ``truncate`` for repairing a torn journal
tail.  Individual operations are atomic at the backend's granularity
(one DFS call under its lock; one file syscall), which is all the
framing layers need — they tolerate torn *tails*, not torn records.

:class:`LocalStorage` is additionally *durable* at each operation:
appends, truncates, and the snapshot's write-temp-then-rename all
fsync the file (and, for the rename, its directory) before returning.
Without the fsync after ``truncate`` a crash right after torn-tail
repair could resurrect the very tail the repair removed; without the
fsyncs around the rename a crash could publish a snapshot whose bytes
never reached the platter.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass

from repro.faults import injector as faults


def _fsync_fileobj(handle) -> None:
    """Flush + fsync one open file (injection site "storage.fsync")."""
    handle.flush()
    faults.fire("storage.fsync")
    os.fsync(handle.fileno())


def _fsync_dir(path: pathlib.Path) -> None:
    """fsync a directory so a rename inside it is durable; platforms
    that cannot open directories simply skip (the rename itself is
    still atomic — durability degrades, correctness does not)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        faults.fire("storage.fsync")
        os.fsync(fd)
    finally:
        os.close(fd)


class LocalStorage:
    """Snapshot/journal bytes in a real file on the local filesystem."""

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)

    @property
    def location(self) -> str:
        return str(self.path)

    def exists(self) -> bool:
        return self.path.exists()

    def size(self) -> int:
        return self.path.stat().st_size if self.path.exists() else 0

    def read(self) -> bytes:
        return self.path.read_bytes()

    def write(self, data: bytes) -> None:
        """Replace the whole file: write-temp, fsync the temp, rename
        over the target, fsync the directory — a crash at any point
        leaves either the old complete file or the new complete file,
        and the survivor is on stable storage."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(data)
            _fsync_fileobj(handle)
        tmp.replace(self.path)
        _fsync_dir(self.path.parent)

    def append(self, data: bytes) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab") as handle:
            handle.write(data)
            _fsync_fileobj(handle)

    def truncate(self, length: int) -> None:
        if not self.path.exists():
            if length == 0:
                return
            raise FileNotFoundError(str(self.path))
        with open(self.path, "r+b") as handle:
            handle.truncate(length)
            # fsync-after-truncate: torn-tail repair must not be
            # resurrectable by a crash right after it
            _fsync_fileobj(handle)

    def delete(self) -> None:
        self.path.unlink(missing_ok=True)

    def __repr__(self) -> str:
        return f"LocalStorage({str(self.path)!r})"


class DFSStorage:
    """Snapshot/journal bytes as a file in the simulated DFS."""

    def __init__(self, dfs, path: str) -> None:
        self.dfs = dfs
        self.path = path

    @property
    def location(self) -> str:
        return self.path

    def exists(self) -> bool:
        return self.dfs.exists(self.path)

    def size(self) -> int:
        return self.dfs.file_size(self.path) if self.exists() else 0

    def read(self) -> bytes:
        return self.dfs.read_file(self.path)

    def write(self, data: bytes) -> None:
        self.dfs.write_file(self.path, data, overwrite=True)

    def append(self, data: bytes) -> None:
        self.dfs.append(self.path, data)

    def truncate(self, length: int) -> None:
        # the DFS has no in-place truncate: rewrite the clean prefix
        current = self.read() if self.exists() else b""
        self.dfs.write_file(self.path, current[:length], overwrite=True)

    def delete(self) -> None:
        self.dfs.delete_if_exists(self.path)

    def __repr__(self) -> str:
        return f"DFSStorage({self.path!r})"


@dataclass
class PersistenceConfig:
    """Where and how repository state is persisted.

    The default backend is the simulated DFS (repository metadata is
    just another replicated file on the cluster it indexes, as in the
    paper's deployment); ``backend="local"`` writes real files so the
    CLI can carry state across process invocations.
    """

    snapshot_path: str = "restore/repository.snapshot"
    journal_path: str = "restore/repository.journal"
    #: "dfs" or "local"
    backend: str = "dfs"
    #: journal records between automatic snapshot rotations
    #: (0 = snapshot only when explicitly requested)
    snapshot_interval: int = 0
    #: seconds between timer-driven rotations under a live service
    #: (0 = no timer; rotation still happens at workflow boundaries
    #: via ``snapshot_interval``); a timer rotation that fails aborts
    #: without touching the journal, like any other rotation
    snapshot_interval_s: float = 0.0
    #: records per commit *outside* a submission (``session.evict()``,
    #: a direct ``Repository.add``); inside one, the workflow end commits
    flush_every: int = 1

    @property
    def blockstore_base(self) -> str:
        """Base path of the payload block store (generation files
        append ``.g<N>``)."""
        return self.snapshot_path + ".blocks"

    def blockstore_file(self, gen: int) -> str:
        return f"{self.blockstore_base}.g{gen}"

    def _storage(self, path: str, dfs):
        if self.backend == "local":
            return LocalStorage(path)
        if self.backend != "dfs":
            raise ValueError(f"unknown persistence backend: {self.backend!r}")
        if dfs is None:
            raise ValueError("the 'dfs' persistence backend needs a filesystem")
        return DFSStorage(dfs, path)

    def snapshot_storage(self, dfs=None):
        return self._storage(self.snapshot_path, dfs)

    def journal_storage(self, dfs=None):
        return self._storage(self.journal_path, dfs)

    def blockstore_storage(self, dfs=None, gen: int = 0):
        return self._storage(self.blockstore_file(gen), dfs)
