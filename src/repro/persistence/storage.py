"""Byte-blob storage backends for the snapshot and the log.

The codec layers above (:mod:`repro.persistence.snapshot`,
:mod:`repro.persistence.framedlog`) work on opaque byte strings; this
module supplies the two places those bytes can live:

* :class:`DFSStorage` — a file inside the simulated DFS, mirroring the
  paper's deployment where the repository metadata is just another
  replicated file on the cluster it indexes;
* :class:`LocalStorage` — a real file on the local filesystem, so the
  CLI can carry repository state across separate ``python -m repro``
  process invocations.

Both expose the same small surface: ``exists``/``size``/``read`` for
recovery, ``write`` for the snapshot (full replace), ``append`` for
the log, ``truncate`` for cutting a torn tail, and ``close``.
Individual operations are atomic at the backend's granularity (one
DFS call under its lock; one file syscall), which is all the framing
layer needs — it tolerates torn *tails*, not torn frames.

:class:`LocalStorage` is additionally *durable* at each operation:
appends, truncates, and the snapshot's write-temp-then-rename all
fsync the file (and, for the rename, its directory) before returning.
Without the fsync after ``truncate`` a crash right after torn-tail
repair could resurrect the very tail the repair removed; without the
fsyncs around the rename a crash could publish a snapshot whose bytes
never reached the platter.  Appends and truncates go through one
``O_APPEND`` handle, opened on first use and held until ``close``, so
a commit costs one write and one fsync: no open, mkdir or stat.
"""

from __future__ import annotations

import glob
import os
import pathlib
from dataclasses import dataclass
from typing import List

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
    """Snapshot/log bytes in a real file on the local filesystem."""

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)
        #: the held append handle (unbuffered: a failed write leaves
        #: nothing queued behind it)
        self._handle = None

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

    def _appender(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "ab", buffering=0)
        return self._handle

    def append(self, data: bytes) -> None:
        handle = self._appender()
        view = memoryview(data)
        while view:
            view = view[handle.write(view) :]
        _fsync_fileobj(handle)

    def truncate(self, length: int) -> None:
        if self._handle is None and not self.path.exists():
            if length == 0:
                return
            raise FileNotFoundError(str(self.path))
        handle = self._appender()
        handle.truncate(length)
        # fsync-after-truncate: torn-tail repair must not be
        # resurrectable by a crash right after it
        _fsync_fileobj(handle)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def delete(self) -> None:
        self.close()
        self.path.unlink(missing_ok=True)

    def __repr__(self) -> str:
        return f"LocalStorage({str(self.path)!r})"


class DFSStorage:
    """Snapshot/log bytes as a file in the simulated DFS."""

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

    def close(self) -> None:
        pass  # nothing held

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
    #: the log's base path: generation N lives at ``journal_path.g<N>``
    journal_path: str = "restore/repository.journal"
    #: "dfs" or "local"
    backend: str = "dfs"
    #: records between automatic snapshot rotations
    #: (0 = snapshot only when explicitly requested)
    snapshot_interval: int = 0
    #: records per commit *outside* a submission (``session.evict()``,
    #: a direct ``Repository.add``); inside one, the workflow end commits
    flush_every: int = 1

    def log_file(self, gen: int) -> str:
        return f"{self.journal_path}.g{gen}"

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

    def log_storage(self, dfs=None, gen: int = 0):
        return self._storage(self.log_file(gen), dfs)

    def retired_files(self, dfs=None) -> List[str]:
        """Files of the two-file layout this reader refuses: a bare
        journal at ``journal_path`` and block-store generations at
        ``snapshot_path.blocks.g<N>``."""
        journal = self._storage(self.journal_path, dfs)
        blocks = self.snapshot_path + ".blocks.g"
        if self.backend == "local":
            found = sorted(glob.glob(glob.escape(blocks) + "*"))
        else:
            found = dfs.list_paths(blocks)
        return [self.journal_path, *found] if journal.exists() else found
