"""Byte-blob storage backends for the log.

The codec layer above (:mod:`repro.persistence.framedlog`) works on
opaque byte strings; this module supplies the two places those bytes
can live:

* :class:`DFSStorage` — a file inside the simulated DFS, mirroring the
  paper's deployment where the repository metadata is just another
  replicated file on the cluster it indexes;
* :class:`LocalStorage` — a real file on the local filesystem, so the
  CLI can carry repository state across separate ``python -m repro``
  process invocations.

Both expose ``exists``/``size``/``read``, ``append`` (every write),
``truncate`` (a torn tail), ``delete`` (a compacted-away generation)
and ``close``, each atomic at the backend's granularity — the framing
layer tolerates torn *tails*, not torn frames.  :class:`LocalStorage`
fsyncs after every append and truncate (a crash right after torn-tail
repair must not resurrect the tail), through one ``O_APPEND`` handle
held until ``close``: a commit costs one write and one fsync.  The
first append into a file it created also fsyncs the directory, so a
new generation's name is durable before that append returns.
"""

from __future__ import annotations

import glob
import os
import pathlib
from dataclasses import dataclass
from typing import List

from repro.faults import injector as faults


def _fsync(fd: int) -> None:
    """fsync one open file or directory (injection site "storage.fsync")."""
    faults.fire("storage.fsync")
    os.fsync(fd)


class LocalStorage:
    """Log bytes in a real file on the local filesystem."""

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)
        #: the held append handle (unbuffered: a failed write leaves
        #: nothing queued behind it)
        self._handle = None
        #: the handle created the file, whose name is not durable yet
        self._created = False

    @property
    def location(self) -> str:
        return str(self.path)

    def exists(self) -> bool:
        return self.path.exists()

    def size(self) -> int:
        return self.path.stat().st_size if self.path.exists() else 0

    def read(self) -> bytes:
        return self.path.read_bytes()

    def _appender(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._created = self._created or not self.path.exists()
            self._handle = open(self.path, "ab", buffering=0)
        return self._handle

    def append(self, data: bytes) -> None:
        handle = self._appender()
        view = memoryview(data)
        while view:
            view = view[handle.write(view) :]
        _fsync(handle.fileno())
        if self._created:  # the new file's name, as durable as its bytes
            fd = os.open(self.path.parent, os.O_RDONLY)
            try:
                _fsync(fd)
            finally:
                os.close(fd)
            self._created = False

    def truncate(self, length: int) -> None:
        handle = self._appender()
        handle.truncate(length)
        # fsync-after-truncate: torn-tail repair must not be
        # resurrectable by a crash right after it
        _fsync(handle.fileno())

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
    """Log bytes as a file in the simulated DFS."""

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

    #: names where a snapshot file of the retired layout would be:
    #: recovery refuses a file there (it writes nothing at this path)
    snapshot_path: str = "restore/repository.snapshot"
    #: the log's base path: generation N lives at ``journal_path.g<N>``
    journal_path: str = "restore/repository.journal"
    #: "dfs" or "local"
    backend: str = "dfs"
    #: records between automatic checkpoint rotations
    #: (0 = checkpoint only when explicitly requested)
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

    def log_storage(self, dfs=None, gen: int = 0):
        return self._storage(self.log_file(gen), dfs)

    def _files(self, prefix: str, dfs) -> List[str]:
        if self.backend == "local":
            return sorted(glob.glob(glob.escape(prefix) + "*"))
        self._storage(prefix, dfs)  # validates backend and filesystem
        return dfs.list_paths(prefix)

    def generations(self, dfs=None) -> List[int]:
        """The log generations on the medium, newest first."""
        prefix = self.log_file("")
        tails = (path[len(prefix) :] for path in self._files(prefix, dfs))
        return sorted((int(tail) for tail in tails if tail.isdigit()), reverse=True)

    def retired_files(self, dfs=None) -> List[str]:
        """Files of a retired layout, which this reader refuses: a
        snapshot file at ``snapshot_path``, a bare journal at
        ``journal_path`` and block-store generations at
        ``snapshot_path.blocks.g<N>``."""
        singles = [self.snapshot_path, self.journal_path]
        found = [path for path in singles if self._storage(path, dfs).exists()]
        return found + self._files(self.snapshot_path + ".blocks.g", dfs)
