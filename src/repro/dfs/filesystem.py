"""The DFS facade used by every other subsystem.

``DistributedFileSystem`` wraps the NameNode's namespace of inodes and
exposes the small API surface the MapReduce engine needs: whole-file
reads/writes, appends, deletes, renames, listing and stat.  It also
accumulates the global I/O counters (bytes logically read/written)
consumed by the cost model.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from typing import Iterable, List, Optional, Tuple

from repro.dfs.dataset import TypedDataset, canonical_ascii_size, rows_are_canonical
from repro.dfs.namenode import FileStatus, InputExtent, LazyPayload, NameNode, Segment
from repro.exceptions import SchemaError
from repro.faults import injector as faults
from repro.relational.schema import Schema
from repro.relational.tuples import (
    Row,
    deserialize_rows,
    serialize_rows,
    snapshot_rows,
)


@dataclass(frozen=True)
class WriteStatus(FileStatus):
    """What :meth:`DistributedFileSystem.write_rows` returns: the new
    file's status, and which path sized it."""

    #: True when ``size`` is ``canonical_ascii_size(rows, schema)`` of
    #: the rows written — their serialized characters, one newline
    #: each.  False for a rendered write (non-canonical or non-ASCII
    #: rows, or no schema) and a payload clone, whose size is bytes of
    #: text the rows were never sized for.  ``TypedDataset.exact``
    #: cannot stand in: a canonical non-ASCII write is exact, and its
    #: size counts UTF-8 bytes, not characters.
    sized_from_rows: bool = False


class DistributedFileSystem:
    """An in-memory HDFS-shaped store: a namespace of files, each a
    path, a size and its payload.

    The cost model prices I/O from the logical byte counters kept
    here; block splitting and replication are its own parameters
    (``ClusterConfig.sim_block_size`` / ``replication``), not state of
    this store.
    """

    def __init__(self):
        self.namenode = NameNode()
        # Logical (single-copy) counters, used by the cost model.
        self.bytes_read = 0
        self.bytes_written = 0
        #: stores that cloned an existing file's serialized payload
        #: instead of re-serializing (see :meth:`write_rows` ``source``)
        self.payload_clones = 0
        #: the count behind :attr:`serializations`
        self._renders = [0]
        self._script_id_next = 1
        self._subjob_id_next = 1
        self._delta_id_next = 1
        #: one filesystem is shared by every concurrent service worker;
        #: this lock makes namespace mutations (the id counters, the
        #: mtime clock, delete-if-exists) atomic
        self._lock = threading.RLock()

    @property
    def serializations(self) -> int:
        """PigStorage renders actually performed for row writes (eager
        builds plus lazy payloads something genuinely byte-read)."""
        return self._renders[0]

    def next_subjob_id(self) -> int:
        """Allocate a ReStore sub-job output number.

        Scoped like :meth:`next_script_id`: deterministic per fresh
        filesystem (a serial rerun of the same stream reproduces the
        same ``restore/subjob/sj...`` paths byte for byte), and unique
        across managers sharing one DFS so kept sub-job outputs can
        never overwrite each other.
        """
        with self._lock:
            value = self._subjob_id_next
            self._subjob_id_next += 1
            return value

    def next_delta_id(self) -> int:
        """Allocate a delta-refresh scratch number.

        Scoped like :meth:`next_subjob_id`: ``restore/delta/...``
        scratch paths (appended-tail inputs, side-stored delta rows)
        are short-lived but must still never collide between managers
        sharing one DFS — the loser of a collision would merge another
        manager's delta bytes into its own stored output.
        """
        with self._lock:
            value = self._delta_id_next
            self._delta_id_next += 1
            return value

    def next_script_id(self) -> int:
        """Allocate a script id unique within this filesystem.

        Temp-output prefixes (``tmp/s<id>``) must never collide between
        engines sharing one DFS — a second engine overwriting another's
        kept temp file silently corrupts the ReStore repository — so
        the filesystem, the shared resource, hands out the numbering.
        A fresh DFS restarts at 1, keeping paths deterministic per
        test/session.
        """
        with self._lock:
            value = self._script_id_next
            self._script_id_next += 1
            return value

    def ensure_id_floor(
        self,
        next_script_id: Optional[int] = None,
        next_subjob_id: Optional[int] = None,
    ) -> None:
        """Advance the id counters so future allocations start at or
        past the given values.

        Crash recovery calls this: a restored repository references
        ``tmp/s<id>`` and ``restore/subjob/sj<id>`` paths that new
        allocations must never collide with, so the counters resume
        past the highest persisted id instead of restarting at 1.
        Floors only move forward — a stale floor can never rewind a
        live counter.
        """
        with self._lock:
            if next_script_id is not None:
                self._script_id_next = max(self._script_id_next, next_script_id)
            if next_subjob_id is not None:
                self._subjob_id_next = max(self._subjob_id_next, next_subjob_id)

    def id_state(self) -> dict:
        """The next script/sub-job ids this filesystem would allocate
        (snapshotted into repository checkpoints for id hygiene)."""
        with self._lock:
            return {
                "next_script_id": self._script_id_next,
                "next_subjob_id": self._subjob_id_next,
            }

    # -- writes -------------------------------------------------------------------

    def write_file(
        self, path: str, data: bytes | str, overwrite: bool = False
    ) -> FileStatus:
        """Create *path* with *data*."""
        payload = data.encode() if isinstance(data, str) else data
        with self._lock:
            if overwrite and self.namenode.exists(path):
                self.delete(path)
            self._append_segment(self.namenode.create(path), payload)
            return self.namenode.stat(path)

    def append(self, path: str, data: bytes | str) -> FileStatus:
        """Append to an existing file (creates it if missing)."""
        payload = data.encode() if isinstance(data, str) else data
        with self._lock:
            if not self.namenode.exists(path):
                return self.write_file(path, payload)
            inode = self.namenode.lookup(path)
            self._append_segment(inode, payload)
            inode.invalidate_datasets(appended=True)
            self.namenode.touch(path)
            return self.namenode.stat(path)

    def write_lines(
        self, path: str, lines: Iterable[str], overwrite: bool = False
    ) -> FileStatus:
        text = "".join(line if line.endswith("\n") else line + "\n" for line in lines)
        return self.write_file(path, text, overwrite=overwrite)

    def write_rows(
        self,
        path: str,
        rows: Iterable[Row],
        schema: Optional[Schema] = None,
        overwrite: bool = False,
        source: Optional[str] = None,
        snapshot: bool = True,
    ) -> WriteStatus:
        """Create *path* from typed rows (the zero-copy write path).

        The PigStorage serialization stays the source of truth — it is
        what the byte counters account and what :meth:`read_file`
        returns — but when the rows round-trip exactly under *schema*
        they are additionally pinned to the inode, so a
        :meth:`read_rows` with a matching schema skips parsing and the
        text is never even rendered.

        ``source`` names a file the caller believes produced *rows*
        (a copy-style store's load).  When the source's pinned dataset
        is provably these very rows (element identity, current
        generation, *exact* serialization), the new file shares the
        producer's payload: the text of a copied result is rendered at
        most once no matter how many copies exist.  The hint is fully
        verified here — a wrong or stale one just falls back to
        serializing.

        Byte counters move exactly as a fresh write would move them on
        either path.  ``snapshot=False`` is for the interpreter, which
        owns its flush rows (no caller can mutate them later) and so
        skips the defensive copy.  The returned status says whether the
        size was counted from the rows (:attr:`WriteStatus.sized_from_rows`).
        """
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        if source is not None and schema is not None:
            clone = self._clone_payload(path, rows, schema, source, overwrite)
            if clone is not None:
                return WriteStatus(clone.path, clone.size, clone.mtime)
        if snapshot:
            # snapshot at call time, like write_file snapshots bytes: a
            # caller mutating a Bag after this returns must not corrupt
            # the deferred serialization or the pinned dataset
            rows = snapshot_rows(rows)
        elif not isinstance(rows, tuple):
            rows = tuple(rows)
        payload: Segment
        # one pass decides pinning eligibility and sizes the bytes
        total_bytes = (
            canonical_ascii_size(rows, schema) if schema is not None else None
        )
        if total_bytes is None:
            # non-canonical or non-ASCII rows: readers will genuinely
            # parse the text, so build it up front (rare path: the
            # canonical check runs again, off the hot path)
            canonical = schema is not None and rows_are_canonical(rows, schema)
            payload = _render_rows(rows, self._renders)
        else:
            # byte-size accounting is exact without serializing; the
            # text is built only if something reads actual bytes
            canonical = True
            # the builder holds the count, not the filesystem: a payload
            # referring back to its own filesystem would make every
            # file a reference cycle
            build = partial(_render_rows, rows, self._renders)
            payload = LazyPayload(build, total_bytes)
        with self._lock:
            if overwrite and self.namenode.exists(path):
                self.delete(path)
            inode = self.namenode.create(path)
            self._append_segment(inode, payload)
            if canonical:
                # exact: the payload *is* serialize_rows(rows), so the
                # dataset qualifies as a payload-reuse source itself
                fingerprint = schema.fingerprint()
                inode.datasets[fingerprint] = TypedDataset(
                    rows, fingerprint, inode.generation, exact=True, covers=inode.size
                )
            status = self.namenode.stat(path)
        return WriteStatus(
            status.path, status.size, status.mtime, total_bytes is not None
        )

    def _clone_payload(
        self,
        path: str,
        rows,
        schema: Schema,
        source: str,
        overwrite: bool,
    ) -> Optional[FileStatus]:
        """Create *path* by sharing *source*'s serialized payload.

        Returns None (caller falls back to serializing) unless every
        reuse precondition holds; see :meth:`write_rows`.
        """
        fingerprint = schema.fingerprint()
        with self._lock:
            if not self.namenode.exists(source):
                return None
            src = self.namenode.lookup(source)
            dataset = src.datasets.get(fingerprint)
            if (
                dataset is None
                or not dataset.exact
                or dataset.generation != src.generation
                or len(src.segments) != 1
            ):
                return None
            src_rows = dataset.rows
            if len(rows) != len(src_rows):
                return None
            for mine, theirs in zip(rows, src_rows):
                if mine is not theirs:
                    return None
            # capture before any delete: source may equal path
            # (a store overwriting its own input with itself)
            payload = src.segments[0]
            if overwrite and self.namenode.exists(path):
                self.delete(path)
            inode = self.namenode.create(path)
            self._append_segment(inode, payload)
            inode.datasets[fingerprint] = TypedDataset(
                src_rows, fingerprint, inode.generation, exact=True, covers=inode.size
            )
            self.payload_clones += 1
            return self.namenode.stat(path)

    def _append_segment(self, inode, payload: Segment) -> None:
        inode.segments.append(payload)
        inode.size += len(payload)
        self.bytes_written += len(payload)

    # -- reads ----------------------------------------------------------------------

    def read_file(self, path: str) -> bytes:
        with self._lock:
            data = self.namenode.lookup(path).read()
            # injection site "dfs.read": payload bit rot on the
            # read path (persistence reads through here on the "dfs"
            # backend, so this also corrupts snapshot/journal bytes)
            data = faults.fire("dfs.read", data=data)
            self.bytes_read += len(data)
            return data

    def read_range(self, path: str, start: int, end: int) -> bytes:
        """Read the byte range ``[start, end)`` of *path*.

        The tail view the incremental-recomputation layer uses to run
        a sub-plan over just the appended suffix of a grown input,
        without paying a full-file read.  Counters move for the bytes
        actually returned.
        """
        with self._lock:
            data = self.namenode.lookup(path).read(max(0, start), end)
            self.bytes_read += len(data)
            return data

    def read_text(self, path: str) -> str:
        return self.read_file(path).decode()

    def read_rows(self, path: str, schema: Schema) -> Tuple[Row, ...]:
        """Read *path* as typed rows (the zero-copy read path).

        A pinned dataset with a matching schema fingerprint and a
        current generation is returned as-is — no bytes are
        materialized, no text is parsed, yet the read counter moves
        exactly as a text read would move it.  On a miss the text is
        parsed once and the result is pinned, so the next matching
        reader hits; after an append only the bytes past what was
        pinned are parsed (``INode.prefixes``).  The returned tuple is
        shared: treat it as immutable.
        """
        fingerprint = schema.fingerprint()
        with self._lock:
            inode = self.namenode.lookup(path)
            dataset = inode.datasets.get(fingerprint)
            self.bytes_read += inode.size
            if dataset is not None and dataset.generation == inode.generation:
                return dataset.rows
            generation, size = inode.generation, inode.size
            prefix = inode.prefixes.get(fingerprint)
            start = prefix.covers if prefix is not None else 0
            data = inode.read(start)
        # parse outside the lock: a cold read of a large file must not
        # stall every other worker sharing this filesystem
        rows = None
        if start:
            try:
                rows = prefix.rows + tuple(deserialize_rows(data.decode(), schema))
            except SchemaError:  # the full parse names the file's line
                with self._lock:
                    data = inode.read()
        if rows is None:
            try:
                rows = tuple(deserialize_rows(data.decode(), schema))
            except SchemaError as exc:  # names line and field; add the file
                raise SchemaError(f"{path} {exc}") from None
        with self._lock:
            # a parse is canonical with respect to its own text, so the
            # fill needs no round-trip check — but pin only if the file
            # is still the same inode at the same generation
            if self.namenode.exists(path):
                current = self.namenode.lookup(path)
                if current is inode and current.generation == generation:
                    covers = size if data[-1:] in (b"", b"\n") else None
                    inode.datasets[fingerprint] = TypedDataset(
                        rows, fingerprint, generation, covers=covers
                    )
                    inode.prefixes.pop(fingerprint, None)
        return rows

    def read_lines(self, path: str) -> List[str]:
        text = self.read_text(path)
        return [line for line in text.splitlines() if line != ""]

    # -- namespace ---------------------------------------------------------------------

    def exists(self, path: str) -> bool:
        return self.namenode.exists(path)

    def delete(self, path: str) -> None:
        with self._lock:
            self.namenode.remove(path)

    def delete_if_exists(self, path: str) -> bool:
        with self._lock:
            if self.exists(path):
                self.delete(path)
                return True
            return False

    def rename(self, src: str, dst: str) -> None:
        with self._lock:
            self.namenode.rename(src, dst)

    def stat(self, path: str) -> FileStatus:
        return self.namenode.stat(path)

    def file_size(self, path: str) -> int:
        return self.namenode.stat(path).size

    def mtime(self, path: str) -> int:
        return self.namenode.stat(path).mtime

    def input_extent(
        self, path: str, with_crc: bool = False
    ) -> Optional[InputExtent]:
        """The live :class:`InputExtent` of *path*, or None when the
        file does not exist (freshness classification's "dead").

        ``with_crc`` additionally records the content checksum that
        makes the extent survive a persistence restart (registration
        pays it once; match-time probes stay metadata-only).
        """
        with self._lock:
            if not self.namenode.exists(path):
                return None
            inode = self.namenode.lookup(path)
            return InputExtent(
                mtime=inode.mtime,
                generation=inode.generation,
                birth=inode.birth,
                size=inode.size,
                crc=self.prefix_crc32(path) if with_crc else None,
            )

    def prefix_crc32(self, path: str, size: Optional[int] = None) -> Optional[int]:
        """crc32 of the first *size* bytes of *path* (whole file when
        None), or None when it cannot be computed cheaply.

        A metadata-grade probe for freshness classification: it moves
        no logical read counters and refuses to force a still-deferred
        lazy segment into serializing (callers treat None as "cannot
        verify" and classify conservatively).
        """
        with self._lock:
            if not self.namenode.exists(path):
                return None
            return self.namenode.lookup(path).prefix_crc32(size)

    def list_paths(self, prefix: str = "") -> List[str]:
        return self.namenode.list_paths(prefix)

    def __repr__(self) -> str:
        return f"DistributedFileSystem(files={self.namenode.file_count})"


def _render_rows(rows, renders: List[int]) -> bytes:
    renders[0] += 1
    return serialize_rows(rows).encode()
