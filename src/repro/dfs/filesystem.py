"""The DFS facade used by every other subsystem.

``DistributedFileSystem`` glues together the NameNode, a set of
DataNodes and a replica placement policy, and exposes the small API
surface the MapReduce engine needs: whole-file reads/writes, appends,
deletes, renames, listing and stat.  It also accumulates the global
I/O counters (bytes logically read/written, replica bytes) consumed by
the cost model.
"""

from __future__ import annotations

import threading
import zlib
from typing import Iterable, List, Optional, Tuple

from repro.dfs.blocks import Block, LazyPayload
from repro.dfs.datanode import DataNode
from repro.dfs.dataset import TypedDataset, canonical_ascii_size, rows_are_canonical
from repro.dfs.namenode import FileStatus, INode, InputExtent, NameNode
from repro.dfs.replication import PlacementPolicy, RoundRobinPlacement
from repro.exceptions import DFSError, FileNotFoundInDFS
from repro.faults import injector as faults
from repro.relational.schema import Schema
from repro.relational.tuples import (
    Row,
    deserialize_rows,
    serialize_rows,
    serialized_rows_size,
    snapshot_rows,
)


class DistributedFileSystem:
    """An in-memory HDFS: replicated blocks over simulated datanodes.

    Parameters mirror the paper's cluster: 14 datanodes, 3-way
    replication.  ``block_size`` defaults to 128 KiB so that the small
    generated data sets still span multiple blocks (and therefore
    multiple simulated map tasks).
    """

    def __init__(
        self,
        n_datanodes: int = 14,
        replication: int = 3,
        block_size: int = 128 * 1024,
        node_capacity_bytes: Optional[int] = None,
        placement: Optional[PlacementPolicy] = None,
    ):
        if n_datanodes < 1:
            raise ValueError("need at least one datanode")
        self.namenode = NameNode()
        self.datanodes: List[DataNode] = [
            DataNode(i, node_capacity_bytes) for i in range(n_datanodes)
        ]
        self.replication = replication
        self.block_size = block_size
        self.placement = placement or RoundRobinPlacement()
        # Logical (single-copy) counters, used by the cost model.
        self.bytes_read = 0
        self.bytes_written = 0
        # Physical counter including replication fan-out.
        self.replica_bytes_written = 0
        #: stores that cloned an existing file's serialized payload
        #: instead of re-serializing (see :meth:`write_rows` ``source``)
        self.payload_clones = 0
        #: PigStorage renders actually performed for row writes (eager
        #: builds plus lazy payloads something genuinely byte-read)
        self.serializations = 0
        self._script_id_next = 1
        self._subjob_id_next = 1
        self._delta_id_next = 1
        #: one filesystem is shared by every concurrent service worker;
        #: this lock makes namespace mutations (block allocation, the
        #: mtime clock, delete-if-exists) atomic — without it two
        #: writers can be handed the same block id and silently read
        #: each other's bytes back
        self._lock = threading.RLock()

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
        """Create *path* with *data*; replicates each block."""
        payload = data.encode() if isinstance(data, str) else data
        with self._lock:
            if overwrite and self.namenode.exists(path):
                self.delete(path)
            inode = self.namenode.create(path, self.replication)
            self._append_blocks(inode, payload)
            return self.namenode.stat(path)

    def append(self, path: str, data: bytes | str) -> FileStatus:
        """Append to an existing file (creates it if missing)."""
        payload = data.encode() if isinstance(data, str) else data
        with self._lock:
            if not self.namenode.exists(path):
                return self.write_file(path, payload)
            inode = self.namenode.lookup(path)
            self._append_blocks(inode, payload)
            inode.invalidate_datasets()
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
    ) -> FileStatus:
        """Create *path* from typed rows (the zero-copy write path).

        The PigStorage serialization stays the source of truth — it is
        what the byte counters account and what :meth:`read_file`
        returns — but when the rows round-trip exactly under *schema*
        they are additionally pinned to the inode, so a
        :meth:`read_rows` with a matching schema skips parsing and the
        block bytes are never even sliced out of the payload.

        ``source`` names a file the caller believes produced *rows*
        (a copy-style or filtered store's load).  Two fast paths hang
        off it, both fully verified here (a wrong or stale hint just
        falls back to serializing):

        * **payload clone** — when the source's pinned dataset is
          provably these very rows (element identity, current
          generation, *exact* serialization), the new file shares the
          producer's payload: the text of a copied result is rendered
          at most once no matter how many copies exist;
        * **subset sizing** — when the rows are an identity-subset of
          an ASCII-sized pinned dataset (a filter passes row references
          through untouched), canonicality is already proven, so the
          write sizes the rows in one columnar pass and skips both the
          canonical re-check and the snapshot.

        Byte counters move exactly as a fresh write would move them on
        every path.  ``snapshot=False`` is for the interpreter, which
        owns its flush rows (no caller can mutate them later) and so
        skips the defensive copy.
        """
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        if source is not None and schema is not None:
            fast = self._clone_payload(path, rows, schema, source, overwrite)
            if fast is None:
                fast = self._write_subset(path, rows, schema, source, overwrite)
            if fast is not None:
                return fast
        if snapshot:
            # snapshot at call time, like write_file snapshots bytes: a
            # caller mutating a Bag after this returns must not corrupt
            # the deferred serialization or the pinned dataset
            rows = snapshot_rows(rows)
        elif not isinstance(rows, tuple):
            rows = tuple(rows)
        payload: bytes | LazyPayload
        # one pass decides pinning eligibility and sizes the bytes
        total_bytes = (
            canonical_ascii_size(rows, schema) if schema is not None else None
        )
        if total_bytes is None:
            # non-canonical or non-ASCII rows: readers will genuinely
            # parse the text, so build it up front (rare path: the
            # canonical check runs again, off the hot path)
            canonical = schema is not None and rows_are_canonical(rows, schema)
            self.serializations += 1
            data = serialize_rows(rows).encode()
            payload, total_bytes = data, len(data)
            ascii_sized = False
        else:
            # byte-size accounting is exact without serializing; the
            # text is built only if something reads actual bytes
            canonical = True
            ascii_sized = True
            payload = LazyPayload(lambda: self._render_rows(rows))
        with self._lock:
            if overwrite and self.namenode.exists(path):
                self.delete(path)
            inode = self.namenode.create(path, self.replication)
            self._append_blocks(inode, payload, total_bytes)
            if canonical:
                # exact: the payload *is* serialize_rows(rows), so the
                # dataset qualifies as a payload-reuse source itself
                fingerprint = schema.fingerprint()
                inode.datasets[fingerprint] = TypedDataset(
                    rows,
                    fingerprint,
                    inode.generation,
                    exact=True,
                    ascii_sized=ascii_sized,
                )
            return self.namenode.stat(path)

    def _write_subset(
        self,
        path: str,
        rows,
        schema: Schema,
        source: str,
        overwrite: bool,
    ) -> Optional[FileStatus]:
        """Write rows proven to be an identity-subset of *source*'s
        ASCII-sized pinned dataset: size them in one columnar pass,
        skip the canonical re-check and the defensive snapshot.

        Soundness of the id-subset proof: the source dataset's
        ``rows`` tuple keeps every member alive, so a live object
        whose id is in the set *is* the original (ids cannot recycle
        while the referent exists); rows stay alive through the local
        references below.
        """
        fingerprint = schema.fingerprint()

        def subset_of_current_dataset():
            """The source's live pinned dataset when it covers *rows*."""
            if not self.namenode.exists(source):
                return None
            src = self.namenode.lookup(source)
            dataset = src.datasets.get(fingerprint)
            if (
                dataset is None
                or not dataset.ascii_sized
                or dataset.generation != src.generation
            ):
                return None
            if not set(map(id, rows)) <= dataset.row_ids():
                return None
            return dataset

        with self._lock:
            dataset = subset_of_current_dataset()
            if dataset is None:
                return None
        # per-row widths + one newline per row == the serialized byte
        # count (rows are proven canonical ASCII).  Sizing runs
        # *outside* the DFS-wide lock — an O(subset) pass must not
        # stall concurrent service workers — against state that cannot
        # rot: we hold the dataset (ids stay unambiguous), and the
        # preconditions are re-checked before anything is created.
        memo = dataset._size_memo
        if memo is not None:
            total_bytes = sum(map(memo.__getitem__, map(id, rows)))
        else:
            total_bytes = serialized_rows_size(rows)
        total_bytes += len(rows)
        rows = tuple(rows)
        with self._lock:
            if subset_of_current_dataset() is not dataset:
                return None  # source changed meanwhile: serialize path
            if overwrite and self.namenode.exists(path):
                self.delete(path)
            inode = self.namenode.create(path, self.replication)
            payload = LazyPayload(lambda: self._render_rows(rows))
            self._append_blocks(inode, payload, total_bytes)
            inode.datasets[fingerprint] = TypedDataset(
                rows,
                fingerprint,
                inode.generation,
                exact=True,
                ascii_sized=True,
            )
            return self.namenode.stat(path)

    def _render_rows(self, rows) -> bytes:
        self.serializations += 1
        return serialize_rows(rows).encode()

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
                or src.payload is None
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
            payload, total_bytes = src.payload, src.size
            if overwrite and self.namenode.exists(path):
                self.delete(path)
            inode = self.namenode.create(path, self.replication)
            self._append_blocks(inode, payload, total_bytes)
            inode.datasets[fingerprint] = TypedDataset(
                src_rows,
                fingerprint,
                inode.generation,
                exact=True,
                ascii_sized=dataset.ascii_sized,
            )
            self.payload_clones += 1
            return self.namenode.stat(path)

    def _append_blocks(
        self,
        inode,
        payload: bytes | LazyPayload,
        total_bytes: Optional[int] = None,
    ) -> None:
        if total_bytes is None:
            total_bytes = len(payload)
        # a file written in one shot keeps its whole-file payload for
        # serialized-payload cloning; appends invalidate it
        fresh = not inode.block_ids and inode.size == 0
        block_size = self.block_size
        for offset in range(0, total_bytes, block_size):
            chunk_len = min(block_size, total_bytes - offset)
            block_id = self.namenode.new_block_id()
            # one immutable block shared by every replica; the chunk
            # bytes are a lazy view, materialized only if actually read
            block = Block.view(block_id, payload, offset, chunk_len)
            for node in self.placement.choose(self.datanodes, inode.replication):
                node.store_block(block)
                self.replica_bytes_written += block.size
            inode.block_ids.append(block_id)
            inode.size += block.size
        inode.payload = payload if fresh else None
        self.bytes_written += total_bytes

    # -- reads ----------------------------------------------------------------------

    def read_file(self, path: str) -> bytes:
        with self._lock:
            inode = self.namenode.lookup(path)
            chunks = []
            for block_id in inode.block_ids:
                node = self._locate(block_id)
                chunks.append(node.read_block(block_id))
            data = b"".join(chunks)
            # injection site "dfs.read": block-payload bit rot on the
            # read path (persistence reads through here on the "dfs"
            # backend, so this also corrupts snapshot/journal bytes)
            data = faults.fire("dfs.read", data=data)
            self.bytes_read += len(data)
            return data

    def read_range(self, path: str, start: int, end: int) -> bytes:
        """Read the byte range ``[start, end)`` of *path*.

        Only the blocks overlapping the range are touched — the tail
        view the incremental-recomputation layer uses to run a sub-plan
        over just the appended suffix of a grown input, without paying
        a full-file read.  Counters move for the blocks actually read.
        """
        with self._lock:
            inode = self.namenode.lookup(path)
            start = max(0, start)
            end = min(end, inode.size)
            if start >= end:
                return b""
            chunks = []
            offset = 0
            for block_id in inode.block_ids:
                node = self._locate(block_id)
                block = node.get_block(block_id)
                block_end = offset + block.size
                if block_end > start and offset < end:
                    data = node.read_block(block_id)
                    chunks.append(data[max(0, start - offset) : end - offset])
                offset = block_end
                if offset >= end:
                    break
            data = b"".join(chunks)
            self.bytes_read += len(data)
            return data

    def read_text(self, path: str) -> str:
        return self.read_file(path).decode()

    def read_rows(self, path: str, schema: Schema) -> Tuple[Row, ...]:
        """Read *path* as typed rows (the zero-copy read path).

        A pinned dataset with a matching schema fingerprint and a
        current generation is returned as-is — no bytes are
        materialized, no text is parsed, yet every read counter
        (logical and per-datanode) moves exactly as a text read would
        move it.  On a miss the text is parsed once and the result is
        pinned, so the next matching reader hits.  The returned tuple
        is shared: treat it as immutable.
        """
        fingerprint = schema.fingerprint()
        with self._lock:
            inode = self.namenode.lookup(path)
            dataset = inode.datasets.get(fingerprint)
            if dataset is not None and dataset.generation == inode.generation:
                self._charge_cached_read(inode)
                return dataset.rows
            chunks = []
            for block_id in inode.block_ids:
                node = self._locate(block_id)
                chunks.append(node.read_block(block_id))
            data = b"".join(chunks)
            self.bytes_read += len(data)
            generation = inode.generation
        # parse outside the lock: a cold read of a large file must not
        # stall every other worker sharing this filesystem
        rows = tuple(deserialize_rows(data.decode(), schema))
        with self._lock:
            # a parse is canonical with respect to its own text, so the
            # fill needs no round-trip check — but pin only if the file
            # is still the same inode at the same generation
            if self.namenode.exists(path):
                current = self.namenode.lookup(path)
                if current is inode and current.generation == generation:
                    inode.datasets[fingerprint] = TypedDataset(
                        rows, fingerprint, generation
                    )
        return rows

    def row_size_memo(self, path: str, schema: Schema) -> Tuple[dict, tuple]:
        """(id -> serialized width, keepalive rows) for *path*'s pinned
        dataset, or ``({}, ())`` when nothing is pinned.

        The batched plane's shuffle accounting looks rows up here
        instead of re-sizing them chunk by chunk.  The caller must
        hold the returned rows tuple for as long as it uses the memo:
        the ids stay unambiguous exactly because every member object
        is kept alive.
        """
        fingerprint = schema.fingerprint()
        with self._lock:
            if not self.namenode.exists(path):
                return {}, ()
            inode = self.namenode.lookup(path)
            dataset = inode.datasets.get(fingerprint)
            if dataset is None or dataset.generation != inode.generation:
                return {}, ()
        # build outside the DFS-wide lock: sizing a large dataset must
        # not stall concurrent service workers (same discipline as the
        # read_rows cold-parse).  A concurrent duplicate build is
        # benign — the memo is pure per-row data and the dataset
        # object itself keeps the rows (and so the ids) stable.
        return dataset.size_memo(), dataset.rows

    def _charge_cached_read(self, inode: INode) -> None:
        """Move read counters for a cache hit exactly like a text read."""
        for block_id in inode.block_ids:
            self._locate(block_id).charge_read(block_id)
        self.bytes_read += inode.size

    def read_lines(self, path: str) -> List[str]:
        text = self.read_text(path)
        return [line for line in text.splitlines() if line != ""]

    def _locate(self, block_id) -> DataNode:
        for node in self.datanodes:
            if node.has_block(block_id):
                return node
        raise FileNotFoundInDFS(f"no replica found for {block_id}")

    # -- namespace ---------------------------------------------------------------------

    def exists(self, path: str) -> bool:
        return self.namenode.exists(path)

    def delete(self, path: str) -> None:
        with self._lock:
            inode = self.namenode.remove(path)
            for block_id in inode.block_ids:
                for node in self.datanodes:
                    node.delete_block(block_id)

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
        lazy payload into serializing (callers treat None as "cannot
        verify" and classify conservatively).
        """
        with self._lock:
            if not self.namenode.exists(path):
                return None
            inode = self.namenode.lookup(path)
            end = inode.size if size is None else min(size, inode.size)
            crc = 0
            offset = 0
            for block_id in inode.block_ids:
                if offset >= end:
                    break
                node = self._locate(block_id)
                block = node.get_block(block_id)
                if not block.bytes_available:
                    return None
                crc = zlib.crc32(block.data[: end - offset], crc)
                offset += block.size
            return crc

    def list_paths(self, prefix: str = "") -> List[str]:
        return self.namenode.list_paths(prefix)

    # -- failure handling -------------------------------------------------------------------

    def kill_datanode(self, node_id: int) -> "DataNode":
        """Simulate a datanode crash: its replicas vanish.

        Files stay readable as long as any replica of every block
        survives elsewhere (the point of 3-way replication).  Call
        :meth:`rereplicate` afterwards to restore the replication
        factor, as HDFS's NameNode would.
        """
        for index, node in enumerate(self.datanodes):
            if node.node_id == node_id:
                if len(self.datanodes) == 1:
                    raise DFSError("cannot kill the last datanode")
                return self.datanodes.pop(index)
        raise DFSError(f"no such datanode: {node_id}")

    def under_replicated_blocks(self) -> List[tuple]:
        """(path, block_id, live_replicas) for blocks below target."""
        out = []
        for path in self.namenode.list_paths():
            inode = self.namenode.lookup(path)
            for block_id in inode.block_ids:
                live = sum(1 for node in self.datanodes if node.has_block(block_id))
                if live < min(inode.replication, len(self.datanodes)):
                    out.append((path, block_id, live))
        return out

    def rereplicate(self) -> int:
        """Restore the replication factor of under-replicated blocks.

        Copies each surviving replica onto nodes that lack it; returns
        the number of new replicas created.  Raises if a block lost
        every replica (data loss — exactly what replication bounds).
        """
        created = 0
        for path, block_id, live in self.under_replicated_blocks():
            holders = [n for n in self.datanodes if n.has_block(block_id)]
            if not holders:
                raise DFSError(f"data loss: no replica left for {block_id} of {path}")
            # the copy reads one surviving replica (counted) and then
            # shares the same immutable Block object — no byte copies
            block = holders[0].get_block(block_id)
            holders[0].charge_read(block_id)
            inode = self.namenode.lookup(path)
            target_count = min(inode.replication, len(self.datanodes))
            for node in self.datanodes:
                if live >= target_count:
                    break
                if not node.has_block(block_id):
                    node.store_block(block)
                    self.replica_bytes_written += block.size
                    live += 1
                    created += 1
        return created

    # -- capacity --------------------------------------------------------------------------

    @property
    def total_used_bytes(self) -> int:
        """Physical bytes used across all datanodes (incl. replicas)."""
        return sum(node.used_bytes for node in self.datanodes)

    def n_blocks(self, path: str) -> int:
        return self.namenode.stat(path).block_count

    def __repr__(self) -> str:
        return (
            f"DistributedFileSystem(files={self.namenode.file_count}, "
            f"nodes={len(self.datanodes)}, used={self.total_used_bytes})"
        )
