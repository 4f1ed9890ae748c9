"""NameNode: the DFS namespace (paths -> inodes holding the payload).

Modification times use a logical clock (monotone counter) rather than
wall time so tests and experiments are deterministic; ReStore's
eviction Rule 4 ("evict if an input was modified") compares these
logical mtimes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.dfs.dataset import TypedDataset
from repro.exceptions import FileAlreadyExists, FileNotFoundInDFS


class LazyPayload:
    """A payload segment that is built on first byte access.

    The zero-copy write path knows a file's exact byte size without
    serializing it (``canonical_ascii_size``); the text itself is
    only ever needed if something genuinely reads bytes.  Files cloned
    from one another share a single LazyPayload, so the text is built
    at most once no matter which copy is read first.
    """

    __slots__ = ("_build", "_data", "_size")

    def __init__(self, build: Callable[[], bytes], size: int):
        self._build: Optional[Callable[[], bytes]] = build
        self._data: Optional[bytes] = None
        self._size = size

    def __len__(self) -> int:
        return self._size

    def get(self) -> bytes:
        if self._data is None:
            self._data = self._build()
            self._build = None
        return self._data

    @property
    def materialized(self) -> bool:
        return self._data is not None


Segment = Union[bytes, LazyPayload]


@dataclass
class INode:
    """One file: its metadata and its payload."""

    path: str
    #: the file's bytes in order, one segment per write/append; a
    #: file written in one shot has exactly one, which copy-style
    #: stores whose input rows are provably this file's unchanged
    #: pinned dataset share instead of re-serializing
    segments: List[Segment] = field(default_factory=list)
    size: int = 0
    mtime: int = 0
    #: logical-clock tick at which this inode was created.  The clock
    #: only moves forward and every create draws a fresh tick, so a
    #: deleted-and-recreated path can never alias its predecessor:
    #: identical (path, size, generation) still differ in ``birth``.
    birth: int = 0
    #: bumped on every mutation (append/delete/rename); pinned typed
    #: datasets record the generation they were built at and become
    #: invisible the moment it moves
    generation: int = 0
    #: schema fingerprint -> typed rows parsed from / written as this
    #: file's bytes (the zero-copy data plane's cache)
    datasets: Dict[tuple, TypedDataset] = field(default_factory=dict)
    #: what appends have left of ``datasets``: each the parse of the
    #: file's first ``covers`` bytes, which a reader extends by parsing
    #: only the bytes after them (any other mutation drops these too)
    prefixes: Dict[tuple, TypedDataset] = field(default_factory=dict)
    #: crc32 of the file up to the end of each leading segment
    #: :meth:`prefix_crc32` has walked in full
    _crcs: List[int] = field(default_factory=list, repr=False)

    def invalidate_datasets(self, appended: bool = False) -> None:
        self.generation += 1
        if appended:
            self.prefixes.update(
                (fp, ds) for fp, ds in self.datasets.items() if ds.covers is not None
            )
        else:
            self.prefixes.clear()
        self.datasets.clear()

    def read(self, start: int = 0, end: Optional[int] = None) -> bytes:
        """The bytes ``[start, end)`` of the file (all of it by
        default), building only the lazy segments the range overlaps."""
        end = self.size if end is None else min(end, self.size)
        if start >= end:
            return b""
        chunks = []
        offset = 0
        for segment in self.segments:
            if offset >= end:
                break
            segment_end = offset + len(segment)
            if segment_end > start:
                data = segment.get() if isinstance(segment, LazyPayload) else segment
                # a slice covering all of ``data`` is ``data`` itself
                chunks.append(data[max(0, start - offset) : end - offset])
            offset = segment_end
        return b"".join(chunks)

    def prefix_crc32(self, size: Optional[int] = None) -> Optional[int]:
        """crc32 of the first *size* bytes (all of them by default),
        or None when that would force a still-deferred lazy segment
        into serializing.  Segments are append-only, so the running
        crc at each segment end is kept and a byte is fed in once."""
        end = self.size if size is None else min(size, self.size)
        crc = 0
        offset = 0
        for index, segment in enumerate(self.segments):
            if offset >= end:
                break
            whole = offset + len(segment) <= end
            if whole and index < len(self._crcs):
                crc = self._crcs[index]
            else:
                if isinstance(segment, LazyPayload):
                    # an empty write holds no byte to defer
                    if segment and not segment.materialized:
                        return None
                    segment = segment.get() if segment else b""
                crc = zlib.crc32(segment[: end - offset], crc)
                if whole and index == len(self._crcs):
                    self._crcs.append(crc)
            offset += len(segment)
        return crc


@dataclass(frozen=True)
class FileStatus:
    """Immutable snapshot of file metadata returned by ``stat``."""

    path: str
    size: int
    mtime: int


@dataclass(frozen=True)
class InputExtent:
    """The identity-and-length fingerprint of one input file.

    Recorded per source dataset when a repository entry registers and
    compared against the live inode at match time (see
    :mod:`repro.core.freshness`): ``birth`` pins the inode identity
    (delete-and-recreate always changes it, because creates draw fresh
    logical-clock ticks), ``size`` detects growth, and the pair
    classifies an input as fresh / appended / rewritten exactly —
    appends are the only in-place mutation the DFS offers, so same
    birth plus same size means byte-identical content.

    ``crc`` is the crc32 of the first ``size`` bytes, recorded when
    available.  Logical clocks are process-local, so ``birth`` cannot
    identify an inode across a persistence restart — a recovered entry
    always sees a foreign birth for a re-materialized input.  The
    checksum is the portable half of the identity: a birth mismatch
    with a matching prefix crc proves the recorded bytes are still an
    exact prefix (fresh or appended); None means "cannot verify" and
    classifies the mismatch as rewritten.
    """

    mtime: int
    generation: int
    birth: int
    size: int
    crc: Optional[int] = None

    def to_list(self) -> list:
        """Compact JSON form (column order is part of the codec)."""
        return [self.mtime, self.generation, self.birth, self.size, self.crc]

    @classmethod
    def from_list(cls, data) -> "InputExtent":
        mtime, generation, birth, size = data[:4]
        crc = data[4] if len(data) > 4 else None
        return cls(
            mtime=int(mtime),
            generation=int(generation),
            birth=int(birth),
            size=int(size),
            crc=None if crc is None else int(crc),
        )


class NameNode:
    """Flat-namespace metadata server (paths are plain strings)."""

    def __init__(self):
        self._inodes: Dict[str, INode] = {}
        self._clock = 0

    # -- clock -----------------------------------------------------------

    def tick(self) -> int:
        self._clock += 1
        return self._clock

    @property
    def clock(self) -> int:
        return self._clock

    # -- namespace operations ----------------------------------------------------

    def exists(self, path: str) -> bool:
        return path in self._inodes

    def create(self, path: str) -> INode:
        if path in self._inodes:
            raise FileAlreadyExists(f"path already exists: {path}")
        tick = self.tick()
        inode = INode(path=path, mtime=tick, birth=tick)
        self._inodes[path] = inode
        return inode

    def lookup(self, path: str) -> INode:
        try:
            return self._inodes[path]
        except KeyError:
            raise FileNotFoundInDFS(f"no such file: {path}") from None

    def remove(self, path: str) -> INode:
        inode = self.lookup(path)
        del self._inodes[path]
        inode.invalidate_datasets()
        self.tick()
        return inode

    def rename(self, src: str, dst: str) -> None:
        if dst in self._inodes:
            raise FileAlreadyExists(f"rename target exists: {dst}")
        inode = self.lookup(src)
        del self._inodes[src]
        inode.path = dst
        inode.mtime = self.tick()
        inode.invalidate_datasets()
        self._inodes[dst] = inode

    def touch(self, path: str) -> None:
        self.lookup(path).mtime = self.tick()

    def stat(self, path: str) -> FileStatus:
        inode = self.lookup(path)
        return FileStatus(path=inode.path, size=inode.size, mtime=inode.mtime)

    def list_paths(self, prefix: str = "") -> List[str]:
        return sorted(p for p in self._inodes if p.startswith(prefix))

    @property
    def file_count(self) -> int:
        return len(self._inodes)
