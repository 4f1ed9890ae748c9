"""The append-only payload block store: path + payload bodies in a
framed log.

The snapshot + journal subsystem makes repository metadata
crash-safe; the bytes a matched entry actually *serves* — its DFS
output file — live in the in-memory DFS.  This module persists those
payloads natively, so a recovered entry is never served unless its
output bytes are durable and intact.

One block-store *generation* is a single framed log
(:mod:`repro.persistence.framedlog` owns the frame format and the
torn-tail / bit-rot scan discipline) of segments whose body is::

    path length u16 | path utf8 | payload bytes

A :class:`SegmentRef` names one stored payload: ``(gen, offset,
length, crc)``, where ``offset``/``length`` frame the segment inside
generation ``gen``'s file and ``crc`` is the crc32 of the *payload
bytes themselves*, recorded by the persister before the write.  That
second checksum is deliberate: the frame CRC proves the segment is
internally consistent, the ref CRC proves it still holds the bytes
the repository thinks it does — catching substitution, length drift,
and corruption injected between read and write.  Refs travel through
``payload_stored`` journal records and the snapshot's ``payloads``
table; :func:`verify_ref` is the scrub's single integrity check.

Snapshot rotation carries live refs by reference; a compaction copies
live payloads into generation ``gen+1`` and deletes old files only after
snapshot + journal reset committed, so every crash window leaves all
referenced generations on disk (``RepositoryPersister.take_snapshot``).
"""

from __future__ import annotations

import struct
import threading
import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import ReproError
from repro.persistence.framedlog import (
    FramedLog,
    FrameScan,
    encode_frame,
    scan_frames,
)

#: path length (the body's leading field)
_PATH_LEN = struct.Struct(">H")


class BlockStoreError(ReproError):
    """A block-store segment could not be encoded or decoded."""


@dataclass(frozen=True)
class SegmentRef:
    """One stored payload's durable address + content checksum."""

    gen: int
    offset: int
    length: int
    crc: int

    def to_list(self) -> List[int]:
        return [self.gen, self.offset, self.length, self.crc]

    @classmethod
    def from_list(cls, raw: Sequence[int]) -> "SegmentRef":
        if len(raw) != 4:
            raise BlockStoreError(f"malformed segment ref: {raw!r}")
        return cls(int(raw[0]), int(raw[1]), int(raw[2]), int(raw[3]))


def encode_segment(path: str, data: bytes) -> bytes:
    """Frame one payload segment."""
    encoded_path = path.encode()
    if len(encoded_path) > 0xFFFF:
        raise BlockStoreError(f"path too long for a segment header: {path!r}")
    return encode_frame(_PATH_LEN.pack(len(encoded_path)) + encoded_path + data)


def _decode_body(body: bytes) -> Optional[Tuple[str, bytes]]:
    if len(body) < _PATH_LEN.size:
        return None
    (path_len,) = _PATH_LEN.unpack_from(body)
    start = _PATH_LEN.size
    if start + path_len > len(body):
        return None
    try:
        path = body[start : start + path_len].decode()
    except UnicodeDecodeError:
        return None
    return path, body[start + path_len :]


def decode_blockstore(data: bytes) -> FrameScan:
    """Scan one generation's bytes; ``scan.frames`` maps segment offset
    → ``(frame length, (path, payload))``."""
    return scan_frames(data, _decode_body)


def verify_ref(scan: FrameScan, ref: SegmentRef, path: str) -> Optional[bytes]:
    """The scrub's integrity check: the payload bytes *ref* promises,
    or ``None`` when the segment is missing (torn away, never written),
    fails its checksum, drifted in length, or frames another path."""
    found = scan.frames.get(ref.offset)
    if found is None:
        return None
    length, (stored_path, payload) = found
    if length != ref.length or stored_path != path:
        return None
    if zlib.crc32(payload) != ref.crc:
        return None
    return payload


class BlockStore(FramedLog):
    """The segment log of one generation over one storage backend
    (fault sites ``blockstore.append`` / ``blockstore.read``)."""

    def __init__(self, storage, gen: int = 0) -> None:
        super().__init__(storage, "blockstore", _decode_body)
        self.gen = gen
        #: serializes offset reservation + append so concurrent
        #: writers can never interleave their frames
        self._lock = threading.Lock()

    def append_segments(
        self, segments: Sequence[Tuple[str, bytes]]
    ) -> List[SegmentRef]:
        """Durably append ``(path, payload)`` *segments* in one storage
        write (one fsync); returns their refs in order.  Under a
        ``suppress`` rule (a lying disk) the refs are handed out although
        nothing was written: what the recovery scrub exists to catch."""
        frames = [encode_segment(path, data) for path, data in segments]
        with self._lock:
            offset = self.tail()
            self.append_frames(b"".join(frames))
        refs = []
        for (_, data), frame in zip(segments, frames):
            refs.append(SegmentRef(self.gen, offset, len(frame), zlib.crc32(data)))
            offset += len(frame)
        return refs

    def __repr__(self) -> str:
        return f"BlockStore({self.location!r}, gen={self.gen}, bytes={self.size()})"

