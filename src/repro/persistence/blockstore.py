"""The append-only payload block store.

The snapshot + journal subsystem makes repository metadata
crash-safe; the bytes a matched entry actually *serves* — its DFS
output file — live in the in-memory DFS.  This module persists those
payloads natively, with exactly the journal's torn-tail discipline,
so a recovered entry is never served unless its output bytes are
durable and intact.

One block-store *generation* is a single append-only file of framed
segments::

    body length u32 | crc32(body) u32 | body
    body = path length u16 | path utf8 | payload bytes

Appends never rewrite earlier bytes, so a crash mid-append tears only
the tail: :meth:`BlockStore.scan` stops at the last intact frame,
:meth:`BlockStore.repair` truncates the tear in place, and a
checksummed-but-rotten segment mid-file is quarantined (skipped) when
an intact frame follows — the same three-way decision
:mod:`repro.persistence.journal` makes.

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

Snapshot rotation compacts live payloads into generation ``gen+1``
and deletes the old file only after the snapshot + journal reset
committed, so every crash window leaves all referenced generations on
disk (see ``RepositoryPersister.take_snapshot``).
"""

from __future__ import annotations

import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ReproError
from repro.faults import injector as faults
from repro.faults.injector import PartialWriteFault

#: segment body length, crc32(body)
_FRAME = struct.Struct(">II")
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
    """Frame one payload segment (length-prefixed + checksummed)."""
    encoded_path = path.encode()
    if len(encoded_path) > 0xFFFF:
        raise BlockStoreError(f"path too long for a segment header: {path!r}")
    body = _PATH_LEN.pack(len(encoded_path)) + encoded_path + data
    return _FRAME.pack(len(body), zlib.crc32(body)) + body


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


def _frame_intact(data: bytes, offset: int) -> bool:
    total = len(data)
    if total - offset < _FRAME.size:
        return False
    length, crc = _FRAME.unpack_from(data, offset)
    start = offset + _FRAME.size
    end = start + length
    return end <= total and zlib.crc32(data[start:end]) == crc


@dataclass
class BlockScan:
    """The result of decoding one generation's segment file.

    ``segments`` maps frame offset → ``(frame length, path, payload)``
    for every intact segment; ``clean_bytes`` is the longest prefix of
    intact frames, and anything past it is a torn tail from a crash
    mid-append.
    """

    segments: Dict[int, Tuple[int, str, bytes]] = field(default_factory=dict)
    clean_bytes: int = 0
    total_bytes: int = 0
    #: mid-file segments skipped over a CRC failure (bit rot with an
    #: intact continuation, not a tear)
    skipped: int = 0

    @property
    def torn(self) -> bool:
        return self.clean_bytes < self.total_bytes

    @property
    def torn_bytes(self) -> int:
        return self.total_bytes - self.clean_bytes


def decode_blockstore(data: bytes) -> BlockScan:
    """Decode every intact segment; stop (never raise) at a torn tail.

    The journal's scan discipline, applied to payloads: a checksum
    failure whose declared length lands on another intact frame is bit
    rot — quarantine the segment and resync; damage with no valid
    continuation is a torn tail and ends the scan.
    """
    scan = BlockScan(total_bytes=len(data))
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < _FRAME.size:
            break  # torn frame header
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > total:
            break  # torn payload
        body = data[start:end]
        decoded = None
        if zlib.crc32(body) == crc:
            decoded = _decode_body(body)
        if decoded is None:
            if end < total and _frame_intact(data, end):
                scan.skipped += 1
                offset = end  # quarantine the rotten segment, resync
                continue
            break  # no valid continuation: a genuine torn tail
        path, payload = decoded
        scan.segments[offset] = (end - offset, path, payload)
        offset = end
    scan.clean_bytes = offset
    return scan


def verify_ref(
    scan: BlockScan, ref: SegmentRef, path: str
) -> Optional[bytes]:
    """The scrub's integrity check: the payload bytes *ref* promises,
    or ``None`` when the segment is missing (torn away, never written),
    fails its checksum, drifted in length, or frames another path."""
    found = scan.segments.get(ref.offset)
    if found is None:
        return None
    length, stored_path, payload = found
    if length != ref.length or stored_path != path:
        return None
    if zlib.crc32(payload) != ref.crc:
        return None
    return payload


class BlockStore:
    """An append-only segment log of one generation over one storage
    backend (local file or simulated-DFS file)."""

    def __init__(self, storage, gen: int = 0) -> None:
        self.storage = storage
        self.gen = gen
        #: serializes offset reservation + append so concurrent
        #: captures (repository mutations vs kept-path commits) can
        #: never interleave their frames
        self._lock = threading.Lock()

    @property
    def location(self) -> str:
        return self.storage.location

    def append(self, path: str, data: bytes) -> SegmentRef:
        """Durably append one payload segment; returns its ref.

        Injection site ``blockstore.append``: a ``partial`` rule lands
        its prefix (a genuinely torn tail for the scrub to condemn and
        repair) before the failure surfaces; ``suppress`` models a
        lying disk — the ref is handed out but nothing was written,
        which is exactly what the recovery scrub exists to catch.
        """
        frame = encode_segment(path, data)
        with self._lock:
            offset = self.storage.size()
            try:
                written = faults.fire("blockstore.append", data=frame)
            except PartialWriteFault as fault:
                if fault.prefix:
                    self.storage.append(fault.prefix)
                raise
            if written is not None and len(written) > 0:
                self.storage.append(written)
        return SegmentRef(self.gen, offset, len(frame), zlib.crc32(data))

    def scan(self) -> BlockScan:
        data = self.storage.read() if self.storage.exists() else b""
        # injection site "blockstore.read": bit rot on the read-back
        # path (exercises segment quarantine / torn-tail truncation)
        data = faults.fire("blockstore.read", data=data)
        return decode_blockstore(data)

    def repair(self, scan: Optional[BlockScan] = None) -> int:
        """Truncate a torn tail in place; returns the bytes dropped."""
        if scan is None:
            scan = self.scan()
        if scan.torn:
            self.storage.truncate(scan.clean_bytes)
        return scan.torn_bytes

    def size(self) -> int:
        return self.storage.size()

    def __repr__(self) -> str:
        return f"BlockStore({self.location!r}, gen={self.gen}, bytes={self.size()})"


__all__ = [
    "BlockScan",
    "BlockStore",
    "BlockStoreError",
    "SegmentRef",
    "decode_blockstore",
    "encode_segment",
    "verify_ref",
]
