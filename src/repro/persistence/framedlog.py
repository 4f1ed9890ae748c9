"""The repository's one durable log: frames, their three body kinds, one scan.

Everything the persister writes — the stored outputs' payload bytes,
the stored plans' bytes, the journal of repository mutations and the
checkpoints of the whole index — goes into one append-only log per
*generation* (``journal_path`` + ``.g<N>``), as frames::

    body length u32 | crc32(body) u32 | body

and every body starts with a one-byte kind tag:

* ``S`` — a **segment**: ``name length u16 | name utf8 | bytes``: a
  stored output's payload, named by its path, or a stored plan's JSON,
  named by its fingerprint.  A :class:`SegmentRef` names one: ``(gen,
  offset, length, crc)``, where ``crc`` is the crc32 of the bytes
  themselves, so :func:`verify_ref` catches substitution and length
  drift that a frame checksum alone cannot;
* ``R`` — mutation **records**: compact, key-sorted JSON objects with a
  ``type`` (:class:`JournalRecord`), one per line;
* ``C`` — a **checkpoint**: one compact JSON object holding the whole
  index as of a rotation (:func:`encode_checkpoint`).  Recovery restores
  the last intact checkpoint and replays only the records after it, so
  records before it are never parsed.

A commit is one :meth:`FramedLog.append_commit`: its segments first,
then one frame of all its records, whose refs point earlier in the
same write.  Appends never rewrite earlier bytes, so a crash can only
tear the *tail* and keeps a prefix of the commit: a surviving record
implies that its segments survived, and a commit's records land or
tear together.  :func:`scan_frames` makes the three-way decision every
reader needs:

* an incomplete header or a body shorter than its declared length is a
  **torn tail** — the scan stops at the last intact frame;
* a frame whose checksum (or body) fails while another intact frame
  starts exactly where it ends is **bit rot**, not a tear: that frame
  is quarantined (counted in ``skipped``) and the scan resyncs, so a
  flipped byte can never erase the intact suffix;
* the same failure with no intact continuation is again a torn tail.

Everything before ``clean_bytes`` is intact, so recovery replays the
clean prefix and :meth:`FramedLog.repair` cuts the tear in place.  A
checksum-valid record or checkpoint that is not JSON was written by no
writer of this format: the scan raises :class:`LogError` for it.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ReproError
from repro.faults import injector as faults
from repro.faults.injector import PartialWriteFault

#: body length, crc32(body)
_FRAME = struct.Struct(">II")
#: a segment body's name length (after the kind tag)
_PATH_LEN = struct.Struct(">H")
SEGMENT, RECORD, CHECKPOINT = b"S", b"R", b"C"


class LogError(ReproError):
    """A log frame or segment ref could not be encoded or decoded, or
    the state directory holds a layout this reader refuses."""


@dataclass(frozen=True)
class JournalRecord:
    """One decoded record: its ``type`` plus the remaining fields."""

    type: str
    data: dict = field(default_factory=dict)

    @classmethod
    def from_payload(cls, payload: Mapping) -> "JournalRecord":
        data = dict(payload)
        rtype = data.pop("type", "")
        return cls(type=rtype, data=data)


@dataclass(frozen=True)
class SegmentRef:
    """One segment's durable address + content checksum."""

    gen: int
    offset: int
    length: int
    crc: int

    def to_list(self) -> List[int]:
        return [self.gen, self.offset, self.length, self.crc]

    @classmethod
    def from_list(cls, raw: Sequence[int]) -> "SegmentRef":
        if len(raw) != 4:
            raise LogError(f"malformed segment ref: {raw!r}")
        return cls(int(raw[0]), int(raw[1]), int(raw[2]), int(raw[3]))


def encode_frame(body: bytes) -> bytes:
    """Frame one body (length-prefixed + checksummed)."""
    return _FRAME.pack(len(body), zlib.crc32(body)) + body


def encode_segment(path: str, data: bytes) -> bytes:
    """Frame one segment named *path*."""
    encoded_path = path.encode()
    if len(encoded_path) > 0xFFFF:
        raise LogError(f"path too long for a segment header: {path!r}")
    return encode_frame(
        SEGMENT + _PATH_LEN.pack(len(encoded_path)) + encoded_path + data
    )


def encode_json(payload) -> bytes:
    """Compact, key-sorted JSON: the form of every record, checkpoint
    and checkpoint row."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()


def encode_record(*payloads: Mapping) -> bytes:
    """Frame records, one per line of one frame: they land or tear
    together (compact JSON holds no newline)."""
    return encode_frame(RECORD + b"\n".join(map(encode_json, payloads)))


#: where a checkpoint's entry rows go: its keys sort ``clock`` (an int)
#: first and ``entries`` second, so this is the first match in the body
_NO_ENTRIES = b'"entries":[]'


def encode_checkpoint(state: Mapping, rows: Optional[Sequence[bytes]] = None) -> bytes:
    """Frame one checkpoint: the index *state* as one JSON object.  With
    *rows*, the state's ``entries`` are those rows, each already encoded
    by :func:`encode_json`, spliced into the body as they are: the same
    bytes as encoding a state that holds them."""
    if rows is None:
        return encode_frame(CHECKPOINT + encode_json(state))
    body = encode_json({**state, "entries": []})
    at = body.index(_NO_ENTRIES) + len(_NO_ENTRIES) - 1
    return encode_frame(CHECKPOINT + body[:at] + b",".join(rows) + body[at:])


def _decode_body(body: memoryview):
    """A segment's ``(path, payload view)``, a record or checkpoint
    body as it stands (parsed after the scan, only where needed), or
    ``None`` for a body no writer of this format produces."""
    kind = body[:1]
    if kind == SEGMENT and len(body) >= 1 + _PATH_LEN.size:
        end = 1 + _PATH_LEN.size + _PATH_LEN.unpack_from(body, 1)[0]
        try:
            path = str(body[1 + _PATH_LEN.size : end], "utf-8")
        except UnicodeDecodeError:
            return None
        return (path, body[end:]) if end <= len(body) else None
    return body if kind in (RECORD, CHECKPOINT) else None


def _parse(body: memoryview, offset: int) -> List[dict]:
    try:
        payloads = [json.loads(line) for line in bytes(body[1:]).split(b"\n")]
    except (UnicodeDecodeError, json.JSONDecodeError):
        payloads = None
    if payloads is None or not all(isinstance(p, dict) for p in payloads):
        raise LogError(f"the frame at offset {offset} holds no JSON objects")
    return payloads


def _frame_intact(data: bytes, offset: int) -> bool:
    """True when a complete, checksum-valid frame starts at *offset*."""
    total = len(data)
    if total - offset < _FRAME.size:
        return False
    length, crc = _FRAME.unpack_from(data, offset)
    start = offset + _FRAME.size
    end = start + length
    return end <= total and zlib.crc32(data[start:end]) == crc


@dataclass
class FrameScan:
    """The result of decoding a framed byte string.

    ``frames`` maps frame offset → ``(frame length, body)`` for every
    intact frame, in file order: a segment's body is its ``(path,
    payload view)``, a record or checkpoint frame's its raw bytes.
    ``clean_bytes`` is the longest prefix of intact frames, and anything
    past it is a torn tail from a crash mid-append.  ``checkpoint`` is
    the last intact checkpoint (``None``: there is none) and
    ``records`` the records after it, decoded, in order.
    """

    frames: Dict[int, Tuple[int, object]] = field(default_factory=dict)
    clean_bytes: int = 0
    total_bytes: int = 0
    #: mid-file frames skipped over a checksum/decode failure (bit rot
    #: with an intact continuation, not a tear)
    skipped: int = 0
    checkpoint: Optional[dict] = None
    records: List[JournalRecord] = field(default_factory=list)

    @property
    def torn(self) -> bool:
        return self.clean_bytes < self.total_bytes

    @property
    def torn_bytes(self) -> int:
        return self.total_bytes - self.clean_bytes


def scan_frames(data: bytes) -> FrameScan:
    """Decode every intact frame; stop at a torn tail.  Only the last
    checkpoint and the records after it are parsed."""
    scan = FrameScan(total_bytes=len(data))
    data = memoryview(data)  # bodies and payloads are views, not copies
    offset = 0
    total = len(data)
    last = 0  # where the last checkpoint starts (0: replay everything)
    while offset < total:
        if total - offset < _FRAME.size:
            break  # torn frame header
        length, crc = _FRAME.unpack_from(data, offset)
        body_at = offset + _FRAME.size
        end = body_at + length
        if end > total:
            break  # torn body
        body = data[body_at:end]
        decoded = _decode_body(body) if zlib.crc32(body) == crc else None
        if decoded is None:
            if end < total and _frame_intact(data, end):
                scan.skipped += 1
                offset = end  # quarantine the rotten frame, resync
                continue
            break  # no valid continuation: a genuine torn tail
        scan.frames[offset] = (end - offset, decoded)
        if body[:1] == CHECKPOINT:
            last = offset
        offset = end
    scan.clean_bytes = offset
    for at, (_, body) in scan.frames.items():
        if at < last or isinstance(body, tuple):
            continue
        payloads = _parse(body, at)
        if body[:1] == CHECKPOINT:
            scan.checkpoint = payloads[0]
        else:
            scan.records.extend(map(JournalRecord.from_payload, payloads))
    return scan


def verify_ref(scan: FrameScan, ref: SegmentRef, path: str) -> Optional[memoryview]:
    """The scrub's integrity check: a view of the bytes *ref* promises,
    or ``None`` when the segment is missing (torn away, never written),
    fails its checksum, drifted in length, or frames another name."""
    length, body = scan.frames.get(ref.offset, (None, None))
    if length != ref.length or not isinstance(body, tuple) or body[0] != path:
        return None
    return body[1] if zlib.crc32(body[1]) == ref.crc else None


class FramedLog:
    """One generation of the log over one storage backend (local file
    or simulated-DFS file).  It tracks its tail in memory, so an append
    asks the storage nothing; fault sites ``journal.append`` /
    ``journal.read``."""

    def __init__(self, storage, gen: int = 0) -> None:
        self.storage = storage
        self.gen = gen
        self._tail = storage.size()
        #: where a failed append began: its debris is cut before the
        #: next one, so a retry never sits behind an unscannable tear
        self._torn_at: Optional[int] = None

    @property
    def location(self) -> str:
        return self.storage.location

    @property
    def end(self) -> int:
        """The end of the last committed append (never debris)."""
        return self._tail

    def tail(self) -> int:
        """Offset of the next append (a failed append's debris is cut first)."""
        if self._torn_at is not None:
            self.storage.truncate(self._torn_at)
            self._tail, self._torn_at = self._torn_at, None
        return self._tail

    def append_frames(self, data: bytes) -> int:
        """Append already-framed *data* in one storage write; returns
        the bytes that reached the medium.

        Injection site ``journal.append``: an ``OSError`` here is what
        trips the persister's circuit breaker; a ``partial`` rule lands
        its prefix first, leaving a genuinely torn tail for the next
        append (or, after a crash, the next scan) to cut; ``suppress``
        models a lost write (the caller is told nothing failed, nothing
        hit the medium).
        """
        if not data:
            return 0
        start = self.tail()
        try:
            try:
                data = faults.fire("journal.append", data=data)
            except PartialWriteFault as fault:
                if fault.prefix:
                    self.storage.append(fault.prefix)
                raise
            if data:
                self.storage.append(data)
        except OSError:
            self._torn_at = start
            raise
        written = len(data) if data else 0
        self._tail = start + written
        return written

    def encode_commit(
        self, records: Sequence[dict], *, segments_only: bool = False
    ) -> Tuple[bytes, List[Tuple[str, SegmentRef]]]:
        """The frames of one commit at the log's tail: a segment for
        every record that carries ``data`` (named by its ``path``), then
        every record (unless *segments_only*: a compaction's copies),
        the segment's ref in place of the bytes.  Returns ``(frames,
        (path, ref) per record that carried data, in order)``; *records*
        are not changed, so a failed commit is retried whole."""
        offset = self.tail()
        frames, refs, bodies = [], [], []
        for record in records:
            if "data" in record:
                path, data = record["path"], record["data"]
                frame = encode_segment(path, data)
                ref = SegmentRef(self.gen, offset, len(frame), zlib.crc32(data))
                frames.append(frame)
                offset += len(frame)
                refs.append((path, ref))
                record = {**record, "ref": ref.to_list()}
                del record["data"]
            bodies.append(record)
        if bodies and not segments_only:
            frames.append(encode_record(*bodies))
        return b"".join(frames), refs

    def append_commit(
        self, records: Sequence[dict], *, segments_only: bool = False
    ) -> Tuple[List[Tuple[str, SegmentRef]], int]:
        """Append :meth:`encode_commit`'s frames in one storage write
        (one fsync); returns ``((path, ref) per segment-carrying record,
        bytes written)``.  Under a ``suppress`` rule (a lying disk) the
        refs are handed out although nothing was written: what the
        recovery scrub catches."""
        data, refs = self.encode_commit(records, segments_only=segments_only)
        return refs, self.append_frames(data)

    def scan(self) -> FrameScan:
        data = self.storage.read() if self.storage.exists() else b""
        # injection site "journal.read": bit rot on the read-back path
        # (exercises frame quarantine / torn-tail truncation)
        data = faults.fire("journal.read", data=data)
        return scan_frames(data)

    def repair(self, scan: Optional[FrameScan] = None) -> int:
        """Truncate a torn tail in place; returns the bytes dropped."""
        if scan is None:
            scan = self.scan()
        if scan.torn:
            self.storage.truncate(scan.clean_bytes)
            self._tail = scan.clean_bytes
        return scan.torn_bytes

    def close(self) -> None:
        """Release the storage's held handle (reopened on the next append)."""
        self.storage.close()

    def __repr__(self) -> str:
        return f"FramedLog({self.location!r}, gen={self.gen}, bytes={self._tail})"
