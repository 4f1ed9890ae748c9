"""The framed append-only log: one frame format, one scan, one repair.

Everything the persistence layer appends — journal records, block-store
payload segments — is a sequence of frames::

    body length u32 | crc32(body) u32 | body

Appends never rewrite earlier bytes, so a crash mid-append can only
tear the *tail*.  :func:`scan_frames` makes the three-way decision
every reader of such a file needs, and never raises:

* an incomplete header or a body shorter than its declared length is a
  **torn tail** — the scan stops at the last intact frame;
* a frame whose checksum (or body decoder) fails while another intact
  frame starts exactly where it ends is **bit rot**, not a tear: that
  one frame is quarantined (counted in ``skipped``) and the scan
  resyncs, so a flipped byte can never erase the intact suffix;
* the same failure with no intact continuation is again a torn tail.

Everything before ``clean_bytes`` is intact, so recovery replays the
clean prefix and :meth:`FramedLog.repair` truncates the tear in place
instead of guessing at it.  What a body *means* is the caller's codec:
:mod:`repro.persistence.journal` (JSON records) and
:mod:`repro.persistence.blockstore` (path + payload segments) are the
two in this tree.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faults import injector as faults
from repro.faults.injector import PartialWriteFault

#: body length, crc32(body)
_FRAME = struct.Struct(">II")
#: a codec's reader: checksum-valid body → decoded value, or ``None``
#: for checksummed garbage (a torn rewrite)
BodyDecoder = Callable[[bytes], Optional[Any]]


def encode_frame(body: bytes) -> bytes:
    """Frame one body (length-prefixed + checksummed)."""
    return _FRAME.pack(len(body), zlib.crc32(body)) + body


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

    ``frames`` maps frame offset → ``(frame length, decoded body)`` for
    every intact frame, in file order; ``clean_bytes`` is the longest
    prefix of intact frames, and anything past it is a torn tail from a
    crash mid-append.
    """

    frames: Dict[int, Tuple[int, Any]] = field(default_factory=dict)
    clean_bytes: int = 0
    total_bytes: int = 0
    #: mid-file frames skipped over a checksum/decode failure (bit rot
    #: with an intact continuation, not a tear)
    skipped: int = 0

    @property
    def records(self) -> List[Any]:
        """The decoded bodies, in file order."""
        return [body for _, body in self.frames.values()]

    @property
    def torn(self) -> bool:
        return self.clean_bytes < self.total_bytes

    @property
    def torn_bytes(self) -> int:
        return self.total_bytes - self.clean_bytes


def scan_frames(data: bytes, decode_body: BodyDecoder) -> FrameScan:
    """Decode every intact frame; stop (never raise) at a torn tail.
    A body *decode_body* rejects is handled like a checksum failure."""
    scan = FrameScan(total_bytes=len(data))
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < _FRAME.size:
            break  # torn frame header
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > total:
            break  # torn body
        body = data[start:end]
        decoded = decode_body(body) if zlib.crc32(body) == crc else None
        if decoded is None:
            if end < total and _frame_intact(data, end):
                scan.skipped += 1
                offset = end  # quarantine the rotten frame, resync
                continue
            break  # no valid continuation: a genuine torn tail
        scan.frames[offset] = (end - offset, decoded)
        offset = end
    scan.clean_bytes = offset
    return scan


class FramedLog:
    """An append-only framed log over one storage backend (local file
    or simulated-DFS file).

    *site* names the fault-injection sites (``<site>.append`` /
    ``<site>.read``); *decode_body* is the body codec's reader.
    """

    def __init__(self, storage, site: str, decode_body: BodyDecoder) -> None:
        self.storage = storage
        self.site = site
        self._decode_body = decode_body
        #: where a failed append began: its debris is cut before the
        #: next one, so a retry never sits behind an unscannable tear
        self._torn_at: Optional[int] = None

    @property
    def location(self) -> str:
        return self.storage.location

    def tail(self) -> int:
        """Offset of the next append (a failed append's debris is cut first)."""
        if self._torn_at is not None:
            self.storage.truncate(self._torn_at)
            self._torn_at = None
        return self.storage.size()

    def append_frames(self, data: bytes) -> int:
        """Append already-framed *data* in one storage write; returns
        the bytes that reached the medium.

        Injection site ``<site>.append``: an ``OSError`` here is what
        trips the persister's circuit breaker; a ``partial`` rule lands
        its prefix first, leaving a genuinely torn tail for the next
        append (or, after a crash, the next scan) to truncate;
        ``suppress`` models a lost write (the caller is told nothing
        failed, nothing hit the medium).
        """
        if not data:
            return 0
        start = self.tail()
        try:
            try:
                data = faults.fire(f"{self.site}.append", data=data)
            except PartialWriteFault as fault:
                if fault.prefix:
                    self.storage.append(fault.prefix)
                raise
            if data:
                self.storage.append(data)
        except OSError:
            self._torn_at = start
            raise
        return len(data) if data else 0

    def scan(self) -> FrameScan:
        data = self.storage.read() if self.storage.exists() else b""
        # injection site "<site>.read": bit rot on the read-back path
        # (exercises frame quarantine / torn-tail truncation)
        data = faults.fire(f"{self.site}.read", data=data)
        return scan_frames(data, self._decode_body)

    def repair(self, scan: Optional[FrameScan] = None) -> int:
        """Truncate a torn tail in place; returns the bytes dropped."""
        if scan is None:
            scan = self.scan()
        if scan.torn:
            self.storage.truncate(scan.clean_bytes)
        return scan.torn_bytes

    def reset(self) -> None:
        """Empty the log (a new epoch: everything in it was folded
        elsewhere, or is debris from an aborted writer)."""
        self.storage.truncate(0)

    def size(self) -> int:
        return self.storage.size()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.location!r}, bytes={self.size()})"
