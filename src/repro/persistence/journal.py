"""The append-only mutation journal: JSON record bodies in a framed log.

Every repository mutation after the last snapshot lands here as one
frame of :mod:`repro.persistence.framedlog` (which owns the frame
format and the torn-tail / bit-rot scan discipline) whose body is a
compact, key-sorted JSON object.

Record bodies carry a ``type`` field; the types the persister writes
(``entry_added``, ``entry_removed``, ``entry_used``,
``kept_path_added``, ``kept_path_removed``, ``counters``) are applied
by :class:`repro.persistence.durability.ReplayTarget`.  Unknown types
are preserved by the scan and skipped by replay, so old readers
tolerate journals written by newer code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.persistence.framedlog import (
    FramedLog,
    FrameScan,
    encode_frame,
    scan_frames,
)


@dataclass(frozen=True)
class JournalRecord:
    """One decoded journal record: its ``type`` plus the remaining
    payload fields."""

    type: str
    data: dict = field(default_factory=dict)

    @classmethod
    def from_payload(cls, payload: Mapping) -> "JournalRecord":
        data = dict(payload)
        rtype = data.pop("type", "")
        return cls(type=rtype, data=data)


def encode_record(payload: Mapping) -> bytes:
    """Frame one record payload."""
    return encode_frame(
        json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
    )


def _decode_record(body: bytes) -> Optional[JournalRecord]:
    try:
        payload = json.loads(body.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None  # checksummed garbage: a torn rewrite
    if not isinstance(payload, dict):
        return None
    return JournalRecord.from_payload(payload)


def decode_journal(data: bytes) -> FrameScan:
    """Scan journal bytes; ``scan.records`` are the intact
    :class:`JournalRecord` s in order."""
    return scan_frames(data, _decode_record)


class Journal(FramedLog):
    """The record log over one storage backend (fault sites
    ``journal.append`` / ``journal.read``)."""

    def __init__(self, storage) -> None:
        super().__init__(storage, "journal", _decode_record)

    def append_payloads(self, payloads) -> int:
        """Append framed records for *payloads* in order; returns the
        bytes written (one storage append, so records from a single
        flush are contiguous)."""
        return self.append_frames(b"".join(map(encode_record, payloads)))
