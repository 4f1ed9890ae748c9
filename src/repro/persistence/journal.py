"""The append-only mutation journal: JSON record bodies in a framed log.

Every repository mutation after the last snapshot lands here as one
frame of :mod:`repro.persistence.framedlog` (which owns the frame
format and the torn-tail / bit-rot scan discipline) whose body is one
compact JSON object, key-sorted except for a stored plan: an entry
record's ``plan`` is the plan's own cached encoding
(:meth:`~repro.pig.physical.plan.PhysicalPlan.to_json`, the bytes a
snapshot's cold blob holds), spliced in as the entry's last key
instead of re-encoded.

Record bodies carry a ``type`` field.  The types the persister writes
(``entry_added``, ``entry_refreshed``, ``entry_removed``,
``entry_quarantined``, ``entry_used``, ``kept_path_added``,
``kept_path_removed``, ``payload_stored``, ``counters``) are applied
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


def _encode(payload: Mapping) -> bytes:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()


def encode_record(payload: Mapping) -> bytes:
    """Frame one record payload.  An entry record's ``plan`` holds the
    plan's own JSON bytes (:func:`repro.persistence.snapshot.entry_record`):
    they are spliced in as the entry's last key, not re-encoded."""
    entry = payload.get("entry")
    if entry is None:
        return encode_frame(_encode(payload))
    fields = _encode({key: value for key, value in entry.items() if key != "plan"})
    rest = _encode({key: value for key, value in payload.items() if key != "entry"})
    # {"entry":{<fields>,"plan":<plan>},<rest>}: "entry" sorts before "type"
    return encode_frame(
        b"".join(
            (b'{"entry":', fields[:-1], b',"plan":', entry["plan"], b"},", rest[1:])
        )
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
