"""The framed log's torn-write contract, stated once for every body kind.

A crash can tear an append at *any* byte and a disk can rot one in
place; :mod:`repro.persistence.framedlog` decides what survives.
:class:`TornWriteSweep` is that decision as a suite over a
:class:`Codec`; it runs once per body kind by subclassing —
``test_journal_recovery.TestTornTail`` (records),
``test_blockstore.TestSegmentCodec`` (segments) and
``test_blockstore.TestCheckpointCodec`` (checkpoints), so the chaos
lanes that select those files keep running it.  The format pin below
holds the three kinds to their bytes: records and segments are as the
log wrote them before checkpoints joined it.
"""

from __future__ import annotations

import os
from typing import Callable, List, NamedTuple

import pytest

from repro.faults import injector as faults
from repro.faults.injector import PartialWriteFault
from repro.faults.plan import FaultPlan, FaultRule
from repro.persistence.framedlog import (
    FramedLog,
    FrameScan,
    LogError,
    encode_checkpoint,
    encode_frame,
    encode_record,
    encode_segment,
    scan_frames,
)
from repro.persistence.storage import LocalStorage


SEED = int(os.environ.get("CHAOS_SEED", "13"))


def inject(site: str, action: str, **rule) -> None:
    """Install a one-rule fault plan on the lane's seed."""
    rules = (FaultRule(site=site, action=action, **rule),)
    faults.install(FaultPlan(seed=SEED, rules=rules))


class Codec(NamedTuple):
    #: three encoded frames
    frames: List[bytes]
    decode: Callable[[bytes], FrameScan]
    open: Callable[[LocalStorage], FramedLog]
    #: one more clean append through the codec's own writer
    append_one: Callable[[FramedLog], object]


RECORDS = [
    {"type": "kept_path_added", "path": "tmp/s1/sj1"},
    {"type": "kept_path_added", "path": "tmp/s1/sj2"},
    {"type": "counters", "next_script_id": 5, "next_subjob_id": 9},
]
SEGMENTS = [
    ("tmp/s1/sj1", b"payload-one"),
    ("tmp/s1/sj2", b"payload-two-longer"),
    ("tmp/s2/sj7", b"p3"),
]
JOURNAL = Codec(
    [encode_record(r) for r in RECORDS],
    scan_frames,
    FramedLog,
    lambda log: log.append_commit([{"type": "kept_path_removed", "path": "x"}]),
)
BLOCKS = Codec(
    [encode_segment(path, data) for path, data in SEGMENTS],
    scan_frames,
    FramedLog,
    lambda log: log.append_commit(
        [{"path": "tmp/s9/sj9", "data": b"fresh"}], segments_only=True
    ),
)
CHECKPOINTS_STATE = [{"clock": n, "kept_paths": [f"tmp/s{n}/sj1"]} for n in (1, 2, 3)]
CHECKPOINTS = Codec(
    [encode_checkpoint(state) for state in CHECKPOINTS_STATE],
    scan_frames,
    FramedLog,
    lambda log: log.append_frames(encode_checkpoint({"clock": 9})),
)


class TornWriteSweep:
    """Subclass with a ``codec`` (and bind the every-byte case under
    the codec's own noun) to run the suite."""

    codec: Codec

    def pytest_generate_tests(self, metafunc):
        if "cut" in metafunc.fixturenames:
            metafunc.parametrize("cut", range(len(self.codec.frames[-1])))

    def every_byte_boundary_of_last_frame(self, cut):
        """Tear the last frame at byte *cut*: the two intact frames
        always survive; the tail is torn except at cut == 0 (a clean
        boundary, nothing lost)."""
        first, second, last = self.codec.frames
        scan = self.codec.decode(first + second + last[:cut])
        assert list(scan.frames) == [0, len(first)]
        assert scan.clean_bytes == len(first) + len(second)
        assert scan.torn == (cut > 0)
        assert scan.torn_bytes == cut

    def test_corrupted_checksum_stops_scan(self):
        data = bytearray(b"".join(self.codec.frames))
        data[-2] ^= 0xFF  # flip a bit inside the last body
        scan = self.codec.decode(bytes(data))
        assert len(scan.frames) == 2
        assert scan.torn and scan.skipped == 0

    def test_bit_rot_mid_file_is_quarantined_not_torn(self):
        first, second, last = self.codec.frames
        data = bytearray(first + second + last)
        data[len(first) + 12] ^= 0xFF  # inside the middle body
        scan = self.codec.decode(bytes(data))
        assert scan.skipped == 1
        assert not scan.torn  # an intact frame followed: resync, no tear
        decode = self.codec.decode
        assert scan.records == decode(first).records + decode(last).records
        assert scan.checkpoint == decode(last).checkpoint

    def test_torn_middle_censors_the_rest(self):
        # appends never rewrite earlier bytes, so a tear can only be at
        # the tail — but if bytes *were* lost mid-file, everything
        # after the damage must be dropped, never resynchronized
        first, second, last = self.codec.frames
        scan = self.codec.decode(first + second[:-3] + last)
        assert list(scan.frames) == [0]
        assert scan.clean_bytes == len(first)

    def test_repair_truncates_in_place(self, tmp_path):
        path = tmp_path / "log"
        path.write_bytes(b"".join(self.codec.frames) + self.codec.frames[-1][:7])
        log = self.codec.open(LocalStorage(str(path)))
        assert log.repair() == 7
        rescan = log.scan()
        assert not rescan.torn
        assert len(rescan.frames) == 3
        # the repaired log appends cleanly at the frame boundary
        self.codec.append_one(log)
        assert len(log.scan().frames) == 4

    @pytest.mark.parametrize("landed", [0, 7])
    def test_partial_append_lands_prefix_then_raises(self, tmp_path, landed):
        log = self.codec.open(LocalStorage(str(tmp_path / "log")))
        inject("journal.append", "partial", arg=landed)
        with pytest.raises(PartialWriteFault):
            self.codec.append_one(log)
        faults.uninstall()
        assert log.storage.size() == landed  # exactly the torn prefix landed
        scan = log.scan()
        assert scan.torn_bytes == landed and not scan.frames
        log.repair(scan)
        self.codec.append_one(log)
        assert len(log.scan().frames) == 1

    def test_retry_after_a_failed_append_cuts_the_torn_prefix(self, tmp_path):
        """A live writer retries its batch with no scan in between: the
        debris of the failed attempt must not end up *inside* the log,
        where it would censor every later frame."""
        log = self.codec.open(LocalStorage(str(tmp_path / "log")))
        self.codec.append_one(log)
        clean = log.storage.size()
        inject("journal.append", "partial", arg=7)
        with pytest.raises(PartialWriteFault):
            self.codec.append_one(log)
        faults.uninstall()
        assert log.storage.size() == clean + 7
        self.codec.append_one(log)  # the retry
        self.codec.append_one(log)
        scan = log.scan()
        assert len(scan.frames) == 3 and not scan.torn and scan.skipped == 0
        assert log.storage.size() == 3 * clean


#: what ``encode_record`` / ``encode_segment`` write for RECORDS /
#: SEGMENTS: every body behind its kind tag (``R`` / ``S``), the
#: snapshot-format-6 log
PINNED_JOURNAL = bytes.fromhex(
    "0000002f986738db527b2270617468223a22746d702f73312f736a31222c2274"
    "797065223a226b6570745f706174685f6164646564227d0000002f9ab93ffc52"
    "7b2270617468223a22746d702f73312f736a32222c2274797065223a226b6570"
    "745f706174685f6164646564227d0000003a0c05ac5b527b226e6578745f7363"
    "726970745f6964223a352c226e6578745f7375626a6f625f6964223a392c2274"
    "797065223a22636f756e74657273227d"
)
PINNED_BLOCKS = bytes.fromhex(
    "00000018c202341253000a746d702f73312f736a317061796c6f61642d6f6e65"
    "0000001f4327d31d53000a746d702f73312f736a327061796c6f61642d74776f"
    "2d6c6f6e6765720000000fd59eb1b253000a746d702f73322f736a377033"
)
#: ``encode_checkpoint(CHECKPOINTS_STATE[0])``: key-sorted JSON behind ``C``
PINNED_CHECKPOINT = bytes.fromhex(
    "00000028f88044ed437b22636c6f636b223a312c226b6570745f706174687322"
    "3a5b22746d702f73312f736a31225d7d"
)


def test_on_disk_format_is_pinned():
    assert b"".join(JOURNAL.frames) == PINNED_JOURNAL
    assert b"".join(BLOCKS.frames) == PINNED_BLOCKS
    journal = scan_frames(PINNED_JOURNAL)
    assert [{"type": r.type, **r.data} for r in journal.records] == RECORDS
    assert not journal.torn and journal.skipped == 0
    blocks = scan_frames(PINNED_BLOCKS)
    assert blocks.frames == {
        0: (32, SEGMENTS[0]),
        32: (39, SEGMENTS[1]),
        71: (23, SEGMENTS[2]),
    }
    assert not blocks.torn and blocks.skipped == 0
    assert CHECKPOINTS.frames[0] == PINNED_CHECKPOINT
    assert scan_frames(PINNED_CHECKPOINT).checkpoint == CHECKPOINTS_STATE[0]


def test_only_the_last_checkpoint_and_the_records_after_it_are_parsed():
    """Records before the last checkpoint are folded into it: the scan
    checks their checksums but hands back (and parses) only what
    follows; a checksum-valid frame that is not JSON is no writer's."""
    before, after = (encode_record(record) for record in RECORDS[:2])
    first, last = CHECKPOINTS.frames[0], CHECKPOINTS.frames[1]
    scan = scan_frames(before + first + after + last)
    assert scan.checkpoint == CHECKPOINTS_STATE[1] and scan.records == []
    scan = scan_frames(before + first + after)
    assert scan.checkpoint == CHECKPOINTS_STATE[0]
    assert [r.data["path"] for r in scan.records] == [RECORDS[1]["path"]]
    assert len(scan.frames) == 3 and not scan.torn
    garbage = encode_frame(b"R{not json")
    with pytest.raises(LogError, match="offset"):
        scan_frames(first + garbage)
    # before the last checkpoint it is never parsed
    assert scan_frames(garbage + first).checkpoint == CHECKPOINTS_STATE[0]
