"""The framed log's torn-write contract, stated once for every codec.

A crash can tear an append at *any* byte and a disk can rot one in
place; :mod:`repro.persistence.framedlog` decides what survives.
:class:`TornWriteSweep` is that decision as a suite over a
:class:`Codec`; it runs once per body codec by subclassing —
``test_journal_recovery.TestTornTail`` and
``test_blockstore.TestSegmentCodec``, so the chaos lanes that select
those files keep running it.  The format pin below holds both codecs
to the bytes the pre-``FramedLog`` encoders wrote.
"""

from __future__ import annotations

import os
from typing import Callable, List, NamedTuple

import pytest

from repro.faults import injector as faults
from repro.faults.injector import PartialWriteFault
from repro.faults.plan import FaultPlan, FaultRule
from repro.persistence.blockstore import (
    BlockStore,
    decode_blockstore,
    encode_segment,
)
from repro.persistence.framedlog import FramedLog, FrameScan
from repro.persistence.journal import Journal, decode_journal, encode_record
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
    decode_journal,
    Journal,
    lambda log: log.append_payloads([{"type": "kept_path_removed", "path": "x"}]),
)
BLOCKS = Codec(
    [encode_segment(path, data) for path, data in SEGMENTS],
    decode_blockstore,
    BlockStore,
    lambda log: log.append_segments([("tmp/s9/sj9", b"fresh")]),
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
        inject(f"{log.site}.append", "partial", arg=landed)
        with pytest.raises(PartialWriteFault):
            self.codec.append_one(log)
        faults.uninstall()
        assert log.size() == landed  # exactly the torn prefix landed
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
        clean = log.size()
        inject(f"{log.site}.append", "partial", arg=7)
        with pytest.raises(PartialWriteFault):
            self.codec.append_one(log)
        faults.uninstall()
        assert log.size() == clean + 7
        self.codec.append_one(log)  # the retry
        self.codec.append_one(log)
        scan = log.scan()
        assert len(scan.frames) == 3 and not scan.torn and scan.skipped == 0
        assert log.size() == 3 * clean


#: what ``encode_record`` / ``encode_segment`` wrote for RECORDS /
#: SEGMENTS at 4553440, the last commit with two framing copies
PINNED_JOURNAL = bytes.fromhex(
    "0000002e098080ce7b2270617468223a22746d702f73312f736a31222c227479"
    "7065223a226b6570745f706174685f6164646564227d0000002e0b5e87e97b22"
    "70617468223a22746d702f73312f736a32222c2274797065223a226b6570745f"
    "706174685f6164646564227d00000039f3f857527b226e6578745f7363726970"
    "745f6964223a352c226e6578745f7375626a6f625f6964223a392c2274797065"
    "223a22636f756e74657273227d"
)
PINNED_BLOCKS = bytes.fromhex(
    "0000001712caf6d6000a746d702f73312f736a317061796c6f61642d6f6e6500"
    "00001ed864cdb9000a746d702f73312f736a327061796c6f61642d74776f2d6c"
    "6f6e6765720000000e4c1245d9000a746d702f73322f736a377033"
)


def test_on_disk_format_is_pinned():
    assert b"".join(JOURNAL.frames) == PINNED_JOURNAL
    assert b"".join(BLOCKS.frames) == PINNED_BLOCKS
    journal = decode_journal(PINNED_JOURNAL)
    assert [{"type": r.type, **r.data} for r in journal.records] == RECORDS
    assert not journal.torn and journal.skipped == 0
    blocks = decode_blockstore(PINNED_BLOCKS)
    assert blocks.frames == {
        0: (31, SEGMENTS[0]),
        31: (38, SEGMENTS[1]),
        69: (22, SEGMENTS[2]),
    }
    assert not blocks.torn and blocks.skipped == 0
