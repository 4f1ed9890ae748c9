"""Native payload durability: segments and checkpoints in the one log,
and the scrub.

A crash can tear a commit at *any* byte, and recovery must (a) restore
byte-identical payloads for every entry whose segment survived intact,
and (b) condemn — never serve — every entry whose payload is missing,
torn, or corrupt.  A commit writes its segments before its records, so
a cut never leaves a record behind without its segment.  The
``partial`` and ``slow`` fault actions drive the torn-write and
slow-disk timelines deterministically.

Seeds default to 13; set ``CHAOS_SEED`` to sweep another timeline.
"""

from __future__ import annotations

import re
import time
import zlib

import pytest

from repo_stream import build_repository, generate_entry_specs
from repro.core.manager import ReStoreManager
from repro.dfs.filesystem import DistributedFileSystem
from repro.events import EntryQuarantined, PersistenceDegraded, SnapshotTaken
from repro.faults import injector as faults
from repro.faults.injector import FaultInjector, InjectedFault
from repro.faults.plan import FaultPlan, FaultRule
from repro.persistence.durability import (
    PersistenceConfig,
    adopt_recovered,
    announce_scrub_condemnations,
    recover,
)
from repro.persistence.framedlog import (
    CHECKPOINT,
    FramedLog,
    LogError,
    SegmentRef,
    encode_segment,
    scan_frames,
    verify_ref,
)
from repro.persistence.storage import LocalStorage
from repro.session import ReStoreSession
from test_framedlog import BLOCKS, CHECKPOINTS, SEED, TornWriteSweep, inject


def _config(tmp_path, **extra) -> PersistenceConfig:
    return PersistenceConfig(
        snapshot_path=str(tmp_path / "repo.snap"),
        journal_path=str(tmp_path / "repo.journal"),
        backend="local",
        **extra,
    )


def _persister(tmp_path, **extra):
    dfs = DistributedFileSystem()
    config = _config(tmp_path, **extra)
    state = recover(config, dfs)
    manager = ReStoreManager(dfs, repository=state.repository)
    persister = adopt_recovered(manager, state, config)
    return dfs, config, manager, persister


def _payload_for(path: str) -> bytes:
    return f"bytes:{path}".encode()


def _add_entries(dfs, manager, n=3, seed=5):
    """Register *n* entries live-style: output bytes land in the DFS
    first and stamp the entry, so the persister captures them into the
    log."""
    entries = build_repository(generate_entry_specs(n, seed=seed), seed=seed)
    added = []
    for entry in entries.entries():
        dfs.write_file(entry.output_path, _payload_for(entry.output_path))
        entry.output_extent = dfs.input_extent(entry.output_path)
        added.append(manager.repository.add(entry))
    return added


def _log_files(tmp_path) -> dict:
    return {p.name: p.stat().st_size for p in tmp_path.glob("repo.journal.g*")}


def _lose_every_segment(tmp_path, persister) -> None:
    """Fold everything into a checkpoint, then rot every payload
    segment under it: every payload ref it carries now names bytes the
    scan quarantines."""
    persister.take_snapshot()
    persister.close()
    log_path = tmp_path / f"repo.journal.g{persister.log.gen}"
    data = bytearray(log_path.read_bytes())
    for offset, (_, body) in scan_frames(bytes(data)).frames.items():
        if isinstance(body, tuple) and "/" in body[0]:  # a payload, not a plan
            data[offset + 12] ^= 0xFF
    log_path.write_bytes(bytes(data))


def _frames(log_path, kind) -> list:
    """(offset, length) of every intact frame of *kind* in the file."""
    scan = scan_frames(log_path.read_bytes())
    return [
        (offset, length)
        for offset, (length, body) in scan.frames.items()
        if not isinstance(body, tuple) and body[:1] == kind
    ]


class TestCheckpointCodec(TornWriteSweep):
    """The checkpoint frame under the shared torn-write sweep."""

    codec = CHECKPOINTS
    test_every_byte_boundary_of_last_checkpoint = (
        TornWriteSweep.every_byte_boundary_of_last_frame
    )


class TestSegmentCodec(TornWriteSweep):
    """The segment codec under the shared torn-write sweep, plus what
    only segments have: refs and their integrity check."""

    codec = BLOCKS
    test_every_byte_boundary_of_last_segment = (
        TornWriteSweep.every_byte_boundary_of_last_frame
    )

    def test_round_trip_through_store(self, tmp_path):
        log = FramedLog(LocalStorage(str(tmp_path / "log.g0")))
        segments = [("a/b", b"xx"), ("c/d", b"yyyy")]
        # one commit, one storage write: segments first, refs in order
        refs, _ = log.append_commit(
            [{"type": "payload_stored", "path": p, "data": d} for p, d in segments]
        )
        refs = dict(refs)
        scan = log.scan()
        # the two segments, then one frame holding both records
        assert len(scan.frames) == 3 and len(scan.records) == 2
        assert not scan.torn
        assert max(refs["a/b"].offset, refs["c/d"].offset) < min(
            offset
            for offset, (_, body) in scan.frames.items()
            if not isinstance(body, tuple)
        ), "a commit's segments precede its records"
        assert verify_ref(scan, refs["a/b"], "a/b") == b"xx"
        assert verify_ref(scan, refs["c/d"], "c/d") == b"yyyy"
        assert [r.data["ref"] for r in scan.records] == [
            refs["a/b"].to_list(),
            refs["c/d"].to_list(),
        ]

    def test_ref_is_offset_length_and_payload_crc(self, tmp_path):
        log = FramedLog(LocalStorage(str(tmp_path / "log.g3")), 3)
        ((path, ref),), _ = log.append_commit([{"path": "p", "data": b"data"}])
        assert path == "p"
        assert ref.gen == 3
        assert ref.offset == 0
        assert ref.length == len(encode_segment("p", b"data"))
        assert ref.crc == zlib.crc32(b"data")
        assert SegmentRef.from_list(ref.to_list()) == ref

    def test_malformed_ref_rejected(self):
        with pytest.raises(LogError, match="malformed"):
            SegmentRef.from_list([1, 2, 3])

    def test_overlong_path_rejected(self):
        with pytest.raises(LogError, match="too long"):
            encode_segment("x" * 0x10000, b"")

    def test_verify_ref_catches_every_drift(self):
        scan = scan_frames(b"".join(BLOCKS.frames))
        ref = SegmentRef(0, 0, len(BLOCKS.frames[0]), zlib.crc32(b"payload-one"))
        assert verify_ref(scan, ref, "tmp/s1/sj1") == b"payload-one"
        # missing segment (offset never written / torn away)
        assert verify_ref(scan, SegmentRef(0, 999, 10, ref.crc), "x") is None
        # length drift
        bad_len = SegmentRef(0, 0, ref.length + 1, ref.crc)
        assert verify_ref(scan, bad_len, "tmp/s1/sj1") is None
        # substitution: the segment frames another path
        assert verify_ref(scan, ref, "tmp/other") is None
        # content drift: stored bytes no longer match the recorded crc
        bad_crc = SegmentRef(0, 0, ref.length, ref.crc ^ 1)
        assert verify_ref(scan, bad_crc, "tmp/s1/sj1") is None


class TestEveryByteCrashRecovery:
    """The tentpole gate, as a test: crash the last commit at every
    byte boundary; recovery never leaves an entry referencing a missing
    or corrupt payload."""

    def test_every_cut_recovers_with_no_corrupt_refs(self, tmp_path):
        dfs, config, manager, persister = _persister(tmp_path)
        added = _add_entries(dfs, manager, n=2, seed=SEED)
        log_path = tmp_path / "repo.journal.g0"
        log_bytes = log_path.read_bytes()
        base = scan_frames(log_bytes)
        assert not base.torn
        # the last commit: the last entry's segment, then its records
        last = min(
            offset
            for offset, (_, body) in base.frames.items()
            if isinstance(body, tuple) and body[0] == added[-1].output_path
        )
        segment_end = last + base.frames[last][0]
        torn_between = 0
        for cut in range(last, len(log_bytes) + 1):
            # rewind the lane: recovery repairs and logs in place
            log_path.write_bytes(log_bytes[:cut])
            fresh = DistributedFileSystem()
            recovered = recover(config, fresh)
            survivors = {e.output_path for e in recovered.repository.entries()}
            # a record never outlives its segment: nothing to condemn
            assert recovered.payloads_condemned == [], f"cut={cut}"
            # the invariant: every survivor serves byte-identical data
            for path in survivors:
                assert fresh.read_file(path) == _payload_for(path), (
                    f"corrupt payload served at cut={cut}"
                )
            expected = {e.output_path for e in added}
            if cut < len(log_bytes):
                expected.discard(added[-1].output_path)
            assert survivors == expected, f"cut={cut}"
            torn_between += segment_end <= cut < len(log_bytes)
        assert torn_between > 0, "the sweep must cut between segment and record"

    def test_condemnation_is_journaled_and_replay_idempotent(self, tmp_path):
        dfs, config, manager, persister = _persister(tmp_path)
        added = _add_entries(dfs, manager, n=3, seed=SEED)
        # the log vanishes under the snapshot: every payload ref is orphaned
        _lose_every_segment(tmp_path, persister)
        first = recover(config, DistributedFileSystem())
        assert len(first.repository) == 0
        assert {p for _, p, _ in first.payloads_condemned} == {
            e.output_path for e in added
        }
        # the scrub logged entry_quarantined: a second recovery
        # replays the condemnations instead of re-deriving them
        second = recover(config, DistributedFileSystem())
        assert len(second.repository) == 0
        assert second.payloads_condemned == []

    def test_unjournaled_condemnations_are_recorded_and_announced(self, tmp_path):
        dfs, config, manager, persister = _persister(tmp_path)
        added = _add_entries(dfs, manager, n=2, seed=SEED)
        _lose_every_segment(tmp_path, persister)
        inject("journal.append", "raise")
        recovered = recover(config, DistributedFileSystem())
        faults.uninstall()
        assert len(recovered.payloads_condemned) == 2
        assert recovered.condemnations_unjournaled is not None
        twin = ReStoreManager(DistributedFileSystem())
        degraded = twin.events.collect(event_types=PersistenceDegraded)
        announce_scrub_condemnations(twin, recovered)
        assert [e.path for e in degraded] == [config.log_file(persister.log.gen)]
        # nothing was logged, so the next recovery re-derives the
        # same verdicts — and this time records them
        again = recover(config, DistributedFileSystem())
        assert {p for _, p, _ in again.payloads_condemned} == {
            e.output_path for e in added
        }
        assert again.condemnations_unjournaled is None
        assert recover(config, DistributedFileSystem()).payloads_condemned == []

    def test_torn_tail_in_unreferenced_resume_generation_is_repaired(self, tmp_path):
        """A crash tore the first commit of a lane with no snapshot: no
        record survived, yet the successor appends into generation 0 —
        behind an unscannable tear, unless recovery repairs it."""
        config = _config(tmp_path)
        log_path = tmp_path / "repo.journal.g0"
        log_path.write_bytes(encode_segment("tmp/s1/sj1", b"x" * 40)[:26])
        session = ReStoreSession(persistence=config)
        assert log_path.stat().st_size == 0, "recovery must cut the tear"
        session.write_file("data/pv", "alice\t1\t1.5\nbob\t2\t4.0\nalice\t1\t0.5\n")
        session.run(
            "A = load 'data/pv' as (user, action:int, rev:double);"
            "B = filter A by action == 1; C = group B by user;"
            "D = foreach C generate group, SUM(B.rev); store D into 'out/q';"
        )
        before = {
            e.entry_id: session.dfs.read_file(e.output_path)
            for e in session.manager.repository.entries()
        }
        session.close()
        assert before
        fresh = DistributedFileSystem()
        recovered = recover(config, fresh)
        assert recovered.payloads_condemned == []
        assert recovered.kept_paths_condemned == []
        assert {
            e.entry_id: fresh.read_file(e.output_path)
            for e in recovered.repository.entries()
        } == before

    def test_corrupt_segment_condemns_only_its_entry(self, tmp_path):
        dfs, config, manager, persister = _persister(tmp_path)
        added = _add_entries(dfs, manager, n=3, seed=SEED)
        log_path = tmp_path / "repo.journal.g0"
        data = bytearray(log_path.read_bytes())
        scan = scan_frames(bytes(data))
        segments = [
            offset
            for offset, (_, body) in scan.frames.items()
            if isinstance(body, tuple)
        ]
        # flip a payload byte inside the middle segment (bit rot: the
        # frame is quarantined, the scan resyncs past it)
        data[segments[1] + 12] ^= 0xFF
        log_path.write_bytes(bytes(data))
        fresh = DistributedFileSystem()
        recovered = recover(config, fresh)
        assert recovered.journal_skipped == 1
        assert len(recovered.repository) == 2
        assert len(recovered.payloads_condemned) == 1
        for entry in recovered.repository.entries():
            assert fresh.read_file(entry.output_path) == _payload_for(
                entry.output_path
            )

    def test_entry_without_bytes_or_ref_is_condemned(self, tmp_path):
        dfs, config, manager, persister = _persister(tmp_path)
        # the output bytes never existed, so no segment was captured —
        # on a fresh DFS there is nothing to serve: condemn
        entries = build_repository(generate_entry_specs(1, seed=SEED), SEED)
        manager.repository.add(entries.entries()[0])
        recovered = recover(config, DistributedFileSystem())
        assert len(recovered.repository) == 0
        assert len(recovered.payloads_condemned) == 1
        _, _, reason = recovered.payloads_condemned[0]
        assert "missing" in reason

    def test_announce_emits_quarantine_events(self, tmp_path):
        dfs, config, manager, persister = _persister(tmp_path)
        added = _add_entries(dfs, manager, n=2, seed=SEED)
        _lose_every_segment(tmp_path, persister)
        fresh = DistributedFileSystem()
        recovered = recover(config, fresh)
        twin = ReStoreManager(fresh)
        events = []
        twin.events.subscribe(events.append, event_types=(EntryQuarantined,))
        announce_scrub_condemnations(twin, recovered)
        assert twin.quarantine_count == 2
        assert {e.output_path for e in events} == {e.output_path for e in added}
        assert all(e.reason.startswith("payload-scrub:") for e in events)


class TestPartialAndSlowActions:
    def test_slow_disk_delays_but_preserves_bytes(self, tmp_path):
        inject("journal.append", "slow", arg=0.05)
        log = FramedLog(LocalStorage(str(tmp_path / "log.g0")))
        started = time.monotonic()
        ((_, ref),), _ = log.append_commit([{"path": "p", "data": b"unhurried"}])
        elapsed = time.monotonic() - started
        assert elapsed >= 0.04
        assert verify_ref(log.scan(), ref, "p") == b"unhurried"

    def test_partial_checkpoint_write_aborts_rotation_nothing_lost(self, tmp_path):
        """A checkpoint torn by a crash: recovery falls back to the
        previous checkpoint plus every record after it."""
        dfs, config, manager, persister = _persister(tmp_path)
        added = build_repository(generate_entry_specs(4, seed=SEED), SEED).entries()
        for number, entry in enumerate(added):
            dfs.write_file(entry.output_path, _payload_for(entry.output_path))
            entry.output_extent = dfs.input_extent(entry.output_path)
            manager.repository.add(entry)
            if number == 1:
                persister.take_snapshot()
        log_path = tmp_path / "repo.journal.g0"
        log_bytes = log_path.read_bytes()
        inject("journal.append", "partial", arg=9)
        assert persister.take_snapshot() is None  # breaker: degraded
        faults.uninstall()
        assert persister.breaker_open
        # the torn prefix is the only change: a crash now leaves it
        assert log_path.read_bytes()[: len(log_bytes)] == log_bytes
        assert log_path.stat().st_size == len(log_bytes) + 9
        recovered = recover(config, DistributedFileSystem())
        assert recovered.journal_torn_bytes == 9
        assert recovered.checkpoint_entries == 2 and recovered.journal_records == 4
        assert {e.entry_id for e in recovered.repository.entries()} == {
            e.entry_id for e in added
        }
        assert recovered.payloads_condemned == []


def _checkpoint(config, gen: int = 0) -> dict:
    return FramedLog(config.log_storage(gen=gen), gen).scan().checkpoint


def _checkpoint_refs(config, gen: int = 0) -> dict:
    return {
        path: SegmentRef.from_list(raw)
        for path, raw in _checkpoint(config, gen)["payloads"].items()
    }


def _live_segment_bytes(persister) -> int:
    refs = {*persister._payload_refs.values(), *persister._plan_refs.values()}
    return sum(ref.length for ref in refs)


class TestRotationByReference:
    def test_rotation_with_nothing_dead_appends_one_checkpoint(self, tmp_path):
        dfs, config, manager, persister = _persister(tmp_path)
        added = _add_entries(dfs, manager, n=4, seed=SEED)
        files = _log_files(tmp_path)
        refs = dict(persister._payload_refs)
        plans = dict(persister._plan_refs)
        assert set(files) == {"repo.journal.g0"} and len(refs) == 4
        event = persister.take_snapshot()
        assert event is not None and event.path == config.log_file(0)
        grown = {"repo.journal.g0": files["repo.journal.g0"] + event.bytes}
        assert _log_files(tmp_path) == grown, "one frame, no segment"
        assert _frames(tmp_path / "repo.journal.g0", CHECKPOINT) == [
            (files["repo.journal.g0"], event.bytes)
        ]
        assert _checkpoint_refs(config) == refs, "the refs travel as they are"
        assert persister._plan_refs == plans
        fresh = DistributedFileSystem()
        recovered = recover(config, fresh)
        assert recovered.journal_records == 0 and recovered.payloads_restored == 4
        assert recovered.payloads_condemned == []
        for entry in added:
            assert fresh.read_file(entry.output_path) == _payload_for(entry.output_path)

    def test_rotation_compacts_once_dead_bytes_outweigh_live(self, tmp_path):
        dfs, config, manager, persister = _persister(tmp_path)
        added = _add_entries(dfs, manager, n=6, seed=SEED)
        persister.take_snapshot()
        assert set(_log_files(tmp_path)) == {"repo.journal.g0"}
        for entry in added[:4]:  # two thirds of the stored bytes die
            manager.repository.remove(entry.entry_id)
        event = persister.take_snapshot()
        files = _log_files(tmp_path)
        assert set(files) == {"repo.journal.g1"}, "new generation, old one gone"
        # after rotations and a compaction the state directory holds the
        # log's generation and nothing else: no snapshot file
        assert [path.name for path in tmp_path.iterdir()] == ["repo.journal.g1"]
        refs = _checkpoint_refs(config, 1)
        assert set(refs) == {e.output_path for e in added[4:]}
        # the new generation holds the live segments, then one checkpoint
        live = _live_segment_bytes(persister)
        assert files["repo.journal.g1"] == live + len(
            (tmp_path / "repo.journal.g1").read_bytes()[live:]
        )
        assert _frames(tmp_path / "repo.journal.g1", CHECKPOINT)[0][0] == live
        assert event.bytes == files["repo.journal.g1"]
        scan = FramedLog(config.log_storage(gen=1), 1).scan()
        for path, ref in refs.items():
            assert verify_ref(scan, ref, path) == _payload_for(path)
        # appends continue into the compacted generation
        more = added[0]
        more.entry_id = ""  # re-registered under a fresh id
        manager.repository.add(more)
        assert persister._payload_refs[more.output_path].gen == 1
        fresh = DistributedFileSystem()
        recovered = recover(config, fresh)
        assert recovered.payloads_condemned == [] and recovered.log_gen == 1
        assert recovered.journal_records == 2  # the re-add: payload + entry
        assert fresh.read_file(more.output_path) == _payload_for(more.output_path)

    def test_close_mid_submission_commits_staged_payload_bytes(self, tmp_path):
        """A close while a submission is open (a coordinator going away
        mid-stream) commits the staged payload *bytes*, not only their
        records: the restart's recovery verifies every ref, the ones
        the rotation carried by reference included."""
        dfs, config, manager, persister = _persister(tmp_path)
        specs = generate_entry_specs(4, seed=SEED)
        entries = build_repository(specs, seed=SEED).entries()
        for entry in entries:
            dfs.write_file(entry.output_path, _payload_for(entry.output_path))
            entry.output_extent = dfs.input_extent(entry.output_path)
        for entry in entries[:2]:
            manager.repository.add(entry)
        persister.take_snapshot()  # by reference: the refs stay in g0
        log_bytes = persister.log.storage.size()
        persister.note_workflow_start()  # a submission opens: stage only
        for entry in entries[2:]:
            manager.repository.add(entry)
        assert persister.buffered_records == 4
        assert persister.log.storage.size() == log_bytes, "payload bytes are staged"
        persister.close()
        assert persister.buffered_records == 0
        fresh = DistributedFileSystem()
        recovered = recover(config, fresh)
        assert recovered.payloads_condemned == []
        assert set(recovered.payload_refs) == {e.output_path for e in entries}
        assert {e.entry_id for e in recovered.repository.entries()} == {
            e.entry_id for e in entries
        }
        for entry in entries:
            assert fresh.read_file(entry.output_path) == _payload_for(entry.output_path)

    def test_successor_appends_where_recovery_reads(self, tmp_path):
        """Over a compacted state whose log a crash left torn, the
        successor's persister appends to the generation recovery read,
        behind the cut tear: the next recovery replays its records."""
        dfs, config, manager, persister = _persister(tmp_path)
        added = _add_entries(dfs, manager, n=6, seed=SEED)
        for entry in added[:4]:
            manager.repository.remove(entry.entry_id)
        persister.take_snapshot()
        persister.close()
        assert set(_log_files(tmp_path)) == {"repo.journal.g1"}
        with open(tmp_path / "repo.journal.g1", "ab") as handle:
            handle.write(b"\x00\x00")  # a crash's torn frame header
        dfs = DistributedFileSystem()
        state = recover(config, dfs)
        assert state.log_gen == 1 and state.journal_torn_bytes == 2
        successor = ReStoreManager(dfs, repository=state.repository)
        attached = adopt_recovered(successor, state, config)
        assert attached.log.gen == 1
        (late,) = _add_entries(dfs, successor, n=1, seed=SEED)
        attached.close()
        fresh = DistributedFileSystem()
        recovered = recover(config, fresh)
        assert recovered.log_gen == 1 and recovered.journal_torn_bytes == 0
        assert recovered.repository.has_entry(late.entry_id)
        assert len(recovered.repository) == 3 and recovered.payloads_condemned == []
        assert fresh.read_file(late.output_path) == _payload_for(late.output_path)

    def test_output_overwritten_behind_its_entry_is_dropped_not_recaptured(
        self, tmp_path
    ):
        dfs, config, manager, persister = _persister(tmp_path)
        added = _add_entries(dfs, manager, n=2, seed=SEED)
        victim = added[0].output_path
        # the bytes move on behind the repository's back: no mutation
        # event, and not the entry's bytes, so nothing to carry
        dfs.write_file(victim, b"rewritten after capture", overwrite=True)
        persister.take_snapshot()
        refs = _checkpoint_refs(config, persister.log.gen)
        assert victim not in refs
        carried = added[1].output_path
        assert refs[carried] == persister._payload_refs[carried]
        fresh = DistributedFileSystem()
        assert [p for _, p, _ in recover(config, fresh).payloads_condemned] == [victim]
        assert not fresh.exists(victim)

    def test_recovered_refs_are_reverified_by_the_first_rotation(self, tmp_path):
        """A successor resumes the ref table without knowing the files'
        extents: its first rotation re-reads each (same crc, same ref),
        later ones carry them on metadata alone."""
        dfs, config, manager, persister = _persister(tmp_path)
        added = _add_entries(dfs, manager, n=3, seed=SEED)
        persister.close()
        fresh = DistributedFileSystem()
        recovered = recover(config, fresh)
        successor = ReStoreManager(fresh, repository=recovered.repository)
        resumed = adopt_recovered(successor, recovered, config)
        files = _log_files(tmp_path)
        for expected_reads in (3, 0):
            before = fresh.bytes_read
            event = resumed.take_snapshot()
            reads = fresh.bytes_read - before
            assert (reads > 0) == (expected_reads > 0)
            files["repo.journal.g0"] += event.bytes  # the checkpoint alone
            assert _log_files(tmp_path) == files
        assert set(_checkpoint_refs(config)) == {e.output_path for e in added}

    def test_aborted_rotation_leaves_journal_backlog_and_refs_untouched(
        self, tmp_path
    ):
        dfs, config, manager, persister = _persister(tmp_path)
        added = _add_entries(dfs, manager, n=6, seed=SEED)
        for entry in added[:4]:  # enough dead bytes to attempt a compaction
            manager.repository.remove(entry.entry_id)
        refs = dict(persister._payload_refs)
        log_bytes = (tmp_path / "repo.journal.g0").read_bytes()
        # the compaction's one append fails
        inject("journal.append", "raise")
        assert persister.take_snapshot() is None
        faults.uninstall()
        assert persister.breaker_open and persister.buffered_records == 0
        assert persister._payload_refs == refs and persister.log.gen == 0
        assert (tmp_path / "repo.journal.g0").read_bytes() == log_bytes
        assert set(_log_files(tmp_path)) == {"repo.journal.g0"}, "nothing half-built"
        recovered = recover(config, DistributedFileSystem())
        assert len(recovered.repository) == 2 and recovered.payloads_condemned == []
        assert persister.take_snapshot() is not None
        assert set(_log_files(tmp_path)) == {"repo.journal.g1"}
        assert recover(config, DistributedFileSystem()).payloads_condemned == []

    def test_space_stays_within_twice_live_plus_one_interval(self, tmp_path):
        """220 submissions under a time-window eviction policy: right
        after every rotation the log files hold at most 2x the live
        segment bytes (payloads and plans) plus 2x the checkpoint (the
        live form of the records and checkpoints before it), and in
        between they grow by appends only."""
        config = _config(tmp_path, snapshot_interval=25)
        builder = ReStoreSession.builder().persistence(config)
        session = builder.evict("time-window:6").build()
        persister = session.persister
        for day in range(8):
            rows = (f"u{(day * 7 + i) % 13}\t{i % 4}\t{i * 0.5}\n" for i in range(60))
            session.write_file(f"data/d{day}", "".join(rows))
        marks = {"rotations": 0, "compactions": 0, "budget": 0, "gen": 0}

        def on_rotation(event) -> None:
            live = _live_segment_bytes(persister)
            on_disk = sum(_log_files(tmp_path).values())
            budget = 2 * (live + event.bytes)
            assert on_disk <= budget, "a rotation left more dead bytes than live"
            marks["rotations"] += 1
            marks["compactions"] += persister.log.gen != marks["gen"]
            marks["gen"] = persister.log.gen
            marks["budget"] = budget

        persister.events.subscribe(on_rotation, event_types=(SnapshotTaken,))
        for number in range(220):
            day, action = (number * 5) % 8, number % 4
            if number % 3 == 0:  # a hot query keeps part of the store live
                day, action = 0, 1
            appended = persister.log.storage.size()
            session.run(
                f"A = load 'data/d{day}' as (user, action:int, rev:double);"
                f"B = filter A by action == {action}; C = group B by user;"
                "D = foreach C generate group, SUM(B.rev);"
                f" store D into 'out/q{number}';"
            )
            grown = max(0, persister.log.storage.size() - appended)
            marks["budget"] += grown
            assert sum(_log_files(tmp_path).values()) <= max(
                marks["budget"], grown
            ), f"log files outgrew 2x (live + checkpoint) + the interval at {number}"
        assert marks["rotations"] >= 5 and marks["compactions"] >= 2
        assert marks["compactions"] < marks["rotations"]
        live = {
            e.entry_id: session.dfs.read_file(e.output_path)
            for e in session.manager.repository.entries()
        }
        session.close()
        fresh = DistributedFileSystem()
        recovered = recover(config, fresh)
        assert recovered.payloads_condemned == []
        assert {
            e.entry_id: fresh.read_file(e.output_path)
            for e in recovered.repository.entries()
        } == live


class _Crash(BaseException):
    """The process dies here: nothing after it runs."""


def _flip_checkpoint(log_path, which: int = -1) -> None:
    """Bit rot inside the body of the *which*-th checkpoint frame."""
    offset, length = _frames(log_path, CHECKPOINT)[which]
    data = bytearray(log_path.read_bytes())
    data[offset + length // 2] ^= 0xFF
    log_path.write_bytes(bytes(data))


def _live(holder) -> dict:
    """Entry id → output path, of a manager's or a recovered state's
    repository."""
    return {e.entry_id: e.output_path for e in holder.repository.entries()}


class TestCheckpointFaults:
    """What replaced the snapshot file's faults: a torn or rotten
    checkpoint, and a compaction cut short."""

    def _two_checkpoints(self, tmp_path):
        dfs, config, manager, persister = _persister(tmp_path)
        persister.COMPACT_DEAD_PER_LIVE = float("inf")  # both stay in g0
        added = _add_entries(dfs, manager, n=3, seed=SEED)
        manager.repository.remove(added[0].entry_id)
        persister.take_snapshot()
        manager.repository.remove(added[1].entry_id)
        persister.take_snapshot()
        persister.note_kept_path(added[2].output_path, True)  # a record after it
        assert persister.log.gen == 0
        return dfs, config, manager, persister

    def test_bit_rot_in_the_last_checkpoint_replays_from_the_one_before(
        self, tmp_path
    ):
        dfs, config, manager, persister = self._two_checkpoints(tmp_path)
        live = _live(manager)
        _flip_checkpoint(tmp_path / "repo.journal.g0")
        recovered = recover(config, DistributedFileSystem())
        assert recovered.journal_skipped == 1
        assert recovered.checkpoint_entries == 2  # the first checkpoint's
        assert recovered.journal_records == 2  # the remove, the kept path
        assert _live(recovered) == live
        assert recovered.kept_paths == set(live.values())  # the one left, kept
        assert recovered.payloads_condemned == []

    @pytest.mark.parametrize("tail", [False, True], ids=["mid-file", "at-the-tail"])
    def test_bit_rot_in_a_compacted_generations_checkpoint_names_the_file(
        self, tmp_path, tail
    ):
        dfs, config, manager, persister = _persister(tmp_path)
        _add_entries(dfs, manager, n=3, seed=SEED)
        persister.COMPACT_DEAD_PER_LIVE = 0
        persister.take_snapshot()
        assert set(_log_files(tmp_path)) == {"repo.journal.g1"}
        if not tail:
            persister.note_kept_path("tmp/s1/sj1", True)
        persister.close()
        _flip_checkpoint(tmp_path / "repo.journal.g1")
        before = _log_files(tmp_path)
        with pytest.raises(LogError, match=re.escape(config.log_file(1))):
            recover(config, DistributedFileSystem())
        assert _log_files(tmp_path) == before, "nothing is cut or deleted"

    @pytest.mark.parametrize("crash", ["mid-append", "before-deletion"])
    def test_a_compaction_cut_short_loses_nothing(self, tmp_path, monkeypatch, crash):
        dfs, config, manager, persister = _persister(tmp_path)
        added = _add_entries(dfs, manager, n=4, seed=SEED)
        manager.repository.remove(added[0].entry_id)
        live = _live(manager)
        old = tmp_path / "repo.journal.g0"
        old_bytes = old.read_bytes()
        persister.COMPACT_DEAD_PER_LIVE = 0
        if crash == "before-deletion":
            # the compaction's append is durable, then the process dies
            # as it deletes the old generation
            delete = LocalStorage.delete

            def die(storage):
                if storage.path == old:
                    raise _Crash()
                delete(storage)

            monkeypatch.setattr(LocalStorage, "delete", die)
            with pytest.raises(_Crash):
                persister.take_snapshot()
            monkeypatch.undo()
        else:
            persister.take_snapshot()
            # what a crash mid-append leaves: the old generation as it
            # was, the new one torn inside its checkpoint
            new = tmp_path / "repo.journal.g1"
            ((offset, length),) = _frames(new, CHECKPOINT)
            new.write_bytes(new.read_bytes()[: offset + length - 5])
            old.write_bytes(old_bytes)
        assert set(_log_files(tmp_path)) == {"repo.journal.g0", "repo.journal.g1"}
        fresh = DistributedFileSystem()
        recovered = recover(config, fresh)
        expected_gen = 1 if crash == "before-deletion" else 0
        assert recovered.log_gen == expected_gen
        assert _live(recovered) == live
        assert recovered.payloads_condemned == []
        for path in live.values():
            assert fresh.read_file(path) == _payload_for(path)
        if crash == "mid-append":
            # the torn generation was debris: recovery deleted it
            assert set(_log_files(tmp_path)) == {"repo.journal.g0"}


class TestInjectorHygiene:
    def test_reset_zeroes_clocks_and_fired(self):
        plan = FaultPlan(
            seed=SEED,
            rules=(FaultRule(site="journal.read", action="raise"),),
        )
        injector = FaultInjector(plan)
        with pytest.raises(InjectedFault):
            injector.fire("journal.read")
        injector.fire("journal.read")  # hit 2: rule spent
        assert injector.fired and injector.clock.hits("journal.read") == 2
        injector.reset()
        assert not injector.fired
        assert injector.clock.hits("journal.read") == 0
        # the same one-shot rule fires again from a clean clock
        with pytest.raises(InjectedFault):
            injector.fire("journal.read")
