"""Crash recovery through the records of the append-only log.

The framing contract: a crash can tear the log at *any* byte, and
recovery must replay every record before the tear, drop the tear
without guessing, and converge to the same state no matter how many
times the same records are replayed.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from repo_stream import build_repository, generate_entry_specs
from repro.core.manager import ReStoreManager
from repro.core.repository import Repository
from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.namenode import InputExtent
from repro.exceptions import ReproError
from repro.persistence.durability import (
    PersistenceConfig,
    ReplayTarget,
    RepositoryPersister,
    recover,
)
from repro.persistence.framedlog import (
    RECORD,
    FramedLog,
    JournalRecord,
    encode_frame,
    encode_record,
    scan_frames,
)
from repro.persistence.snapshot import RepositorySnapshot, entry_record
from repro.session import ReStoreSession
from test_framedlog import JOURNAL, TornWriteSweep


def replay(snapshot, records) -> Repository:
    """The repository a journal replay of *records* over *snapshot*
    reaches (the pipeline recovery runs)."""
    target = ReplayTarget.from_snapshot(snapshot)
    target.apply_all(records)
    return target.repository


class TestTornTail(TornWriteSweep):
    """The record codec under the shared torn-write sweep."""

    codec = JOURNAL
    test_every_byte_boundary_of_last_record = (
        TornWriteSweep.every_byte_boundary_of_last_frame
    )


class TestReplaySemantics:
    def test_replay_twice_equals_replay_once(self):
        repo = build_repository(generate_entry_specs(8, seed=3), seed=3)
        repo.ordered_entries()
        snapshot = RepositorySnapshot.capture(repo)
        victim = repo.entries()[2]
        records = [
            JournalRecord.from_payload(
                {"type": "entry_added", "entry": entry_record(victim)}
            ),
            JournalRecord.from_payload(
                {"type": "entry_removed", "entry_id": victim.entry_id}
            ),
            JournalRecord.from_payload(
                {
                    "type": "entry_used",
                    "entry_id": repo.entries()[0].entry_id,
                    "use_count": 3,
                    "last_used_at": 11,
                    "clock": 11,
                }
            ),
        ]
        once = replay(snapshot, records)
        twice = replay(snapshot, records + records)
        assert [e.entry_id for e in once.ordered_entries()] == [
            e.entry_id for e in twice.ordered_entries()
        ]
        assert not once.has_entry(victim.entry_id)
        assert not twice.has_entry(victim.entry_id)
        used = twice.get(repo.entries()[0].entry_id)
        assert used.use_count == 3  # max-merge, not double-count
        assert used.last_used_at == 11

    def test_same_id_readd_keeps_scan_position(self):
        repo = build_repository(generate_entry_specs(8, seed=3), seed=3)
        repo.ordered_entries()
        snapshot = RepositorySnapshot.capture(repo)
        order = [e.entry_id for e in repo.ordered_entries()]
        readd = JournalRecord.from_payload(
            {"type": "entry_added", "entry": entry_record(repo.entries()[4])}
        )
        restored = replay(snapshot, [readd])
        assert [e.entry_id for e in restored.ordered_entries()] == order

    def test_journal_from_before_snapshot_format_4_still_replays(self):
        """Journal frames carry no version, so one written before the
        entry's second input-identity column was retired (and never
        folded into a snapshot) must replay: the extra key is ignored
        and ids, scan order and extents come back the same."""
        repo = build_repository(generate_entry_specs(8, seed=3), seed=3)
        payloads = []
        for entry in repo.entries():
            record = entry_record(entry)
            record["input_mtimes"] = {
                path: extent.mtime for path, extent in entry.input_extents.items()
            }
            payloads.append({"type": "entry_added", "entry": record})
        journal = scan_frames(b"".join(map(encode_record, payloads)))
        restored = replay(None, journal.records)
        assert [e.entry_id for e in restored.ordered_entries()] == [
            e.entry_id for e in repo.ordered_entries()
        ]
        for entry in repo.entries():
            assert restored.get(entry.entry_id).input_extents == entry.input_extents

    def test_entry_frame_is_one_object_with_the_record_keys(self):
        """An entry record's plan bytes are spliced into its frame, not
        re-encoded: the frame still decodes to one JSON object with the
        record's keys, and the plan to the plan's dict."""
        entry = build_repository(generate_entry_specs(2, seed=3), seed=3).entries()[0]
        record = entry_record(entry)
        frame = encode_record({"type": "entry_added", "entry": record})
        (decoded,) = scan_frames(frame).records
        assert decoded.type == "entry_added"
        assert list(decoded.data) == ["entry"]
        assert decoded.data["entry"].keys() == record.keys()
        assert decoded.data["entry"]["plan"] == entry.plan.to_dict()
        assert decoded.data["entry"]["derived"]["operators"] == list(
            record["derived"]["operators"]
        )

    def test_key_sorted_plan_journal_still_replays(self):
        """Before the splice a frame was the whole record key-sorted,
        plan included; a journal written so replays to the same
        entries, and their plans rebuild to the recorded fingerprints."""
        repo = build_repository(generate_entry_specs(8, seed=3), seed=3)
        frames = []
        for entry in repo.entries():
            record = dict(entry_record(entry), plan=entry.plan.to_dict())
            body = json.dumps(
                {"type": "entry_added", "entry": record},
                separators=(",", ":"),
                sort_keys=True,
            )
            frames.append(encode_frame(RECORD + body.encode()))
        restored = replay(None, scan_frames(b"".join(frames)).records)
        assert [e.entry_id for e in restored.ordered_entries()] == [
            e.entry_id for e in repo.ordered_entries()
        ]
        for entry in repo.entries():
            twin = restored.get(entry.entry_id).plan
            assert twin.materialize().fingerprint() == entry.plan.fingerprint()

    def test_unknown_record_types_are_skipped(self):
        target = ReplayTarget(Repository())
        target.apply(JournalRecord(type="from_the_future", data={"x": 1}))
        assert len(target.repository) == 0

    def test_entry_refreshed_replaces_in_place(self):
        """A delta refresh journals the full post-merge entry; replay
        must update the existing entry (same id, new extents/stats)
        without duplicating it or disturbing the scan order."""
        repo = build_repository(generate_entry_specs(8, seed=3), seed=3)
        order = [e.entry_id for e in repo.ordered_entries()]
        snapshot = RepositorySnapshot.capture(repo)
        entry = repo.entries()[2]
        record = entry_record(entry)
        record["input_extents"] = {"data/pv": [4, 0, 2, 64, 123]}
        refreshed = JournalRecord.from_payload(
            {"type": "entry_refreshed", "entry": record}
        )
        restored = replay(snapshot, [refreshed, refreshed])
        assert len(restored) == len(repo)
        assert [e.entry_id for e in restored.ordered_entries()] == order
        twin = restored.get(entry.entry_id)
        assert twin.input_extents == {
            "data/pv": InputExtent(
                mtime=4, generation=0, birth=2, size=64, crc=123
            )
        }


class TestLivePersisterCrash:
    """End-to-end: a real persister journals mutations; a crash is a
    byte-level truncation of what it wrote; recovery converges."""

    def _manager(self, tmp_path):
        dfs = DistributedFileSystem()
        config = PersistenceConfig(
            snapshot_path=str(tmp_path / "repo.snap"),
            journal_path=str(tmp_path / "repo.journal"),
            backend="local",
        )
        manager = ReStoreManager(dfs)
        persister = RepositoryPersister(manager, config)
        return dfs, config, manager, persister

    def _entries(self, n=3):
        repo = build_repository(generate_entry_specs(n, seed=5), seed=5)
        return repo.entries()

    def _add(self, dfs, manager, entries):
        """Register entries the way a live run does: the output bytes
        land in the DFS first and stamp the entry, so the persister
        captures them into the log and the recovery scrub can
        verify (and restore) them instead of condemning ref-less
        entries."""
        added = []
        for entry in entries:
            dfs.write_file(
                entry.output_path, f"bytes:{entry.output_path}".encode()
            )
            entry.output_extent = dfs.input_extent(entry.output_path)
            added.append(manager.repository.add(entry))
        return added

    def test_eviction_journaled_then_crash_replays_the_eviction(
        self, tmp_path
    ):
        dfs, config, manager, persister = self._manager(tmp_path)
        added = self._add(dfs, manager, self._entries())
        manager.repository.remove(added[1].entry_id)
        # crash now: no close(), no snapshot — the journal alone must
        # carry three adds and one remove
        fresh = DistributedFileSystem()
        recovered = recover(config, fresh)
        assert len(recovered.repository) == 2
        assert not recovered.repository.has_entry(added[1].entry_id)
        assert recovered.journal_torn_bytes == 0
        assert recovered.payloads_condemned == []
        # surviving entries came back with byte-identical outputs,
        # restored natively from the log
        for entry in recovered.repository.entries():
            assert fresh.read_file(entry.output_path) == dfs.read_file(
                entry.output_path
            )

    def test_eviction_record_torn_means_entry_survives(self, tmp_path):
        dfs, config, manager, persister = self._manager(tmp_path)
        added = self._add(dfs, manager, self._entries())
        journal_path = tmp_path / "repo.journal.g0"
        before = len(journal_path.read_bytes())
        manager.repository.remove(added[1].entry_id)
        after = journal_path.read_bytes()
        # tear the eviction record mid-frame, as a crash mid-flush would
        journal_path.write_bytes(after[: before + (len(after) - before) // 2])
        recovered = recover(config, DistributedFileSystem())
        # the add was durable, the eviction wasn't: the entry is back,
        # which is safe (its stored file was never deleted first — the
        # manager removes the entry before the file)
        assert recovered.repository.has_entry(added[1].entry_id)
        assert len(recovered.repository) == 3
        assert recovered.journal_torn_bytes > 0
        # recovery repaired the tear in place: a rescan is clean
        assert not FramedLog(config.log_storage()).scan().torn

    def test_recovery_after_snapshot_rotation_plus_tail(self, tmp_path):
        dfs, config, manager, persister = self._manager(tmp_path)
        entries = self._entries(4)
        self._add(dfs, manager, entries[:2])
        persister.take_snapshot()
        self._add(dfs, manager, entries[2:])
        recovered = recover(config, DistributedFileSystem())
        assert len(recovered.repository) == 4
        assert recovered.snapshot_entries == 2
        # past the snapshot's offset: per add, one payload_stored record
        # (the segment ref) + the entry_added record
        assert recovered.journal_records == 4

    def test_kept_path_removals_replay(self, tmp_path):
        dfs, config, manager, persister = self._manager(tmp_path)
        persister.note_kept_path("tmp/s1/sj1", True)
        persister.note_kept_path("tmp/s1/sj2", True)
        persister.note_kept_path("tmp/s1/sj1", False)
        persister.flush()
        assert recover(config).kept_paths == {"tmp/s1/sj2"}

    def test_counters_record_restores_dfs_floors(self, tmp_path):
        dfs, config, manager, persister = self._manager(tmp_path)
        manager.repository.add(self._entries(1)[0])
        for _ in range(6):
            dfs.next_script_id()
        for _ in range(9):
            dfs.next_subjob_id()
        manager.clock = 3
        persister.note_workflow_end()  # journals the moved counters
        fresh = DistributedFileSystem()
        recovered = recover(config, fresh)
        assert fresh.id_state() == dfs.id_state()
        assert recovered.clock >= 3


class TestRetiredLayoutRefused:
    """A state directory from the two-file layout (format-5 snapshot,
    bare journal, block-store generations) is refused with a typed
    error that names the file: recovery neither cuts it nor recovers an
    empty repository over it."""

    @staticmethod
    def _format_5_snapshot() -> bytes:
        repo = build_repository(generate_entry_specs(3, seed=3), seed=3)
        data = bytearray(RepositorySnapshot.capture(repo).to_bytes())
        data[4] = 5  # the header's version byte
        return bytes(data)

    @pytest.mark.parametrize("backend", ["local", "dfs"])
    @pytest.mark.parametrize("retired", ["snapshot", "journal", "blocks"])
    def test_recovery_refuses_naming_the_file(self, tmp_path, backend, retired):
        root = str(tmp_path) + "/" if backend == "local" else "state/"
        config = PersistenceConfig(
            snapshot_path=root + "repo.snap",
            journal_path=root + "repo.journal",
            backend=backend,
        )
        path, data = {
            "snapshot": (config.snapshot_path, self._format_5_snapshot()),
            "journal": (config.journal_path, encode_record({"type": "counters"})),
            "blocks": (config.snapshot_path + ".blocks.g3", b"\x00" * 40),
        }[retired]
        dfs = DistributedFileSystem()
        storage = config._storage(path, dfs)
        storage.write(data)
        files = sorted(os.listdir(tmp_path)) if backend == "local" else dfs.list_paths()
        with pytest.raises(ReproError, match=re.escape(path)):
            recover(config, dfs)
        with pytest.raises(ReproError, match=re.escape(path)):
            ReStoreSession(dfs=dfs, persistence=config)
        assert storage.read() == data, "the retired file must stay as it was"
        after = sorted(os.listdir(tmp_path)) if backend == "local" else dfs.list_paths()
        assert after == files, "nothing may be written beside it"
