"""Crash recovery through the records of the append-only log.

The framing contract: a crash can tear the log at *any* byte, and
recovery must replay every record before the tear, drop the tear
without guessing, and converge to the same state no matter how many
times the same records are replayed.
"""

from __future__ import annotations

import os
import re

import pytest

from repo_stream import attach, build_repository, checkpointed, generate_entry_specs
from repro.core.repository import Repository
from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.namenode import InputExtent
from repro.exceptions import ReproError
from repro.persistence.durability import PersistenceConfig, ReplayTarget, recover
from repro.persistence.framedlog import (
    FramedLog,
    JournalRecord,
    LogError,
    encode_record,
    scan_frames,
)
from repro.persistence.snapshot import entry_record
from repro.session import ReStoreSession
from test_framedlog import JOURNAL, TornWriteSweep


#: a plan ref for a replayed record (replay never reads the segment:
#: recovery's scrub verifies it)
REF = [0, 0, 0, 0]


def replay(repository, records) -> Repository:
    """The repository a journal replay of *records* over a checkpoint of
    *repository* reaches (the pipeline recovery runs; ``None``: no
    checkpoint)."""
    if repository is None:
        target = ReplayTarget.from_checkpoint(None)
    else:
        target = ReplayTarget(checkpointed(repository).repository)
    for record in records:
        target.apply(record)
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
        victim = repo.entries()[2]
        records = [
            JournalRecord.from_payload(
                {"type": "entry_added", "entry": entry_record(victim), "ref": REF}
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
        once = replay(repo, records)
        twice = replay(repo, records + records)
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
        order = [e.entry_id for e in repo.ordered_entries()]
        readd = JournalRecord.from_payload(
            {
                "type": "entry_added",
                "entry": entry_record(repo.entries()[4]),
                "ref": REF,
            }
        )
        restored = replay(repo, [readd])
        assert [e.entry_id for e in restored.ordered_entries()] == order

    def test_entry_record_with_a_retired_key_replays(self):
        """An entry record holding a key no reader uses any more (the
        retired second input-identity column) replays: the extra key is
        ignored and ids, scan order and extents come back the same."""
        repo = build_repository(generate_entry_specs(8, seed=3), seed=3)
        payloads = []
        for entry in repo.entries():
            record = entry_record(entry)
            record["input_mtimes"] = {
                path: extent.mtime for path, extent in entry.input_extents.items()
            }
            payloads.append({"type": "entry_added", "entry": record, "ref": REF})
        journal = scan_frames(b"".join(map(encode_record, payloads)))
        restored = replay(None, journal.records)
        assert [e.entry_id for e in restored.ordered_entries()] == [
            e.entry_id for e in repo.ordered_entries()
        ]
        for entry in repo.entries():
            assert restored.get(entry.entry_id).input_extents == entry.input_extents

    def test_entry_record_carries_a_plan_ref_not_the_plan(self, tmp_path):
        """An entry record is plain key-sorted JSON: the plan's bytes are
        a segment named by its fingerprint, written in the same commit,
        and the record carries its ref."""
        dfs, config, manager, persister = TestLivePersisterCrash()._manager(tmp_path)
        entry = build_repository(generate_entry_specs(2, seed=3), seed=3).entries()[0]
        manager.repository.add(entry)
        scan = persister.log.scan()
        (record,) = [r for r in scan.records if r.type == "entry_added"]
        assert list(record.data) == ["entry", "path", "ref"]
        assert "plan" not in record.data["entry"]
        assert record.data["path"] == entry.plan.fingerprint()
        ((length, (name, plan)),) = [
            frame for frame in scan.frames.values() if isinstance(frame[1], tuple)
        ]
        assert name == entry.plan.fingerprint() and plan == entry.plan.to_json()
        assert record.data["ref"][2] == length

    def test_entry_record_without_a_plan_ref_is_refused(self, tmp_path):
        """A log written before plans were segments inlines each plan in
        its entry record: recovery refuses it, naming the file, before
        anything is cut or appended (no converter)."""
        repo = build_repository(generate_entry_specs(3, seed=3), seed=3)
        config = PersistenceConfig(
            snapshot_path=str(tmp_path / "repo.snap"),
            journal_path=str(tmp_path / "repo.journal"),
            backend="local",
        )
        records = [
            {
                "type": "entry_added",
                "entry": dict(entry_record(entry), plan=entry.plan.to_dict()),
            }
            for entry in repo.entries()
        ]
        log = FramedLog(config.log_storage())
        log.append_frames(encode_record(*records) + b"\x00\x00")  # and a torn tail
        log.close()
        before = (tmp_path / "repo.journal.g0").read_bytes()
        name = re.escape(config.log_file(0))
        with pytest.raises(LogError, match=f"{name}: .*without a plan ref"):
            recover(config)
        assert (tmp_path / "repo.journal.g0").read_bytes() == before

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
        entry = repo.entries()[2]
        record = entry_record(entry)
        record["input_extents"] = {"data/pv": [4, 0, 2, 64, 123]}
        refreshed = JournalRecord.from_payload(
            {"type": "entry_refreshed", "entry": record, "ref": REF}
        )
        restored = replay(repo, [refreshed, refreshed])
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
        manager, persister = attach(config, dfs)
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
        assert recovered.checkpoint_entries == 2
        # past the checkpoint: per add, one payload_stored record (the
        # segment ref) + the entry_added record
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
    """A state directory holding a file of a retired layout (a snapshot
    file of any format, a bare journal, block-store generations) is
    refused with a typed error that names the file: recovery neither
    cuts it nor recovers an empty repository over it."""

    #: the header of a format-6 snapshot file (magic, version byte)
    RSNP = b"RSNP\x06" + b"\x00" * 12

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
            "snapshot": (config.snapshot_path, self.RSNP),
            "journal": (config.journal_path, encode_record({"type": "counters"})),
            "blocks": (config.snapshot_path + ".blocks.g3", b"\x00" * 40),
        }[retired]
        dfs = DistributedFileSystem()
        storage = config._storage(path, dfs)
        storage.append(data)
        storage.close()
        files = sorted(os.listdir(tmp_path)) if backend == "local" else dfs.list_paths()
        with pytest.raises(ReproError, match=re.escape(path)):
            recover(config, dfs)
        with pytest.raises(ReproError, match=re.escape(path)):
            ReStoreSession(dfs=dfs, persistence=config)
        assert storage.read() == data, "the retired file must stay as it was"
        after = sorted(os.listdir(tmp_path)) if backend == "local" else dfs.list_paths()
        assert after == files, "nothing may be written beside it"
