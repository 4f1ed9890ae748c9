"""The warm standby replica: tailing, rebasing, and lossless promotion.

A standby keeps an independent repository caught up by tailing the
primary persister's journal; promoting it must surrender nothing the
primary ever committed — zero lost reuse opportunities.
"""

from __future__ import annotations

import pytest

from repo_stream import build_repository, generate_entry_specs
from repro.core.manager import ReStoreManager
from repro.dfs.filesystem import DistributedFileSystem
from repro.events import JournalAppended
from repro.persistence.framedlog import SegmentRef, verify_ref
from repro.persistence.durability import (
    PersistenceConfig,
    RepositoryPersister,
)
from repro.persistence.standby import StandbyReplica


@pytest.fixture
def primary(tmp_path):
    dfs = DistributedFileSystem()
    config = PersistenceConfig(
        snapshot_path=str(tmp_path / "repo.snap"),
        journal_path=str(tmp_path / "repo.journal"),
        backend="local",
    )
    manager = ReStoreManager(dfs)
    persister = RepositoryPersister(manager, config)
    return dfs, manager, persister


def _entries(n, seed=5):
    return build_repository(generate_entry_specs(n, seed=seed), seed=seed).entries()


def _surface(repository):
    """The matching surface an observer can compare: scan order plus
    per-entry fingerprints."""
    return [
        (e.entry_id, e.plan.fingerprint(), e.output_path)
        for e in repository.ordered_entries()
    ]


class TestTailing:
    def test_standby_applies_live_mutations(self, primary):
        dfs, manager, persister = primary
        standby = StandbyReplica(persister)
        added = [manager.repository.add(e) for e in _entries(3)]
        assert len(standby) == 3
        manager.repository.remove(added[0].entry_id)
        assert len(standby) == 2
        assert not standby.repository.has_entry(added[0].entry_id)
        standby.close()

    def test_standby_rebases_after_snapshot_rotation(self, primary):
        dfs, manager, persister = primary
        standby = StandbyReplica(persister)
        for entry in _entries(2):
            manager.repository.add(entry)
        persister.take_snapshot()  # journal resets; standby must rebase
        for entry in _entries(2, seed=9)[:1]:
            entry.entry_id = ""  # fresh id past the snapshot's counter
            manager.repository.add(entry)
        assert len(standby) == 3
        assert _surface(standby.repository) == _surface(manager.repository)
        standby.close()

    def test_catch_up_reads_only_the_new_commit(self):
        """Tailing a commit costs the commit's bytes, not the log's."""
        dfs = DistributedFileSystem()
        manager = ReStoreManager(dfs)
        persister = RepositoryPersister(manager, PersistenceConfig())
        standby = StandbyReplica(persister)
        added = [manager.repository.add(e) for e in _entries(3)]
        appended = []
        persister.events.subscribe(appended.append, event_types=(JournalAppended,))
        before = dfs.bytes_read
        manager.repository.remove(added[0].entry_id)
        assert len(standby) == 2 and len(appended) == 1
        assert dfs.bytes_read - before == appended[0].bytes < persister.log.end
        standby.close()

    def test_late_attaching_standby_catches_up(self, primary):
        dfs, manager, persister = primary
        for entry in _entries(3):
            manager.repository.add(entry)
        persister.take_snapshot()
        extra = _entries(1, seed=11)[0]
        extra.entry_id = ""  # fresh id past the snapshot's counter
        manager.repository.add(extra)
        # attaches after all of the above already happened
        standby = StandbyReplica(persister)
        assert len(standby) == 4
        standby.close()

    def test_kept_paths_tail_through(self, primary):
        dfs, manager, persister = primary
        standby = StandbyReplica(persister)
        persister.note_kept_path("tmp/s1/sj1", True)
        persister.note_kept_path("tmp/s1/sj2", True)
        persister.note_kept_path("tmp/s1/sj1", False)
        persister.flush()
        standby.catch_up()
        assert standby.kept_paths == {"tmp/s1/sj2"}
        standby.close()


class TestPromotion:
    def test_promotion_loses_nothing(self, primary):
        dfs, manager, persister = primary
        standby = StandbyReplica(persister)
        for entry in _entries(5):
            manager.repository.add(entry)
        manager.repository.remove(manager.repository.entries()[1].entry_id)
        state = standby.promote()
        assert _surface(state.repository) == _surface(manager.repository)
        standby.close()

    def test_promotion_drains_the_primary_buffer(self, primary):
        dfs, manager, persister = primary
        persister.config.flush_every = 100  # force buffering
        standby = StandbyReplica(persister)
        for entry in _entries(3):
            manager.repository.add(entry)
        # nothing flushed yet: the standby legitimately sees nothing
        assert len(standby) == 0
        state = standby.promote()  # promote must flush, then catch up
        assert len(state.repository) == 3
        assert _surface(state.repository) == _surface(manager.repository)
        standby.close()

    def test_rebase_and_mid_submission_promotion_across_rotation_by_reference(
        self, primary
    ):
        """The rotation copies no payload, so the refs the replica
        rebases onto are the primary's own; and promoting while a
        submission is open must commit its staged payload *bytes*, not
        only its records — the promoted refs have to verify."""
        dfs, manager, persister = primary
        standby = StandbyReplica(persister)
        entries = _entries(4)
        for entry in entries:
            # payloads that outweigh their records: the rotation finds
            # less dead than live, and carries the refs as they are
            payload = f"bytes:{entry.output_path}".encode() * 200
            dfs.write_file(entry.output_path, payload)
            entry.output_extent = dfs.input_extent(entry.output_path)
        for entry in entries[:2]:
            manager.repository.add(entry)
        log_bytes = persister.log.size()
        persister.take_snapshot()  # by reference: the standby rebases
        assert persister.log.size() == log_bytes
        assert len(standby) == 2
        persister.note_workflow_start()  # a submission opens: stage only
        for entry in entries[2:]:
            manager.repository.add(entry)
        assert persister.buffered_records == 4 and len(standby) == 2
        assert persister.log.size() == log_bytes, "payload bytes are staged"
        state = standby.promote()  # mid-submission: the drain commits
        assert _surface(state.repository) == _surface(manager.repository)
        assert persister.buffered_records == 0
        scan = persister.log.scan()
        assert set(state.payload_refs) == {e.output_path for e in entries}
        for path, raw in state.payload_refs.items():
            ref = SegmentRef.from_list(raw)
            assert ref == persister._payload_refs[path]
            assert verify_ref(scan, ref, path) == f"bytes:{path}".encode() * 200
        persister.note_workflow_end()
        standby.close()

    def test_promoted_state_drives_a_new_manager(self, primary):
        dfs, manager, persister = primary
        standby = StandbyReplica(persister)
        for entry in _entries(4):
            manager.repository.add(entry)
        persister.note_kept_path("bench/stored/e00001", True)
        persister.flush()
        state = standby.promote()
        successor = ReStoreManager(
            DistributedFileSystem(),
            repository=state.repository,
        )
        successor.kept_paths.update(state.kept_paths)
        assert _surface(successor.repository) == _surface(manager.repository)
        assert "bench/stored/e00001" in successor.kept_paths
        standby.close()

    def test_closed_standby_stops_tailing(self, primary):
        dfs, manager, persister = primary
        standby = StandbyReplica(persister)
        entries = _entries(2)
        manager.repository.add(entries[0])
        standby.close()
        manager.repository.add(entries[1])
        assert len(standby) == 1  # frozen at close time
