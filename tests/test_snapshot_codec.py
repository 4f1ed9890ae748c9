"""The versioned snapshot codec: capture, restore, laziness, hygiene.

A snapshot must rebuild a byte-identical matching surface — same
entries, same fingerprints, same §3 scan order — in O(entries read),
without re-registering a single plan, and post-restore id allocation
must never collide with persisted state.
"""

from __future__ import annotations


import pytest

from repo_stream import (
    FULL_GRID_ENTRIES,
    build_repository,
    generate_entry_specs,
    generate_probe_specs,
    match_stream,
)
from test_fingerprint_index import assert_index_consistent

from repro.core.repository import Repository
from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.namenode import InputExtent
from repro.persistence.durability import (
    PersistenceConfig,
    derive_id_floors,
    recover,
)
from repro.persistence.snapshot import (
    LazyPlan,
    RepositorySnapshot,
    SnapshotError,
    entry_from_record,
    entry_record,
)


@pytest.fixture
def repository() -> Repository:
    repo = build_repository(generate_entry_specs(24, seed=7), seed=7)
    repo.ordered_entries()  # integrate the pending order, like a session
    return repo


def roundtrip(repository: Repository, **capture_kwargs) -> RepositorySnapshot:
    data = RepositorySnapshot.capture(repository, **capture_kwargs).to_bytes()
    return RepositorySnapshot.from_bytes(data)


class TestRoundTrip:
    def test_entries_and_fingerprints_survive(self, repository):
        restored = roundtrip(repository).restore_repository()
        assert len(restored) == len(repository)
        for entry in repository.entries():
            twin = restored.get(entry.entry_id)
            assert twin.plan.fingerprint() == entry.plan.fingerprint()
            assert twin.output_path == entry.output_path
            assert twin.stats.exec_time_s == entry.stats.exec_time_s
            assert twin.input_extents == entry.input_extents

    def test_scan_order_is_identical(self, repository):
        restored = roundtrip(repository).restore_repository()
        assert [e.entry_id for e in restored.ordered_entries()] == [
            e.entry_id for e in repository.ordered_entries()
        ]

    def test_restore_spends_zero_matcher_traversals(self, repository):
        restored = roundtrip(repository).restore_repository()
        restored.ordered_entries()
        assert restored.index_stats.subsume_checks == 0
        assert restored.index_stats.batch_entries == 0

    def test_retired_state_keys_are_not_written_and_still_load(self, repository):
        snapshot = roundtrip(repository)
        assert not {"n_shards", "ordering_enabled"} & set(snapshot.repository_state)
        # a snapshot written before the keys were retired carries both
        snapshot.repository_state["n_shards"] = 3
        snapshot.repository_state["ordering_enabled"] = False
        restored = snapshot.restore_repository()
        assert_index_consistent(restored)
        assert [e.entry_id for e in restored.ordered_entries()] == [
            e.entry_id for e in repository.ordered_entries()
        ]

    def test_restored_repository_makes_the_originals_decisions(self):
        """Same entries matched in the same order, same rewritten-plan
        fingerprints — on a stream that does rewrite."""
        entry_specs = generate_entry_specs(FULL_GRID_ENTRIES, seed=13)
        probe_specs = generate_probe_specs(entry_specs, 20, seed=13)
        dfs = DistributedFileSystem()
        original = build_repository(entry_specs, 13, dfs, probe_specs)
        original.ordered_entries()
        restored = roundtrip(original).restore_repository()
        after = match_stream(restored, dfs, probe_specs)
        before = match_stream(original, dfs, probe_specs)
        assert after.decisions == before.decisions
        assert before.rewrites >= len(probe_specs) // 2

    def test_manager_and_dfs_state_travel(self, repository):
        snapshot = roundtrip(
            repository,
            kept_paths={"tmp/s3/sj7", "tmp/s3/sj9"},
            clock=42,
            dfs_ids={"next_script_id": 4, "next_subjob_id": 10},
        )
        assert snapshot.manager_state == {
            "kept_paths": ["tmp/s3/sj7", "tmp/s3/sj9"],
            "clock": 42,
        }
        assert snapshot.dfs_state == {"next_script_id": 4, "next_subjob_id": 10}

    def test_pending_order_state_is_faithful(self):
        # capture *without* flushing: the pending set must survive so
        # the restored repository owes exactly what the original owed
        repo = build_repository(generate_entry_specs(6, seed=3), seed=3)
        restored = roundtrip(repo).restore_repository()
        restored.ordered_entries()
        # the restored repository paid the ordering work the original
        # still owed (in one flush)
        assert restored.index_stats.batch_entries == 6
        assert [e.entry_id for e in restored.ordered_entries()] == [
            e.entry_id for e in repo.ordered_entries()
        ]


class TestValidation:
    def test_bad_magic_rejected(self, repository):
        data = RepositorySnapshot.capture(repository).to_bytes()
        with pytest.raises(SnapshotError, match="magic"):
            RepositorySnapshot.from_bytes(b"XXXX" + data[4:])

    def test_truncated_body_rejected(self, repository):
        data = RepositorySnapshot.capture(repository).to_bytes()
        with pytest.raises(SnapshotError, match="truncated"):
            RepositorySnapshot.from_bytes(data[: len(data) // 2])

    def test_bit_rot_rejected(self, repository):
        data = bytearray(RepositorySnapshot.capture(repository).to_bytes())
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(SnapshotError, match="checksum"):
            RepositorySnapshot.from_bytes(bytes(data))

    def test_newer_version_rejected(self, repository):
        snapshot = RepositorySnapshot.capture(repository)
        snapshot.payload["version"] = 99
        with pytest.raises(SnapshotError, match="newer"):
            RepositorySnapshot.from_bytes(snapshot.to_bytes())

    def test_older_version_refused_naming_the_supported_one(self, repository):
        data = bytearray(RepositorySnapshot.capture(repository).to_bytes())
        data[4] = 3  # the header's version byte
        with pytest.raises(SnapshotError, match="supports version 4 only"):
            RepositorySnapshot.from_bytes(bytes(data))
        snapshot = RepositorySnapshot.capture(repository)
        snapshot.payload["version"] = 3
        with pytest.raises(SnapshotError, match="supports version 4 only"):
            RepositorySnapshot.from_bytes(snapshot.to_bytes())

    def test_snapshot_without_order_state_is_malformed(self, repository):
        snapshot = roundtrip(repository)
        del snapshot.repository_state["order"]
        with pytest.raises(SnapshotError, match="order"):
            RepositorySnapshot.from_bytes(snapshot.to_bytes()).restore_repository()


class TestLazyPlan:
    def test_metadata_served_without_materializing(self, repository):
        restored = roundtrip(repository).restore_repository()
        entry = restored.entries()[0]
        original = repository.get(entry.entry_id)
        assert isinstance(entry.plan, LazyPlan)
        assert entry.plan.fingerprint() == original.plan.fingerprint()
        assert (
            entry.plan.load_signature_set()
            == original.plan.load_signature_set()
        )
        assert (
            entry.plan.signature_counts() == original.plan.signature_counts()
        )
        assert not entry.plan.materialized

    def test_structural_access_materializes_real_plan(self, repository):
        restored = roundtrip(repository).restore_repository()
        entry = restored.entries()[0]
        original = repository.get(entry.entry_id)
        assert len(entry.plan) == len(original.plan)  # forces the rebuild
        assert entry.plan.materialized
        assert entry.plan.to_dict() == original.plan.to_dict()

    def test_fingerprint_mismatch_is_corruption(self, repository):
        record = entry_record(repository.entries()[0])
        record["derived"]["fingerprint"] = "fp_bogus"
        entry = entry_from_record(record)
        assert entry.plan.fingerprint() == "fp_bogus"  # metadata as stored
        with pytest.raises(SnapshotError, match="mismatch"):
            entry.plan.materialize()


class TestIdHygiene:
    def test_new_entry_ids_resume_past_persisted(self, repository):
        restored = roundtrip(repository).restore_repository()
        top = max(e.entry_id for e in repository.entries())
        fresh = restored.add(entry_from_record(_unowned_record(repository)))
        assert fresh.entry_id > top

    def test_dfs_id_floors_pushed_on_recover(self, tmp_path):
        repo = build_repository(generate_entry_specs(4, seed=5), seed=5)
        repo.ordered_entries()
        snapshot = RepositorySnapshot.capture(
            repo, dfs_ids={"next_script_id": 40, "next_subjob_id": 90}
        )
        config = PersistenceConfig(
            snapshot_path=str(tmp_path / "r.snap"),
            journal_path=str(tmp_path / "r.journal"),
            backend="local",
        )
        config.snapshot_storage().write(snapshot.to_bytes())
        dfs = DistributedFileSystem()
        # a legacy (pre-block-store) snapshot carries no payload refs:
        # the recovery scrub tolerates its entries only while their
        # output bytes are present, so stage them like a live DFS
        for entry in repo.entries():
            dfs.write_file(entry.output_path, b"x")
        recovered = recover(config, dfs)
        assert len(recovered.repository) == 4
        assert recovered.payloads_legacy == 4
        assert dfs.id_state()["next_script_id"] >= 40
        assert dfs.id_state()["next_subjob_id"] >= 90
        # allocation after recovery starts past the persisted floor
        assert int(dfs.next_script_id()) >= 40

    def test_floors_derived_from_entry_paths(self):
        repo = Repository()
        spec_repo = build_repository(generate_entry_specs(2, seed=9), seed=9)
        for i, entry in enumerate(spec_repo.entries()):
            record = entry_record(entry)
            record["entry_id"] = ""
            record["output_path"] = f"tmp/s{7 + i}/sj{30 + i}"
            repo.add(entry_from_record(record))
        floors = derive_id_floors(repo)
        assert floors == {"next_script_id": 9, "next_subjob_id": 32}


def _unowned_record(repository: Repository) -> dict:
    """An entry record with no id, forcing the repository to assign."""
    record = entry_record(repository.entries()[0])
    record["entry_id"] = ""
    record["output_path"] = "bench/stored/fresh"
    return record


class TestInputExtentsColumn:

    def _with_extents(self, repository: Repository) -> Repository:
        for i, entry in enumerate(repository.entries()[:3]):
            entry.input_extents["data/pv"] = InputExtent(
                mtime=10 + i,
                generation=i,
                birth=5 + i,
                size=100 * (i + 1),
                # crc is optional in the wire form: None must survive too
                crc=None if i == 0 else 0xBEEF + i,
            )
        return repository

    def test_extents_round_trip(self, repository):
        source = self._with_extents(repository)
        restored = roundtrip(source).restore_repository()
        for entry in source.entries():
            assert restored.get(entry.entry_id).input_extents == (
                entry.input_extents
            )

    def test_entry_record_round_trips_extents(self, repository):
        source = self._with_extents(repository)
        for entry in source.entries()[:3]:
            twin = entry_from_record(entry_record(entry))
            assert twin.input_extents == entry.input_extents
