"""The versioned snapshot codec: capture, restore, laziness, hygiene.

A snapshot must rebuild a byte-identical matching surface — same
entries, same fingerprints, same §3 scan order — in O(entries read),
without re-registering a single plan, and post-restore id allocation
must never collide with persisted state.
"""

from __future__ import annotations

import json
import struct
import zlib
from collections import Counter

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
    ReplayTarget,
    derive_id_floors,
    recover,
)
from repro.persistence.framedlog import JournalRecord
from repro.persistence.snapshot import (
    LazyPlan,
    RepositorySnapshot,
    SnapshotError,
    entry_from_record,
    entry_record,
)
from repro.pig.physical.operators import POLoad, POStore
from repro.pig.physical.plan import PhysicalPlan
from repro.session import ReStoreSession


@pytest.fixture
def repository() -> Repository:
    return build_repository(generate_entry_specs(24, seed=7), seed=7)


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
        assert restored.subsumption_pairs() == repository.subsumption_pairs()
        assert repository.subsumption_pairs()
        restored.ordered_entries()
        # the pairs came from the recorded fingerprints: no plan rebuilt
        assert not any(entry.plan.materialized for entry in restored.entries())

    def test_retired_state_keys_are_not_written_and_still_load(self, repository):
        snapshot = roundtrip(repository)
        retired = {"n_shards", "ordering_enabled", "order"}
        assert not retired & set(snapshot.repository_state)
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
        for entry in restored.entries():
            # no output stamp travels: the recovery scrub stamps the
            # outputs it verifies, as here the files it never left
            entry.output_extent = dfs.input_extent(entry.output_path)
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


class TestValidation:
    def test_bad_magic_rejected(self, repository):
        data = RepositorySnapshot.capture(repository).to_bytes()
        with pytest.raises(SnapshotError, match="magic"):
            RepositorySnapshot.from_bytes(b"XXXX" + data[4:])

    def test_truncated_body_rejected(self, repository):
        data = RepositorySnapshot.capture(repository).to_bytes()
        with pytest.raises(SnapshotError, match="truncated"):
            RepositorySnapshot.from_bytes(data[: len(data) // 2])

    def test_trailing_bytes_rejected(self, repository):
        for source in (Repository(), repository):
            data = RepositorySnapshot.capture(source).to_bytes()
            assert len(RepositorySnapshot.from_bytes(data)) == len(source)
            with pytest.raises(SnapshotError, match="7 trailing bytes"):
                RepositorySnapshot.from_bytes(data + b"garbage")

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
        for version in (3, 4, 5):
            data = bytearray(RepositorySnapshot.capture(repository).to_bytes())
            data[4] = version  # the header's version byte
            with pytest.raises(SnapshotError, match="supports version 6 only"):
                RepositorySnapshot.from_bytes(bytes(data))
            snapshot = RepositorySnapshot.capture(repository)
            snapshot.payload["version"] = version
            with pytest.raises(SnapshotError, match="supports version 6 only"):
                RepositorySnapshot.from_bytes(snapshot.to_bytes())

    def test_format_4_state_is_refused_not_converted(self, repository):
        """Format 4 recorded load signatures and signature multisets
        (what candidate pruning needed) and the §3 order.  Its snapshot
        and its journal records are refused with a typed error."""
        snapshot = RepositorySnapshot.capture(repository)
        payload = snapshot.payload
        payload["version"] = 4
        payload["repository"]["order"] = {"scores": {}, "subsumes": {}, "pending": []}
        for row in payload["repository"]["entries"]:
            row[11:13] = [["load-sig"], {"sig": 1}]
        index = json.dumps(payload, separators=(",", ":")).encode()
        body = index + snapshot.cold
        crc = zlib.crc32(body)
        header = struct.pack(">4sBIII", b"RSNP", 4, crc, len(index), len(body))
        with pytest.raises(SnapshotError, match="supports version 6 only"):
            RepositorySnapshot.from_bytes(header + body)

        record = entry_record(repository.entries()[0])
        record["derived"] = {
            "fingerprint": record["derived"]["fingerprint"],
            "load_sigs": ["load-sig"],
            "sig_counts": {"sig": 1},
        }
        added = JournalRecord.from_payload({"type": "entry_added", "entry": record})
        target = ReplayTarget(Repository())
        with pytest.raises(SnapshotError, match="older format"):
            target.apply(added)
        assert len(target.repository) == 0


class TestLazyPlan:
    def test_metadata_served_without_materializing(self, repository):
        restored = roundtrip(repository).restore_repository()
        entry = restored.entries()[0]
        original = repository.get(entry.entry_id)
        assert isinstance(entry.plan, LazyPlan)
        assert entry.plan.fingerprint() == original.plan.fingerprint()
        assert (
            entry.plan.frontier_fingerprint() == original.plan.frontier_fingerprint()
        )
        assert entry.plan.operator_fingerprints() == set(
            original.plan.operator_fingerprints()
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


SCRIPT = """
A = load 'pv' as (user, action:int, rev:double);
B = filter A by rev > 1.0;
C = group B by user;
D = foreach C generate group, COUNT(B);
store D into 'OUT';
"""
PV = "alice\t1\t1.5\nbob\t2\t4.0\nalice\t3\t2.5\ncarol\t1\t0.5\n"


def durable_config(tmp_path) -> PersistenceConfig:
    return PersistenceConfig(
        snapshot_path=str(tmp_path / "r.snap"),
        journal_path=str(tmp_path / "r.journal"),
        backend="local",
    )


def run_script(session: ReStoreSession) -> None:
    session.write_file("pv", PV)
    session.run(SCRIPT.replace("OUT", "out/one"))
    session.run(SCRIPT.replace("OUT", "out/two"))


@pytest.fixture
def encodes(monkeypatch) -> Counter:
    """``PhysicalPlan.to_dict`` calls (the encoder's work), per plan."""
    counts: Counter = Counter()
    to_dict = PhysicalPlan.to_dict

    def counted(plan):
        counts[id(plan)] += 1
        return to_dict(plan)

    monkeypatch.setattr(PhysicalPlan, "to_dict", counted)
    return counts


class TestEncodedOnce:
    """A stored plan is encoded at most once: every journal record and
    snapshot rotation after that reuses the same bytes."""

    def test_rotations_encode_each_plan_once(self, repository, encodes):
        plans = [entry.plan for entry in repository.entries()]
        assert len(plans) >= 3
        first = RepositorySnapshot.capture(repository)
        assert sum(encodes.values()) == len(plans)
        for _ in range(3):
            assert RepositorySnapshot.capture(repository).cold == first.cold
        assert encodes == Counter(id(plan) for plan in plans)

    def test_mutation_after_encode_re_encodes(self, repository):
        plan = PhysicalPlan.from_dict(repository.entries()[0].plan.to_dict())
        before = plan.to_json()
        assert plan.to_json() is before  # cached
        load = plan.add(POLoad("data/extra", plan.loads()[0].schema))
        assert plan.to_json() != before
        store = plan.add(POStore("out/extra"))
        added = plan.to_json()
        plan.connect(load, store)
        assert plan.to_json() != added
        fresh = json.dumps(plan.to_dict(), separators=(",", ":")).encode()
        assert plan.to_json() == fresh

    def test_restored_entries_rotate_without_parsing(self, repository, monkeypatch):
        original = RepositorySnapshot.capture(repository)
        data = original.to_bytes()
        restored = RepositorySnapshot.from_bytes(data).restore_repository()

        def parse(plan):
            raise AssertionError(f"{plan!r} parsed to rotate")

        monkeypatch.setattr(LazyPlan, "_plan_data", parse)
        rotated = RepositorySnapshot.capture(restored)
        assert len(rotated) == len(repository) > 0
        assert rotated.cold == original.cold
        assert not any(entry.plan.materialized for entry in restored.entries())

    def test_journal_replayed_entries_rotate_into_the_live_bytes(self, tmp_path):
        config = durable_config(tmp_path)
        session = ReStoreSession(persistence=config)
        run_script(session)
        live = RepositorySnapshot.capture(session.repository)
        session.close()  # journal only: no snapshot rotates
        assert not config.snapshot_storage().exists()
        recovered = recover(config, session.dfs)
        assert recovered.journal_records > 0
        replayed = RepositorySnapshot.capture(recovered.repository)
        assert len(replayed) == len(live) > 0
        assert replayed.cold == live.cold

    def test_only_a_persister_encodes(self, tmp_path, encodes):
        with ReStoreSession() as session:
            run_script(session)
            assert len(session.repository) > 0
        assert not encodes
        # the same runs under a persister encode every stored plan once
        with ReStoreSession(persistence=durable_config(tmp_path)) as session:
            run_script(session)
            stored = [entry.plan for entry in session.repository.entries()]
        assert stored
        assert encodes == Counter(id(plan) for plan in stored)
