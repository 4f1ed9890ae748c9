"""The checkpoint a rotation appends: restore, laziness, hygiene.

A checkpoint must rebuild a byte-identical matching surface — same
entries, same fingerprints, same §3 scan order — in O(entries read),
without re-registering a single plan, and post-restore id allocation
must never collide with persisted state.  A stored plan is a log
segment, encoded once and never parsed to rotate.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace

import pytest

from repo_stream import (
    FULL_GRID_ENTRIES,
    attach,
    build_repository,
    checkpointed,
    generate_entry_specs,
    generate_probe_specs,
    match_stream,
)
from test_fingerprint_index import assert_index_consistent

from repro.core.repository import Repository
from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.namenode import InputExtent
from repro.events import EntryRefreshed
from repro.persistence.durability import (
    PersistenceConfig,
    ReplayTarget,
    derive_id_floors,
    recover,
)
from repro.persistence import persister as persister_module
from repro.persistence.framedlog import FramedLog, JournalRecord, encode_checkpoint
from repro.persistence.snapshot import (
    IndexState,
    LazyPlan,
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


def restored(repository: Repository, **state) -> Repository:
    return checkpointed(repository, **state).repository


def unborn(extents: dict) -> dict:
    """*extents* as recovery returns them: births are process-local."""
    return {path: replace(extent, birth=0) for path, extent in extents.items()}


def durable_config(tmp_path) -> PersistenceConfig:
    return PersistenceConfig(
        snapshot_path=str(tmp_path / "r.snap"),
        journal_path=str(tmp_path / "r.journal"),
        backend="local",
    )


def last_checkpoint(config: PersistenceConfig, gen: int = 0) -> dict:
    return FramedLog(config.log_storage(gen=gen), gen).scan().checkpoint


class TestRoundTrip:
    def test_entries_and_fingerprints_survive(self, repository):
        twin_repository = restored(repository)
        assert len(twin_repository) == len(repository)
        for entry in repository.entries():
            twin = twin_repository.get(entry.entry_id)
            assert twin.plan.fingerprint() == entry.plan.fingerprint()
            assert twin.output_path == entry.output_path
            assert twin.stats.exec_time_s == entry.stats.exec_time_s
            assert twin.input_extents == unborn(entry.input_extents)

    def test_scan_order_is_identical(self, repository):
        assert [e.entry_id for e in restored(repository).ordered_entries()] == [
            e.entry_id for e in repository.ordered_entries()
        ]

    def test_restore_spends_zero_matcher_traversals(self, repository):
        twin = restored(repository)
        assert twin.subsumption_pairs() == repository.subsumption_pairs()
        assert repository.subsumption_pairs()
        twin.ordered_entries()
        # the pairs came from the recorded fingerprints: no plan rebuilt
        assert not any(entry.plan.materialized for entry in twin.entries())
        assert_index_consistent(twin)

    def test_checkpoint_holds_the_counters_and_no_retired_key(
        self, repository, tmp_path
    ):
        config = durable_config(tmp_path)
        _, persister = attach(config, entries=repository.entries())
        persister.take_snapshot()
        checkpoint = last_checkpoint(config)
        assert set(checkpoint["repository"]) == {"id_counter", "seq_counter", "seq"}
        assert len(checkpoint["entries"]) == len(repository)
        # the plan is a segment: a row carries its ref, not its bytes
        assert all(set(row) == {"entry", "ref"} for row in checkpoint["entries"])
        assert not any("plan" in row["entry"] for row in checkpoint["entries"])

    def test_restored_repository_makes_the_originals_decisions(self):
        """Same entries matched in the same order, same rewritten-plan
        fingerprints — on a stream that does rewrite."""
        entry_specs = generate_entry_specs(FULL_GRID_ENTRIES, seed=13)
        probe_specs = generate_probe_specs(entry_specs, 20, seed=13)
        dfs = DistributedFileSystem()
        original = build_repository(entry_specs, 13, dfs, probe_specs)
        original.ordered_entries()
        twin = restored(original)
        for entry in twin.entries():
            # no output stamp travels: the recovery scrub stamps the
            # outputs it verifies, as here the files it never left
            entry.output_extent = dfs.input_extent(entry.output_path)
        after = match_stream(twin, dfs, probe_specs)
        before = match_stream(original, dfs, probe_specs)
        assert after.decisions == before.decisions
        assert before.rewrites >= len(probe_specs) // 2

    def test_manager_and_dfs_state_travel(self, repository):
        state = checkpointed(
            repository,
            kept_paths={"tmp/s3/sj7", "tmp/s3/sj9"},
            clock=42,
            dfs_ids={"next_script_id": 4, "next_subjob_id": 10},
        )
        assert state.kept_paths == {"tmp/s3/sj7", "tmp/s3/sj9"}
        assert state.clock == 42
        assert state.id_floors["next_script_id"] >= 4
        assert state.id_floors["next_subjob_id"] >= 10
        assert state.checkpoint_entries == len(repository)


class TestOlderFormatsRefused:
    def test_entry_record_without_derived_keys_is_refused(self, repository):
        """Format 4 recorded load signatures and signature multisets
        instead of the derived frontier and operators: its records are
        refused with a typed error, not converted."""
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
        entry = restored(repository).entries()[0]
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
        # the segment's bytes, copied out of the scan's buffer
        assert type(entry.plan.to_json()) is bytes
        assert entry.plan.to_json() == original.plan.to_json()

    def test_structural_access_materializes_real_plan(self, repository):
        entry = restored(repository).entries()[0]
        original = repository.get(entry.entry_id)
        assert len(entry.plan) == len(original.plan)  # forces the rebuild
        assert entry.plan.materialized
        assert entry.plan.to_dict() == original.plan.to_dict()

    def test_fingerprint_mismatch_is_corruption(self, repository):
        original = repository.entries()[0]
        record = entry_record(original)
        record["derived"]["fingerprint"] = "fp_bogus"
        entry = entry_from_record(record)
        entry.plan.json = original.plan.to_json()
        assert entry.plan.fingerprint() == "fp_bogus"  # metadata as stored
        with pytest.raises(SnapshotError, match="mismatch"):
            entry.plan.materialize()


class TestIdHygiene:
    def test_new_entry_ids_resume_past_persisted(self, repository):
        twin = restored(repository)
        top = max(e.entry_id for e in repository.entries())
        fresh = twin.add(entry_from_record(_unowned_record(repository)))
        assert fresh.entry_id > top

    def test_dfs_id_floors_pushed_on_recover(self, tmp_path):
        repo = build_repository(generate_entry_specs(4, seed=5), seed=5)
        repo.ordered_entries()
        config = durable_config(tmp_path)
        dfs = DistributedFileSystem()
        dfs.ensure_id_floor(next_script_id=40, next_subjob_id=90)
        _, persister = attach(config, dfs, repo.entries())
        persister.take_snapshot()
        persister.close()
        fresh = DistributedFileSystem()
        # no output was ever written, so no payload was captured: the
        # scrub tolerates the entries only while their bytes are present
        for entry in repo.entries():
            fresh.write_file(entry.output_path, b"x")
        recovered = recover(config, fresh)
        assert len(recovered.repository) == 4
        assert recovered.payloads_legacy == 4
        assert fresh.id_state()["next_script_id"] >= 40
        assert fresh.id_state()["next_subjob_id"] >= 90
        # allocation after recovery starts past the persisted floor
        assert int(fresh.next_script_id()) >= 40

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


class TestInputExtents:
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
        twin = restored(source)
        for entry in source.entries():
            assert twin.get(entry.entry_id).input_extents == (
                unborn(entry.input_extents)
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


@pytest.fixture
def no_parse(monkeypatch):
    """Fail any parse of a restored plan's bytes (only a rebuild parses)."""

    def parse(plan):
        raise AssertionError(f"{plan!r} parsed")

    monkeypatch.setattr(LazyPlan, "materialize", parse)


class TestEncodedOnce:
    """A stored plan is encoded at most once, into one segment: every
    later record, rotation and compaction refers to or copies those
    bytes."""

    def test_rotations_encode_no_plan(self, repository, tmp_path, encodes):
        plans = [entry.plan for entry in repository.entries()]
        assert len(plans) >= 3
        _, persister = attach(durable_config(tmp_path), entries=repository.entries())
        # registering them landed every plan's segment, one encode each
        assert encodes == Counter(id(plan) for plan in plans)
        for compact in (float("inf"), float("inf"), 0):  # by reference, compacting
            persister.COMPACT_DEAD_PER_LIVE = compact
            assert persister.take_snapshot() is not None
        assert persister.log.gen == 1
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

    def test_restored_entries_rotate_without_parsing(
        self, repository, tmp_path, encodes, no_parse
    ):
        state = checkpointed(repository)
        encodes.clear()  # what persisting the originals took
        config = durable_config(tmp_path)
        _, persister = attach(config, entries=state.repository.entries())
        for compact in (float("inf"), 0):  # by reference, then compacting
            persister.COMPACT_DEAD_PER_LIVE = compact
            assert persister.take_snapshot().entries == len(repository) > 0
        assert not encodes
        assert not any(e.plan.materialized for e in state.repository.entries())
        persister.close()
        again = recover(config).repository
        for entry in repository.entries():
            assert again.get(entry.entry_id).plan.to_json() == entry.plan.to_json()

    def test_journal_replayed_entries_hold_the_live_bytes(self, tmp_path, no_parse):
        config = durable_config(tmp_path)
        session = ReStoreSession(persistence=config)
        run_script(session)
        live = {e.entry_id: e.plan.to_json() for e in session.repository.entries()}
        session.close()  # records only: no checkpoint rotates
        recovered = recover(config, session.dfs)
        assert recovered.journal_records > 0 and recovered.checkpoint_entries == 0
        replayed = {
            e.entry_id: e.plan.to_json() for e in recovered.repository.entries()
        }
        assert replayed == live and live

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


FILTER = """
A = load 'pv' as (user, action:int, rev:double);
B = filter A by action == 1;
store B into 'OUT';
"""


class TestCachedRows:
    """A rotation splices each entry's encoded row, kept since the
    entry's last record, into the checkpoint frame."""

    def test_frame_is_the_fresh_encoding(self, tmp_path, monkeypatch):
        session = ReStoreSession(persistence=durable_config(tmp_path))
        persister = session.persister
        frames, encoded = [], Counter()
        checkpoint, encode_json = persister._checkpoint, persister_module.encode_json

        def compared(payloads, plans):
            frame = checkpoint(payloads, plans)
            state = IndexState(
                persister.repository,
                persister.manager.kept_paths,
                persister.manager.clock,
                persister.dfs.id_state(),
                {path: ref.to_list() for path, ref in payloads.items()},
                {entry_id: ref.to_list() for entry_id, ref in plans.items()},
            )
            assert frame == encode_checkpoint(state.checkpoint())
            frames.append(frame)
            return frame

        def counted(payload):
            encoded[type(payload)] += 1  # a dict: an entry record
            return encode_json(payload)

        monkeypatch.setattr(persister, "_checkpoint", compared)
        monkeypatch.setattr(persister_module, "encode_json", counted)
        run_script(session)  # a group entry, and a use of it
        session.run(FILTER.replace("OUT", "f/one"))
        assert persister.take_snapshot() is not None
        first = encoded[dict]
        assert first == len(session.repository) >= 2
        session.run(SCRIPT.replace("OUT", "out/three"))  # used again
        session.dfs.append("pv", "dave\t1\t3.0\n")
        result = session.run(FILTER.replace("OUT", "f/one"))  # refreshed
        assert any(isinstance(e, EntryRefreshed) for e in result.events)
        assert persister.take_snapshot() is not None
        # only the entries with a record since the first were encoded
        # again, once, though this rotation compacted (new plan refs)
        assert persister.log.gen == 1 and len(frames) == 3
        assert encoded[dict] - first == 2 < len(session.repository)
        session.close()
        assert frames[0] != frames[2]
