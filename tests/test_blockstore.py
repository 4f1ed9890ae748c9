"""Native payload durability: the block store and the recovery scrub.

The contract mirrors the journal's: a crash can tear a block-store
append at *any* byte, and recovery must (a) restore byte-identical
payloads for every entry whose segment survived intact, and (b)
condemn — never serve — every entry whose payload is missing, torn,
or corrupt.  The new ``partial`` and ``slow`` fault actions drive the
torn-write and slow-disk timelines deterministically.

Seeds default to 13; set ``CHAOS_SEED`` to sweep another timeline.
"""

from __future__ import annotations

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
from repro.persistence.blockstore import (
    BlockStore,
    BlockStoreError,
    SegmentRef,
    decode_blockstore,
    encode_segment,
    verify_ref,
)
from repro.persistence.durability import (
    PersistenceConfig,
    RepositoryPersister,
    announce_scrub_condemnations,
    recover,
)
from repro.persistence.snapshot import RepositorySnapshot
from repro.persistence.storage import LocalStorage
from repro.session import ReStoreSession
from test_framedlog import BLOCKS, SEED, TornWriteSweep, inject



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
    manager = ReStoreManager(dfs)
    persister = RepositoryPersister(manager, config)
    return dfs, config, manager, persister


def _payload_for(path: str) -> bytes:
    return f"bytes:{path}".encode()


def _add_entries(dfs, manager, n=3, seed=5):
    """Register *n* entries live-style: output bytes land in the DFS
    first, so the persister captures them into the block store."""
    entries = build_repository(generate_entry_specs(n, seed=seed), seed=seed)
    added = []
    for entry in entries.entries():
        dfs.write_file(entry.output_path, _payload_for(entry.output_path))
        added.append(manager.repository.add(entry))
    return added


class TestSegmentCodec(TornWriteSweep):
    """The block-store codec under the shared torn-write sweep, plus
    what only this codec has: refs and their integrity check."""

    codec = BLOCKS
    test_every_byte_boundary_of_last_segment = (
        TornWriteSweep.every_byte_boundary_of_last_frame
    )

    def test_round_trip_through_store(self, tmp_path):
        store = BlockStore(LocalStorage(str(tmp_path / "b.g0")), 0)
        segments = [("a/b", b"xx"), ("c/d", b"yyyy")]
        # one batch, one storage write: refs come back in order
        refs = dict(zip(dict(segments), store.append_segments(segments)))
        scan = store.scan()
        assert len(scan.frames) == 2
        assert not scan.torn
        assert verify_ref(scan, refs["a/b"], "a/b") == b"xx"
        assert verify_ref(scan, refs["c/d"], "c/d") == b"yyyy"

    def test_ref_is_offset_length_and_payload_crc(self, tmp_path):
        store = BlockStore(LocalStorage(str(tmp_path / "b.g3")), 3)
        (ref,) = store.append_segments([("p", b"data")])
        assert ref.gen == 3
        assert ref.offset == 0
        assert ref.length == len(encode_segment("p", b"data"))
        assert ref.crc == zlib.crc32(b"data")
        assert SegmentRef.from_list(ref.to_list()) == ref

    def test_malformed_ref_rejected(self):
        with pytest.raises(BlockStoreError, match="malformed"):
            SegmentRef.from_list([1, 2, 3])

    def test_overlong_path_rejected(self):
        with pytest.raises(BlockStoreError, match="too long"):
            encode_segment("x" * 0x10000, b"")

    def test_verify_ref_catches_every_drift(self):
        scan = decode_blockstore(b"".join(BLOCKS.frames))
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
    """The tentpole gate, as a test: crash a block-store append at
    every byte boundary; recovery never leaves an entry referencing a
    missing or corrupt payload."""

    def test_every_cut_recovers_with_no_corrupt_refs(self, tmp_path):
        dfs, config, manager, persister = _persister(tmp_path)
        added = _add_entries(dfs, manager, n=2, seed=SEED)
        block_path = tmp_path / "repo.snap.blocks.g0"
        journal_bytes = (tmp_path / "repo.journal").read_bytes()
        block_bytes = block_path.read_bytes()
        base = decode_blockstore(block_bytes)
        assert len(base.frames) == 2 and not base.torn
        last_offset = max(base.frames)
        last_length = base.frames[last_offset][0]
        for cut in range(last_length + 1):
            # rewind the lane: recovery repairs/journals in place
            (tmp_path / "repo.journal").write_bytes(journal_bytes)
            block_path.write_bytes(block_bytes[: last_offset + cut])
            fresh = DistributedFileSystem()
            recovered = recover(config, fresh)
            survivors = {
                e.output_path for e in recovered.repository.entries()
            }
            condemned = {p for _, p, _ in recovered.payloads_condemned}
            assert survivors | condemned == {
                e.output_path for e in added
            }, f"entry lost without condemnation at cut={cut}"
            assert not (survivors & condemned)
            # the invariant: every survivor serves byte-identical data
            for path in survivors:
                assert fresh.read_file(path) == _payload_for(path), (
                    f"corrupt payload served at cut={cut}"
                )
            if cut == last_length:
                assert condemned == set()
            else:
                assert condemned == {added[-1].output_path}

    def test_condemnation_is_journaled_and_replay_idempotent(self, tmp_path):
        dfs, config, manager, persister = _persister(tmp_path)
        added = _add_entries(dfs, manager, n=3, seed=SEED)
        # the whole block file vanishes: every payload ref is orphaned
        (tmp_path / "repo.snap.blocks.g0").unlink()
        first = recover(config, DistributedFileSystem())
        assert len(first.repository) == 0
        assert {p for _, p, _ in first.payloads_condemned} == {
            e.output_path for e in added
        }
        # the scrub journaled entry_quarantined: a second recovery
        # replays the condemnations instead of re-deriving them
        second = recover(config, DistributedFileSystem())
        assert len(second.repository) == 0
        assert second.payloads_condemned == []

    def test_unjournaled_condemnations_are_recorded_and_announced(self, tmp_path):
        dfs, config, manager, persister = _persister(tmp_path)
        added = _add_entries(dfs, manager, n=2, seed=SEED)
        (tmp_path / "repo.snap.blocks.g0").unlink()
        inject("journal.append", "raise")
        recovered = recover(config, DistributedFileSystem())
        faults.uninstall()
        assert len(recovered.payloads_condemned) == 2
        assert recovered.condemnations_unjournaled is not None
        twin = ReStoreManager(DistributedFileSystem())
        degraded = twin.events.collect(event_types=PersistenceDegraded)
        announce_scrub_condemnations(twin, recovered)
        assert [e.path for e in degraded] == [config.journal_path]
        # nothing was journaled, so the next recovery re-derives the
        # same verdicts — and this time records them
        again = recover(config, DistributedFileSystem())
        assert {p for _, p, _ in again.payloads_condemned} == {
            e.output_path for e in added
        }
        assert again.condemnations_unjournaled is None
        assert recover(config, DistributedFileSystem()).payloads_condemned == []

    def test_torn_tail_in_unreferenced_resume_generation_is_repaired(self, tmp_path):
        """A crash tore the first block-store write of a lane whose
        journal is still empty: no ref points into generation 0, yet
        the successor appends into it — behind an unscannable tear,
        unless recovery repairs it."""
        config = _config(tmp_path)
        block_path = tmp_path / "repo.snap.blocks.g0"
        block_path.write_bytes(encode_segment("tmp/s1/sj1", b"x" * 40)[:26])
        session = ReStoreSession(persistence=config)
        assert block_path.stat().st_size == 0, "recovery must cut the tear"
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
        block_path = tmp_path / "repo.snap.blocks.g0"
        data = bytearray(block_path.read_bytes())
        scan = decode_blockstore(bytes(data))
        victim_offset = sorted(scan.frames)[1]
        # flip a payload byte inside the middle segment
        data[victim_offset + 12] ^= 0xFF
        block_path.write_bytes(bytes(data))
        fresh = DistributedFileSystem()
        recovered = recover(config, fresh)
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
        (tmp_path / "repo.snap.blocks.g0").unlink()
        fresh = DistributedFileSystem()
        recovered = recover(config, fresh)
        twin = ReStoreManager(fresh)
        events = []
        twin.events.subscribe(events.append, event_types=(EntryQuarantined,))
        announce_scrub_condemnations(twin, recovered)
        assert twin.quarantine_count == 2
        assert {e.output_path for e in events} == {
            e.output_path for e in added
        }
        assert all(e.reason.startswith("payload-scrub:") for e in events)


class TestPartialAndSlowActions:
    def test_slow_disk_delays_but_preserves_bytes(self, tmp_path):
        inject("blockstore.append", "slow", arg=0.05)
        store = BlockStore(LocalStorage(str(tmp_path / "b.g0")), 0)
        started = time.monotonic()
        (ref,) = store.append_segments([("p", b"unhurried")])
        elapsed = time.monotonic() - started
        assert elapsed >= 0.04
        assert verify_ref(store.scan(), ref, "p") == b"unhurried"

    def test_partial_snapshot_write_aborts_rotation_journal_intact(
        self, tmp_path
    ):
        dfs, config, manager, persister = _persister(tmp_path)
        added = _add_entries(dfs, manager, n=2, seed=SEED)
        journal_len = len((tmp_path / "repo.journal").read_bytes())
        inject("snapshot.write", "partial", arg=9)
        persister.take_snapshot()  # breaker: degraded, not raised
        faults.uninstall()
        # the rotation aborted: no snapshot, the journal was NOT reset
        assert not (tmp_path / "repo.snap").exists()
        assert len((tmp_path / "repo.journal").read_bytes()) >= journal_len
        recovered = recover(config, DistributedFileSystem())
        assert len(recovered.repository) == len(added)
        assert recovered.payloads_condemned == []


def _block_files(tmp_path) -> dict:
    return {p.name: p.stat().st_size for p in tmp_path.glob("repo.snap.blocks.g*")}


def _snapshot_refs(config) -> dict:
    snapshot = RepositorySnapshot.from_bytes(config.snapshot_storage().read())
    return {
        path: SegmentRef.from_list(raw)
        for path, raw in snapshot.payload_state["refs"].items()
    }


class TestRotationByReference:
    def test_rotation_with_nothing_dead_appends_no_payload_byte(self, tmp_path):
        dfs, config, manager, persister = _persister(tmp_path)
        added = _add_entries(dfs, manager, n=4, seed=SEED)
        files = _block_files(tmp_path)
        refs = dict(persister._payload_refs)
        assert set(files) == {"repo.snap.blocks.g0"} and len(refs) == 4
        assert persister.take_snapshot() is not None
        assert _block_files(tmp_path) == files, "a rotation by reference copies nothing"
        assert _snapshot_refs(config) == refs, "the refs travel as they are"
        assert persister.journal.size() == 0
        fresh = DistributedFileSystem()
        recovered = recover(config, fresh)
        assert recovered.journal_records == 0 and recovered.payloads_restored == 4
        assert recovered.payloads_condemned == []
        for entry in added:
            assert fresh.read_file(entry.output_path) == _payload_for(
                entry.output_path
            )

    def test_rotation_compacts_once_dead_bytes_outweigh_live(self, tmp_path):
        dfs, config, manager, persister = _persister(tmp_path)
        added = _add_entries(dfs, manager, n=6, seed=SEED)
        persister.take_snapshot()
        assert set(_block_files(tmp_path)) == {"repo.snap.blocks.g0"}
        for entry in added[:4]:  # two thirds of the stored bytes die
            manager.repository.remove(entry.entry_id)
        persister.take_snapshot()
        files = _block_files(tmp_path)
        assert set(files) == {"repo.snap.blocks.g1"}, "new generation, old one gone"
        refs = _snapshot_refs(config)
        assert set(refs) == {e.output_path for e in added[4:]}
        assert sum(ref.length for ref in refs.values()) == files["repo.snap.blocks.g1"]
        scan = BlockStore(config.blockstore_storage(gen=1), 1).scan()
        for path, ref in refs.items():
            assert verify_ref(scan, ref, path) == _payload_for(path)
        # appends continue into the compacted generation
        more = added[0]
        more.entry_id = ""  # re-registered under a fresh id
        manager.repository.add(more)
        assert persister._payload_refs[more.output_path].gen == 1
        fresh = DistributedFileSystem()
        recovered = recover(config, fresh)
        assert recovered.payloads_condemned == [] and recovered.blockstore_gen == 1
        assert fresh.read_file(more.output_path) == _payload_for(more.output_path)

    def test_overwritten_path_is_recaptured_not_carried(self, tmp_path):
        dfs, config, manager, persister = _persister(tmp_path)
        added = _add_entries(dfs, manager, n=2, seed=SEED)
        victim = added[0].output_path
        stale = persister._payload_refs[victim]
        # the bytes move on behind the persister's back: no mutation
        # event, only the inode's extent says so
        dfs.write_file(victim, b"rewritten after capture", overwrite=True)
        persister.take_snapshot()
        refs = _snapshot_refs(config)
        assert refs[victim] != stale
        assert refs[victim].crc == zlib.crc32(b"rewritten after capture")
        carried = added[1].output_path
        assert refs[carried] == persister._payload_refs[carried]
        fresh = DistributedFileSystem()
        assert recover(config, fresh).payloads_condemned == []
        assert fresh.read_file(victim) == b"rewritten after capture"

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
        resumed = RepositoryPersister(successor, config, recovered=recovered)
        files = _block_files(tmp_path)
        for expected_reads in (3, 0):
            before = fresh.bytes_read
            assert resumed.take_snapshot() is not None
            reads = fresh.bytes_read - before
            assert (reads > 0) == (expected_reads > 0)
            assert _block_files(tmp_path) == files
        assert set(_snapshot_refs(config)) == {e.output_path for e in added}

    def test_aborted_rotation_leaves_journal_backlog_and_refs_untouched(
        self, tmp_path
    ):
        dfs, config, manager, persister = _persister(tmp_path)
        added = _add_entries(dfs, manager, n=6, seed=SEED)
        for entry in added[:4]:  # enough dead bytes to attempt a compaction
            manager.repository.remove(entry.entry_id)
        journal = (tmp_path / "repo.journal").read_bytes()
        refs = dict(persister._payload_refs)
        blocks = (tmp_path / "repo.snap.blocks.g0").read_bytes()
        inject("snapshot.write", "raise")
        assert persister.take_snapshot() is None
        faults.uninstall()
        assert persister.breaker_open and persister.buffered_records == 0
        assert (tmp_path / "repo.journal").read_bytes() == journal
        assert persister._payload_refs == refs and persister.blockstore.gen == 0
        assert (tmp_path / "repo.snap.blocks.g0").read_bytes() == blocks
        recovered = recover(config, DistributedFileSystem())
        assert len(recovered.repository) == 2 and recovered.payloads_condemned == []
        # the half-built generation is debris the next rotation resets
        assert persister.take_snapshot() is not None
        assert set(_block_files(tmp_path)) == {"repo.snap.blocks.g1"}
        assert recover(config, DistributedFileSystem()).payloads_condemned == []

    def test_space_stays_within_twice_live_plus_one_interval(self, tmp_path):
        """220 submissions under a time-window eviction policy: right
        after every rotation the block files hold at most 2x the live
        payload bytes, and in between they grow by appends only."""
        config = _config(tmp_path, snapshot_interval=25)
        builder = ReStoreSession.builder().persistence(config)
        session = builder.evict("time-window:6").build()
        persister = session.persister
        for day in range(8):
            rows = (f"u{(day * 7 + i) % 13}\t{i % 4}\t{i * 0.5}\n" for i in range(60))
            session.write_file(f"data/d{day}", "".join(rows))
        marks = {"rotations": 0, "compactions": 0, "budget": 0, "gen": 0}

        def on_rotation(event) -> None:
            live = sum(ref.length for ref in persister._payload_refs.values())
            on_disk = sum(_block_files(tmp_path).values())
            assert on_disk <= 2 * live, "a rotation left more dead bytes than live"
            marks["rotations"] += 1
            marks["compactions"] += persister.blockstore.gen != marks["gen"]
            marks["gen"] = persister.blockstore.gen
            marks["budget"] = 2 * live

        persister.events.subscribe(on_rotation, event_types=(SnapshotTaken,))
        for number in range(220):
            day, action = (number * 5) % 8, number % 4
            if number % 3 == 0:  # a hot query keeps part of the store live
                day, action = 0, 1
            appended = persister.blockstore.size()
            session.run(
                f"A = load 'data/d{day}' as (user, action:int, rev:double);"
                f"B = filter A by action == {action}; C = group B by user;"
                "D = foreach C generate group, SUM(B.rev);"
                f" store D into 'out/q{number}';"
            )
            grown = max(0, persister.blockstore.size() - appended)
            marks["budget"] += grown
            assert sum(_block_files(tmp_path).values()) <= max(
                marks["budget"], grown
            ), f"block files outgrew 2x live + the interval's writes at {number}"
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


class TestInjectorHygiene:
    def test_reset_zeroes_clocks_fired_and_revived(self):
        plan = FaultPlan(
            seed=SEED,
            rules=(FaultRule(site="blockstore.read", action="raise"),),
        )
        injector = FaultInjector(plan)
        with pytest.raises(InjectedFault):
            injector.fire("blockstore.read")
        injector.fire("blockstore.read")  # hit 2: rule spent
        injector.revive("blockstore.read")
        assert injector.fired and injector.clock.hits("blockstore.read") == 2
        injector.reset()
        assert not injector.fired
        assert injector.clock.hits("blockstore.read") == 0
        # the same one-shot rule fires again from a clean clock
        with pytest.raises(InjectedFault):
            injector.fire("blockstore.read")


class TestTimerRotation:
    def _wait_for(self, predicate, timeout_s=5.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.01)
        return predicate()

    def test_interval_rotates_snapshot_without_workflow_boundary(
        self, tmp_path
    ):
        dfs, config, manager, persister = _persister(
            tmp_path, snapshot_interval_s=0.05
        )
        try:
            added = _add_entries(dfs, manager, n=2, seed=SEED)
            assert self._wait_for(
                lambda: (tmp_path / "repo.snap").exists()
            ), "the timer never rotated a snapshot"
        finally:
            persister.close()
        snapshot = RepositorySnapshot.from_bytes(
            config.snapshot_storage().read()
        )
        assert len(snapshot.payload["repository"]["entries"]) == 2
        # rotation compacted the payloads into the snapshot's table
        assert set(snapshot.payload_state["refs"]) == {
            e.output_path for e in added
        }
        recovered = recover(config, DistributedFileSystem())
        assert len(recovered.repository) == 2
        assert recovered.payloads_condemned == []

    def test_rotation_failure_keeps_journal_intact(self, tmp_path):
        inject("snapshot.write", "raise", sticky=True)
        dfs, config, manager, persister = _persister(
            tmp_path, snapshot_interval_s=0.03
        )
        try:
            _add_entries(dfs, manager, n=2, seed=SEED)
            # let the timer attempt (and fail) at least one rotation
            assert self._wait_for(
                lambda: faults.active().clock.hits("snapshot.write") >= 1
            )
        finally:
            persister.close()
            faults.uninstall()
        assert not (tmp_path / "repo.snap").exists()
        recovered = recover(config, DistributedFileSystem())
        assert len(recovered.repository) == 2
        assert recovered.payloads_condemned == []

    def test_unexpected_rotation_error_is_announced_timer_survives(
        self, tmp_path, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("not a storage failure")

        monkeypatch.setattr(RepositorySnapshot, "capture", boom)
        dfs, config, manager, persister = _persister(
            tmp_path, snapshot_interval_s=0.03
        )
        degraded = []
        persister.events.subscribe(
            degraded.append, event_types=(PersistenceDegraded,)
        )
        try:
            _add_entries(dfs, manager, n=2, seed=SEED)
            # two announcements = the timer outlived the first failure
            assert self._wait_for(lambda: len(degraded) >= 2)
        finally:
            persister.close()
        assert degraded[0].path == config.snapshot_path
        assert "not a storage failure" in degraded[0].error
        assert not persister.breaker_open  # not a storage failure
        assert not (tmp_path / "repo.snap").exists()
        recovered = recover(config, DistributedFileSystem())
        assert len(recovered.repository) == 2
        assert recovered.payloads_condemned == []
