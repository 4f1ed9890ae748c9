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
from repro.events import EntryQuarantined, PersistenceDegraded
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
        refs = {
            path: store.append(path, data)
            for path, data in (("a/b", b"xx"), ("c/d", b"yyyy"))
        }
        scan = store.scan()
        assert len(scan.frames) == 2
        assert not scan.torn
        assert verify_ref(scan, refs["a/b"], "a/b") == b"xx"
        assert verify_ref(scan, refs["c/d"], "c/d") == b"yyyy"

    def test_ref_is_offset_length_and_payload_crc(self, tmp_path):
        store = BlockStore(LocalStorage(str(tmp_path / "b.g3")), 3)
        ref = store.append("p", b"data")
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
        ref = store.append("p", b"unhurried")
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
