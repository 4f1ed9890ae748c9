"""Group commit: the submission is the unit of durability.

The persister stages a submission's journal records and payload bytes
and lands them at the workflow boundary as one block-store write, then
one journal write.  The contract these tests hold it to is the one
``repro.persistence.durability`` states: *a crash loses at most the
submissions in flight; nothing acknowledged is lost, nothing
unprovable is served.*

Seeds default to 13; set ``CHAOS_SEED`` to sweep another timeline.
"""

from __future__ import annotations

import os
import random
import shutil
import sys
import threading

import pytest

from repro.dfs.filesystem import DistributedFileSystem
from repro.events import (
    JournalAppended,
    PersistenceDegraded,
    PersistenceRecovered,
    SnapshotTaken,
    SubJobStored,
)
from repro.faults import injector as faults
from repro.persistence.blockstore import decode_blockstore
from repro.persistence.durability import PersistenceConfig, recover
from repro.persistence.journal import decode_journal
from repro.service import JobService, ServiceConfig
from repro.session import ReStoreSession
from test_framedlog import SEED, inject

DAYS = 6


def _config(root, **extra) -> PersistenceConfig:
    return PersistenceConfig(
        snapshot_path=str(root / "repo.snap"),
        journal_path=str(root / "repo.journal"),
        backend="local",
        **extra,
    )


def _day(day: int, rows: int = 300) -> str:
    rng = random.Random(SEED * 100 + day)
    return "".join(
        f"u{rng.randrange(40)}\t{rng.randrange(1, 5)}\t{rng.randrange(100)}"
        f"\t{rng.random() * 10:.3f}\n"
        for _ in range(rows)
    )


def _load(dfs) -> None:
    for day in range(DAYS):
        dfs.write_file(f"data/d{day}", _day(day), overwrite=True)


def _query(day: int, action: int, tail: int, out: str) -> str:
    head = (
        f"A = load 'data/d{day}' as (user, action:int, t:int, rev:double);\n"
        f"B = filter A by action == {action};\n"
    )
    if tail == 0:
        return head + (
            "C = group B by user; D = foreach C generate group, SUM(B.rev);"
            f" store D into '{out}';"
        )
    if tail == 1:
        return head + f"C = foreach B generate user, rev; store C into '{out}';"
    return head + (
        "C = group B by user; D = foreach C generate group, COUNT(B);"
        f" store D into '{out}';"
    )


def _served(repository, dfs) -> dict:
    """entry id -> (output path, the bytes it serves)."""
    return {
        entry.entry_id: (entry.output_path, dfs.read_file(entry.output_path))
        for entry in repository.entries()
    }


@pytest.fixture
def fsyncs(monkeypatch):
    """A counting wrapper around ``os.fsync``."""
    count = [0]
    real = os.fsync

    def counting(fd):
        count[0] += 1
        return real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return count


class TestFsyncCountGate:
    def test_two_fsyncs_per_submission_three_per_rotation(self, tmp_path, fsyncs):
        """30 submissions: six first runs, then two hot queries while a
        time window evicts the rest — one rotation carries every payload
        by reference, a later one finds more dead bytes than live ones
        and compacts."""
        config = _config(tmp_path, snapshot_interval=40)
        builder = ReStoreSession.builder().persistence(config)
        session = builder.evict("time-window:8").build()
        _load(session.dfs)
        persister = session.persister
        rotations, compactions = [], []
        gen = [persister.blockstore.gen]

        def on_rotation(event) -> None:
            rotations.append(event)
            if persister.blockstore.gen != gen[0]:
                gen[0] = persister.blockstore.gen
                compactions.append(event)

        persister.events.subscribe(on_rotation, event_types=(SnapshotTaken,))
        stream = [(d, 1 + d % 4, d % 3) for d in range(DAYS)]
        stream += [(0, 1, 0), (1, 2, 1)] * 12
        assert len(stream) == 30
        fsyncs[0] = 0
        for number, (day, action, tail) in enumerate(stream):
            before = fsyncs[0], len(rotations), len(compactions)
            session.run(_query(day, action, tail, f"out/q{number}"))
            rotated = len(rotations) - before[1]
            compacted = len(compactions) - before[2]
            # block store, then journal; a rotation adds the snapshot's
            # temp-file + directory fsyncs and the journal truncate
            assert fsyncs[0] - before[0] <= 2 + 3 * rotated + compacted
        assert len(rotations) >= 2 and len(compactions) >= 1
        assert len(compactions) < len(rotations), "one rotation is by reference"
        assert 30 <= fsyncs[0] <= 2 * 30 + 3 * len(rotations) + len(compactions)
        # and it is all there after a crash (no close): nothing lost
        live = _served(session.manager.repository, session.dfs)
        fresh = DistributedFileSystem()
        recovered = recover(config, fresh)
        assert _served(recovered.repository, fresh) == live
        assert recovered.payloads_condemned == []


class TestSubmissionGranularityCrashSweep:
    """Cut the journal at every frame boundary and a seeded sample of
    mid-frame bytes, with the block file wherever a crash at that
    journal position can have left it; recover; check the contract."""

    SUBMISSIONS = 6

    def _stream(self, root):
        """Run the stream; returns (config, commits, acked, states,
        truth): ``commits[c]`` = (journal bytes, block bytes) after
        commit *c* (``commits[0]`` = nothing written), ``acked[k]`` =
        commits done when submission *k* was acknowledged, ``states[k]``
        what the repository served then, *truth* every output ever
        stored, by path."""
        config = _config(root)
        session = ReStoreSession(persistence=config)
        _load(session.dfs)
        persister = session.persister
        commits = [(0, 0)]
        persister.events.subscribe(
            lambda event: commits.append(
                (persister.journal.size(), persister.blockstore.size())
            ),
            event_types=(JournalAppended,),
        )
        acked, states = [0], [{}]
        for number in range(self.SUBMISSIONS):
            day, action, tail = number % 3, 1 + number % 2, number % 3
            session.run(_query(day, action, tail, f"out/q{number}"))
            acked.append(len(commits) - 1)
            states.append(_served(session.manager.repository, session.dfs))
        truth = dict(states[-1].values())
        return config, commits, acked, states, truth

    def _cuts(self, root, commits):
        """(journal cut, block cut) pairs a crash can produce."""
        journal = (root / "repo.journal").read_bytes()
        blocks = (root / "repo.snap.blocks.g0").read_bytes()
        assert commits[-1] == (len(journal), len(blocks))
        frames = decode_journal(journal).frames
        boundaries = sorted(offset + length for offset, (length, _) in frames.items())
        rng = random.Random(SEED)
        inside = sorted(rng.sample(range(1, len(journal)), 40))
        pairs = []
        for cut in sorted({0, *boundaries, *inside}):
            # the commit whose journal write the cut falls into: its
            # block write landed first, whole
            landed = max(c for c, (size, _) in enumerate(commits) if size <= cut)
            if commits[landed][0] < cut:
                pairs.append((cut, commits[landed + 1][1]))
                pairs.append((cut, len(blocks)))
                continue
            # on a commit boundary the next commit's block write may be
            # anywhere: not begun, torn mid-frame, landed (journal lost)
            low = commits[landed][1]
            high = commits[landed + 1][1] if landed + 1 < len(commits) else low
            pairs.append((cut, low))
            if high > low:
                pairs.append((cut, high))
                pairs.extend((cut, rng.randrange(low + 1, high)) for _ in range(2))
        return journal, blocks, pairs

    def test_acknowledged_survives_in_flight_is_absent_or_proven(self, tmp_path):
        root = tmp_path / "live"
        config, commits, acked, states, truth = self._stream(root)
        journal, blocks, pairs = self._cuts(root, commits)
        assert len(pairs) > 60 and len(commits) > self.SUBMISSIONS
        lane = tmp_path / "lane"
        lane_config = _config(lane)
        mid_frame = 0
        for journal_cut, block_cut in pairs:
            shutil.rmtree(lane, ignore_errors=True)
            lane.mkdir()
            (lane / "repo.journal").write_bytes(journal[:journal_cut])
            (lane / "repo.snap.blocks.g0").write_bytes(blocks[:block_cut])
            mid_frame += decode_blockstore(blocks[:block_cut]).torn
            fresh = DistributedFileSystem()
            recovered = recover(lane_config, fresh)
            where = f"journal cut {journal_cut}, block cut {block_cut}"
            done = max(c for c, (size, _) in enumerate(commits) if size <= journal_cut)
            k = max(i for i, commit in enumerate(acked) if commit <= done)
            served = _served(recovered.repository, fresh)
            # nothing acknowledged is lost ...
            for entry_id, (path, data) in states[k].items():
                assert served.get(entry_id) == (path, data), (
                    f"acknowledged entry {entry_id} lost or altered at {where}"
                )
            # ... and what survives of the submission in flight is
            # served from bytes the store proved, or not at all
            for entry_id, (path, data) in served.items():
                assert data == truth[path], f"unproven bytes served at {where}"
            for entry_id, _, _ in recovered.payloads_condemned:
                assert entry_id not in states[k], where
        assert mid_frame >= 5, "the sweep must tear block-store frames too"

    def test_every_acknowledgement_is_a_commit_boundary(self, tmp_path):
        """Non-vacuity of the sweep's bookkeeping: each submission
        committed (≥ 1 journal write), and cutting exactly at its
        acknowledgement recovers exactly what it served."""
        root = tmp_path / "live"
        config, commits, acked, states, _ = self._stream(root)
        assert acked == sorted(set(acked)) and len(acked) == self.SUBMISSIONS + 1
        journal = (root / "repo.journal").read_bytes()
        blocks = (root / "repo.snap.blocks.g0").read_bytes()
        lane = tmp_path / "lane"
        for k in range(1, self.SUBMISSIONS + 1):
            journal_cut, block_cut = commits[acked[k]]
            shutil.rmtree(lane, ignore_errors=True)
            lane.mkdir()
            (lane / "repo.journal").write_bytes(journal[:journal_cut])
            (lane / "repo.snap.blocks.g0").write_bytes(blocks[:block_cut])
            fresh = DistributedFileSystem()
            recovered = recover(_config(lane), fresh)
            assert _served(recovered.repository, fresh) == states[k]
            assert recovered.payloads_condemned == []


class TestTwoTenantsOnePersister:
    def test_acknowledged_tenant_is_durable_while_the_other_is_open(self, tmp_path):
        root = tmp_path / "live"
        config = _config(root)
        service = JobService(
            persistence=config,
            service=ServiceConfig(executor="threads", max_workers=2),
        )
        _load(service.dfs)
        slow_inside, release = threading.Event(), threading.Event()

        def hold_slow_open(event) -> None:
            # emitted on slow's worker thread, outside every lock: its
            # submission stays open, mid-registration, until released
            if event.session_id == "slow" and not slow_inside.is_set():
                slow_inside.set()
                assert release.wait(timeout=30)

        service.events.subscribe(hold_slow_open, event_types=(SubJobStored,))
        try:
            slow = service.open_session("slow").submit(_query(0, 1, 0, "out/slow"))
            assert slow_inside.wait(timeout=30)
            fast = service.open_session("fast").run(_query(1, 2, 1, "out/fast"))
            assert not slow.done(), "slow's submission must still be open"
            stored = [e for e in fast.events if isinstance(e, SubJobStored)]
            assert stored, "fast stored nothing: the test would be vacuous"
            # crash now: copy what is on disk, recover the copy
            crash = tmp_path / "crash"
            shutil.copytree(root, crash)
            fresh = DistributedFileSystem()
            recovered = recover(_config(crash), fresh)
            for event in stored:
                entry = recovered.repository.get(event.entry_id)
                assert fresh.read_file(entry.output_path) == service.dfs.read_file(
                    event.output_path
                )
            assert recovered.payloads_condemned == []
        finally:
            release.set()
        slow.result(timeout=30)
        live = _served(service.repository, service.dfs)
        service.shutdown(wait=True)
        fresh = DistributedFileSystem()
        assert _served(recover(config, fresh).repository, fresh) == live


    def test_concurrent_tenants_commit_without_losing_a_record(self, tmp_path):
        """Four tenants, more worker threads than cores, a shortened
        switch interval and a rotation every few commits: whatever the
        interleaving, every staged record lands exactly once — the
        crash image equals the live repository."""
        config = _config(tmp_path, snapshot_interval=30)
        service = JobService(
            persistence=config,
            service=ServiceConfig(executor="threads", max_workers=4),
        )
        _load(service.dfs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            tenants = [service.open_session(f"t{tenant}") for tenant in range(4)]
            futures = [
                session.submit(
                    _query((t + job) % DAYS, 1 + job % 3, job % 3, f"o/{t}/{job}")
                )
                for job in range(8)
                for t, session in enumerate(tenants)
            ]
            for future in futures:
                future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        persister = service.persister
        assert persister._open_submissions == 0 and persister.buffered_records == 0
        live = _served(service.repository, service.dfs)
        assert len(live) >= 20
        fresh = DistributedFileSystem()
        recovered = recover(config, fresh)  # a crash: nothing was closed
        assert _served(recovered.repository, fresh) == live
        assert recovered.payloads_condemned == []
        service.shutdown(wait=True)


class TestBlockStoreFaultIsAFailedCommit:
    @pytest.mark.parametrize("action,landed", [("raise", 0), ("partial", 9)])
    def test_batch_stays_in_backlog_until_storage_heals(self, tmp_path, action, landed):
        config = _config(tmp_path)
        session = ReStoreSession(persistence=config)
        _load(session.dfs)
        persister = session.persister
        events = persister.events.collect(
            event_types=(PersistenceDegraded, PersistenceRecovered)
        )
        session.run(_query(0, 1, 0, "out/before"))
        journal_bytes = persister.journal.size()
        block_bytes = persister.blockstore.size()
        inject("blockstore.append", action, arg=landed)
        session.run(_query(1, 2, 1, "out/during"))  # acknowledged degraded
        faults.uninstall()
        assert persister.breaker_open and persister.buffered_records >= 2
        assert persister.journal.size() == journal_bytes, (
            "no record may be journaled ahead of its payload"
        )
        assert persister.blockstore.size() == block_bytes + landed
        session.run(_query(2, 1, 2, "out/after"))
        assert persister.flush(force=True) > 0
        assert not persister.breaker_open and persister.buffered_records == 0
        assert [type(e).__name__ for e in events] == [
            "PersistenceDegraded",
            "PersistenceRecovered",
        ]
        # the torn prefix was cut before the retry: no frame sits behind it
        scan = persister.blockstore.scan()
        assert not scan.torn and scan.skipped == 0
        live = _served(session.manager.repository, session.dfs)
        assert len(live) >= 6
        fresh = DistributedFileSystem()
        recovered = recover(config, fresh)
        assert _served(recovered.repository, fresh) == live
        assert recovered.payloads_condemned == []
