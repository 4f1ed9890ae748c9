"""Group commit: the submission is the unit of durability.

The persister stages a submission's records and payload bytes and
lands them at the workflow boundary as one log write — segments first,
then records — with one fsync.  The contract these tests hold it to is
the one
``repro.persistence.persister`` states: *a crash loses at most the
submissions in flight; nothing acknowledged is lost, nothing
unprovable is served.*

Seeds default to 13; set ``CHAOS_SEED`` to sweep another timeline.
"""

from __future__ import annotations

import os
import pathlib
import random
import shutil
import stat
import sys
import threading

import pytest

from repro.dfs.filesystem import DistributedFileSystem
from repro.events import (
    EntryEvicted,
    EntryRefreshed,
    JournalAppended,
    PersistenceDegraded,
    PersistenceRecovered,
    SnapshotTaken,
    SubJobStored,
)
from repro.faults import injector as faults
from repro.persistence.durability import PersistenceConfig, recover
from repro.persistence.framedlog import scan_frames
from repro.service import JobService
from repro.session import ReStoreSession
from test_framedlog import SEED, inject

DAYS = 6
#: the scanned body kinds of a commit that carried a payload: segments
#: are ``(path, payload)``, its records one frame's bytes
BOTH = {tuple, memoryview}


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
    """A counting wrapper around ``os.fsync``: ``[fsyncs, of them of a
    directory]``."""
    count = [0, 0]
    real = os.fsync

    def counting(fd):
        count[0] += 1
        count[1] += stat.S_ISDIR(os.fstat(fd).st_mode)
        return real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return count


class TestFsyncCountGate:
    def test_one_fsync_per_submission_and_per_rotation(self, tmp_path, fsyncs):
        """30 submissions: six first runs, then two hot queries while a
        time window evicts the rest — one rotation carries every payload
        by reference, a later one finds more dead bytes than live ones
        and compacts.  One fsync per submission (its commit), one per
        rotation (its one append: a checkpoint, or a compaction's live
        segments and checkpoint), and one of the directory per
        generation created (the first commit's, each compaction's)."""
        config = _config(tmp_path, snapshot_interval=40)
        builder = ReStoreSession.builder().persistence(config)
        session = builder.evict("time-window:8").build()
        _load(session.dfs)
        persister = session.persister
        rotations, compactions = [], []
        gen = [persister.log.gen]

        def on_rotation(event) -> None:
            rotations.append(event)
            if persister.log.gen != gen[0]:
                gen[0] = persister.log.gen
                compactions.append(event)

        persister.events.subscribe(on_rotation, event_types=(SnapshotTaken,))
        joint = []  # per commit: did it carry a segment and a record?

        def on_commit(event) -> None:
            log = persister.log
            if event.path == log.location:  # not a compaction's old generation
                data = log.storage.read()[log.end - event.bytes : log.end]
                bodies = scan_frames(data).frames.values()
                joint.append({type(body) for _, body in bodies} == BOTH)

        persister.events.subscribe(on_commit, event_types=(JournalAppended,))
        stream = [(d, 1 + d % 4, d % 3) for d in range(DAYS)]
        stream += [(0, 1, 0), (1, 2, 1)] * 12
        assert len(stream) == 30
        fsyncs[:] = [0, 0]
        for number, (day, action, tail) in enumerate(stream):
            before = fsyncs[0], len(rotations), len(compactions)
            session.run(_query(day, action, tail, f"out/q{number}"))
            rotated = len(rotations) - before[1]
            created = len(compactions) - before[2] + (number == 0)
            assert fsyncs[0] - before[0] <= 1 + rotated + created, number
        assert len(rotations) >= 2 and len(compactions) >= 1
        assert len(compactions) < len(rotations), "one rotation is by reference"
        assert fsyncs[1] == 1 + len(compactions)
        assert 30 + fsyncs[1] <= fsyncs[0] <= 30 + len(rotations) + fsyncs[1]
        assert any(joint), "no commit put a segment and a record under one fsync"
        # and it is all there after a crash (no close): nothing lost
        live = _served(session.manager.repository, session.dfs)
        fresh = DistributedFileSystem()
        recovered = recover(config, fresh)
        assert _served(recovered.repository, fresh) == live
        assert recovered.payloads_condemned == []

    def test_a_generation_is_named_durably_before_the_older_goes(
        self, tmp_path, monkeypatch
    ):
        """The first commit into a new generation fsyncs the state
        directory, so a power loss cannot drop the file it was
        acknowledged in; a compaction's does so before the generation
        it replaces is unlinked."""
        steps = []
        fsync, unlink = os.fsync, pathlib.Path.unlink

        def logged_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                steps.append("fsync dir")
            return fsync(fd)

        def logged_unlink(path, *args, **kwargs):
            steps.append(f"unlink {path.name}")
            return unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", logged_fsync)
        monkeypatch.setattr(pathlib.Path, "unlink", logged_unlink)
        session = ReStoreSession(persistence=_config(tmp_path))
        _load(session.dfs)
        session.run(_query(0, 1, 1, "out/first"))
        assert steps == ["fsync dir"]
        session.persister.COMPACT_DEAD_PER_LIVE = 0
        session.persister.take_snapshot()
        assert session.persister.log.gen == 1
        assert steps[1:] == [
            "unlink repo.journal.g1",  # debris of an aborted compaction
            "fsync dir",
            "unlink repo.journal.g0",
        ]
        session.close()

    def test_storing_over_an_entry_output_is_one_commit(self, tmp_path, fsyncs):
        """A submission that stores over a registered entry's output
        evicts that entry on the way: the removal commits with the
        submission, ahead of the new entry over the same path."""
        config = _config(tmp_path)
        session = ReStoreSession(persistence=config)
        _load(session.dfs)
        session.run(_query(0, 1, 1, "out/same"))
        (old,) = session.manager.repository.entries_with_output("out/same")
        commits = []
        session.persister.events.subscribe(
            commits.append, event_types=(JournalAppended,)
        )
        fsyncs[0] = 0
        session.run(_query(1, 2, 1, "out/same"))
        assert fsyncs[0] == 1 and len(commits) == 1
        (new,) = session.manager.repository.entries_with_output("out/same")
        assert new.entry_id != old.entry_id
        live = _served(session.manager.repository, session.dfs)
        fresh = DistributedFileSystem()
        recovered = recover(config, fresh)
        assert _served(recovered.repository, fresh) == live

    def _one_commit(self, session, fsyncs, script) -> list:
        """Run *script*; require one fsync and one commit; return its
        events."""
        commits = []
        session.persister.events.subscribe(
            commits.append, event_types=(JournalAppended,)
        )
        fsyncs[0] = 0
        events = session.run(script).events
        assert fsyncs[0] == 1 and len(commits) == 1
        live = _served(session.manager.repository, session.dfs)
        fresh = DistributedFileSystem()
        recovered = recover(session.persister.config, fresh)
        assert _served(recovered.repository, fresh) == live
        return events

    def test_a_refreshing_submission_is_one_commit(self, tmp_path, fsyncs):
        """A delta refresh stages its entry with the merged output's
        bytes into the submission's one commit."""
        session = ReStoreSession(persistence=_config(tmp_path))
        _load(session.dfs)
        session.run(_query(0, 1, 1, "out/project"))
        session.dfs.append("data/d0", _day(DAYS, rows=20))
        events = self._one_commit(session, fsyncs, _query(0, 1, 0, "out/sum"))
        assert sum(isinstance(e, EntryRefreshed) for e in events) == 1

    def test_a_condemning_submission_is_one_commit(self, tmp_path, fsyncs):
        """An entry condemned at match time leaves in the submission's
        one commit, ahead of the rerun's registration."""
        session = ReStoreSession(persistence=_config(tmp_path))
        _load(session.dfs)
        session.run(_query(1, 2, 0, "out/first"))
        session.dfs.write_file("data/d1", _day(DAYS), overwrite=True)
        events = self._one_commit(session, fsyncs, _query(1, 2, 0, "out/again"))
        condemned = [e for e in events if isinstance(e, EntryEvicted)]
        assert condemned and {e.policy for e in condemned} == {"stale-input"}
        assert any(isinstance(e, SubJobStored) for e in events)


class TestSubmissionGranularityCrashSweep:
    """Cut the log at every frame boundary and a seeded sample of
    mid-frame bytes; recover; check the contract."""

    SUBMISSIONS = 6

    def _stream(self, root):
        """Run the stream; returns (config, commits, acked, states,
        truth): ``commits[c]`` = log bytes after commit *c*
        (``commits[0]`` = nothing written), ``acked[k]`` = commits done
        when submission *k* was acknowledged, ``states[k]`` what the
        repository served then, *truth* every output ever stored, by
        path."""
        config = _config(root)
        session = ReStoreSession(persistence=config)
        _load(session.dfs)
        persister = session.persister
        commits = [0]
        persister.events.subscribe(
            lambda event: commits.append(persister.log.storage.size()),
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
        """The log, its frames, and the cuts a crash can produce."""
        log = (root / "repo.journal.g0").read_bytes()
        assert commits[-1] == len(log)
        frames = scan_frames(log).frames
        boundaries = {offset + length for offset, (length, _) in frames.items()}
        inside = random.Random(SEED).sample(range(1, len(log)), 40)
        return log, frames, sorted({0, *boundaries, *inside})

    def test_acknowledged_survives_in_flight_is_absent_or_proven(self, tmp_path):
        root = tmp_path / "live"
        config, commits, acked, states, truth = self._stream(root)
        log, frames, cuts = self._cuts(root, commits)
        assert len(cuts) > 60 and len(commits) > self.SUBMISSIONS
        lane = tmp_path / "lane"
        lane_config = _config(lane)
        mid_segment = between = 0
        for cut in cuts:
            shutil.rmtree(lane, ignore_errors=True)
            lane.mkdir()
            (lane / "repo.journal.g0").write_bytes(log[:cut])
            fresh = DistributedFileSystem()
            recovered = recover(lane_config, fresh)
            where = f"log cut {cut}"
            done = max(c for c, size in enumerate(commits) if size <= cut)
            k = max(i for i, commit in enumerate(acked) if commit <= done)
            served = _served(recovered.repository, fresh)
            # nothing acknowledged is lost ...
            for entry_id, (path, data) in states[k].items():
                assert served.get(entry_id) == (path, data), (
                    f"acknowledged entry {entry_id} lost or altered at {where}"
                )
            # ... and what survives of the submission in flight is
            # served from bytes the log proved, or not at all
            for entry_id, (path, data) in served.items():
                assert data == truth[path], f"unproven bytes served at {where}"
            for entry_id, _, _ in recovered.payloads_condemned:
                assert entry_id not in states[k], where
            # what the cut tore: a segment, or a commit between its
            # segments and its records
            torn = [
                (offset, length, body)
                for offset, (length, body) in frames.items()
                if done + 1 < len(commits) and commits[done] <= offset < cut
            ]
            mid_segment += any(
                isinstance(body, tuple) and cut < offset + length
                for offset, length, body in torn
            )
            between += bool(torn) and all(
                isinstance(body, tuple) and offset + length <= cut
                for offset, length, body in torn
            )
        assert mid_segment >= 5, "the sweep must tear payload segments"
        assert between >= 3, "the sweep must cut between segments and records"

    def test_every_acknowledgement_is_a_commit_boundary(self, tmp_path):
        """Non-vacuity of the sweep's bookkeeping: each submission
        committed (≥ 1 log write), and cutting exactly at its
        acknowledgement recovers exactly what it served."""
        root = tmp_path / "live"
        config, commits, acked, states, _ = self._stream(root)
        assert acked == sorted(set(acked)) and len(acked) == self.SUBMISSIONS + 1
        log = (root / "repo.journal.g0").read_bytes()
        lane = tmp_path / "lane"
        for k in range(1, self.SUBMISSIONS + 1):
            shutil.rmtree(lane, ignore_errors=True)
            lane.mkdir()
            (lane / "repo.journal.g0").write_bytes(log[: commits[acked[k]]])
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
            executor="threads",
            max_workers=2,
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
            executor="threads",
            max_workers=4,
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
        log_bytes = persister.log.storage.size()
        inject("journal.append", action, arg=landed)
        session.run(_query(1, 2, 1, "out/during"))  # acknowledged degraded
        faults.uninstall()
        assert persister.breaker_open and persister.buffered_records >= 2
        # only the torn prefix reached the medium, nothing committed
        assert persister.log.storage.size() == log_bytes + landed
        assert persister.log.end == log_bytes
        session.run(_query(2, 1, 2, "out/after"))
        assert persister.flush(force=True) > 0
        assert not persister.breaker_open and persister.buffered_records == 0
        assert [type(e).__name__ for e in events] == [
            "PersistenceDegraded",
            "PersistenceRecovered",
        ]
        # the torn prefix was cut before the retry: no frame sits behind it
        scan = persister.log.scan()
        assert not scan.torn and scan.skipped == 0
        live = _served(session.manager.repository, session.dfs)
        assert len(live) >= 6
        fresh = DistributedFileSystem()
        recovered = recover(config, fresh)
        assert _served(recovered.repository, fresh) == live
        assert recovered.payloads_condemned == []
