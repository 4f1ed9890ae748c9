"""Coordinator loss is a restart: ``recover()`` over the live files.

A coordinator that dies leaves its log behind; its
successor is a new manager over ``recover(config, dfs)``.  Nothing the
dead coordinator committed may be lost or changed on the way:

* after a stream of Pig scripts, a separate ``recover()`` over the same
  files holds the live entries, kept paths, counters and payload refs,
  and the next probe of every stored result makes the live decision;
* a session closed after any script of the stream and reopened over the
  same config, on a filesystem holding only the input data, finishes
  the stream with the uninterrupted decisions;
* at the persister level, a crash (no ``close()``) recovers every
  committed add and remove, a crash mid-submission recovers exactly the
  last commit, and the recovered state drives a successor that keeps
  appending where recovery read.
"""

from __future__ import annotations

import re
from dataclasses import replace

import pytest

from repo_stream import build_repository, generate_entry_specs
from repro.core.manager import ReStoreManager
from repro.core.repository import Repository
from repro.dfs.filesystem import DistributedFileSystem
from repro.exceptions import RepositoryError
from repro.persistence.durability import (
    PersistenceConfig,
    adopt_recovered,
    recover,
)
from repro.persistence.framedlog import SegmentRef, verify_ref
from repro.pig.engine import PigServer
from repro.session import ReStoreSession

PV = "user, action:int, timestamp:int, est_revenue:double, page_info, page_links"
USERS = "name, phone, address, city"
DATA = ("data/page_views", "data/users")

SCRIPTS = [
    f"""
    A = load 'data/page_views' as ({PV});
    B = filter A by est_revenue > 1.0;
    C = foreach B generate user, est_revenue;
    store C into 'out/0';
    """,
    f"""
    A = load 'data/page_views' as ({PV});
    B = foreach A generate user, est_revenue;
    alpha = load 'data/users' as ({USERS});
    beta = foreach alpha generate name;
    C = join beta by name, B by user;
    D = group C by $0;
    E = foreach D generate group, SUM(C.est_revenue);
    store E into 'out/1';
    """,
    f"""
    A = load 'data/page_views' as ({PV});
    B = group A by user;
    C = foreach B generate group, COUNT(A);
    store C into 'out/2';
    """,
    f"""
    A = load 'data/page_views' as ({PV});
    B = foreach A generate user, est_revenue;
    alpha = load 'data/users' as ({USERS});
    beta = foreach alpha generate name, city;
    C = join beta by name, B by user;
    D = group C by city;
    E = foreach D generate group, COUNT(C);
    store E into 'out/3';
    """,
    f"""
    A = load 'data/page_views' as ({PV});
    B = filter A by est_revenue > 1.0;
    C = group B by action;
    D = foreach C generate group, MAX(B.est_revenue);
    store D into 'out/4';
    """,
]


def _config(directory, interval: int = 0) -> PersistenceConfig:
    return PersistenceConfig(
        snapshot_path=str(directory / "repo.snap"),
        journal_path=str(directory / "repo.journal"),
        backend="local",
        snapshot_interval=interval,
    )


def _lane_dfs(source: DistributedFileSystem) -> DistributedFileSystem:
    """A filesystem of its own holding *source*'s input data."""
    dfs = DistributedFileSystem()
    for path in DATA:
        dfs.write_file(path, source.read_file(path))
    return dfs


def _entries(repository):
    """What recovery must carry per entry; ``birth`` is reset by
    ``recover()`` on purpose, so it is zeroed on both sides."""
    return {
        entry.entry_id: (
            entry.plan.fingerprint(),
            entry.output_path,
            entry.use_count,
            entry.output_extent,
            {p: replace(x, birth=0) for p, x in entry.input_extents.items()},
        )
        for entry in repository.entries()
    }


def _probe(dfs, repository, kept_paths, clock):
    """Each script once more against a manager over the given state;
    job ids (a per-run script counter) masked."""
    manager = ReStoreManager(dfs, repository=repository)
    manager.kept_paths.update(kept_paths)
    manager.clock = clock
    server = PigServer(dfs, restore=manager)
    return [
        [re.sub(r"job_s\d+_", "job_", line) for line in server.run(script).decisions]
        for script in SCRIPTS
    ]


class TestRecoverEqualsTheLiveState:
    def _stream(self, small_data, tmp_path, interval):
        config = _config(tmp_path, interval)
        session = ReStoreSession(small_data, persistence=config)
        for script in SCRIPTS:
            session.run(script)
        return session, config

    @pytest.mark.parametrize("interval", [2, 100])
    def test_recovered_state_is_the_live_state(self, small_data, tmp_path, interval):
        session, config = self._stream(small_data, tmp_path, interval)
        live, persister = session.manager, session.persister
        # crash: the session is not closed; every run committed on its end
        recovered = recover(config, small_data)

        assert len(live.repository) >= 5 and live.kept_paths
        assert _entries(recovered.repository) == _entries(live.repository)
        assert recovered.kept_paths == live.kept_paths
        assert recovered.clock == live.clock
        assert recovered.id_floors == small_data.id_state()
        assert recovered.log_gen == persister.log.gen
        refs = {
            path: SegmentRef.from_list(raw)
            for path, raw in recovered.payload_refs.items()
        }
        assert refs == persister._payload_refs
        assert recovered.payloads_condemned == []
        session.close()

    @pytest.mark.parametrize("interval", [2, 100])
    def test_recovered_state_makes_the_live_decisions(
        self, small_data, tmp_path, interval
    ):
        session, config = self._stream(small_data, tmp_path, interval)
        recovered = recover(config, small_data)
        session.close()  # detaches the persister: the probes journal nothing
        live = session.manager

        decisions = _probe(small_data, live.repository, live.kept_paths, live.clock)
        assert all(decisions), "every script is rewritten against the repository"
        again = _probe(
            small_data, recovered.repository, recovered.kept_paths, recovered.clock
        )
        assert again == decisions


class TestRestartAtEveryScript:
    """Two passes over the scripts (the second reprobes every stored
    result); the session restarts after script *restart_after* on a
    filesystem holding only the input data, so the stored outputs and
    the id counters come back from the log alone."""

    def _run(self, small_data, directory, restart_after: int = 0):
        dfs = _lane_dfs(small_data)
        config = _config(directory, interval=2)
        session = ReStoreSession(dfs, persistence=config)
        decisions = []
        for number, script in enumerate(SCRIPTS * 2, 1):
            decisions.append(session.run(script).decisions)
            if number == restart_after:
                session.close()
                dfs = _lane_dfs(small_data)
                session = ReStoreSession(dfs, persistence=config)
        final = sorted(
            (e.entry_id, e.output_path) for e in session.manager.repository.entries()
        )
        outputs = {path: dfs.read_file(path) for _, path in final}
        session.close()
        return decisions, final, outputs, config

    @pytest.mark.parametrize("restart_after", range(1, len(SCRIPTS) + 1))
    def test_restart_makes_the_uninterrupted_decisions(
        self, small_data, tmp_path, restart_after
    ):
        clean = self._run(small_data, tmp_path / "clean")
        restarted = self._run(small_data, tmp_path / "restart", restart_after)

        # non-vacuous: every reprobe of the second pass is rewritten
        assert all(clean[0][len(SCRIPTS) :])
        assert restarted[0] == clean[0]
        assert restarted[1] == clean[1]
        assert restarted[2] == clean[2]
        # ... and the restarted lane's files survive one more restart
        survivors = recover(restarted[3]).repository.entries()
        assert sorted((e.entry_id, e.output_path) for e in survivors) == restarted[1]


@pytest.fixture(params=["local", "dfs"])
def primary(request, tmp_path):
    dfs = DistributedFileSystem()
    config = PersistenceConfig(
        snapshot_path=str(tmp_path / "repo.snap"),
        journal_path=str(tmp_path / "repo.journal"),
        backend=request.param,
    )
    state = recover(config, dfs)
    manager = ReStoreManager(dfs, repository=state.repository)
    return dfs, config, manager, adopt_recovered(manager, state, config)


def _stored_entries(dfs, n, seed=5):
    """Entries whose output bytes are in *dfs* and stamp them, as a
    live registration leaves them."""
    entries = build_repository(generate_entry_specs(n, seed=seed), seed=seed).entries()
    for entry in entries:
        dfs.write_file(entry.output_path, f"bytes:{entry.output_path}".encode() * 50)
        entry.output_extent = dfs.input_extent(entry.output_path)
    return entries


def _surface(repository):
    """Scan order plus per-entry fingerprints and paths."""
    return [
        (e.entry_id, e.plan.fingerprint(), e.output_path)
        for e in repository.ordered_entries()
    ]


class TestAdoption:
    def test_a_manager_over_another_repository_is_refused(self, tmp_path):
        """The log has never seen a hand-built repository's entries, so
        the first rotation could not checkpoint them: adoption refuses
        up front, naming the mistake, and wires nothing."""
        dfs = DistributedFileSystem()
        config = _config(tmp_path)
        state = recover(config, dfs)
        own = Repository()
        for entry in _stored_entries(dfs, 3):
            own.add(entry)
        manager = ReStoreManager(dfs, repository=own)
        with pytest.raises(RepositoryError, match="not built over the recovered"):
            adopt_recovered(manager, state, config)
        assert manager.persistence is None
        assert list(tmp_path.iterdir()) == []
        # the same entries added over the recovered repository persist
        manager = ReStoreManager(dfs, repository=state.repository)
        persister = adopt_recovered(manager, state, config)
        for entry in own.entries():
            manager.repository.add(entry)
        persister.take_snapshot()
        persister.close()
        assert _surface(recover(config, dfs).repository) == _surface(own)


class TestPersisterCrash:
    def test_crash_recovers_every_committed_add_and_remove(self, primary):
        dfs, config, manager, persister = primary
        added = [manager.repository.add(e) for e in _stored_entries(dfs, 5)]
        manager.repository.remove(added[1].entry_id)
        manager.repository.remove(added[3].entry_id)
        recovered = recover(config, dfs)  # no close(): a crash
        assert _surface(recovered.repository) == _surface(manager.repository)
        assert len(recovered.repository) == 3
        assert recovered.payloads_condemned == []

    def test_crash_mid_submission_recovers_the_last_commit(self, primary):
        """Staged records are not acknowledged: a crash before the
        submission commits loses them and nothing else, and every ref
        the last commit landed still verifies."""
        dfs, config, manager, persister = primary
        entries = _stored_entries(dfs, 4)
        for entry in entries[:2]:
            manager.repository.add(entry)
        committed = _surface(manager.repository)
        persister.note_workflow_start()
        for entry in entries[2:]:
            manager.repository.add(entry)
        assert persister.buffered_records > 0
        crashed = recover(config, dfs)
        assert _surface(crashed.repository) == committed
        assert crashed.payloads_condemned == []
        scan = persister.log.scan()
        assert set(crashed.payload_refs) == {e.output_path for e in entries[:2]}
        for path, raw in crashed.payload_refs.items():
            ref = SegmentRef.from_list(raw)
            assert verify_ref(scan, ref, path) == dfs.read_file(path)
        persister.note_workflow_end()  # the submission commits
        landed = recover(config, dfs).repository
        assert _surface(landed) == _surface(manager.repository)
        persister.close()

    def test_recovered_state_drives_a_successor(self, primary):
        dfs, config, manager, persister = primary
        for entry in _stored_entries(dfs, 4):
            manager.repository.add(entry)
        # as registration keeps a path: in the manager's set and the log
        dfs.write_file("tmp/s1/sj1", b"kept bytes")
        manager.kept_paths.add("tmp/s1/sj1")
        persister.note_kept_path("tmp/s1/sj1", True)
        manager.clock = 7
        persister.take_snapshot()
        persister.flush()
        old_ids = {e.entry_id for e in manager.repository.entries()}
        lost = manager.repository.entries()[0].output_path
        before = dfs.read_file(lost)
        dfs.delete(lost)
        dfs.delete("tmp/s1/sj1")

        state = recover(config, dfs)
        successor = ReStoreManager(dfs, repository=state.repository)
        successor_persister = adopt_recovered(successor, state, config)
        assert _surface(successor.repository) == _surface(manager.repository)
        assert "tmp/s1/sj1" in successor.kept_paths
        assert successor.clock == 7
        # the bytes the log holds come back, for entries and kept paths
        assert dfs.read_file(lost) == before
        assert dfs.read_file("tmp/s1/sj1") == b"kept bytes"
        # a fresh id on the successor lies past every recovered one,
        # and its record lands where the next recovery reads
        extra = build_repository(generate_entry_specs(1, seed=11), seed=11).entries()[0]
        extra.entry_id, extra.output_path = "", "bench/stored/successor"
        dfs.write_file(extra.output_path, b"successor bytes")
        extra.output_extent = dfs.input_extent(extra.output_path)
        added = successor.repository.add(extra)
        assert added.entry_id not in old_ids
        successor_persister.close()
        appended = recover(config, dfs).repository
        assert _surface(appended) == _surface(successor.repository)
