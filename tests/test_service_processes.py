"""Process-mode JobService: one submission path, one exchange per job.

The ``executor="processes"`` substrate runs every submission on the
coordinator, as thread mode does, and hands each job to a spawned
worker process in one pipe exchange.  These tests pin the layer's
load-bearing guarantees:

* a job's dict form round-trips through plain JSON-safe data with its
  plan fingerprint preserved;
* a 1-worker-*process* service reproduces a serial run's decision log
  byte for byte (the same differential the thread pool is held to);
* per-session FIFO and cross-tenant reuse survive the process hop;
* the protocol: an eliminated job acquires no worker, an executed job
  costs exactly one exchange, and a temp the coordinator deleted is
  dropped from every worker;
* a worker killed, crashed or garbling its reply mid-job is discarded
  and *that job* runs again on a fresh worker — no lost entries, no
  duplicates, no decision taken twice, no leaked pins — while a clean
  worker-side job *error* keeps its healthy worker pooled;
* durable (``persistence=``) services recover before any worker spawns,
  and no executor lets a script store into the repository's own files;
* a bad execution argument is refused before any worker spawns, and
  conflicting configuration at build time, for the service and the
  :class:`SessionBuilder` (whose ``build`` is the session constructor)
  alike.
"""

from __future__ import annotations

import importlib.util
import json
import multiprocessing
from collections import Counter

import pytest

from test_service import (
    STRESS_DEADLINE_S,
    brickwork_sources,
    filter_workflow,
    prepared_dfs,
    write_datasets,
)

import repro.service
from repro.core.manager import ReStoreConfig, ReStoreManager
from repro.core.repository import Repository
from repro.dfs.filesystem import DistributedFileSystem
from repro.events import EntryEvicted, JobEliminated, RewriteApplied, SubJobStored
from repro.exceptions import FileNotFoundInDFS, RepositoryError
from repro.faults import injector as faults
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule
from repro.mapreduce.job import MapReduceJob
from repro.persistence.durability import PersistenceConfig, recover
from repro.persistence.framedlog import scan_frames
from repro.pig.engine import PigRunResult
from repro.service import JobService, WorkerCrashed, WorkloadDriver
from repro.session import ReStoreSession

#: filter -> group -> store: one map-reduce job
GROUP_QUERY = (
    "A = load 'data/pv' as (user, action:int, revenue:double);"
    "B = filter A by action == 1;"
    "C = group B by user;"
    "D = foreach C generate group, SUM(B.revenue);"
    "store D into '{out}';"
)
#: two chained map-reduce jobs: the first one's output is a temp
TWO_JOB_QUERY = (
    "A = load 'data/pv' as (user, action:int, revenue:double);"
    "B = group A by user;"
    "C = foreach B generate group as user, COUNT(A) as n;"
    "D = group C by n;"
    "E = foreach D generate group, COUNT(C);"
    "store E into '{out}';"
)


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    """Every test leaves the process fault-free."""
    faults.uninstall()
    yield
    faults.uninstall()


def process_service(**kwargs) -> JobService:
    """A 1-process-worker service over tiny datasets (overridable)."""
    kwargs.setdefault("executor", "processes")
    kwargs.setdefault("max_workers", 1)
    kwargs.setdefault("config", ReStoreConfig(heuristic="never"))
    return JobService(**kwargs)


def faulted_service(*rules: FaultRule, **kwargs) -> JobService:
    """A process service whose workers carry *rules* (the plan ships
    to them at spawn); the coordinator's own injector is removed again
    once the pool is up."""
    faults.install(FaultInjector(FaultPlan(rules=rules)))
    try:
        return JobService(dfs=prepared_dfs(), **kwargs)
    finally:
        faults.uninstall()


class CountingConn:
    """A worker pipe that records every message the coordinator sends
    and every reply it receives."""

    def __init__(self, conn, log: list):
        self._conn = conn
        self._log = log

    def send(self, message) -> None:
        self._log.append(("send", message))
        self._conn.send(message)

    def recv(self):
        reply = self._conn.recv()
        self._log.append(("recv", reply))
        return reply

    def __getattr__(self, name):
        return getattr(self._conn, name)


def count_pipe_traffic(service: JobService, monkeypatch) -> list:
    """Wrap every pooled worker's pipe in a :class:`CountingConn`;
    returns the shared log (the patches are undone at teardown)."""
    log: list = []
    for handle in service._pool._idle:
        monkeypatch.setattr(handle, "conn", CountingConn(handle.conn, log))
    return log


class TestWireContract:
    def test_job_round_trips_through_plain_data(self):
        (job,) = filter_workflow("wire/ds", 3, "wire/out", "w1").jobs
        wire = json.loads(json.dumps(job.to_dict()))  # plain data only
        clone = MapReduceJob.from_dict(wire)
        assert clone.job_id == job.job_id
        assert clone.store_paths == job.store_paths
        assert clone.plan.fingerprint() == job.plan.fingerprint()


class TestOneResultType:
    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_a_submission_returns_the_engine_result(self, executor):
        service = JobService(dfs=prepared_dfs(), executor=executor, max_workers=1)
        tenant = service.open_session("t")
        result = tenant.submit(GROUP_QUERY.format(out="out/r")).result(
            timeout=STRESS_DEADLINE_S
        )
        service.shutdown()
        assert type(result) is PigRunResult
        assert result.attempts == 1 and result.outputs["out/r"]

    def test_the_submission_envelope_is_gone(self):
        for name in ("JobRequest", "JobOutcome", "ServiceConfig", "decision_log"):
            assert not hasattr(repro.service, name), name
        assert importlib.util.find_spec("repro.service.api") is None
        assert not hasattr(ReStoreSession, "execute")


class TestProcessParity:
    def test_one_worker_process_service_equals_serial_run(self):
        """The core differential: matching stays coordinator-side, so
        one worker *process* must make byte-identical decisions."""
        sources = brickwork_sources()

        serial_session = ReStoreSession(dfs=prepared_dfs(), session_id="serial")
        serial = WorkloadDriver.run_serial(serial_session, sources)

        service = JobService(
            dfs=prepared_dfs(),
            executor="processes",
            max_workers=1,
        )
        driver = WorkloadDriver(service, n_sessions=3)
        driven = driver.run(sources)
        service.shutdown()

        assert driven.decisions == serial.decisions
        assert any(serial.decisions), "workload produced no reuse at all"
        serial_counts = Counter(
            e.plan.fingerprint() for e in serial_session.repository.entries()
        )
        service_counts = Counter(
            e.plan.fingerprint() for e in service.repository.entries()
        )
        assert serial_counts == service_counts
        for serial_result, driven_result in zip(serial.results, driven.results):
            assert serial_result.outputs == driven_result.outputs

    def test_fifo_and_whole_job_reuse_across_processes(self):
        """One tenant's identical submissions execute in order; the
        first registers coordinator-side, every later one is whole-job
        rewritten — proof the registration crossed the process hop."""
        service = process_service(max_workers=2)
        write_datasets(service.dfs, ["proc/ds"])
        tenant = service.open_session("fifo")
        futures = [
            tenant.submit_workflow(
                filter_workflow("proc/ds", 3, f"proc/out/{j}", f"p_{j}")
            )
            for j in range(4)
        ]
        outcomes = [f.result(timeout=STRESS_DEADLINE_S) for f in futures]
        service.shutdown()
        assert [o.workflow.name for o in outcomes] == [
            f"wf-p_{j}" for j in range(4)
        ]
        assert len(service.repository) == 1
        assert outcomes[0].decisions == ()
        for outcome in outcomes[1:]:
            assert any("whole job matched" in line for line in outcome.decisions)
            assert type(outcome) is PigRunResult
            assert outcome.attempts == 1

    def test_cross_tenant_reuse_through_worker_processes(self):
        service = JobService(
            dfs=prepared_dfs(),
            executor="processes",
            max_workers=1,
        )
        alice = service.open_session("alice")
        bob = service.open_session("bob")
        alice.run(
            "A = load 'data/pv' as (user, action:int, revenue:double);"
            "B = filter A by action == 1; store B into 'out/a';"
        )
        result = bob.run(
            "A = load 'data/pv' as (user, action:int, revenue:double);"
            "B = filter A by action == 1;"
            "C = foreach B generate user; store C into 'out/b';"
        )
        service.shutdown()
        assert any(isinstance(e, RewriteApplied) for e in result.events)
        assert all(e.session_id == "bob" for e in result.events)
        assert result.outputs["out/b"]


class TestProtocol:
    def test_already_stored_resubmission_acquires_no_worker(self, monkeypatch):
        service = JobService(
            dfs=prepared_dfs(),
            executor="processes",
            max_workers=1,
        )
        tenant = service.open_session("t")
        tenant.run(GROUP_QUERY.format(out="out/again"))
        acquired = []
        pool = service._pool
        acquire = pool.acquire
        monkeypatch.setattr(pool, "acquire", lambda: acquired.append(1) or acquire())
        again = tenant.run(GROUP_QUERY.format(out="out/again"))
        service.shutdown()
        (eliminated,) = [e for e in again.events if isinstance(e, JobEliminated)]
        assert eliminated.reason == "already-stored"
        assert again.stats.n_jobs_executed == 0
        assert again.outputs["out/again"]
        assert acquired == []

    def test_one_exchange_per_executed_job(self, monkeypatch):
        service = process_service(dfs=prepared_dfs())
        log = count_pipe_traffic(service, monkeypatch)
        outcome = service.open_session("t").run(TWO_JOB_QUERY.format(out="out/k"))
        log = list(log)  # before shutdown sends the workers' stop
        service.shutdown()
        executed = outcome.stats.n_jobs_executed
        assert executed == len(outcome.workflow.jobs) == 2
        sent = [message for kind, message in log if kind == "send"]
        assert [m["job"]["job_id"] for m in sent] == [
            job.job_id for job in outcome.workflow.topo_order()
        ]
        assert [kind for kind, _ in log] == ["send", "recv"] * executed

    def test_a_deleted_temp_is_dropped_from_every_worker(self, monkeypatch):
        service = process_service(
            dfs=prepared_dfs(),
            config=ReStoreConfig(heuristic="never", register_whole_jobs="none"),
        )
        log = count_pipe_traffic(service, monkeypatch)
        tenant = service.open_session("t")
        outcome = tenant.run(TWO_JOB_QUERY.format(out="out/t"))
        (temp,) = [job.output_path for job in outcome.workflow.jobs if job.temporary]
        assert not service.dfs.exists(temp), "the coordinator cleaned it"
        handles = service._pool._idle
        assert handles
        assert all(temp not in handle.synced for handle in handles)
        assert [temp in handle.drop for handle in handles] == [True]
        assert [m["drop"] for kind, m in log if kind == "send"] == [[], []]

        tenant.run(GROUP_QUERY.format(out="out/next"))
        assert [m["drop"] for kind, m in log if kind == "send"][-1] == [temp]
        assert not any(handle.drop for handle in handles)
        service.shutdown()

    def test_a_deleted_input_is_missing_on_the_worker_too(self):
        """A worker's cached copy of an input the coordinator deleted is
        dropped, so the job fails as it does in a serial run."""
        service = process_service(dfs=prepared_dfs())
        tenant = service.open_session("t")
        tenant.run(GROUP_QUERY.format(out="out/before"))
        (handle,) = service._pool._idle
        assert "data/pv" in handle.synced
        service.dfs.delete("data/pv")
        with pytest.raises(FileNotFoundInDFS, match="data/pv"):
            tenant.run(GROUP_QUERY.format(out="out/after"))
        service.shutdown()
        assert "data/pv" not in handle.synced

    def test_concurrent_tenants_keep_every_worker_map_true(self):
        """Two workers, four tenants, temps deleted while other jobs are
        in flight: every output equals a serial run's, and no worker's
        map claims a path the coordinator no longer has."""
        config = ReStoreConfig(heuristic="never", register_whole_jobs="none")
        sources = [TWO_JOB_QUERY.format(out=f"out/s{i}") for i in range(24)]
        serial = ReStoreSession(dfs=prepared_dfs(), config=config)
        expected = [serial.run(source).outputs for source in sources]
        service = JobService(
            dfs=prepared_dfs(),
            config=config,
            executor="processes",
            max_workers=2,
        )
        tenants = [service.open_session(f"t{i}") for i in range(4)]
        futures = [
            tenants[i % len(tenants)].submit(source) for i, source in enumerate(sources)
        ]
        outputs = [f.result(timeout=STRESS_DEADLINE_S).outputs for f in futures]
        handles = list(service._pool._idle)
        service.shutdown()
        assert outputs == expected
        assert len(handles) == 2
        for handle in handles:
            assert handle.synced, "the worker ran jobs"
            assert all(service.dfs.exists(path) for path in handle.synced)
            assert not any(service.dfs.exists(path) for path in handle.drop)


class TestWorkerCrashRecovery:
    def _sabotage_first_job(self, service, pids, monkeypatch):
        """Kill the worker as its first job is handed over; later jobs
        pass through untouched, recording worker pids."""
        pool = service._pool
        run = pool.run

        def sabotaged(handle, job, dfs, timeout):
            pids.append(handle.pid)
            if len(pids) == 1:
                handle.process.kill()
                handle.process.join(timeout=5.0)
            return run(handle, job, dfs, timeout)

        monkeypatch.setattr(pool, "run", sabotaged)

    def test_crashed_worker_replays_on_a_fresh_one(self, monkeypatch):
        service = process_service(retries=1)
        write_datasets(service.dfs, ["crash/ds"])
        tenant = service.open_session("t")
        pids = []
        self._sabotage_first_job(service, pids, monkeypatch)

        outcome = tenant.submit_workflow(
            filter_workflow("crash/ds", 3, "crash/out", "c1")
        ).result(timeout=STRESS_DEADLINE_S)

        assert outcome.attempts == 2
        assert service.stats.retried == 1
        assert service.stats.completed == 1
        assert service.stats.failed == 0
        # the re-run ran on a different (freshly spawned) worker process
        assert len(pids) == 2 and pids[0] != pids[1]
        # rows 4..29 survive the `b > 3` filter
        assert len(outcome.single_output()) == 26
        # exactly one registration: the crashed run left no entry,
        # the successful one left no duplicate
        assert len(service.repository) == 1
        assert service.manager._pinned == {}
        assert service.manager.drain_session("t") == []
        assert outcome.decisions == ()

        # the repository state is live: an identical resubmission is
        # whole-job rewritten, in one attempt, on the replacement worker
        again = tenant.submit_workflow(
            filter_workflow("crash/ds", 3, "crash/out2", "c2")
        ).result(timeout=STRESS_DEADLINE_S)
        service.shutdown()
        assert again.attempts == 1
        assert any("whole job matched" in line for line in again.decisions)

    def test_replay_keeps_what_the_crashed_attempt_did_to_the_repository(
        self, monkeypatch
    ):
        """The job's match condemned a stale entry before its worker
        died.  The eviction happened once, and the re-run job decides
        nothing again: the outcome holds each event once."""
        service = process_service(retries=1)
        write_datasets(service.dfs, ["crash/ds"])
        tenant = service.open_session("t")
        first = tenant.submit_workflow(
            filter_workflow("crash/ds", 3, "crash/out", "c1")
        ).result(timeout=STRESS_DEADLINE_S)
        (stored,) = [e for e in first.events if isinstance(e, SubJobStored)]
        service.dfs.write_file("crash/ds", "row0\t9\n", overwrite=True)
        pids = []
        self._sabotage_first_job(service, pids, monkeypatch)

        outcome = tenant.submit_workflow(
            filter_workflow("crash/ds", 3, "crash/out2", "c2")
        ).result(timeout=STRESS_DEADLINE_S)
        service.shutdown()

        assert outcome.attempts == 2
        assert [type(e) for e in outcome.events] == [EntryEvicted, SubJobStored]
        evicted, restored = outcome.events
        assert (evicted.entry_id, evicted.policy) == (stored.entry_id, "stale-input")
        assert restored.entry_id != stored.entry_id
        assert outcome.decisions == ()
        assert service.manager.drain_session("t") == []

    def test_a_crash_after_the_job_ran_decides_nothing_twice(self):
        """The worker dies after running the job, before its reply.  The
        coordinator has registered nothing yet, so the re-run cannot
        find the job's own output stored and eliminate it."""

        def run(service):
            outcome = service.open_session("t").run(GROUP_QUERY.format(out="out/0"))
            service.shutdown()
            return outcome

        config = dict(executor="processes", max_workers=1, retries=2)
        clean = run(JobService(dfs=prepared_dfs(), **config))
        crashed = run(
            faulted_service(
                FaultRule(site="worker.result", action="crash", hits=(1,), worker=1),
                **config,
            )
        )
        assert clean.attempts == 1 and crashed.attempts == 2
        assert crashed.decisions == clean.decisions
        assert crashed.events == clean.events
        assert any(isinstance(e, SubJobStored) for e in clean.events)
        assert not any(isinstance(e, JobEliminated) for e in crashed.events)
        assert crashed.outputs == clean.outputs

    def test_a_garbled_reply_reruns_the_job(self):
        def run(service):
            outcome = service.open_session("t").run(GROUP_QUERY.format(out="out/g"))
            service.shutdown()
            return outcome, service.stats

        config = dict(executor="processes", max_workers=1, retries=1)
        clean, _ = run(JobService(dfs=prepared_dfs(), **config))
        garbled, stats = run(
            faulted_service(
                FaultRule(
                    site="worker.result", action="corrupt", hits=(1,), worker=1
                ),
                **config,
            )
        )
        assert type(garbled) is PigRunResult and garbled.attempts == 2
        assert stats.retried == 1 and stats.timeouts == 0
        assert garbled.outputs == clean.outputs
        assert garbled.outputs["out/g"]
        assert garbled.decisions == clean.decisions

    def test_exhausted_retry_budget_fails_fast_but_pool_recovers(self, monkeypatch):
        service = process_service(retries=0)
        write_datasets(service.dfs, ["crash/ds"])
        tenant = service.open_session("t")
        pids = []
        self._sabotage_first_job(service, pids, monkeypatch)

        with pytest.raises(WorkerCrashed):
            tenant.submit_workflow(
                filter_workflow("crash/ds", 3, "crash/out", "c1")
            ).result(timeout=STRESS_DEADLINE_S)
        assert service.stats.failed == 1
        assert service.stats.retried == 0
        assert service.manager._pinned == {}
        assert len(service.repository) == 0

        outcome = tenant.submit_workflow(
            filter_workflow("crash/ds", 3, "crash/out2", "c2")
        ).result(timeout=STRESS_DEADLINE_S)
        service.shutdown()
        assert len(outcome.single_output()) == 26
        assert len(pids) == 2 and pids[0] != pids[1]
        assert service.stats.completed == 1

    def test_job_error_keeps_the_worker_pooled(self, monkeypatch):
        """A worker-side job failure comes back as an error reply; the
        worker is healthy and must serve the next job (same pid) —
        discarding it would pay a spawn per bad script."""
        service = process_service()
        write_datasets(service.dfs, ["err/ds"])
        tenant = service.open_session("t")
        pool = service._pool
        run = pool.run
        pids = []

        def record(handle, job, dfs, timeout):
            pids.append(handle.pid)
            return run(handle, job, dfs, timeout)

        monkeypatch.setattr(pool, "run", record)

        with pytest.raises(Exception, match="missing"):
            tenant.submit(
                "A = load 'err/missing' as (x); store A into 'err/o1';"
            ).result(timeout=STRESS_DEADLINE_S)
        outcome = tenant.submit_workflow(
            filter_workflow("err/ds", 3, "err/o2", "e2")
        ).result(timeout=STRESS_DEADLINE_S)
        service.shutdown()

        assert service.stats.failed == 1
        assert service.stats.retried == 0
        assert len(pids) == 2 and pids[0] == pids[1]
        assert len(outcome.single_output()) == 26


class TestDurableProcessMode:
    CONFIG = PersistenceConfig()

    def _dfs(self) -> DistributedFileSystem:
        dfs = DistributedFileSystem()
        dfs.write_file(
            "data/pv",
            "alice\t1\t1.5\nbob\t1\t4.0\ncarol\t2\t8.0\ndave\t2\t3.0\n",
        )
        return dfs

    def test_durable_service_recovers_before_workers_spawn(self):
        dfs = self._dfs()
        with JobService(
            dfs=dfs,
            persistence=self.CONFIG,
            executor="processes",
            max_workers=1,
        ) as service:
            # the log and the retired snapshot path are the persister's
            # own: no job may store over them
            # (TestRepositoryFilesAreNotOutputs)
            assert service.persister.owns(self.CONFIG.snapshot_path)
            assert service.persister.owns(self.CONFIG.log_file(0))
            service.open_session("a").run(
                "A = load 'data/pv' as (user, action:int, revenue:double);"
                "B = filter A by action == 1; store B into 'out/d1';"
            )
            service.persister.take_snapshot()
            entries_before = len(service.repository)
        assert entries_before >= 1

        with JobService(
            dfs=dfs,
            persistence=self.CONFIG,
            executor="processes",
            max_workers=1,
        ) as successor:
            assert len(successor.repository) == entries_before
            result = successor.open_session("b").run(
                "A = load 'data/pv' as (user, action:int, revenue:double);"
                "B = filter A by action == 1;"
                "C = foreach B generate user; store C into 'out/d2';"
            )
            assert any(isinstance(e, RewriteApplied) for e in result.events)
            assert result.outputs["out/d2"]


class TestRepositoryFilesAreNotOutputs:
    """A script cannot store into the persister's files, on any
    executor: the job is refused before it runs, the log's bytes stay as
    they were, no file appears at the retired snapshot path (where one
    would block recovery), and recovery keeps every entry."""

    CONFIG = PersistenceConfig()

    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    @pytest.mark.parametrize(
        "target",
        [CONFIG.journal_path, CONFIG.snapshot_path, CONFIG.log_file(0)],
    )
    def test_a_store_into_them_is_refused(self, executor, target):
        dfs = prepared_dfs()
        if executor == "serial":
            owner = ReStoreSession(dfs=dfs, persistence=self.CONFIG)
            run, persister = owner.run, owner.persister
        else:
            owner = JobService(
                dfs=dfs,
                persistence=self.CONFIG,
                executor=executor,
                max_workers=1,
            )
            run, persister = owner.open_session("t").run, owner.persister
        try:
            run(GROUP_QUERY.format(out="out/1"))
            persister.take_snapshot()
            run(GROUP_QUERY.format(out="out/2").replace("== 1", "== 2"))
            entries = sorted(e.entry_id for e in persister.repository.entries())
            before = dfs.read_file(persister.log.location)
            assert entries and before, "nothing durable to guard"
            assert persister.owns(target)

            with pytest.raises(RepositoryError, match="own persistence"):
                run(
                    "A = load 'data/pv' as (user, action:int, revenue:double);"
                    f"store A into '{target}';"
                )
            assert not dfs.exists(self.CONFIG.snapshot_path)
            # the refused submission still ticked the clock: its one
            # counters record is appended, nothing is overwritten
            log = dfs.read_file(persister.log.location)
            assert log.startswith(before)
            tail = scan_frames(log[len(before) :])
            assert [r.type for r in tail.records] == ["counters"]
        finally:
            owner.close() if executor == "serial" else owner.shutdown()
        recovered = recover(self.CONFIG, dfs).repository
        assert sorted(e.entry_id for e in recovered.entries()) == entries


class TestConfigConflicts:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"executor": "gpu"}, "unknown executor"),
            ({"max_workers": 0}, "at least one worker"),
            ({"retries": -1}, "retries"),
            ({"exchange_timeout": -5}, "exchange_timeout must be positive"),
        ],
    )
    def test_service_validation(self, kwargs, message):
        """A bad execution argument is refused before any worker
        process spawns, even when the executor is processes."""
        kwargs.setdefault("executor", "processes")
        before = set(multiprocessing.active_children())
        with pytest.raises(ValueError, match=message):
            JobService(**kwargs)
        assert set(multiprocessing.active_children()) <= before

    def test_valid_arguments_spawn_the_pool(self):
        """Non-vacuity for the check above: the same call with valid
        arguments does spawn worker processes."""
        before = set(multiprocessing.active_children())
        service = JobService(executor="processes", max_workers=1)
        try:
            assert service.executor == "processes"
            assert len(set(multiprocessing.active_children()) - before) == 1
        finally:
            service.shutdown()

    def test_service_persistence_clashes_with_repository(self):
        with pytest.raises(ValueError, match="recovers its own repository"):
            JobService(persistence=PersistenceConfig(), repository=Repository())

    def test_builder_rejects_persistence_conflicts(self):
        config = PersistenceConfig()
        with pytest.raises(ValueError, match="recovers its own repository"):
            (
                ReStoreSession.builder()
                .persistence(config)
                .repository(Repository())
                .build()
            )
        manager = ReStoreManager(DistributedFileSystem())
        with pytest.raises(ValueError, match="RepositoryPersister"):
            (
                ReStoreSession.builder()
                .persistence(config)
                .manager(manager)
                .build()
            )
        with pytest.raises(ValueError, match="requires restore_enabled=True"):
            (
                ReStoreSession.builder()
                .persistence(config)
                .without_restore()
                .build()
            )

    def test_builder_rejects_manager_plus_repository(self):
        manager = ReStoreManager(DistributedFileSystem())
        with pytest.raises(ValueError, match="already carries a repository"):
            (
                ReStoreSession.builder()
                .manager(manager)
                .repository(Repository())
                .build()
            )
