"""Process-mode JobService: wire contract, parity, crash recovery.

The ``executor="processes"`` substrate splits the service into a
coordinator (DFS + repository + manager) and spawned worker
processes that execute plans over a pipe protocol.  These tests pin
the layer's load-bearing guarantees:

* the :class:`JobRequest`/:class:`JobOutcome` wire contract round-trips
  through plain JSON-safe dicts with plan fingerprints preserved;
* a 1-worker-*process* service reproduces a serial run's decision log
  byte for byte (the same differential the thread pool is held to);
* per-session FIFO and cross-tenant reuse survive the process hop;
* a worker killed mid-conversation is discarded and the submission
  replays on a fresh worker — no lost entries, no duplicates, no
  leaked pins — while a clean worker-side job *error* keeps its healthy
  worker pooled;
* durable (``persistence=``) process services recover before any
  worker spawns and reserve the snapshot/journal paths;
* conflicting configuration is rejected at build time, for the
  service shorthands and the :class:`SessionBuilder` alike.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from test_service import (
    STRESS_DEADLINE_S,
    brickwork_sources,
    filter_workflow,
    prepared_dfs,
    write_datasets,
)

from repro.core.manager import ReStoreConfig, ReStoreManager
from repro.core.repository import Repository
from repro.dfs.filesystem import DistributedFileSystem
from repro.events import EntryEvicted, RewriteApplied, SubJobStored
from repro.persistence.durability import PersistenceConfig
from repro.service import (
    JobRequest,
    JobService,
    ServiceConfig,
    WorkerCrashed,
    WorkloadDriver,
)
from repro.service.procpool import ProcessJobRunner
from repro.session import ReStoreSession


def process_service(**kwargs) -> JobService:
    """A 1-process-worker service over tiny datasets (overridable)."""
    service_config = kwargs.pop(
        "service", ServiceConfig(executor="processes", max_workers=1)
    )
    config = kwargs.pop("config", ReStoreConfig(inject_enabled=False))
    return JobService(config=config, service=service_config, **kwargs)


class TestWireContract:
    def test_source_request_round_trips(self):
        request = JobRequest.from_source(
            "A = load 'x' as (a); store A into 'o';",
            session_id="tenant-a",
            name="q1",
        )
        wire = request.to_wire()
        json.dumps(wire)  # pipe payloads must stay plain data
        assert JobRequest.from_wire(wire) == request

    def test_workflow_request_round_trips_with_fingerprints(self):
        workflow = filter_workflow("wire/ds", 3, "wire/out", "w1")
        request = JobRequest.from_workflow(workflow, session_id="t")
        wire = request.to_wire()
        json.dumps(wire)
        clone = JobRequest.from_wire(wire)
        assert clone.session_id == "t"
        assert clone.name == workflow.name
        assert [j.job_id for j in clone.workflow.jobs] == [
            j.job_id for j in workflow.jobs
        ]
        assert [j.plan.fingerprint() for j in clone.workflow.jobs] == [
            j.plan.fingerprint() for j in workflow.jobs
        ]

    def test_request_carries_exactly_one_payload(self):
        workflow = filter_workflow("wire/ds", 3, "wire/out", "w2")
        with pytest.raises(ValueError, match="exactly one"):
            JobRequest(source="A = load 'x';", workflow=workflow)
        with pytest.raises(ValueError, match="exactly one"):
            JobRequest(session_id="t")

    def test_service_config_validation(self):
        with pytest.raises(ValueError, match="unknown executor"):
            ServiceConfig(executor="gpu").validate()
        with pytest.raises(ValueError, match="at least one worker"):
            ServiceConfig(max_workers=0).validate()
        with pytest.raises(ValueError, match="retries"):
            ServiceConfig(retries=-1).validate()
        assert ServiceConfig(executor="processes").validate().executor == (
            "processes"
        )


class TestProcessParity:
    def test_one_worker_process_service_equals_serial_run(self):
        """The core differential: matching stays coordinator-side, so
        one worker *process* must make byte-identical decisions."""
        sources = brickwork_sources()

        serial_session = ReStoreSession(dfs=prepared_dfs(), session_id="serial")
        serial = WorkloadDriver.run_serial(serial_session, sources)

        service = JobService(
            dfs=prepared_dfs(),
            service=ServiceConfig(executor="processes", max_workers=1),
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
        service = process_service(
            service=ServiceConfig(executor="processes", max_workers=2)
        )
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
            assert outcome.executor == "processes"
            assert outcome.attempts == 1

    def test_cross_tenant_reuse_through_worker_processes(self):
        service = JobService(
            dfs=prepared_dfs(),
            service=ServiceConfig(executor="processes", max_workers=1),
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


class TestWorkerCrashRecovery:
    def _sabotage_first_conversation(self, service, pids):
        """Kill the worker at its first ``before_job`` exchange; later
        conversations pass through untouched, recording worker pids."""
        runner = service._runner
        original = ProcessJobRunner._on_before_job

        def handler(state, handle, message):
            pids.append(handle.pid)
            if len(pids) == 1:
                handle.process.kill()
                handle.process.join(timeout=5.0)
            return original(runner, state, handle, message)

        runner._on_before_job = handler

    def test_crashed_worker_replays_on_a_fresh_one(self):
        service = process_service(
            service=ServiceConfig(executor="processes", max_workers=1, retries=1)
        )
        write_datasets(service.dfs, ["crash/ds"])
        tenant = service.open_session("t")
        pids = []
        self._sabotage_first_conversation(service, pids)

        outcome = tenant.submit_workflow(
            filter_workflow("crash/ds", 3, "crash/out", "c1")
        ).result(timeout=STRESS_DEADLINE_S)

        assert outcome.attempts == 2
        assert service.stats.retried == 1
        assert service.stats.completed == 1
        assert service.stats.failed == 0
        # the retry ran on a different (freshly spawned) worker process
        assert len(pids) == 2 and pids[0] != pids[1]
        # rows 4..29 survive the `b > 3` filter
        assert len(outcome.single_output()) == 26
        # exactly one registration: the crashed attempt left no entry,
        # the successful one left no duplicate
        assert len(service.repository) == 1
        # the crashed conversation's pins and partial events are gone
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

    def test_replay_keeps_what_the_crashed_attempt_did_to_the_repository(self):
        """The crashed attempt condemned a stale entry before its
        worker died.  The eviction happened, so it leads the replayed
        submission's events; the attempt's own decisions do not."""
        service = process_service(
            service=ServiceConfig(executor="processes", max_workers=1, retries=1)
        )
        write_datasets(service.dfs, ["crash/ds"])
        tenant = service.open_session("t")
        first = tenant.submit_workflow(
            filter_workflow("crash/ds", 3, "crash/out", "c1")
        ).result(timeout=STRESS_DEADLINE_S)
        (stored,) = [e for e in first.events if isinstance(e, SubJobStored)]
        service.dfs.write_file("crash/ds", "row0\t9\n", overwrite=True)
        pids = []
        self._sabotage_first_conversation(service, pids)

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

    def test_exhausted_retry_budget_fails_fast_but_pool_recovers(self):
        service = process_service(
            service=ServiceConfig(executor="processes", max_workers=1, retries=0)
        )
        write_datasets(service.dfs, ["crash/ds"])
        tenant = service.open_session("t")
        pids = []
        self._sabotage_first_conversation(service, pids)

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

    def test_job_error_keeps_the_worker_pooled(self):
        """A worker-side job failure completes the error protocol; the
        worker is healthy and must serve the next job (same pid) —
        discarding it would pay a spawn per bad script."""
        service = process_service()
        write_datasets(service.dfs, ["err/ds"])
        tenant = service.open_session("t")
        runner = service._runner
        original = ProcessJobRunner._on_before_job
        pids = []

        def record(state, handle, message):
            pids.append(handle.pid)
            return original(runner, state, handle, message)

        runner._on_before_job = record

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
        # the failed workflow's enumerated candidates were released
        assert service.manager._pending == {}


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
            service=ServiceConfig(executor="processes", max_workers=1),
        ) as service:
            # the snapshot/journal are coordinator-owned: workers must
            # never be allowed to store over them
            assert self.CONFIG.snapshot_path in service._runner.reserved_paths
            assert self.CONFIG.journal_path in service._runner.reserved_paths
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
            service=ServiceConfig(executor="processes", max_workers=1),
        ) as successor:
            assert len(successor.repository) == entries_before
            result = successor.open_session("b").run(
                "A = load 'data/pv' as (user, action:int, revenue:double);"
                "B = filter A by action == 1;"
                "C = foreach B generate user; store C into 'out/d2';"
            )
            assert any(isinstance(e, RewriteApplied) for e in result.events)
            assert result.outputs["out/d2"]


class TestConfigConflicts:
    def test_service_shorthands_clash_with_explicit_config(self):
        with pytest.raises(ValueError, match="service= already fixes"):
            JobService(service=ServiceConfig(), max_workers=2)
        with pytest.raises(ValueError, match="executor"):
            JobService(service=ServiceConfig(), executor="processes")

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
        with pytest.raises(ValueError, match="durable repository"):
            (
                ReStoreSession.builder()
                .persistence(config)
                .without_restore()
                .build()
            )

    def test_builder_rejects_manager_plus_repository(self):
        manager = ReStoreManager(DistributedFileSystem())
        with pytest.raises(ValueError, match="already carries its repository"):
            (
                ReStoreSession.builder()
                .manager(manager)
                .repository(Repository())
                .build()
            )
