"""The concurrent multi-tenant job service.

Covers the tentpole guarantees:

* stress — 8 workers × 50 jobs against one shared repository lose no
  entries, duplicate none (concurrent identical registrations resolve
  through the atomic ``add_if_absent``), and leave every index
  consistent; the whole run is bounded by an explicit deadline so a
  deadlock fails instead of hanging tier-1;
* differential — the same workload run serially and through a
  1-worker service produces an equivalent final repository (same
  entry multiset by fingerprint) and byte-identical per-job rewrite
  decisions;
* per-session event isolation — sessions sharing one manager (or one
  repository across managers) drain only their own events;
* deterministic interleavings — the seeded ``StepScheduler`` fixture
  replays repository races exactly.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from test_fingerprint_index import assert_index_consistent, legacy_two_pass_order

from repro.core.manager import ReStoreConfig, ReStoreManager
from repro.core.repository import Repository
from repro.dfs.filesystem import DistributedFileSystem
from repro.events import RewriteApplied, SubJobStored
from repro.mapreduce.job import MapReduceJob, Workflow
from repro.pig.physical.operators import POFilter, POLoad, POStore
from repro.pig.physical.plan import linear_plan
from repro.relational.expressions import BinaryOp, Column, Const
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.service import JobService, WorkloadDriver, decision_log
from repro.session import ReStoreSession

SCHEMA = Schema.of(("name", DataType.CHARARRAY), ("b", DataType.INT))

#: overall deadline for the stress run — the tier-1 timeout guard
STRESS_DEADLINE_S = 60.0


def filter_plan(dataset: str, threshold: int, out: str):
    return linear_plan(
        POLoad(dataset, SCHEMA),
        POFilter(BinaryOp(">", Column(1), Const(threshold)), schema=SCHEMA),
        POStore(out, SCHEMA),
    )


def filter_workflow(dataset: str, threshold: int, out: str, job_id: str) -> Workflow:
    job = MapReduceJob(filter_plan(dataset, threshold, out), job_id=job_id)
    return Workflow(jobs=[job], name=f"wf-{job_id}")


def write_datasets(dfs: DistributedFileSystem, names) -> None:
    rows = "\n".join(f"row{i}\t{i}" for i in range(30)) + "\n"
    for name in names:
        dfs.write_file(name, rows, overwrite=True)


class TestServiceStress:
    def test_8_workers_50_jobs_no_lost_or_duplicated_entries(self):
        """8 tenants × 50 jobs; 100 distinct computations repeated 4x
        each, so concurrent duplicate registrations race constantly."""
        n_tenants, jobs_per_tenant = 8, 50
        datasets = [f"stress/ds{d}" for d in range(4)]
        service = JobService(
            config=ReStoreConfig(inject_enabled=False),
            max_workers=n_tenants,
        )
        write_datasets(service.dfs, datasets)
        tenants = [service.open_session(f"t{w}") for w in range(n_tenants)]

        futures = []
        expected_plans = {}
        for w, tenant in enumerate(tenants):
            for j in range(jobs_per_tenant):
                dataset = datasets[w % len(datasets)]
                threshold = j % 25
                out = f"stress/out/w{w}_j{j}"
                expected_plans.setdefault(
                    (dataset, threshold),
                    filter_plan(dataset, threshold, "oracle").fingerprint(),
                )
                futures.append(
                    tenant.submit_workflow(
                        filter_workflow(dataset, threshold, out, f"s_{w}_{j}")
                    )
                )

        for future in futures:
            future.result(timeout=STRESS_DEADLINE_S)
        service.shutdown()

        repo = service.repository
        assert service.stats.completed == n_tenants * jobs_per_tenant
        assert service.stats.failed == 0
        # no lost and no duplicated entries: exactly one entry per
        # distinct computation, none unaccounted for
        assert len(repo) == len(expected_plans)
        stored = Counter(e.plan.fingerprint() for e in repo.entries())
        assert stored == Counter(expected_plans.values())
        # no corrupted index state
        assert_index_consistent(repo)
        ordered = repo.ordered_entries()
        assert {e.entry_id for e in ordered} == {e.entry_id for e in repo.entries()}
        for fingerprint in expected_plans.values():
            hits = [e for e in repo.entries() if e.plan.fingerprint() == fingerprint]
            assert len(hits) == 1
            assert repo.find_equivalent(hits[0].plan) is hits[0]

    def test_per_session_fifo_under_concurrency(self):
        """One tenant's submissions never interleave: job N+1 observes
        the repository state N left behind (its duplicate probe hits)."""
        service = JobService(
            config=ReStoreConfig(inject_enabled=False),
            max_workers=4,
        )
        write_datasets(service.dfs, ["fifo/ds"])
        tenant = service.open_session("fifo")
        futures = [
            tenant.submit_workflow(
                filter_workflow("fifo/ds", 3, f"fifo/out/{j}", f"fifo_{j}")
            )
            for j in range(6)
        ]
        results = [f.result(timeout=STRESS_DEADLINE_S) for f in futures]
        service.shutdown()
        # exact submission order: tickets gate execution even when
        # several pool workers dequeue one tenant's jobs back to back
        assert [r.workflow.name for r in tenant.session.results] == [
            f"wf-fifo_{j}" for j in range(6)
        ]
        # the first job registers; every later identical job is
        # whole-job rewritten to a copy of the stored output
        assert len(service.repository) == 1
        assert decision_log(results[0]) == ()
        for result in results[1:]:
            assert any("whole job matched" in line for line in decision_log(result))


def brickwork_sources():
    """A small stream with real reuse structure: three templates that
    share a load+filter prefix, repeated with growing overlap."""
    filt = (
        "A = load 'data/pv' as (user, action:int, revenue:double);"
        "B = filter A by action == 1;"
    )
    templates = [
        filt + "store B into 'out/{i}_flat';",
        filt + "C = foreach B generate user, revenue; store C into 'out/{i}_proj';",
        filt + "C = foreach B generate user, revenue; D = group C by user;"
        "E = foreach D generate group, SUM(C.revenue); store E into 'out/{i}_sum';",
    ]
    return [templates[i % 3].replace("{i}", str(i)) for i in range(9)]


def prepared_dfs() -> DistributedFileSystem:
    dfs = DistributedFileSystem()
    rows = [
        "alice\t1\t1.5",
        "bob\t1\t4.0",
        "carol\t2\t8.0",
        "alice\t1\t0.5",
        "dave\t2\t3.0",
    ]
    dfs.write_file("data/pv", "\n".join(rows) + "\n")
    return dfs


class TestDifferentialSerialVsService:
    def test_one_worker_service_equals_serial_run(self):
        sources = brickwork_sources()

        serial_session = ReStoreSession(dfs=prepared_dfs(), session_id="serial")
        serial = WorkloadDriver.run_serial(serial_session, sources)

        service = JobService(dfs=prepared_dfs(), max_workers=1)
        driver = WorkloadDriver(service, n_sessions=3)
        driven = driver.run(sources)
        service.shutdown()

        # identical per-job rewrite decisions, byte for byte
        assert driven.decisions == serial.decisions
        assert any(serial.decisions), "workload produced no reuse at all"
        # equivalent final repository: same entry multiset by fingerprint
        serial_repo = serial_session.repository
        service_repo = service.repository
        serial_counts = Counter(e.plan.fingerprint() for e in serial_repo.entries())
        service_counts = Counter(e.plan.fingerprint() for e in service_repo.entries())
        assert serial_counts == service_counts
        # and the same query outputs
        for serial_result, driven_result in zip(serial.results, driven.results):
            assert serial_result.outputs == driven_result.outputs

    def test_concurrent_run_converges_to_same_repository_contents(self):
        """At 4 workers decision *timing* may differ, but every stored
        computation is still deduplicated by fingerprint."""
        sources = brickwork_sources()
        service = JobService(dfs=prepared_dfs(), max_workers=4)
        driver = WorkloadDriver(service, n_sessions=4)
        driver.run(sources)
        service.shutdown()
        fingerprints = [e.plan.fingerprint() for e in service.repository.entries()]
        assert len(fingerprints) == len(set(fingerprints))
        assert_index_consistent(service.repository)


class TestEventIsolation:
    def test_sessions_sharing_one_manager_drain_only_their_events(self):
        dfs = prepared_dfs()
        manager = ReStoreManager(dfs)
        alice = ReStoreSession(manager=manager, session_id="alice")
        bob = ReStoreSession(manager=manager, session_id="bob")

        first = alice.run(
            "A = load 'data/pv' as (user, action:int, revenue:double);"
            "B = filter A by action == 1; store B into 'out/a';"
        )
        second = bob.run(
            "A = load 'data/pv' as (user, action:int, revenue:double);"
            "B = filter A by action == 1;"
            "C = foreach B generate user; store C into 'out/b';"
        )
        assert first.events, "alice's run stored nothing"
        assert all(e.session_id == "alice" for e in first.events)
        assert any(isinstance(e, SubJobStored) for e in first.events)
        # bob reused alice's stored result, but the events are his
        assert any(isinstance(e, RewriteApplied) for e in second.events)
        assert all(e.session_id == "bob" for e in second.events)
        # nothing left over in either session's buffer
        assert manager.drain_session("alice") == []
        assert manager.drain_session("bob") == []

    def test_two_managers_sharing_one_repository_stay_isolated(self):
        # two full manager stacks over one DFS and one repository —
        # stored outputs must live in a filesystem both can read
        repository = Repository()
        dfs = prepared_dfs()
        session_a = ReStoreSession(dfs=dfs, repository=repository, session_id="a")
        session_b = ReStoreSession(dfs=dfs, repository=repository, session_id="b")
        result_a = session_a.run(
            "A = load 'data/pv' as (user, action:int, revenue:double);"
            "B = filter A by action == 1; store B into 'out/a';"
        )
        result_b = session_b.run(
            "A = load 'data/pv' as (user, action:int, revenue:double);"
            "B = filter A by action == 1;"
            "C = foreach B generate user; store C into 'out/b';"
        )
        # b's manager found a's entry through the shared repository...
        assert any(isinstance(e, RewriteApplied) for e in result_b.events)
        # ...but each bus/drain carried only its own session's events
        assert all(e.session_id == "a" for e in result_a.events)
        assert all(e.session_id == "b" for e in result_b.events)

    def test_concurrent_tenants_drain_without_cross_talk(self):
        service = JobService(dfs=prepared_dfs(), max_workers=4)
        tenants = [service.open_session(f"tenant_{i}") for i in range(4)]
        futures = {}
        for i, tenant in enumerate(tenants):
            futures[tenant.session_id] = [
                tenant.submit(
                    "A = load 'data/pv' as (user, action:int, revenue:double);"
                    "B = filter A by action == 1;"
                    f"store B into 'out/{tenant.session_id}_{j}';"
                )
                for j in range(3)
            ]
        for session_id, fs in futures.items():
            for future in fs:
                result = future.result(timeout=STRESS_DEADLINE_S)
                assert all(e.session_id == session_id for e in result.events)
        for tenant in tenants:
            assert tenant.drain_events() == []
        service.shutdown()


class TestEvictionPinning:
    def test_eviction_condemns_entry_but_defers_file_of_in_flight_readers(self):
        """A concurrent tenant's eviction pass condemns a stale entry
        immediately (no later job may match it) but must not delete a
        stored file another tenant's in-flight job was just rewritten
        to read; the file outlives that workflow."""
        dfs = prepared_dfs()
        manager = ReStoreManager(
            dfs,
            config=ReStoreConfig(eviction_policies=["time-window:1"]),
        )
        producer = ReStoreSession(manager=manager, session_id="producer")
        producer.run(
            "A = load 'data/pv' as (user, action:int, revenue:double);"
            "B = filter A by action == 1; store B into 'out/a';"
        )
        stored = {e.output_path: e.entry_id for e in manager.repository.entries()}
        assert stored

        # a consumer workflow starts and is rewritten to read an entry
        session_b = ReStoreSession(manager=manager, session_id="consumer")
        workflow = session_b.server.compile(
            "A = load 'data/pv' as (user, action:int, revenue:double);"
            "B = filter A by action == 1;"
            "C = foreach B generate user; store C into 'out/b';"
        )
        manager.on_workflow_start(workflow)
        job = workflow.topo_order()[0]
        assert manager.before_job(job, workflow)
        read_paths = [p.path for p in job.plan.loads() if p.path in stored]
        assert read_paths, "consumer was not rewritten to read a stored output"
        read_path = read_paths[0]
        owned = read_path in manager.kept_paths

        # other tenants' workflows tick the clock far past the window
        for i in range(3):
            manager.on_workflow_start(Workflow(jobs=[], name=f"other-{i}"))
        # condemned: the stale entry left the repository at once ...
        assert stored[read_path] not in {
            e.entry_id for e in manager.repository.entries()
        }
        # ... but the file the in-flight consumer reads is untouched
        assert dfs.exists(read_path)

        manager.on_workflow_end(workflow)
        # once the reader is done, owned files are reclaimed
        assert dfs.exists(read_path) == (not owned)

    def test_sub_job_file_deletion_deferred_until_reader_finishes(self):
        """With injection on, the stored artifact is an owned sub-job
        file — the deferred-delete path must reclaim it only after the
        pinning workflow ends."""
        dfs = prepared_dfs()
        manager = ReStoreManager(
            dfs,
            config=ReStoreConfig(eviction_policies=["time-window:1"]),
        )
        producer = ReStoreSession(manager=manager, session_id="producer")
        producer.run(
            "A = load 'data/pv' as (user, action:int, revenue:double);"
            "B = filter A by action == 1;"
            "C = foreach B generate user, revenue; store C into 'out/a';"
        )
        owned_paths = set(manager.kept_paths)
        assert owned_paths, "injection stored no owned sub-job output"

        session_b = ReStoreSession(manager=manager, session_id="consumer")
        workflow = session_b.server.compile(
            "A = load 'data/pv' as (user, action:int, revenue:double);"
            "B = filter A by action == 1;"
            "C = foreach B generate user; store C into 'out/b';"
        )
        manager.on_workflow_start(workflow)
        job = workflow.topo_order()[0]
        manager.before_job(job, workflow)
        pinned_owned = {
            p.path for p in job.plan.loads() if p.path in owned_paths
        }
        assert pinned_owned, "consumer does not read an owned sub-job file"

        for i in range(3):
            manager.on_workflow_start(Workflow(jobs=[], name=f"other-{i}"))
        for path in pinned_owned:
            assert dfs.exists(path), "file deleted under an in-flight reader"
        manager.on_workflow_end(workflow)
        for path in pinned_owned:
            assert not dfs.exists(path), "deferred delete never happened"


class TestServiceLifecycle:
    def test_submit_by_session_id_opens_on_demand(self):
        service = JobService(dfs=prepared_dfs(), max_workers=2)
        future = service.submit(
            "walk-in",
            "A = load 'data/pv' as (user, action:int, revenue:double);"
            "store A into 'out/walkin';",
        )
        result = future.result(timeout=STRESS_DEADLINE_S)
        assert "out/walkin" in result.outputs
        assert service.session("walk-in").session_id == "walk-in"
        assert service.stats.completed == 1
        assert service.stats.per_session == {"walk-in": 1}
        service.shutdown()

    def test_duplicate_session_id_rejected(self):
        service = JobService()
        service.open_session("dup")
        with pytest.raises(ValueError, match="already open"):
            service.open_session("dup")
        service.shutdown()

    def test_cancelled_future_does_not_wedge_ticket_chain(self):
        """A submission cancelled while still queued must release its
        FIFO turn, or every later job of that tenant blocks forever."""
        service = JobService(max_workers=1)
        service.dfs.write_file("d", "x\t1\n")
        tenant = service.open_session("t")
        blocker = threading.Event()
        # occupy the single worker so later submissions sit queued
        service._executor.submit(blocker.wait, STRESS_DEADLINE_S)
        first = tenant.submit("A = load 'd' as (k, v:int); store A into 'o1';")
        second = tenant.submit("A = load 'd' as (k, v:int); store A into 'o2';")
        assert first.cancel(), "queued submission should be cancellable"
        blocker.set()
        result = second.result(timeout=STRESS_DEADLINE_S)
        assert "o2" in result.outputs
        service.shutdown()
        assert service.stats.cancelled == 1
        assert service.stats.completed == 1
        assert service.stats.in_flight == 0

    def test_failed_job_releases_pending_candidates(self):
        """A job that fails mid-execution never reaches after_job; the
        workflow-end hook must still drop its enumerated sub-job
        candidates or a long-lived shared manager leaks them."""
        service = JobService(max_workers=1)
        tenant = service.open_session("t")
        future = tenant.submit("A = load 'missing' as (x); store A into 'o';")
        with pytest.raises(Exception):
            future.result(timeout=STRESS_DEADLINE_S)
        assert service.stats.failed == 1
        assert service.manager._pending == {}
        service.shutdown()

    def test_shutdown_without_wait_cancels_queued_jobs(self):
        service = JobService(max_workers=1)
        service.dfs.write_file("d", "x\t1\n")
        tenant = service.open_session("t")
        blocker = threading.Event()
        service._executor.submit(blocker.wait, STRESS_DEADLINE_S)
        queued = tenant.submit("A = load 'd' as (k, v:int); store A into 'o1';")
        service.shutdown(wait=False)
        blocker.set()
        # queued work must not run against a closed session: it is
        # cancelled instead of failing with RuntimeError
        assert queued.cancelled() or queued.cancel()
        service._executor.shutdown(wait=True)

    def test_shutdown_stops_submissions(self):
        service = JobService()
        tenant = service.open_session()
        assert tenant.session_id == "tenant_001"
        service.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            tenant.submit("A = load 'x' as (a); store A into 'y';")


class TestStepSchedulerInterleavings:
    def _worker(self, scheduler, repo, entries, removals):
        def run():
            for entry in entries:
                scheduler.step("add")
                repo.add(entry)
            for entry_id in removals:
                scheduler.step("remove")
                repo.remove(entry_id)
            scheduler.step("scan")
            repo.ordered_entries()

        return run

    def _build_entries(self, tag, n):
        from test_fingerprint_index import make_entry

        return [
            make_entry(
                [("filter", i % 3)],
                path=f"ds{i % 2}",
                out=f"sched/{tag}/{i}",
                input_bytes=1000 + 7 * i,
                output_bytes=50 + i,
            )
            for i in range(n)
        ]

    def test_interleaved_mutations_keep_repository_consistent(self, step_scheduler):
        for seed in (0, 7, 23):
            repo = Repository()
            scheduler = step_scheduler(seed=seed)
            workers = {}
            survivors = []
            for w in range(3):
                entries = self._build_entries(f"w{w}-s{seed}", 4)
                # each worker removes its own first entry again, so
                # removals interleave with other workers' integrations
                for entry in entries:
                    entry.entry_id = f"entry_s{seed}_w{w}_{entries.index(entry)}"
                survivors.extend(e.entry_id for e in entries[1:])
                workers[f"w{w}"] = self._worker(
                    scheduler, repo, entries, [entries[0].entry_id]
                )
            history = scheduler.run(workers)
            assert len(repo) == len(survivors)
            assert {e.entry_id for e in repo.entries()} == set(survivors)
            assert_index_consistent(repo)
            ordered_ids = [e.entry_id for e in repo.ordered_entries()]
            assert ordered_ids == legacy_two_pass_order(repo)
            # the schedule is a pure function of the seed
            replay = step_scheduler(seed=seed)
            replay_repo = Repository()
            replay_workers = {}
            for w in range(3):
                entries = self._build_entries(f"w{w}-s{seed}", 4)
                for entry in entries:
                    entry.entry_id = f"entry_s{seed}_w{w}_{entries.index(entry)}"
                replay_workers[f"w{w}"] = self._worker(
                    replay, replay_repo, entries, [entries[0].entry_id]
                )
            assert replay.run(replay_workers) == history

    def test_scheduler_reports_worker_failure(self, step_scheduler):
        scheduler = step_scheduler(seed=1)

        def fine():
            scheduler.step("a")

        def bad():
            scheduler.step("b")
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            scheduler.run({"fine": fine, "bad": bad})

    def test_unmanaged_thread_steps_are_noops(self, step_scheduler):
        scheduler = step_scheduler(seed=2)
        scheduler.step("outside")  # main thread: must not block

        done = threading.Event()

        def worker():
            scheduler.step("inside")
            done.set()

        scheduler.run({"w": worker})
        assert done.is_set()
