"""Deterministic fault injection and the self-healing JobService.

Covers the chaos surface end to end:

* fault plans and the injector are deterministic and byte-replayable —
  the same plan against the same call sequence fires the same log;
* a seeded sweep raises one fault at every registered site × timing
  and asserts the durable-state invariants unconditionally: recovery
  is idempotent, no entry is duplicated or invented, and at most the
  one quarantined entry is lost;
* the persistence circuit breaker degrades to buffered-in-memory mode
  on journal errors and recovers on its probe flush with nothing lost;
* an unreadable stored plan is quarantined, journaled, and stays gone
  across recoveries while the probe is served as a miss;
* a suppressed coordinator heartbeat promotes the warm standby and the
  failed-over service finishes the stream with the fault-free twin's
  decisions;
* ``shutdown(wait=False)`` kills a hung worker within a bound and
  surfaces the kill as a typed :class:`WorkerKilled` event;
* torn-tail journal repair fsyncs after truncating (the repair cannot
  be resurrected by a crash), pinned through the ``storage.fsync``
  site.

Seeds default to 13; set ``CHAOS_SEED`` to sweep another timeline.
"""

from __future__ import annotations

import time

import pytest

from repo_stream import (
    FULL_GRID_ENTRIES,
    generate_entry_specs,
    generate_probe_specs,
    lane_dir,
    prepare_service_dfs,
    probe_config,
    probe_job,
    seed_state,
    service_workload,
)

from repro.core.manager import ReStoreManager
from repro.dfs.filesystem import DistributedFileSystem
from repro.events import (
    EntryQuarantined,
    PersistenceDegraded,
    PersistenceRecovered,
    WorkerKilled,
)
from repro.faults import injector as faults
from repro.faults.injector import (
    GARBLED,
    FaultInjector,
    InjectedFault,
    registered_sites,
)
from repro.faults.plan import FaultPlan, FaultRule, StormSpec, storm_plan
from repro.persistence.durability import (
    PersistenceConfig,
    RepositoryPersister,
    recover,
)
from repro.persistence.journal import Journal, encode_record
from repro.persistence.storage import LocalStorage
from repro.service import JobService, ServiceConfig
from test_framedlog import SEED, inject


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    """Every test must leave the process fault-free."""
    faults.uninstall()
    yield
    faults.uninstall()


def _entry_ids(config: PersistenceConfig):
    return sorted(
        entry.entry_id for entry in recover(config).repository.entries()
    )


def _seeded_lane(tmp_path, label: str, n_entries: int = 40):
    entry_specs = generate_entry_specs(n_entries, SEED)
    seed_dir = seed_state(str(tmp_path), entry_specs, SEED)
    return entry_specs, lane_dir(str(tmp_path), label, seed_dir)


class TestPlansAndRules:
    def test_rule_validation(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(site="x", action="melt")
        with pytest.raises(ValueError, match="unknown fault timing"):
            FaultRule(site="x", action="raise", when="during")
        with pytest.raises(ValueError, match="1-based"):
            FaultRule(site="x", action="raise", hits=(0,))

    def test_sticky_rules_fire_from_first_hit_onwards(self):
        rule = FaultRule(site="x", action="suppress", hits=(3,), sticky=True)
        assert not rule.matches(2, "before", 0)
        assert rule.matches(3, "before", 0)
        assert rule.matches(9, "before", 0)

    def test_worker_targeting(self):
        rule = FaultRule(site="x", action="crash", worker=2)
        assert not rule.matches(1, "before", 0)
        assert not rule.matches(1, "before", 1)
        assert rule.matches(1, "before", 2)

    def test_storm_plan_is_seed_deterministic(self):
        spec = StormSpec(seed=SEED, n_jobs=18)
        assert storm_plan(spec) == storm_plan(StormSpec(seed=SEED, n_jobs=18))
        assert storm_plan(spec) != storm_plan(StormSpec(seed=SEED + 1))
        sites = storm_plan(spec).sites()
        for site in (
            "worker.hook",
            "worker.result",
            "journal.append",
            "coordinator.heartbeat",
        ):
            assert site in sites

    def test_with_rules_extends_without_mutating(self):
        base = storm_plan(StormSpec(seed=SEED))
        extended = base.with_rules(
            FaultRule(site="snapshot.materialize", action="raise")
        )
        assert len(extended) == len(base) + 1
        assert "snapshot.materialize" not in base.sites()


class TestInjectorDeterminism:
    def _script(self, injector: FaultInjector):
        """A fixed call sequence; returns (fired log, observed data)."""
        observed = []
        for _ in range(4):
            try:
                observed.append(injector.fire("journal.append", data=b"abc"))
            except InjectedFault as exc:
                observed.append(("raised", exc.site, exc.hit))
        observed.append(injector.fire("coordinator.heartbeat", data=7))
        observed.append(injector.fire("coordinator.heartbeat", data=8))
        return list(injector.fired), observed

    def _plan(self) -> FaultPlan:
        return FaultPlan(
            seed=SEED,
            rules=(
                FaultRule(site="journal.append", action="raise", hits=(2, 3)),
                FaultRule(
                    site="coordinator.heartbeat",
                    action="suppress",
                    hits=(2,),
                ),
            ),
        )

    def test_same_plan_same_sequence_same_log(self):
        first = self._script(FaultInjector(self._plan()))
        second = self._script(FaultInjector(self._plan()))
        assert first == second
        fired, observed = first
        assert [hit for (_, _, _, hit, _) in fired] == [2, 3, 2]
        assert observed[0] == b"abc"  # hit 1 passes through
        assert observed[1][0] == "raised"
        assert observed[-2] == 7  # hit 1 passes through
        assert observed[-1] is None  # hit 2: suppressed beat

    def test_corrupt_flips_one_byte_and_garbles_non_bytes(self):
        plan = FaultPlan(
            rules=(FaultRule(site="dfs.read", action="corrupt", hits=(1, 2)),)
        )
        injector = FaultInjector(plan)
        garbled = injector.fire("dfs.read", data=b"hello world")
        assert garbled != b"hello world"
        assert len(garbled) == len(b"hello world")
        assert injector.fire("dfs.read", data={"k": 1}) is GARBLED
        # past its scheduled hits the site is clean again
        assert injector.fire("dfs.read", data=b"xyz") == b"xyz"

    def test_revive_silences_a_sticky_site(self):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="coordinator.heartbeat",
                    action="suppress",
                    hits=(1,),
                    sticky=True,
                ),
            )
        )
        injector = FaultInjector(plan)
        assert injector.fire("coordinator.heartbeat", data=1) is None
        injector.revive("coordinator.heartbeat")
        assert injector.fire("coordinator.heartbeat", data=2) == 2

    def test_module_fast_path_without_injector(self):
        assert faults.active() is None
        assert faults.fire("journal.append", data=b"x") == b"x"


class TestChaosSweep:
    """One injected error at every registered site × timing.

    The durable-state invariants hold no matter where the fault lands:
    recovery stays idempotent, no entry duplicates or appears from
    nowhere, and at most one entry (a quarantined one) is lost.
    """

    @pytest.mark.parametrize(
        "site,when",
        [
            (site, when)
            for site in registered_sites()
            for when in ("before", "after")
        ],
    )
    def test_single_fault_keeps_durable_state_consistent(
        self, site, when, tmp_path
    ):
        entry_specs, config = _seeded_lane(
            tmp_path, f"{site.replace('.', '_')}-{when}"
        )
        probe_specs = generate_probe_specs(entry_specs, 3, SEED)
        baseline_ids = _entry_ids(config)
        rules = tuple(
            FaultRule(site=site, action="raise", hits=(1,), when=when, worker=w)
            for w in (0, 1)
        )
        faults.install(FaultInjector(FaultPlan(seed=SEED, rules=rules)))
        try:
            service = None
            try:
                dfs = DistributedFileSystem()
                prepare_service_dfs(dfs, entry_specs, probe_specs)
                service = JobService(
                    dfs=dfs,
                    persistence=config,
                    config=probe_config(),
                    service=ServiceConfig(
                        executor="processes",
                        max_workers=1,
                        retries=2,
                        exchange_timeout=10.0,
                        backoff_base_s=0.0,
                    ),
                )
            except Exception:
                service = None  # recovery-path faults fail construction
            live_ids = None
            if service is not None:
                session = service.open_session("chaos")
                for builder in service_workload(probe_specs, "chaos/out"):
                    try:
                        session.submit_workflow(builder()).result(timeout=60)
                    except Exception:
                        pass  # the fault may surface; state must not tear
                live_ids = sorted(
                    e.entry_id for e in service.repository.entries()
                )
                try:
                    service.shutdown(wait=True)
                except Exception:
                    pass
        finally:
            faults.uninstall()

        once = _entry_ids(config)
        twice = _entry_ids(config)
        assert once == twice, "recovery must be idempotent"
        assert len(set(once)) == len(once), "no duplicated entries"
        assert set(once) <= set(baseline_ids), "no invented entries"
        if live_ids is not None:
            # zero lost or duplicated: the durable state is exactly what
            # the service held when it stopped (evictions/quarantines
            # are deliberate journaled removals, not losses)
            assert once == live_ids
        else:
            assert once == baseline_ids, (
                "a failed recovery must leave the lane untouched"
            )


class TestCircuitBreaker:
    def _persister(self, tmp_path):
        config = PersistenceConfig(
            backend="local",
            snapshot_path=str(tmp_path / "repository.snapshot"),
            journal_path=str(tmp_path / "repository.journal"),
        )
        dfs = DistributedFileSystem()
        manager = ReStoreManager(dfs, config=probe_config())
        return manager, RepositoryPersister(manager, config), config

    def test_breaker_degrades_buffers_and_recovers_on_probe(self, tmp_path):
        manager, persister, config = self._persister(tmp_path)
        events = []
        persister.events.subscribe(
            events.append,
            event_types=(PersistenceDegraded, PersistenceRecovered),
        )
        inject("journal.append", "raise", hits=(1, 2))
        persister.note_kept_path("kept/one", True)  # write-through flush
        assert persister.breaker_open
        assert persister.buffered_records >= 1
        assert persister.breaker_trips == 1
        # while open, buffering is instant and only the probe flush
        # touches storage again
        persister.note_kept_path("kept/two", True)
        for _ in range(6):  # enough gated flushes to reach two probes
            persister.flush()
        assert not persister.breaker_open
        assert persister.buffered_records == 0
        assert [type(e).__name__ for e in events] == [
            "PersistenceDegraded",
            "PersistenceRecovered",
        ]
        scan = persister.journal.scan()
        assert len(scan.records) == 2, "every buffered record landed"
        persister.close()

    def test_failed_snapshot_rotation_keeps_the_journal(self, tmp_path):
        manager, persister, config = self._persister(tmp_path)
        persister.note_kept_path("kept/rotate", True)
        inject("snapshot.write", "raise", hits=(1,))
        assert persister.take_snapshot() is None
        assert persister.breaker_open
        assert persister.journal.size() > 0, (
            "aborted rotation must not reset the journal"
        )
        faults.uninstall()
        assert persister.take_snapshot() is not None
        assert persister.journal.size() == 0
        persister.close()


class TestQuarantine:
    def _drive(self, entry_specs, probe_specs, config, plan):
        """Recover the lane, run the probes through a manager, close;
        returns (ids left, quarantined events, quarantine_count)."""
        state = recover(config)
        dfs = DistributedFileSystem()
        prepare_service_dfs(dfs, entry_specs, probe_specs)
        manager = ReStoreManager(
            dfs, repository=state.repository, config=probe_config()
        )
        persister = RepositoryPersister(manager, config)
        quarantined = []
        manager.events.subscribe(
            quarantined.append, event_types=(EntryQuarantined,)
        )
        if plan is not None:
            faults.install(FaultInjector(plan))
        try:
            for spec in probe_specs:  # served as misses or clean matches
                job, workflow = probe_job(spec, "quarantine/out")
                manager.before_job(job, workflow)
                manager.drain()
                manager.on_workflow_end(workflow)
        finally:
            if plan is not None:
                faults.uninstall()
        live = sorted(e.entry_id for e in manager.repository.entries())
        persister.close()
        return live, quarantined, manager.quarantine_count

    def test_unreadable_plan_is_condemned_journaled_and_stays_gone(
        self, tmp_path
    ):
        entry_specs, config = _seeded_lane(tmp_path, "quarantine")
        twin_config = lane_dir(
            str(tmp_path), "quarantine-twin", str(tmp_path / "seed")
        )
        probe_specs = [
            spec
            for spec in generate_probe_specs(entry_specs, 8, SEED)
            if spec.kind == "hit"
        ][:2]
        assert probe_specs, "need at least one hit probe"
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="snapshot.materialize", action="raise", hits=(1,)
                ),
            )
        )

        twin_ids, twin_events, twin_count = self._drive(
            entry_specs, probe_specs, twin_config, plan=None
        )
        live, quarantined, count = self._drive(
            entry_specs, probe_specs, config, plan=plan
        )

        assert twin_count == 0 and not twin_events
        assert count == 1 and len(quarantined) == 1
        gone = quarantined[0].entry_id
        assert gone not in live
        # modulo the quarantined entry, the fault run keeps exactly the
        # fault-free twin's repository
        assert live == sorted(set(twin_ids) - {gone})
        recovered_ids = _entry_ids(config)
        assert gone not in recovered_ids, "quarantine must be journaled"
        assert recovered_ids == live


class TestStandbyPromotion:
    def _run_stream(self, tmp_path, label: str, plan):
        entry_specs, config = _seeded_lane(tmp_path, label, FULL_GRID_ENTRIES)
        probe_specs = generate_probe_specs(entry_specs, 6, SEED)
        dfs = DistributedFileSystem()
        prepare_service_dfs(dfs, entry_specs, probe_specs)
        if plan is not None:
            faults.install(FaultInjector(plan))
        try:
            service = JobService(
                dfs=dfs,
                persistence=config,
                config=probe_config(),
                service=ServiceConfig(
                    executor="processes",
                    max_workers=1,
                    retries=2,
                    exchange_timeout=10.0,
                    backoff_base_s=0.0,
                    standby=True,
                    heartbeat_misses=2,
                ),
            )
            session = service.open_session("tenant")
            decisions = []
            for builder in service_workload(probe_specs, f"{label}/out"):
                outcome = session.submit_workflow(builder()).result(timeout=60)
                decisions.append(outcome.decisions)
            promotions = service.stats.promotions
            standby_armed = service.standby is not None
            final_ids = sorted(
                e.entry_id for e in service.repository.entries()
            )
            service.shutdown(wait=True)
        finally:
            if plan is not None:
                faults.uninstall()
        return decisions, promotions, standby_armed, final_ids, config

    def test_missed_heartbeats_promote_and_decisions_match_fault_free(
        self, tmp_path
    ):
        kill_plan = FaultPlan(
            seed=SEED,
            rules=(
                FaultRule(
                    site="coordinator.heartbeat",
                    action="suppress",
                    hits=(2,),
                    sticky=True,
                ),
            ),
        )
        clean = self._run_stream(tmp_path / "clean", "clean", None)
        stormy = self._run_stream(tmp_path / "kill", "kill", kill_plan)

        assert clean[1] == 0 and stormy[1] == 1, "exactly one promotion"
        assert stormy[2], "a fresh standby re-arms after promotion"
        assert stormy[0] == clean[0], (
            "the failed-over service must make the fault-free decisions"
        )
        # ... and compare decisions, not empty tuples: every probe
        # that is not a miss is rewritten, at least half of them are
        probe_specs = generate_probe_specs(
            generate_entry_specs(FULL_GRID_ENTRIES, SEED), 6, SEED
        )
        decided = [bool(lines) for lines in clean[0]]
        assert decided == [spec.kind != "miss" for spec in probe_specs]
        assert sum(decided) * 2 >= len(decided)
        assert stormy[3] == clean[3]
        # the promoted lane's durable state survives a restart too
        assert _entry_ids(stormy[4]) == stormy[3]


class TestShutdownKillsHungWorkers:
    def test_nonwaiting_shutdown_kills_and_reports_within_bound(
        self, tmp_path
    ):
        entry_specs, config = _seeded_lane(tmp_path, "hang")
        probe_specs = generate_probe_specs(entry_specs, 2, SEED)
        dfs = DistributedFileSystem()
        prepare_service_dfs(dfs, entry_specs, probe_specs)
        hang_plan = FaultPlan(
            seed=SEED,
            rules=(
                FaultRule(
                    site="worker.result",
                    action="hang",
                    hits=(1,),
                    worker=1,
                    arg=30.0,
                ),
            ),
        )
        faults.install(FaultInjector(hang_plan))
        try:
            service = JobService(
                dfs=dfs,
                persistence=config,
                config=probe_config(),
                service=ServiceConfig(
                    executor="processes",
                    max_workers=1,
                    retries=0,
                    exchange_timeout=None,  # block forever: only the
                    # non-waiting shutdown can free this submission
                ),
            )
            kills = []
            service.events.subscribe(kills.append, event_types=(WorkerKilled,))
            session = service.open_session("tenant")
            builder = service_workload(probe_specs, "hang/out")[0]
            future = session.submit_workflow(builder())
            time.sleep(1.5)  # let the worker spawn and enter its hang
            started = time.monotonic()
            service.shutdown(wait=False)
            assert time.monotonic() - started < 10.0
            assert kills, "the hung worker's kill must surface as an event"
            assert kills[0].pid > 0
            with pytest.raises(Exception):
                future.result(timeout=20.0)
        finally:
            faults.uninstall()


class TestRepairFsync:
    def _torn_journal(self, tmp_path) -> Journal:
        path = tmp_path / "torn.journal"
        frame = encode_record({"type": "counters", "clock": 1})
        path.write_bytes(frame + frame[: len(frame) // 2])
        return Journal(LocalStorage(str(path)))

    def test_repair_truncates_and_fsyncs(self, tmp_path):
        journal = self._torn_journal(tmp_path)
        observer = FaultInjector(
            FaultPlan(
                rules=(
                    # a corrupt rule on the fsync site is a pure
                    # observer: fsync passes no payload to garble, so
                    # the only effect is the entry in the fired log
                    FaultRule(
                        site="storage.fsync", action="corrupt", hits=(1,)
                    ),
                )
            )
        )
        faults.install(observer)
        try:
            dropped = journal.repair()
        finally:
            faults.uninstall()
        assert dropped > 0
        assert not journal.scan().torn
        assert any(
            site == "storage.fsync" for (site, _, _, _, _) in observer.fired
        ), "torn-tail repair must fsync the truncated journal"

    def test_fsync_failure_during_repair_surfaces(self, tmp_path):
        journal = self._torn_journal(tmp_path)
        inject("storage.fsync", "raise", hits=(1,))
        try:
            with pytest.raises(OSError):
                journal.repair()
        finally:
            faults.uninstall()
