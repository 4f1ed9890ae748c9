"""A seeded fault storm against the self-healing JobService, held
differentially against a fault-free twin.

Two identical single-worker process-mode services — standby armed,
retries budgeted, exchange timeout set — recover the same seeded
repository from the same snapshot and drive the same probe stream.
One runs clean (the baseline); the other runs under
:func:`~repro.faults.plan.storm_plan` plus one entry-corruption rule:
a worker crash, a hung worker, a journal-error window (circuit breaker
trips then recovers on probe), one unreadable stored plan
(quarantined), and a sticky coordinator kill late in the run (the
standby promotes).

The differential only means something if the baseline *decides*: every
``hit``/``variant`` probe must be rewritten, and no entry may be
condemned as stale — two lanes of empty decision tuples agree about
nothing.

Seeds default to 13; set ``CHAOS_SEED`` to sweep another timeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import pytest
from repo_stream import (
    FULL_GRID_ENTRIES,
    generate_entry_specs,
    generate_probe_specs,
    lane_dir,
    prepare_service_dfs,
    probe_config,
    seed_state,
    service_workload,
)
from test_framedlog import SEED

from repro.dfs.filesystem import DistributedFileSystem
from repro.events import EntryEvicted, EntryQuarantined, PersistenceRecovered
from repro.faults import injector as faults
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule, StormSpec, storm_plan
from repro.persistence.durability import PersistenceConfig, recover
from repro.service import JobService, ServiceConfig

N_JOBS = 18
ENTRY_SPECS = generate_entry_specs(FULL_GRID_ENTRIES, SEED)
PROBE_SPECS = generate_probe_specs(ENTRY_SPECS, N_JOBS, SEED)
#: the hang must dwarf the latency bound so a broken exchange timeout
#: (worker sleeps the full hang) cannot slip under it
STORM_HANG_SECONDS = 12.0
EXCHANGE_TIMEOUT_S = 0.75
BACKOFF_CAP_S = 0.2


@dataclass
class Lane:
    """What one service left behind after the probe stream."""

    latencies_s: List[float] = field(default_factory=list)
    decisions: List[Tuple[str, ...]] = field(default_factory=list)
    stale_evictions: int = 0
    #: entry id -> stored path of every entry quarantined mid-stream
    quarantined: Dict[str, str] = field(default_factory=dict)
    final_ids: List[str] = field(default_factory=list)
    recovered_ids: List[str] = field(default_factory=list)
    recovered_twice_ids: List[str] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)
    breaker_open_at_end: bool = False
    persistence_recoveries: int = 0
    #: the coordinator-side fired log (worker-side fires — crash, hang
    #: — are logged inside the worker processes)
    fired: list = field(default_factory=list)

    @property
    def p99_s(self) -> float:
        ordered = sorted(self.latencies_s)
        return ordered[int(round(0.99 * (len(ordered) - 1)))]


def _entry_ids(repository) -> List[str]:
    return sorted(entry.entry_id for entry in repository.entries())


def _run_lane(
    label: str, persistence: PersistenceConfig, plan: Optional[FaultPlan]
) -> Lane:
    """Drive the probe stream through one self-healing service."""
    lane = Lane()
    dfs = DistributedFileSystem()
    prepare_service_dfs(dfs, ENTRY_SPECS, PROBE_SPECS)
    if plan is not None:
        faults.install(FaultInjector(plan))
    try:
        service = JobService(
            dfs=dfs,
            persistence=persistence,
            config=probe_config(),
            service=ServiceConfig(
                executor="processes",
                max_workers=1,
                retries=3,
                exchange_timeout=EXCHANGE_TIMEOUT_S,
                backoff_base_s=0.01,
                backoff_cap_s=BACKOFF_CAP_S,
                standby=True,
                heartbeat_misses=2,
            ),
        )
        recoveries = service.persister.events.collect(event_types=PersistenceRecovered)
        session = service.open_session("storm")
        for builder in service_workload(PROBE_SPECS, f"storm/{label}"):
            started = time.perf_counter()
            outcome = session.submit_workflow(builder()).result(timeout=120)
            lane.latencies_s.append(time.perf_counter() - started)
            lane.decisions.append(outcome.decisions)
            for event in outcome.events:
                if isinstance(event, EntryQuarantined):
                    lane.quarantined[event.entry_id] = event.output_path
                elif isinstance(event, EntryEvicted):
                    lane.stale_evictions += event.policy == "stale-input"
        lane.final_ids = _entry_ids(service.repository)
        stats = service.stats
        lane.stats = {
            "retried": stats.retried,
            "timeouts": stats.timeouts,
            "quarantined_entries": stats.quarantined_entries,
            "promotions": stats.promotions,
            "breaker_trips": stats.breaker_trips,
        }
        lane.breaker_open_at_end = service.persister.breaker_open
        lane.persistence_recoveries = len(recoveries)
        if plan is not None:
            lane.fired = list(faults.active().fired)
        service.shutdown(wait=True)
    finally:
        faults.uninstall()
    lane.recovered_ids = _entry_ids(recover(persistence).repository)
    lane.recovered_twice_ids = _entry_ids(recover(persistence).repository)
    return lane


@pytest.fixture(scope="module")
def lanes(tmp_path_factory):
    """(baseline, storm): the fault-free run, then the seeded storm,
    over identical recovered repositories and probe streams."""
    workdir = str(tmp_path_factory.mktemp("storm"))
    storm = storm_plan(
        StormSpec(seed=SEED, n_jobs=N_JOBS, hang_seconds=STORM_HANG_SECONDS)
    ).with_rules(
        # one stored plan turns unreadable the first time a match needs
        # to materialize it: condemned, journaled, served as a miss
        FaultRule(site="snapshot.materialize", action="raise", hits=(1,))
    )
    seed_dir = seed_state(workdir, ENTRY_SPECS, SEED)
    return tuple(
        _run_lane(label, lane_dir(workdir, label, seed_dir), plan)
        for label, plan in (("baseline", None), ("storm", storm))
    )


class TestBaselineLane:
    def test_every_hit_and_variant_probe_is_decided(self, lanes):
        baseline, _ = lanes
        assert [bool(d) for d in baseline.decisions] == [
            spec.kind != "miss" for spec in PROBE_SPECS
        ]
        assert baseline.stale_evictions == 0
        assert baseline.final_ids == baseline.recovered_ids
        assert len(baseline.final_ids) == FULL_GRID_ENTRIES

    def test_no_fault_no_healing(self, lanes):
        baseline, _ = lanes
        assert not any(baseline.stats.values()), baseline.stats
        assert not baseline.quarantined


class TestStormLane:
    def test_no_entry_lost_or_duplicated_across_double_recovery(self, lanes):
        _, storm = lanes
        assert storm.recovered_ids == storm.final_ids
        assert storm.recovered_twice_ids == storm.recovered_ids
        assert len(set(storm.final_ids)) == len(storm.final_ids)

    def test_entries_equal_the_baselines_modulo_quarantine(self, lanes):
        baseline, storm = lanes
        assert len(storm.quarantined) == 1
        assert storm.final_ids == sorted(
            set(baseline.final_ids) - set(storm.quarantined)
        )

    def test_decisions_equal_the_baselines_modulo_quarantine(self, lanes):
        """A job may diverge from the baseline only because the
        baseline's decision used the quarantined entry."""
        baseline, storm = lanes
        markers = set(storm.quarantined) | set(storm.quarantined.values())
        assert len(storm.decisions) == len(baseline.decisions) == N_JOBS
        diverged = [
            base
            for base, stormy in zip(baseline.decisions, storm.decisions)
            if base != stormy
        ]
        assert diverged, "the probe that hit the unreadable plan must differ"
        for base in diverged:
            assert any(marker in line for line in base for marker in markers)

    def test_every_self_healing_path_ran(self, lanes):
        _, storm = lanes
        assert storm.stats["promotions"] == 1
        assert storm.stats["quarantined_entries"] == 1
        assert storm.stats["timeouts"] >= 1
        assert storm.stats["retried"] >= 2
        assert storm.stats["breaker_trips"] >= 1
        assert storm.persistence_recoveries >= 1
        assert not storm.breaker_open_at_end
        # the corruption, the journal window (two hits) and the kill
        assert len(storm.fired) >= 4

    def test_storm_stays_inside_the_liveness_bound(self, lanes):
        """A broken exchange timeout (the hung worker sleeping its
        full ``STORM_HANG_SECONDS``) blows this by construction."""
        baseline, storm = lanes
        bound = baseline.p99_s * 5.0 + 3.0 * (EXCHANGE_TIMEOUT_S + BACKOFF_CAP_S) + 3.0
        assert storm.p99_s <= bound
