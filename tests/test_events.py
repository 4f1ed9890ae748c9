"""Typed event subsystem: bus semantics, manager emission, shims."""

import pytest

from repro.core.manager import ReStoreManager
from repro.events import (
    LOG_EVENTS,
    EntryEvicted,
    EventBus,
    JobEliminated,
    ReStoreEvent,
    RewriteApplied,
    SubJobDiscarded,
    SubJobStored,
    render_events,
)
from repro.session import ReStoreSession

PV = "user, action:int, timestamp:int, est_revenue:double, page_info, page_links"
USERS = "name, phone, address, city"

Q1 = f"""
A = load 'data/page_views' as ({PV});
B = foreach A generate user, est_revenue;
alpha = load 'data/users' as ({USERS});
beta = foreach alpha generate name;
C = join beta by name, B by user;
store C into 'q1_out';
"""

Q2 = Q1.replace("store C into 'q1_out';", """
D = group C by $0;
E = foreach D generate group, SUM(C.est_revenue);
store E into 'q2_out';
""")


class TestEventBus:
    def test_delivery_in_emission_order_with_increasing_seq(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        first = bus.emit(RewriteApplied(job_id="j1"))
        second = bus.emit(JobEliminated(job_id="j2"))
        assert seen == [first, second]
        assert [e.seq for e in seen] == sorted(e.seq for e in seen)
        assert first.seq < second.seq

    def test_subscribers_called_in_subscription_order(self):
        bus = EventBus()
        calls = []
        bus.subscribe(lambda e: calls.append("a"))
        bus.subscribe(lambda e: calls.append("b"))
        bus.emit(RewriteApplied())
        assert calls == ["a", "b"]

    def test_type_filter(self):
        bus = EventBus()
        rewrites = bus.collect(event_types=RewriteApplied)
        everything = bus.collect()
        bus.emit(RewriteApplied(job_id="j1"))
        bus.emit(EntryEvicted(entry_id="e1"))
        assert len(rewrites) == 1
        assert isinstance(rewrites[0], RewriteApplied)
        assert len(everything) == 2

    def test_type_filter_accepts_tuple(self):
        bus = EventBus()
        seen = bus.collect(event_types=(RewriteApplied, JobEliminated))
        bus.emit(SubJobStored(entry_id="e1"))
        bus.emit(JobEliminated(job_id="j1"))
        assert [type(e) for e in seen] == [JobEliminated]

    def test_predicate_filter(self):
        bus = EventBus()
        seen = bus.collect(predicate=lambda e: e.job_id == "job_2")
        bus.emit(RewriteApplied(job_id="job_1"))
        bus.emit(RewriteApplied(job_id="job_2"))
        assert len(seen) == 1
        assert seen[0].job_id == "job_2"

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe(seen.append)
        bus.emit(RewriteApplied())
        unsubscribe()
        bus.emit(RewriteApplied())
        assert len(seen) == 1


class TestLegacyRendering:
    """render() must reproduce the pre-1.1 log lines byte-for-byte."""

    def test_subjob_rewrite(self):
        event = RewriteApplied(
            job_id="job_1", entry_id="entry_000001",
            anchor_kind="group", output_path="tmp/s1/t2",
        )
        assert event.render() == (
            "job_1: reused sub-job entry_000001 (group) from tmp/s1/t2"
        )

    def test_whole_job_copy_rewrite(self):
        event = RewriteApplied(
            job_id="job_1", entry_id="entry_000002",
            anchor_kind="whole-job", output_path="out/q1", whole_job=True,
        )
        assert event.render() == (
            "job_1: whole job matched entry_000002; rewritten to copy out/q1"
        )

    def test_elimination_redirected(self):
        event = JobEliminated(
            job_id="job_3", entry_id="entry_000004",
            output_path="tmp/s1/t1", reason="redirected",
        )
        assert event.render() == (
            "job_3: whole job answered by entry_000004; "
            "consumers redirected to tmp/s1/t1"
        )

    def test_elimination_already_stored(self):
        event = JobEliminated(
            job_id="job_3", entry_id="entry_000004",
            output_path="out/q2", reason="already-stored",
        )
        assert event.render() == "job_3: result already stored at out/q2"

    def test_discard_and_evict(self):
        assert SubJobDiscarded(
            output_path="tmp/x", reason="rule 1: too big"
        ).render() == "discarded sub-job output tmp/x: rule 1: too big"
        assert SubJobDiscarded(
            output_path="out/y", reason="rule 2", anchor_kind="whole-job"
        ).render() == "not keeping whole-job output out/y: rule 2"
        assert EntryEvicted(
            entry_id="entry_000009", policy="time-window", output_path="tmp/z"
        ).render() == "evicted entry_000009 (time-window): tmp/z"

    def test_str_matches_render(self):
        event = SubJobStored(entry_id="e", output_path="p", anchor_kind="group")
        assert str(event) == event.render()
        assert render_events([event]) == [event.render()]


class TestManagerEmitsTypedEvents:
    def test_run_produces_only_dataclass_events(self, small_data):
        session = ReStoreSession(dfs=small_data)
        session.run(Q1)
        result = session.run(Q2)
        assert result.events
        assert all(isinstance(e, ReStoreEvent) for e in result.events)

    def test_elimination_event_carries_structure(self, small_data):
        session = ReStoreSession(dfs=small_data)
        session.run(Q1)
        result = session.run(Q2)
        eliminations = [
            e for e in result.events if isinstance(e, JobEliminated)
        ]
        assert eliminations
        assert eliminations[0].entry_id.startswith("entry_")
        assert eliminations[0].output_path

    def test_store_events_on_first_run(self, small_data):
        session = ReStoreSession(dfs=small_data)
        result = session.run(Q1)
        stored = [e for e in result.events if isinstance(e, SubJobStored)]
        assert stored
        assert {e.entry_id for e in stored} <= {
            entry.entry_id for entry in session.repository
        }

    def test_bus_subscription_sees_events_live(self, small_data):
        session = ReStoreSession(dfs=small_data)
        live = session.events.collect(event_types=JobEliminated)
        session.run(Q1)
        assert live == []
        session.run(Q2)
        assert live  # delivered during run, before drain

    def test_legacy_strings_projects_typed_events(self, small_data):
        session = ReStoreSession(dfs=small_data)
        session.run(Q1)
        result = session.run(Q2)
        assert render_events(result.events, LOG_EVENTS) == [
            e.render() for e in result.events
            if not isinstance(e, SubJobStored)
        ]


class TestLegacyStringProjection:
    def test_legacy_strings_renders(self, small_data):
        manager = ReStoreManager(small_data)
        manager._emit(RewriteApplied(
            job_id="job_1", entry_id="entry_000001",
            anchor_kind="group", output_path="tmp/s1/t2",
        ))
        assert render_events(manager.drain(), LOG_EVENTS) == [
            "job_1: reused sub-job entry_000001 (group) from tmp/s1/t2"
        ]
        assert manager.drain() == []  # drained

    def test_legacy_strings_hide_store_events(self, small_data):
        manager = ReStoreManager(small_data)
        manager._emit(SubJobStored(entry_id="e", output_path="p"))
        assert render_events(manager.drain(), LOG_EVENTS) == []

    def test_typed_drain_returns_everything(self, small_data):
        manager = ReStoreManager(small_data)
        manager._emit(SubJobStored(entry_id="e", output_path="p"))
        drained = manager.drain()
        assert len(drained) == 1
        assert manager.drain() == []
