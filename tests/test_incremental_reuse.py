"""End-to-end tests for delta-aware incremental recomputation: the
append fast path (rerun the tail, UNION-merge with the stored output)
and what it costs, the typed fallbacks, and the eviction Rule 4
interaction.  That each answer equals a rerun's is the reuse machine's
to check (``tests/test_reuse_machine.py``)."""

import pytest

from repro.core.manager import ReStoreConfig, ReStoreManager
from repro.events import (
    DeltaFallback,
    EntryEvicted,
    EntryRefreshed,
    RewriteApplied,
    SubJobDiscarded,
    SubJobStored,
)
from repro.pig.engine import PigServer

PV = "user, action:int, timestamp:int, est_revenue:double, page_info, page_links"

FILTER_Q = f"""
A = load 'data/page_views' as ({PV});
B = filter A by action == 1;
store B into 'f_out';
"""

GROUP_Q = f"""
A = load 'data/page_views' as ({PV});
D = group A by user;
E = foreach D generate group, SUM(A.est_revenue);
store E into 'g_out';
"""

TAIL = "dave\t1\t105\t3.0\tinfoF\tlinksF\neve\t2\t106\t9.0\tinfoG\tlinksG\n"


def make(dfs, **config_kwargs):
    manager = ReStoreManager(dfs, config=ReStoreConfig(**config_kwargs))
    return PigServer(dfs, restore=manager), manager


def events_of(result, kind):
    return [e for e in result.events if isinstance(e, kind)]


class TestDeltaRefresh:
    def test_append_probe_refreshes_instead_of_recomputing(self, small_data):
        server, manager = make(small_data)
        server.run(FILTER_Q)
        small_data.append("data/page_views", TAIL)

        result = server.run(FILTER_Q)
        assert manager.delta_refresh_count == 1
        refreshed = events_of(result, EntryRefreshed)
        assert len(refreshed) == 1
        assert refreshed[0].delta_records == 1  # only dave passes action==1
        rewrites = [e for e in events_of(result, RewriteApplied) if e.delta]
        assert len(rewrites) == 1
        assert "delta over appended tail" in rewrites[0].render()
        # O(tail), by counters: the probe read the stored output (three
        # rows) plus the appended bytes, and never the base file
        (probe,) = result.stats.job_stats.values()
        assert "data/page_views" not in probe.load_bytes
        (tail_bytes,) = (n for p, n in probe.load_bytes.items() if p != "f_out")
        assert tail_bytes == len(TAIL)
        assert probe.input_records == 3 + TAIL.count("\n")

    def test_failing_durability_listener_is_not_swallowed(self, small_data):
        """``refresh_entry`` mutates before it notifies; only "already
        condemned" (``RepositoryError``) may read as nothing to do."""
        server, manager = make(small_data)
        server.run(FILTER_Q)
        small_data.append("data/page_views", TAIL)

        def journal_down(kind, entry):
            if kind == "refreshed":
                raise OSError("journal down")

        manager.repository.subscribe_mutations(journal_down)
        with pytest.raises(OSError, match="journal down"):
            server.run(FILTER_Q)

    def test_refreshed_entry_answers_the_next_probe_outright(self, small_data):
        server, manager = make(small_data)
        server.run(FILTER_Q)
        small_data.append("data/page_views", TAIL)
        server.run(FILTER_Q)

        result = server.run(FILTER_Q)

        # the merged entry is now fresh over the grown input: no second
        # refresh, no fallback
        assert manager.delta_refresh_count == 1
        assert manager.delta_fallback_count == 0
        assert not events_of(result, EntryRefreshed)

    def test_repeated_appends_refresh_repeatedly(self, small_data):
        server, manager = make(small_data)
        server.run(FILTER_Q)
        for i in range(3):
            small_data.append(
                "data/page_views",
                f"user{i}\t1\t{200 + i}\t1.0\tinfo\tlinks\n",
            )
            server.run(FILTER_Q)
        assert manager.delta_refresh_count == 3

    def test_refresh_advances_repository_extents(self, small_data):
        server, manager = make(small_data)
        server.run(FILTER_Q)
        grown = small_data.append("data/page_views", TAIL).size
        server.run(FILTER_Q)
        entries = [
            e
            for e in manager.repository
            if "data/page_views" in e.input_extents
        ]
        assert entries
        assert all(
            e.input_extents["data/page_views"].size == grown for e in entries
        )


PROJECT_Q = f"""
A = load 'data/page_views' as ({PV});
B = filter A by action == 1;
C = foreach B generate user, est_revenue;
store C into 'p_out';
"""

#: shares PROJECT_Q's filter, whose sub-job entry a delta refresh can
#: grow, and puts a GROUP behind it
FILTER_GROUP_Q = f"""
A = load 'data/page_views' as ({PV});
B = filter A by action == 1;
D = group B by user;
E = foreach D generate group, SUM(B.est_revenue);
store E into 'fg_out';
"""


def subjob_stores(result):
    return [
        store.path
        for stats in result.stats.job_stats.values()
        for store in stats.stores
        if store.path.startswith("restore/subjob/")
    ]


class TestTailBranchInjectsNothing:
    """After a delta rewrite every anchor reads the appended tail, and
    registration refuses whatever reads it: the probe writes no side
    store, and decides what an instrumented probe decides."""

    def probe(self, small_data, *, append):
        server, manager = make(small_data)
        server.run(PROJECT_Q)
        if append:
            small_data.append("data/page_views", TAIL)
        entries = {e.entry_id: e.output_path for e in manager.repository}
        return server.run(FILTER_GROUP_Q), manager, entries

    def test_refreshing_probe_writes_no_side_store(self, small_data):
        result, manager, before = self.probe(small_data, append=True)
        assert manager.delta_refresh_count == 1
        assert len(events_of(result, EntryRefreshed)) == 1
        assert subjob_stores(result) == []
        # an instrumented probe's decisions: nothing offered is stored
        # or discarded, and the repository holds the entries it held,
        # one of them refreshed
        assert not events_of(result, SubJobStored)
        assert not events_of(result, SubJobDiscarded)
        assert {e.entry_id: e.output_path for e in manager.repository} == before
        assert sorted(small_data.list_paths("restore/subjob/")) == sorted(
            p for p in before.values() if p.startswith("restore/subjob/")
        )
        assert result.outputs["fg_out"]

    def test_same_probe_without_an_append_injects(self, small_data):
        """Non-vacuity: over an unchanged input the GROUP is a fresh
        anchor and gets its side store."""
        result, manager, _ = self.probe(small_data, append=False)
        assert manager.delta_refresh_count == 0
        assert subjob_stores(result)
        assert events_of(result, SubJobStored)


class TestDeltaFallback:
    def test_shuffle_probe_falls_back_with_typed_reason(self, small_data):
        server, manager = make(small_data)
        server.run(GROUP_Q)
        small_data.append("data/page_views", TAIL)

        result = server.run(GROUP_Q)

        fallbacks = events_of(result, DeltaFallback)
        assert fallbacks
        assert all(f.reason == "ineligible-chain" for f in fallbacks)
        assert manager.delta_refresh_count == 0
        # the condemned entry was evicted
        assert any(
            e.policy == "stale-input" for e in events_of(result, EntryEvicted)
        )

    def test_fallback_rerun_reregisters_fresh_state(self, small_data):
        server, manager = make(small_data)
        server.run(GROUP_Q)
        small_data.append("data/page_views", TAIL)
        server.run(GROUP_Q)

        # the rerun's registration covers the grown input: a third
        # probe reuses it outright with no fallback
        result = server.run(GROUP_Q)
        assert not events_of(result, DeltaFallback)
        assert manager.elimination_count >= 1


class TestStalenessGuard:
    def test_touch_alone_still_reuses(self, small_data):
        # mtime movement without content change must not break reuse:
        # identity (birth) and size pin the content exactly
        server, manager = make(small_data)
        server.run(FILTER_Q)
        small_data.namenode.touch("data/page_views")
        result = server.run(FILTER_Q)
        assert not any(
            e.policy == "stale-input" for e in events_of(result, EntryEvicted)
        )
        assert len(result.outputs["f_out"]) == 3


class TestEvictionRule4Appends:
    def test_append_keeps_delta_upgradeable_entries(self, small_data):
        server, manager = make(
            small_data, eviction_policies=["input-modified"]
        )
        server.run(FILTER_Q)
        filter_entries = {e.entry_id for e in manager.repository}
        assert filter_entries
        server.run(GROUP_Q)
        group_entries = {e.entry_id for e in manager.repository} - filter_entries
        assert group_entries
        small_data.append("data/page_views", TAIL)
        manager.clock += 1
        evicted = set(manager.run_evictions())
        # the GROUP cannot refresh through its shuffle: Rule 4 evicts
        # it; the delta-upgradeable FILTER chain survives the sweep
        assert evicted == group_entries
        assert filter_entries <= {e.entry_id for e in manager.repository}

    def test_overwrite_still_evicts(self, small_data):
        server, manager = make(
            small_data, eviction_policies=["input-modified"]
        )
        server.run(FILTER_Q)
        assert len(manager.repository) > 0
        small_data.write_file(
            "data/page_views", "x\t1\t1\t1.0\ta\tb\n", overwrite=True
        )
        manager.clock += 1
        manager.run_evictions()
        assert not [
            e
            for e in manager.repository
            if "data/page_views" in e.input_extents
        ]
