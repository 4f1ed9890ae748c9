"""End-to-end tests for delta-aware incremental recomputation: the
match-time staleness guard, the append fast path (rerun the tail,
UNION-merge with the stored output), the typed fallbacks, and the
eviction Rule 4 interaction."""

import pytest

from repro.core.eviction import InputModifiedEviction
from repro.core.manager import ReStoreConfig, ReStoreManager
from repro.dfs.filesystem import DistributedFileSystem
from repro.events import (
    DeltaFallback,
    EntryEvicted,
    EntryRefreshed,
    RewriteApplied,
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


def oracle_run(small_data, script, out):
    """The no-reuse answer over the *current* state of ``small_data``,
    computed on a fresh DFS so nothing leaks between engines."""
    dfs = DistributedFileSystem()
    for path in ("data/page_views", "data/users"):
        dfs.write_file(path, small_data.read_file(path))
    PigServer(dfs).run(script)
    return dfs.read_file(out)


def events_of(result, kind):
    return [e for e in result.events if isinstance(e, kind)]


class TestDeltaRefresh:
    def test_append_probe_refreshes_instead_of_recomputing(self, small_data):
        server, manager = make(small_data)
        server.run(FILTER_Q)
        small_data.append("data/page_views", TAIL)

        result = server.run(FILTER_Q)

        assert small_data.read_file("f_out") == oracle_run(
            small_data, FILTER_Q, "f_out"
        )
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
        # refresh, no fallback, and the answer still matches the oracle
        assert manager.delta_refresh_count == 1
        assert manager.delta_fallback_count == 0
        assert not events_of(result, EntryRefreshed)
        assert small_data.read_file("f_out") == oracle_run(
            small_data, FILTER_Q, "f_out"
        )

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
        assert small_data.read_file("f_out") == oracle_run(
            small_data, FILTER_Q, "f_out"
        )

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
        # the condemned entry was evicted and the rerun is correct
        assert any(
            e.policy == "stale-input" for e in events_of(result, EntryEvicted)
        )
        assert small_data.read_file("g_out") == oracle_run(
            small_data, GROUP_Q, "g_out"
        )

    def test_disabled_delta_recomputes_fully_and_correctly(self, small_data):
        server, manager = make(small_data, delta_enabled=False)
        server.run(FILTER_Q)
        small_data.append("data/page_views", TAIL)

        result = server.run(FILTER_Q)

        fallbacks = events_of(result, DeltaFallback)
        assert fallbacks and fallbacks[0].reason == "delta-disabled"
        assert manager.delta_refresh_count == 0
        assert small_data.read_file("f_out") == oracle_run(
            small_data, FILTER_Q, "f_out"
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
    """The regression the tentpole fixes: an input overwritten between
    two identical probes must never serve the first probe's bytes."""

    def test_overwrite_between_identical_probes(self, small_data):
        server, manager = make(small_data)
        first = server.run(FILTER_Q)
        assert len(first.outputs["f_out"]) == 3

        small_data.write_file(
            "data/page_views",
            "zed\t1\t100\t9.0\ti\tl\nyan\t2\t101\t1.0\ti\tl\n",
            overwrite=True,
        )
        result = server.run(FILTER_Q)

        assert result.outputs["f_out"] == [("zed", 1, 100, 9.0, "i", "l")]
        assert small_data.read_file("f_out") == oracle_run(
            small_data, FILTER_Q, "f_out"
        )
        assert any(
            e.policy == "stale-input" for e in events_of(result, EntryEvicted)
        )

    def test_deleted_input_condemns_instead_of_serving(self, small_data):
        server, manager = make(small_data)
        server.run(FILTER_Q)
        small_data.delete("data/page_views")
        small_data.write_file(
            "data/page_views", "zed\t1\t100\t9.0\ti\tl\n"
        )
        result = server.run(FILTER_Q)
        assert result.outputs["f_out"] == [("zed", 1, 100, 9.0, "i", "l")]

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
            small_data, eviction_policies=[InputModifiedEviction()]
        )
        server.run(FILTER_Q)
        filter_entries = [
            e
            for e in manager.repository
            if "data/page_views" in e.input_extents
        ]
        assert filter_entries
        small_data.append("data/page_views", TAIL)
        manager.clock += 1
        evicted = {e.entry_id for e in manager.run_evictions()}
        kept = {e.entry_id for e in filter_entries} - evicted
        # at least the delta-upgradeable filter chain survives the sweep
        assert kept

    def test_overwrite_still_evicts(self, small_data):
        server, manager = make(
            small_data, eviction_policies=[InputModifiedEviction()]
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


class TestDeltaHygiene:
    def test_no_delta_temp_files_survive(self, small_data):
        server, manager = make(small_data)
        server.run(FILTER_Q)
        small_data.append("data/page_views", TAIL)
        server.run(FILTER_Q)
        assert not small_data.list_paths("restore/delta/")

    def test_delta_temp_paths_never_register(self, small_data):
        server, manager = make(small_data)
        server.run(FILTER_Q)
        small_data.append("data/page_views", TAIL)
        server.run(FILTER_Q)
        for entry in manager.repository:
            for path in entry.input_extents:
                assert not path.startswith("restore/delta/")
