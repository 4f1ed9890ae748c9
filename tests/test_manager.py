"""Integration tests for ReStoreManager — the paper's end-to-end flows.

These exercise the scenarios of Figures 2-6: whole-job reuse across
queries (Q1 -> Q2), sub-job reuse, repository chaining across multi-job
workflows, resubmission, and eviction effects.
"""

import pytest

from repro.core.eviction import InputModifiedEviction, TimeWindowEviction
from repro.core.manager import ReStoreConfig, ReStoreManager
from repro.events import LOG_EVENTS, render_events
from repro.pig.engine import PigServer

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

Q2 = f"""
A = load 'data/page_views' as ({PV});
B = foreach A generate user, est_revenue;
alpha = load 'data/users' as ({USERS});
beta = foreach alpha generate name;
C = join beta by name, B by user;
D = group C by $0;
E = foreach D generate group, SUM(C.est_revenue);
store E into 'q2_out';
"""

Q2_EXPECTED = [("alice", 4.5), ("bob", 4.0), ("carol", 8.0)]


def make(small_data, **config_kwargs):
    manager = ReStoreManager(
        small_data, config=ReStoreConfig(**config_kwargs)
    )
    return PigServer(small_data, restore=manager), manager


class TestPaperExample:
    def test_q2_reuses_q1_whole_job(self, small_data):
        """The paper's Figures 2-4: Q2's join job is answered entirely
        by Q1's stored output."""
        server, manager = make(small_data)
        server.run(Q1)
        result = server.run(Q2)
        assert sorted(result.outputs["q2_out"]) == Q2_EXPECTED
        assert manager.elimination_count == 1
        decisions = render_events(result.events, LOG_EVENTS)
        assert any("whole job" in line for line in decisions)

    def test_q2_correct_without_priming(self, small_data):
        server, manager = make(small_data)
        result = server.run(Q2)
        assert sorted(result.outputs["q2_out"]) == Q2_EXPECTED
        assert manager.elimination_count == 0

    def test_q1_reuses_q2_subjobs(self, small_data):
        """Reverse order: Q1 arrives after Q2; its single job matches
        Q2's stored join job (whole-job reuse of an intermediate)."""
        server, manager = make(small_data)
        server.run(Q2)
        result = server.run(Q1)
        assert len(result.outputs["q1_out"]) == 5
        assert manager.rewrite_count + manager.elimination_count >= 1

    def test_variant_aggregation_reuses_group_subjob(self, small_data):
        """L3-variant flow: same query with AVG instead of SUM reuses
        the join job (whole) and the stored Group output (sub-job)."""
        server, manager = make(small_data)
        server.run(Q2)
        variant = Q2.replace("SUM", "AVG").replace("q2_out", "q2avg_out")
        result = server.run(variant)
        assert sorted(result.outputs["q2avg_out"]) == [
            ("alice", 1.5), ("bob", 4.0), ("carol", 8.0),
        ]
        decisions = render_events(result.events, LOG_EVENTS)
        assert any("group" in line for line in decisions)

    def test_resubmission_same_output_eliminated(self, small_data):
        server, manager = make(small_data)
        server.run(Q2)
        result = server.run(Q2)
        assert sorted(result.outputs["q2_out"]) == Q2_EXPECTED
        # both jobs answered from the repository, nothing executed
        assert result.stats.n_jobs_executed == 0

    def test_resubmission_new_output_copies(self, small_data):
        server, manager = make(small_data)
        server.run(Q2)
        rerun = Q2.replace("q2_out", "q2_rerun")
        result = server.run(rerun)
        assert sorted(result.outputs["q2_rerun"]) == Q2_EXPECTED
        # only the copy job ran
        assert result.stats.n_jobs_executed == 1

    def test_reuse_result_equals_fresh_result(self, small_data):
        """Correctness invariant: rewritten workflows produce exactly
        the rows the unmodified workflow produces."""
        fresh_server = PigServer(small_data)
        expected = fresh_server.run(
            Q2.replace("q2_out", "fresh_out")
        ).outputs["fresh_out"]

        server, _ = make(small_data)
        server.run(Q1)
        reused = server.run(Q2).outputs["q2_out"]
        assert sorted(reused) == sorted(expected)


class TestRepositoryContents:
    def test_whole_and_sub_jobs_registered(self, small_data):
        server, manager = make(small_data)
        server.run(Q2)
        kinds = sorted(e.anchor_kind for e in manager.repository)
        assert "whole-job" in kinds
        assert "project" in kinds
        assert "group" in kinds

    def test_duplicate_candidates_not_registered(self, small_data):
        server, manager = make(small_data)
        server.run(Q1)
        count_after_first = len(manager.repository)
        server.run(Q1.replace("q1_out", "q1b_out"))
        # the rerun matched; no duplicate plans should be added
        assert len(manager.repository) == count_after_first

    def test_kept_paths_preserved_on_dfs(self, small_data):
        server, manager = make(small_data)
        server.run(Q2)
        for path in manager.kept_paths:
            assert small_data.exists(path)

    def test_temporary_whole_job_output_kept(self, small_data):
        server, manager = make(small_data)
        result = server.run(Q2)
        temps = [j.output_path for j in result.workflow.jobs if j.temporary]
        assert temps
        assert all(small_data.exists(p) for p in temps)

    def test_register_whole_jobs_none(self, small_data):
        server, manager = make(small_data, register_whole_jobs="none")
        server.run(Q1)
        assert all(e.anchor_kind != "whole-job" for e in manager.repository)

    def test_rewrite_disabled(self, small_data):
        server, manager = make(small_data, rewrite_enabled=False)
        server.run(Q1)
        result = server.run(Q2)
        assert manager.rewrite_count == 0
        assert manager.elimination_count == 0
        assert sorted(result.outputs["q2_out"]) == Q2_EXPECTED

    def test_inject_disabled(self, small_data):
        server, manager = make(small_data, inject_enabled=False)
        server.run(Q1)
        assert all(
            e.anchor_kind == "whole-job" for e in manager.repository
        )


class TestEviction:
    def test_time_window_eviction_runs_between_workflows(self, small_data):
        server, manager = make(
            small_data,
            eviction_policies=[TimeWindowEviction(window=1)],
        )
        server.run(Q1)
        n_entries = len(manager.repository)
        assert n_entries > 0
        # run three unrelated workflows; Q1's entries go stale
        for i in range(3):
            server.run(
                f"X = load 'data/users' as ({USERS}); "
                f"Y = filter X by city == 'nowhere_{i}'; "
                f"store Y into 'noop_{i}';"
            )
        assert len(manager.repository) < n_entries + 6

    def test_input_modified_eviction(self, small_data):
        server, manager = make(
            small_data,
            eviction_policies=[InputModifiedEviction()],
        )
        server.run(Q1)
        assert len(manager.repository) > 0
        # modify the source dataset: Rule 4 must clear dependent entries
        small_data.write_file("data/page_views", "x\t1\t1\t1.0\ta\tb\n",
                              overwrite=True)
        small_data.write_file("data/users", "x\t1\t1\t1\n", overwrite=True)
        manager.clock += 1
        evicted = manager.run_evictions()
        assert evicted
        assert len(manager.repository) == 0

    def test_failing_durability_listener_is_not_swallowed(self, small_data):
        """``Repository.remove`` deletes the entry before it notifies:
        an eviction that hid the listener's error would lose the entry
        with no ``EntryEvicted`` and leak its kept file.  Only "already
        gone" (``RepositoryError``) reads as nothing to evict."""
        server, manager = make(
            small_data, eviction_policies=[InputModifiedEviction()]
        )
        server.run(Q1)
        gone = manager.repository.entries()[0]
        manager.repository.remove(gone.entry_id)
        assert manager._evict(gone, "test") is None

        def journal_down(kind, entry):
            raise OSError("journal down")

        manager.repository.subscribe_mutations(journal_down)
        small_data.write_file("data/users", "x\t1\t1\t1\n", overwrite=True)
        manager.clock += 1
        with pytest.raises(OSError, match="journal down"):
            manager.run_evictions()

    def test_stale_entries_not_reused_after_eviction(self, small_data):
        server, manager = make(
            small_data,
            eviction_policies=[InputModifiedEviction()],
        )
        server.run(Q1)
        small_data.write_file(
            "data/page_views",
            "zed\t1\t100\t9.0\ti\tl\n",
            overwrite=True,
        )
        small_data.write_file("data/users", "zed\tp\ta\tc\n", overwrite=True)
        result = server.run(Q2)
        # fresh data -> fresh answer; no stale reuse
        assert result.outputs["q2_out"] == [("zed", 9.0)]


class TestEvents:
    def test_events_drained(self, small_data):
        server, manager = make(small_data)
        server.run(Q1)
        result = server.run(Q2)
        assert result.events
        assert manager.drain() == []  # drained by the engine

    def test_repr(self, small_data):
        _, manager = make(small_data)
        assert "ReStoreManager" in repr(manager)
