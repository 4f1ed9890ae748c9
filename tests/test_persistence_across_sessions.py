"""Cross-session repository durability.

ReStore's value compounds across submissions that may be days apart
(§1: Facebook keeps results for seven days), so the repository must
survive engine restarts.  These tests persist through the snapshot +
journal subsystem — the snapshot is just another replicated file on
the DFS it indexes — and verify a *fresh* manager recovered from it
still rewrites new queries against the stored files, with the same
decisions a never-restarted manager would have made.
"""

from __future__ import annotations

import pytest

from repro.core.manager import ReStoreConfig, ReStoreManager
from repro.core.repository import Repository
from repro.events import LOG_EVENTS, render_events
from repro.persistence.durability import (
    PersistenceConfig,
    RepositoryPersister,
    recover,
)
from repro.pig.engine import PigServer

PV = "user, action:int, timestamp:int, est_revenue:double, page_info, page_links"
USERS = "name, phone, address, city"

Q2 = f"""
A = load 'data/page_views' as ({PV});
B = foreach A generate user, est_revenue;
alpha = load 'data/users' as ({USERS});
beta = foreach alpha generate name;
C = join beta by name, B by user;
D = group C by $0;
E = foreach D generate group, SUM(C.est_revenue);
store E into 'OUT';
"""

CONFIG = PersistenceConfig()  # dfs backend, default restore/ paths


def first_session(dfs):
    """Run a query under a live persister, then snapshot into the DFS."""
    manager = ReStoreManager(dfs)
    persister = RepositoryPersister(manager, CONFIG)
    server = PigServer(dfs, restore=manager)
    result = server.run(Q2.replace("OUT", "out/session1"))
    persister.close(snapshot=True)
    return result, manager


def second_session(dfs):
    """A brand-new manager recovered from the persisted snapshot."""
    recovered = recover(CONFIG, dfs)
    manager = ReStoreManager(dfs, repository=recovered.repository)
    manager.kept_paths.update(recovered.kept_paths)
    manager.kept_paths.update(e.output_path for e in recovered.repository.entries())
    manager.clock = max(manager.clock, recovered.clock)
    server = PigServer(dfs, restore=manager)
    return server, manager


class TestCrossSessionReuse:
    def test_repository_round_trips_through_dfs(self, small_data):
        _, manager = first_session(small_data)
        restored = recover(CONFIG, small_data).repository
        assert len(restored) == len(manager.repository)
        for entry in manager.repository:
            twin = restored.get(entry.entry_id)
            assert twin.plan.fingerprint() == entry.plan.fingerprint()
            assert twin.output_path == entry.output_path

    def test_new_session_reuses_old_results(self, small_data):
        result1, _ = first_session(small_data)
        server, manager = second_session(small_data)
        result2 = server.run(Q2.replace("OUT", "out/session2"))
        assert sorted(result2.outputs["out/session2"]) == sorted(
            result1.outputs["out/session1"]
        )
        assert manager.rewrite_count + manager.elimination_count >= 1

    def test_variant_reuses_restored_subjobs(self, small_data):
        first_session(small_data)
        server, manager = second_session(small_data)
        variant = Q2.replace("SUM", "MAX").replace("OUT", "out/vmax")
        result = server.run(variant)
        fresh = PigServer(small_data).run(
            Q2.replace("SUM", "MAX").replace("OUT", "out/vfresh")
        )
        assert sorted(result.outputs["out/vmax"]) == sorted(
            fresh.outputs["out/vfresh"]
        )
        decisions = render_events(result.events, LOG_EVENTS)
        assert any("group" in line for line in decisions)

    def test_restored_statistics_preserve_ordering(self, small_data):
        _, manager = first_session(small_data)
        order_before = [e.entry_id for e in manager.repository.ordered_entries()]
        restored = recover(CONFIG, small_data).repository
        order_after = [e.entry_id for e in restored.ordered_entries()]
        assert order_before == order_after

    def test_eviction_applies_to_restored_entries(self, small_data):

        first_session(small_data)
        repository = recover(CONFIG, small_data).repository
        manager = ReStoreManager(
            small_data,
            repository=repository,
            config=ReStoreConfig(eviction_policies=["input-modified"]),
        )
        # restored entries own their stored files, as in a live session
        manager.kept_paths.update(e.output_path for e in repository)
        small_data.write_file("data/page_views", "z\t1\t1\t1.0\ti\tl\n", overwrite=True)
        small_data.write_file("data/users", "z\tp\ta\tc\n", overwrite=True)
        manager.clock = 1
        evicted = manager.run_evictions()
        assert evicted
        # the cascade clears entries whose inputs were other (now
        # evicted) stored results, transitively
        assert len(manager.repository) == 0


class TestSessionWarmRestart:
    """The full ``ReStoreSession(persistence=...)`` lifecycle: the
    session recovers, journals, and its successor starts warm."""

    def test_session_restart_reuses_results(self, small_data):
        from repro.session import ReStoreSession

        first = ReStoreSession(dfs=small_data, persistence=CONFIG)
        result1 = first.run(Q2.replace("OUT", "out/s1"))
        first.persister.take_snapshot()
        first.close()

        second = ReStoreSession(dfs=small_data, persistence=CONFIG)
        assert len(second.repository) == len(first.repository)
        result2 = second.run(Q2.replace("OUT", "out/s2"))
        second.close()
        assert sorted(result2.outputs["out/s2"]) == sorted(result1.outputs["out/s1"])
        assert second.manager.rewrite_count + second.manager.elimination_count >= 1

    def test_restart_on_a_fresh_dfs_serves_stored_bytes_without_running(
        self, small_data, tmp_path
    ):
        """Local-backend state outlives the DFS: the successor, over a
        new ``DistributedFileSystem`` holding only the inputs, restores
        the stored payloads from the block store and executes nothing."""
        from repro.dfs.filesystem import DistributedFileSystem
        from repro.session import ReStoreSession

        config = PersistenceConfig(
            backend="local",
            snapshot_path=str(tmp_path / "repo.snap"),
            journal_path=str(tmp_path / "repo.journal"),
        )
        script = Q2.replace("OUT", "out/daily")
        cold_session = ReStoreSession(dfs=small_data, persistence=config)
        cold = cold_session.run(script)
        cold_session.persister.take_snapshot()
        cold_session.close()
        assert cold.stats.n_jobs_executed >= 1

        warm_dfs = DistributedFileSystem()
        for path in ("data/page_views", "data/users"):
            warm_dfs.write_file(path, small_data.read_file(path))
        warm_session = ReStoreSession(dfs=warm_dfs, persistence=config)
        warm = warm_session.run(script)
        warm_session.close()
        assert warm.stats.n_jobs_executed == 0
        assert warm_dfs.read_file("out/daily") == small_data.read_file("out/daily")
        assert warm.outputs == cold.outputs

    def test_session_validates_conflicting_arguments(self, small_data):
        from repro.session import ReStoreSession

        with pytest.raises(ValueError, match="repository"):
            ReStoreSession(dfs=small_data, persistence=CONFIG, repository=Repository())
        with pytest.raises(ValueError, match="restore_enabled"):
            ReStoreSession(dfs=small_data, persistence=CONFIG, restore_enabled=False)

    def test_service_restart_reuses_results(self, small_data):
        from repro.service import JobService

        with JobService(dfs=small_data, persistence=CONFIG) as service:
            tenant = service.open_session("alice")
            tenant.run(Q2.replace("OUT", "out/svc1"))
            service.persister.take_snapshot()
            entries_before = len(service.repository)

        with JobService(dfs=small_data, persistence=CONFIG) as successor:
            assert len(successor.repository) == entries_before
            tenant = successor.open_session("bob")
            result = tenant.run(Q2.replace("OUT", "out/svc2"))
            stats = successor.manager
            assert stats.rewrite_count + stats.elimination_count >= 1
        assert result.outputs["out/svc2"]
