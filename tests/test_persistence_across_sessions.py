"""Cross-session repository durability.

ReStore's value compounds across submissions that may be days apart
(§1: Facebook keeps results for seven days), so the repository must
survive engine restarts.  These tests persist through the one log —
just another replicated file on the DFS it indexes — and verify that
eviction applies to a recovered repository and that a successor on a
fresh filesystem serves its stored bytes.
(``tests/test_checkpoint.py`` round-trips entries and their §3 order.)  That answers stay the same across a restart, on
every executor, is ``tests/test_reuse_machine.py``'s to check.
"""

from __future__ import annotations

import pytest

from repro.core.manager import ReStoreConfig, ReStoreManager
from repro.core.repository import Repository
from repro.persistence.durability import PersistenceConfig, adopt_recovered, recover
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
    """Run a query under a live persister, then checkpoint into the DFS."""
    state = recover(CONFIG, dfs)
    manager = ReStoreManager(dfs, repository=state.repository)
    persister = adopt_recovered(manager, state, CONFIG)
    server = PigServer(dfs, restore=manager)
    result = server.run(Q2.replace("OUT", "out/session1"))
    persister.close(snapshot=True)
    return result, manager


class TestCrossSessionReuse:
    def test_eviction_applies_to_restored_entries(self, small_data):
        from repro.session import ReStoreSession

        first_session(small_data)
        session = ReStoreSession(
            small_data,
            persistence=CONFIG,
            config=ReStoreConfig(eviction_policies=["input-modified"]),
        )
        manager = session.manager
        small_data.write_file("data/page_views", "z\t1\t1\t1.0\ti\tl\n", overwrite=True)
        small_data.write_file("data/users", "z\tp\ta\tc\n", overwrite=True)
        manager.clock += 1
        evicted = manager.run_evictions()
        assert evicted
        # the cascade clears entries whose inputs were other (now
        # evicted) stored results, transitively
        assert len(manager.repository) == 0
        session.close()


class TestSessionWarmRestart:
    """The full ``ReStoreSession(persistence=...)`` lifecycle: the
    session recovers, journals, and its successor starts warm."""

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
