"""The staleness differential matrix.

Every input-mutation scenario (fresh / append / overwrite /
delete-recreate / delete) crossed with every execution mode (serial
engine, 1-worker job service, persistence warm restart) must land on
the same bytes a no-reuse oracle computes over the final input state —
reuse may only change *cost*, never *answers*.  The delete cell
asserts the same failure as the oracle: a missing input is an error in
both worlds, not a stale answer in one."""

from __future__ import annotations

import pytest

from repro.core.manager import ReStoreConfig, ReStoreManager
from repro.dfs.filesystem import DistributedFileSystem
from repro.exceptions import FileNotFoundInDFS
from repro.persistence.durability import (
    PersistenceConfig,
    RepositoryPersister,
    recover,
)
from repro.pig.engine import PigServer
from repro.service import JobService

PV = "user, action:int, timestamp:int, est_revenue:double, page_info, page_links"

PROBE = f"""
A = load 'data/page_views' as ({PV});
B = filter A by action == 1;
store B into 'm_out';
"""

BASE_ROWS = (
    "alice\t1\t100\t1.5\tinfoA\tlinksA\n"
    "bob\t2\t101\t2.5\tinfoB\tlinksB\n"
    "carol\t1\t102\t4.0\tinfoC\tlinksC\n"
)
TAIL_ROWS = "dave\t1\t105\t3.0\tinfoF\tlinksF\n"
REPLACEMENT_ROWS = (
    "zed\t1\t200\t9.0\tinfoZ\tlinksZ\nyan\t2\t201\t1.0\tinfoY\tlinksY\n"
)

SCENARIOS = ("fresh", "append", "overwrite", "delete_recreate", "delete")


def fresh_dfs() -> DistributedFileSystem:
    dfs = DistributedFileSystem()
    dfs.write_file("data/page_views", BASE_ROWS)
    return dfs


def mutate(dfs: DistributedFileSystem, scenario: str) -> None:
    """Apply one matrix scenario to the input between the two probes."""
    if scenario == "fresh":
        return
    if scenario == "append":
        dfs.append("data/page_views", TAIL_ROWS)
    elif scenario == "overwrite":
        dfs.write_file("data/page_views", REPLACEMENT_ROWS, overwrite=True)
    elif scenario == "delete_recreate":
        dfs.delete("data/page_views")
        dfs.write_file("data/page_views", REPLACEMENT_ROWS)
    elif scenario == "delete":
        dfs.delete("data/page_views")
    else:  # pragma: no cover - scenario list and impls must stay in sync
        raise AssertionError(scenario)


def outcome(run) -> tuple:
    """("ok", output bytes) or ("error", exception type) — the shape
    compared across the matrix, so the delete cell can demand the
    *same* failure from both worlds."""
    try:
        return ("ok", run())
    except FileNotFoundInDFS:
        return ("error", "FileNotFoundInDFS")


def oracle_outcome(scenario: str) -> tuple:
    """The no-reuse answer over the final input state."""
    dfs = fresh_dfs()
    mutate(dfs, scenario)

    def run():
        PigServer(dfs).run(PROBE)
        return dfs.read_file("m_out")

    return outcome(run)


def serial_outcome(scenario: str) -> tuple:
    dfs = fresh_dfs()
    manager = ReStoreManager(dfs)
    server = PigServer(dfs, restore=manager)
    server.run(PROBE)
    mutate(dfs, scenario)

    def run():
        server.run(PROBE)
        return dfs.read_file("m_out")

    return outcome(run)


def service_outcome(scenario: str) -> tuple:
    service = JobService(
        config=ReStoreConfig(heuristic="never"),
        max_workers=1,
    )
    try:
        service.dfs.write_file("data/page_views", BASE_ROWS)
        session = service.open_session("tenant")
        session.run(PROBE)
        mutate(service.dfs, scenario)

        def run():
            session.run(PROBE)
            return service.dfs.read_file("m_out")

        return outcome(run)
    finally:
        service.shutdown()


def warm_restart_outcome(scenario: str) -> tuple:
    config = PersistenceConfig()
    dfs = fresh_dfs()
    manager = ReStoreManager(dfs)
    persister = RepositoryPersister(manager, config)
    PigServer(dfs, restore=manager).run(PROBE)
    persister.close(snapshot=True)

    mutate(dfs, scenario)

    recovered = recover(config, dfs)
    warm = ReStoreManager(dfs, repository=recovered.repository)
    warm.kept_paths.update(recovered.kept_paths)
    warm.kept_paths.update(
        e.output_path for e in recovered.repository.entries()
    )
    warm.clock = max(warm.clock, recovered.clock)
    server = PigServer(dfs, restore=warm)

    def run():
        server.run(PROBE)
        return dfs.read_file("m_out")

    return outcome(run)


MODES = {
    "serial": serial_outcome,
    "service": service_outcome,
    "warm_restart": warm_restart_outcome,
}


class TestStalenessMatrix:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_cell_matches_no_reuse_oracle(self, mode, scenario):
        assert MODES[mode](scenario) == oracle_outcome(scenario)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_delete_cell_fails_like_the_oracle(self, mode):
        # spelled out separately so a regression that silently serves
        # stale bytes for a deleted input reads as what it is
        kind, detail = MODES[mode]("delete")
        assert (kind, detail) == ("error", "FileNotFoundInDFS")
