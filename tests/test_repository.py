"""Unit tests for the ReStore repository (ordering, stats, persistence)."""

from dataclasses import replace

import pytest

from repro.core.matcher import PlanMatcher
from repro.core.repository import EntryStats, Repository, RepositoryEntry
from repro.dfs.namenode import InputExtent
from repro.exceptions import RepositoryError
from repro.pig.physical.operators import POFilter, POForEach, POLoad, POStore
from repro.pig.physical.plan import linear_plan
from repro.relational.expressions import BinaryOp, Column, Const
from repro.relational.schema import Schema
from repro.relational.types import DataType

SCHEMA = Schema.of(("u", DataType.CHARARRAY), ("r", DataType.DOUBLE))


def make_entry(
    n_ops=1,
    output_path="stored/x",
    input_bytes=1000,
    output_bytes=100,
    exec_time=10.0,
    path="pv",
):
    """Build an entry whose plan has *n_ops* pipeline operators."""
    ops = [POLoad(path, SCHEMA)]
    if n_ops >= 1:
        ops.append(POFilter(BinaryOp(">", Column(1), Const(1.0)), schema=SCHEMA))
    if n_ops >= 2:
        ops.append(POForEach([Column(0)], [False], ["u"], schema=SCHEMA.project([0])))
    ops.append(POStore(output_path, SCHEMA))
    return RepositoryEntry(
        plan=linear_plan(*ops),
        output_path=output_path,
        output_schema=SCHEMA,
        stats=EntryStats(
            input_bytes=input_bytes,
            output_bytes=output_bytes,
            exec_time_s=exec_time,
        ),
    )


class TestBasics:
    def test_add_and_get(self):
        repo = Repository()
        entry = repo.add(make_entry())
        assert repo.get(entry.entry_id) is entry
        assert len(repo) == 1

    def test_remove(self):
        repo = Repository()
        entry = repo.add(make_entry())
        repo.remove(entry.entry_id)
        assert len(repo) == 0

    def test_get_missing(self):
        with pytest.raises(RepositoryError):
            Repository().get("nope")

    def test_total_stored_bytes(self):
        repo = Repository()
        repo.add(make_entry(output_bytes=100))
        repo.add(make_entry(output_path="stored/y", output_bytes=50))
        assert repo.total_stored_bytes == 150

    def test_find_equivalent(self):
        repo = Repository()
        repo.add(make_entry())
        duplicate = make_entry(output_path="stored/other")
        assert repo.find_equivalent(duplicate.plan) is not None

    def test_find_equivalent_differs(self):
        repo = Repository()
        repo.add(make_entry(path="pv"))
        other = make_entry(path="different")
        assert repo.find_equivalent(other.plan) is None

    def test_mark_used(self):
        entry = make_entry()
        entry.mark_used(5)
        assert entry.use_count == 1
        assert entry.last_used_at == 5


class TestOrdering:
    def test_subsuming_plan_first(self):
        """§3 rule 1: plan A before plan B when A subsumes B — the
        filter+project plan must be scanned before the bare filter."""
        repo = Repository()
        small = repo.add(make_entry(n_ops=1, output_path="s/f"))
        big = repo.add(make_entry(n_ops=2, output_path="s/fp"))
        ordered = repo.ordered_entries()
        assert ordered.index(big) < ordered.index(small)

    def test_metric_tiebreak_io_ratio(self):
        """§3 rule 2a: higher input/output ratio first."""
        repo = Repository()
        low = repo.add(
            make_entry(path="a", output_path="s/1", input_bytes=100, output_bytes=90)
        )
        high = repo.add(
            make_entry(path="b", output_path="s/2", input_bytes=100, output_bytes=10)
        )
        ordered = repo.ordered_entries()
        assert ordered.index(high) < ordered.index(low)

    def test_metric_tiebreak_exec_time(self):
        """§3 rule 2b: among equal ratios, longer execution first."""
        repo = Repository()
        quick = repo.add(
            make_entry(path="a", output_path="s/1", exec_time=1.0)
        )
        slow = repo.add(
            make_entry(path="b", output_path="s/2", exec_time=100.0)
        )
        ordered = repo.ordered_entries()
        assert ordered.index(slow) < ordered.index(quick)

    def test_order_cache_invalidation(self):
        repo = Repository()
        repo.add(make_entry(output_path="s/1"))
        first = repo.ordered_entries()
        repo.add(make_entry(n_ops=2, path="q", output_path="s/2"))
        second = repo.ordered_entries()
        assert len(second) == 2
        assert len(first) == 1


def _snapshot_round_trip(repo: Repository) -> Repository:
    from repo_stream import checkpointed

    return checkpointed(repo).repository


class TestPersistence:
    def test_snapshot_round_trip(self):
        repo = Repository()
        entry = make_entry()
        entry.use_count = 3
        extent = InputExtent(mtime=17, generation=0, birth=9, size=40, crc=7)
        entry.input_extents = {"pv": extent}
        repo.add(entry)
        restored = _snapshot_round_trip(repo)
        assert len(restored) == 1
        restored_entry = restored.entries()[0]
        assert restored_entry.entry_id == entry.entry_id
        assert restored_entry.output_path == entry.output_path
        assert restored_entry.use_count == 3
        # recovery forgets births: they name inodes of the process that
        # recorded them
        assert restored_entry.input_extents == {"pv": replace(extent, birth=0)}
        assert restored_entry.plan.fingerprint() == entry.plan.fingerprint()

    def test_restored_plans_still_match(self):
        repo = Repository()
        repo.add(make_entry())
        restored = _snapshot_round_trip(repo)
        matcher = PlanMatcher()
        fresh = make_entry()
        assert (
            matcher.match(fresh.plan, restored.entries()[0].plan) is not None
        )

    def test_io_ratio(self):
        stats = EntryStats(input_bytes=1000, output_bytes=100)
        assert stats.io_ratio == 10.0

    def test_io_ratio_zero_output(self):
        stats = EntryStats(input_bytes=1000, output_bytes=0)
        assert stats.io_ratio == 1000.0
