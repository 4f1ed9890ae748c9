"""Unit tests for keep rules (§5 rules 1-2) and eviction (§5 rules 3-4)."""

import pytest

from repro.cli import main
from repro.core.eviction import (
    CapacityEviction,
    InputModifiedEviction,
    TimeWindowEviction,
)
from repro.core.repository import EntryStats, Repository, RepositoryEntry
from repro.core.selector import KeepAllSelector, RuleBasedSelector
from repro.costmodel.model import CostModel
from repro.dfs.filesystem import DistributedFileSystem
from repro.pig.physical.operators import POFilter, POLoad, POStore
from repro.pig.physical.plan import linear_plan
from repro.relational.expressions import BinaryOp, Column, Const
from repro.relational.schema import Schema
from repro.relational.types import DataType

SCHEMA = Schema.of(("u", DataType.CHARARRAY), ("r", DataType.DOUBLE))


def entry_with(input_bytes, output_bytes, exec_time=0.0, path="pv",
               output_path="stored/x", created=0, used=0, dfs=None):
    """An entry over *path*, registered against *dfs* (a throwaway one
    holding just that input when the test never looks at it)."""
    if dfs is None:
        dfs = DistributedFileSystem()
        dfs.write_file(path, "row\n")
    entry = RepositoryEntry(
        plan=linear_plan(
            POLoad(path, SCHEMA),
            POFilter(BinaryOp(">", Column(1), Const(0.5)), schema=SCHEMA),
            POStore(output_path, SCHEMA),
        ),
        output_path=output_path,
        output_schema=SCHEMA,
        stats=EntryStats(
            input_bytes=input_bytes,
            output_bytes=output_bytes,
            exec_time_s=exec_time,
        ),
        created_at=created,
        last_used_at=used,
        input_extents={path: dfs.input_extent(path, with_crc=True)},
    )
    return entry


class TestSelectors:
    def test_keep_all(self):
        decision = KeepAllSelector().decide(entry_with(10, 1000))
        assert decision.keep

    def test_rule1_rejects_larger_output(self):
        selector = RuleBasedSelector(CostModel())
        decision = selector.decide(entry_with(100, 200))
        assert not decision.keep
        assert "rule 1" in decision.reason

    def test_rule1_accepts_reducing_output(self):
        selector = RuleBasedSelector(CostModel(data_scale=1e6))
        decision = selector.decide(
            entry_with(1_000_000, 1_000, exec_time=500.0)
        )
        assert decision.keep

    def test_rule2_rejects_when_reuse_not_faster(self):
        """Output barely smaller than input and a cheap producing job:
        loading the stored copy cannot beat recomputing."""
        selector = RuleBasedSelector(CostModel(data_scale=1e6))
        decision = selector.decide(
            entry_with(1_000, 999, exec_time=0.01)
        )
        assert not decision.keep

    def test_rule2_reason_mentions_times(self):
        selector = RuleBasedSelector(CostModel())
        decision = selector.decide(entry_with(1_000, 999, exec_time=0.0001))
        assert not decision.keep


class TestTimeWindowEviction:
    def test_stale_entry_evicted(self):
        repo = Repository()
        stale = repo.add(entry_with(100, 10, created=0, used=0))
        fresh = repo.add(
            entry_with(100, 10, output_path="stored/y", created=9, used=9)
        )
        policy = TimeWindowEviction(window=5)
        victims = policy.select_victims(repo, DistributedFileSystem(), now=10)
        assert victims == [stale]

    def test_recently_used_survives(self):
        repo = Repository()
        entry = repo.add(entry_with(100, 10, created=0, used=8))
        policy = TimeWindowEviction(window=5)
        assert policy.select_victims(repo, DistributedFileSystem(), 10) == []

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            TimeWindowEviction(0)


class TestInputModifiedEviction:
    def test_deleted_input_evicts(self):
        dfs = DistributedFileSystem()
        dfs.write_file("pv", "row\n")
        repo = Repository()
        entry = repo.add(entry_with(100, 10, dfs=dfs))
        dfs.delete("pv")
        victims = InputModifiedEviction().select_victims(repo, dfs, 1)
        assert victims == [entry]

    def test_unmodified_input_survives(self):
        dfs = DistributedFileSystem()
        dfs.write_file("pv", "row\n")
        repo = Repository()
        repo.add(entry_with(100, 10, dfs=dfs))
        assert InputModifiedEviction().select_victims(repo, dfs, 1) == []

    def test_modified_input_evicts(self):
        dfs = DistributedFileSystem()
        dfs.write_file("pv", "row\n")
        repo = Repository()
        entry = repo.add(entry_with(100, 10, dfs=dfs))
        dfs.write_file("pv", "changed\n", overwrite=True)
        victims = InputModifiedEviction().select_victims(repo, dfs, 1)
        assert victims == [entry]


class TestCapacityEviction:
    def test_under_budget_no_victims(self):
        repo = Repository()
        repo.add(entry_with(100, 10))
        policy = CapacityEviction(capacity_bytes=1000)
        assert policy.select_victims(repo, DistributedFileSystem(), 1) == []

    def test_lru_evicted_first(self):
        repo = Repository()
        old = repo.add(entry_with(100, 600, used=1))
        new = repo.add(entry_with(100, 600, output_path="stored/y", used=9))
        policy = CapacityEviction(capacity_bytes=1000)
        victims = policy.select_victims(repo, DistributedFileSystem(), 10)
        assert victims == [old]

    def test_evicts_until_fits(self):
        repo = Repository()
        for i in range(4):
            repo.add(
                entry_with(100, 500, output_path=f"stored/{i}", used=i)
            )
        policy = CapacityEviction(capacity_bytes=1000)
        victims = policy.select_victims(repo, DistributedFileSystem(), 10)
        assert len(victims) == 2

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            CapacityEviction(-1)


class TestEvictionSpecs:
    @pytest.mark.parametrize("spec", ["time-window:", "time-window:x", "capacity:abc"])
    def test_non_integer_argument_names_the_spec(self, spec, tmp_path, capsys):
        script = tmp_path / "q.pig"
        script.write_text("A = load 'x' as (a); store A into 'o';")
        assert main(["run", str(script), "--evict", spec]) == 2
        err = capsys.readouterr().err
        assert f"eviction spec '{spec}': argument must be an integer" in err
