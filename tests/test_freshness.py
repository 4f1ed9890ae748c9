"""Unit tests for match-time freshness classification and delta
eligibility (:mod:`repro.core.freshness`), plus the DFS extent probes
they rely on (``input_extent`` / ``read_range`` / ``prefix_crc32``)
and the inode-identity invariants that make the classification sound."""

import zlib
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.freshness import (
    APPENDED,
    DEAD,
    FRESH,
    REWRITTEN,
    classify_entry,
    classify_extent,
    classify_input,
    delta_chain,
    delta_upgradeable,
)
from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.namenode import InputExtent
from repro.pig.physical.operators import (
    POFilter,
    POForEach,
    POLimit,
    POLoad,
    POSplit,
    POStore,
    POUnion,
)
from repro.pig.physical.plan import PhysicalPlan, linear_plan
from repro.relational.expressions import BinaryOp, Column, Const
from repro.relational.schema import Schema
from repro.relational.types import DataType

SCHEMA = Schema.of(("u", DataType.CHARARRAY), ("r", DataType.DOUBLE))
PROJ_SCHEMA = SCHEMA.project([0])


@dataclass
class FakeEntry:
    """The attributes the classifiers read from a repository entry,
    without dragging in registration machinery."""

    input_extents: Dict[str, InputExtent] = field(default_factory=dict)
    plan: Optional[PhysicalPlan] = None
    output_path: str = "out"
    output_extent: Optional[InputExtent] = None


def extent(mtime=1, generation=0, birth=1, size=10, crc=None) -> InputExtent:
    return InputExtent(
        mtime=mtime, generation=generation, birth=birth, size=size, crc=crc
    )


class TestClassifyExtent:
    def test_missing_live_is_dead(self):
        assert classify_extent(extent(), None) == DEAD

    def test_same_birth_same_size_is_fresh(self):
        # even when the mtime moved (touch): appends are the only
        # in-place mutation, so equal size on the same inode proves
        # byte identity
        recorded = extent(mtime=1, birth=1, size=10)
        live = extent(mtime=9, generation=3, birth=1, size=10)
        assert classify_extent(recorded, live) == FRESH

    def test_same_birth_growth_is_appended(self):
        recorded = extent(birth=1, size=10)
        live = extent(birth=1, size=25)
        assert classify_extent(recorded, live) == APPENDED

    def test_shrink_is_rewritten(self):
        recorded = extent(birth=1, size=10)
        live = extent(birth=1, size=4)
        assert classify_extent(recorded, live) == REWRITTEN

    def test_birth_mismatch_without_crc_is_rewritten(self):
        recorded = extent(birth=1, size=10)
        live = extent(birth=7, size=10)
        assert classify_extent(recorded, live) == REWRITTEN

    def test_birth_mismatch_without_probe_is_rewritten(self):
        # a recorded crc alone is not enough: with no way to hash the
        # live prefix the mismatch stays unverifiable
        recorded = extent(birth=1, size=10, crc=123)
        live = extent(birth=7, size=10)
        assert classify_extent(recorded, live) == REWRITTEN

    def test_birth_mismatch_with_wrong_crc_is_rewritten(self):
        recorded = extent(birth=1, size=10, crc=123)
        live = extent(birth=7, size=10)
        assert classify_extent(recorded, live, lambda size: 999) == REWRITTEN

    def test_birth_mismatch_with_verified_crc_is_fresh(self):
        # the persistence-restart case: logical births are
        # process-local, so a re-materialized input has a foreign
        # birth but a matching prefix checksum
        recorded = extent(birth=1, size=10, crc=123)
        live = extent(birth=7, size=10)
        assert classify_extent(recorded, live, lambda size: 123) == FRESH

    def test_birth_mismatch_with_verified_crc_and_growth_is_appended(self):
        recorded = extent(birth=1, size=10, crc=123)
        live = extent(birth=7, size=25)
        assert (
            classify_extent(recorded, live, lambda size: 123) == APPENDED
        )


class TestClassifyInput:
    def test_recorded_extent_decides(self):
        entry = FakeEntry(input_extents={"pv": extent(size=10)})
        assert classify_input(entry, "pv", extent(size=10)) == FRESH
        assert classify_input(entry, "pv", extent(size=25)) == APPENDED
        assert classify_input(entry, "pv", None) == DEAD


class TestDfsExtentProbes:
    def test_input_extent_of_missing_path_is_none(self):
        dfs = DistributedFileSystem()
        assert dfs.input_extent("nope") is None

    def test_input_extent_records_identity_and_crc(self):
        dfs = DistributedFileSystem()
        dfs.write_file("pv", b"hello world\n")
        ext = dfs.input_extent("pv", with_crc=True)
        assert ext.size == 12
        assert ext.crc == zlib.crc32(b"hello world\n")
        # crc is opt-in: the metadata-only probe skips the hash
        assert dfs.input_extent("pv").crc is None

    def test_append_keeps_birth_and_grows_size(self):
        dfs = DistributedFileSystem()
        dfs.write_file("pv", b"a\n")
        before = dfs.input_extent("pv")
        dfs.append("pv", b"b\n")
        after = dfs.input_extent("pv")
        assert after.birth == before.birth
        assert after.size == before.size + 2
        assert after.mtime > before.mtime

    def test_delete_recreate_always_changes_birth(self):
        """The satellite invariant: a recreated path can never alias
        its predecessor's identity, even with byte-identical content
        written in the same breath."""
        dfs = DistributedFileSystem()
        dfs.write_file("pv", b"same bytes\n")
        before = dfs.input_extent("pv")
        dfs.delete("pv")
        dfs.write_file("pv", b"same bytes\n")
        after = dfs.input_extent("pv")
        assert after.birth > before.birth
        assert after.mtime > before.mtime

    def test_overwrite_changes_birth(self):
        """write_file(overwrite=True) is delete-then-create: the new
        inode draws a fresh tick, so it cannot alias the old mtime or
        generation either."""
        dfs = DistributedFileSystem()
        dfs.write_file("pv", b"v1\n")
        before = dfs.input_extent("pv")
        dfs.write_file("pv", b"v1\n", overwrite=True)
        after = dfs.input_extent("pv")
        assert after.birth > before.birth
        assert after.mtime > before.mtime

    @staticmethod
    def _written_in_pieces(data: bytes, piece: int = 4) -> DistributedFileSystem:
        dfs = DistributedFileSystem()
        for offset in range(0, len(data), piece):
            dfs.append("pv", data[offset : offset + piece])
        return dfs

    def test_read_range_spans_blocks(self):
        data = b"0123456789abcdef"
        dfs = self._written_in_pieces(data)
        assert dfs.read_range("pv", 2, 11) == data[2:11]
        assert dfs.read_range("pv", 0, len(data)) == data
        assert dfs.read_range("pv", 15, 16) == b"f"

    def test_prefix_crc32_matches_zlib_over_any_prefix(self):
        data = b"0123456789abcdef"
        dfs = self._written_in_pieces(data)
        for size in (0, 3, 4, 9, len(data)):
            assert dfs.prefix_crc32("pv", size) == zlib.crc32(data[:size])
        assert dfs.prefix_crc32("pv") == zlib.crc32(data)

    def test_append_extends_crc_incrementally(self):
        # the identity the manager's delta refresh relies on: the
        # merged crc is the recorded crc rolled forward over the tail
        dfs = DistributedFileSystem()
        dfs.write_file("pv", b"head\n")
        base = dfs.input_extent("pv", with_crc=True).crc
        dfs.append("pv", b"tail\n")
        assert dfs.prefix_crc32("pv") == zlib.crc32(b"tail\n", base)


class TestClassifyEntry:
    def _dfs_with(self, path: str, data: bytes) -> DistributedFileSystem:
        dfs = DistributedFileSystem()
        dfs.write_file(path, data)
        dfs.write_file("out", b"stored\n")
        return dfs

    @staticmethod
    def _entry(dfs, extents) -> FakeEntry:
        """An entry over *extents* whose output "out" is stamped."""
        return FakeEntry(input_extents=extents, output_extent=dfs.input_extent("out"))

    def test_fresh_entry(self):
        dfs = self._dfs_with("pv", b"rows\n")
        live = dfs.input_extent("pv", with_crc=True)
        entry = self._entry(dfs, {"pv": live})
        freshness = classify_entry(entry, dfs)
        assert freshness.fresh
        assert not freshness.stale
        assert not freshness.is_appended

    def test_appended_entry_captures_live_extent(self):
        dfs = self._dfs_with("pv", b"rows\n")
        recorded = dfs.input_extent("pv", with_crc=True)
        entry = self._entry(dfs, {"pv": recorded})
        dfs.append("pv", b"more\n")
        freshness = classify_entry(entry, dfs)
        assert freshness.is_appended
        assert freshness.appended["pv"].size == recorded.size + 5

    def test_any_rewritten_input_poisons_the_entry(self):
        dfs = self._dfs_with("pv", b"rows\n")
        extents = {
            "pv": dfs.input_extent("pv", with_crc=True),
        }
        dfs.write_file("users", b"alice\n")
        extents["users"] = dfs.input_extent("users", with_crc=True)
        entry = self._entry(dfs, extents)
        dfs.write_file("users", b"mallory\n", overwrite=True)
        freshness = classify_entry(entry, dfs)
        assert freshness.stale
        assert freshness.kinds["pv"] == FRESH
        assert freshness.kinds["users"] == REWRITTEN

    def test_verified_birth_mismatch_rebases_recorded_extent(self):
        """The restart path: a crc-verified foreign birth classifies
        fresh AND the recorded extent is rebased onto the live inode,
        so the next probe compares births directly."""
        dfs = self._dfs_with("pv", b"rows\n")
        live = dfs.input_extent("pv", with_crc=True)
        recorded = InputExtent(
            mtime=999, generation=7, birth=999, size=live.size, crc=live.crc
        )
        entry = self._entry(dfs, {"pv": recorded})
        freshness = classify_entry(entry, dfs)
        assert freshness.fresh
        rebased = entry.input_extents["pv"]
        assert rebased.birth == live.birth
        assert rebased.mtime == live.mtime
        assert rebased.crc == live.crc

    def test_an_output_changed_behind_the_entry_poisons_it(self):
        dfs = self._dfs_with("pv", b"rows\n")
        entry = self._entry(dfs, {"pv": dfs.input_extent("pv")})
        dfs.append("out", b"more\n")
        freshness = classify_entry(entry, dfs)
        assert freshness.stale and freshness.kinds == {"pv": FRESH}
        entry.output_extent = None  # never verified: never served
        assert not classify_entry(entry, dfs).output_intact


def filter_plan(store="out"):
    return linear_plan(
        POLoad("pv", SCHEMA),
        POFilter(BinaryOp(">", Column(1), Const(1.0)), schema=SCHEMA),
        POStore(store, SCHEMA),
    )


class TestDeltaChain:
    def test_filter_chain_is_eligible(self):
        chain = delta_chain(filter_plan())
        assert [op.kind for op in chain] == ["filter"]

    def test_filter_foreach_chain_is_eligible(self):
        plan = linear_plan(
            POLoad("pv", SCHEMA),
            POFilter(BinaryOp(">", Column(1), Const(1.0)), schema=SCHEMA),
            POForEach([Column(0)], [False], ["u"], schema=PROJ_SCHEMA),
            POStore("out", PROJ_SCHEMA),
        )
        chain = delta_chain(plan)
        assert [op.kind for op in chain] == ["filter", "foreach"]

    def test_bare_copy_chain_is_eligible(self):
        plan = linear_plan(POLoad("pv", SCHEMA), POStore("out", SCHEMA))
        assert delta_chain(plan) == []

    def test_limit_is_ineligible(self):
        # limit(old ++ tail) != limit(old) ++ limit(tail)
        plan = linear_plan(
            POLoad("pv", SCHEMA),
            POLimit(5, schema=SCHEMA),
            POStore("out", SCHEMA),
        )
        assert delta_chain(plan) is None

    def test_side_branch_is_ineligible(self):
        plan = PhysicalPlan()
        load = plan.add(POLoad("pv", SCHEMA))
        split = plan.add(POSplit(schema=SCHEMA))
        main = plan.add(POStore("out", SCHEMA))
        side = plan.add(POStore("side", SCHEMA, side=True))
        plan.connect(load, split)
        plan.connect(split, main)
        plan.connect(split, side)
        assert delta_chain(plan) is None

    def test_multi_load_union_is_ineligible(self):
        plan = PhysicalPlan()
        left = plan.add(POLoad("a", SCHEMA))
        right = plan.add(POLoad("b", SCHEMA))
        union = plan.add(POUnion(2, schema=SCHEMA))
        store = plan.add(POStore("out", SCHEMA))
        plan.connect(left, union)
        plan.connect(right, union)
        plan.connect(union, store)
        assert delta_chain(plan) is None

    def test_delta_upgradeable_mirrors_chain(self):
        assert delta_upgradeable(FakeEntry(plan=filter_plan()))
        limit = linear_plan(
            POLoad("pv", SCHEMA),
            POLimit(5, schema=SCHEMA),
            POStore("out", SCHEMA),
        )
        assert not delta_upgradeable(FakeEntry(plan=limit))
