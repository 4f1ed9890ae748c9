"""Unit tests for plan matching (paper §3: containment as fingerprint
membership)."""

import pytest
from algorithm1 import operators_equivalent

from repro import ReStoreSession
from repro.core.matcher import PlanMatcher
from repro.events import RewriteApplied
from repro.pig.physical.operators import (
    POFilter,
    POForEach,
    POGlobalRearrange,
    POLoad,
    POLocalRearrange,
    POPackage,
    POSplit,
    POStore,
)
from repro.pig.physical.plan import PhysicalPlan, linear_plan
from repro.relational.expressions import BinaryOp, Column, Const
from repro.relational.schema import Schema
from repro.relational.types import DataType

SCHEMA = Schema.of(("u", DataType.CHARARRAY), ("r", DataType.DOUBLE))


def project_plan(path="pv", store="s1"):
    """Load -> project(u) -> Store  (a Figure 5 sub-job)."""
    return linear_plan(
        POLoad(path, SCHEMA),
        POForEach([Column(0)], [False], ["u"], schema=SCHEMA.project([0])),
        POStore(store, SCHEMA.project([0])),
    )


def filter_project_plan(path="pv", store="out"):
    """Load -> filter -> project -> Store."""
    return linear_plan(
        POLoad(path, SCHEMA),
        POFilter(BinaryOp(">", Column(1), Const(1.0)), schema=SCHEMA),
        POForEach([Column(0)], [False], ["u"], schema=SCHEMA.project([0])),
        POStore(store, SCHEMA.project([0])),
    )


def join_plan(store="out"):
    """Two loads -> projections -> join (the Figure 2 job)."""
    plan = PhysicalPlan()
    load_a = plan.add(POLoad("pv", SCHEMA))
    proj_a = plan.add(POForEach([Column(0)], [False], ["u"], schema=SCHEMA.project([0])))
    load_b = plan.add(POLoad("users", SCHEMA))
    proj_b = plan.add(POForEach([Column(0)], [False], ["n"], schema=SCHEMA.project([0])))
    lr_a = plan.add(POLocalRearrange([Column(0)], branch=0))
    lr_b = plan.add(POLocalRearrange([Column(0)], branch=1))
    gr = plan.add(POGlobalRearrange(2))
    pkg = plan.add(POPackage("join", 2))
    store_op = plan.add(POStore(store))
    plan.connect(load_a, proj_a)
    plan.connect(proj_a, lr_a)
    plan.connect(load_b, proj_b)
    plan.connect(proj_b, lr_b)
    plan.connect(lr_a, gr)
    plan.connect(lr_b, gr)
    plan.connect(gr, pkg)
    plan.connect(pkg, store_op)
    return plan


class TestOperatorEquivalence:
    def test_same_signature_equivalent(self):
        a = POFilter(BinaryOp(">", Column(1), Const(1.0)))
        b = POFilter(BinaryOp(">", Column(1), Const(1.0)))
        assert operators_equivalent(a, b)

    def test_different_predicate_not_equivalent(self):
        a = POFilter(BinaryOp(">", Column(1), Const(1.0)))
        b = POFilter(BinaryOp(">", Column(1), Const(2.0)))
        assert not operators_equivalent(a, b)

    def test_stores_always_equivalent(self):
        assert operators_equivalent(POStore("x"), POStore("y"))


class TestContainment:
    def test_plan_contains_itself(self):
        matcher = PlanMatcher()
        assert matcher.match(project_plan(), project_plan()) is not None

    def test_sub_plan_contained_in_larger(self):
        contained = linear_plan(
            POLoad("pv", SCHEMA),
            POFilter(BinaryOp(">", Column(1), Const(1.0)), schema=SCHEMA),
            POStore("s", SCHEMA),
        )
        assert PlanMatcher().match(filter_project_plan(), contained) is not None

    def test_larger_not_contained_in_smaller(self):
        matcher = PlanMatcher()
        small = linear_plan(
            POLoad("pv", SCHEMA),
            POFilter(BinaryOp(">", Column(1), Const(1.0)), schema=SCHEMA),
            POStore("s", SCHEMA),
        )
        assert matcher.match(small, filter_project_plan()) is None

    def test_different_load_path_no_match(self):
        matcher = PlanMatcher()
        assert matcher.match(project_plan("pv"), project_plan("other")) is None

    def test_different_projection_no_match(self):
        matcher = PlanMatcher()
        repo = linear_plan(
            POLoad("pv", SCHEMA),
            POForEach([Column(1)], [False], ["r"]),
            POStore("s"),
        )
        assert matcher.match(project_plan(), repo) is None

    def test_project_subjob_matches_join_job(self):
        """Figure 5's sub-jobs are contained in Figure 2's join job."""
        matcher = PlanMatcher()
        result = matcher.match(join_plan(), project_plan("pv"))
        assert result is not None
        assert not result.whole_job
        assert isinstance(result.frontier, POForEach)

    def test_whole_job_detection(self):
        matcher = PlanMatcher()
        result = matcher.match(join_plan("o1"), join_plan("o2"))
        assert result is not None
        assert result.whole_job

    def test_frontier_is_op_feeding_store(self):
        matcher = PlanMatcher()
        result = matcher.match(filter_project_plan(), filter_project_plan())
        assert isinstance(result.frontier, POForEach)


class TestSplitTransparency:
    def test_match_through_split(self):
        """Plans instrumented with Split tees must still match."""
        plan = PhysicalPlan()
        load = plan.add(POLoad("pv", SCHEMA))
        split = plan.add(POSplit())
        side = plan.add(POStore("side", SCHEMA, side=True))
        proj = plan.add(
            POForEach([Column(0)], [False], ["u"], schema=SCHEMA.project([0]))
        )
        store = plan.add(POStore("out", SCHEMA.project([0])))
        plan.connect(load, split)
        plan.connect(split, side)
        plan.connect(split, proj)
        plan.connect(proj, store)

        matcher = PlanMatcher()
        result = matcher.match(plan, project_plan("pv"))
        assert result is not None
        assert result.frontier is proj


class TestBacktracking:
    def test_symmetric_branches(self):
        """Self-join-like plans: two loads of the same path with
        different downstream projections.  A greedy walk would pair the
        first load with the first branch; the fingerprint of the stored
        frontier names the right one."""
        plan = PhysicalPlan()
        load_1 = plan.add(POLoad("pv", SCHEMA))
        proj_u = plan.add(
            POForEach([Column(0)], [False], ["u"], schema=SCHEMA.project([0]))
        )
        load_2 = plan.add(POLoad("pv", SCHEMA))
        proj_r = plan.add(
            POForEach([Column(1)], [False], ["r"], schema=SCHEMA.project([1]))
        )
        lr_1 = plan.add(POLocalRearrange([Column(0)], branch=0))
        lr_2 = plan.add(POLocalRearrange([Column(0)], branch=1))
        gr = plan.add(POGlobalRearrange(2))
        pkg = plan.add(POPackage("join", 2))
        store = plan.add(POStore("out"))
        plan.connect(load_1, proj_u)
        plan.connect(load_2, proj_r)
        plan.connect(proj_u, lr_1)
        plan.connect(proj_r, lr_2)
        plan.connect(lr_1, gr)
        plan.connect(lr_2, gr)
        plan.connect(gr, pkg)
        plan.connect(pkg, store)

        # repo plan projects column 1: matching must not get stuck on
        # the first (column-0) load branch.
        repo = linear_plan(
            POLoad("pv", SCHEMA),
            POForEach([Column(1)], [False], ["r"], schema=SCHEMA.project([1])),
            POStore("s"),
        )
        result = PlanMatcher().match(plan, repo)
        assert result is not None
        assert result.frontier is proj_r



#: one UNION, then the same UNION over swapped inputs: of two loads, and
#: of a filter (a sub-job the second run reuses) and a load
UNIONS = {
    "loads": (
        "F = load 'in/a' as (k, v:int);\n"
        "B = load 'in/b' as (k, v:int);\nU = union F, B;\nstore U into 'out/ab';\n"
    ),
    "filter": (
        "A = load 'in/a' as (k, v:int);\nF = filter A by v > 0;\n"
        "B = load 'in/b' as (k, v:int);\nU = union F, B;\nstore U into 'out/ab';\n"
    ),
}


def union_outputs(union_ab, restore_enabled):
    """The bytes ``union F, B`` and then ``union B, F`` write in one
    session, and each run's events."""
    union_ba = union_ab.replace("union F, B", "union B, F").replace("out/ab", "out/ba")
    with ReStoreSession(restore_enabled=restore_enabled) as session:
        session.write_file("in/a", "a\t1\nb\t2\nc\t3\n")
        session.write_file("in/b", "x\t4\ny\t5\n")
        events = [session.run(union_ab).events, session.run(union_ba).events]
        return [session.dfs.read_file(p) for p in ("out/ab", "out/ba")], events


class TestSwappedUnion:
    @pytest.mark.parametrize("inputs", sorted(UNIONS))
    def test_a_swapped_union_writes_what_a_restore_off_run_writes(self, inputs):
        """A UNION emits its inputs in order, so ``union B, A`` is not
        ``union A, B``: serving the first query's stored output for the
        second would write ``a,b,c,x,y`` where a run without reuse
        writes ``x,y,a,b,c``."""
        (ab, ba), events = union_outputs(UNIONS[inputs], restore_enabled=True)
        (plain_ab, plain_ba), _ = union_outputs(UNIONS[inputs], restore_enabled=False)
        assert plain_ab != plain_ba  # the order is the answer
        assert (ab, ba) == (plain_ab, plain_ba)
        # the first run stored its whole job, the one a swapped match
        # would serve; the filter's sub-job is reused by the second run
        assert any(e.anchor_kind == "whole-job" for e in events[0])
        if inputs == "filter":
            assert any(isinstance(e, RewriteApplied) for e in events[1])
