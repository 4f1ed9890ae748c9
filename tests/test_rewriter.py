"""Unit tests for plan rewriting (paper §3, Figures 4 and 6)."""

from repro.core.matcher import PlanMatcher
from repro.core.rewriter import PlanRewriter
from repro.mapreduce.job import MapReduceJob
from repro.pig.physical.operators import (
    POFilter,
    POForEach,
    POLoad,
    POStore,
    POUnion,
)
from repro.pig.physical.plan import PhysicalPlan, linear_plan
from repro.relational.expressions import BinaryOp, Column, Const
from repro.relational.schema import Schema
from repro.relational.types import DataType

SCHEMA = Schema.of(("u", DataType.CHARARRAY), ("r", DataType.DOUBLE))
PROJ_SCHEMA = SCHEMA.project([0])


def input_plan():
    """Load -> filter -> project -> Store."""
    return linear_plan(
        POLoad("pv", SCHEMA),
        POFilter(BinaryOp(">", Column(1), Const(1.0)), schema=SCHEMA),
        POForEach([Column(0)], [False], ["u"], schema=PROJ_SCHEMA),
        POStore("out", PROJ_SCHEMA),
    )


def repo_filter_plan():
    """Load -> filter -> Store: a stored sub-job of the above."""
    return linear_plan(
        POLoad("pv", SCHEMA),
        POFilter(BinaryOp(">", Column(1), Const(1.0)), schema=SCHEMA),
        POStore("stored/f", SCHEMA),
    )


class TestPartialRewrite:
    def test_matched_portion_replaced_by_load(self):
        plan = input_plan()
        match = PlanMatcher().match(plan, repo_filter_plan())
        load = PlanRewriter().rewrite_partial(plan, match, "stored/f", SCHEMA)

        plan.validate()
        kinds = sorted(op.kind for op in plan)
        assert kinds == ["foreach", "load", "store"]
        assert load.path == "stored/f"
        assert plan.loads()[0].path == "stored/f"

    def test_rewrite_preserves_downstream(self):
        plan = input_plan()
        match = PlanMatcher().match(plan, repo_filter_plan())
        PlanRewriter().rewrite_partial(plan, match, "stored/f", SCHEMA)
        store = plan.primary_store()
        assert store.path == "out"
        pred = plan.predecessors(store)[0]
        assert isinstance(pred, POForEach)

    def test_iterated_rewrites(self):
        """After the first rewrite, a second repo plan can match the
        rewritten plan (the paper's repeated repository scan)."""
        plan = input_plan()
        matcher = PlanMatcher()
        rewriter = PlanRewriter()
        match = matcher.match(plan, repo_filter_plan())
        rewriter.rewrite_partial(plan, match, "stored/f", SCHEMA)

        # A repo plan computing project over the stored filter output:
        repo_2 = linear_plan(
            POLoad("stored/f", SCHEMA),
            POForEach([Column(0)], [False], ["u"], schema=PROJ_SCHEMA),
            POStore("stored/fp", PROJ_SCHEMA),
        )
        match_2 = matcher.match(plan, repo_2)
        assert match_2 is not None
        rewriter.rewrite_partial(plan, match_2, "stored/fp", PROJ_SCHEMA)
        kinds = sorted(op.kind for op in plan)
        assert kinds == ["load", "store"]


def union_plan():
    """Load pv -> filter --+
                           +--> UNION -> Store
       Load other ---------+"""
    plan = PhysicalPlan()
    pv, other = POLoad("pv", SCHEMA), POLoad("other", SCHEMA)
    filt = POFilter(BinaryOp(">", Column(1), Const(1.0)), schema=SCHEMA)
    union, store = POUnion(2, schema=SCHEMA), POStore("out", SCHEMA)
    for op in (pv, filt, other, union, store):
        plan.add(op)
    plan.connect(pv, filt)
    plan.connect(filt, union)
    plan.connect(other, union)
    plan.connect(union, store)
    return plan


class TestLoadOrder:
    """The interpreter streams a job's loads in plan order and a UNION
    emits rows as they arrive, so a rewrite's Load must stream where
    the Load it replaces did."""

    def test_partial_rewrite_takes_the_replaced_loads_place(self):
        plan = union_plan()
        match = PlanMatcher().match(plan, repo_filter_plan())
        PlanRewriter().rewrite_partial(plan, match, "stored/f", SCHEMA)
        plan.validate()
        assert [load.path for load in plan.loads()] == ["stored/f", "other"]


class TestCopyJob:
    def test_final_job_degrades_to_copy(self):
        job = MapReduceJob(input_plan())
        PlanRewriter().rewrite_as_copy_job(job, "stored/full", PROJ_SCHEMA)
        job.validate()
        assert len(job.plan) == 2
        assert job.plan.loads()[0].path == "stored/full"
        assert job.plan.primary_store().path == "out"


class TestRedirectLoads:
    def test_redirect(self):
        job_a = MapReduceJob(input_plan())
        job_b = MapReduceJob(
            linear_plan(POLoad("pv", SCHEMA), POStore("o2", SCHEMA))
        )
        n = PlanRewriter().redirect_loads([job_a, job_b], "pv", "stored/pv")
        assert n == 2
        assert all(
            load.path == "stored/pv"
            for job in (job_a, job_b)
            for load in job.plan.loads()
        )

    def test_redirect_only_matching_paths(self):
        job = MapReduceJob(
            linear_plan(POLoad("other", SCHEMA), POStore("o", SCHEMA))
        )
        n = PlanRewriter().redirect_loads([job], "pv", "stored/pv")
        assert n == 0
        assert job.plan.loads()[0].path == "other"
