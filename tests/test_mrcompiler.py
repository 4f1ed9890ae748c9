"""Unit tests for the MapReduce compiler (job cutting)."""

from repro.pig.logical.builder import build_logical_plan
from repro.pig.mrcompiler import MRCompiler
from repro.pig.parser import parse
from repro.pig.physical.operators import (
    POForEach,
    POLoad,
    POPackage,
    POStore,
    POUnion,
)


def compile_workflow(source, temp_prefix="tmp/test"):
    plan = build_logical_plan(parse(source))
    return MRCompiler(temp_prefix, job_prefix="test").compile(plan)


class TestSingleJob:
    def test_map_only_job(self):
        wf = compile_workflow(
            "A = load 'd' as (x:int); B = filter A by x > 1;"
            "store B into 'o';"
        )
        assert len(wf.jobs) == 1
        job = wf.jobs[0]
        assert not job.has_shuffle
        assert job.output_path == "o"

    def test_group_is_one_job(self):
        wf = compile_workflow(
            "A = load 'd' as (u, r:double); D = group A by u;"
            "E = foreach D generate group, SUM(A.r); store E into 'o';"
        )
        assert len(wf.jobs) == 1
        assert wf.jobs[0].has_shuffle

    def test_join_is_one_job_with_flatten(self):
        wf = compile_workflow(
            "A = load 'a' as (x); B = load 'b' as (y);"
            "C = join A by x, B by y; store C into 'o';"
        )
        assert len(wf.jobs) == 1
        plan = wf.jobs[0].plan
        package = [op for op in plan if isinstance(op, POPackage)]
        assert len(package) == 1 and package[0].mode == "join"
        flatten = plan.successors(package[0])[0]
        assert isinstance(flatten, POForEach)
        assert all(flatten.flattens)

    def test_two_loads_merged_into_join_job(self):
        wf = compile_workflow(
            "A = load 'a' as (x); B = load 'b' as (y);"
            "C = join A by x, B by y; store C into 'o';"
        )
        assert len(wf.jobs[0].plan.loads()) == 2


class TestMultiJob:
    L3ISH = (
        "A = load 'pv' as (user, r:double);"
        "B = load 'users' as (name);"
        "C = join B by name, A by user;"
        "D = group C by $0;"
        "E = foreach D generate group, SUM(C.r);"
        "store E into 'o';"
    )

    def test_join_then_group_is_two_jobs(self):
        wf = compile_workflow(self.L3ISH)
        assert len(wf.jobs) == 2

    def test_intermediate_is_temporary(self):
        wf = compile_workflow(self.L3ISH)
        temps = [j for j in wf.jobs if j.temporary]
        assert len(temps) == 1
        assert temps[0].output_path.startswith("tmp/test/")

    def test_dependency_derived_from_paths(self):
        wf = compile_workflow(self.L3ISH)
        order = wf.topo_order()
        assert order[0].temporary
        deps = wf.dependencies(order[1])
        assert deps == [order[0]]

    def test_l11_shape_three_jobs(self):
        wf = compile_workflow(
            "A = load 'pv' as (user); B = foreach A generate user;"
            "C = distinct B;"
            "alpha = load 'wide' as (user, f1); beta = foreach alpha generate user;"
            "gamma = distinct beta;"
            "D = union C, gamma; E = distinct D; store E into 'o';"
        )
        assert len(wf.jobs) == 3
        final = [j for j in wf.jobs if not j.temporary]
        assert len(final) == 1
        deps = wf.dependencies(final[0])
        assert len(deps) == 2  # the paper's L11: one job depends on two

    def test_union_absorbed_into_following_distinct(self):
        wf = compile_workflow(
            "A = load 'a' as (x); B = load 'b' as (x);"
            "C = union A, B; D = distinct C; store D into 'o';"
        )
        assert len(wf.jobs) == 1
        plan = wf.jobs[0].plan
        assert any(isinstance(op, POUnion) for op in plan)
        assert any(
            isinstance(op, POPackage) and op.mode == "distinct" for op in plan
        )

    def test_map_only_union(self):
        wf = compile_workflow(
            "A = load 'a' as (x); B = load 'b' as (x);"
            "C = union A, B; store C into 'o';"
        )
        assert len(wf.jobs) == 1
        assert not wf.jobs[0].has_shuffle

    def test_group_of_group_two_jobs(self):
        wf = compile_workflow(
            "A = load 'd' as (u, v);"
            "B = group A by u;"
            "C = foreach B generate group, COUNT(A);"
            "D = group C by $1;"
            "E = foreach D generate group, COUNT(C);"
            "store E into 'o';"
        )
        assert len(wf.jobs) == 2


class TestRecomputationSemantics:
    def test_shared_alias_recompiled_per_consumer(self):
        wf = compile_workflow(
            "A = load 'd' as (x:int); B = filter A by x > 1;"
            "store B into 'o1'; store B into 'o2';"
        )
        # recomputation: two map-only jobs, each with its own load
        assert len(wf.jobs) == 2
        fp0 = wf.jobs[0].plan.subplan_upto(
            wf.jobs[0].plan.primary_store()
        )
        # both jobs compute the same thing up to the store
        loads = [job.plan.loads()[0].path for job in wf.jobs]
        assert loads == ["d", "d"]


class TestJobPlanInvariants:
    def test_every_job_validates(self):
        wf = compile_workflow(TestMultiJob.L3ISH)
        for job in wf.jobs:
            job.validate()

    def test_all_sources_are_loads_with_schema(self):
        wf = compile_workflow(TestMultiJob.L3ISH)
        for job in wf.jobs:
            for source in job.plan.sources():
                assert isinstance(source, POLoad)
                assert source.schema is not None

    def test_primary_store_is_marked(self):
        wf = compile_workflow(TestMultiJob.L3ISH)
        for job in wf.jobs:
            store = job.plan.primary_store()
            assert isinstance(store, POStore)
            assert not store.side

    def test_distinct_key_is_whole_row(self):
        wf = compile_workflow(
            "A = load 'd' as (x, y); B = distinct A; store B into 'o';"
        )
        from repro.pig.physical.operators import POLocalRearrange

        lr = [op for op in wf.jobs[0].plan if isinstance(op, POLocalRearrange)][0]
        assert len(lr.key_exprs) == 2

    def test_workflow_final_jobs(self):
        wf = compile_workflow(TestMultiJob.L3ISH)
        finals = wf.final_jobs()
        assert len(finals) == 1
        assert finals[0].output_path == "o"
