"""Unit tests for sub-job enumeration and Store injection (paper §4)."""

import itertools

from repro.core.enumerator import SubJobEnumerator
from repro.core.heuristics import HEURISTICS, classify_operator
from repro.core.manager import ReStoreConfig, ReStoreManager
from repro.core.selector import sub_job_plan
from repro.events import SubJobStored
from repro.mapreduce.job import MapReduceJob
from repro.pig.engine import PigServer
from repro.pig.physical.operators import POSplit, POStore
from repro.pig.physical.plan import linear_plan
from repo_stream import EntrySpec, pipeline_ops

PV = "user, action:int, timestamp:int, est_revenue:double, page_info, page_links"
USERS = "name, phone, address, city"

L2ISH = f"""
A = load 'data/page_views' as ({PV});
B = foreach A generate user, est_revenue;
alpha = load 'data/users' as ({USERS});
beta = foreach alpha generate name;
C = join beta by name, B by user;
store C into 'out';
"""


def make_enumerator(heuristic):
    """An enumerator for the named heuristic with a numbering of its
    own (the manager passes the DFS's)."""
    return SubJobEnumerator(HEURISTICS[heuristic], itertools.count(1).__next__)


def compile_job(server, source=L2ISH):
    return server.compile(source).jobs[0]


def anchor_kinds(job, stores):
    """The categories of the anchors *stores* materialize."""
    return [
        classify_operator(sub_job_plan(job.plan, s).frontier(), job.plan)
        for s in stores
    ]


class TestInjection:
    def test_conservative_injects_two_project_stores(self, server):
        job = compile_job(server)
        stores = make_enumerator("conservative").enumerate_and_inject(job)
        assert anchor_kinds(job, stores) == ["project", "project"]
        assert job.plan.side_stores() == stores

    def test_aggressive_skips_store_fed_anchor(self, server):
        """The join flatten feeds the primary Store directly: its output
        is already stored, so HA must not double-store it."""
        job = compile_job(server)
        stores = make_enumerator("aggressive").enumerate_and_inject(job)
        assert anchor_kinds(job, stores) == ["project", "project"]

    def test_aggressive_stores_group_output(self, server):
        job = compile_job(server, f"""
            A = load 'data/page_views' as ({PV});
            D = group A by user;
            E = foreach D generate group, COUNT(A);
            store E into 'out';
        """)
        stores = make_enumerator("aggressive").enumerate_and_inject(job)
        assert "group" in anchor_kinds(job, stores)

    def test_tee_structure(self, server):
        job = compile_job(server)
        make_enumerator("conservative").enumerate_and_inject(job)
        job.validate()
        splits = [op for op in job.plan if isinstance(op, POSplit)]
        assert len(splits) == 2
        for split in splits:
            succs = job.plan.successors(split)
            assert any(isinstance(s, POStore) and s.side for s in succs)
            assert any(not isinstance(s, POStore) for s in succs)

    def test_no_heuristic_reuses_tee(self, server):
        """Multiple stores at the same operator share one Split."""
        job = compile_job(server)
        make_enumerator("no-heuristic").enumerate_and_inject(job)
        job.validate()

    def test_generated_pipeline_injects_three_of_its_four_anchors(self):
        """load → filter → project → group → aggregate → store: HA
        anchors four operators; the aggregate feeds the store, so
        three candidates are injected — for every job of a stream."""
        enumerator = make_enumerator("aggressive")
        for index in range(10):
            spec = EntrySpec(index, f"enum/ds{index}", 1 + index % 37, "aggregate")
            ops = pipeline_ops(spec, spec.shape)
            ops.append(POStore(f"enum/out{index}", ops[-1].schema))
            job = MapReduceJob(linear_plan(*ops), job_id=f"enum_{index}")
            assert len(enumerator.enumerate_and_inject(job)) == 3

    def test_unique_store_paths(self, server):
        job = compile_job(server)
        stores = make_enumerator("aggressive").enumerate_and_inject(job)
        paths = [s.path for s in stores]
        assert len(paths) == len(set(paths))


class TestCandidatePlans:
    """A candidate sub-job is cut from the instrumented plan
    (:func:`sub_job_plan`)."""

    def test_candidate_plan_is_standalone(self, server):
        job = compile_job(server)
        stores = make_enumerator("conservative").enumerate_and_inject(job)
        for store in stores:
            plan = sub_job_plan(job.plan, store)
            plan.validate()
            # a clean load -> project -> store job, no instrumentation
            kinds = sorted(op.kind for op in plan)
            assert kinds == ["foreach", "load", "store"]
            assert [s.path for s in plan.stores()] == [store.path]
            assert not plan.primary_store().side

    def test_candidate_plan_free_of_splits(self, server):
        job = compile_job(server)
        stores = make_enumerator("no-heuristic").enumerate_and_inject(job)
        assert stores
        for store in stores:
            plan = sub_job_plan(job.plan, store)
            assert not any(isinstance(op, POSplit) for op in plan)

    def test_candidate_schema_matches_anchor(self, server):
        job = compile_job(server)
        stores = make_enumerator("conservative").enumerate_and_inject(job)
        for store in stores:
            plan = sub_job_plan(job.plan, store)
            assert plan.primary_store().schema is store.schema
            assert plan.frontier().schema is store.schema
            assert len(store.schema) >= 1

    def test_candidate_matches_fresh_plan(self, server):
        """The extracted sub-job must be matchable against a fresh
        compilation of the same query — the §4 'indistinguishable from
        other jobs in the repository' property."""
        from repro.core.matcher import PlanMatcher

        job = compile_job(server)
        stores = make_enumerator("conservative").enumerate_and_inject(job)
        fresh = compile_job(server)  # identical query, fresh plan
        matcher = PlanMatcher()
        for store in stores:
            sub_plan = sub_job_plan(job.plan, store)
            assert matcher.match(fresh.plan, sub_plan) is not None

    def test_execution_unchanged_by_injection(self, server, small_data):
        """Injection is semantically transparent: same final output."""
        plain = PigServer(small_data).run(L2ISH.replace("'out'", "'out_plain'"))
        job_server = PigServer(small_data)
        workflow = job_server.compile(L2ISH.replace("'out'", "'out_inj'"))
        for job in workflow.jobs:
            make_enumerator("aggressive").enumerate_and_inject(job)
        injected = job_server.run_workflow(workflow)
        assert sorted(plain.outputs["out_plain"]) == sorted(
            injected.outputs["out_inj"]
        )

    def test_side_store_written(self, server, small_data):
        workflow = server.compile(L2ISH.replace("'out'", "'out2'"))
        job = workflow.jobs[0]
        stores = make_enumerator("conservative").enumerate_and_inject(job)
        server.run_workflow(workflow)
        for store in stores:
            assert small_data.exists(store.path)
            assert small_data.file_size(store.path) > 0


class TestEqualSignatureAnchors:
    """A cut ends at the anchor its side store hangs off, never at
    another operator with the same signature."""

    @staticmethod
    def _duplicated_filter_job():
        """load -> filter(a>5) -> project -> filter(a>5) -> store,
        built physically so the optimizer cannot merge the equal
        filters (the compiler would)."""
        from repro.mapreduce.job import MapReduceJob
        from repro.pig.physical.operators import POFilter, POForEach, POLoad
        from repro.pig.physical.plan import linear_plan
        from repro.relational.expressions import BinaryOp, Column, Const
        from repro.relational.schema import Schema
        from repro.relational.types import DataType

        schema = Schema.of(
            ("u", DataType.CHARARRAY),
            ("a", DataType.INT),
            ("r", DataType.DOUBLE),
        )
        predicate = lambda: BinaryOp(">", Column(1), Const(5))  # noqa: E731
        def project():
            return POForEach(
                [Column(0), Column(1), Column(2)],
                [False] * 3,
                ["u", "a", "r"],
                schema=schema,
            )

        plan = linear_plan(
            POLoad("data/ev", schema),
            POFilter(predicate(), schema=schema),
            project(),
            POFilter(predicate(), schema=schema),
            project(),
            POStore("out", schema=schema),
        )
        return MapReduceJob(plan, job_id="dup_filters")

    def test_equal_signature_operators_cut_at_their_own_anchor(self):
        from repro.pig.physical.operators import POFilter

        job = self._duplicated_filter_job()
        plan = job.plan
        first, second = [op for op in plan.topo_order() if isinstance(op, POFilter)]
        assert first.signature() == second.signature()  # the ambiguous case
        enumerator = make_enumerator("conservative")
        stores = enumerator.enumerate_and_inject(job)
        cuts = [sub_job_plan(plan, store) for store in stores]
        by_len = sorted(len(cut) for cut in cuts)
        # the shallow filter's candidate stops at depth 3 (load ->
        # filter -> store); the deep filter's candidate carries the
        # whole equal-signature prefix and ends at ITS anchor, not an
        # arbitrary same-signature operator
        assert by_len == [3, 4, 5]
        for store, cut in zip(stores, cuts):
            (tee,) = plan.predecessors(store)
            assert cut.frontier() is plan.predecessors(tee)[0]

    def test_a_cut_contracts_the_splits_it_passes_through(self, server):
        job = compile_job(server)
        enumerator = make_enumerator("aggressive")
        enumerator.enumerate_and_inject(job)  # splices tees into the plan
        plan = job.plan
        tees = [op for op in plan.operators if isinstance(op, POSplit)]
        assert tees
        for tee in tees:
            (anchor,) = plan.predecessors(tee)
            sub_plan = plan.subplan_upto(tee)
            # the tee contracts away: the operator feeding it is the sink
            assert tee not in sub_plan
            assert sub_plan.sinks() == [anchor]
            assert sub_plan.fingerprint() == plan.subplan_upto(anchor).fingerprint()
        # a cut past an upstream anchor passes through its tee
        join = plan.predecessors(plan.primary_store())[0]
        assert not any(isinstance(op, POSplit) for op in plan.subplan_upto(join))
        closure = plan.upstream_closure(join)
        assert all(tee.op_id in closure for tee in tees)


class TestNothingRegistrationWouldRefuse:
    """A side store that registration would refuse on the plan alone is
    never written."""

    #: aggressive anchors a FILTER and a GROUP; the job stores over the
    #: file it loads
    OVERWRITE = f"""
        A = load 'data/page_views' as ({PV});
        B = filter A by action == 1;
        D = group B by user;
        E = foreach D generate group, COUNT(B);
        store E into 'data/page_views';
    """

    def test_job_storing_over_its_input_is_not_instrumented(self, server):
        job = compile_job(server, self.OVERWRITE)
        assert make_enumerator("aggressive").enumerate_and_inject(job) == []
        assert job.plan.side_stores() == []
        # non-vacuity: the same plan storing elsewhere gets both anchors
        other = compile_job(server, self.OVERWRITE.replace("data/page_views';", "o';"))
        stores = make_enumerator("aggressive").enumerate_and_inject(other)
        assert sorted(anchor_kinds(other, stores)) == ["filter", "group"]

    def test_storing_over_its_input_writes_and_registers_nothing(self, small_data):
        manager = ReStoreManager(small_data, config=ReStoreConfig())
        result = PigServer(small_data, restore=manager).run(self.OVERWRITE)
        (stats,) = result.stats.job_stats.values()
        assert [(s.path, s.side) for s in stats.stores] == [("data/page_views", False)]
        assert small_data.list_paths("restore/") == []
        assert not [e for e in result.events if isinstance(e, SubJobStored)]
        assert len(manager.repository) == 0
        assert small_data.read_text("data/page_views").splitlines() == [
            "alice\t2",
            "bob\t1",
        ]
