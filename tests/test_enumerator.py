"""Unit tests for sub-job enumeration and Store injection (paper §4)."""

import itertools

from repro.core.enumerator import SubJobEnumerator
from repro.core.heuristics import HEURISTICS
from repro.core.manager import ReStoreConfig, ReStoreManager
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


class TestInjection:
    def test_conservative_injects_two_project_stores(self, server):
        job = compile_job(server)
        candidates = make_enumerator("conservative").enumerate_and_inject(job)
        assert len(candidates) == 2
        assert all(c.anchor_kind == "project" for c in candidates)
        assert len(job.plan.side_stores()) == 2

    def test_aggressive_skips_store_fed_anchor(self, server):
        """The join flatten feeds the primary Store directly: its output
        is already stored, so HA must not double-store it."""
        job = compile_job(server)
        candidates = make_enumerator("aggressive").enumerate_and_inject(job)
        assert all(c.anchor_kind != "join" for c in candidates)
        assert len(candidates) == 2  # just the projections

    def test_aggressive_stores_group_output(self, server):
        job = compile_job(server, f"""
            A = load 'data/page_views' as ({PV});
            D = group A by user;
            E = foreach D generate group, COUNT(A);
            store E into 'out';
        """)
        candidates = make_enumerator("aggressive").enumerate_and_inject(job)
        kinds = sorted(c.anchor_kind for c in candidates)
        assert "group" in kinds

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
        candidates = make_enumerator("aggressive").enumerate_and_inject(job)
        paths = [c.store_path for c in candidates]
        assert len(paths) == len(set(paths))


class TestCandidatePlans:
    def test_candidate_plan_is_standalone(self, server):
        job = compile_job(server)
        candidates = make_enumerator("conservative").enumerate_and_inject(job)
        for candidate in candidates:
            candidate.plan.validate()
            # a clean load -> project -> store job, no instrumentation
            kinds = sorted(op.kind for op in candidate.plan)
            assert kinds == ["foreach", "load", "store"]

    def test_candidate_plan_free_of_splits(self, server):
        job = compile_job(server)
        candidates = make_enumerator("no-heuristic").enumerate_and_inject(job)
        for candidate in candidates:
            assert not any(isinstance(op, POSplit) for op in candidate.plan)

    def test_candidate_schema_matches_anchor(self, server):
        job = compile_job(server)
        candidates = make_enumerator("conservative").enumerate_and_inject(job)
        for candidate in candidates:
            assert len(candidate.output_schema) >= 1

    def test_candidate_matches_fresh_plan(self, server):
        """The extracted sub-job must be matchable against a fresh
        compilation of the same query — the §4 'indistinguishable from
        other jobs in the repository' property."""
        from repro.core.matcher import PlanMatcher

        job = compile_job(server)
        candidates = make_enumerator("conservative").enumerate_and_inject(job)
        fresh = compile_job(server)  # identical query, fresh plan
        matcher = PlanMatcher()
        for candidate in candidates:
            assert matcher.match(fresh.plan, candidate.plan) is not None

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
        candidates = make_enumerator("conservative").enumerate_and_inject(job)
        server.run_workflow(workflow)
        for candidate in candidates:
            assert small_data.exists(candidate.store_path)
            assert small_data.file_size(candidate.store_path) > 0


class TestAnchorTwinMapping:
    """The anchor's clone comes from subplan_upto_mapped's op-id
    mapping, never from scanning sinks for a matching signature."""

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

    def test_equal_signature_operators_get_distinct_twins(self):
        from repro.pig.physical.operators import POFilter

        job = self._duplicated_filter_job()
        plan = job.plan
        first, second = [
            op for op in plan.topo_order() if isinstance(op, POFilter)
        ]
        assert first.signature() == second.signature()  # the ambiguous case
        enumerator = make_enumerator("conservative")
        candidates = enumerator.enumerate_and_inject(job)
        by_len = sorted(len(c.plan) for c in candidates)
        # the shallow filter's candidate stops at depth 3 (load ->
        # filter -> store); the deep filter's candidate carries the
        # whole equal-signature prefix and anchors at ITS clone, not
        # an arbitrary same-signature twin
        assert by_len == [3, 4, 5]

    def test_subplan_upto_mapped_returns_the_anchors_clone(self):
        job = self._duplicated_filter_job()
        plan = job.plan
        for anchor in plan.topo_order():
            if isinstance(anchor, (POSplit, POStore)):
                continue
            sub_plan, mapping = plan.subplan_upto_mapped(anchor)
            twin = mapping[anchor.op_id]
            assert twin in sub_plan
            assert twin.signature() == anchor.signature()
            assert sub_plan.successors(twin) == []  # the extraction sink

    def test_contracted_split_maps_to_its_predecessor(self, server):
        job = compile_job(server)
        enumerator = make_enumerator("aggressive")
        enumerator.enumerate_and_inject(job)  # splices tees into the plan
        plan = job.plan
        tees = [op for op in plan.operators if isinstance(op, POSplit)]
        assert tees
        tee = tees[0]
        anchor = plan.predecessors(tee)[0]
        sub_plan, mapping = plan.subplan_upto_mapped(tee)
        # the tee contracts away in the clone; its mapping entry is the
        # operator that absorbed the edge (the anchor's twin)
        assert mapping[tee.op_id] is mapping[anchor.op_id]


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
        kinds = sorted(
            c.anchor_kind
            for c in make_enumerator("aggressive").enumerate_and_inject(other)
        )
        assert kinds == ["filter", "group"]

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
