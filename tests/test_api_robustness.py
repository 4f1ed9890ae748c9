"""API-robustness tests: error paths and small behaviours not covered
by the feature suites."""

import pytest

from repro.costmodel.model import CostModel
from repro.dfs.filesystem import DistributedFileSystem
from repro.experiments.common import ExperimentResult
from repro.mapreduce.job import JobConf, MapReduceJob, Workflow
from repro.mapreduce.stats import JobStats, StoreStat, TimeBreakdown
from repro.pig.engine import PigServer
from repro.pig.physical.operators import POLoad, POStore
from repro.pig.physical.plan import linear_plan
from repro.relational.schema import Schema
from repro.relational.types import DataType

SCHEMA = Schema.of(("a", DataType.CHARARRAY))


class TestWorkflowApi:
    def _workflow(self):
        job_a = MapReduceJob(
            linear_plan(POLoad("in", SCHEMA), POStore("mid", SCHEMA)),
            temporary=True,
        )
        job_b = MapReduceJob(
            linear_plan(POLoad("mid", SCHEMA), POStore("out", SCHEMA))
        )
        return Workflow(jobs=[job_a, job_b]), job_a, job_b

    def test_job_by_id_missing(self):
        workflow, *_ = self._workflow()
        with pytest.raises(KeyError):
            workflow.job_by_id("nope")

    def test_producers_map(self):
        workflow, job_a, job_b = self._workflow()
        producers = workflow.producers()
        assert producers["mid"] is job_a
        assert producers["out"] is job_b

    def test_cycle_detected(self):
        job_a = MapReduceJob(
            linear_plan(POLoad("x", SCHEMA), POStore("y", SCHEMA))
        )
        job_b = MapReduceJob(
            linear_plan(POLoad("y", SCHEMA), POStore("x", SCHEMA))
        )
        workflow = Workflow(jobs=[job_a, job_b])
        with pytest.raises(ValueError):
            workflow.topo_order()

    def test_len_and_iter(self):
        workflow, *_ = self._workflow()
        assert len(workflow) == 2
        assert len(list(workflow)) == 2

    def test_repr(self):
        workflow, job_a, _ = self._workflow()
        assert "Workflow" in repr(workflow)
        assert "map-only" in repr(job_a)


class TestStatsApi:
    def test_store_for_path(self):
        stats = JobStats(job_id="j")
        stats.stores.append(StoreStat(path="p", bytes=10, records=2))
        assert stats.store_for_path("p").bytes == 10
        assert stats.store_for_path("missing") is None

    def test_output_vs_side_bytes(self):
        stats = JobStats(job_id="j")
        stats.stores.append(StoreStat(path="main", bytes=100))
        stats.stores.append(StoreStat(path="side", bytes=40, side=True))
        assert stats.output_bytes == 100
        assert stats.side_store_bytes == 40
        assert stats.total_store_bytes == 140

    def test_sim_seconds_without_model(self):
        stats = JobStats(job_id="j")
        assert stats.sim_seconds == 0.0

    def test_time_breakdown_total(self):
        bd = TimeBreakdown(
            t_startup=1, t_load=2, t_ops=3, t_sort=4, t_store=5,
            t_side_stores=6,
        )
        assert bd.total == 21
        assert bd.total_without_side_stores == 15


class TestEngineErrors:
    def test_missing_input_file(self):
        dfs = DistributedFileSystem()
        server = PigServer(dfs)
        from repro.exceptions import DFSError

        with pytest.raises(DFSError):
            server.run("A = load 'nope' as (x); store A into 'o';")

    def test_load_without_schema_fails_cleanly(self):
        dfs = DistributedFileSystem()
        dfs.write_file("d", "a\n")
        server = PigServer(dfs)
        result = server.run("A = load 'd' as (x); store A into 'o';")
        assert result.outputs["o"] == [("a",)]

    def test_conf_defaults(self):
        conf = JobConf()
        assert conf.n_reducers == 28


class TestExperimentResult:
    def test_empty_rows_table(self):
        result = ExperimentResult(title="t", columns=["a"], rows=[])
        text = result.format_table()
        assert "t" in text

    def test_none_cells_render_dash(self):
        result = ExperimentResult(
            title="t", columns=["a", "b"], rows=[{"a": 1}]
        )
        assert "-" in result.format_table()


class TestCostModelScaling:
    def test_scaled_helper(self):
        model = CostModel(data_scale=3.0)
        assert model.scaled(10) == 30.0

    def test_workflow_time_single_job(self):
        model = CostModel()
        assert model.workflow_time({"a": 7.0}, {"a": []}) == 7.0


class TestInterpreterGuards:
    def test_load_mid_pipeline_rejected(self):
        from repro.execution.interpreter import JobInterpreter

        plan = linear_plan(
            POLoad("x", SCHEMA), POLoad("y", SCHEMA), POStore("o", SCHEMA)
        )
        # loads chained after loads are structurally invalid
        dfs = DistributedFileSystem()
        dfs.write_file("x", "a\n")
        job = MapReduceJob(plan)
        from repro.exceptions import PlanError

        with pytest.raises(PlanError):
            JobInterpreter(job, dfs).run()

    def test_store_without_schema_still_writes(self):
        dfs = DistributedFileSystem()
        dfs.write_file("x", "a\nb\n")
        plan = linear_plan(POLoad("x", SCHEMA), POStore("o"))
        job = MapReduceJob(plan)
        from repro.execution.interpreter import JobInterpreter

        stats = JobInterpreter(job, dfs).run()
        assert stats.output_records == 2
